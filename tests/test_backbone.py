import numpy as np
import pytest

from skgedrive import autodiff as ad
from skgedrive.autodiff import Tape, Tensor
from skgedrive.backbone import (BackboneConfig, PatchEmbed, PatchMerging,
                                SwinBlock, SwinEncoder, WindowAttention,
                                window_index)
from skgedrive.errors import ConfigError, ContractError

from oracles import sum_, swin_block_reference, window_id_grid


def _cfg(**kw):
    return BackboneConfig(**kw)


def test_stage_shape_law_desk():
    cfg = _cfg()
    assert [cfg.input_size // cfg.patch_size // 2 ** (s - 1)
            for s in range(1, 5)] == [16, 8, 4, 2]
    assert [cfg.stage_channels(s) for s in range(1, 5)] == [24, 48, 96, 192]


def test_stage_shape_law_small_input():
    cfg = _cfg(input_size=32)
    assert [cfg.input_size // cfg.patch_size // 2 ** (s - 1)
            for s in range(1, 5)] == [8, 4, 2, 1]


@pytest.mark.parametrize("bad", [
    dict(input_size=0),
    dict(patch_size=3),               # 64 % 3 != 0
    dict(depths=(1, 1, 2)),
    dict(heads=(2, 4, 8)),
    dict(heads=(5, 4, 8, 16)),        # 5 does not divide 24
    dict(embed_dim=0),
])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        _cfg(**bad)


def test_window_index_permute_roundtrip(rng):
    for h, w, shift in [(8, 8, 0), (8, 8, 2), (6, 6, 2), (2, 2, 2)]:
        x = Tensor(rng.standard_normal((2, h, w, 5)).astype(np.float32))
        idx, inv, n_windows = window_index(h, w, 4, shift)
        assert n_windows == (-(-h // 4)) * (-(-w // 4))
        wins = ad.permute_rows(x, idx, inv, (2 * n_windows, 16, 5))
        assert np.all(wins.numpy().reshape(2, -1, 5)[:, idx < 0] == 0.0)  # padding slots
        back = ad.permute_rows(wins, inv, idx, x.shape)
        np.testing.assert_array_equal(back.numpy(), x.numpy())


def test_window_index_slot_layout():
    """Token (i, j) lands in window (i // w, j // w) at slot (i % w) * w + j % w."""
    h = w = 4
    grid = np.arange(h * w, dtype=np.float32).reshape(1, h, w, 1)
    idx, inv, n_windows = window_index(h, w, 2)
    wins = ad.permute_rows(Tensor(grid), idx, inv, (n_windows, 4, 1)).numpy()[..., 0]
    ids = window_id_grid(h, w, 2)
    for i in range(h):
        for j in range(w):
            assert wins[ids[i, j], (i % 2) * 2 + (j % 2)] == grid[0, i, j, 0]


def test_window_attention_shapes(rng):
    attn = WindowAttention(8, 2, 2, rng)
    x = Tensor(rng.standard_normal((3, 4, 8)).astype(np.float32))
    assert attn(x).shape == (3, 4, 8)


def test_window_attention_token_count_contract(rng):
    attn = WindowAttention(8, 2, 2, rng)
    with pytest.raises(ContractError):
        attn(Tensor(np.zeros((3, 5, 8), dtype=np.float32)))


def test_window_attention_heads_divide_dim(rng):
    with pytest.raises(ConfigError):
        WindowAttention(9, 2, 2, rng)


def test_window_attention_rows_sum_to_one(rng):
    attn = WindowAttention(8, 2, 2, rng)
    attn(Tensor(rng.standard_normal((3, 4, 8)).astype(np.float32)))
    np.testing.assert_allclose(attn.last_attn.sum(axis=-1), 1.0, atol=1e-5)


def test_swin_block_shift_validation(rng):
    with pytest.raises(ConfigError):
        SwinBlock(8, 2, 4, 1, 2.0, rng)


def test_swin_block_preserves_shape(rng):
    blk = SwinBlock(8, 2, 4, 0, 2.0, rng)
    x = Tensor(rng.standard_normal((2, 8, 8, 8)).astype(np.float32))
    assert blk(x).shape == (2, 8, 8, 8)


def test_swin_block_pads_small_grid(rng):
    """A 2x2 grid under a 4-wide window pads up then crops back."""
    blk = SwinBlock(8, 2, 4, 2, 2.0, rng)
    x = Tensor(rng.standard_normal((1, 2, 2, 8)).astype(np.float32))
    assert blk(x).shape == (1, 2, 2, 8)
    assert np.all(np.isfinite(blk(x).numpy()))


def test_shifted_block_blocks_cross_window_pairs(rng):
    """Light version of the exhaustive mask check (4x4 grid, window 2)."""
    blk = SwinBlock(8, 2, 2, 1, 2.0, rng)
    x = Tensor(rng.standard_normal((1, 4, 4, 8)).astype(np.float32))
    blk(x)
    attn = blk.attn.last_attn  # (nW, heads, 4, 4)
    ids = window_id_grid(4, 4, 2)
    rolled = np.roll(ids, (-1, -1), axis=(0, 1))
    # token order inside each post-shift window, as original window ids
    slot_ids = rolled.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    for wi in range(4):
        for s1 in range(4):
            for s2 in range(4):
                if slot_ids[wi, s1] != slot_ids[wi, s2]:
                    assert np.all(attn[wi, :, s1, s2] == 0.0)


def test_unshifted_block_on_divisible_grid_has_no_mask(rng):
    blk = SwinBlock(8, 2, 2, 0, 2.0, rng)
    x = Tensor(rng.standard_normal((1, 4, 4, 8)).astype(np.float32))
    blk(x)
    assert np.all(blk.attn.last_attn > 0)


def _block64(rng, dim, heads, shift):
    blk = SwinBlock(dim, heads, 4, shift, 2.0, rng)
    blk.astype(np.float64)
    # a bias table far from zero, so a wrongly indexed bias shows
    blk.attn.rel_bias.data = rng.standard_normal(blk.attn.rel_bias.shape)
    return blk


@pytest.mark.parametrize("shift", [0, 2])
@pytest.mark.parametrize("grid", [8, 6, 2])
@pytest.mark.parametrize("batch", [1, 3])
def test_swin_block_matches_old_composition(rng, shift, grid, batch):
    """Forward and every gradient against pad/roll/partition/per-head attention."""
    blk = _block64(rng, 8, 2, shift)
    x0 = rng.standard_normal((batch, grid, grid, 8))
    w = Tensor(rng.standard_normal(x0.shape))
    results = []
    for forward in (blk, lambda x: swin_block_reference(blk, x)):
        for p in blk.parameters():
            p.grad = None
        x = Tensor(x0.copy(), requires_grad=True)
        with Tape() as tape:
            y = forward(x)
            tape.backward(sum_(ad.mul(y, w)))
        results.append((y.numpy(), x.grad, [p.grad for p in blk.parameters()]))
    (y, gx, gp), (y_ref, gx_ref, gp_ref) = results
    np.testing.assert_allclose(y, y_ref, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(gx, gx_ref, rtol=1e-10, atol=1e-10)
    assert len(gp) == len(gp_ref) == 13
    for g, g_ref in zip(gp, gp_ref):
        np.testing.assert_allclose(g, g_ref, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("shift", [0, 2])
@pytest.mark.parametrize("grid", [4, 6, 2])
def test_swin_block_finite_differences(rng, shift, grid):
    blk = _block64(rng, 4, 2, shift)
    w = Tensor(rng.standard_normal((1, grid, grid, 4)))
    x0 = Tensor(rng.standard_normal((1, grid, grid, 4)))
    # the oracle differentiates only its argument: the parameters that f
    # reads keep their .grad, an array or None
    params = blk.parameters()
    earlier = {id(p): rng.standard_normal(p.shape) for p in params[::2]}
    for p in params:
        p.grad = earlier.get(id(p))
    assert ad.grad_check(lambda x: sum_(ad.mul(blk(x), w)), x0) < 1e-7
    table = blk.attn.rel_bias

    def of_table(tb):
        blk.attn.rel_bias = tb
        try:
            return sum_(ad.mul(blk(x0), w))
        finally:
            blk.attn.rel_bias = table

    assert ad.grad_check(of_table, table) < 1e-7
    assert all(p.grad is earlier.get(id(p)) for p in params)


@pytest.mark.parametrize("shift, grid", [(0, 8), (2, 8), (2, 6), (2, 2)])
def test_swin_block_records_twelve_ops(rng, shift, grid):
    blk = SwinBlock(8, 2, 4, shift, 2.0, rng)
    x = Tensor(rng.standard_normal((2, grid, grid, 8)).astype(np.float32),
               requires_grad=True)
    with Tape() as tape:
        blk(x)
    assert len(tape.records) == 12


def test_swin_block_mask_repeats_over_the_batch(rng):
    """The cached mask is per image; a batch of copies attends like one image."""
    blk = SwinBlock(8, 2, 4, 2, 2.0, rng)
    one = rng.standard_normal((1, 6, 6, 8)).astype(np.float32)
    blk(Tensor(one))
    single = blk.attn.last_attn
    blk(Tensor(np.concatenate([one, one, one])))
    _, _, n_windows, blocked = blk._windows(6, 6)
    assert blocked.shape == (n_windows, 16, 16) == (4, 16, 16)
    assert np.array_equal(blk.attn.last_attn, np.concatenate([single] * 3))


def test_window_attention_mask_must_fit_the_windows(rng):
    attn = WindowAttention(8, 2, 2, rng)
    x = Tensor(rng.standard_normal((6, 4, 8)).astype(np.float32))
    with pytest.raises(ContractError):   # 4 masks do not divide 6 windows
        attn(x, np.zeros((4, 4, 4), dtype=bool))
    blocked = np.zeros((3, 4, 4), dtype=bool)
    blocked[2, 1] = True                 # a whole row blocked
    with pytest.raises(ContractError):
        attn(x, blocked)


def test_patch_merging_halves_grid_doubles_channels(rng):
    pm = PatchMerging(6, rng)
    x = Tensor(rng.standard_normal((2, 4, 4, 6)).astype(np.float32))
    assert pm(x).shape == (2, 2, 2, 12)


def test_patch_merging_rejects_odd_extent(rng):
    pm = PatchMerging(6, rng)
    with pytest.raises(ConfigError):
        pm(Tensor(np.zeros((1, 3, 4, 6), dtype=np.float32)))


def test_patch_merging_gathers_2x2_neighbors(rng):
    """The reduction input is the concat of the four strided quadrants."""
    pm = PatchMerging(2, rng)
    pm.astype(np.float64)
    x = rng.standard_normal((1, 4, 4, 2))
    got = pm(Tensor(x)).numpy()
    quads = np.concatenate([x[:, 0::2, 0::2], x[:, 1::2, 0::2],
                            x[:, 0::2, 1::2], x[:, 1::2, 1::2]], axis=-1)
    mu = quads.mean(axis=-1, keepdims=True)
    sd = np.sqrt(quads.var(axis=-1, keepdims=True) + 1e-5)
    normed = (quads - mu) / sd * pm.norm.gamma.numpy() + pm.norm.beta.numpy()
    want = normed @ pm.reduction.weight.numpy()
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_patch_merging_gather_is_bitwise_quad_concat(rng):
    pm = PatchMerging(3, rng)
    x = Tensor(rng.standard_normal((2, 4, 6, 3)).astype(np.float32), requires_grad=True)
    offsets = ((0, 0), (1, 0), (0, 1), (1, 1))
    quads = Tensor(np.concatenate([x.numpy()[:, di::2, dj::2] for di, dj in offsets],
                                  axis=-1), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 2, 3, 6)).astype(np.float32))
    with Tape() as tape:
        got = pm(x)
        assert len(tape.records) == 5   # three gather records, norm, reduction
        want = pm.reduction(pm.norm(quads))
        tape.backward(ad.add(sum_(ad.mul(got, w)), sum_(ad.mul(want, w))))
    assert np.array_equal(got.numpy(), want.numpy())
    for k, (di, dj) in enumerate(offsets):
        assert np.array_equal(x.grad[:, di::2, dj::2], quads.grad[..., 3 * k:3 * k + 3])


def test_patch_embed_shape_and_validation(rng):
    cfg = _cfg(input_size=16, embed_dim=8)
    pe = PatchEmbed(cfg, 3, rng)
    x = Tensor(rng.standard_normal((2, 3, 16, 16)).astype(np.float32))
    assert pe(x).shape == (2, 4, 4, 8)
    with pytest.raises(ConfigError):
        pe(Tensor(np.zeros((2, 4, 16, 16), dtype=np.float32)))
    with pytest.raises(ConfigError):
        pe(Tensor(np.zeros((2, 3, 15, 15), dtype=np.float32)))


def test_encoder_stage_dict_obeys_shape_law(rng):
    cfg = _cfg(input_size=32, embed_dim=8, depths=(1, 1, 1, 1), heads=(2, 2, 4, 4))
    enc = SwinEncoder(cfg, 3, rng)
    x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
    feats = enc.forward_stages(x)
    assert sorted(feats) == [1, 2, 3, 4]
    for s in range(1, 5):
        e = cfg.input_size // cfg.patch_size // 2 ** (s - 1)
        c = cfg.stage_channels(s)
        assert feats[s].shape == (2, e, e, c), f"stage {s}"


def test_encoder_parameter_names(rng):
    # checkpoints, the gate's chunks and its coordinate draws follow this
    # order: every stage's blocks, then every merge
    cfg = _cfg(input_size=32, embed_dim=8, depths=(2, 2, 2, 2), heads=(2, 2, 4, 4))
    enc = SwinEncoder(cfg, 3, rng)
    block = ["norm1.gamma", "norm1.beta", "attn.qkv.weight", "attn.qkv.bias",
             "attn.proj.weight", "attn.proj.bias", "attn.rel_bias", "norm2.gamma",
             "norm2.beta", "mlp.fc1.weight", "mlp.fc1.bias", "mlp.fc2.weight",
             "mlp.fc2.bias"]
    merge = ["norm.gamma", "norm.beta", "reduction.weight"]
    want = ["patch_embed.proj.weight", "patch_embed.proj.bias",
            "patch_embed.norm.gamma", "patch_embed.norm.beta"]
    want += [f"stage{s}.block{i}.{n}" for s in range(1, 5) for i in range(2) for n in block]
    want += [f"merge{s}.{n}" for s in range(1, 4) for n in merge]
    assert [n for n, _ in enc.named_parameters()] == want


def test_encoder_every_parameter_reaches_the_loss(rng):
    cfg = _cfg(input_size=32, embed_dim=8, depths=(1, 1, 1, 1), heads=(2, 2, 4, 4))
    enc = SwinEncoder(cfg, 3, rng)
    x = Tensor(rng.standard_normal((1, 3, 32, 32)).astype(np.float32))
    with Tape() as tape:
        feats = enc.forward_stages(x)
        total = None
        for s in range(1, 5):
            term = sum_(feats[s])
            total = term if total is None else ad.add(total, term)
        tape.backward(total)
    missing = [n for n, p in enc.named_parameters() if p.grad is None]
    assert missing == []
