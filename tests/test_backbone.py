import numpy as np
import pytest

from skgedrive import autodiff as ad
from skgedrive.autodiff import Tape, Tensor
from skgedrive.backbone import (BackboneConfig, PatchEmbed, PatchMerging,
                                SwinBlock, SwinEncoder, WindowAttention,
                                window_partition, window_reverse)
from skgedrive.errors import ConfigError, ContractError

from oracles import window_id_grid


def _cfg(**kw):
    return BackboneConfig(**kw)


def test_stage_shape_law_desk():
    cfg = _cfg()
    assert [cfg.stage_extent(s) for s in range(1, 5)] == [16, 8, 4, 2]
    assert [cfg.stage_channels(s) for s in range(1, 5)] == [24, 48, 96, 192]


def test_stage_shape_law_small_input():
    cfg = _cfg(input_size=32)
    assert [cfg.stage_extent(s) for s in range(1, 5)] == [8, 4, 2, 1]


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


def test_window_partition_reverse_roundtrip(rng):
    x = Tensor(rng.standard_normal((2, 8, 8, 5)).astype(np.float32))
    wins = window_partition(x, 4)
    assert wins.shape == (2 * 4, 16, 5)
    back = window_reverse(wins, 4, 8, 8)
    np.testing.assert_array_equal(back.numpy(), x.numpy())


def test_window_partition_slot_layout():
    """Token (i, j) of a window lands in row-major slot i*w + j."""
    h = w = 4
    grid = np.arange(h * w, dtype=np.float32).reshape(1, h, w, 1)
    wins = window_partition(Tensor(grid), 2).numpy()[..., 0]
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
        tape.backward(ad.add(ad.sum_(ad.mul(got, w)), ad.sum_(ad.mul(want, w))))
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
        e, c = cfg.stage_extent(s), cfg.stage_channels(s)
        assert feats[s].shape == (2, e, e, c), f"stage {s}"


def test_encoder_parameter_names(rng):
    cfg = _cfg(input_size=32, embed_dim=8, depths=(2, 1, 1, 1), heads=(2, 2, 4, 4))
    enc = SwinEncoder(cfg, 3, rng)
    names = [n for n, _ in enc.named_parameters()]
    assert any(n.startswith("patch_embed.") for n in names)
    assert any(n.startswith("stage1.block1.attn.qkv") for n in names)
    assert any(n.startswith("merge1.") for n in names)
    assert len(names) == len(set(names))


def test_encoder_every_parameter_reaches_the_loss(rng):
    cfg = _cfg(input_size=32, embed_dim=8, depths=(1, 1, 1, 1), heads=(2, 2, 4, 4))
    enc = SwinEncoder(cfg, 3, rng)
    x = Tensor(rng.standard_normal((1, 3, 32, 32)).astype(np.float32))
    with Tape() as tape:
        feats = enc.forward_stages(x)
        total = None
        for s in range(1, 5):
            term = ad.sum_(feats[s])
            total = term if total is None else ad.add(total, term)
        tape.backward(total)
    missing = [n for n, p in enc.named_parameters() if p.grad is None]
    assert missing == []
