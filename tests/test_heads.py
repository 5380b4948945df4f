import numpy as np
import pytest

from skgedrive import autodiff as ad
from skgedrive.autodiff import Tape, Tensor
from skgedrive.backbone import BackboneConfig
from skgedrive.data import synth_scene
from skgedrive.errors import ConfigError, ContractError
from skgedrive.heads import (NUM_CLASSES, BevConfig, CameraConfig, SegDecoder,
                             build_sdc, lidar_bev, seg_argmax)
from skgedrive.model import make_batch

from skgedrive.skge import bilinear_resize

from oracles import build_sdc_per_image, sdc_reference, sum_


def test_camera_defaults_from_image_size():
    cam = CameraConfig.for_image(64, 128)
    assert (cam.focal, cam.cx, cam.cy) == (32.0, 64.0, 32.0)


def test_seg_argmax_tie_goes_to_lowest_class():
    logits = np.zeros((1, NUM_CLASSES, 2, 2), dtype=np.float32)
    logits[0, 5] = 1.0
    logits[0, 9] = 1.0
    assert np.all(seg_argmax(logits) == 5)


def _feats(cfg, rng, b=2):
    extent = {s: cfg.input_size // cfg.patch_size // 2 ** (s - 1) for s in range(1, 5)}
    return {s: Tensor(rng.standard_normal(
        (b, extent[s], extent[s], cfg.stage_channels(s))).astype(np.float32))
        for s in range(1, 5)}


def test_decoder_restores_input_resolution(rng):
    cfg = BackboneConfig(input_size=32, embed_dim=8, depths=(1, 1, 1, 1),
                         heads=(2, 2, 4, 4))
    dec = SegDecoder(cfg, rng)
    out = dec(_feats(cfg, rng))
    assert out.shape == (2, NUM_CLASSES, 32, 32)


def test_decoder_patch_two(rng):
    cfg = BackboneConfig(input_size=32, patch_size=2, embed_dim=8,
                         depths=(1, 1, 1, 1), heads=(2, 2, 4, 4))
    out = SegDecoder(cfg, rng)(_feats(cfg, rng))
    assert out.shape == (2, NUM_CLASSES, 32, 32)


def _unfolded_decoder(dec, feats):
    """The decoder as a chain of its layers: every upsampler, then its
    depth-to-space, then the head and a transpose to (B, 23, H, W)."""
    x = dec.laterals[3](feats[4])
    for s in (3, 2, 1):
        skip = dec.laterals[s - 1](feats[s])
        x = ad.add(bilinear_resize(x, skip.shape[1], skip.shape[2]), skip)
    for up in dec.upsamplers:
        y = up(ad.gelu(x))
        b, h, w, c4 = y.shape
        y = ad.transpose(ad.reshape(y, (b, h, w, 2, 2, c4 // 4)), (0, 1, 3, 2, 4, 5))
        x = ad.reshape(y, (b, 2 * h, 2 * w, c4 // 4))
    return ad.transpose(dec.head(x), (0, 3, 1, 2))


def _decoder_and_grads(forward, dec, feats, g):
    params = dec.parameters()
    for p in params:
        p.grad = None
    with Tape() as tape:
        out = forward(feats)
        tape.backward(sum_(ad.mul(out, Tensor(g))))
    grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    return out.numpy(), grads


@pytest.mark.parametrize("patch", [4, 2, 1])
def test_decoder_equals_its_unfolded_layer_chain(rng, patch):
    # the last upsampler and the head run as one fused linear; values and
    # parameter gradients match the layer-by-layer chain
    cfg = BackboneConfig(input_size=32, patch_size=patch, embed_dim=8,
                         depths=(1, 1, 1, 1), heads=(2, 2, 4, 4))
    dec = SegDecoder(cfg, rng).astype(np.float64)
    feats = {s: Tensor(f.numpy().astype(np.float64)) for s, f in _feats(cfg, rng).items()}
    g = rng.standard_normal((2, NUM_CLASSES, 32, 32))
    got, got_grads = _decoder_and_grads(dec, dec, feats, g)
    want, want_grads = _decoder_and_grads(lambda f: _unfolded_decoder(dec, f), dec, feats, g)
    assert got.shape == want.shape == (2, NUM_CLASSES, 32, 32)
    if patch == 1:  # no upsampler: the same head path
        assert np.array_equal(got, want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for a, b in zip(got_grads, want_grads):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


def test_decoder_rejects_unsupported_patch(rng):
    cfg = BackboneConfig(input_size=64, patch_size=8, embed_dim=8,
                         depths=(1, 1, 1, 1), heads=(2, 2, 4, 4))
    with pytest.raises(ConfigError):
        SegDecoder(cfg, rng)


def test_sdc_matches_loop_reference(rng):
    h = w = 16
    cam = CameraConfig.for_image(h, w)
    bev = BevConfig(size=24, resolution_m=0.5)
    cls_map = rng.integers(0, NUM_CLASSES, size=(h, w))
    depth = rng.uniform(0.5, 12.0, size=(h, w))
    occ = build_sdc(cls_map[None], depth[None], cam, bev)
    assert occ.shape == (1, NUM_CLASSES, 24, 24)
    want = sdc_reference(cls_map, depth, cam.focal, cam.cx, cam.cy, 24, 0.5)
    got_winner = np.full((24, 24), -1, dtype=int)
    cls_idx, ri, ci = np.nonzero(occ[0])
    got_winner[ri, ci] = cls_idx
    np.testing.assert_array_equal(got_winner, want)


def test_sdc_same_cell_contest_highest_class_wins():
    """Two pixels hitting one cell: the higher class id wins either way."""
    cam = CameraConfig(focal=100.0, cx=1.0, cy=1.0)  # long focal: both rays near center
    bev = BevConfig(size=8, resolution_m=1.0)
    depth = np.full((1, 2), 3.0)
    for pair in ([3, 9], [9, 3]):
        occ = build_sdc(np.array([[pair]]), depth[None], cam, bev)[0]
        winners = np.nonzero(occ.sum(axis=(1, 2)))[0]
        assert list(winners) == [9]


def test_sdc_ego_row_geometry():
    """A pixel at depth z lands rint(z/res) rows above the bottom row."""
    cam = CameraConfig(focal=8.0, cx=2.0, cy=2.0)
    bev = BevConfig(size=8, resolution_m=1.0)
    cls_map = np.full((1, 4, 4), 7)
    depth = np.full((1, 4, 4), 3.0)
    occ = build_sdc(cls_map, depth, cam, bev)[0]
    rows = np.nonzero(occ.sum(axis=(0, 2)))[0]
    assert list(rows) == [8 - 1 - 3]


def test_sdc_batched_matches_stacked(rng):
    cam = CameraConfig.for_image(8, 8)
    bev = BevConfig(size=12, resolution_m=0.5)
    cls_map = rng.integers(0, NUM_CLASSES, size=(3, 8, 8))
    depth = rng.uniform(0.5, 5.0, size=(3, 8, 8))
    full = build_sdc(cls_map, depth, cam, bev)
    for i in range(3):
        one = build_sdc(cls_map[i:i + 1], depth[i:i + 1], cam, bev)[0]
        np.testing.assert_array_equal(full[i], one)


@pytest.mark.parametrize("seed", range(4))
def test_sdc_is_the_per_image_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    samples = [synth_scene(seed * 8 + i) for i in range(8)]
    depth = make_batch(samples)["depth_m"]
    for depth_m in (depth, depth.astype(np.float32),
                    rng.uniform(0.3, 20.0, size=depth.shape)):
        cls_map = rng.integers(0, NUM_CLASSES, size=depth.shape)
        cam = CameraConfig.for_image(64, 64)
        for bev in (BevConfig(), BevConfig(size=48, resolution_m=0.4)):
            got = build_sdc(cls_map, depth_m, cam, bev)
            want = build_sdc_per_image(cls_map, depth_m, cam, bev)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_sdc_validation():
    cam = CameraConfig(focal=0.0, cx=1.0, cy=1.0)
    cls_map = np.zeros((1, 2, 2), dtype=int)
    with pytest.raises(ConfigError):
        build_sdc(cls_map, np.ones((1, 2, 2)), cam, BevConfig())
    cam = CameraConfig.for_image(2, 2)
    with pytest.raises(ContractError):
        build_sdc(cls_map, np.zeros((1, 2, 2)), cam, BevConfig())
    with pytest.raises(ContractError):
        build_sdc(cls_map, np.array([[[1.0, np.nan], [1.0, 1.0]]]), cam, BevConfig())


def test_lidar_bev_bins_by_height():
    bev = BevConfig(size=8, resolution_m=1.0)
    pts = np.array([
        #  x     y     z    i
        [0.0, 3.0, 1.0, 0.5],     # above ground
        [0.0, 3.0, -0.2, 0.5],    # below ground, same cell
        [0.0, 3.0, 0.0, 0.5],     # z == 0 counts as below
        [99.0, 3.0, 1.0, 0.5],    # off-grid, dropped
    ]).T
    out = lidar_bev(pts, bev)
    row, col = 8 - 1 - 3, 4
    assert out[0, row, col] == 1.0
    assert out[1, row, col] == 2.0
    assert out.sum() == 3.0


def test_lidar_bev_contract():
    with pytest.raises(ContractError):
        lidar_bev(np.zeros((3, 5)), BevConfig())
    out = lidar_bev(np.zeros((4, 0)), BevConfig(size=4))
    assert out.shape == (2, 4, 4) and out.sum() == 0
