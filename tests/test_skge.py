import numpy as np
import pytest

from skgedrive import autodiff as ad
from skgedrive.autodiff import Tape, Tensor
from skgedrive.errors import ConfigError, ContractError
from skgedrive.skge import (SkipRoute, SkipFusion, _interp_matrix, bilinear_resize,
                            parse_route)

from oracles import bilinear_reference, sum_

ALL_ROUTE_TEXTS = ["none", "3", "2->3", "2->4", "1->4", "4->1", "1,2,3->4"]


@pytest.mark.parametrize("text,sources,target", [
    ("none", (), 4),
    ("3", (), 3),
    ("2->3", (2,), 3),
    ("1,2,3->4", (1, 2, 3), 4),
    ("4->1", (4,), 1),
    (" 2->4 ", (2,), 4),
])
def test_parse_route(text, sources, target):
    r = parse_route(text)
    assert (r.sources, r.target) == (sources, target)


@pytest.mark.parametrize("bad", ["", "5", "0->4", "4->4", "1,1->4", "a->b",
                                 "1->", "->4", "1-2", "12->4"])
def test_parse_route_rejects(bad):
    with pytest.raises(ConfigError):
        parse_route(bad)


def test_route_str_parse_roundtrip():
    for text in ["3", "2->3", "1,2,3->4", "4->1"]:
        assert str(parse_route(text)) == text
    assert parse_route(str(parse_route("none"))) == parse_route("none")


def test_route_validation():
    with pytest.raises(ConfigError):
        SkipRoute((2,), 2)
    with pytest.raises(ConfigError):
        SkipRoute((1, 1), 4)
    with pytest.raises(ConfigError):
        SkipRoute((0,), 4)


@pytest.mark.parametrize("seed", range(10))
def test_bilinear_matches_reference(seed):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(1, 9, size=2)
    oh, ow = rng.integers(1, 9, size=2)
    src = rng.standard_normal((2, h, w, 3))
    got = bilinear_resize(Tensor(src), int(oh), int(ow)).numpy()
    np.testing.assert_allclose(got, bilinear_reference(src, int(oh), int(ow)),
                               atol=1e-12)


def test_bilinear_same_size_is_passthrough(rng):
    src = Tensor(rng.standard_normal((1, 3, 3, 2)))
    assert bilinear_resize(src, 3, 3) is src


def test_bilinear_weights_are_built_once_and_read_only(rng):
    m = _interp_matrix(7, 4, np.dtype(np.float32))
    assert _interp_matrix(7, 4, np.dtype(np.float32)) is m
    assert m.dtype == np.float32 and not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 2.0
    src = Tensor(rng.standard_normal((2, 4, 4, 3)).astype(np.float32))
    first = bilinear_resize(src, 7, 7).numpy()
    np.testing.assert_array_equal(bilinear_resize(src, 7, 7).numpy(), first)


def test_bilinear_single_pixel_output_samples_center(rng):
    src = rng.standard_normal((1, 3, 5, 1))
    got = bilinear_resize(Tensor(src), 1, 1).numpy()
    np.testing.assert_allclose(got[0, 0, 0, 0], src[0, 1, 2, 0], atol=1e-12)


def test_bilinear_corner_alignment(rng):
    src = rng.standard_normal((1, 4, 4, 1))
    up = bilinear_resize(Tensor(src), 7, 7).numpy()
    np.testing.assert_allclose(up[0, 0, 0], src[0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(up[0, -1, -1], src[0, -1, -1], atol=1e-12)
    np.testing.assert_allclose(up[0, 0, -1], src[0, 0, -1], atol=1e-12)


def test_bilinear_is_bounded_by_input_range(rng):
    src = rng.uniform(-1.0, 1.0, (1, 5, 5, 2))
    out = bilinear_resize(Tensor(src), 11, 3).numpy()
    assert out.min() >= src.min() - 1e-12
    assert out.max() <= src.max() + 1e-12


def test_bilinear_gradient(rng):
    src = rng.standard_normal((1, 3, 4, 2))
    w = Tensor(rng.standard_normal((1, 5, 2, 2)), requires_grad=False)
    err = ad.grad_check(
        lambda x: sum_(ad.mul(bilinear_resize(x, 5, 2), w)), Tensor(src))
    assert err < 1e-8


def test_bilinear_contract_errors(rng):
    with pytest.raises(ContractError):
        bilinear_resize(Tensor(np.zeros((3, 3))), 2, 2)
    with pytest.raises(ContractError):
        bilinear_resize(Tensor(np.zeros((1, 3, 3, 1))), 0, 2)


def test_fusion_has_one_adapter_per_source(rng):
    channels = {1: 24, 2: 48, 3: 96, 4: 192}
    fu = SkipFusion(parse_route("1,2,3->4"), channels.__getitem__, rng)
    assert [a.weight.shape for a in fu.adapters] == \
        [(24, 192), (48, 192), (96, 192)]
    assert all(a.bias is None for a in fu.adapters)
    assert SkipFusion(parse_route("3"), channels.__getitem__, rng).adapters == []


def test_fuse_no_sources_returns_target_feature(rng):
    feats = {s: Tensor(rng.standard_normal((1, 2, 2, 4)).astype(np.float32))
             for s in range(1, 5)}
    fu = SkipFusion(parse_route("none"), lambda s: 4, rng)
    out = fu.fuse(feats)
    assert out is feats[4]


def test_fuse_adds_resized_adapted_sources(rng):
    channels = {1: 4, 2: 8}
    feats = {
        1: Tensor(rng.standard_normal((1, 4, 4, 4)).astype(np.float64)),
        2: Tensor(rng.standard_normal((1, 2, 2, 8)).astype(np.float64)),
    }
    fu = SkipFusion(SkipRoute((1,), 2), channels.__getitem__, rng)
    fu.astype(np.float64)
    got = fu.fuse(feats).numpy()
    resized = bilinear_reference(feats[1].numpy(), 2, 2)
    want = feats[2].numpy() + resized @ fu.adapters[0].weight.numpy()
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_fuse_missing_stage_is_config_error(rng):
    feats = {4: Tensor(np.zeros((1, 2, 2, 8), dtype=np.float32))}
    fu = SkipFusion(parse_route("1->4"), {1: 4, 4: 8}.__getitem__, rng)
    with pytest.raises(ConfigError):
        fu.fuse(feats)


def test_revert_route_upsamples_deep_features(rng):
    """4->1 resizes the coarse stage up onto the fine grid."""
    channels = {1: 4, 4: 16}
    feats = {
        1: Tensor(rng.standard_normal((1, 8, 8, 4)).astype(np.float32)),
        4: Tensor(rng.standard_normal((1, 1, 1, 16)).astype(np.float32)),
    }
    fu = SkipFusion(SkipRoute((4,), 1), channels.__getitem__, rng)
    out = fu.fuse(feats)
    assert out.shape == (1, 8, 8, 4)


def test_fusion_gradients_flow_to_sources_and_adapters(rng):
    channels = {1: 3, 2: 6}
    feats = {
        1: Tensor(rng.standard_normal((1, 4, 4, 3)).astype(np.float64),
                  requires_grad=True),
        2: Tensor(rng.standard_normal((1, 2, 2, 6)).astype(np.float64),
                  requires_grad=True),
    }
    fu = SkipFusion(SkipRoute((1,), 2), channels.__getitem__, rng)
    fu.astype(np.float64)
    with Tape() as tape:
        tape.backward(sum_(fu.fuse(feats)))
    assert feats[1].grad is not None
    assert feats[2].grad is not None
    assert fu.adapters[0].weight.grad is not None
