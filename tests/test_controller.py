import numpy as np
import pytest

from skgedrive import autodiff as ad
from skgedrive.autodiff import Tensor
from skgedrive.controller import (Controller, EgoState, global_to_local,
                                  local_to_global)

from oracles import gru_reference, rotation_reference, sum_


def _ego(x=0.0, y=0.0, heading=0.0, speed=1.0):
    return EgoState(speed=speed, position=(x, y), heading_deg=heading,
                    route_point=(0.0, 0.0))


def test_heading_minus_90_is_identity():
    p = global_to_local((3.0, -2.0), _ego(heading=-90.0))
    np.testing.assert_allclose(p, [3.0, -2.0], atol=1e-12)


def test_heading_zero_maps_east_to_south():
    p = global_to_local((1.0, 0.0), _ego(heading=0.0))
    np.testing.assert_allclose(p, [0.0, -1.0], atol=1e-12)


def test_translation_applies_before_rotation():
    p = global_to_local((5.0, 7.0), _ego(x=5.0, y=7.0, heading=33.0))
    np.testing.assert_allclose(p, [0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_local_global_roundtrip(seed):
    rng = np.random.default_rng(seed)
    ego = _ego(x=rng.uniform(-100, 100), y=rng.uniform(-100, 100),
               heading=rng.uniform(-180, 180))
    p = rng.uniform(-50, 50, 2)
    back = global_to_local(local_to_global(p, ego), ego)
    np.testing.assert_allclose(back, p, atol=1e-9)


@pytest.mark.parametrize("heading", [-180.0, -90.0, 0.0, 45.0, 133.7])
def test_rotation_is_orthonormal(heading):
    r = rotation_reference(heading)
    np.testing.assert_allclose(r.T @ r, np.eye(2), atol=1e-12)


def _zeroed(ctrl):
    for _, p in ctrl.named_parameters():
        p.data = np.zeros_like(p.data)
    return ctrl


def _run(ctrl, rng, b=2, dtype=np.float64):
    pooled = Tensor(rng.standard_normal((b, ctrl.h0_proj.weight.shape[0])).astype(dtype))
    route = Tensor(rng.standard_normal((b, 2)).astype(dtype))
    speed = Tensor(rng.uniform(0, 10, (b, 1)).astype(dtype))
    return ctrl(pooled, route, speed), (pooled, route, speed)


def test_all_zero_weights_give_zero_waypoints(rng):
    ctrl = _zeroed(Controller(8, hidden=4))
    ctrl.astype(np.float64)
    out, _ = _run(ctrl, rng)
    assert np.all(out.waypoints.numpy() == 0.0)


def test_constant_delta_telescopes():
    """Forcing each step's displacement to (1, 2) accumulates linearly."""
    ctrl = _zeroed(Controller(8, hidden=4))
    ctrl.astype(np.float64)
    ctrl.delta.bias.data = np.array([1.0, 2.0])
    out, _ = _run(ctrl, np.random.default_rng(0), b=1)
    want = np.array([[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]])
    np.testing.assert_array_equal(out.waypoints.numpy(), want)


def test_output_shapes_and_ranges(rng):
    ctrl = Controller(16, hidden=8, rng=rng)
    ctrl.astype(np.float64)
    out, _ = _run(ctrl, rng, b=5)
    assert out.waypoints.shape == (5, 3, 2)
    assert out.latent.shape == (5, 8)
    for t in (out.tl_prob, out.ss_prob):
        assert t.shape == (5, 1)
        assert np.all((t.numpy() > 0) & (t.numpy() < 1))
    assert np.all(np.abs(out.steering.numpy()) < 1.0)
    assert np.all((out.throttle.numpy() > 0) & (out.throttle.numpy() < 0.75))
    assert np.all((out.brake.numpy() > 0) & (out.brake.numpy() < 1.0))


def test_control_denormalization_midpoint():
    """Zero logits sit at the middle of every control range."""
    ctrl = _zeroed(Controller(8, hidden=4))
    ctrl.astype(np.float64)
    out, _ = _run(ctrl, np.random.default_rng(1), b=1)
    np.testing.assert_allclose(out.steering.numpy(), [[0.0]], atol=1e-12)
    np.testing.assert_allclose(out.throttle.numpy(), [[0.375]], atol=1e-12)
    np.testing.assert_allclose(out.brake.numpy(), [[0.5]], atol=1e-12)


def test_rollout_matches_oracle_reconstruction(rng):
    """Replay the whole rollout from raw weights with an independent GRU."""
    ctrl = Controller(6, hidden=5, rng=rng)
    ctrl.astype(np.float64)
    out, (pooled, route, speed) = _run(ctrl, rng, b=3)

    po, ro, sp = pooled.numpy(), route.numpy(), speed.numpy()
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    lin = lambda m, x: x @ m.weight.numpy() + m.bias.numpy()
    tl = sig(lin(ctrl.tl_head, po))
    ss = sig(lin(ctrl.ss_head, po))
    bias = lin(ctrl.enc_tl, tl) + lin(ctrl.enc_ss, ss)

    h = lin(ctrl.h0_proj, po)
    wp = np.zeros((3, 2))
    wps = []
    for _ in range(3):
        inp = np.concatenate([wp, ro, sp], axis=1)
        h = gru_reference(inp, h, ctrl.gru.w_ih.numpy(), ctrl.gru.w_hh.numpy(),
                          ctrl.gru.b_ih.numpy(), ctrl.gru.b_hh.numpy())
        biased = h + bias
        wp = wp + lin(ctrl.delta, biased)
        wps.append(wp.copy())

    np.testing.assert_allclose(out.waypoints.numpy(),
                               np.stack(wps, axis=1), atol=1e-9)
    np.testing.assert_allclose(out.latent.numpy(), biased, atol=1e-9)
    s = sig(lin(ctrl.ctrl, biased))
    np.testing.assert_allclose(out.steering.numpy(), 2 * s[:, 0:1] - 1, atol=1e-9)
    np.testing.assert_allclose(out.throttle.numpy(), 0.75 * s[:, 1:2], atol=1e-9)
    np.testing.assert_allclose(out.brake.numpy(), s[:, 2:3], atol=1e-9)


def test_recurrence_is_invariant_to_tl_ss_bias(rng):
    """With the delta feedback silenced, the latent is exactly affine in the
    bias encoders; any recurrence that folded the bias into h would bend it."""
    base = Controller(6, hidden=5, rng=rng)
    base.astype(np.float64)
    base.delta.weight.data = np.zeros_like(base.delta.weight.data)
    base.delta.bias.data = np.zeros_like(base.delta.bias.data)

    pooled = Tensor(rng.standard_normal((2, 6)))
    route = Tensor(rng.standard_normal((2, 2)))
    speed = Tensor(rng.uniform(0, 10, (2, 1)))

    w_tl = base.enc_tl.weight.data.copy()
    b_tl = base.enc_tl.bias.data.copy()
    latents = []
    for scale in (0.0, 1.0, 2.0):
        base.enc_tl.weight.data = scale * w_tl
        base.enc_tl.bias.data = scale * b_tl
        out = base(pooled, route, speed)
        latents.append(out.latent.numpy())
    step1 = latents[1] - latents[0]
    step2 = latents[2] - latents[1]
    np.testing.assert_allclose(step1, step2, atol=1e-9)
    assert np.abs(step1).max() > 1e-6  # the bias does reach the latent


def test_rollout_gradients(rng):
    ctrl = Controller(4, hidden=3, rng=rng)
    ctrl.astype(np.float64)
    pooled = rng.standard_normal((1, 4))
    route = rng.standard_normal((1, 2))
    speed = rng.uniform(0, 5, (1, 1))

    def f():
        out = ctrl(Tensor(pooled), Tensor(route), Tensor(speed))
        return ad.add(sum_(out.waypoints),
                      ad.add(sum_(out.steering), sum_(out.brake)))

    errs = ad.grad_check_params(f, list(ctrl.named_parameters()),
                                coords_per_tensor=3,
                                rng=np.random.default_rng(4))
    assert max(errs.values()) < 1e-6, errs
