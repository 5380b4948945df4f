import dataclasses

import numpy as np
import pytest

from skgedrive.config import RunConfig
from skgedrive.controller import ControlOutput
from skgedrive.data import synth_scene
from skgedrive.errors import ConfigError
from skgedrive.heads import NUM_CLASSES, BevConfig, lidar_bev
from skgedrive.data import SceneConfig
from skgedrive.model import DrivingModel, ModelOutput, build_model, make_batch


def _forward(cfg=None, n=2, use_lidar=False, seed=0):
    cfg = cfg or RunConfig()
    scene = SceneConfig(with_lidar=use_lidar)
    samples = [synth_scene(seed + i, scene) for i in range(n)]
    batch = make_batch(samples)
    model = build_model(cfg, np.random.default_rng(seed))
    return model, batch, model.forward(batch)


def test_output_shapes():
    model, batch, out = _forward(n=3)
    size = 64
    assert out.seg_logits.shape == (3, NUM_CLASSES, size, size)
    assert out.waypoints.shape == (3, 3, 2)
    for head in (out.steering, out.throttle, out.brake, out.tl_prob, out.ss_prob):
        assert head.shape == (3, 1)
    assert out.latent.shape == (3, model.controller.h0_proj.weight.shape[1])


def test_model_output_is_a_control_output_plus_the_logits():
    fields = ["steering", "throttle", "brake", "tl_prob", "ss_prob", "waypoints",
              "latent"]
    _, _, out = _forward(n=1)
    assert isinstance(out, ControlOutput)
    assert [f.name for f in dataclasses.fields(ModelOutput)] == fields + ["seg_logits"]


def test_b1_forward_and_weighted_losses_record_312_ops():
    from skgedrive import autodiff as ad
    from skgedrive.training import TASKS, TaskWeights, compute_task_losses, total_loss

    batch = make_batch([synth_scene(3)])
    model = build_model(RunConfig(), np.random.default_rng(0))
    with ad.Tape() as tape:
        losses = compute_task_losses(model.forward(batch), batch)
        total_loss([losses[t] for t in TASKS], TaskWeights())
    assert len(tape.records) == 312


def test_control_ranges():
    _, _, out = _forward(n=4, seed=5)
    assert np.all(out.steering.data >= -1) and np.all(out.steering.data <= 1)
    assert np.all(out.throttle.data >= 0) and np.all(out.throttle.data <= 0.75)
    for prob in (out.brake, out.tl_prob, out.ss_prob):
        assert np.all(prob.data >= 0) and np.all(prob.data <= 1)


def test_forward_is_deterministic():
    _, _, a = _forward(seed=3)
    _, _, b = _forward(seed=3)
    np.testing.assert_array_equal(a.waypoints.data, b.waypoints.data)
    np.testing.assert_array_equal(a.seg_logits.data, b.seg_logits.data)


def test_route_none_reaches_controller():
    cfg = RunConfig()
    cfg.set("skge.route_a", "none")
    cfg.set("skge.route_b", "none")
    _, _, out = _forward(cfg)
    assert np.all(np.isfinite(out.waypoints.data))


@pytest.mark.parametrize("route", ["3", "2->4", "1,2,3->4", "4->1"])
def test_every_route_shape_produces_finite_output(route):
    cfg = RunConfig()
    cfg.set("skge.route_a", route)
    cfg.set("skge.route_b", route)
    _, _, out = _forward(cfg, n=1)
    for field in (out.seg_logits, out.waypoints, out.steering, out.latent):
        assert np.all(np.isfinite(field.data))


def test_lidar_channels_change_encoder_b_input():
    cfg = RunConfig()
    cfg.set("bev.use_lidar", 1)
    model, batch, out = _forward(cfg, use_lidar=True)
    patch = cfg["backbone.patch"]
    expected_in = (NUM_CLASSES + 2) * patch * patch
    assert model.enc_b.patch_embed.proj.weight.shape[0] == expected_in
    assert "lidar" in batch
    assert np.all(np.isfinite(out.waypoints.data))


def test_lidar_channels_use_the_configured_grid_resolution():
    cfg = RunConfig()
    cfg.set("bev.use_lidar", 1)
    cfg.set("bev.resolution_m", 0.5)
    samples = [synth_scene(i, SceneConfig(with_lidar=True)) for i in range(2)]
    model = build_model(cfg, np.random.default_rng(0))
    seen = []
    encode = model.enc_b.forward_stages
    model.enc_b.forward_stages = lambda x: seen.append(x.data) or encode(x)
    model.forward(make_batch(samples))
    want = np.stack([lidar_bev(s.lidar, BevConfig(64, 0.5)) for s in samples])
    np.testing.assert_array_equal(seen[0][:, NUM_CLASSES:], want)


def test_batching_matches_single_samples():
    cfg = RunConfig()
    samples = [synth_scene(i) for i in range(2)]
    model = build_model(cfg, np.random.default_rng(0))
    together = model.forward(make_batch(samples))
    for i, sample in enumerate(samples):
        alone = model.forward(make_batch([sample]))
        np.testing.assert_allclose(alone.waypoints.data[0],
                                   together.waypoints.data[i],
                                   rtol=0, atol=1e-5)
        np.testing.assert_allclose(alone.seg_logits.data[0],
                                   together.seg_logits.data[i],
                                   rtol=0, atol=1e-4)


def test_bev_size_must_match_input_size():
    cfg = RunConfig()
    cfg.set("bev.size", 32)
    with pytest.raises(ConfigError):
        build_model(cfg, np.random.default_rng(0))


def test_make_batch_fields():
    samples = [synth_scene(i) for i in range(3)]
    batch = make_batch(samples)
    assert batch["rgb"].shape == (3, 3, 64, 64)
    assert batch["depth_m"].shape == (3, 64, 64)
    assert batch["route_local"].shape == (3, 2)
    assert batch["speed"].shape == (3, 1)
    assert batch["seg_gt"].shape == (3, NUM_CLASSES, 64, 64)
    assert batch["waypoints_gt"].shape == (3, 3, 2)
    assert batch["controls_gt"].shape == (3, 3)
    assert batch["tl_gt"].shape == (3, 1)
    assert np.all(batch["depth_m"] >= 0) and np.all(batch["depth_m"] <= 1000)


def test_astype_converts_every_parameter():
    model = build_model(RunConfig(), np.random.default_rng(0))
    model.astype(np.float64)
    assert all(p.data.dtype == np.float64 for _, p in model.named_parameters())


def test_gradients_reach_both_encoders():
    from skgedrive import autodiff as ad
    from skgedrive.training import TASKS, TaskWeights, compute_task_losses, total_loss

    cfg = RunConfig()
    samples = [synth_scene(0)]
    batch = make_batch(samples)
    model = build_model(cfg, np.random.default_rng(2))
    with ad.Tape() as tape:
        out = model.forward(batch)
        losses = compute_task_losses(out, batch)
        loss = total_loss([losses[t] for t in TASKS], TaskWeights())
    tape.backward(loss)
    got_a = sum(p.grad is not None and np.any(p.grad != 0)
                for n, p in model.named_parameters() if n.startswith("enc_a."))
    got_b = sum(p.grad is not None and np.any(p.grad != 0)
                for n, p in model.named_parameters() if n.startswith("enc_b."))
    got_ctrl = sum(p.grad is not None and np.any(p.grad != 0)
                   for n, p in model.named_parameters()
                   if n.startswith("controller."))
    assert got_a > 0 and got_b > 0 and got_ctrl > 0


def test_top_down_grid_blocks_segmentation_gradient_from_control_losses():
    """The grid is built from argmax classes, so control losses must not
    backpropagate into the image encoder."""
    from skgedrive import autodiff as ad
    from skgedrive.training import compute_task_losses

    batch = make_batch([synth_scene(1)])
    model = build_model(RunConfig(), np.random.default_rng(4))
    with ad.Tape() as tape:
        out = model.forward(batch)
        losses = compute_task_losses(out, batch)
    tape.backward(losses["wp"])
    for name, p in model.named_parameters():
        if name.startswith(("enc_a.", "fuse_a.", "decoder.")):
            assert p.grad is None or not np.any(p.grad != 0), name


def _f64_pipeline():
    from skgedrive.training import TASKS, TaskWeights, compute_task_losses, total_loss

    batch = make_batch([synth_scene(3)])
    model = build_model(RunConfig(), np.random.default_rng(7)).astype(np.float64)

    def f():
        out = model.forward(batch)
        losses = compute_task_losses(out, batch)
        return total_loss([losses[t] for t in TASKS], TaskWeights())

    return model, f


def test_oracle_gradients_equal_a_full_backward_bit_for_bit():
    from skgedrive import autodiff as ad

    model, f = _f64_pipeline()
    named = dict(model.named_parameters())
    with ad.Tape() as tape:
        loss = f()
    tape.backward(loss)
    full = {n: p.grad for n, p in named.items()}
    for p in named.values():
        p.grad = None
    # encoder A reaches only the segmentation loss, the controller only the
    # control losses: the cut tape differs most from the full one here
    tail = [n for n in named if n.startswith(("enc_b.", "controller."))][-19:]
    mixed = ([n for n in named if n.startswith("enc_a.")][::8]
             + [n for n in named if n.startswith("controller.")][::2])
    for chunk in (tail, mixed):
        grads = ad._analytic_grads(f, [named[n] for n in chunk], "test")
        for n, g in zip(chunk, grads):
            assert np.array_equal(g, full[n]), n
        assert all(p.grad is None for p in named.values())


def test_oracle_gives_a_tensor_off_the_loss_path_a_zero_gradient():
    from skgedrive import autodiff as ad

    model, f = _f64_pipeline()
    stray = ad.Tensor(np.full((2, 3), 0.5), requires_grad=True)

    def f_and_a_dead_end():
        ad.mul(stray, stray)  # recorded, but never reaches the loss
        return f()

    weight = model.controller.ctrl.weight
    errs = ad.grad_check_params(f_and_a_dead_end, [("stray", stray), ("ctrl", weight)],
                                rng=np.random.default_rng(11))
    assert errs["stray"] == 0.0
    assert errs["ctrl"] < 1e-4
    (g,) = ad._analytic_grads(f_and_a_dead_end, [stray], "test")
    assert np.array_equal(g, np.zeros((2, 3)))
