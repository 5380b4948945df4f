import json
import os
import signal
import subprocess
import sys
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest

import skgedrive
from skgedrive import autodiff as ad
from skgedrive import training
from skgedrive.autodiff import Tape, Tensor
from skgedrive.checkpoint import load_model, read_config
from skgedrive.config import RunConfig
from skgedrive.data import synth_scene
from skgedrive.errors import ContractError, DataError, ShapeError
from skgedrive.heads import NUM_CLASSES, seg_argmax
from skgedrive.model import build_model, make_batch
from skgedrive.scoring import iou_counts, iou_from_counts
from skgedrive.training import (REPORT_FIELDS, TASKS, AdamW, TaskWeights,
                                compute_task_losses, evaluate, fit, l1_loss,
                                mgn_update, rebalance, total_loss)

from oracles import bce_reference, dice_reference, sum_


def test_task_order():
    assert TASKS == ("seg", "tl", "ss", "st", "th", "br", "wp")


@pytest.mark.parametrize("seed", range(5))
def test_seg_loss_matches_bce_plus_dice(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.01, 0.99, (2, 4, 6, 6))
    gt = (rng.random((2, 4, 6, 6)) < 0.3).astype(np.float64)
    got = ad.bce_dice(Tensor(p), Tensor(gt)).item()
    want = bce_reference(p, gt) + dice_reference(p, gt)
    assert got == pytest.approx(want, rel=1e-10)


def test_seg_loss_zero_when_perfect():
    gt = np.zeros((1, 3, 4, 4))
    gt[0, 1, :2] = 1.0
    loss = ad.bce_dice(Tensor(gt.copy()), Tensor(gt)).item()
    assert abs(loss) < 1e-5


def test_seg_loss_rejects_soft_targets():
    with pytest.raises(DataError):
        ad.bce_dice(Tensor(np.full((1, 2, 2), 0.5)), Tensor(np.full((1, 2, 2), 0.5)))
    with pytest.raises(ShapeError):
        ad.bce_dice(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 2, 3))))


def test_l1_loss_value_and_gradient():
    pred = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    gt = Tensor(np.array([[0.0, 0.0], [0.5, 1.0]]))
    with Tape() as tape:
        loss = l1_loss(pred, gt)
    assert loss.item() == pytest.approx((1 + 2 + 0 + 2) / 4)
    tape.backward(loss)
    np.testing.assert_allclose(pred.grad,
                               np.array([[0.25, -0.25], [0.0, 0.25]]))


def test_total_loss_is_weighted_sum():
    rng = np.random.default_rng(0)
    vals = rng.uniform(0.1, 2.0, 7)
    weights = TaskWeights(rng.uniform(0.5, 1.5, 7))
    losses = [Tensor(np.array(v)) for v in vals]
    got = total_loss(losses, weights).item()
    assert got == pytest.approx(float(np.dot(vals, weights.alphas)), rel=1e-12)
    with pytest.raises(ContractError):
        total_loss(losses[:5], weights)


def test_total_loss_linear_in_each_weight():
    vals = np.arange(1.0, 8.0)
    losses = [Tensor(np.array(v)) for v in vals]
    base = TaskWeights()
    for i in range(7):
        bumped = TaskWeights(base.alphas.copy())
        bumped.alphas[i] += 0.5
        delta = total_loss(losses, bumped).item() - total_loss(losses, base).item()
        assert delta == pytest.approx(0.5 * vals[i], abs=1e-6)


def test_mgn_update_rule():
    weights = TaskWeights()
    norms = np.array([4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    new = mgn_update(weights, norms)
    raw = weights.alphas * (norms.mean() / norms)
    raw *= 7.0 / raw.sum()
    np.testing.assert_allclose(new.alphas, raw)
    assert new.alphas.sum() == pytest.approx(7.0)
    assert new.alphas[0] < new.alphas[1]   # big gradient -> smaller weight


def test_mgn_update_properties_over_many_rounds():
    rng = np.random.default_rng(3)
    weights = TaskWeights()
    for _ in range(100):
        norms = rng.uniform(0.0, 5.0, 7)
        weights = mgn_update(weights, norms)
        assert np.all(weights.alphas > 0)
        assert weights.alphas.sum() == pytest.approx(7.0, abs=1e-9)


def test_mgn_update_zero_norms_warns_and_keeps_weights():
    weights = TaskWeights(np.linspace(0.5, 1.5, 7))
    with pytest.warns(UserWarning):
        out = mgn_update(weights, np.zeros(7))
    np.testing.assert_array_equal(out.alphas, weights.alphas)
    with pytest.raises(ContractError):
        mgn_update(weights, np.zeros(5))


def test_adamw_descends_quadratic():
    w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = AdamW([w], lr=0.1, weight_decay=0.0)
    for _ in range(200):
        with Tape() as tape:
            loss = sum_(ad.mul(w, w))
        tape.backward(loss)
        opt.step()
        opt.zero_grad()
    assert np.all(np.abs(w.data) < 0.05)


def test_adamw_decay_shrinks_untouched_params():
    w = Tensor(np.array([2.0]))
    opt = AdamW([w], lr=0.1, weight_decay=0.5)
    opt.step()   # no grad at all
    assert w.data[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5))


def _adamw_f64_step(p, g, m, v, t, lr=1e-4, betas=(0.9, 0.999), eps=1e-8, wd=0.001):
    """One AdamW step in float64, cast back to p's dtype: the optimizer's
    earlier arithmetic, kept as the reference."""
    b1, b2 = betas
    g = g.astype(np.float64)
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    update = (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    new = ((1.0 - lr * wd) * p.astype(np.float64) - lr * update).astype(p.dtype)
    return new, m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_state_keeps_parameter_dtype(dtype):
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal(50).astype(dtype), requires_grad=True)
    opt = AdamW([w])
    for _ in range(3):
        w.grad = rng.standard_normal(50).astype(dtype)
        opt.step()
    assert w.dtype == dtype
    assert [a.dtype for a in opt._m + opt._v] == [np.dtype(dtype)] * 2


def test_adamw_decay_only_matches_float64_form_bit_for_bit():
    w = Tensor(np.random.default_rng(0).standard_normal(10_000).astype(np.float32))
    want = w.data.copy()
    zero = np.zeros_like(want)
    opt = AdamW([w])
    for t in range(1, 101):
        opt.step()
        want, _, _ = _adamw_f64_step(want, zero, 0.0, 0.0, t)
    np.testing.assert_array_equal(w.data, want)


def test_adamw_step_within_one_ulp_of_float64_form():
    """Within 1 ulp wherever the weight outweighs the update. Where the two
    nearly cancel, the float32 rounding of the update, a few parts in 1e7
    of lr, can exceed an ulp of the small result."""
    lr = 1e-4
    rng = np.random.default_rng(1)
    w = Tensor(rng.standard_normal(10_000).astype(np.float32), requires_grad=True)
    w.grad = (rng.standard_normal(10_000) * 1e-2).astype(np.float32)
    big = np.abs(w.data) >= 10 * lr
    want, _, _ = _adamw_f64_step(w.data, w.grad, 0.0, 0.0, 1, lr=lr)
    AdamW([w], lr=lr).step()
    np.testing.assert_array_max_ulp(w.data[big], want[big], maxulp=1)
    assert np.all(np.abs(w.data - want)
                  <= np.spacing(np.abs(want)) + 4 * np.finfo(np.float32).eps * lr)


def _assert_rebalance_matches_total_backward(tape, losses, weights, params):
    new, norms = rebalance(tape, losses, weights, params)
    np.testing.assert_array_equal(new.alphas, mgn_update(weights, norms).alphas)
    combined = [p.grad for p in params]
    for p in params:
        p.grad = None
    tape.backward(total_loss([losses[t] for t in TASKS], new))
    for got, p in zip(combined, params):
        if p.grad is None:
            assert got is None
            continue
        assert np.max(np.abs(got - p.grad) / np.maximum(1.0, np.abs(p.grad))) <= 1e-10
    return new, norms


def test_rebalance_composes_total_gradient_on_model():
    model = build_model(RunConfig(), np.random.default_rng(0)).astype(np.float64)
    batch = make_batch([synth_scene(0), synth_scene(1)])
    weights = TaskWeights(np.linspace(0.4, 1.6, 7))
    with Tape() as tape:
        losses = compute_task_losses(model.forward(batch), batch)
        _, norms = _assert_rebalance_matches_total_backward(
            tape, losses, weights, model.parameters())
    assert min(norms) > 0.0


def test_rebalance_floors_a_task_with_zero_gradient():
    w = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    weights = TaskWeights(np.linspace(0.5, 1.5, 7))
    with Tape() as tape:
        losses = {t: sum_(ad.mul(ad.mul(w, w), float(i + 1))) for i, t in enumerate(TASKS)}
        losses["br"] = sum_(ad.mul(w, 0.0))
        new, norms = _assert_rebalance_matches_total_backward(tape, losses, weights, [w])
    assert norms[TASKS.index("br")] == 0.0
    assert new.alphas[TASKS.index("br")] > 1e9 * new.alphas[0]


def _recorded_step(batch_size):
    model = build_model(RunConfig(), np.random.default_rng(0))
    batch = make_batch([synth_scene(i) for i in range(batch_size)])
    with Tape() as tape:
        losses = compute_task_losses(model.forward(batch), batch)
        loss = total_loss([losses[t] for t in TASKS], TaskWeights())
    return model.parameters(), tape, loss


def test_model_backward_leaves_only_parameter_gradients_bit_identically():
    params, tape, loss = _recorded_step(1)
    tape.backward(loss)
    assert all(rec.out.grad is None for rec in tape.records)
    grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    tape.backward(loss)
    for p, g in zip(params, grads):
        assert (p.grad is None and g is None) or np.array_equal(p.grad, g)


def _count_record_output_bytes(monkeypatch) -> list:
    """From now on, append the byte size of each recorded op output."""
    sizes = []
    apply = ad._apply

    def counting_apply(out_data, inputs, backward, op):
        out = apply(out_data, inputs, backward, op)
        if out._slot is not None:
            sizes.append(out.data.nbytes)
        return out

    monkeypatch.setattr(ad, "_apply", counting_apply)
    return sizes


def test_backward_peak_stays_below_parameters_plus_a_quarter_of_activations(monkeypatch):
    # intermediate gradients held until the pass ends would add about 0.7
    # of all record-output bytes on top of the parameter gradients
    sizes = _count_record_output_bytes(monkeypatch)
    params, tape, loss = _recorded_step(2)
    param_bytes = sum(p.data.nbytes for p in params)
    output_bytes = sum(sizes)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < param_bytes + output_bytes / 4, (peak, param_bytes, output_bytes)


def test_recorded_forward_keeps_less_than_its_record_outputs(monkeypatch):
    # a tape that pinned every record's output would keep all of them, plus
    # the arrays the closures read besides
    sizes = _count_record_output_bytes(monkeypatch)
    model = build_model(RunConfig(), np.random.default_rng(0))
    batch = make_batch([synth_scene(i) for i in range(2)])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            losses = compute_task_losses(model.forward(batch), batch)
            loss = total_loss([losses[t] for t in TASKS], TaskWeights())
        live = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert live < 0.8 * sum(sizes), (live, sum(sizes))
    tape.backward(loss)


def test_compute_task_losses_keys_and_finiteness():
    batch = make_batch([synth_scene(0)])
    model = build_model(RunConfig(), np.random.default_rng(0))
    out = model.forward(batch)
    losses = compute_task_losses(out, batch)
    assert tuple(losses) == TASKS
    for t in TASKS:
        assert np.isfinite(losses[t].item())
        assert losses[t].item() >= 0.0


def test_evaluate_matches_manual_mean():
    samples = [synth_scene(i) for i in range(3)]
    model = build_model(RunConfig(), np.random.default_rng(1))
    weights = TaskWeights()
    per_task, _ = evaluate(model, samples, batch_size=2)
    val = float(np.dot(per_task, weights.alphas))
    sums = np.zeros(7)
    for s in samples:
        batch = make_batch([s])
        losses = compute_task_losses(model.forward(batch), batch)
        sums += np.array([losses[t].item() for t in TASKS])
    np.testing.assert_allclose(per_task, sums / 3,
                               rtol=0, atol=1e-6)
    assert val == pytest.approx(float(np.dot(sums / 3, weights.alphas)),
                                abs=1e-6)


def test_evaluate_does_not_depend_on_batch_size():
    # float64, so that GEMM rounding that varies with the batch stays far
    # below the tolerances
    samples = [synth_scene(i) for i in range(4)]
    model = build_model(RunConfig(), np.random.default_rng(1)).astype(np.float64)
    losses1, metrics1 = evaluate(model, samples, batch_size=1)
    losses3, metrics3 = evaluate(model, samples, batch_size=3)
    assert list(metrics1) == list(REPORT_FIELDS) == list(metrics3)
    for field in REPORT_FIELDS:
        assert metrics1[field] == pytest.approx(metrics3[field], rel=0, abs=1e-12), field
    np.testing.assert_allclose(losses1, losses3, rtol=0, atol=1e-6)


@pytest.mark.parametrize("batch_size", [1, 2, 3])
def test_evaluate_iou_equals_iou_of_concatenated_masks(batch_size):
    samples = [synth_scene(i) for i in range(4)]
    model = build_model(RunConfig(), np.random.default_rng(1)).astype(np.float64)
    pred, gt = [], []
    for s in samples:
        batch = make_batch([s])
        cls = seg_argmax(model.forward(batch).seg_logits.data)
        pred.append(np.eye(NUM_CLASSES, dtype=bool)[cls].transpose(3, 0, 1, 2))
        gt.append(batch["seg_gt"].transpose(1, 0, 2, 3))
    _, want = iou_from_counts(iou_counts(np.concatenate(pred, axis=1),
                                         np.concatenate(gt, axis=1)))
    _, metrics = evaluate(model, samples, batch_size=batch_size)
    assert metrics["ss_metric"] == want


def test_evaluate_memory_does_not_grow_with_samples():
    samples = [synth_scene(i) for i in range(24)]
    model = build_model(RunConfig(), np.random.default_rng(1))
    evaluate(model, samples[:2], batch_size=2)   # warm up lazily built state
    peaks = []
    tracemalloc.start()
    try:
        for n in (6, 24):
            tracemalloc.reset_peak()
            evaluate(model, samples[:n], batch_size=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_fit_metrics_carry_norms_timing_and_validation(tmp_path):
    samples = [synth_scene(i) for i in range(3)]
    cfg = RunConfig()
    cfg.set("train.batch_size", 2)
    metrics = tmp_path / "metrics.ndjson"
    fit(samples, cfg, tmp_path / "model.ckpt", metrics_path=metrics, epochs=2)
    records = [json.loads(line) for line in open(metrics)]
    assert [r["epoch"] for r in records] == [1, 2]
    prev = TaskWeights()
    for r in records:
        assert r["wall_s"] > 0.0
        assert r["samples_per_s"] == pytest.approx(2 / r["wall_s"])
        assert all(f"val_{f}" in r for f in REPORT_FIELDS)
        norms = [r[f"norm_{t}"] for t in TASKS]
        alphas = np.array([r[f"alpha_{t}"] for t in TASKS])
        np.testing.assert_array_equal(alphas, mgn_update(prev, norms).alphas)
        prev = TaskWeights(alphas)


def test_fit_metrics_report_peak_rss(tmp_path):
    samples = [synth_scene(i) for i in range(3)]
    cfg = RunConfig()
    cfg.set("train.batch_size", 2)
    metrics = tmp_path / "metrics.ndjson"
    fit(samples, cfg, tmp_path / "model.ckpt", metrics_path=metrics, epochs=3)
    rss = [json.loads(line)["peak_rss_mb"] for line in open(metrics)]
    assert len(rss) == 3
    assert 0.0 < rss[0] <= rss[1] <= rss[2]


def test_killed_fit_keeps_finished_epochs_in_metrics(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    metrics = tmp_path / "metrics.ndjson"
    script = textwrap.dedent(f"""
        import os, signal
        from skgedrive import training
        from skgedrive.config import RunConfig
        from skgedrive.data import synth_scene

        evaluate = training.evaluate
        calls = []

        def evaluate_killed_in_epoch_2(*args):
            calls.append(1)
            if len(calls) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return evaluate(*args)

        training.evaluate = evaluate_killed_in_epoch_2
        cfg = RunConfig()
        cfg.set("train.batch_size", 2)
        training.fit([synth_scene(i) for i in range(3)], cfg, {str(ckpt)!r},
                     metrics_path={str(metrics)!r}, epochs=3)
    """)
    src = os.path.dirname(os.path.dirname(skgedrive.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    records = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert [r["epoch"] for r in records] == [1]
    assert ckpt.exists()


def test_fit_writes_checkpoint_metrics_and_improves(tmp_path):
    samples = [synth_scene(i) for i in range(8)]
    cfg = RunConfig()
    cfg.set("train.batch_size", 4)
    cfg.set("train.lr", 3e-4)
    ckpt = tmp_path / "model.ckpt"
    metrics = tmp_path / "metrics.ndjson"
    state = fit(samples, cfg, ckpt, metrics_path=metrics, epochs=3)
    assert state.epoch == 3
    assert ckpt.exists()
    saved = read_config(ckpt)
    assert saved["backbone.input_size"] == 64
    meta = load_model(ckpt, build_model(saved, np.random.default_rng(0)))
    assert meta["epoch"] >= 1.0
    records = [json.loads(line) for line in open(metrics)]
    assert len(records) == 3
    assert {"epoch", "lr", "train_loss", "val_loss"} <= set(records[0])
    for t in TASKS:
        assert f"loss_{t}" in records[0] and f"alpha_{t}" in records[0]
    alphas = np.array([records[0][f"alpha_{t}"] for t in TASKS])
    assert alphas.sum() == pytest.approx(7.0, abs=1e-6)
    assert records[-1]["val_loss"] < records[0]["val_loss"] * 1.5


def test_fit_resume_restores_weights(tmp_path):
    samples = [synth_scene(i) for i in range(4)]
    cfg = RunConfig()
    cfg.set("train.batch_size", 2)
    first = tmp_path / "first.ckpt"
    fit(samples, cfg, first, epochs=2)
    second = tmp_path / "second.ckpt"
    metrics = tmp_path / "resumed.ndjson"
    state = fit(samples, cfg, second, metrics_path=metrics, epochs=1,
                resume=first)
    assert state.epoch == 1
    records = [json.loads(line) for line in open(metrics)]
    assert records[0]["epoch"] == 0   # pre-train eval of the resumed weights


def test_fit_resume_appends_to_the_metrics_file(tmp_path):
    samples = [synth_scene(i) for i in range(4)]
    cfg = RunConfig()
    cfg.set("train.batch_size", 2)
    ckpt = tmp_path / "run.ckpt"
    metrics = tmp_path / "run.ndjson"
    fit(samples, cfg, ckpt, metrics_path=metrics, epochs=2)
    before = open(metrics).read().splitlines()
    assert [json.loads(line)["epoch"] for line in before] == [1, 2]
    fit(samples, cfg, tmp_path / "resumed.ckpt", metrics_path=metrics, epochs=1,
        resume=ckpt)
    after = open(metrics).read().splitlines()
    assert after[:2] == before
    assert len(after) > 2


def test_fit_without_a_metrics_path_leaves_only_the_checkpoint(tmp_path):
    cfg = RunConfig()
    cfg.set("train.batch_size", 2)
    fit([synth_scene(i) for i in range(3)], cfg, tmp_path / "model.ckpt", epochs=1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_fit_frees_the_step_tape_before_the_optimizer_step(tmp_path, monkeypatch):
    # AdamW reads only the leaf gradients: by the time it runs, the step's
    # tape, its losses and every backward closure (with the arrays it keeps)
    # are gone
    watched = []

    class WatchedTape(Tape):
        def __exit__(self, *exc):
            watched.append(weakref.ref(self))
            watched.extend(weakref.ref(rec.backward) for rec in self.records)
            return super().__exit__(*exc)

    compute = training.compute_task_losses

    def watched_losses(out, batch):
        losses = compute(out, batch)
        watched.extend(weakref.ref(t.data) for t in losses.values())
        return losses

    step = training.AdamW.step
    steps = []

    def checked_step(opt):
        alive = sum(ref() is not None for ref in watched)
        steps.append((len(watched), alive))
        watched.clear()
        step(opt)

    monkeypatch.setattr(training, "Tape", WatchedTape)
    monkeypatch.setattr(training, "compute_task_losses", watched_losses)
    monkeypatch.setattr(training.AdamW, "step", checked_step)
    cfg = RunConfig()
    cfg.set("train.batch_size", 2)
    # 4 training samples: a rebalancing batch, then a total-loss batch
    fit([synth_scene(i) for i in range(5)], cfg, tmp_path / "model.ckpt", epochs=1)
    assert len(steps) == 2
    for watched_count, alive in steps:
        assert watched_count > 100 and alive == 0, steps


def test_fit_empty_dataset():
    with pytest.raises(ContractError):
        fit([], RunConfig(), "/tmp/never.ckpt", epochs=1)