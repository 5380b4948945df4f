"""Acceptance gate: one test per release criterion, one verdict line each.

Every test prints exactly one `acceptance [PASS|FAIL] ...` line on the real
terminal (bypassing capture) so a full run yields a one-line-per-criterion
report; the usual assertion diagnostics still fire on failure.
"""

import json
import os
import time

import numpy as np
import pytest

from skgedrive import autodiff as ad
from skgedrive.autodiff import Tensor, grad_check, grad_check_params
from skgedrive.backbone import SwinBlock
from skgedrive.checkpoint import (MAGIC, load_model, read_records, save_model,
                                  write_records)
from skgedrive.config import RunConfig
from skgedrive.controller import Controller, EgoState, global_to_local, local_to_global
from skgedrive.data import (MANIFEST_NAME, decode_depth, load_dataset,
                            save_dataset, synth_scene)
from skgedrive.errors import CorruptDataError, DataError
from skgedrive.model import build_model, make_batch
from skgedrive.scoring import (PENALTIES, DriveLog, driving_score,
                               infraction_penalty, read_drive_log)
from skgedrive.skge import bilinear_resize
from skgedrive.training import (TASKS, TaskWeights, compute_task_losses, fit,
                                mgn_update, total_loss)
from skgedrive.cli import REPORT_FIELDS, _load_model_from_ckpt, evaluate_dataset

from oracles import bilinear_reference, window_id_grid
from test_autodiff import _op_cases

ROUTES = ["none", "3", "2->3", "2->4", "1->4", "4->1", "1,2,3->4"]


def _verdict(capsys, label, fn, budget_s=None):
    t0 = time.perf_counter()
    err = None
    try:
        fn()
    except BaseException as e:   # report, then re-raise with full diagnostics
        err = e
    dt = time.perf_counter() - t0
    if err is None and budget_s is not None and dt > budget_s:
        err = AssertionError(f"{label}: {dt:.1f}s exceeds the {budget_s}s budget")
    status = "PASS" if err is None else "FAIL"
    with capsys.disabled():
        print(f"\nacceptance [{status}] {label} ({dt:.1f}s)")
    if err is not None:
        raise err


def test_acceptance_scoring_arithmetic_reproduction(capsys):
    def run():
        ds = driving_score([(86.8683, 0.3421)])
        assert 29.71 <= ds <= 29.72
        assert abs(ds - 29.7100) < 0.01
        # aggregate-column product: close to 37.19, and measurably different
        # from the mean-of-products reference 37.1046 (recorded caveat)
        ds2 = driving_score([(82.8075, 0.4491)])
        assert abs(ds2 - 37.19) < 0.005
        assert abs(ds2 - 37.1046) > 0.01

    _verdict(capsys, "single-route driving-score arithmetic", run, budget_s=1.0)


def test_acceptance_penalty_table_and_properties(capsys):
    def run():
        assert PENALTIES == {"ped": 0.50, "veh": 0.60, "static": 0.65,
                            "red_light": 0.70, "stop_sign": 0.80}
        rng = np.random.default_rng(0)
        kinds = list(PENALTIES)
        for _ in range(1000):
            picks = [kinds[i] for i in
                     rng.integers(0, len(kinds), rng.integers(0, 9))]
            log = DriveLog("r", 10.0, [(0.0, 0.0, True)], picks)
            ip = infraction_penalty(log)
            want = 1.0
            for kind in picks:
                want *= PENALTIES[kind]
            assert ip == pytest.approx(want, rel=1e-12)
            assert 0.0 < ip <= 1.0
            shuffled = list(picks)
            rng.shuffle(shuffled)
            assert infraction_penalty(
                DriveLog("r", 10.0, [(0.0, 0.0, True)], shuffled)) == \
                pytest.approx(ip, rel=1e-12)
            extra = picks + [kinds[int(rng.integers(0, len(kinds)))]]
            assert infraction_penalty(
                DriveLog("r", 10.0, [(0.0, 0.0, True)], extra)) < ip

    _verdict(capsys, "penalty table and multiplicative-penalty properties",
             run, budget_s=5.0)


def test_acceptance_depth_decoding(capsys):
    def run():
        lo = decode_depth(np.zeros((3, 1, 1)))
        hi = decode_depth(np.full((3, 1, 1), 255.0))
        assert lo[0, 0] == 0.0
        assert hi[0, 0] == 1000.0
        rng = np.random.default_rng(1)
        triples = rng.integers(0, 256, size=(10_000, 3))
        img = triples.T.reshape(3, 1, -1).astype(np.float64)
        depths = decode_depth(img)[0]
        codes = triples[:, 0] + 256 * triples[:, 1] + 65536 * triples[:, 2]
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        sorted_depths = depths[order]
        diffs = np.diff(sorted_depths)
        code_diffs = np.diff(sorted_codes)
        assert np.all(diffs[code_diffs > 0] > 0)    # strictly increasing
        assert np.all(diffs[code_diffs == 0] == 0)  # equal codes, equal depth
        np.testing.assert_allclose(depths, codes / (256.0 ** 3 - 1) * 1000.0,
                                   rtol=0, atol=1e-9)

    _verdict(capsys, "depth decode endpoints and monotonicity", run)


def test_acceptance_gradient_oracle(capsys):
    def run():
        # part 1: every differentiable op against central differences
        worst_op = 0.0
        for trial in range(3):
            rng = np.random.default_rng(2000 + trial)
            for name, (f, x0) in _op_cases(rng).items():
                x = Tensor(np.asarray(x0, dtype=np.float64), requires_grad=True)
                err = grad_check(f, x)
                worst_op = max(worst_op, err)
                assert err < 1e-4, f"op {name}: rel err {err:.3e}"

        # part 2: the full pipeline, one check per skip-route configuration
        batch = make_batch([synth_scene(3)])
        worst_pipe = 0.0
        for route in ROUTES:
            cfg = RunConfig()
            cfg.set("skge.route_a", route)
            cfg.set("skge.route_b", route)
            model = build_model(cfg, np.random.default_rng(7)).astype(np.float64)
            params = list(model.named_parameters())

            def f():
                out = model.forward(batch)
                losses = compute_task_losses(out, batch)
                return total_loss([losses[t] for t in TASKS], TaskWeights())

            errs = grad_check_params(f, params, coords_per_tensor=2,
                                     rng=np.random.default_rng(11))
            worst = max(errs.values())
            worst_pipe = max(worst_pipe, worst)
            bad = {n: e for n, e in errs.items() if e >= 1e-4}
            assert not bad, f"route {route}: {bad}"

    _verdict(capsys, "finite-difference oracle, ops and full pipeline on all "
             "7 skip routes", run, budget_s=600.0)


def test_acceptance_bilinear_oracle(capsys):
    def run():
        rng = np.random.default_rng(2)
        pairs = [((2, 16), (2, 16)), ((16, 2), (16, 2))]  # deep<->shallow remaps
        while len(pairs) < 100:
            h, w = (int(v) for v in rng.integers(1, 17, 2))
            oh, ow = (int(v) for v in rng.integers(1, 17, 2))
            pairs.append(((h, oh), (w, ow)))
        for (h, oh), (w, ow) in pairs:
            src = rng.standard_normal((2, h, w, 3))
            got = bilinear_resize(Tensor(src), oh, ow).numpy()
            np.testing.assert_allclose(got, bilinear_reference(src, oh, ow),
                                       rtol=0, atol=1e-6)

    _verdict(capsys, "bilinear resize vs independent per-pixel reference "
             "(100 shape pairs)", run)


def test_acceptance_shifted_window_masking(capsys):
    def run():
        ids = window_id_grid(4, 4, 2)
        rolled = np.roll(ids, (-1, -1), axis=(0, 1))
        slot_ids = rolled.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            blk = SwinBlock(8, 2, 2, 1, 2.0, rng)
            x = Tensor(rng.standard_normal((1, 4, 4, 8)).astype(np.float32))
            blk(x)
            attn = blk.attn.last_attn  # (windows, heads, 4, 4)
            for wi in range(4):
                for s1 in range(4):
                    row = attn[wi, :, s1, :]
                    np.testing.assert_allclose(row.sum(axis=-1), 1.0, atol=1e-5)
                    for s2 in range(4):
                        if slot_ids[wi, s1] != slot_ids[wi, s2]:
                            assert np.all(attn[wi, :, s1, s2] == 0.0)
                        else:
                            assert np.all(attn[wi, :, s1, s2] > 0.0)

    _verdict(capsys, "exhaustive shifted-window mask: zero weight across "
             "pre-shift boundaries", run)


def test_acceptance_rollout_algebra(capsys):
    def run():
        # waypoint telescoping: a constant per-step displacement accumulates
        ctrl = Controller(8, hidden=4)
        for _, p in ctrl.named_parameters():
            p.data = np.zeros_like(p.data)
        ctrl.astype(np.float64)
        ctrl.delta.bias.data = np.array([1.0, 2.0])
        rng = np.random.default_rng(0)
        pooled = Tensor(rng.standard_normal((1, 8)))
        route = Tensor(rng.standard_normal((1, 2)))
        speed = Tensor(rng.uniform(0, 10, (1, 1)))
        out = ctrl(pooled, route, speed)
        np.testing.assert_array_equal(
            out.waypoints.numpy(),
            np.array([[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]]))

        # frame transform round-trip at 1e-9
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ego = EgoState(speed=1.0,
                           position=(rng.uniform(-100, 100), rng.uniform(-100, 100)),
                           heading_deg=rng.uniform(-180, 180),
                           route_point=(0.0, 0.0))
            p = rng.uniform(-50, 50, 2)
            back = global_to_local(local_to_global(p, ego), ego)
            np.testing.assert_allclose(back, p, atol=1e-9)

        # bias isolation: with the displacement head silenced, the latent is
        # exactly affine in the bias encoder, so the recurrence saw no bias
        rng = np.random.default_rng(3)
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
            latents.append(base(pooled, route, speed).latent.numpy())
        step1 = latents[1] - latents[0]
        step2 = latents[2] - latents[1]
        np.testing.assert_allclose(step1, step2, atol=1e-9)
        assert np.abs(step1).max() > 1e-6

    _verdict(capsys, "waypoint telescoping, frame round-trip, bias isolation",
             run)


def test_acceptance_loss_stack(capsys):
    def run():
        gt = np.zeros((2, 4, 8, 8))
        gt[0, 1, :3] = 1.0
        gt[1, 2, 4:] = 1.0
        assert abs(ad.bce_dice(Tensor(gt.copy()), Tensor(gt)).item()) < 1e-5

        rng = np.random.default_rng(4)
        vals = rng.uniform(0.1, 3.0, 7)
        losses = [Tensor(np.array(v)) for v in vals]
        base = TaskWeights()
        for i in range(7):
            bumped = TaskWeights(base.alphas.copy())
            bumped.alphas[i] += 0.7
            delta = total_loss(losses, bumped).item() - \
                total_loss(losses, base).item()
            assert abs(delta - 0.7 * vals[i]) < 1e-6

        weights = TaskWeights()
        for _ in range(100):
            weights = mgn_update(weights, rng.uniform(0.0, 5.0, 7))
            assert np.all(weights.alphas > 0)
            assert abs(weights.alphas.sum() - 7.0) < 1e-9

    _verdict(capsys, "perfect-prediction zero, weight linearity, adaptive "
             "reweighting invariants", run)


def test_acceptance_training_smoke(capsys, tmp_path):
    def run():
        samples = [synth_scene(i) for i in range(200)]
        cfg = RunConfig()
        metrics = tmp_path / "smoke.ndjson"
        fit(samples, cfg, tmp_path / "smoke.ckpt", metrics_path=metrics,
            epochs=20)
        recs = [json.loads(line) for line in open(metrics)]
        first, last = recs[0]["train_loss"], recs[-1]["train_loss"]
        assert last <= 0.5 * first, f"train loss {first:.3f} -> {last:.3f}"

        metrics1 = tmp_path / "overfit.ndjson"
        fit([synth_scene(0)], RunConfig(), tmp_path / "overfit.ckpt",
            metrics_path=metrics1, epochs=50)
        recs1 = [json.loads(line) for line in open(metrics1)]
        f1, l1 = recs1[0]["train_loss"], recs1[-1]["train_loss"]
        assert l1 < 0.10 * f1, f"overfit loss {f1:.3f} -> {l1:.3f}"

    _verdict(capsys, "200-sample smoke halves the loss; 1-sample overfit "
             "below 10%", run, budget_s=900.0)


def test_acceptance_ablation_matrix(capsys, tmp_path):
    def run():
        samples = [synth_scene(i) for i in range(6)]
        for route in ROUTES:
            cfg = RunConfig()
            cfg.set("skge.route_a", route)
            cfg.set("skge.route_b", route)
            ckpt = tmp_path / f"route_{route.replace('->', 'to').replace(',', '_')}.ckpt"
            fit(samples, cfg, ckpt, epochs=2)
            model, loaded_cfg = _load_model_from_ckpt(ckpt)
            assert str(model.route_b) == str(loaded_cfg["skge.route_b"])
            report = evaluate_dataset(model, loaded_cfg, samples)
            assert set(report) == set(REPORT_FIELDS) | {"test_metric"}
            for field in REPORT_FIELDS:
                assert np.isfinite(report[field]), (route, field)

    _verdict(capsys, "all 7 skip routes train 2 epochs and emit the 7-field "
             "report", run)


def test_acceptance_serialization(capsys, tmp_path):
    def run():
        # model checkpoint: byte-for-byte round trip
        cfg = RunConfig()
        model = build_model(cfg, np.random.default_rng(0))
        ckpt = tmp_path / "m.ckpt"
        save_model(ckpt, model, {"epoch": 1.0})
        fresh = build_model(cfg, np.random.default_rng(42))
        load_model(ckpt, fresh)
        for (name, a), (_, b) in zip(model.named_parameters(),
                                     fresh.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name
        again = tmp_path / "m2.ckpt"
        save_model(again, fresh, {"epoch": 1.0})
        assert ckpt.read_bytes() == again.read_bytes()

        # dataset: every array field bit-identical through disk
        samples = [synth_scene(i) for i in range(3)]
        ddir = tmp_path / "data"
        save_dataset(ddir, samples, list(range(3)))
        back = load_dataset(ddir)
        for s, t in zip(samples, back):
            for field in ("rgb", "depth_rgb", "seg_gt", "waypoints_gt",
                          "controls_gt"):
                assert getattr(s, field).tobytes() == getattr(t, field).tobytes()

        # corrupt fixtures raise the declared errors
        raw = ckpt.read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(raw[:len(raw) - 3])
        with pytest.raises(CorruptDataError):
            read_records(cut)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(CorruptDataError):
            read_records(bad)

        log = tmp_path / "log.ndjson"
        log.write_text(json.dumps({"route_id": "a", "kind": "step", "x": 0,
                                   "y": 0, "infraction_type": "",
                                   "route_length": 5.0}) + "\n")
        with pytest.raises(CorruptDataError):
            read_drive_log(log)

        manifest = ddir / MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        head = lines[0].split()
        head[2] = str(int(head[2]) + 1)
        manifest.write_text("\n".join([" ".join(head)] + lines[1:]) + "\n")
        with pytest.raises(CorruptDataError):
            load_dataset(ddir)

    _verdict(capsys, "bit-identical round trips; corrupt files raise typed "
             "errors", run)