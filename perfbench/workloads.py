"""The benchmark's three workloads, driven through skgedrive's public API.

Each workload makes its inputs from the seed in its constructor (not
timed), has a set-up step that the runner times as setup_s, and one
operation that the runner repeats for the measured seconds:

- drive_b1: one frame, make_batch plus DrivingModel.forward at batch 1;
- train_b8: one training.fit run of EPOCHS epochs at batch 8;
- verify_f64: one chunk of the release gate's float64 gradient-oracle
  sweep over every parameter tensor.

run() returns an Op with the timed seconds; check() validates the
operation's outputs outside the timed region. Program functions are
called through their modules (``training.fit``, not ``fit``), so the
tracer's wrappers see the benchmark's own calls as well.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from skgedrive import autodiff, checkpoint, data, model, training
from skgedrive.config import RunConfig

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "drive_b1_seg_logits.npz"

MODEL_SEED = 7                 # weight init of the checkpoint drive_b1 loads
REFERENCE_SCENES = (101, 202, 303)
REFERENCE_STRIDE = 2           # reference keeps every 2nd pixel per axis
REFERENCE_RTOL = 1e-3
REFERENCE_ATOL = 1e-4
WARMUP_FRAMES = 3

TRAIN_SAMPLES = 44             # 10% validation split leaves 40 = 5 batches of 8
EPOCHS = 3

ORACLE_BOUND = 1e-4            # the release gate's bound, unchanged
ORACLE_CHUNKS = 10             # one sweep is cut into this many operations


@dataclass
class Op:
    seconds: float                          # timed wall time
    latencies_ms: list                      # one sample per frame, step or evaluation
    steps: int                              # frames, optimizer steps or evaluations
    work: int                               # frames, training samples or checked tensors
    output: Any = field(default=None, repr=False)


class DriveB1:
    """Closed loop, one client: each frame is a fresh seed-derived scene."""

    name = "drive_b1"
    step_unit = "frame"
    work_unit = "frames"

    def __init__(self, seed: int, work: Path):
        self.cfg = RunConfig()
        self.ckpt = work / "drive.ckpt"
        checkpoint.save_model(self.ckpt, model.build_model(
            self.cfg, np.random.default_rng(MODEL_SEED)))
        self.frame_seeds = np.random.default_rng(seed)
        self.warm_batch = model.make_batch([data.synth_scene(seed)])

    def setup(self) -> None:
        m = model.build_model(self.cfg, np.random.default_rng(0))
        checkpoint.load_model(self.ckpt, m)
        for _ in range(WARMUP_FRAMES):
            m.forward(self.warm_batch)
        self.model = m

    def run(self) -> Op:
        scene = data.synth_scene(int(self.frame_seeds.integers(2 ** 31)))
        t0 = perf_counter()
        out = self.model.forward(model.make_batch([scene]))
        dt = perf_counter() - t0
        return Op(dt, [dt * 1e3], 1, 1, out)

    def check(self, op: Op) -> tuple:
        return 1, int(not frame_ok(op.output, self.cfg))

    def finish(self) -> tuple:
        """Compare seg_logits on the reference scenes with the recorded ones."""
        with np.load(REFERENCE) as ref:
            expected = {int(k.split("_")[1]): ref[k] for k in ref.files}
        got = reference_logits(self.model)
        failed = sum(not np.allclose(got[s], expected[s], rtol=REFERENCE_RTOL,
                                     atol=REFERENCE_ATOL)
                     for s in REFERENCE_SCENES)
        return len(REFERENCE_SCENES), failed


def frame_ok(out, cfg) -> bool:
    """Shapes, finiteness and the documented ranges of one frame's outputs."""
    size = int(cfg["backbone.input_size"])
    arrays = {k: getattr(out, k).data for k in
              ("seg_logits", "waypoints", "steering", "throttle", "brake",
               "tl_prob", "ss_prob")}
    if arrays["seg_logits"].shape != (1, 23, size, size) \
            or arrays["waypoints"].shape != (1, 3, 2):
        return False
    if not all(np.isfinite(a).all() for a in arrays.values()):
        return False
    ranges = {"steering": (-1.0, 1.0), "throttle": (0.0, 0.75), "brake": (0.0, 1.0),
              "tl_prob": (0.0, 1.0), "ss_prob": (0.0, 1.0)}
    return all(((lo <= arrays[k]) & (arrays[k] <= hi)).all()
               for k, (lo, hi) in ranges.items())


def reference_logits(m) -> dict:
    """seg_logits of each reference scene, subsampled, keyed by scene seed."""
    s = REFERENCE_STRIDE
    return {seed: m.forward(model.make_batch([data.synth_scene(seed)]))
            .seg_logits.data[:, :, ::s, ::s].copy()
            for seed in REFERENCE_SCENES}


class TrainB8:
    """training.fit on a generated dataset written and read back from disk."""

    name = "train_b8"
    step_unit = "optimizer step"
    work_unit = "training samples"

    def __init__(self, seed: int, work: Path):
        seeds = [int(s) for s in np.random.default_rng(seed).integers(
            2 ** 31, size=TRAIN_SAMPLES)]
        self.dataset = work / "dataset"
        data.save_dataset(self.dataset, [data.synth_scene(s) for s in seeds], seeds)
        self.ckpt = work / "train.ckpt"
        self.metrics = work / "train.metrics.ndjson"
        # fit holds out round(10%) of the samples for validation
        n_train = TRAIN_SAMPLES - max(1, round(0.1 * TRAIN_SAMPLES))
        batch = int(RunConfig()["train.batch_size"])
        self.steps = EPOCHS * math.ceil(n_train / batch)
        self.samples_per_fit = EPOCHS * n_train

    def setup(self) -> None:
        self.samples = data.load_dataset(self.dataset)

    def run(self) -> Op:
        cfg = RunConfig()
        t0 = perf_counter()
        state = training.fit(self.samples, cfg, self.ckpt, metrics_path=self.metrics,
                             epochs=EPOCHS)
        dt = perf_counter() - t0
        return Op(dt, [dt * 1e3 / self.steps], self.steps, self.samples_per_fit,
                  state)

    def check(self, op: Op) -> tuple:
        """Losses finite, segmentation loss lower at the end, checkpoint reloads.

        The weighted total is not compared across epochs: the task weights
        are rebalanced every epoch, and over three epochs the L1 control
        losses wander, while the segmentation loss falls on every seed.
        """
        state = op.output
        with open(self.metrics) as fh:
            recs = [json.loads(line) for line in fh]
        losses = [[r["train_loss"], r["val_loss"]]
                  + [r[f"loss_{t}"] for t in training.TASKS] for r in recs]
        ok = (len(recs) == EPOCHS and np.isfinite(losses).all()
              and recs[-1]["loss_seg"] < recs[0]["loss_seg"])
        fresh = model.build_model(RunConfig(), np.random.default_rng(1))
        meta = checkpoint.load_model(self.ckpt, fresh)
        ok = ok and all(np.isfinite(p.data).all() for p in fresh.parameters())
        ok = ok and math.isclose(meta["val_loss"], state.best_val, rel_tol=1e-6)
        return 1, int(not ok)

    def finish(self) -> tuple:
        return 0, 0


class VerifyF64:
    """The gate's pipeline check: scene 3, init rng 7, coordinate rng 11 at seed 0."""

    name = "verify_f64"
    step_unit = "oracle evaluation"
    work_unit = "checked tensors"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.cfg = RunConfig()
        self.scene = data.synth_scene(3 + seed)
        self.next_chunk = 0

    def setup(self) -> None:
        m = model.build_model(self.cfg, np.random.default_rng(7 + self.seed))
        self.model = m.astype(np.float64)
        self.batch = model.make_batch([self.scene])
        params = list(self.model.named_parameters())
        size = math.ceil(len(params) / ORACLE_CHUNKS)
        self.chunks = [params[i:i + size] for i in range(0, len(params), size)]

    def _loss(self):
        t0 = perf_counter()
        out = self.model.forward(self.batch)
        losses = training.compute_task_losses(out, self.batch)
        loss = training.total_loss([losses[t] for t in training.TASKS],
                                   training.TaskWeights())
        self.eval_ms.append((perf_counter() - t0) * 1e3)
        return loss

    def run(self) -> Op:
        if self.next_chunk == 0:
            # a new sweep draws its coordinates exactly as the gate does
            self.coords = np.random.default_rng(11 + self.seed)
        chunk = self.chunks[self.next_chunk]
        self.next_chunk = (self.next_chunk + 1) % len(self.chunks)
        self.eval_ms = []
        t0 = perf_counter()
        errs = autodiff.grad_check_params(self._loss, chunk, coords_per_tensor=2,
                                          rng=self.coords)
        dt = perf_counter() - t0
        return Op(dt, self.eval_ms, len(self.eval_ms), len(chunk), errs)

    def check(self, op: Op) -> tuple:
        errs = list(op.output.values())
        return len(errs), sum(not (e < ORACLE_BOUND) for e in errs)

    def finish(self) -> tuple:
        return 0, 0


WORKLOADS = {w.name: w for w in (DriveB1, TrainB8, VerifyF64)}
