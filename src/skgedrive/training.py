"""Multi-task loss stack, adaptive task weighting, optimizer, and fit loop.

Seven imitation tasks are balanced by per-task weights that renormalize
to a fixed sum of 7: segmentation (binary cross-entropy plus soft Dice),
traffic light, stop sign, steering, throttle, brake (L1 on the scalar
outputs), and waypoints (L1 averaged over the three points). Once per
epoch the weights are rebalanced inversely to each task's gradient norm.
Optimization is Adam with decoupled weight decay; the learning rate
halves after every 3 consecutive epochs without validation improvement
and training stops after 15.
"""

from __future__ import annotations

import json
import math
import os
import resource
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from . import autodiff as ad
from . import checkpoint, scoring
from .autodiff import Tape, Tensor
from .config import DEFAULTS
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .heads import NUM_CLASSES, seg_argmax
from .model import DrivingModel, ModelOutput, build_model, make_batch

TASKS = ("seg", "tl", "ss", "st", "th", "br", "wp")
REPORT_FIELDS = ("ss_metric", "wp_metric", "str_metric", "thr_metric",
                 "brk_metric", "redl_metric", "stops_metric")


def l1_loss(pred: Tensor, gt: Tensor) -> Tensor:
    """Mean absolute difference over all elements."""
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction {pred.shape} vs ground truth {gt.shape}")
    return ad.mean(ad.abs_(ad.sub(pred, gt)))


@dataclass
class TaskWeights:
    """Per-task loss weights, kept positive and summing to 7."""
    alphas: np.ndarray = field(default_factory=lambda: np.ones(len(TASKS), dtype=np.float64))


def total_loss(losses: Sequence[Tensor], weights: TaskWeights) -> Tensor:
    if len(losses) != len(TASKS):
        raise ContractError(f"need {len(TASKS)} task losses, got {len(losses)}")
    total = None
    for loss, alpha in zip(losses, weights.alphas):
        term = ad.mul(loss, float(alpha))
        total = term if total is None else ad.add(total, term)
    return total


def _inverse_norm(alphas, norms):
    """alpha_t / max(n_t, 1e-12); mgn_update's new weights are 7 f_t / sum(f)."""
    return alphas / np.maximum(norms, 1e-12)


def mgn_update(weights: TaskWeights, norms) -> TaskWeights:
    """Scale each weight by mean-norm/task-norm, then renormalize to sum 7.

    The mean is common to every task and cancels in the renormalization.
    """
    norms = np.asarray(norms, dtype=np.float64)
    if norms.shape != (len(TASKS),):
        raise ContractError(f"need {len(TASKS)} gradient norms, got shape {norms.shape}")
    if np.all(norms == 0.0):
        warnings.warn("all task gradient norms are zero; task weights left unchanged")
        return TaskWeights(weights.alphas.copy())
    f = _inverse_norm(weights.alphas, norms)
    return TaskWeights(f * (len(TASKS) / f.sum()))


_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8


class AdamW:
    """Adam with decoupled weight decay applied to every parameter.

    The moments are kept in each parameter's dtype. Parameters never touched
    by the loss still have their moments decayed and shrink by the factor
    (1 - lr * weight_decay) each step.
    """

    def __init__(self, params: List[Tensor], lr: float = 1e-4,
                 weight_decay: float = 0.001):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        b1, b2 = _BETAS
        self.t += 1
        # lr / bc1 * m / (sqrt(v / bc2) + eps) with sqrt(bc2) folded into the
        # scalars, which stay Python floats: an np.float64 scalar would
        # promote float32 arrays to float64
        root_bc2 = math.sqrt(1.0 - b2 ** self.t)
        step = self.lr * root_bc2 / (1.0 - b1 ** self.t)
        eps = _ADAM_EPS * root_bc2
        decay = self.lr * self.weight_decay
        for p, m, v in zip(self.params, self._m, self._v):
            m *= b1
            v *= b2
            if p.grad is not None:
                m += (1.0 - b1) * p.grad
                v += (1.0 - b2) * np.square(p.grad)
            d = np.sqrt(v)
            d += eps
            u = step * m
            u /= d
            u += decay * p.data
            # one subtraction from the weights: at the defaults the factor
            # (1 - lr * wd) = 1 - 1e-7 would round to 1 - 2**-23 in float32
            p.data = p.data - u

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


@dataclass
class TrainState:
    epoch: int = 0
    best_val: float = math.inf
    stagnant: int = 0
    stopped_early: bool = False


def _guarded(task: str, fn):
    try:
        return fn()
    except NumericError as e:
        raise NumericError(f"task '{task}' produced a non-finite loss: {e}") from None


def compute_task_losses(out: ModelOutput, batch) -> Dict[str, Tensor]:
    """The 7 unweighted task losses, in canonical order."""
    dtype = out.seg_logits.dtype

    def target(key):
        return Tensor(np.asarray(batch[key], dtype=dtype))

    return {
        "seg": _guarded("seg", lambda: ad.bce_dice(ad.sigmoid(out.seg_logits),
                                                   target("seg_gt"))),
        "tl": _guarded("tl", lambda: l1_loss(out.tl_prob, target("tl_gt"))),
        "ss": _guarded("ss", lambda: l1_loss(out.ss_prob, target("ss_gt"))),
        "st": _guarded("st", lambda: l1_loss(out.steering, _column(batch, 0, dtype))),
        "th": _guarded("th", lambda: l1_loss(out.throttle, _column(batch, 1, dtype))),
        "br": _guarded("br", lambda: l1_loss(out.brake, _column(batch, 2, dtype))),
        "wp": _guarded("wp", lambda: l1_loss(out.waypoints, target("waypoints_gt"))),
    }


def _column(batch, i: int, dtype) -> Tensor:
    return Tensor(np.asarray(batch["controls_gt"], dtype=dtype)[:, i:i + 1])


def _grad_norm(params: List[Tensor]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            g = p.grad.astype(np.float64, order="C").reshape(-1)
            total += float(np.dot(g, g))
    return math.sqrt(total)


def rebalance(tape: Tape, losses: Dict[str, Tensor], weights: TaskWeights,
              params: List[Tensor]) -> tuple:
    """(new TaskWeights, weighted norms) from one backward pass per task;
    leaves the gradient of total_loss under the new weights in p.grad.

    The norms are taken on the weighted task losses, n_t = alpha_t |g_t|:
    the multiplicative update then settles where every task pulls with
    equal gradient magnitude, instead of compounding toward a single
    dominant task. The new weights are 7 f_t / sum(f), so the total
    gradient is sum_t f_t g_t scaled by 7 / sum(f), and no further backward
    pass is needed. When every norm is zero, every g_t is zero too.
    """
    acc = [None] * len(params)
    norms, factors = [], []
    for alpha, t in zip(weights.alphas, TASKS):
        for p in params:
            p.grad = None
        tape.backward(losses[t])
        norm = float(alpha) * _grad_norm(params)
        f = float(_inverse_norm(alpha, norm))
        for i, p in enumerate(params):
            if p.grad is None:
                continue
            # acc holds new arrays only, never one read from p.grad
            if acc[i] is None:
                acc[i] = f * p.grad
            else:
                acc[i] += f * p.grad
        norms.append(norm)
        factors.append(f)
    scale = len(TASKS) / sum(factors)
    for p, a in zip(params, acc):
        if a is not None:
            a *= scale
        p.grad = a
    return mgn_update(weights, norms), norms


def evaluate(model: DrivingModel, samples, batch_size: int) -> tuple:
    """(per-task mean losses in TASKS order, the REPORT_FIELDS metrics) over
    samples, without recording.

    ss_metric is the mean per-class IoU of the argmax segmentation, the
    wp/str/thr/brk metrics are mean absolute errors, and redl/stops are
    traffic-light and stop-sign accuracies at a 0.5 threshold.
    """
    sums = np.zeros(len(TASKS))
    # per-class intersection and union counts, so memory stays flat in the
    # number of samples
    seg_counts = np.zeros((2, NUM_CLASSES), dtype=np.int64)
    preds, targets = [], []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        batch = make_batch(chunk)
        out = model.forward(batch)
        losses = compute_task_losses(out, batch)
        sums += np.array([losses[t].item() for t in TASKS]) * len(chunk)

        # iou_counts takes the class axis first
        cls = seg_argmax(out.seg_logits.data)
        seg_counts += scoring.iou_counts(
            np.eye(NUM_CLASSES, dtype=bool)[cls].transpose(3, 0, 1, 2),
            batch["seg_gt"].transpose(1, 0, 2, 3))
        preds.append((out.waypoints.data, out.steering.data, out.throttle.data,
                      out.brake.data, out.tl_prob.data, out.ss_prob.data))
        targets.append((batch["waypoints_gt"], *np.split(batch["controls_gt"], 3, axis=1),
                        batch["tl_gt"], batch["ss_gt"]))

    wp, st, th, br, tl, ss = (np.concatenate(c) for c in zip(*preds))
    wp_gt, st_gt, th_gt, br_gt, tl_gt, ss_gt = (np.concatenate(c) for c in zip(*targets))
    _, mean_iou = scoring.iou_from_counts(seg_counts)
    metrics = {
        "ss_metric": mean_iou,
        "wp_metric": scoring.mae(wp, wp_gt),
        "str_metric": scoring.mae(st, st_gt),
        "thr_metric": scoring.mae(th, th_gt),
        "brk_metric": scoring.mae(br, br_gt),
        "redl_metric": scoring.accuracy(tl, tl_gt),
        "stops_metric": scoring.accuracy(ss, ss_gt),
    }
    return sums / len(samples), metrics


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (ru_maxrss is
    in kB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fit(samples, cfg, out_ckpt, metrics_path=None, epochs: int = 50,
        resume=None) -> TrainState:
    """Train on samples per cfg; checkpoint the best-validation weights."""
    if not samples:
        raise ContractError("training needs a nonempty dataset")
    rng = np.random.default_rng(cfg["train.seed"])
    model = build_model(cfg, rng)
    if resume is not None:
        saved = checkpoint.read_config(resume)
        differ = [f"{k} = {saved[k]} (this run: {cfg[k]})" for k in DEFAULTS
                  if not k.startswith("train.") and saved[k] != cfg[k]]
        if differ:
            raise ConfigError(f"{resume} holds a model built with {'; '.join(differ)}")
        checkpoint.load_model(resume, model)
    batch_size = cfg["train.batch_size"]
    patience_lr = cfg["train.patience_lr"]
    patience_stop = cfg["train.patience_stop"]

    n = len(samples)
    order = rng.permutation(n)
    n_val = max(1, round(0.1 * n))
    val_set = [samples[i] for i in order[:n_val]]
    train_set = [samples[i] for i in order[n_val:]] or val_set

    weights = TaskWeights()
    opt = AdamW(model.parameters(), lr=cfg["train.lr"],
                weight_decay=cfg["train.weight_decay"])
    state = TrainState()

    # one flushed ndjson line per epoch, so a killed run keeps the epochs it
    # finished; a resumed run appends after the lines of the run it resumes
    mode = "w" if resume is None else "a"
    with open(metrics_path or os.devnull, mode) as log:

        def emit(record):
            log.write(json.dumps(record) + "\n")
            log.flush()

        if resume is not None:
            task0, _ = evaluate(model, val_set, batch_size)
            emit({"epoch": 0, "lr": opt.lr, "val_loss": float(np.dot(task0, weights.alphas)),
                  **{f"loss_{t}": float(v) for t, v in zip(TASKS, task0)},
                  **{f"alpha_{t}": float(a) for t, a in zip(TASKS, weights.alphas)},
                  "peak_rss_mb": peak_rss_mb()})

        for epoch in range(1, epochs + 1):
            t0 = time.perf_counter()
            state.epoch = epoch
            perm = rng.permutation(len(train_set))
            task_sums = np.zeros(len(TASKS))
            seen = 0
            for bi, start in enumerate(range(0, len(perm), batch_size)):
                chunk = [train_set[i] for i in perm[start:start + batch_size]]
                batch = make_batch(chunk)
                with Tape() as tape:
                    try:
                        out = model.forward(batch)
                    except NumericError as e:
                        raise NumericError(f"model forward failed: {e}") from None
                    losses = compute_task_losses(out, batch)
                    # no backward reads the logits, so they die here
                    del out
                    if bi == 0:
                        weights, norms = rebalance(tape, losses, weights, opt.params)
                    else:
                        tape.backward(total_loss([losses[t] for t in TASKS], weights))
                task_sums += np.array([losses[t].item() for t in TASKS]) * len(chunk)
                seen += len(chunk)
                # the tape pins the step's activations; AdamW reads only the
                # leaf gradients, so release them before its moments and
                # temporaries are allocated
                del tape, losses
                opt.step()
                opt.zero_grad()

            task_means = task_sums / seen
            train_total = float(np.dot(task_means, weights.alphas))
            val_means, val_metrics = evaluate(model, val_set, batch_size)
            val_loss = float(np.dot(val_means, weights.alphas))

            if val_loss < state.best_val:
                state.best_val = val_loss
                state.stagnant = 0
                checkpoint.save_model(out_ckpt, model,
                                      {"epoch": epoch, "val_loss": val_loss}, cfg)
            else:
                state.stagnant += 1
                if state.stagnant % patience_lr == 0:
                    opt.lr /= 2.0

            wall = time.perf_counter() - t0
            emit({"epoch": epoch, "lr": opt.lr, "train_loss": train_total,
                  "val_loss": val_loss,
                  **{f"loss_{t}": float(v) for t, v in zip(TASKS, task_means)},
                  **{f"alpha_{t}": float(a) for t, a in zip(TASKS, weights.alphas)},
                  "wall_s": wall, "samples_per_s": seen / wall,
                  **{f"norm_{t}": n for t, n in zip(TASKS, norms)},
                  **{f"val_{k}": v for k, v in val_metrics.items()},
                  "peak_rss_mb": peak_rss_mb()})

            if state.stagnant >= patience_stop:
                state.stopped_early = True
                break
    return state
