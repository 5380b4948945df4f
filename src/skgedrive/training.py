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
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .autodiff import Tape, Tensor
from .errors import ContractError, NumericError, ShapeError
from .model import DrivingModel, ModelOutput, build_model, make_batch
from .skge import route_code

TASKS = ("seg", "tl", "ss", "st", "th", "br", "wp")


def seg_loss(pred: Tensor, gt: Tensor) -> Tensor:
    """Mean binary cross-entropy plus global soft Dice on sigmoid probabilities."""
    return ad.bce_dice(pred, gt)


def l1_loss(pred: Tensor, gt: Tensor) -> Tensor:
    """Mean absolute difference over all elements."""
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction {pred.shape} vs ground truth {gt.shape}")
    return ad.mean(ad.abs_(ad.sub(pred, gt)))


@dataclass
class TaskWeights:
    """Per-task loss weights, kept positive and summing to 7."""
    alphas: np.ndarray = field(default_factory=lambda: np.ones(7, dtype=np.float64))

    def as_dict(self) -> Dict[str, float]:
        return {t: float(a) for t, a in zip(TASKS, self.alphas)}


def total_loss(losses: Sequence[Tensor], weights: TaskWeights) -> Tensor:
    if len(losses) != len(TASKS):
        raise ContractError(f"need {len(TASKS)} task losses, got {len(losses)}")
    total = None
    for loss, alpha in zip(losses, weights.alphas):
        term = ad.mul(loss, float(alpha))
        total = term if total is None else ad.add(total, term)
    return total


def mgn_update(weights: TaskWeights, norms) -> TaskWeights:
    """Scale each weight by mean-norm/task-norm, then renormalize to sum 7."""
    norms = np.asarray(norms, dtype=np.float64)
    if norms.shape != (7,):
        raise ContractError(f"need 7 gradient norms, got shape {norms.shape}")
    if np.all(norms == 0.0):
        warnings.warn("all task gradient norms are zero; task weights left unchanged")
        return TaskWeights(weights.alphas.copy())
    floored = np.maximum(norms, 1e-12)
    new = weights.alphas * (floored.mean() / floored)
    new *= 7.0 / new.sum()
    return TaskWeights(new)


class AdamW:
    """Adam with decoupled weight decay applied to every parameter.

    Parameters never touched by the loss still shrink by the factor
    (1 - lr * weight_decay) each step.
    """

    def __init__(self, params: List[Tensor], lr: float = 1e-4,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.001):
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]
        self._v = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]

    def step(self) -> None:
        b1, b2 = self.betas
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = np.zeros_like(p.data, dtype=np.float64) if p.grad is None \
                else p.grad.astype(np.float64)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = ((1.0 - self.lr * self.weight_decay) * p.data.astype(np.float64)
                      - self.lr * update).astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


@dataclass
class TrainState:
    epoch: int = 0
    best_val: float = math.inf
    stagnant: int = 0
    lr: float = 1e-4
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
        "seg": _guarded("seg", lambda: seg_loss(ad.sigmoid(out.seg_logits),
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
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    return math.sqrt(total)


def evaluate(model: DrivingModel, samples, weights: TaskWeights,
             batch_size: int, use_lidar: bool) -> tuple:
    """(weighted total, per-task means) over samples, without recording."""
    sums = np.zeros(7)
    count = 0
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        batch = make_batch(chunk, use_lidar)
        out = model.forward(batch)
        losses = compute_task_losses(out, batch)
        sums += np.array([losses[t].item() for t in TASKS]) * len(chunk)
        count += len(chunk)
    means = sums / count
    return float(np.dot(means, weights.alphas)), dict(zip(TASKS, means))


def fit(samples, cfg, out_ckpt, metrics_path=None, epochs: int = 50,
        resume=None) -> TrainState:
    """Train on samples per cfg; checkpoint the best-validation weights."""
    if not samples:
        raise ContractError("training needs a nonempty dataset")
    rng = np.random.default_rng(int(cfg["train.seed"]))
    model = build_model(cfg, rng)
    if resume is not None:
        checkpoint.load_model(resume, model)
    use_lidar = bool(int(cfg["bev.use_lidar"]))
    batch_size = int(cfg["train.batch_size"])
    patience_lr = int(cfg["train.patience_lr"])
    patience_stop = int(cfg["train.patience_stop"])

    n = len(samples)
    order = rng.permutation(n)
    n_val = max(1, round(0.1 * n))
    val_set = [samples[i] for i in order[:n_val]]
    train_set = [samples[i] for i in order[n_val:]] or val_set

    weights = TaskWeights()
    opt = AdamW(model.parameters(), lr=float(cfg["train.lr"]),
                weight_decay=float(cfg["train.weight_decay"]))
    state = TrainState(lr=opt.lr)

    lines = []

    def emit(record):
        lines.append(json.dumps(record))

    if resume is not None:
        val0, task0 = evaluate(model, val_set, weights, batch_size, use_lidar)
        emit({"epoch": 0, "lr": opt.lr, "val_loss": val0,
              **{f"loss_{t}": v for t, v in task0.items()},
              **{f"alpha_{t}": a for t, a in weights.as_dict().items()}})

    meta_static = _model_meta(cfg)
    try:
        for epoch in range(1, epochs + 1):
            state.epoch = epoch
            perm = rng.permutation(len(train_set))
            task_sums = np.zeros(7)
            seen = 0
            for bi, start in enumerate(range(0, len(perm), batch_size)):
                chunk = [train_set[i] for i in perm[start:start + batch_size]]
                batch = make_batch(chunk, use_lidar)
                with Tape() as tape:
                    try:
                        out = model.forward(batch)
                    except NumericError as e:
                        raise NumericError(f"model forward failed: {e}") from None
                    losses = compute_task_losses(out, batch)
                    if bi == 0:
                        # norms are taken on the weighted task losses: the
                        # multiplicative update then settles where every
                        # task pulls with equal gradient magnitude, instead
                        # of compounding toward a single dominant task
                        norms = []
                        for ti, t in enumerate(TASKS):
                            model.zero_grad()
                            tape.backward(losses[t])
                            norms.append(float(weights.alphas[ti])
                                         * _grad_norm(opt.params))
                        weights = mgn_update(weights, norms)
                    total = total_loss([losses[t] for t in TASKS], weights)
                    model.zero_grad()
                    tape.backward(total)
                opt.step()
                task_sums += np.array([losses[t].item() for t in TASKS]) * len(chunk)
                seen += len(chunk)

            task_means = task_sums / seen
            train_total = float(np.dot(task_means, weights.alphas))
            val_loss, _ = evaluate(model, val_set, weights, batch_size, use_lidar)

            if val_loss < state.best_val:
                state.best_val = val_loss
                state.stagnant = 0
                checkpoint.save_model(out_ckpt, model, {
                    **meta_static, "epoch": epoch, "val_loss": val_loss})
            else:
                state.stagnant += 1
                if state.stagnant % patience_lr == 0:
                    opt.lr /= 2.0
                    state.lr = opt.lr

            emit({"epoch": epoch, "lr": opt.lr, "train_loss": train_total,
                  "val_loss": val_loss,
                  **{f"loss_{t}": float(v) for t, v in zip(TASKS, task_means)},
                  **{f"alpha_{t}": a for t, a in weights.as_dict().items()}})

            if state.stagnant >= patience_stop:
                state.stopped_early = True
                break
    finally:
        if metrics_path is not None and lines:
            with open(metrics_path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
    return state


def _model_meta(cfg) -> Dict[str, float]:
    """Numeric hyperparameters embedded in checkpoints for self-contained reload."""
    depths = [int(x) for x in str(cfg["backbone.depths"]).split(",")]
    heads = [int(x) for x in str(cfg["backbone.heads"]).split(",")]
    meta = {
        "input_size": int(cfg["backbone.input_size"]),
        "patch": int(cfg["backbone.patch"]),
        "window": int(cfg["backbone.window"]),
        "embed_dim": int(cfg["backbone.embed_dim"]),
        "bev_size": int(cfg["bev.size"]),
        "bev_resolution_m": float(cfg["bev.resolution_m"]),
        "use_lidar": int(cfg["bev.use_lidar"]),
        "route_a": route_code(cfg["skge.route_a"]),
        "route_b": route_code(cfg["skge.route_b"]),
    }
    for i in range(4):
        meta[f"depth{i}"] = depths[i]
        meta[f"head{i}"] = heads[i]
    return meta
