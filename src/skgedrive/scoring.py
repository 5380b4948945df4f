"""Task metrics and driving metrics.

Driving performance is scored from per-route logs: route completion is
the on-road distance as a percentage of the route length (capped at
100), the infraction penalty multiplies a fixed factor per recorded
infraction, and the driving score averages completion x penalty across
routes. Task metrics cover per-class IoU, boolean accuracy at a 0.5
threshold, and mean absolute error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .checkpoint import replacing
from .errors import ContractError, CorruptDataError, DataError, ShapeError

PENALTIES: Dict[str, float] = {
    "ped": 0.50,
    "veh": 0.60,
    "static": 0.65,
    "red_light": 0.70,
    "stop_sign": 0.80,
}


@dataclass(frozen=True)
class DriveLog:
    """One route's drive: a log that breaks a rule below cannot be built."""
    route_id: str
    total_route_length: float                 # meters, finite, > 0
    steps: Tuple[Tuple[float, float, bool], ...] = ()
    infractions: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "infractions", tuple(self.infractions))
        if not (math.isfinite(self.total_route_length) and self.total_route_length > 0):
            raise DataError(f"route {self.route_id}: route length must be positive "
                            f"and finite, got {self.total_route_length}")
        for x, y, _ in self.steps:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DataError(f"route {self.route_id}: non-finite step position")
        for kind in self.infractions:
            if kind not in PENALTIES:
                raise DataError(f"route {self.route_id}: unknown infraction {kind!r}")


def iou_counts(pred_mask: np.ndarray, gt_mask: np.ndarray) -> np.ndarray:
    """(2, C) integer intersection and union pixel counts per class of the
    leading class axis. Counts of several batches add up to the counts of
    their concatenation."""
    pred = np.asarray(pred_mask, dtype=bool)
    gt = np.asarray(gt_mask, dtype=bool)
    if pred.shape != gt.shape:
        raise ContractError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    axes = tuple(range(1, pred.ndim))
    return np.stack([np.logical_and(pred, gt).sum(axis=axes),
                     np.logical_or(pred, gt).sum(axis=axes)])


def iou_from_counts(counts) -> tuple:
    """Per-class IoU and their mean from iou_counts; empty/empty -> 1."""
    inter, union = np.asarray(counts, dtype=np.float64)
    per_class = np.where(union > 0, inter / np.maximum(union, 1.0), 1.0)
    return per_class, float(per_class.mean())


def accuracy(preds, gts) -> float:
    """Fraction of agreements after thresholding both sides at 0.5."""
    p = np.asarray(preds, dtype=np.float64).reshape(-1)
    g = np.asarray(gts, dtype=np.float64).reshape(-1)
    if p.size == 0:
        raise ContractError("accuracy needs at least one prediction")
    if p.shape != g.shape:
        raise ContractError(f"prediction/target counts differ: {p.size} vs {g.size}")
    return float(np.mean((p >= 0.5) == (g >= 0.5)))


def mae(pred, gt) -> float:
    """Mean absolute error in pred's dtype; the same arithmetic as the L1 training loss."""
    p = np.asarray(pred)
    g = np.asarray(gt, dtype=p.dtype)
    if p.shape != g.shape:
        raise ShapeError(f"prediction {p.shape} vs ground truth {g.shape}")
    return float(np.abs(p - g).mean())


def route_completion(log: DriveLog) -> float:
    """On-road distance as a percentage of the route length, capped at 100.

    A segment counts when its STARTING step is flagged on-road.
    """
    dist = 0.0
    for (x0, y0, on_road), (x1, y1, _) in zip(log.steps, log.steps[1:]):
        if on_road:
            dist += math.hypot(x1 - x0, y1 - y0)
    return min(100.0, dist / log.total_route_length * 100.0)


def infraction_penalty(log: DriveLog) -> float:
    """Product over infractions of the per-type penalty factor."""
    penalty = 1.0
    for kind in log.infractions:
        penalty *= PENALTIES[kind]
    return penalty


def driving_score(routes: Sequence[Tuple[float, float]]) -> float:
    """Mean over routes of completion x penalty."""
    if not routes:
        raise ContractError("driving score needs at least one route")
    return float(np.mean([rc * ip for rc, ip in routes]))


# ---------------------------------------------------------------------------
# line-delimited log IO

def write_drive_log(path, log: DriveLog) -> None:
    """One JSON object per line, steps then infractions; the first line
    carries route_length, so a log needs at least one of either."""
    recs = [{"route_id": log.route_id, "kind": "step", "x": x, "y": y,
             "on_road": bool(on_road), "infraction_type": ""}
            for x, y, on_road in log.steps]
    recs += [{"route_id": log.route_id, "kind": "infraction", "x": 0.0, "y": 0.0,
              "on_road": False, "infraction_type": kind} for kind in log.infractions]
    if not recs:
        raise ContractError(f"route {log.route_id}: a drive log needs a step "
                            f"or an infraction")
    recs[0]["route_length"] = log.total_route_length
    with replacing(path, "w") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in recs)


def _number(rec: dict, key: str, path, ln: int) -> float:
    try:
        return float(rec[key])
    except (TypeError, ValueError, OverflowError):
        raise CorruptDataError(f"{path}:{ln}: {key} is not a number: {rec[key]!r}") from None


def read_drive_log(path) -> DriveLog:
    route_id = None
    length = None
    steps: List[Tuple[float, float, bool]] = []
    infractions: List[str] = []
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise CorruptDataError(f"{path}: not UTF-8 text") from None
        for ln, raw in enumerate(lines, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except ValueError as e:  # JSONDecodeError, or an integer too long to parse
                raise CorruptDataError(f"{path}:{ln}: bad record: {e}") from None
            if not isinstance(rec, dict):
                raise CorruptDataError(f"{path}:{ln}: record is not a JSON object")
            for fld in ("route_id", "kind", "x", "y", "on_road", "infraction_type"):
                if fld not in rec:
                    raise CorruptDataError(f"{path}:{ln}: missing field {fld!r}")
            if not isinstance(rec["route_id"], str):
                raise CorruptDataError(f"{path}:{ln}: route_id is not a string: "
                                       f"{rec['route_id']!r}")
            if not isinstance(rec["on_road"], bool):
                raise CorruptDataError(f"{path}:{ln}: on_road is not a boolean: "
                                       f"{rec['on_road']!r}")
            if route_id is None:
                route_id = rec["route_id"]
            elif rec["route_id"] != route_id:
                raise CorruptDataError(f"{path}:{ln}: mixed route ids in one file")
            if "route_length" in rec:
                length = _number(rec, "route_length", path, ln)
            if rec["kind"] == "step":
                steps.append((_number(rec, "x", path, ln), _number(rec, "y", path, ln),
                              rec["on_road"]))
            elif rec["kind"] == "infraction":
                if not isinstance(rec["infraction_type"], str):
                    raise CorruptDataError(f"{path}:{ln}: infraction_type is not a "
                                           f"string: {rec['infraction_type']!r}")
                infractions.append(rec["infraction_type"])
            else:
                raise CorruptDataError(f"{path}:{ln}: unknown kind {rec['kind']!r}")
    if route_id is None:
        raise CorruptDataError(f"{path}: empty drive log")
    if length is None:
        raise CorruptDataError(f"{path}: no record carries route_length")
    try:
        return DriveLog(route_id=route_id, total_route_length=length,
                        steps=steps, infractions=infractions)
    except DataError as e:
        raise CorruptDataError(f"{path}: {e}") from None


def score_routes(logs: Sequence[DriveLog]) -> dict:
    """Per-route RC/IP/DS plus the means across routes."""
    rows = []
    for log in logs:
        rc = route_completion(log)
        ip = infraction_penalty(log)
        rows.append({"route_id": log.route_id, "rc": rc, "ip": ip, "ds": rc * ip})
    ds = driving_score([(r["rc"], r["ip"]) for r in rows])
    return {
        "routes": rows,
        "mean_rc": float(np.mean([r["rc"] for r in rows])),
        "mean_ip": float(np.mean([r["ip"] for r in rows])),
        "driving_score": ds,
    }
