"""Dataset records, depth codec, and a procedural scene generator.

A Sample bundles the per-frame inputs and imitation targets: RGB image,
base-256-encoded depth image, one-hot segmentation, ego speed and pose,
the next global route point, three local waypoints, denormalized
controls, and the traffic-light / stop-sign flags. The generator draws
deterministic scenes per seed: sky over a textured ground with a road
band, lane markings, sidewalks, and a handful of objects, a consistent
ground-plane depth ramp, and an expert arc trajectory whose controls
follow a simple pure-pursuit rule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .checkpoint import read_records, replacing, write_records
from .controller import EgoState, local_to_global
from .errors import CorruptDataError, DataError
from .heads import NUM_CLASSES, CameraConfig

CLASS_NAMES = (
    "Unlabeled", "Building", "Fence", "Other", "Pedestrian", "Pole",
    "Road lane", "Road", "Sidewalk", "Vegetation", "Other vehicles", "Wall",
    "Traffic sign", "Sky", "Ground", "Bridge", "Rail track", "Guard Trail",
    "Traffic light", "Static Object", "Dynamic Object", "Water", "Terrain",
)
assert len(CLASS_NAMES) == NUM_CLASSES

DEPTH_RANGE_M = 1000.0
_DEPTH_DENOM = 256 ** 3 - 1

# muted but distinct color per class, used by the generator
_PALETTE = np.array([
    (0, 0, 0), (70, 70, 70), (100, 40, 40), (55, 90, 80), (220, 20, 60),
    (153, 153, 153), (157, 234, 50), (128, 64, 128), (244, 35, 232),
    (107, 142, 35), (0, 0, 142), (102, 102, 156), (220, 220, 0),
    (70, 130, 180), (81, 0, 81), (150, 100, 100), (230, 150, 140),
    (180, 165, 180), (250, 170, 30), (110, 190, 160), (170, 120, 50),
    (45, 60, 150), (145, 170, 100),
], dtype=np.float32)


def class_index(name: str) -> int:
    try:
        return CLASS_NAMES.index(name)
    except ValueError:
        raise DataError(f"unknown class name {name!r}") from None


def decode_depth(depth_rgb: np.ndarray) -> np.ndarray:
    """(3, ...) channel-coded depth -> meters: (R + 256G + 256^2 B)/(256^3 - 1) * 1000."""
    arr = np.asarray(depth_rgb, dtype=np.float64)
    if arr.shape[0] != 3:
        raise DataError(f"depth image must be channel-first (3, ...), got {arr.shape}")
    # written so that a NaN fails it: min and max propagate NaN
    if not (arr.min() >= 0 and arr.max() <= 255):
        raise DataError("depth channels must lie in 0..255")
    combined = arr[0] + 256.0 * arr[1] + 65536.0 * arr[2]
    return combined / _DEPTH_DENOM * DEPTH_RANGE_M


def encode_depth(meters: np.ndarray) -> np.ndarray:
    """Inverse codec: meters -> (3, ...) base-256 channels (quantized)."""
    n = np.rint(np.clip(meters / DEPTH_RANGE_M, 0.0, 1.0) * _DEPTH_DENOM).astype(np.int64)
    return np.stack([n % 256, (n // 256) % 256, n // 65536]).astype(np.float32)


@dataclass
class SceneConfig:
    size: int = 64
    with_lidar: bool = False


@dataclass
class Sample:
    rgb: np.ndarray                  # (3, H, W) float32 in 0..255
    depth_rgb: np.ndarray            # (3, H, W) float32 channel-coded
    seg_gt: np.ndarray               # (23, H, W) uint8 one-hot
    speed: float                     # m/s
    route_point: np.ndarray          # (2,) global meters
    ego_pos: np.ndarray              # (2,) global meters
    ego_heading_deg: float
    waypoints_gt: np.ndarray         # (3, 2) local meters
    controls_gt: np.ndarray          # (3,) steer/throttle/brake
    tl_gt: float                     # 1.0 if a traffic light is present
    ss_gt: float                     # 1.0 if a stop sign is present
    lidar: Optional[np.ndarray] = None  # (4, N) x/y/z/intensity

    def ego(self) -> EgoState:
        return EgoState(speed=self.speed,
                        position=(float(self.ego_pos[0]), float(self.ego_pos[1])),
                        heading_deg=self.ego_heading_deg,
                        route_point=(float(self.route_point[0]), float(self.route_point[1])))


def validate_sample(s: Sample) -> None:
    """Raise DataError on any invariant violation (used at load time)."""
    c, h, w = s.rgb.shape
    if c != 3 or s.depth_rgb.shape != (3, h, w) or s.seg_gt.shape != (NUM_CLASSES, h, w):
        raise DataError(f"inconsistent tensor shapes: rgb {s.rgb.shape}, "
                        f"depth {s.depth_rgb.shape}, seg {s.seg_gt.shape}")
    for name, arr in (("rgb", s.rgb), ("depth_rgb", s.depth_rgb)):
        if not (arr.min() >= 0 and arr.max() <= 255):
            raise DataError(f"{name} values outside 0..255")
    onehot = ((s.seg_gt == 0) | (s.seg_gt == 1)).all() and np.all(s.seg_gt.sum(axis=0) == 1.0)
    if not onehot:
        raise DataError("segmentation ground truth is not one-hot")
    if not np.isfinite(s.speed) or s.speed < 0:
        raise DataError(f"speed must be finite and nonnegative, got {s.speed}")
    if not (np.isfinite(s.route_point).all() and np.isfinite(s.ego_pos).all()
            and np.isfinite(s.ego_heading_deg)):
        raise DataError("route point, ego position and heading must be finite")
    steer, throttle, brake = (float(v) for v in s.controls_gt)
    if not (-1.0 <= steer <= 1.0 and 0.0 <= throttle <= 0.75 and 0.0 <= brake <= 1.0):
        raise DataError(f"controls outside declared ranges: {s.controls_gt}")
    if s.waypoints_gt.shape != (3, 2) or not np.isfinite(s.waypoints_gt).all():
        raise DataError("waypoints must be a finite (3, 2) array")
    if float(s.tl_gt) not in (0.0, 1.0) or float(s.ss_gt) not in (0.0, 1.0):
        raise DataError("traffic-light / stop-sign flags must be 0 or 1")
    if s.lidar is not None and (s.lidar.ndim != 2 or s.lidar.shape[0] != 4):
        raise DataError(f"lidar must be (4, N), got {s.lidar.shape}")
    if s.lidar is not None and not np.isfinite(s.lidar).all():
        raise DataError("lidar points must be finite")


def _ground_depth(v: np.ndarray, size: int) -> np.ndarray:
    # camera at 1.5 m looking level: rows below the horizon hit the ground
    # at focal * height / (v - cy), clamped near the horizon
    cam = CameraConfig.for_image(size, size)
    return cam.focal * 1.5 / np.maximum(v - cam.cy, 0.75)


def synth_scene(seed: int, config: SceneConfig = SceneConfig()) -> Sample:
    rng = np.random.default_rng(seed)
    n = config.size
    horizon = n // 2

    cls = np.zeros((n, n), dtype=np.int64)
    vv = np.arange(n, dtype=np.float64)
    depth = np.full((n, n), 900.0)
    depth[horizon:] = _ground_depth(vv[horizon:], n)[:, None]

    cls[:horizon] = class_index("Sky")
    cls[horizon:] = class_index("Terrain")
    center = n // 2 + int(rng.integers(-3, 4))
    for v in range(horizon, n):
        t = (v - horizon) / max(1, n - horizon)
        half = int(2 + t * 0.3 * n)
        lo, hi = max(0, center - half), min(n, center + half)
        cls[v, lo:hi] = class_index("Road")
        walk = max(1, n // 32)
        cls[v, max(0, lo - walk):lo] = class_index("Sidewalk")
        cls[v, hi:min(n, hi + walk)] = class_index("Sidewalk")
        if v % 2 == 0 and lo <= center < hi:
            cls[v, center] = class_index("Road lane")

    palette = [class_index(nm) for nm in
               ("Building", "Fence", "Pedestrian", "Pole", "Vegetation",
                "Other vehicles", "Wall", "Traffic sign", "Traffic light",
                "Static Object")]
    chosen: List[int] = []
    for _ in range(int(rng.integers(1, 5))):
        c = int(rng.choice(palette))
        chosen.append(c)
        ow = int(rng.integers(3, max(4, n // 8)))
        oh = int(rng.integers(3, max(4, n // 6)))
        base_v = int(rng.integers(horizon + 2, n - 1))
        u0 = int(rng.integers(0, n - ow))
        cls[max(0, base_v - oh):base_v + 1, u0:u0 + ow] = c
        depth[max(0, base_v - oh):base_v + 1, u0:u0 + ow] = _ground_depth(
            np.array([float(base_v)]), n)[0]

    depth = np.clip(depth, 0.5, 999.0)
    depth_rgb = encode_depth(depth)

    rgb = _PALETTE[cls].transpose(2, 0, 1) + rng.normal(0.0, 4.0, size=(3, n, n))
    rgb = np.clip(rgb, 0.0, 255.0).astype(np.float32)

    seg = np.zeros((NUM_CLASSES, n, n), dtype=np.uint8)
    seg[cls, np.arange(n)[:, None], np.arange(n)[None, :]] = 1

    # expert arc in the local frame: forward is -y (matching the heading
    # transform), lateral offset grows quadratically with curvature
    curvature = float(rng.uniform(-0.015, 0.015))
    fwd = 2.5 * np.arange(1, 4)
    waypoints = np.stack([curvature * fwd ** 2, -fwd], axis=1)
    route_fwd = float(rng.uniform(8.0, 20.0))
    route_local = np.array([curvature * route_fwd ** 2, -route_fwd])

    ego_pos = rng.uniform(-100.0, 100.0, size=2)
    heading = float(rng.uniform(-180.0, 180.0))
    speed = float(rng.uniform(0.0, 12.0))
    ego = EgoState(speed=speed, position=(ego_pos[0], ego_pos[1]),
                   heading_deg=heading, route_point=(0.0, 0.0))
    route_global = local_to_global(route_local, ego)

    tl = 1.0 if class_index("Traffic light") in chosen else 0.0
    ss = 1.0 if class_index("Traffic sign") in chosen else 0.0
    if tl or ss:
        steer, throttle, brake = float(np.clip(50.0 * curvature, -1, 1)), 0.0, \
            float(rng.uniform(0.6, 1.0))
    else:
        steer = float(np.clip(50.0 * curvature, -1.0, 1.0))
        throttle = float(np.clip(0.25 + 0.03 * (8.0 - speed), 0.0, 0.75))
        brake = 0.0

    lidar = None
    if config.with_lidar:
        m = int(rng.integers(50, 201))
        lidar = np.stack([rng.uniform(-8, 8, m), rng.uniform(0, 15, m),
                          rng.uniform(-0.5, 2.0, m), rng.uniform(0, 1, m)]
                         ).astype(np.float32)

    # float32 throughout, the uint8 labels aside, so a save/load round-trip
    # is bit-identical
    return Sample(rgb=rgb, depth_rgb=depth_rgb, seg_gt=seg,
                  speed=float(np.float32(speed)),
                  route_point=np.asarray(route_global, dtype=np.float32),
                  ego_pos=np.asarray(ego_pos, dtype=np.float32),
                  ego_heading_deg=float(np.float32(heading)),
                  waypoints_gt=waypoints.astype(np.float32),
                  controls_gt=np.array([steer, throttle, brake], dtype=np.float32),
                  tl_gt=tl, ss_gt=ss, lidar=lidar)


# ---------------------------------------------------------------------------
# dataset directory IO

MANIFEST_NAME = "manifest.txt"
_MANIFEST_TAG = "skge-dataset"
_CLASSTABLE_VERSION = 1


def _sample_to_arrays(s: Sample) -> dict:
    arrays = {
        "rgb": s.rgb, "depth_rgb": s.depth_rgb, "seg_gt": s.seg_gt,
        "speed": np.array([s.speed], dtype=np.float32),
        "route_point": s.route_point.astype(np.float32),
        "ego_pos": s.ego_pos.astype(np.float32),
        "ego_heading": np.array([s.ego_heading_deg], dtype=np.float32),
        "waypoints": s.waypoints_gt.astype(np.float32),
        "controls": s.controls_gt.astype(np.float32),
        "flags": np.array([s.tl_gt, s.ss_gt], dtype=np.float32),
    }
    if s.lidar is not None:
        arrays["lidar"] = s.lidar
    return arrays


# the extents each sample record must have (None is any); no axis may be empty
_RECORD_SHAPES = {
    "rgb": (3, None, None), "depth_rgb": (3, None, None), "seg_gt": (NUM_CLASSES, None, None),
    "speed": (1,), "route_point": (2,), "ego_pos": (2,), "ego_heading": (1,),
    "waypoints": (3, 2), "controls": (3,), "flags": (2,),
}


def _arrays_to_sample(arrays: dict, path) -> Sample:
    for name, want in _RECORD_SHAPES.items():
        if name not in arrays:
            raise CorruptDataError(f"{path}: missing record {name}")
        got = arrays[name].shape
        if len(got) != len(want) or 0 in got or any(w not in (None, g)
                                                    for g, w in zip(got, want)):
            raise CorruptDataError(f"{path}: record {name} has shape {got}, expected {want}")
    # arrays keep their stored float32 width so load(save(x)) == x byte for
    # byte on freshly synthesized samples; load_dataset narrows the labels
    # to uint8 once they pass the one-hot check
    return Sample(
        rgb=arrays["rgb"], depth_rgb=arrays["depth_rgb"], seg_gt=arrays["seg_gt"],
        speed=float(arrays["speed"][0]),
        route_point=arrays["route_point"],
        ego_pos=arrays["ego_pos"],
        ego_heading_deg=float(arrays["ego_heading"][0]),
        waypoints_gt=arrays["waypoints"],
        controls_gt=arrays["controls"],
        tl_gt=float(arrays["flags"][0]), ss_gt=float(arrays["flags"][1]),
        lidar=arrays.get("lidar"))


def save_dataset(directory, samples: List[Sample], seeds: List[int]) -> None:
    """Write the samples, then their manifest. The files an existing
    manifest lists are removed first, so a save cut short leaves a manifest
    naming missing files (CorruptDataError on load), never a mix of two."""
    os.makedirs(directory, exist_ok=True)
    try:
        old = [fname for _, fname, _ in read_manifest(directory)]
    except CorruptDataError:  # no manifest, or none that could load
        old = []
    for fname in old:
        path = os.path.join(directory, fname)
        if os.path.basename(fname) == fname and os.path.isfile(path):
            os.remove(path)
    lines = [f"{_MANIFEST_TAG} 1 {len(samples)} classtable={_CLASSTABLE_VERSION}"]
    for i, (sample, seed) in enumerate(zip(samples, seeds)):
        fname = f"{i:06d}.rec"
        write_records(os.path.join(directory, fname), _sample_to_arrays(sample))
        lines.append(f"{i} {fname} {seed}")
    with replacing(os.path.join(directory, MANIFEST_NAME), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _manifest_int(text: str, path, line: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CorruptDataError(f"{path}: {text!r} is not an integer in manifest "
                               f"line {line!r}") from None


def read_manifest(directory) -> List[tuple]:
    """Returns [(index, filename, seed)] in manifest order."""
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        raise CorruptDataError(f"{path}: manifest missing")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise CorruptDataError(f"{path}: not UTF-8 text") from None
    if not lines:
        raise CorruptDataError(f"{path}: empty manifest")
    head = lines[0].split()
    if len(head) != 4 or head[0] != _MANIFEST_TAG or head[1] != "1" \
            or head[3] != f"classtable={_CLASSTABLE_VERSION}":
        raise CorruptDataError(f"{path}: bad manifest header {lines[0]!r}")
    count = _manifest_int(head[2], path, lines[0])
    entries = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise CorruptDataError(f"{path}: bad manifest line {ln!r}")
        entries.append((_manifest_int(parts[0], path, ln), parts[1],
                        _manifest_int(parts[2], path, ln)))
    if len(entries) != count:
        raise CorruptDataError(f"{path}: header promises {count} records, "
                               f"manifest lists {len(entries)}")
    return entries


def load_dataset(directory) -> List[Sample]:
    """Load every sample in manifest order, validating invariants; a dataset
    needs at least one sample, and all of its images one size."""
    entries = read_manifest(directory)
    if not entries:
        raise DataError(f"{directory}: dataset has no samples")
    samples = []
    for _, fname, _ in entries:
        path = os.path.join(directory, fname)
        if not os.path.exists(path):
            raise CorruptDataError(f"{path}: listed in manifest but missing")
        sample = _arrays_to_sample(read_records(path), path)
        try:
            validate_sample(sample)
        except DataError as e:
            raise DataError(f"{path}: {e}") from None
        if samples and sample.rgb.shape != samples[0].rgb.shape:
            raise DataError(f"{path}: image shape {sample.rgb.shape} differs from "
                            f"the first sample's {samples[0].rgb.shape}")
        sample.seg_gt = sample.seg_gt.astype(np.uint8)
        samples.append(sample)
    return samples
