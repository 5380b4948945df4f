"""Perception heads: segmentation decoder and bird's-eye-view builders.

The decoder walks the encoder pyramid deep-to-shallow, upsampling 2x per
level and adding a projected skip from the matching stage, then refines
up to full input resolution and emits 23-class logits. Each refinement is
a linear to 4x the channels and a depth-to-space (pixel shuffle). No
nonlinearity sits between the last one and the 23-class head, so the two
run as one fused linear whose 4 x 23 outputs per pixel are shuffled into
the full-resolution logits; the full-resolution 24-channel map is never
formed.
Parameters and checkpoints keep the separate upsampler and head.

The BEV builders are plain numpy (no gradients flow through them):
build_sdc back-projects per-pixel classes with metric depth onto a
top-down occupancy grid, and lidar_bev histograms raw points into
above/below-ground bins.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .backbone import BackboneConfig, StageFeatures
from .errors import ConfigError, ContractError
from .skge import bilinear_resize

NUM_CLASSES = 23
_DECODER_DIM = 24  # channels of every decoder level


@dataclass
class CameraConfig:
    """Pinhole intrinsics; defaults derive from the image size."""
    focal: float
    cx: float
    cy: float

    @staticmethod
    def for_image(h: int, w: int) -> "CameraConfig":
        return CameraConfig(focal=h / 2.0, cx=w / 2.0, cy=h / 2.0)


@dataclass
class BevConfig:
    size: int = 64          # grid is size x size cells
    resolution_m: float = 0.25  # meters per cell


def seg_argmax(logits: np.ndarray) -> np.ndarray:
    """(B, 23, H, W) logits -> (B, H, W) class ids; ties go to the lowest id."""
    return np.argmax(logits, axis=1)


class SegDecoder(nn.Module):
    """Stage pyramid -> per-pixel 23-class logits at input resolution."""

    def __init__(self, config: BackboneConfig, rng: np.random.Generator):
        self.laterals = [nn.Linear(config.stage_channels(s), _DECODER_DIM, rng)
                         for s in range(1, 5)]
        # stage-1 grid is input/patch; two depth-to-space levels of 2x each
        # close the remaining gap for the desk patch size of 4
        patch = config.patch_size
        if patch not in (1, 2, 4):
            raise ConfigError(f"decoder supports patch sizes 1/2/4, got {patch}")
        n_up = {1: 0, 2: 1, 4: 2}[patch]
        self.upsamplers = [nn.Linear(_DECODER_DIM, 4 * _DECODER_DIM, rng)
                           for _ in range(n_up)]
        self.head = nn.Linear(_DECODER_DIM, NUM_CLASSES, rng)

    @staticmethod
    def _depth_to_space(x: Tensor) -> Tensor:
        b, h, w, c4 = x.shape
        c = c4 // 4
        x = ad.reshape(x, (b, h, w, 2, 2, c))
        x = ad.transpose(x, (0, 1, 3, 2, 4, 5))
        return ad.reshape(x, (b, 2 * h, 2 * w, c))

    def _fused_head(self) -> tuple:
        """Weight and bias of head(depth_to_space(up(x))) as one linear.

        A depth-to-space commutes with the per-pixel head, so the last
        upsampler and the head are one linear from 24 to 4 x 23 channels,
        followed by a depth-to-space: its weight is up.weight viewed as
        (96, 24) times head.weight, viewed as (24, 92), and its bias is
        up.bias viewed as (4, 24) times head.weight plus head.bias.
        """
        up, head = self.upsamplers[-1], self.head
        c, k = _DECODER_DIM, NUM_CLASSES
        w = ad.reshape(ad.linear(ad.reshape(up.weight, (4 * c, c)), head.weight), (c, 4 * k))
        bias = ad.reshape(ad.linear(ad.reshape(up.bias, (4, c)), head.weight, head.bias),
                          (4 * k,))
        return w, bias

    def forward(self, feats: StageFeatures) -> Tensor:
        x = self.laterals[3](feats[4])
        for s in (3, 2, 1):
            skip = self.laterals[s - 1](feats[s])
            x = ad.add(bilinear_resize(x, skip.shape[1], skip.shape[2]), skip)
        if not self.upsamplers:
            logits = self.head(x)
        else:
            for up in self.upsamplers[:-1]:
                x = self._depth_to_space(up(ad.gelu(x)))
            logits = self._depth_to_space(ad.linear(ad.gelu(x), *self._fused_head()))
        # (B, H, W, 23) -> (B, 23, H, W) as a view: a copy that moved the
        # classes outward within the shuffle would run 2-element inner loops
        # and cost more at B=1 than the fold saves
        return ad.transpose(logits, (0, 3, 1, 2))


def _grid_cells(lateral: np.ndarray, forward: np.ndarray, bev: BevConfig) -> tuple:
    """Metric (lateral, forward) points -> grid (rows, cols, inside); the ego
    sits at the bottom-center, so row size-1 is distance 0."""
    n, res = bev.size, bev.resolution_m
    rows = n - 1 - np.rint(forward / res).astype(np.int64)
    cols = np.rint(n / 2.0 + lateral / res).astype(np.int64)
    return rows, cols, (rows >= 0) & (rows < n) & (cols >= 0) & (cols < n)


def build_sdc(cls_map: np.ndarray, depth_m: np.ndarray, cam: CameraConfig,
              bev: BevConfig) -> np.ndarray:
    """(B, H, W) class ids and depths in meters -> (B, 23, Hb, Wb) one-hot
    class occupancy per cell of a metric top-down grid.

    Each pixel's ray is back-projected with its depth; the hit cell keeps
    the highest class index seen (order-independent, so permuting pixels
    cannot change the result). Points outside the grid are dropped.
    """
    if cam.focal <= 0:
        raise ConfigError(f"focal length must be positive, got {cam.focal}")
    if not (depth_m > 0).all():  # a NaN fails this too
        raise ContractError("depth must be positive meters")
    b, h, w = cls_map.shape
    lateral = (np.arange(w) - cam.cx) * depth_m / cam.focal
    rows, cols, inside = _grid_cells(lateral, depth_m, bev)
    winner = np.full((b, bev.size, bev.size), -1, dtype=np.int64)
    image = np.broadcast_to(np.arange(b)[:, None, None], inside.shape)
    np.maximum.at(winner, (image[inside], rows[inside], cols[inside]), cls_map[inside])
    occ = np.zeros((b, NUM_CLASSES, bev.size, bev.size), dtype=np.float32)
    bi, ri, ci = np.nonzero(winner >= 0)
    occ[bi, winner[bi, ri, ci], ri, ci] = 1.0
    return occ


def lidar_bev(points: np.ndarray, bev: BevConfig) -> np.ndarray:
    """(4, N) x/y/z/intensity points -> (2, Hb, Wb) above/below-ground counts.

    x is lateral (right positive), y is forward; the ground plane is z=0,
    bin 0 counts points strictly above it. Out-of-grid points are dropped.
    """
    if points.ndim != 2 or points.shape[0] != 4:
        raise ContractError(f"expected (4, N) points, got {points.shape}")
    out = np.zeros((2, bev.size, bev.size), dtype=np.float32)
    rows, cols, inside = _grid_cells(points[0], points[1], bev)
    above = (points[2] > 0) & inside
    below = (points[2] <= 0) & inside
    np.add.at(out[0], (rows[above], cols[above]), 1.0)
    np.add.at(out[1], (rows[below], cols[below]), 1.0)
    return out
