"""Recurrent waypoint rollout and vehicle-control heads.

The pooled BEV bottleneck feature initializes a GRU hidden state. Three
iterations each consume the current waypoint, the local route point, and
speed; the new hidden state is biased (element-wise add) by encodings of
the traffic-light and stop-sign probabilities before a linear layer
predicts a waypoint delta, while the recurrence itself carries the
UN-biased state forward; the GRU is the standard cell (Cho et al., arXiv
1406.1078). Controls come from the final biased state via sigmoids
mapped onto steering [-1,1], throttle [0,0.75], brake [0,1].

Coordinate convention: a compass heading of theta_v degrees converts a
global offset into the ego-local frame through the transposed rotation
by (90 + theta_v) degrees, so heading -90 makes local equal global.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor


@dataclass
class EgoState:
    speed: float               # m/s, >= 0
    position: tuple            # (x, y) global meters
    heading_deg: float         # compass heading theta_v
    route_point: tuple         # next route point, global meters


@dataclass
class ControlOutput:
    steering: Tensor           # (B, 1) in [-1, 1]
    throttle: Tensor           # (B, 1) in [0, 0.75]
    brake: Tensor              # (B, 1) in [0, 1]
    tl_prob: Tensor            # (B, 1) in (0, 1)
    ss_prob: Tensor            # (B, 1) in (0, 1)
    waypoints: Tensor          # (B, 3, 2) local meters
    latent: Tensor             # (B, hidden) final biased state


def _rotation(heading_deg: float) -> np.ndarray:
    a = math.radians(90.0 + heading_deg)
    return np.array([[math.cos(a), -math.sin(a)],
                     [math.sin(a), math.cos(a)]], dtype=np.float64)


def global_to_local(p_global, ego: EgoState) -> np.ndarray:
    """Rotate the ego->point offset into the local frame (transposed rotation)."""
    p = np.asarray(p_global, dtype=np.float64)
    offset = p - np.asarray(ego.position, dtype=np.float64)
    return _rotation(ego.heading_deg).T @ offset


def local_to_global(p_local, ego: EgoState) -> np.ndarray:
    """Inverse of global_to_local (the rotation is orthonormal)."""
    p = np.asarray(p_local, dtype=np.float64)
    return _rotation(ego.heading_deg) @ p + np.asarray(ego.position, dtype=np.float64)


class Controller(nn.Module):
    """Bottleneck feature -> 3 waypoints + latent + probabilities + controls."""

    N_STEPS = 3
    INPUT_SIZE = 5  # waypoint x/y, route x/y, speed

    def __init__(self, feature_dim: int, hidden: int = 64,
                 rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(0)
        self.h0_proj = nn.Linear(feature_dim, hidden, rng)
        self.gru = nn.GRUCell(self.INPUT_SIZE, hidden, rng)
        self.delta = nn.Linear(hidden, 2, rng)
        self.tl_head = nn.Linear(feature_dim, 1, rng)
        self.ss_head = nn.Linear(feature_dim, 1, rng)
        self.enc_tl = nn.Linear(1, hidden, rng)
        self.enc_ss = nn.Linear(1, hidden, rng)
        self.ctrl = nn.Linear(hidden, 3, rng)

    def forward(self, pooled: Tensor, route_local: Tensor, speed: Tensor) -> ControlOutput:
        b = pooled.shape[0]
        tl_prob = ad.sigmoid(self.tl_head(pooled))
        ss_prob = ad.sigmoid(self.ss_head(pooled))
        bias = ad.add(self.enc_tl(tl_prob), self.enc_ss(ss_prob))

        h = self.h0_proj(pooled)
        wp = Tensor(np.zeros((b, 2), dtype=pooled.dtype))
        steps = []
        biased = None
        for _ in range(self.N_STEPS):
            inp = ad.concat([wp, route_local, speed], axis=1)
            h = self.gru(inp, h)            # recurrence stays bias-free
            biased = ad.add(h, bias)
            wp = ad.add(wp, self.delta(biased))
            steps.append(wp)
        waypoints = ad.reshape(ad.concat(steps, axis=1), (b, self.N_STEPS, 2))

        s = ad.sigmoid(self.ctrl(biased))
        steering = ad.sub(ad.mul(ad.slice_(s, (slice(None), slice(0, 1))), 2.0), 1.0)
        throttle = ad.mul(ad.slice_(s, (slice(None), slice(1, 2))), 0.75)
        brake = ad.slice_(s, (slice(None), slice(2, 3)))
        return ControlOutput(steering=steering, throttle=throttle, brake=brake,
                             tl_prob=tl_prob, ss_prob=ss_prob,
                             waypoints=waypoints, latent=biased)
