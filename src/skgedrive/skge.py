"""Skip-stage fusion between encoder stages.

A route names source stages whose feature maps are resampled onto the
target stage's grid (bilinear, corner-aligned), projected to the target
channel count, and added onto the target stage's output. Routes are
written in a tiny textual grammar: "1->4", "1,2,3->4", "4->1", or a bare
target like "3" meaning no fusion (feature tap only); the literal "none"
is accepted as an alias for the bare deepest stage.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, ContractError

_ROUTE_RE = re.compile(r"^(?:(\d(?:,\d)*)->)?(\d)$")


@dataclass(frozen=True)
class SkipRoute:
    sources: tuple
    target: int

    def __post_init__(self):
        if not (1 <= self.target <= 4):
            raise ConfigError(f"route target must be in 1..4, got {self.target}")
        for s in self.sources:
            if not (1 <= s <= 4):
                raise ConfigError(f"route source must be in 1..4, got {s}")
        if self.target in self.sources:
            raise ConfigError(f"route target {self.target} cannot be one of its sources")
        if len(set(self.sources)) != len(self.sources):
            raise ConfigError(f"duplicate route sources in {self.sources}")

    def __str__(self) -> str:
        if not self.sources:
            return str(self.target)
        return ",".join(str(s) for s in self.sources) + "->" + str(self.target)


def parse_route(text: str) -> SkipRoute:
    """Parse `[s(,s)*"->"]t` with s,t in 1..4; "none" taps stage 4 unfused."""
    text = text.strip()
    if text == "none":
        return SkipRoute((), 4)
    m = _ROUTE_RE.match(text)
    if not m:
        raise ConfigError(f"bad skip route {text!r}; expected forms like "
                          f"'1->4', '1,2,3->4', '3', or 'none'")
    sources = tuple(int(s) for s in m.group(1).split(",")) if m.group(1) else ()
    return SkipRoute(sources, int(m.group(2)))


@functools.lru_cache(maxsize=256)
def _interp_matrix(n_out: int, n_in: int, dtype) -> np.ndarray:
    """(n_out, n_in) row-stochastic matrix of corner-aligned bilinear weights.

    Built once per (n_out, n_in, dtype) and shared by every caller, so it is
    read-only.
    """
    m = np.zeros((n_out, n_in), dtype=dtype)
    if n_in == 1:
        m[:, 0] = 1.0
    else:
        if n_out == 1:
            pos = np.array([(n_in - 1) / 2.0])
        else:
            pos = np.arange(n_out) * (n_in - 1) / (n_out - 1)
        lo = np.floor(pos).astype(int)
        lo = np.minimum(lo, n_in - 2)
        frac = pos - lo
        m[np.arange(n_out), lo] = 1.0 - frac
        m[np.arange(n_out), lo + 1] = frac
    m.flags.writeable = False
    return m


def bilinear_resize(src: Tensor, out_h: int, out_w: int) -> Tensor:
    """Resample (B, H, W, C) onto an out_h x out_w grid.

    Corner-aligned: when the output side is > 1 its corner samples
    coincide with the input corners; a side of 1 samples the input
    center. Each output value is the weighted average of its four
    nearest input neighbors, so the map is linear and bounded by the
    input min/max. Matching sizes pass the input through untouched.
    """
    if src.ndim != 4:
        raise ContractError(f"bilinear_resize expects (B,H,W,C), got {src.shape}")
    h, w = src.shape[1:3]
    if out_h < 1 or out_w < 1:
        raise ContractError(f"output extent must be positive, got {out_h}x{out_w}")
    if h < 1 or w < 1:
        raise ContractError(f"input extents must be positive, got {h}x{w}")
    if out_h == h and out_w == w:
        return src
    rh_t = Tensor(_interp_matrix(out_h, h, src.dtype).T)
    rw_t = Tensor(_interp_matrix(out_w, w, src.dtype).T)
    x = ad.linear(ad.transpose(src, (0, 2, 3, 1)), rh_t)  # (b, w, c, out_h)
    x = ad.linear(ad.transpose(x, (0, 3, 2, 1)), rw_t)  # (b, out_h, c, out_w)
    return ad.transpose(x, (0, 1, 3, 2))


class SkipFusion(nn.Module):
    """Learned adapters for one route, applied to a stage-feature dict.

    fuse returns target + sum over sources of adapt(resize(source)), where
    each source has its own bias-free linear map onto the target's
    channels; with no sources the target stage feature is returned
    unmodified.
    """

    def __init__(self, route: SkipRoute, stage_channels, rng: np.random.Generator):
        self.route = route
        ct = stage_channels(route.target)
        self.adapters = [nn.Linear(stage_channels(s), ct, rng, bias=False)
                         for s in route.sources]

    def fuse(self, stage_feats) -> Tensor:
        route = self.route
        if route.target not in stage_feats:
            raise ConfigError(f"route target stage {route.target} missing from features")
        out = stage_feats[route.target]
        th, tw = out.shape[1], out.shape[2]
        for s, adapter in zip(route.sources, self.adapters):
            if s not in stage_feats:
                raise ConfigError(f"route source stage {s} missing from features")
            out = ad.add(out, adapter(bilinear_resize(stage_feats[s], th, tw)))
        return out
