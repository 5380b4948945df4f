"""Hierarchical shifted-window attention encoder.

Images are cut into patches, embedded, and pushed through four stages of
window-attention blocks; between stages a 2x2 patch merge halves the
spatial extent and doubles the channel count. Stage outputs are indexed
1..4 and returned together so downstream consumers (skip fusion, the
segmentation decoder, the control bottleneck) can tap any of them.

Feature layout is channels-last (B, H, W, C) throughout; the encoder
input is channels-first (B, Cin, H, W) like the stored images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, ContractError

# stage index -> feature map of shape (B, H_s, W_s, C_s)
StageFeatures = Dict[int, Tensor]

# MLP hidden width over block width; Swin uses 4 in every variant
_MLP_RATIO = 4.0


@dataclass
class BackboneConfig:
    input_size: int = 64
    patch_size: int = 4
    window_size: int = 4
    embed_dim: int = 24
    depths: tuple = (1, 1, 2, 1)
    heads: tuple = (2, 4, 8, 16)

    def __post_init__(self):
        self.depths = tuple(int(d) for d in self.depths)
        self.heads = tuple(int(h) for h in self.heads)
        if self.input_size <= 0 or self.patch_size <= 0 or self.window_size <= 0:
            raise ConfigError("input_size, patch_size and window_size must be positive")
        if self.embed_dim <= 0:
            raise ConfigError("embed_dim must be positive")
        if len(self.depths) != 4 or len(self.heads) != 4:
            raise ConfigError(f"need 4 stage depths and 4 head counts, "
                              f"got {self.depths} and {self.heads}")
        if any(d <= 0 for d in self.depths) or any(h <= 0 for h in self.heads):
            raise ConfigError("stage depths and head counts must be positive")
        if self.input_size % self.patch_size:
            raise ConfigError(f"input size {self.input_size} not divisible by "
                              f"patch size {self.patch_size}")
        for s in range(4):
            if self.stage_channels(s + 1) % self.heads[s]:
                raise ConfigError(
                    f"stage {s + 1} channels {self.stage_channels(s + 1)} not divisible "
                    f"by head count {self.heads[s]}")

    def stage_channels(self, stage: int) -> int:
        return self.embed_dim * (2 ** (stage - 1))


def window_index(h: int, w: int, win: int, shift: int = 0) -> tuple:
    """Token permutation from an h x w grid into shifted win x win windows.

    The grid is padded bottom/right up to multiples of win, rolled by
    -shift on both axes and cut into windows ordered row-major, so pad,
    roll and partition are one index map. Returns (idx, inv, n_windows):
    window slot k reads row-major grid token idx[k] (-1 for a padding
    slot), and inv[idx[k]] == k. Without a shift, token (i, j) lands in
    window (i // win) * (padded w // win) + j // win at slot
    (i % win) * win + j % win.
    """
    hp = -(-h // win) * win
    wp = -(-w // win) * win
    ii, jj = np.meshgrid(np.arange(hp), np.arange(wp), indexing="ij")
    tokens = np.where((ii < h) & (jj < w), ii * w + jj, -1)
    tokens = np.roll(tokens, (-shift, -shift), axis=(0, 1))
    idx = tokens.reshape(hp // win, win, wp // win, win).transpose(0, 2, 1, 3).reshape(-1)
    inv = np.empty(h * w, dtype=np.intp)
    kept = np.flatnonzero(idx >= 0)
    inv[idx[kept]] = kept
    return idx, inv, (hp // win) * (wp // win)


def _relative_index(w: int) -> np.ndarray:
    """(w², w²) lookup into the (2w-1)² relative-offset bias table."""
    ii, jj = np.meshgrid(np.arange(w), np.arange(w), indexing="ij")
    coords = np.stack([ii.reshape(-1), jj.reshape(-1)])  # (2, w²)
    rel = coords[:, :, None] - coords[:, None, :] + (w - 1)
    return rel[0] * (2 * w - 1) + rel[1]


class WindowAttention(nn.Module):
    """Multi-head scaled dot-product attention within each window.

    A learned bias indexed by the tokens' relative offset is added to the
    logits before the softmax. Pairs flagged in the boolean mask are
    excluded from the distribution and receive weight exactly 0.
    """

    def __init__(self, dim: int, heads: int, window: int, rng: np.random.Generator):
        if dim % heads:
            raise ConfigError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.window = window
        self.scale = (dim // heads) ** -0.5
        self.qkv = nn.Linear(dim, 3 * dim, rng)
        self.proj = nn.Linear(dim, dim, rng)
        self.rel_bias = Tensor(nn.trunc_normal(rng, ((2 * window - 1) ** 2, heads)),
                               requires_grad=True)
        self._rel_index = _relative_index(window)

    def forward(self, x: Tensor, blocked: Optional[np.ndarray] = None) -> Tensor:
        """x is (nw, T, C) windows; blocked, if given, a (nW, T, T) mask
        repeated over the nw / nW images."""
        if x.shape[1] != self.window * self.window:
            raise ContractError(f"expected {self.window ** 2} tokens per window, "
                                f"got {x.shape[1]}")
        out, attn = ad.window_attention(self.qkv(x), self.rel_bias, self._rel_index,
                                        blocked, self.heads, self.scale)
        # the weights, kept for inspection; no op writes its output in place
        self.last_attn = attn
        return self.proj(out)


class SwinBlock(nn.Module):
    """Pre-norm attention block over a (possibly cyclically shifted) grid.

    Tokens are grouped by the window they occupy BEFORE the shift; after
    the cyclic roll, any pair drawn from different original windows (and
    any pair touching a padding token) is masked out, so attention never
    crosses an original window boundary. Padding is added bottom/right
    when the grid does not divide by the window size and cropped off
    after the attention.
    """

    def __init__(self, dim: int, heads: int, window: int, shift: int,
                 mlp_ratio: float, rng: np.random.Generator):
        if shift not in (0, window // 2):
            raise ConfigError(f"shift must be 0 or {window // 2}, got {shift}")
        self.window = window
        self.shift = shift
        self.norm1 = nn.LayerNorm(dim)
        self.attn = WindowAttention(dim, heads, window, rng)
        self.norm2 = nn.LayerNorm(dim)
        self.mlp = nn.Mlp(dim, mlp_ratio, rng)
        self._index_cache: dict = {}

    def _windows(self, h: int, ww: int) -> tuple:
        """(idx, inv, n_windows, blocked) for an h x ww grid, built once.

        blocked is the per-image (nW, T, T) mask, or None when no pair
        needs blocking: a slot pair is blocked when its tokens come from
        different unshifted windows or either slot is padding, but a slot
        always keeps itself, so no row is fully blocked.
        """
        key = (h, ww)
        if key not in self._index_cache:
            w = self.window
            idx, inv, n_windows = window_index(h, ww, w, self.shift)
            i, j = np.divmod(idx, ww)
            ids = np.where(idx >= 0, (i // w) * -(-ww // w) + j // w, -1)
            ids = ids.reshape(n_windows, w * w)
            pad = ids < 0
            blocked = (ids[:, :, None] != ids[:, None, :]) | pad[:, :, None] | pad[:, None, :]
            blocked &= ~np.eye(w * w, dtype=bool)
            self._index_cache[key] = (idx, inv, n_windows,
                                      blocked if blocked.any() else None)
        return self._index_cache[key]

    def forward(self, x: Tensor) -> Tensor:
        b, h, ww, c = x.shape
        idx, inv, n_windows, blocked = self._windows(h, ww)
        t = self.window * self.window
        windows = ad.permute_rows(self.norm1(x), idx, inv, (b * n_windows, t, c))
        windows = self.attn(windows, blocked)
        x = ad.add(x, ad.permute_rows(windows, inv, idx, (b, h, ww, c)))
        return ad.add(x, self.mlp(self.norm2(x)))


class PatchMerging(nn.Module):
    """2x2 neighbor concat (4C) -> layer norm -> linear down to 2C."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.norm = nn.LayerNorm(4 * dim)
        self.reduction = nn.Linear(4 * dim, 2 * dim, rng, bias=False)

    def forward(self, x: Tensor) -> Tensor:
        b, h, w, c = x.shape
        if h % 2 or w % 2:
            raise ConfigError(f"patch merge needs even extents, got {h}x{w}")
        # channel block 2*dj + di holds x[:, di::2, dj::2]: split each grid
        # axis into (cell, offset), then move the offsets next to channels
        x = ad.reshape(x, (b, h // 2, 2, w // 2, 2, c))
        x = ad.transpose(x, (0, 1, 3, 4, 2, 5))
        x = ad.reshape(x, (b, h // 2, w // 2, 4 * c))
        return self.reduction(self.norm(x))


class PatchEmbed(nn.Module):
    """Non-overlapping p x p patches, linearly projected then normed."""

    def __init__(self, config: BackboneConfig, in_channels: int, rng: np.random.Generator):
        p = config.patch_size
        self.patch = p
        self.in_channels = in_channels
        self.proj = nn.Linear(p * p * in_channels, config.embed_dim, rng)
        # a small random bias keeps the embedding of an all-zero patch away
        # from the exactly-constant vector where layer norm is degenerate
        # (sparse occupancy grids produce many such patches)
        self.proj.bias.data = nn.trunc_normal(
            rng, self.proj.bias.data.shape, std=0.02)
        self.norm = nn.LayerNorm(config.embed_dim)

    def forward(self, img: Tensor) -> Tensor:
        b, cin, h, w = img.shape
        p = self.patch
        if cin != self.in_channels:
            raise ConfigError(f"expected {self.in_channels} input channels, got {cin}")
        if h % p or w % p:
            raise ConfigError(f"image {h}x{w} not divisible by patch size {p}")
        # (B, Cin, H/p, p, W/p, p) -> (B, H/p, W/p, p, p, Cin), as PatchMerging cuts
        x = ad.reshape(img, (b, cin, h // p, p, w // p, p))
        x = ad.transpose(x, (0, 2, 4, 3, 5, 1))
        x = ad.reshape(x, (b, h // p, w // p, p * p * cin))
        return self.norm(self.proj(x))


class SwinEncoder(nn.Module):
    """Patch embed plus four block stages with merges in between.

    forward_stages returns every stage output keyed 1..4: stage s has
    spatial side input/(patch * 2^(s-1)) and embed_dim * 2^(s-1) channels.
    Within a stage, blocks alternate unshifted / shifted by window//2.
    """

    def __init__(self, config: BackboneConfig, in_channels: int,
                 rng: np.random.Generator):
        self.patch_embed = PatchEmbed(config, in_channels, rng)
        merges = []
        for s in range(1, 5):
            stage = nn.Module()
            for i in range(config.depths[s - 1]):
                setattr(stage, f"block{i}", SwinBlock(
                    config.stage_channels(s), config.heads[s - 1], config.window_size,
                    0 if i % 2 == 0 else config.window_size // 2, _MLP_RATIO, rng))
            setattr(self, f"stage{s}", stage)
            if s < 4:
                merges.append(PatchMerging(config.stage_channels(s), rng))
        # built in forward order (rng draws), named after the stages (checkpoint order)
        for s, merge in enumerate(merges, 1):
            setattr(self, f"merge{s}", merge)

    def forward_stages(self, img: Tensor) -> StageFeatures:
        x = self.patch_embed(img)
        feats: StageFeatures = {}
        for s in range(1, 5):
            for blk in vars(getattr(self, f"stage{s}")).values():
                x = blk(x)
            feats[s] = x
            if s < 4:
                x = getattr(self, f"merge{s}")(x)
        return feats
