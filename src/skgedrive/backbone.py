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

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, ContractError

# stage index -> feature map of shape (B, H_s, W_s, C_s)
StageFeatures = Dict[int, Tensor]


@dataclass
class BackboneConfig:
    input_size: int = 64
    patch_size: int = 4
    window_size: int = 4
    embed_dim: int = 24
    depths: tuple = (1, 1, 2, 1)
    heads: tuple = (2, 4, 8, 16)
    mlp_ratio: float = 4.0
    variant_name: str = "desk"

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

    def stage_extent(self, stage: int) -> int:
        """Spatial side length of 1-indexed stage: input/(patch * 2^(stage-1))."""
        return self.input_size // self.patch_size // (2 ** (stage - 1))

    def stage_channels(self, stage: int) -> int:
        return self.embed_dim * (2 ** (stage - 1))


def window_partition(x: Tensor, w: int) -> Tensor:
    """(B, H, W, C) -> (B*nW, w*w, C); windows ordered row-major.

    Token (i, j) lands in window (i // w, j // w) at slot (i % w) * w + (j % w).
    """
    b, h, ww, c = x.shape
    if h % w or ww % w:
        raise ConfigError(f"grid {h}x{ww} not divisible by window {w}")
    x = ad.reshape(x, (b, h // w, w, ww // w, w, c))
    x = ad.transpose(x, (0, 1, 3, 2, 4, 5))
    return ad.reshape(x, (b * (h // w) * (ww // w), w * w, c))


def window_reverse(windows: Tensor, w: int, h: int, ww: int) -> Tensor:
    """Inverse of window_partition; exact round-trip."""
    nw = (h // w) * (ww // w)
    b = windows.shape[0] // nw
    x = ad.reshape(windows, (b, h // w, ww // w, w, w, windows.shape[-1]))
    x = ad.transpose(x, (0, 1, 3, 2, 4, 5))
    return ad.reshape(x, (b, h, ww, windows.shape[-1]))


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
        self.dim = dim
        self.heads = heads
        self.window = window
        self.head_dim = dim // heads
        self.scale = self.head_dim ** -0.5
        self.qkv = nn.Linear(dim, 3 * dim, rng)
        self.proj = nn.Linear(dim, dim, rng)
        self.rel_bias = Tensor(nn.trunc_normal(rng, ((2 * window - 1) ** 2, heads)),
                               requires_grad=True)
        self._rel_index = _relative_index(window)

    def forward(self, x: Tensor, blocked: Optional[np.ndarray] = None) -> Tensor:
        nw, t, c = x.shape
        if t != self.window * self.window:
            raise ContractError(f"expected {self.window ** 2} tokens per window, got {t}")
        if blocked is not None and blocked.shape != (nw, t, t):
            raise ContractError(f"mask shape {blocked.shape} does not match ({nw},{t},{t})")
        h, hd = self.heads, self.head_dim

        qkv = self.qkv(x)
        q = ad.slice_(qkv, (slice(None), slice(None), slice(0, c)))
        k = ad.slice_(qkv, (slice(None), slice(None), slice(c, 2 * c)))
        v = ad.slice_(qkv, (slice(None), slice(None), slice(2 * c, 3 * c)))

        def heads_first(z):
            z = ad.reshape(z, (nw, t, h, hd))
            return ad.transpose(z, (0, 2, 1, 3))  # (nw, h, t, hd)

        q, k, v = heads_first(q), heads_first(k), heads_first(v)
        logits = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), self.scale)

        bias = ad.gather_rows(self.rel_bias, self._rel_index.reshape(-1))
        bias = ad.transpose(ad.reshape(bias, (t, t, h)), (2, 0, 1))
        logits = ad.add(logits, bias)  # broadcast over windows

        mask = None if blocked is None else blocked[:, None, :, :]
        attn = ad.softmax_lastdim(logits, blocked=mask)
        # plain array copy of the weights, kept for inspection
        self.last_attn = attn.data.copy()

        out = ad.matmul(attn, v)  # (nw, h, t, hd)
        out = ad.reshape(ad.transpose(out, (0, 2, 1, 3)), (nw, t, c))
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
        self._mask_cache: dict = {}

    def _blocked_mask(self, h: int, ww: int) -> Optional[np.ndarray]:
        """Per-window boolean (nW, T, T) mask for the padded h x ww grid."""
        key = (h, ww)
        if key in self._mask_cache:
            return self._mask_cache[key]
        w = self.window
        hp = -(-h // w) * w
        wp = -(-ww // w) * w
        if hp == h and ww == wp and self.shift == 0:
            self._mask_cache[key] = None
            return None
        ii, jj = np.meshgrid(np.arange(hp), np.arange(wp), indexing="ij")
        wid = (ii // w) * (wp // w) + (jj // w)
        wid[(ii >= h) | (jj >= ww)] = -1  # padding marker
        if self.shift:
            wid = np.roll(wid, (-self.shift, -self.shift), axis=(0, 1))
        ids = wid.reshape(hp // w, w, wp // w, w).transpose(0, 2, 1, 3).reshape(-1, w * w)
        pad = ids < 0
        blocked = (ids[:, :, None] != ids[:, None, :]) | pad[:, :, None] | pad[:, None, :]
        # keep self-attention so no row is fully blocked (padding included)
        diag = np.eye(w * w, dtype=bool)
        blocked &= ~diag
        self._mask_cache[key] = blocked
        return blocked

    def forward(self, x: Tensor) -> Tensor:
        b, h, ww, c = x.shape
        w = self.window
        shortcut = x
        x = self.norm1(x)

        pad_h = (-h) % w
        pad_w = (-ww) % w
        if pad_h or pad_w:
            x = ad.pad2d(x, ((0, 0), (0, pad_h), (0, pad_w), (0, 0)))
        hp, wp = h + pad_h, ww + pad_w

        if self.shift:
            x = ad.roll2d(x, (-self.shift, -self.shift), (1, 2))

        blocked = self._blocked_mask(h, ww)
        windows = window_partition(x, w)
        if blocked is not None:
            blocked = np.tile(blocked, (b, 1, 1))
        windows = self.attn(windows, blocked)
        x = window_reverse(windows, w, hp, wp)

        if self.shift:
            x = ad.roll2d(x, (self.shift, self.shift), (1, 2))
        if pad_h or pad_w:
            x = ad.slice_(x, (slice(None), slice(0, h), slice(0, ww), slice(None)))

        x = ad.add(shortcut, x)
        return ad.add(x, self.mlp(self.norm2(x)))


class PatchMerging(nn.Module):
    """2x2 neighbor concat (4C) -> layer norm -> linear down to 2C."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
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
        x = ad.transpose(img, (0, 2, 3, 1))  # (B, H, W, Cin)
        x = ad.reshape(x, (b, h // p, p, w // p, p, cin))
        x = ad.transpose(x, (0, 1, 3, 2, 4, 5))
        x = ad.reshape(x, (b, h // p, w // p, p * p * cin))
        return self.norm(self.proj(x))


class SwinEncoder(nn.Module):
    """Patch embed plus four block stages with merges in between.

    forward_stages returns every stage output keyed 1..4: stage s has
    spatial side input/(patch * 2^(s-1)) and embed_dim * 2^(s-1) channels.
    Within a stage, blocks alternate unshifted / shifted by window//2.
    """

    def __init__(self, config: BackboneConfig, in_channels: int,
                 rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(0)
        self.config = config
        self.patch_embed = PatchEmbed(config, in_channels, rng)
        self.stages = []
        self.merges = []
        for s in range(4):
            dim = config.stage_channels(s + 1)
            blocks = [SwinBlock(dim, config.heads[s], config.window_size,
                                0 if i % 2 == 0 else config.window_size // 2,
                                config.mlp_ratio, rng)
                      for i in range(config.depths[s])]
            self.stages.append(blocks)
            if s < 3:
                self.merges.append(PatchMerging(dim, rng))

    def named_parameters(self, prefix: str = ""):
        yield from self.patch_embed.named_parameters(f"{prefix}patch_embed.")
        for s, blocks in enumerate(self.stages):
            for i, blk in enumerate(blocks):
                yield from blk.named_parameters(f"{prefix}stage{s + 1}.block{i}.")
        for s, m in enumerate(self.merges):
            yield from m.named_parameters(f"{prefix}merge{s + 1}.")

    def forward_stages(self, img: Tensor) -> StageFeatures:
        x = self.patch_embed(img)
        feats: StageFeatures = {}
        for s in range(4):
            for blk in self.stages[s]:
                x = blk(x)
            feats[s + 1] = x
            if s < 3:
                x = self.merges[s](x)
        return feats

    def forward(self, img: Tensor) -> StageFeatures:
        return self.forward_stages(img)
