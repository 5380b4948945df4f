"""Parameterized layers built on the tape-based tensors.

Module gives attribute-driven parameter discovery (tensors requiring
grad, child modules, and lists of child modules), so optimizers and the
checkpoint writer see one flat name->Tensor view of any model.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(ad.DEFAULT_DTYPE)


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    vals = rng.normal(0.0, std, size=shape)
    return np.clip(vals, -2.0 * std, 2.0 * std).astype(ad.DEFAULT_DTYPE)


class Module:
    """Base class with recursive parameter traversal."""

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def astype(self, dtype) -> "Module":
        """Convert every parameter in place; returns self."""
        for _, p in self.named_parameters():
            p.data = p.data.astype(dtype)
            p.grad = None
        return self

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine map on the last axis: y = x @ W + b."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        self.weight = Tensor(
            xavier_uniform(rng, in_features, out_features, (in_features, out_features)),
            requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, dtype=ad.DEFAULT_DTYPE),
                           requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim, dtype=ad.DEFAULT_DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=ad.DEFAULT_DTYPE), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta)


class Mlp(Module):
    """Two linear maps around a smooth gelu, hidden = ratio * dim."""

    def __init__(self, dim: int, ratio: float, rng: np.random.Generator):
        hidden = int(dim * ratio)
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(ad.gelu(self.fc1(x)))


class GRUCell(Module):
    """One GRU step; gi = x W_ih + b_ih and gh = h W_hh + b_hh hold r, z, n blocks:
    [r, z] = sigmoid(gi + gh), n = tanh(gi_n + r gh_n), h' = n + z (h - n)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.hidden_size = hidden_size
        k = 1.0 / math.sqrt(hidden_size)

        def u(shape):
            return Tensor(rng.uniform(-k, k, size=shape).astype(ad.DEFAULT_DTYPE),
                          requires_grad=True)

        self.w_ih = u((input_size, 3 * hidden_size))
        self.w_hh = u((hidden_size, 3 * hidden_size))
        self.b_ih = u((3 * hidden_size,))
        self.b_hh = u((3 * hidden_size,))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        hs = self.hidden_size
        gi = ad.linear(x, self.w_ih, self.b_ih)
        gh = ad.linear(h, self.w_hh, self.b_hh)
        gates = ad.sigmoid(ad.add(gi, gh))   # the third block goes unread
        r = ad.slice_(gates, (slice(None), slice(0, hs)))
        z = ad.slice_(gates, (slice(None), slice(hs, 2 * hs)))
        i_n = ad.slice_(gi, (slice(None), slice(2 * hs, 3 * hs)))
        h_n = ad.slice_(gh, (slice(None), slice(2 * hs, 3 * hs)))
        n = ad.tanh(ad.add(i_n, ad.mul(r, h_n)))
        return ad.add(n, ad.mul(z, ad.sub(h, n)))
