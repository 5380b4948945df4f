"""Parameterized layers built on the tape-based tensors.

Module gives attribute-driven parameter discovery (tensors requiring
grad, child modules, and lists of child modules), so optimizers and the
checkpoint writer see one flat name->Tensor view of any model.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

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

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def astype(self, dtype) -> "Module":
        """Convert every parameter in place; returns self."""
        for _, p in self.named_parameters():
            p.data = p.data.astype(dtype)
            p.grad = None
        return self

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine map on the last axis: y = x @ W + b."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None, bias: bool = True):
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            xavier_uniform(rng, in_features, out_features, (in_features, out_features)),
            requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, dtype=ad.DEFAULT_DTYPE),
                           requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.dim = dim
        self.eps = eps
        self.gamma = Tensor(np.ones(dim, dtype=ad.DEFAULT_DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=ad.DEFAULT_DTYPE), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta, eps=self.eps)


class Mlp(Module):
    """Two linear maps around a smooth gelu, hidden = ratio * dim."""

    def __init__(self, dim: int, ratio: float, rng: np.random.Generator):
        hidden = int(dim * ratio)
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(ad.gelu(self.fc1(x)))


class GRUCell(Module):
    """Single gated recurrent step with reset/update/candidate gates."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
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
        i_r = ad.slice_(gi, (slice(None), slice(0, hs)))
        i_z = ad.slice_(gi, (slice(None), slice(hs, 2 * hs)))
        i_n = ad.slice_(gi, (slice(None), slice(2 * hs, 3 * hs)))
        h_r = ad.slice_(gh, (slice(None), slice(0, hs)))
        h_z = ad.slice_(gh, (slice(None), slice(hs, 2 * hs)))
        h_n = ad.slice_(gh, (slice(None), slice(2 * hs, 3 * hs)))
        r = ad.sigmoid(ad.add(i_r, h_r))
        z = ad.sigmoid(ad.add(i_z, h_z))
        n = ad.tanh(ad.add(i_n, ad.mul(r, h_n)))
        one_minus_z = ad.sub(ad.mul(z, -1.0), -1.0)
        return ad.add(ad.mul(one_minus_z, n), ad.mul(z, h))
