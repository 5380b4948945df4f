"""Dense tensors with reverse-mode gradient propagation.

A Tensor wraps a flat row-major numpy array. Differentiable primitives
record themselves on the active Tape in execution order; Tape.backward
walks the records in exact reverse order and accumulates gradients
additively into every participating tensor. Two float widths are
supported: float32 (training default) and float64 (gradient checking).

Every primitive validates that finite inputs produce finite outputs and
raises NumericError otherwise; NaN/Inf never propagates silently.

`linear` is the single GEMM path for a 2-D right operand: it folds the
left operand's leading axes into one 2-D GEMM for the forward pass and
for each gradient, and `matmul` delegates to it in that case. `matmul`
itself keeps the batched case of a right operand with more than two axes
(window attention, and the row map of `skge.bilinear_resize`).

Gradient ownership: a backward closure may hand out a view of its
upstream gradient (`add`, `sub`, `reshape`, `transpose`) or a read-only
broadcast view (`sum_`), and `_accum` stores the first contribution as
is. No stored gradient is ever written in place: a later contribution
rebinds `t.grad` to a new array. An array read from `t.grad` therefore
keeps its values after a further backward pass, and callers must not
write into it either.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ContractError, DataError, NumericError, ShapeError

DEFAULT_DTYPE = np.float32
_SQRT_2_OVER_PI = 0.7978845608028654
_GELU_CUBIC = 0.044715


class Tensor:
    """N-dimensional value with optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_on_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._on_tape = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # operator sugar; scalars are allowed on either side
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return pow_(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class _Record:
    __slots__ = ("out", "backward")

    def __init__(self, out: Tensor, backward: Callable[[np.ndarray], None]):
        self.out = out
        self.backward = backward


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of executed differentiable ops.

    Use as a context manager around the forward pass, then call
    backward(loss). Multiple backward calls on one tape are allowed;
    intermediate gradients are reset each call while leaf gradients
    accumulate (callers zero leaves between optimizer steps).
    """

    def __init__(self):
        self._records: list[_Record] = []

    @property
    def records(self) -> tuple:
        return tuple(self._records)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted: exited a tape that is not innermost")
        return False

    def backward(self, loss: Tensor) -> None:
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not loss._on_tape:
            raise ContractError("loss was not produced on this tape")
        for rec in self._records:
            rec.out.grad = None
        loss.grad = np.ones_like(loss.data)
        for rec in reversed(self._records):
            g = rec.out.grad
            if g is not None:
                rec.backward(g)


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _needs(t: Tensor) -> bool:
    return t.requires_grad or t._on_tape


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values produced by {op}")


def _apply(out_data: np.ndarray, inputs: Sequence[Tensor],
           backward: Callable[[np.ndarray], None], op: str) -> Tensor:
    _check_finite(out_data, op)
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(_needs(t) for t in inputs):
        out._on_tape = True
        tape._records.append(_Record(out, backward))
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not _needs(t):
        return
    if t.grad is None:
        # stored as is; g may alias another tensor's gradient, which is
        # safe because no gradient is ever written in place
        t.grad = g if g.dtype == t.dtype else g.astype(t.dtype)
    else:
        t.grad = (t.grad + g).astype(t.dtype, copy=False)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to shape, inverting numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _check_dtypes(a: Tensor, b: Tensor, op: str) -> None:
    if a.dtype != b.dtype:
        raise ContractError(f"{op}: mixed dtypes {a.dtype} and {b.dtype}")


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "add")

    def backward(g):
        if _needs(a):
            _accum(a, _unbroadcast(g, a.shape))
        if _needs(b):
            _accum(b, _unbroadcast(g, b.shape))

    return _apply(a.data + b.data, (a, b), backward, "add")


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "sub")

    def backward(g):
        if _needs(a):
            _accum(a, _unbroadcast(g, a.shape))
        if _needs(b):
            _accum(b, _unbroadcast(-g, b.shape))

    return _apply(a.data - b.data, (a, b), backward, "sub")


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "mul")

    def backward(g):
        if _needs(a):
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if _needs(b):
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _apply(a.data * b.data, (a, b), backward, "mul")


def div(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "div")

    def backward(g):
        if _needs(a):
            _accum(a, _unbroadcast(g / b.data, a.shape))
        if _needs(b):
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = a.data / b.data  # the finiteness check turns inf into an error
    return _apply(out_data, (a, b), backward, "div")


def pow_(a: Tensor, p: float) -> Tensor:
    p = float(p)

    def backward(g):
        _accum(a, g * p * np.power(a.data, p - 1.0))

    return _apply(np.power(a.data, p), (a,), backward, "pow")


def abs_(a: Tensor) -> Tensor:
    # subgradient 0 at exact ties
    def backward(g):
        _accum(a, g * np.sign(a.data))

    return _apply(np.abs(a.data), (a,), backward, "abs")


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        _accum(a, g * inside.astype(a.dtype))

    return _apply(np.clip(a.data, lo, hi), (a,), backward, "clamp")


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)  # overflow surfaces via the finiteness check

    def backward(g):
        _accum(a, g * out_data)

    return _apply(out_data, (a,), backward, "exp")


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="raise", invalid="raise"):
        try:
            out_data = np.log(a.data)
        except FloatingPointError as e:
            raise NumericError(f"log of non-positive value: {e}") from None

    def backward(g):
        _accum(a, g / a.data)

    return _apply(out_data, (a,), backward, "log")


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - out_data * out_data))

    return _apply(out_data, (a,), backward, "tanh")


def sigmoid(a: Tensor) -> Tensor:
    # exp(min(x, 0)) / (1 + exp(-|x|)): neither exp overflows, and for x < 0
    # the numerator is the same exp(-|x|), so large negative x keeps full
    # relative precision where 1 - 1 / (1 + e) would not; for x >= 0 the
    # numerator is exp(0) == 1 (two exps run faster than one np.where)
    x = a.data
    out_data = np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))

    def backward(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return _apply(out_data, (a,), backward, "sigmoid")


def gelu(a: Tensor) -> Tensor:
    """tanh-form gaussian error linear unit (smooth, FD-friendly)."""
    x = a.data
    # x * x * x, not x ** 3: numpy's power has no fast path for a cube
    u = _SQRT_2_OVER_PI * (x + _GELU_CUBIC * (x * x * x))
    t = np.tanh(u)
    out_data = 0.5 * x * (1.0 + t)

    def backward(g):
        du = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_CUBIC * x * x)
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
        _accum(a, g * local)

    return _apply(out_data, (a,), backward, "gelu")


def bce_dice(p: Tensor, gt: Tensor) -> Tensor:
    """Mean binary cross-entropy plus global soft Dice, in one tape record.

    p is clamped to pc in [1e-7, 1 - 1e-7] first; gt must be 0/1 and needs no
    gradient. The loss is -mean(gt log pc + (1 - gt) log(1 - pc))
    + 1 - 2 sum(pc gt) / (sum(pc) + sum(gt) + 1e-6), and only p gets a
    gradient, zero where the clamp changed it.
    """
    _check_dtypes(p, gt, "bce_dice")
    if p.shape != gt.shape:
        raise ShapeError(f"bce_dice: prediction {p.shape} vs ground truth {gt.shape}")
    if _needs(gt):
        raise ContractError("bce_dice: the ground truth must not need a gradient")
    y = gt.data
    if not ((y == 0) | (y == 1)).all():
        raise DataError("segmentation ground truth must be binary")
    pc = np.clip(p.data, 1e-7, 1.0 - 1e-7)
    inside = pc == p.data
    # pc on positives, 1 - pc on negatives, bit for bit: adding 0 is exact,
    # and pc - 1 rounds to exactly -(1 - pc)
    q = pc + (y - 1.0)
    np.abs(q, out=q)
    n = p.size
    bce = -np.log(q).mean()
    inter = (pc * y).sum()
    den = pc.sum() + y.sum() + 1e-6
    out_data = np.asarray(bce + (1.0 - inter * 2.0 / den), dtype=p.dtype)

    def backward(g):
        # d/dpc: (1 - 2gt) / (n q) from the BCE, -2gt/D + 2I/D^2 from Dice
        gp = (1.0 - 2.0 * y) / (n * q)
        gp += y * (-2.0 / den)
        gp += 2.0 * inter / (den * den)
        gp *= inside
        gp *= g
        _accum(p, gp)

    return _apply(out_data, (p,), backward, "bce_dice")


# ---------------------------------------------------------------------------
# reductions

def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accum(a, np.broadcast_to(gg, a.shape).astype(a.dtype, copy=False))

    return _apply(out_data, (a,), backward, "sum")


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.size
    else:
        n = a.shape[axis] if isinstance(axis, int) else int(np.prod([a.shape[ax] for ax in axis]))
    out_data = a.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accum(a, (np.broadcast_to(gg, a.shape) / n).astype(a.dtype, copy=False))

    return _apply(out_data, (a,), backward, "mean")


# ---------------------------------------------------------------------------
# shape manipulation

def reshape(a: Tensor, shape) -> Tensor:
    in_shape = a.shape

    def backward(g):
        _accum(a, g.reshape(in_shape))

    return _apply(a.data.reshape(shape), (a,), backward, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        _accum(a, g.transpose(inv))

    return _apply(a.data.transpose(axes), (a,), backward, "transpose")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _apply(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward, "concat")


def slice_(a: Tensor, slices) -> Tensor:
    """Basic slicing; slices is a tuple of slice objects."""
    slices = tuple(slices)

    def backward(g):
        if _needs(a):
            full = np.zeros_like(a.data)
            full[slices] = g
            _accum(a, full)

    return _apply(a.data[slices].copy(), (a,), backward, "slice")


def pad2d(a: Tensor, axis_pads) -> Tensor:
    """Zero-pad; axis_pads is a per-axis list of (before, after)."""
    def backward(g):
        if _needs(a):
            idx = tuple(slice(b, g.shape[i] - aft if aft else None)
                        for i, (b, aft) in enumerate(axis_pads))
            _accum(a, g[idx])

    return _apply(np.pad(a.data, axis_pads), (a,), backward, "pad")


def roll2d(a: Tensor, shifts, axes) -> Tensor:
    shifts = tuple(shifts)
    axes = tuple(axes)

    def backward(g):
        _accum(a, np.roll(g, tuple(-s for s in shifts), axis=axes))

    return _apply(np.roll(a.data, shifts, axis=axes), (a,), backward, "roll")


def gather_rows(table: Tensor, idx: np.ndarray) -> Tensor:
    """out[k] = table[idx[k]]; scatter-add on the way back."""
    idx = np.asarray(idx)

    def backward(g):
        if _needs(table):
            gt = np.zeros_like(table.data)
            np.add.at(gt, idx, g)
            _accum(table, gt)

    return _apply(table.data[idx], (table,), backward, "gather_rows")


# ---------------------------------------------------------------------------
# linear algebra and normalization

def linear(x: Tensor, w: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """x @ w (+ bias) for a 2-D w, over x's last axis.

    The leading axes of x are folded into one, so the forward pass and all
    three gradients are single 2-D GEMMs (or one column sum for the bias),
    and the op takes one tape record where matmul plus add took two.
    """
    inputs = (x, w) if bias is None else (x, w, bias)
    for t in inputs[1:]:
        _check_dtypes(x, t, "linear")
    if w.ndim != 2:
        raise ShapeError(f"linear needs a 2-d weight, got {x.shape} @ {w.shape}")
    k, d = w.shape
    if x.shape[-1] != k:
        raise ShapeError(f"linear inner dims differ: {x.shape} @ {w.shape}")
    if bias is not None and bias.shape != (d,):
        raise ShapeError(f"linear bias must have shape ({d},), got {bias.shape}")
    x2 = x.data.reshape(-1, k)
    y = x2 @ w.data
    if bias is not None:
        y += bias.data

    def backward(g):
        g2 = g.reshape(-1, d)
        if _needs(x):
            _accum(x, (g2 @ w.data.T).reshape(x.shape))
        if _needs(w):
            _accum(w, x2.T @ g2)
        if bias is not None and _needs(bias):
            _accum(bias, g2.sum(axis=0))

    return _apply(y.reshape(x.shape[:-1] + (d,)), inputs, backward, "linear")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    if b.ndim == 2:
        return linear(a, b)

    def backward(g):
        if _needs(a):
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accum(a, _unbroadcast(ga, a.shape))
        if _needs(b):
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accum(b, _unbroadcast(gb, b.shape))

    return _apply(np.matmul(a.data, b.data), (a, b), backward, "matmul")


def softmax_lastdim(x: Tensor, blocked: Optional[np.ndarray] = None) -> Tensor:
    """Row-stochastic softmax over the last dim, max-subtracted for stability.

    blocked, when given, is a boolean array broadcastable to x; True entries
    are excluded from the distribution and get weight exactly 0. Every row
    must keep at least one allowed entry.
    """
    if x.ndim < 1 or x.shape[-1] < 1 or x.size == 0:
        raise ShapeError(f"softmax needs a non-empty last dim, got shape {x.shape}")
    data = x.data
    if blocked is None:
        m = data.max(axis=-1, keepdims=True)
        e = np.exp(data - m)
    else:
        allowed = ~np.broadcast_to(blocked, data.shape)
        if not allowed.any(axis=-1).all():
            raise ContractError("softmax mask blocks an entire row")
        m = np.where(allowed, data, -np.inf).max(axis=-1, keepdims=True)
        e = np.exp(data - m) * allowed
    s = e.sum(axis=-1, keepdims=True)
    y = e / s

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, y * (g - dot))

    return _apply(y, (x,), backward, "softmax")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last dim to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},), "
                         f"got {gamma.shape} and {beta.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    s = np.sqrt(var + eps)
    xh = xc / s
    out_data = xh * gamma.data + beta.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        _accum(beta, g.sum(axis=lead))
        _accum(gamma, (g * xh).sum(axis=lead))
        if _needs(x):
            dxh = g * gamma.data
            _accum(x, (dxh - dxh.mean(axis=-1, keepdims=True)
                       - xh * (dxh * xh).mean(axis=-1, keepdims=True)) / s)

    return _apply(out_data, (x, gamma, beta), backward, "layer_norm")


# ---------------------------------------------------------------------------
# gradient oracle

def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5,
               coords: Optional[Iterable[tuple]] = None) -> float:
    """Max over coordinates of |analytic − central difference| / max(1, |analytic|).

    f must be scalar-valued; the check runs at float64 regardless of x's
    width. coords limits the checked coordinates (default: all of them).
    """
    xx = Tensor(x.data.astype(np.float64), requires_grad=True)
    with Tape() as tape:
        y = f(xx)
        if y.size != 1:
            raise ContractError("grad_check needs a scalar-valued function")
        tape.backward(y)
    analytic = np.zeros_like(xx.data) if xx.grad is None else xx.grad.copy()
    xx.grad = None

    if coords is None:
        coords = list(np.ndindex(*xx.shape)) if xx.ndim else [()]
    worst = 0.0
    flat = xx.data
    for idx in coords:
        orig = flat[idx]
        flat[idx] = orig + h
        fp = f(xx).item()
        flat[idx] = orig - h
        fm = f(xx).item()
        flat[idx] = orig
        numeric = (fp - fm) / (2.0 * h)
        a = analytic[idx]
        worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
    return worst


def grad_check_params(f: Callable[[], Tensor], params: Sequence[tuple],
                      h: float = 1e-5, coords_per_tensor: int = 2,
                      rng: Optional[np.random.Generator] = None) -> dict:
    """Finite-difference check of f against every listed parameter tensor.

    params is a sequence of (name, Tensor); all must be float64. For each
    tensor up to coords_per_tensor random coordinates are checked with the
    same per-coordinate formula as grad_check. Returns {name: max rel err}.
    """
    rng = rng or np.random.default_rng(0)
    for _, p in params:
        if p.dtype != np.float64:
            raise ContractError("grad_check_params requires float64 parameters")
        p.grad = None
    with Tape() as tape:
        y = f()
        if y.size != 1:
            raise ContractError("grad_check_params needs a scalar-valued function")
        tape.backward(y)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params}

    errs = {}
    for name, p in params:
        flat = p.data.reshape(-1)
        aflat = analytic[name].reshape(-1)
        k = min(coords_per_tensor, flat.size)
        picks = rng.choice(flat.size, size=k, replace=False)
        worst = 0.0
        for i in picks:
            orig = flat[i]
            flat[i] = orig + h
            fp = f().item()
            flat[i] = orig - h
            fm = f().item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = aflat[i]
            worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
        errs[name] = worst
        p.grad = None
    return errs
