"""Dense tensors with reverse-mode gradient propagation.

A Tensor wraps a flat row-major numpy array. Differentiable primitives
record themselves on the active Tape in execution order; Tape.backward
walks the records in exact reverse order and accumulates gradients
additively into every participating tensor. Two float widths are
supported: float32 (training default) and float64 (gradient checking).

Every primitive validates that finite inputs produce finite outputs and
raises NumericError otherwise; NaN/Inf never propagates silently.

The module holds only the ops the pipeline records. `linear` is the one
GEMM op: it folds the left operand's leading axes into one 2-D GEMM for
the forward pass and for each gradient. Two ops fuse what used to be
chains of them: `permute_rows` moves a Swin block's tokens into shifted
windows and back, and `window_attention` is the whole multi-head
attention between the qkv and output projections.

Kernels: a sum over the channel axis (layer-norm means, attention row sums)
or over folded rows (the `gamma`, `beta` and bias gradients) is one BLAS
GEMV against a ones vector, so its rounding differs from numpy's
pairwise reductions at the ulp level; the softmax row max is an exact
pairwise `np.maximum`. Ops write in place only into arrays they allocated
themselves; `gelu` and `sigmoid` keep the order of operations of the
plain expressions, so their values are bit-identical to them.
`gelu` computes its local derivative only while recording, in factored
form from the x^2 of its cube.

Tape contents: a record holds its output's gradient slot (a small
object with `.grad`, kept apart from the output Tensor), the slots of its
inputs, and a backward closure that captures only the arrays and shapes
that backward reads. A leaf Tensor serves as its own slot. Once the
forward drops an intermediate Tensor, its data lives on only if some
backward reads it, such as the output of `sigmoid` or the input of
`linear`. A value that every consumer's backward reads only through its
shape (the residual stream into `add` and `layer_norm`, an fc1 output
into `gelu`) dies in the forward pass. `bce_dice` keeps its input (in the
pipeline the output that `sigmoid` keeps anyway) and the labels, one byte
each, and recomputes the clamp and q in its backward. A record lives as
long as its tape: the training loop drops the tape and the losses once
the backward passes are done, before the optimizer step.

Gradient lifetime: Tape.backward releases a record's output gradient
just before calling its backward closure. The walk runs in reverse
execution order, so every consumer of that output has already added its
contribution and nothing reads the gradient again. A pass therefore
holds only the gradients still waiting for their record, and leaves
behind only leaf gradients.

Gradient ownership: a backward closure may hand out a view of its
upstream gradient (`add`, `sub`, `reshape`, `transpose`), and `_accum`
stores the first contribution as is. No stored gradient is ever written
in place: a later contribution rebinds `t.grad` to a new array. An array
read from `t.grad` therefore keeps its values after a further backward
pass, and callers must not write into it either.

Gradient oracle: `grad_check` and `grad_check_params` compare analytic
gradients with central differences. Their analytic pass differentiates
only the checked tensors: the tape is cut down to the records through
which one of them reaches the output, and the gradients are bit-identical
to a full pass. The oracle leaves every `.grad` as it found it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ContractError, DataError, NumericError, ShapeError

DEFAULT_DTYPE = np.float32
_SQRT_2_OVER_PI = 0.7978845608028654
_GELU_CUBIC = 0.044715
_LN_EPS = 1e-5


class Tensor:
    """N-dimensional value with optional gradient buffer.

    A leaf (requires_grad) accumulates its gradient in .grad. The gradient
    of a recorded op output goes to its slot on the tape, so its .grad
    stays None.
    """

    __slots__ = ("data", "grad", "requires_grad", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._slot: Optional[_Slot] = None

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

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class _Slot:
    """Where the gradient of one recorded op output accumulates."""

    __slots__ = ("grad", "shape", "dtype")

    def __init__(self, shape: tuple, dtype):
        self.grad: Optional[np.ndarray] = None
        self.shape = shape
        self.dtype = dtype


class _Record:
    """One recorded op: its output slot, its input slots (None for an input
    that needs no gradient) and backward(g, *inputs)."""

    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out: _Slot, inputs: tuple, backward: Callable[..., None]):
        self.out = out
        self.inputs = inputs
        self.backward = backward


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of executed differentiable ops.

    Use as a context manager around the forward pass, then call
    backward(loss). Multiple backward calls on one tape are allowed. A
    record keeps only what its backward reads: its output's gradient slot,
    its input slots, and the arrays its closure captured. An intermediate
    gradient lives only until its record's backward closure has run, so
    after a call only leaf gradients remain; those accumulate across calls
    (callers zero leaves between optimizer steps).
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
        if loss._slot is None:
            raise ContractError("loss was not produced on this tape")
        # only a pass cut short by an exception leaves gradients here
        for rec in self._records:
            rec.out.grad = None
        loss._slot.grad = np.ones_like(loss.data)
        for rec in reversed(self._records):
            g = rec.out.grad
            if g is not None:
                # every consumer of rec.out ran earlier in this walk, so g is
                # final; dropping it frees it once the closure returns
                rec.out.grad = None
                rec.backward(g, *rec.inputs)


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _needs(t: Tensor) -> bool:
    return t.requires_grad or t._slot is not None


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {op}")


def _apply(out_data: np.ndarray, inputs: Sequence[Tensor],
           backward: Callable[..., None], op: str) -> Tensor:
    """Wrap out_data; while recording, append a record when an input needs
    a gradient. backward(g, *slots) gets one slot per input, None for an
    input that needs no gradient (a leaf is its own slot)."""
    _check_finite(out_data, op)
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        slots = tuple([t if t.requires_grad else t._slot for t in inputs])
        if any(s is not None for s in slots):
            out._slot = _Slot(out.shape, out.dtype)
            tape._records.append(_Record(out._slot, slots, backward))
    return out


def _accum(slot, g: np.ndarray) -> None:
    """Add g to a gradient slot: a _Slot or a leaf Tensor."""
    if slot.grad is None:
        # stored as is; g may alias another tensor's gradient, which is
        # safe because no gradient is ever written in place
        slot.grad = g if g.dtype == slot.dtype else g.astype(slot.dtype)
    else:
        slot.grad = (slot.grad + g).astype(slot.dtype, copy=False)


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


def _row_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1, keepdims=True) as one GEMV against a ones vector."""
    n = a.shape[-1]
    return (a.reshape(-1, n) @ np.ones(n, a.dtype)).reshape(a.shape[:-1] + (1,))


def _col_sum(a2: np.ndarray) -> np.ndarray:
    """a2.sum(axis=0) of a 2-D array as one GEMV against a ones vector."""
    return np.ones(a2.shape[0], a2.dtype) @ a2


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1, keepdims=True) as pairwise np.maximum over halves.

    For an odd extent the two halves share their middle entry, which is
    exact because max(v, v) == v.
    """
    while a.shape[-1] > 1:
        n = a.shape[-1]
        h = (n + 1) // 2
        a = np.maximum(a[..., :h], a[..., n - h:])
    return a


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "add")

    def backward(g, sa, sb):
        if sa is not None:
            _accum(sa, _unbroadcast(g, sa.shape))
        if sb is not None:
            _accum(sb, _unbroadcast(g, sb.shape))

    return _apply(a.data + b.data, (a, b), backward, "add")


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "sub")

    def backward(g, sa, sb):
        if sa is not None:
            _accum(sa, _unbroadcast(g, sa.shape))
        if sb is not None:
            _accum(sb, _unbroadcast(-g, sb.shape))

    return _apply(a.data - b.data, (a, b), backward, "sub")


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "mul")
    # each operand is read only for the other one's gradient
    a_data = a.data if _needs(b) else None
    b_data = b.data if _needs(a) else None

    def backward(g, sa, sb):
        if sa is not None:
            _accum(sa, _unbroadcast(g * b_data, sa.shape))
        if sb is not None:
            _accum(sb, _unbroadcast(g * a_data, sb.shape))

    return _apply(a.data * b.data, (a, b), backward, "mul")


def abs_(a: Tensor) -> Tensor:
    x = a.data

    # subgradient 0 at exact ties
    def backward(g, sa):
        _accum(sa, g * np.sign(x))

    return _apply(np.abs(x), (a,), backward, "abs")


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g, sa):
        _accum(sa, g * (1.0 - out_data * out_data))

    return _apply(out_data, (a,), backward, "tanh")


def sigmoid(a: Tensor) -> Tensor:
    # exp(min(x, 0)) / (1 + exp(-|x|)): neither exp overflows, and for x < 0
    # the numerator is the same exp(-|x|), so large negative x keeps full
    # relative precision where 1 - 1 / (1 + e) would not; for x >= 0 the
    # numerator is exp(0) == 1 (two exps run faster than one np.where)
    x = a.data
    out_data = np.minimum(x, 0.0)
    np.exp(out_data, out=out_data)
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out_data /= den

    def backward(g, sa):
        ga = g * out_data
        ga *= 1.0 - out_data
        _accum(sa, ga)

    return _apply(out_data, (a,), backward, "sigmoid")


def gelu(a: Tensor) -> Tensor:
    """tanh-form gaussian error linear unit (smooth, FD-friendly).

    0.5 x (1 + tanh(u)) with u = sqrt(2/pi) (x + 0.044715 x^3). While
    recording for an input that needs a gradient, the local derivative
    0.5 (1 + t) (1 + x (1 - t) du), with t = tanh(u) and
    du = sqrt(2/pi) (1 + 3 * 0.044715 x^2), is computed here from the x^2
    of the cube, so each backward pass is one multiply.
    """
    x = a.data
    recording = active_tape() is not None and _needs(a)
    # x * x * x, not x ** 3: numpy's power has no fast path for a cube
    sq = x * x
    t = sq * x if recording else np.multiply(sq, x, out=sq)
    t *= _GELU_CUBIC
    t += x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    local = None
    if recording:
        # du / 2 in place of x^2, then local = (0.5 + x (1 - t) du / 2) (1 + t);
        # the buffer of x (1 - t) then takes the output
        local = sq
        local *= 1.5 * _GELU_CUBIC * _SQRT_2_OVER_PI
        local += 0.5 * _SQRT_2_OVER_PI
        out_data = np.subtract(1.0, t)
        out_data *= x
        local *= out_data
        local += 0.5
        out_data = np.multiply(x, 0.5, out=out_data)
    else:
        out_data = 0.5 * x
    t += 1.0
    out_data *= t
    if recording:
        local *= t

    def backward(g, sa):
        _accum(sa, g * local)

    return _apply(out_data, (a,), backward, "gelu")


def bce_dice(p: Tensor, gt: Tensor) -> Tensor:
    """Mean binary cross-entropy plus global soft Dice, in one tape record.

    p is clamped to pc in [1e-7, 1 - 1e-7] first; gt must be 0/1 and needs no
    gradient. The loss is -mean(gt log pc + (1 - gt) log(1 - pc))
    + 1 - 2 sum(pc gt) / (sum(pc) + sum(gt) + 1e-6), and only p gets a
    gradient, zero where the clamp changed it. The record keeps p's data
    (in the pipeline, the array `sigmoid` keeps anyway) and the labels as
    one byte each; its backward recomputes the clamp and q.
    """
    _check_dtypes(p, gt, "bce_dice")
    if p.shape != gt.shape:
        raise ShapeError(f"bce_dice: prediction {p.shape} vs ground truth {gt.shape}")
    if _needs(gt):
        raise ContractError("bce_dice: the ground truth must not need a gradient")
    x, y = p.data, gt.data
    pos = y == 1
    if not (pos | (y == 0)).all():
        raise DataError("segmentation ground truth must be binary")
    n = p.size
    pc = np.clip(x, 1e-7, 1.0 - 1e-7)
    inter = (pc * y).sum()
    den = pc.sum() + y.sum() + 1e-6
    # q in place of pc: pc on positives, 1 - pc on negatives, bit for bit
    # the |pc + (y - 1)| of the plain expression, since pc - 1 rounds to
    # exactly -(1 - pc)
    q = np.subtract(1.0, pc, out=pc, where=~pos)
    bce = -np.log(q, out=q).mean()
    out_data = np.asarray(bce + (1.0 - inter * 2.0 / den), dtype=p.dtype)

    def backward(g, sp):
        # d/dpc: (1 - 2gt) / (n q) from the BCE, -2gt/D + 2I/D^2 from Dice
        gp = np.clip(x, 1e-7, 1.0 - 1e-7)
        inside = gp == x
        np.subtract(1.0, gp, out=gp, where=~pos)
        gp *= n
        np.divide(1.0, gp, out=gp)
        np.negative(gp, out=gp, where=pos)
        np.add(gp, -2.0 / den, out=gp, where=pos)
        gp += 2.0 * inter / (den * den)
        gp *= inside
        gp *= g
        _accum(sp, gp)

    return _apply(out_data, (p,), backward, "bce_dice")


# ---------------------------------------------------------------------------
# reductions

def mean(a: Tensor, axis=None) -> Tensor:
    if axis is None:
        n = a.size
    else:
        n = a.shape[axis] if isinstance(axis, int) else int(np.prod([a.shape[ax] for ax in axis]))
    out_data = a.data.mean(axis=axis)

    def backward(g, sa):
        gg = g if axis is None else np.expand_dims(g, axis)
        _accum(sa, (np.broadcast_to(gg, sa.shape) / n).astype(sa.dtype, copy=False))

    return _apply(out_data, (a,), backward, "mean")


# ---------------------------------------------------------------------------
# shape manipulation

def reshape(a: Tensor, shape) -> Tensor:
    def backward(g, sa):
        _accum(sa, g.reshape(sa.shape))

    return _apply(a.data.reshape(shape), (a,), backward, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g, sa):
        _accum(sa, g.transpose(inv))

    return _apply(a.data.transpose(axes), (a,), backward, "transpose")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g, *slots):
        for s, lo, hi in zip(slots, offsets[:-1], offsets[1:]):
            if s is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accum(s, g[tuple(idx)])

    return _apply(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward, "concat")


def slice_(a: Tensor, slices) -> Tensor:
    """Basic slicing; slices is a tuple of slice objects."""
    slices = tuple(slices)

    def backward(g, sa):
        full = np.zeros(sa.shape, sa.dtype)
        full[slices] = g
        _accum(sa, full)

    return _apply(a.data[slices].copy(), (a,), backward, "slice")


def _take_rows(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """a[:, index] for a (B, N, C) array; negative entries read zero."""
    out = np.take(a, index, axis=1)
    if index.min() < 0:
        out[:, index < 0] = 0
    return out


def permute_rows(x: Tensor, idx: np.ndarray, inv: np.ndarray, shape) -> Tensor:
    """Gather rows through an injective index: out[b, k] = x[b, idx[k]].

    x is viewed as (B, len(inv), C), C being its last extent; a slot with
    idx[k] < 0 reads zero. inv is the inverse map (inv[idx[k]] == k, and -1
    for a row no slot reads), so the backward is the gather through inv, and
    permute_rows(y, inv, idx, x.shape) undoes the op on the rows it kept.
    The (B, len(idx), C) result is reshaped to shape.
    """
    c = x.shape[-1]
    n = len(inv)
    if x.size % (n * c):
        raise ShapeError(f"permute_rows: {x.shape} does not split into rows of {n} x {c}")
    b = x.size // (n * c)
    if math.prod(shape) != b * len(idx) * c:
        raise ShapeError(f"permute_rows: {b} x {len(idx)} x {c} rows do not fill {shape}")

    def backward(g, sx):
        _accum(sx, _take_rows(g.reshape(b, len(idx), c), inv).reshape(sx.shape))

    out_data = _take_rows(x.data.reshape(b, n, c), idx).reshape(shape)
    return _apply(out_data, (x,), backward, "permute_rows")


# ---------------------------------------------------------------------------
# linear algebra and normalization

def linear(x: Tensor, w: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """x @ w (+ bias) for a 2-D w, over x's last axis.

    The leading axes of x are folded into one, so the forward pass and all
    three gradients are single 2-D GEMMs (or one column sum for the bias),
    in one tape record.
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
    # each operand is read only for the other one's gradient; a constant w
    # (the interpolation matrices of skge.bilinear_resize) keeps no copy of x
    x_kept = x2 if _needs(w) else None
    w_kept = w.data if _needs(x) else None

    def backward(g, sx, sw, sb=None):
        g2 = g.reshape(-1, d)
        if sx is not None:
            _accum(sx, (g2 @ w_kept.T).reshape(sx.shape))
        if sw is not None:
            _accum(sw, x_kept.T @ g2)
        if sb is not None:
            _accum(sb, _col_sum(g2))

    return _apply(y.reshape(x.shape[:-1] + (d,)), inputs, backward, "linear")


def _masked_softmax(data: np.ndarray, blocked: Optional[np.ndarray]) -> np.ndarray:
    """Softmax over the last axis, max-subtracted; blocked entries get exactly 0.

    blocked, when given, is a boolean array broadcastable to data. Every row
    must keep at least one allowed entry.
    """
    if blocked is not None:
        if not (~blocked).any(axis=-1).all():
            raise ContractError("softmax mask blocks an entire row")
        # exp(-inf) is exactly 0, and a blocked entry can never overflow
        e = np.where(blocked, -np.inf, data)
        e -= _row_max(e)
    else:
        e = data - _row_max(data)
    np.exp(e, out=e)
    e /= _row_sum(e)
    return e


def window_attention(qkv: Tensor, table: Tensor, rel_index: np.ndarray,
                     blocked: Optional[np.ndarray], heads: int, scale: float):
    """Multi-head attention within windows, in one tape record.

    qkv is (nw, T, 3C): queries, keys and values side by side, each split
    into heads of C / heads channels. The logits are (q * scale) k^T plus
    table[rel_index] (a (T, T) index into the (R, heads) bias table). The
    mask, when given, is a boolean (nW, T, T) that repeats over the nw / nW
    images of the batch; a blocked pair gets weight exactly 0, and a row
    with no allowed pair is a ContractError. Returns the merged (nw, T, C)
    output and the (nw, heads, T, T) softmax weights as an array.
    """
    _check_dtypes(qkv, table, "window_attention")
    if qkv.ndim != 3 or qkv.shape[-1] % (3 * heads):
        raise ShapeError(f"window_attention: qkv {qkv.shape} does not split "
                         f"into 3 x {heads} heads")
    nw, t, c3 = qkv.shape
    c = c3 // 3
    hd = c // heads
    if rel_index.shape != (t, t) or table.ndim != 2 or table.shape[1] != heads:
        raise ShapeError(f"window_attention: bias table {table.shape} and index "
                         f"{rel_index.shape} do not fit {t} tokens and {heads} heads")
    n_masks = 1
    if blocked is not None:
        if (blocked.ndim != 3 or blocked.shape[1:] != (t, t) or not blocked.shape[0]
                or nw % blocked.shape[0]):
            raise ContractError(f"mask shape {blocked.shape} does not fit {nw} windows "
                                f"of {t} tokens")
        n_masks = blocked.shape[0]
        blocked = blocked[:, None]  # over heads

    parts = qkv.data.reshape(nw, t, 3, heads, hd).transpose(2, 0, 3, 1, 4)
    k, v = parts[1], parts[2]
    logits = (parts[0] * scale) @ k.swapaxes(-1, -2)  # queries (nw, heads, T, hd)
    logits += table.data[rel_index].transpose(2, 0, 1)
    # windows as (images, masks): the mask broadcasts over the images
    shape5 = (nw // n_masks, n_masks, heads, t, t)
    attn = _masked_softmax(logits.reshape(shape5), blocked).reshape(nw, heads, t, t)
    out_data = (attn @ v).transpose(0, 2, 1, 3).reshape(nw, t, c)

    def backward(g, sqkv, st):
        g4 = g.reshape(nw, t, heads, hd).transpose(0, 2, 1, 3)
        d_logits = g4 @ v.swapaxes(-1, -2)  # d_attn until the softmax backward
        d_logits -= _row_sum(d_logits * attn)
        d_logits *= attn
        if sqkv is not None:
            # each matmul writes through a heads-first view of the qkv-shaped
            # gradient: every (T, hd) block has unit column stride, so BLAS
            # writes it in place and no assignment or transpose copy follows
            d_qkv = np.empty((nw, t, 3, heads, hd), dtype=sqkv.dtype)
            d_q, d_k, d_v = d_qkv.transpose(2, 0, 3, 1, 4)
            np.matmul(d_logits, k, out=d_q)
            d_q *= scale
            # the scaled queries again: k and v already pin qkv, so keeping
            # the forward's copy would hold the queries twice
            np.matmul(d_logits.swapaxes(-1, -2), parts[0] * scale, out=d_k)
            np.matmul(attn.swapaxes(-1, -2), g4, out=d_v)
            _accum(sqkv, d_qkv.reshape(sqkv.shape))
        if st is not None:
            # one scatter of the (T, T, heads) bias gradient into the table rows
            d_bias = d_logits.sum(axis=0).transpose(1, 2, 0).reshape(-1)
            cells = (rel_index.reshape(-1, 1) * heads + np.arange(heads)).reshape(-1)
            d_table = np.bincount(cells, weights=d_bias, minlength=math.prod(st.shape))
            _accum(st, d_table.reshape(st.shape))

    return _apply(out_data, (qkv, table), backward, "window_attention"), attn


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last dim to zero mean / unit variance (variance + 1e-5
    under the root), then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},), "
                         f"got {gamma.shape} and {beta.shape}")
    _check_dtypes(x, gamma, "layer_norm")
    _check_dtypes(x, beta, "layer_norm")
    # rows of d channels; each row mean is a GEMV row sum divided by d
    x2 = x.data.reshape(-1, d)
    xh = x2 - _row_sum(x2) / d  # centred until divided by s
    sq = xh * xh
    s = np.sqrt(_row_sum(sq) / d + _LN_EPS)
    xh /= s
    gamma_data = gamma.data
    out_data = np.multiply(xh, gamma_data, out=sq)
    out_data += beta.data

    def backward(g, sx, sg, sb):
        g2 = g.reshape(-1, d)
        if sb is not None:
            _accum(sb, _col_sum(g2))
        gx = g2 * xh
        if sg is not None:
            _accum(sg, _col_sum(gx))
        if sx is not None:
            dxh = g2 * gamma_data
            # dxh - mean(dxh) - xh * mean(dxh * xh), divided by s
            m2 = _row_sum(np.multiply(dxh, xh, out=gx)) / d
            dxh -= _row_sum(dxh) / d
            dxh -= np.multiply(xh, m2, out=gx)
            dxh /= s
            _accum(sx, dxh.reshape(sx.shape))

    return _apply(out_data.reshape(x.shape), (x, gamma, beta), backward, "layer_norm")


# ---------------------------------------------------------------------------
# gradient oracle

def _analytic_grads(f: Callable[[], Tensor], checked: Sequence[Tensor], who: str) -> list:
    """Gradients of the scalar f() with respect to the checked tensors only.

    f() is recorded, and its tape is cut down to the records through which a
    checked tensor reaches the output: a record stays when one of its inputs
    is a checked tensor or a kept record's output, and every other input
    slot becomes None, so no other gradient is computed. Each live slot gets
    its contributions in the same order as in a full backward pass, so the
    gradients are bit-identical to it. A checked tensor that does not reach
    the output gets zeros. Every .grad is left as it was.
    """
    saved = {id(t): (t, t.grad) for t in checked}
    for t in checked:
        t.grad = None
    try:
        with Tape() as tape:
            y = f()
            if y.size != 1:
                raise ContractError(f"{who} needs a scalar-valued function")
            # cut before the tape closes, so it closes holding what backward walks
            live = set(saved)
            kept = []
            for rec in tape._records:
                ins = tuple(s if s is not None and id(s) in live else None for s in rec.inputs)
                if any(s is not None for s in ins):
                    live.add(id(rec.out))
                    rec.inputs = ins
                    kept.append(rec)
            tape._records = kept
        tape.backward(y)
        # no stored gradient is ever written in place, so no copy is needed
        return [np.zeros_like(t.data) if t.grad is None else t.grad for t in checked]
    finally:
        for t, g in saved.values():
            t.grad = g


def _max_rel_err(f: Callable[[], Tensor], flat: np.ndarray, analytic: np.ndarray,
                 indices: Iterable[int], h: float) -> float:
    """Max over flat indices of |analytic - central difference| / max(1, |analytic|).

    flat is a flat view of the checked tensor's data; each entry is moved
    by +h and -h for one evaluation of f() each, then restored.
    """
    worst = 0.0
    for i in indices:
        orig = flat[i]
        flat[i] = orig + h
        fp = f().item()
        flat[i] = orig - h
        fm = f().item()
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * h)
        a = analytic[i]
        worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
    return worst


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5,
               coords: Optional[Iterable[tuple]] = None) -> float:
    """Max over coordinates of |analytic − central difference| / max(1, |analytic|).

    f must be scalar-valued; the check runs at float64 regardless of x's
    width. coords limits the checked coordinates (default: all of them).
    Only x is differentiated: tensors that f reads besides x, such as
    module parameters, get no gradient, and every .grad is left as it was.
    """
    xx = Tensor(x.data.astype(np.float64), requires_grad=True)
    fx = lambda: f(xx)
    (analytic,) = _analytic_grads(fx, [xx], "grad_check")
    indices = (range(xx.size) if coords is None
               else [np.ravel_multi_index(c, xx.shape) for c in coords])
    return _max_rel_err(fx, xx.data.reshape(-1), analytic.reshape(-1), indices, h)


def grad_check_params(f: Callable[[], Tensor], params: Sequence[tuple],
                      h: float = 1e-5, coords_per_tensor: int = 2,
                      rng: Optional[np.random.Generator] = None) -> dict:
    """Finite-difference check of f against every listed parameter tensor.

    params is a sequence of (name, Tensor); all must be float64. For each
    tensor up to coords_per_tensor random coordinates are checked with the
    same per-coordinate formula as grad_check. Only the listed tensors are
    differentiated, and every .grad is left as it was. Returns
    {name: max rel err}.
    """
    rng = rng or np.random.default_rng(0)
    for _, p in params:
        if p.dtype != np.float64:
            raise ContractError("grad_check_params requires float64 parameters")
    analytic = _analytic_grads(f, [p for _, p in params], "grad_check_params")

    errs = {}
    for (name, p), a in zip(params, analytic):
        flat = p.data.reshape(-1)
        picks = rng.choice(flat.size, size=min(coords_per_tensor, flat.size), replace=False)
        errs[name] = _max_rel_err(f, flat, a.reshape(-1), picks, h)
    return errs
