import contextlib
import inspect
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from skgedrive import autodiff as ad
from skgedrive.autodiff import Tape, Tensor, grad_check, grad_check_params
from skgedrive.errors import ContractError, DataError, NumericError, ShapeError

from oracles import (bce_dice_composed, bce_reference, dice_reference, gather_rows,
                     gelu_composed, gelu_reference, layer_norm_composed,
                     layer_norm_reference, masked_softmax_composed, matmul, pad2d,
                     roll2d, sigmoid_composed, sigmoid_where_reference,
                     softmax_lastdim, softmax_reference, sum_,
                     window_attention_composed)

N_TRIALS = 50


def _t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def _rand(rng, shape, lo=-2.0, hi=2.0):
    return rng.uniform(lo, hi, size=shape)


# Each entry builds (f, x0) for one differentiable op; grad_check runs the
# central-difference comparison over every coordinate of x0.
def _op_cases(rng):
    a23 = _rand(rng, (2, 3))
    a234 = _rand(rng, (2, 3, 4))
    b3 = _rand(rng, (3,))
    m34 = _rand(rng, (3, 4))
    m42 = _rand(rng, (4, 2))
    away_from_zero = np.sign(_rand(rng, (2, 3))) * (np.abs(_rand(rng, (2, 3))) + 0.1)
    gamma = _rand(rng, (4,), 0.5, 1.5)
    beta = _rand(rng, (4,))
    idx = rng.integers(0, 2, size=6)
    mask = np.zeros((2, 3, 3), dtype=bool)
    mask[0, 0, 1] = mask[1, 2, 0] = True
    w6 = _t(_rand(rng, (6,)), False)
    w423 = _t(_rand(rng, (4, 2, 3)), False)
    w43 = _t(_rand(rng, (4, 3)), False)
    w35 = _t(_rand(rng, (3, 5)), False)
    w23 = _t(_rand(rng, (2, 3)), False)
    w63 = _t(_rand(rng, (6, 3)), False)
    m242 = _t(_rand(rng, (2, 4, 2)), False)
    w234 = _t(_rand(rng, (2, 3, 4)), False)
    w233 = _t(_rand(rng, (2, 3, 3)), False)
    x2324 = _rand(rng, (2, 3, 2, 4))
    m43 = _rand(rng, (4, 3))
    w2323 = _t(_rand(rng, (2, 3, 2, 3)), False)
    w232 = _t(_rand(rng, (2, 3, 2)), False)
    prob = _rand(rng, (2, 3, 4), 0.05, 0.95)
    binary = _t((rng.random((2, 3, 4)) < 0.4).astype(np.float64), False)

    cases = {
        "add": (lambda x: sum_(ad.add(x, _t(b3, False))), a23),
        "add_broadcast_rhs": (lambda x: sum_(ad.add(_t(a23, False), x)), b3),
        "sub": (lambda x: sum_(ad.sub(x, _t(b3, False))), a23),
        "mul": (lambda x: sum_(ad.mul(x, _t(b3, False))), a23),
        "abs": (lambda x: sum_(ad.abs_(x)), away_from_zero),
        "tanh": (lambda x: sum_(ad.tanh(x)), a23),
        "sigmoid": (lambda x: sum_(ad.sigmoid(x)), a23),
        "gelu": (lambda x: sum_(ad.gelu(x)), a23),
        "sum_axis": (lambda x: sum_(ad.mul(sum_(x, axis=0), _t(b3, False))), a23),
        "mean_all": (lambda x: ad.mean(x), a234),
        "mean_axis_tuple": (
            lambda x: sum_(ad.mul(ad.mean(x, axis=(0, 2)), _t(b3, False))), a234),
        "reshape": (lambda x: sum_(ad.mul(ad.reshape(x, (6,)), w6)), a23),
        "transpose": (lambda x: sum_(ad.mul(ad.transpose(x, (2, 0, 1)), w423)), a234),
        "concat": (lambda x: sum_(ad.mul(ad.concat([x, _t(a23, False)], 0), w43)), a23),
        "slice": (lambda x: sum_(ad.slice_(x, (slice(0, 2), slice(1, 3)))), a23),
        "pad2d": (lambda x: sum_(ad.mul(pad2d(x, ((1, 0), (0, 2))), w35)), a23),
        "roll2d": (lambda x: sum_(ad.mul(roll2d(x, (1, -1), (0, 1)), w23)), a23),
        "gather_rows": (lambda x: sum_(ad.mul(gather_rows(x, idx), w63)), a23),
        "matmul_lhs": (lambda x: sum_(matmul(x, _t(m42, False))), m34),
        "matmul_rhs": (lambda x: sum_(matmul(_t(m34, False), x)), m42),
        "matmul_batched": (lambda x: sum_(matmul(x, m242)), a234),
        "matmul_rhs_under_3d_lhs": (
            lambda x: sum_(ad.mul(matmul(_t(a234, False), x), w232)), m42),
        "linear_x": (
            lambda x: sum_(ad.mul(ad.linear(x, _t(m43, False), _t(b3, False)), w2323)),
            x2324),
        "linear_w": (
            lambda w: sum_(ad.mul(ad.linear(_t(x2324, False), w, _t(b3, False)), w2323)),
            m43),
        "linear_bias": (
            lambda b: sum_(ad.mul(ad.linear(_t(x2324, False), _t(m43, False), b), w2323)),
            b3),
        "linear_no_bias": (
            lambda w: sum_(ad.mul(ad.linear(_t(x2324, False), w), w2323)), m43),
        "bce_dice": (lambda x: ad.bce_dice(x, binary), prob),
        "softmax": (lambda x: sum_(ad.mul(softmax_lastdim(x), w234)), a234),
        "softmax_masked": (
            lambda x: sum_(ad.mul(softmax_lastdim(x, blocked=mask), w233)),
            _rand(rng, (2, 3, 3))),
        "layer_norm": (
            lambda x: sum_(ad.mul(ad.layer_norm(x, _t(gamma, False), _t(beta, False)),
                                     w234)), a234),
        "layer_norm_gamma": (
            lambda g: sum_(ad.layer_norm(_t(a234, False), g, _t(beta, False))), gamma),
        "layer_norm_beta": (
            lambda b: sum_(ad.layer_norm(_t(a234, False), _t(gamma, False), b)), beta),
    }

    # drawn after the older cases' inputs, so those stay as they were
    rows5 = _rand(rng, (2, 5, 3))
    rows7 = _rand(rng, (2, 7, 3))
    perm_idx = np.array([3, -1, 0, 4, -1, 1, 2])  # slots 1 and 4 are padding
    perm_inv = np.array([2, 5, 6, 0, 3])
    w273 = _t(_rand(rng, (2, 7, 3)), False)
    w253 = _t(_rand(rng, (2, 5, 3)), False)
    # 4 windows of 4 tokens, 2 heads of 2 channels; the bias index repeats
    qkv = _rand(rng, (4, 4, 12))
    table = _rand(rng, (9, 2))
    rel = rng.integers(0, 9, size=(4, 4))
    w444 = _t(_rand(rng, (4, 4, 4)), False)
    # two masks, each repeated over 2 images
    win_mask = np.zeros((2, 4, 4), dtype=bool)
    win_mask[0, 0, 1:3] = win_mask[0, 3, 0] = win_mask[1, 2, :2] = True

    def attention(x, tb, blocked):
        out, _ = ad.window_attention(x, tb, rel, blocked, 2, 0.7)
        return sum_(ad.mul(out, w444))

    cases.update({
        "permute_rows": (
            lambda x: sum_(ad.mul(ad.permute_rows(x, perm_idx, perm_inv, (2, 7, 3)),
                                     w273)), rows5),
        "permute_rows_inverse": (
            lambda x: sum_(ad.mul(ad.permute_rows(x, perm_inv, perm_idx, (2, 5, 3)),
                                     w253)), rows7),
        "window_attention": (lambda x: attention(x, _t(table, False), None), qkv),
        "window_attention_masked": (lambda x: attention(x, _t(table, False), win_mask), qkv),
        "window_attention_table": (lambda tb: attention(_t(qkv, False), tb, win_mask), table),
    })
    return cases


def _case_names():
    return sorted(_op_cases(np.random.default_rng(0)).keys())


@pytest.mark.parametrize("name", _case_names())
def test_op_gradients_match_finite_differences(name):
    """Randomized sweep: every exported op, fresh inputs each trial."""
    worst = 0.0
    for trial in range(N_TRIALS):
        rng = np.random.default_rng(1000 + trial)
        f, x0 = _op_cases(rng)[name]
        err = grad_check(f, _t(x0))
        worst = max(worst, err)
    assert worst < 1e-4, f"{name}: worst rel err {worst:.3e}"


def test_matmul_sum_gradient_tight():
    rng = np.random.default_rng(5)
    a = _t(rng.standard_normal((3, 4)))
    b = _t(rng.standard_normal((4, 2)), grad=False)
    err = grad_check(lambda x: sum_(matmul(x, b)), a)
    assert err < 1e-6


def test_leaf_gradients_accumulate_across_uses():
    x = _t([1.0, 2.0])
    with Tape() as tape:
        y = sum_(ad.add(ad.mul(x, 3.0), x))
        tape.backward(y)
    np.testing.assert_allclose(x.grad, [4.0, 4.0])


def test_backward_twice_accumulates_leaf_grads():
    x = _t([1.5])
    with Tape() as tape:
        y = sum_(ad.mul(x, x))
        tape.backward(y)
        g1 = x.grad.copy()
        tape.backward(y)
    np.testing.assert_allclose(x.grad, 2 * g1)


def _fan_out_graph(rng, dtype):
    # h feeds two consumers, and two records follow the first loss
    x = Tensor(rng.standard_normal((2, 5, 6)).astype(dtype), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 6)).astype(dtype), requires_grad=True)
    gamma = Tensor(np.ones(6, dtype=dtype), requires_grad=True)
    beta = Tensor(np.zeros(6, dtype=dtype), requires_grad=True)
    h = ad.layer_norm(ad.linear(x, w), gamma, beta)
    first = ad.mean(ad.mul(ad.add(ad.gelu(h), h), h))
    second = sum_(ad.mul(h, 0.5))
    return (x, w, gamma, beta), first, second


def test_backward_leaves_only_leaf_gradients(rng):
    with Tape() as tape:
        leaves, first, second = _fan_out_graph(rng, np.float64)
    for loss in (first, second, first):
        tape.backward(loss)
        assert all(rec.out.grad is None for rec in tape.records)
        assert all(t.grad is not None for t in leaves)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_two_passes_on_one_tape_give_bit_identical_leaf_gradients(rng, dtype):
    with Tape() as tape:
        leaves, first, _ = _fan_out_graph(rng, dtype)
    tape.backward(first)
    grads = [t.grad for t in leaves]
    for t in leaves:
        t.grad = None
    tape.backward(first)
    for t, g in zip(leaves, grads):
        assert np.array_equal(t.grad, g)


# op -> (input array, op applied to an intermediate h, whether the op's
# backward reads h, whether it reads its own output)
def _liveness_cases(rng):
    def leaf(*shape):
        return _t(_rand(rng, shape))

    def const(*shape):
        return _t(_rand(rng, shape), False)

    a23 = _rand(rng, (2, 3))
    prob = _rand(rng, (2, 3), 0.05, 0.95)
    binary = _t((rng.random((2, 3)) < 0.4).astype(np.float64), False)
    perm = np.array([2, 0, 3, 1])
    # 4 windows of 4 tokens, 2 heads of 2 channels
    qkv, table = _rand(rng, (4, 4, 12)), leaf(9, 2)
    rel = rng.integers(0, 9, size=(4, 4))
    return {
        "add": (a23, lambda h: ad.add(h, const(2, 3)), False, False),
        "sub": (a23, lambda h: ad.sub(const(2, 3), h), False, False),
        "mul": (a23, lambda h: ad.mul(h, const(2, 3)), False, False),
        "mul_by_leaf": (a23, lambda h: ad.mul(h, leaf(2, 3)), True, False),
        "abs": (a23, ad.abs_, True, False),
        "tanh": (a23, ad.tanh, False, True),
        "sigmoid": (a23, ad.sigmoid, False, True),
        "gelu": (a23, ad.gelu, False, False),
        # keeps p, so that its backward can recompute the clamp and q
        "bce_dice": (prob, lambda h: ad.bce_dice(h, binary), True, False),
        "sum": (a23, lambda h: sum_(h, axis=1), False, False),
        "mean": (a23, lambda h: ad.mean(h, axis=0), False, False),
        "reshape": (a23, lambda h: ad.reshape(h, (3, 2)), False, False),
        "transpose": (a23, lambda h: ad.transpose(h, (1, 0)), False, False),
        "concat": (a23, lambda h: ad.concat([h, leaf(2, 3)], axis=1), False, False),
        "slice": (a23, lambda h: ad.slice_(h, (slice(None), slice(1, 3))), False, False),
        "pad2d": (a23, lambda h: pad2d(h, [(1, 0), (0, 2)]), False, False),
        "roll2d": (a23, lambda h: roll2d(h, (1, 1), (0, 1)), False, False),
        "gather_rows": (a23, lambda h: gather_rows(h, np.array([1, 0, 1])), False, False),
        "permute_rows": (_rand(rng, (1, 4, 2)),
                         lambda h: ad.permute_rows(h, perm, np.argsort(perm), (1, 4, 2)),
                         False, False),
        "linear": (a23, lambda h: ad.linear(h, leaf(3, 4), leaf(4)), True, False),
        "linear_by_constant": (a23, lambda h: ad.linear(h, const(3, 4)), False, False),
        "matmul": (_rand(rng, (2, 2, 3)), lambda h: matmul(h, const(2, 3, 4)), False, False),
        "matmul_by_leaf": (_rand(rng, (2, 2, 3)), lambda h: matmul(h, leaf(2, 3, 4)),
                           True, False),
        "softmax": (a23, softmax_lastdim, False, True),
        "window_attention": (qkv, lambda h: ad.window_attention(h, table, rel, None, 2, 0.5)[0],
                             True, False),
        "layer_norm": (a23, lambda h: ad.layer_norm(h, leaf(3), leaf(3)), False, False),
    }


@pytest.mark.parametrize("name", sorted(_liveness_cases(np.random.default_rng(0))))
def test_a_record_keeps_only_the_arrays_its_backward_reads(name):
    x0, op, reads_input, reads_output = _liveness_cases(np.random.default_rng(0))[name]
    x = _t(x0)
    with Tape() as tape:
        h = ad.add(x, 0.0)  # an intermediate whose producer reads nothing
        out = op(h)
        loss = sum_(out)
    h_ref, out_ref = weakref.ref(h.data), weakref.ref(out.data)
    del h, out
    assert (h_ref() is not None) == reads_input
    assert (out_ref() is not None) == reads_output
    tape.backward(loss)
    assert x.grad.shape == x.shape and np.isfinite(x.grad).all()


def test_linear_matches_matmul_plus_bias_in_one_record(rng):
    x = _t(rng.standard_normal((2, 3, 4)))
    w = _t(rng.standard_normal((4, 5)))
    b = _t(rng.standard_normal(5))
    with Tape() as tape:
        y = ad.linear(x, w, b)
    assert len(tape.records) == 1
    np.testing.assert_allclose(y.numpy(), x.numpy() @ w.numpy() + b.numpy(), atol=1e-12)
    with pytest.raises(ShapeError):
        ad.linear(x, w, _t(np.zeros(4)))
    with pytest.raises(ShapeError):
        ad.linear(x, _t(np.zeros((3, 5))))


def _dyadic(rng, shape):
    # quarters add exactly, so a second backward gives exactly twice the first
    return rng.integers(-8, 9, size=shape) / 4.0


def test_shared_upstream_gradient_is_not_aliased(rng):
    # add hands one upstream gradient (or views of it) to both inputs and sub
    # hands one to its left input. add is recorded last, so its backward runs
    # first and makes both leaves' first writes: grads that aliased its
    # upstream gradient would be written through by sub's += on x
    x = _t(_dyadic(rng, 3))
    y = _t(_dyadic(rng, 3))
    w1 = _t(_dyadic(rng, 3), False)
    w2 = _t(_dyadic(rng, 3), False)
    with Tape() as tape:
        loss = ad.add(sum_(ad.mul(ad.sub(x, y), w2)),
                      sum_(ad.mul(ad.add(x, y), w1)))
        tape.backward(loss)
        gx, gy = x.grad.copy(), y.grad.copy()
        tape.backward(loss)
    np.testing.assert_allclose(gx, w1.numpy() + w2.numpy(), atol=1e-12)
    np.testing.assert_allclose(gy, w1.numpy() - w2.numpy(), atol=1e-12)
    assert np.array_equal(x.grad, 2 * gx)
    assert np.array_equal(y.grad, 2 * gy)


def test_first_write_from_sum_broadcast_view_then_more(rng):
    # sum_'s backward hands a read-only broadcast view; it is x's first
    # gradient contribution here, and mul's contribution follows it
    x = _t(_dyadic(rng, (2, 3)))
    w = _t(_dyadic(rng, (2, 3)), False)
    with Tape() as tape:
        weighted = sum_(ad.mul(x, w))
        loss = ad.add(weighted, sum_(x))
        tape.backward(loss)
        g1 = x.grad.copy()
        tape.backward(loss)
    np.testing.assert_allclose(g1, 1.0 + w.numpy(), atol=1e-12)
    assert np.array_equal(x.grad, 2 * g1)


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_sigmoid_keeps_relative_precision(dtype, rtol):
    x = np.linspace(-30.0, 30.0, 601).astype(dtype)
    if dtype == np.float64:
        x = np.concatenate([x, [-700.0, 700.0]])
    with np.errstate(all="raise"):
        got = ad.sigmoid(Tensor(x)).numpy()
    assert got.dtype == dtype
    assert np.all((got >= 0.0) & (got <= 1.0))
    want = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


def test_gradient_is_never_written_in_place(rng):
    # x's first contribution is sum_'s broadcast view; a held gradient array
    # must keep its values when a further backward adds to x.grad
    x = _t(_dyadic(rng, (2, 3)))
    w = _t(_dyadic(rng, (2, 3)), False)
    with Tape() as tape:
        loss = ad.add(sum_(ad.mul(x, w)), sum_(x))
        tape.backward(loss)
        g1 = x.grad
        before = g1.copy()
        tape.backward(loss)
    assert np.array_equal(g1, before)
    assert np.array_equal(x.grad, 2 * g1)


def test_float64_contributions_keep_a_float32_gradient():
    # both the first write and a later sum are rounded once to the tensor's dtype
    x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    g = np.array([1.0, 1e-9, 2.0 ** -30])
    ad._accum(x, g)
    first = x.grad
    ad._accum(x, g)
    assert first.dtype == x.grad.dtype == np.float32
    assert np.array_equal(first, g.astype(np.float32))
    assert np.array_equal(x.grad, (g.astype(np.float32) + g).astype(np.float32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bitwise_equal_to_where_form(dtype):
    hi = 100.0 if dtype == np.float32 else 700.0
    x = np.concatenate([np.linspace(-hi, hi, 20001), [0.0, -0.0, -hi, hi]]).astype(dtype)
    got = ad.sigmoid(Tensor(x)).numpy()
    want = sigmoid_where_reference(x)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(3))
def test_bce_dice_one_record_matches_references(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, (2, 3, 5, 5))
    p[0, 0, 0, :2] = (0.0, 1.0)   # clamped
    gt = (rng.random(p.shape) < 0.3).astype(np.float64)
    x = _t(p)
    with Tape() as tape:
        loss = ad.bce_dice(x, _t(gt, False))
    assert len(tape.records) == 1
    want = bce_reference(p, gt) + dice_reference(np.clip(p, 1e-7, 1 - 1e-7), gt)
    assert loss.item() == pytest.approx(want, rel=1e-12)


def test_bce_dice_gradient_zero_where_clamped():
    x = _t([[1e-9, 0.3, 1.0 - 1e-9, 0.7]])
    gt = _t([[1.0, 0.0, 0.0, 1.0]], False)
    with Tape() as tape:
        tape.backward(ad.bce_dice(x, gt))
    assert x.grad[0, 0] == 0.0 and x.grad[0, 2] == 0.0
    assert np.all(x.grad[0, [1, 3]] != 0.0)


def test_bce_dice_rejects_bad_ground_truth():
    p = _t(np.full((1, 2, 2), 0.5))
    with pytest.raises(DataError):
        ad.bce_dice(p, _t(np.full((1, 2, 2), 0.5), False))
    with pytest.raises(ShapeError):
        ad.bce_dice(p, _t(np.zeros((1, 2, 3)), False))
    with pytest.raises(ContractError):
        ad.bce_dice(p, _t(np.zeros((1, 2, 2))))


def test_backward_requires_scalar():
    x = _t([1.0, 2.0])
    with Tape() as tape:
        y = ad.mul(x, 2.0)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_non_finite_result_raises():
    # finite inputs whose result overflows; numpy's own warning is silenced
    # so that the op's check is what fires
    big = _t([1e200, 1.0])
    with Tape(), np.errstate(over="ignore"):
        with pytest.raises(NumericError):
            ad.mul(big, big)
        with pytest.raises(NumericError):
            ad.add(_t([1.7e308]), _t([1.7e308]))
        with pytest.raises(NumericError):
            ad.linear(_t([[1e200, 1e200]]), _t([[1e200], [1e200]]))


# every public op, as (input shape, the op applied to an input x)
_NAN_CASES = {
    "add": ((2, 3), lambda x: ad.add(x, 1.0)),
    "sub": ((2, 3), lambda x: ad.sub(x, 1.0)),
    "mul": ((2, 3), lambda x: ad.mul(x, 2.0)),
    "abs_": ((2, 3), ad.abs_),
    "tanh": ((2, 3), ad.tanh),
    "sigmoid": ((2, 3), ad.sigmoid),
    "gelu": ((2, 3), ad.gelu),
    "bce_dice": ((2, 3), lambda x: ad.bce_dice(x, _t(np.zeros((2, 3)), False))),
    "mean": ((2, 3), ad.mean),
    "reshape": ((2, 3), lambda x: ad.reshape(x, (3, 2))),
    "transpose": ((2, 3), lambda x: ad.transpose(x, (1, 0))),
    "concat": ((2, 3), lambda x: ad.concat([x, x], 0)),
    "slice_": ((2, 3), lambda x: ad.slice_(x, (slice(0, 1),))),
    "permute_rows": ((1, 3, 2), lambda x: ad.permute_rows(
        x, np.array([2, 0, 1]), np.array([1, 2, 0]), (1, 3, 2))),
    "linear": ((2, 3), lambda x: ad.linear(x, _t(np.ones((3, 4)), False))),
    "window_attention": ((2, 4, 12), lambda x: ad.window_attention(
        x, _t(np.zeros((9, 2)), False), np.zeros((4, 4), dtype=int), None, 2, 0.5)),
    "layer_norm": ((2, 3), lambda x: ad.layer_norm(
        x, _t(np.ones(3), False), _t(np.zeros(3), False))),
}


@pytest.mark.parametrize("name", sorted(_NAN_CASES))
def test_a_nan_input_raises(name, rng):
    shape, op = _NAN_CASES[name]
    x0 = rng.uniform(0.1, 0.9, size=shape)
    x0.flat[0] = np.nan
    for recording in (False, True):
        x = _t(x0, grad=recording)
        with Tape() if recording else contextlib.nullcontext():
            with pytest.raises(NumericError, match="non-finite"):
                op(x)


# autodiff functions that are not ops
NOT_OPS = {"grad_check", "grad_check_params", "active_tape"}


def _public_ops():
    return sorted(name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                  and not name.startswith("_") and name not in NOT_OPS)


def test_every_op_has_a_caller_in_the_program_and_a_gradient_case(monkeypatch):
    """An op that only tests reach belongs in tests/oracles.py; every op the
    program records is checked by the finite-difference sweep and by the
    NaN test."""
    ops = _public_ops()
    package = Path(ad.__file__).parent
    program = "".join(p.read_text() for p in sorted(package.glob("*.py"))
                      if p.name != "autodiff.py")
    assert [op for op in ops if not re.search(rf"\bad\.{op}\(", program)] == []

    calls = dict.fromkeys(ops, 0)

    def counted(op, fn):
        def wrapper(*args, **kwargs):
            calls[op] += 1
            return fn(*args, **kwargs)
        return wrapper

    for op in ops:
        monkeypatch.setattr(ad, op, counted(op, getattr(ad, op)))
    for f, x0 in _op_cases(np.random.default_rng(0)).values():
        f(_t(x0))
    assert [op for op in ops if not calls[op]] == []
    assert sorted(_NAN_CASES) == ops


def test_mixed_dtypes_rejected():
    a = Tensor(np.ones(3, dtype=np.float32))
    b = Tensor(np.ones(3, dtype=np.float64))
    with pytest.raises(ContractError):
        ad.add(a, b)
    with pytest.raises(ContractError):  # the op writes into x's dtype
        ad.layer_norm(a, b, a)


def test_abs_gradient_is_sign():
    x = _t([-3.0, 4.0])
    with Tape() as tape:
        tape.backward(sum_(ad.abs_(x)))
    np.testing.assert_allclose(x.grad, [-1.0, 1.0])


def test_gather_rows_accumulates_repeated_indices():
    table = _t(np.eye(3))
    with Tape() as tape:
        picked = gather_rows(table, np.array([1, 1, 1]))
        tape.backward(sum_(picked))
    assert table.grad[1].sum() == 9.0 or np.allclose(table.grad[1], 3.0)


def test_broadcast_backward_shapes():
    a = _t(np.ones((2, 3)))
    b = _t(np.ones((3,)))
    with Tape() as tape:
        tape.backward(sum_(ad.add(a, b)))
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (3,)
    np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])


def test_softmax_matches_reference(rng):
    x = rng.standard_normal((4, 7))
    got = softmax_lastdim(_t(x)).numpy()
    np.testing.assert_allclose(got, softmax_reference(x), atol=1e-12)


def test_masked_softmax_exact_zeros_rows_sum_to_one(rng):
    x = rng.standard_normal((5, 6))
    blocked = rng.random((5, 6)) < 0.4
    blocked[:, 0] = False  # keep one column open everywhere
    p = softmax_lastdim(_t(x), blocked=blocked).numpy()
    assert np.all(p[blocked] == 0.0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(p, softmax_reference(x, blocked), atol=1e-12)


def test_masked_softmax_fully_blocked_row_rejected():
    x = _t(np.zeros((1, 3)))
    blocked = np.ones((1, 3), dtype=bool)
    with pytest.raises(ContractError):
        softmax_lastdim(x, blocked=blocked)


def test_masked_softmax_blocked_logit_cannot_overflow():
    x = _t([[0.0, 1000.0]])
    p = softmax_lastdim(x, blocked=np.array([[False, True]])).numpy()
    assert np.array_equal(p, [[1.0, 0.0]])


def _attention_inputs(rng, nw=4, t=4, heads=2, hd=2):
    qkv = _t(rng.standard_normal((nw, t, 3 * heads * hd)))
    table = _t(rng.standard_normal((9, heads)))
    return qkv, table, rng.integers(0, 9, size=(t, t))


def test_window_attention_mask_contract(rng):
    qkv, table, rel = _attention_inputs(rng)
    row_blocked = np.zeros((2, 4, 4), dtype=bool)
    row_blocked[1, 2, :] = True
    with pytest.raises(ContractError):
        ad.window_attention(qkv, table, rel, row_blocked, 2, 0.5)
    with pytest.raises(ContractError):  # 3 masks do not divide 4 windows
        ad.window_attention(qkv, table, rel, np.zeros((3, 4, 4), dtype=bool), 2, 0.5)
    with pytest.raises(ContractError):
        ad.window_attention(qkv, table, rel, np.zeros((2, 4, 3), dtype=bool), 2, 0.5)
    with pytest.raises(ShapeError):
        ad.window_attention(qkv, table, rel, None, 5, 0.5)


def test_window_attention_record_keeps_no_array_of_its_own_but_the_weights(rng):
    # the backward reads queries, keys and values through views of qkv
    qkv, table, rel = _attention_inputs(rng)
    with Tape() as tape:
        _, attn = ad.window_attention(qkv, table, rel, None, 2, 0.5)
    (rec,) = tape.records
    arrays = [c.cell_contents for c in rec.backward.__closure__
              if isinstance(c.cell_contents, np.ndarray)]
    assert any(a is attn for a in arrays)
    own = [a for a in arrays
           if a is not attn and a is not rel and not np.shares_memory(a, qkv.data)]
    assert not own


def test_window_attention_matches_per_head_softmax(rng):
    """One record; the mask repeats over images; blocked weights are exactly 0."""
    qkv, table, rel = _attention_inputs(rng)
    blocked = rng.random((2, 4, 4)) < 0.4
    blocked[:, :, 0] = False
    with Tape() as tape:
        out, attn = ad.window_attention(qkv, table, rel, blocked, 2, 0.7)
    assert len(tape.records) == 1
    q, k, v = (qkv.numpy()[..., 4 * i:4 * i + 4].reshape(4, 4, 2, 2).transpose(0, 2, 1, 3)
               for i in range(3))
    logits = q @ k.transpose(0, 1, 3, 2) * 0.7 + table.numpy()[rel].transpose(2, 0, 1)
    mask = np.tile(blocked, (2, 1, 1))[:, None]
    want = softmax_reference(logits, np.broadcast_to(mask, logits.shape))
    np.testing.assert_allclose(attn, want, rtol=1e-12, atol=1e-14)
    assert np.all(attn[np.broadcast_to(mask, attn.shape)] == 0.0)
    np.testing.assert_allclose(out.numpy(), (want @ v).transpose(0, 2, 1, 3).reshape(4, 4, 4),
                               rtol=1e-12, atol=1e-14)


def test_layer_norm_matches_reference(rng):
    x = rng.standard_normal((3, 5))
    gamma = rng.uniform(0.5, 1.5, 5)
    beta = rng.standard_normal(5)
    got = ad.layer_norm(_t(x), _t(gamma), _t(beta)).numpy()
    np.testing.assert_allclose(got, layer_norm_reference(x, gamma, beta), atol=1e-10)


def test_layer_norm_bad_affine_shape():
    x = _t(np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        ad.layer_norm(x, _t(np.ones(3)), _t(np.zeros(3)))


def test_gelu_matches_reference(rng):
    x = rng.standard_normal(20)
    np.testing.assert_allclose(ad.gelu(_t(x)).numpy(), gelu_reference(x), atol=1e-10)


def test_grad_check_flags_wrong_gradient():
    # a deliberately broken "gradient": treat x^2 as if it were x^3
    x = _t([1.0, -0.5])

    def f(t):
        y = ad.mul(t, t)
        return sum_(ad.mul(y, Tensor(t.data)))  # value x^3 but grad of x^2 * const

    err = grad_check(f, x)
    assert err > 1e-2


def test_grad_check_params_reports_per_tensor(rng):
    w = _t(rng.standard_normal((3, 2)))
    b = _t(rng.standard_normal(2))
    x = rng.standard_normal((4, 3))

    def f():
        return sum_(ad.add(matmul(_t(x, False), w), b))

    errs = grad_check_params(f, [("w", w), ("b", b)], rng=np.random.default_rng(3))
    assert set(errs) == {"w", "b"}
    assert max(errs.values()) < 1e-6


def test_grad_check_params_leaves_every_grad_as_it_found_it(rng):
    w = _t(rng.standard_normal((3, 2)))
    b = _t(rng.standard_normal(2))
    c = _t(rng.standard_normal(2))
    x = _t(rng.standard_normal((4, 3)), False)
    earlier_w = np.ones((3, 2))
    earlier_b = np.zeros(2)
    w.grad, b.grad = earlier_w, earlier_b

    def f():
        return sum_(ad.mul(ad.add(matmul(x, w), b), c))

    errs = grad_check_params(f, [("w", w)], rng=np.random.default_rng(3))
    assert errs["w"] < 1e-6
    # the checked tensor gets its earlier gradient back; unchecked leaves get
    # none at all: no array where there was none, no new one where there was
    assert w.grad is earlier_w
    assert b.grad is earlier_b
    assert c.grad is None


def test_grad_check_coords_pick_the_same_entries_as_the_full_sweep(rng):
    x0 = rng.standard_normal((3, 4))

    def f(t):
        return sum_(ad.mul(ad.tanh(t), ad.tanh(t)))

    coords = [(0, 1), (2, 3), (1, 0)]
    picked = grad_check(f, _t(x0), coords=coords)
    each = [grad_check(f, _t(x0), coords=[c]) for c in coords]
    assert picked == max(each) <= grad_check(f, _t(x0)) < 1e-8
    # a 0-d tensor has one coordinate, the empty tuple
    assert grad_check(lambda t: ad.mul(t, t), _t(0.7)) == grad_check(
        lambda t: ad.mul(t, t), _t(0.7), coords=[()]) < 1e-8


def test_grad_check_params_requires_float64():
    w = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(ContractError):
        grad_check_params(lambda: sum_(w), [("w", w)])


# The rewritten kernels against the composed formulas in oracles.py. Channel
# sums are GEMVs now, so values that pass through one may differ from numpy's
# pairwise sums at the rounding level: the bound is relative to the largest
# magnitude of the compared array, 1e-12 in float64 and 4 ulp in float32.
# Chains that only moved in place must stay bit-identical.
KERNEL_DTYPES = (np.float64, np.float32)


def _assert_near(got, want):
    assert got.dtype == want.dtype
    tol = 1e-12 if want.dtype == np.float64 else 4 * np.finfo(np.float32).eps
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def _run(op, inputs, g):
    """Forward op on Tensors of inputs, then backward of sum(out * g)."""
    ts = [Tensor(a, requires_grad=True) for a in inputs]
    with Tape() as tape:
        out = op(*ts)
        tape.backward(sum_(ad.mul(out, Tensor(g))))
    return out.numpy(), [t.grad for t in ts]


@pytest.mark.parametrize("n", [1, 2, 3, 9, 16, 25, 49])
def test_row_max_is_np_max(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((3, 4, n)).astype(np.float32)
    a[0, 0] = -np.inf
    a[0, 1, -1] = -np.inf
    a[1, 0, n // 2] = 1e30
    a[1, 1, -1] = 1e30
    a[2, 3] = a[2, 3, :1]  # ties across the row
    got = ad._row_max(a)
    assert got.shape == (3, 4, 1)
    assert np.array_equal(got, a.max(axis=-1, keepdims=True))


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
def test_gelu_bitwise_with_and_without_tape(dtype):
    rng = np.random.default_rng(5)
    x = (rng.standard_normal((8, 33)) * 3).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    want, want_grad = gelu_composed(x, g)
    plain = ad.gelu(Tensor(x)).numpy()
    with Tape():  # recording, but no input needs a gradient
        untracked = ad.gelu(Tensor(x)).numpy()
    got, (grad,) = _run(ad.gelu, [x], g)
    for arr in (plain, untracked, got):
        assert arr.dtype == dtype
        assert np.array_equal(arr, want)
    # the gradient is taken in factored form, so it matches the composed
    # formula to rounding, not bit for bit
    _assert_near(grad, want_grad)


def test_gelu_gradient_matches_the_composed_formula(rng):
    # the factored 0.5 (1 + t) (1 + x (1 - t) du) against
    # 0.5 (1 + t) + 0.5 x (1 - t^2) du; where t is near -1 the composed
    # 1 - t * t cancels, so the error is taken relative to max(1, |grad|)
    x = np.concatenate([rng.standard_normal(500) * 3, np.linspace(-12, 12, 481)])
    g = rng.standard_normal(x.shape)
    _, want = gelu_composed(x, g)
    _, (grad,) = _run(ad.gelu, [x], g)
    np.testing.assert_allclose(grad, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
def test_sigmoid_bitwise_equal_to_composed(dtype):
    rng = np.random.default_rng(6)
    x = (rng.standard_normal((8, 33)) * 10).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    want, want_grad = sigmoid_composed(x, g)
    got, (grad,) = _run(ad.sigmoid, [x], g)
    assert np.array_equal(got, want)
    assert np.array_equal(grad, want_grad)


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
@pytest.mark.parametrize("strided", [False, True])
def test_layer_norm_matches_composed(dtype, strided):
    rng = np.random.default_rng(7)
    x = (rng.standard_normal((2, 24, 17)) * 2 + 1).astype(dtype)
    if strided:  # a transposed view: the op folds rows of a copy
        x = x.transpose(0, 2, 1)
    else:
        x = x.reshape(2, 17, 24)
    gamma = rng.uniform(0.5, 1.5, 24).astype(dtype)
    beta = rng.standard_normal(24).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    want = layer_norm_composed(x, gamma, beta, g)
    got, grads = _run(ad.layer_norm, [x, gamma, beta], g)
    for a, b in zip([got] + grads, want):
        _assert_near(a, b)


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
@pytest.mark.parametrize("masked", [False, True])
def test_softmax_matches_composed(dtype, masked):
    rng = np.random.default_rng(8)
    x = (rng.standard_normal((3, 5, 9)) * 4).astype(dtype)
    blocked = None
    if masked:
        blocked = rng.random(x.shape) < 0.5
        blocked[..., 4] = False
    g = rng.standard_normal(x.shape).astype(dtype)
    want = masked_softmax_composed(x, blocked)
    want_grad = want * (g - (g * want).sum(axis=-1, keepdims=True))
    got, (grad,) = _run(lambda t: softmax_lastdim(t, blocked), [x], g)
    _assert_near(got, want)
    _assert_near(grad, want_grad)


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
@pytest.mark.parametrize("masked", [False, True])
def test_window_attention_matches_composed(dtype, masked):
    rng = np.random.default_rng(9)
    nw, t, heads, hd = 8, 16, 2, 4
    qkv = rng.standard_normal((nw, t, 3 * heads * hd)).astype(dtype)
    table = rng.standard_normal((49, heads)).astype(dtype)
    rel = rng.integers(0, 49, size=(t, t))
    blocked = None
    if masked:  # two masks, each repeated over four images
        blocked = rng.random((2, t, t)) < 0.5
        blocked[:, np.arange(t), np.arange(t)] = False
    g = rng.standard_normal((nw, t, heads * hd)).astype(dtype)
    out_w, attn_w, dqkv_w, dtable_w = window_attention_composed(
        qkv, table, rel, blocked, heads, 0.5, g)
    attn = []

    def op(a, tb):
        out, weights = ad.window_attention(a, tb, rel, blocked, heads, 0.5)
        attn.append(weights)
        return out

    got, (dqkv, dtable) = _run(op, [qkv, table], g)
    _assert_near(got, out_w)
    _assert_near(attn[0], attn_w)
    if masked:
        assert np.all(attn[0][np.broadcast_to(attn_w == 0, attn[0].shape)] == 0)
    _assert_near(dqkv, dqkv_w)
    _assert_near(dtable, dtable_w)


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
def test_linear_bias_gradient_is_the_column_sum(dtype):
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 64, 5)).astype(dtype)
    w = rng.standard_normal((5, 23)).astype(dtype)
    b = rng.standard_normal(23).astype(dtype)
    g = rng.standard_normal((4, 64, 23)).astype(dtype)
    _, (_, _, gb) = _run(ad.linear, [x, w, b], g)
    _assert_near(gb, g.reshape(-1, 23).sum(axis=0))


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
def test_bce_dice_matches_composed(dtype):
    rng = np.random.default_rng(11)
    p = rng.uniform(0.0, 1.0, (2, 3, 6, 6)).astype(dtype)
    p[0, 0, 0, :2] = (0.0, 1.0)  # clamped
    y = (rng.random(p.shape) < 0.3).astype(dtype)
    want, want_grad = bce_dice_composed(p, y)
    x = Tensor(p, requires_grad=True)
    with Tape() as tape:
        loss = ad.bce_dice(x, Tensor(y))
        tape.backward(loss)
    assert loss.numpy() == np.asarray(want, dtype=dtype)
    assert np.array_equal(x.grad, want_grad)
