import numpy as np
import pytest

from skgedrive import autodiff as ad
from skgedrive.autodiff import Tape, Tensor, grad_check, grad_check_params
from skgedrive.errors import ContractError, DataError, NumericError, ShapeError

from oracles import (bce_reference, dice_reference, gelu_reference,
                     layer_norm_reference, sigmoid_where_reference,
                     softmax_reference)

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
    pos = np.abs(_rand(rng, (2, 3))) + 0.5
    nonzero = np.sign(_rand(rng, (2, 3))) * (np.abs(_rand(rng, (2, 3))) + 0.5)
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
        "add": (lambda x: ad.sum_(ad.add(x, _t(b3, False))), a23),
        "add_broadcast_rhs": (lambda x: ad.sum_(ad.add(_t(a23, False), x)), b3),
        "sub": (lambda x: ad.sum_(ad.sub(x, _t(b3, False))), a23),
        "mul": (lambda x: ad.sum_(ad.mul(x, _t(b3, False))), a23),
        "div": (lambda x: ad.sum_(ad.div(_t(a23, False), x)), nonzero),
        "pow_cube": (lambda x: ad.sum_(ad.pow_(x, 3.0)), a23),
        "pow_sqrt": (lambda x: ad.sum_(ad.pow_(x, 0.5)), pos),
        "abs": (lambda x: ad.sum_(ad.abs_(x)), away_from_zero),
        "clamp": (lambda x: ad.sum_(ad.clamp(x, -1.3, 1.3)), a23),
        "exp": (lambda x: ad.sum_(ad.exp(x)), a23),
        "log": (lambda x: ad.sum_(ad.log(x)), pos),
        "tanh": (lambda x: ad.sum_(ad.tanh(x)), a23),
        "sigmoid": (lambda x: ad.sum_(ad.sigmoid(x)), a23),
        "gelu": (lambda x: ad.sum_(ad.gelu(x)), a23),
        "sum_axis": (lambda x: ad.sum_(ad.mul(ad.sum_(x, axis=0), _t(b3, False))), a23),
        "mean_all": (lambda x: ad.mean(x), a234),
        "mean_axis_tuple": (
            lambda x: ad.sum_(ad.mul(ad.mean(x, axis=(0, 2)), _t(b3, False))), a234),
        "reshape": (lambda x: ad.sum_(ad.mul(ad.reshape(x, (6,)), w6)), a23),
        "transpose": (lambda x: ad.sum_(ad.mul(ad.transpose(x, (2, 0, 1)), w423)), a234),
        "concat": (lambda x: ad.sum_(ad.mul(ad.concat([x, _t(a23, False)], 0), w43)), a23),
        "slice": (lambda x: ad.sum_(ad.slice_(x, (slice(0, 2), slice(1, 3)))), a23),
        "pad2d": (lambda x: ad.sum_(ad.mul(ad.pad2d(x, ((1, 0), (0, 2))), w35)), a23),
        "roll2d": (lambda x: ad.sum_(ad.mul(ad.roll2d(x, (1, -1), (0, 1)), w23)), a23),
        "gather_rows": (lambda x: ad.sum_(ad.mul(ad.gather_rows(x, idx), w63)), a23),
        "matmul_lhs": (lambda x: ad.sum_(ad.matmul(x, _t(m42, False))), m34),
        "matmul_rhs": (lambda x: ad.sum_(ad.matmul(_t(m34, False), x)), m42),
        "matmul_batched": (lambda x: ad.sum_(ad.matmul(x, m242)), a234),
        "matmul_rhs_under_3d_lhs": (
            lambda x: ad.sum_(ad.mul(ad.matmul(_t(a234, False), x), w232)), m42),
        "linear_x": (
            lambda x: ad.sum_(ad.mul(ad.linear(x, _t(m43, False), _t(b3, False)), w2323)),
            x2324),
        "linear_w": (
            lambda w: ad.sum_(ad.mul(ad.linear(_t(x2324, False), w, _t(b3, False)), w2323)),
            m43),
        "linear_bias": (
            lambda b: ad.sum_(ad.mul(ad.linear(_t(x2324, False), _t(m43, False), b), w2323)),
            b3),
        "linear_no_bias": (
            lambda w: ad.sum_(ad.mul(ad.linear(_t(x2324, False), w), w2323)), m43),
        "bce_dice": (lambda x: ad.bce_dice(x, binary), prob),
        "softmax": (lambda x: ad.sum_(ad.mul(ad.softmax_lastdim(x), w234)), a234),
        "softmax_masked": (
            lambda x: ad.sum_(ad.mul(ad.softmax_lastdim(x, blocked=mask), w233)),
            _rand(rng, (2, 3, 3))),
        "layer_norm": (
            lambda x: ad.sum_(ad.mul(ad.layer_norm(x, _t(gamma, False), _t(beta, False)),
                                     w234)), a234),
        "layer_norm_gamma": (
            lambda g: ad.sum_(ad.layer_norm(_t(a234, False), g, _t(beta, False))), gamma),
        "layer_norm_beta": (
            lambda b: ad.sum_(ad.layer_norm(_t(a234, False), _t(gamma, False), b)), beta),
    }
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
    err = grad_check(lambda x: ad.sum_(ad.matmul(x, b)), a)
    assert err < 1e-6


def test_leaf_gradients_accumulate_across_uses():
    x = _t([1.0, 2.0])
    with Tape() as tape:
        y = ad.sum_(ad.add(ad.mul(x, 3.0), x))
        tape.backward(y)
    np.testing.assert_allclose(x.grad, [4.0, 4.0])


def test_backward_twice_accumulates_leaf_grads():
    x = _t([1.5])
    with Tape() as tape:
        y = ad.sum_(ad.mul(x, x))
        tape.backward(y)
        g1 = x.grad.copy()
        tape.backward(y)
    np.testing.assert_allclose(x.grad, 2 * g1)


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
        loss = ad.add(ad.sum_(ad.mul(ad.sub(x, y), w2)),
                      ad.sum_(ad.mul(ad.add(x, y), w1)))
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
        weighted = ad.sum_(ad.mul(x, w))
        loss = ad.add(weighted, ad.sum_(x))
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
        loss = ad.add(ad.sum_(ad.mul(x, w)), ad.sum_(x))
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
    with Tape():
        with pytest.raises(NumericError):
            ad.log(_t([0.0, 1.0]))
        with pytest.raises(NumericError):
            ad.exp(_t([1000.0]))
        with pytest.raises(NumericError):
            ad.div(_t([1.0]), _t([0.0]))


def test_mixed_dtypes_rejected():
    a = Tensor(np.ones(3, dtype=np.float32))
    b = Tensor(np.ones(3, dtype=np.float64))
    with pytest.raises(ContractError):
        ad.add(a, b)


def test_detach_blocks_gradient():
    x = _t([2.0])
    with Tape() as tape:
        y = ad.sum_(ad.mul(x.detach(), x))
        tape.backward(y)
    np.testing.assert_allclose(x.grad, [2.0])


def test_clamp_passes_gradient_only_inside():
    x = _t([-2.0, 0.0, 2.0])
    with Tape() as tape:
        tape.backward(ad.sum_(ad.clamp(x, -1.0, 1.0)))
    np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


def test_abs_gradient_is_sign():
    x = _t([-3.0, 4.0])
    with Tape() as tape:
        tape.backward(ad.sum_(ad.abs_(x)))
    np.testing.assert_allclose(x.grad, [-1.0, 1.0])


def test_gather_rows_accumulates_repeated_indices():
    table = _t(np.eye(3))
    with Tape() as tape:
        picked = ad.gather_rows(table, np.array([1, 1, 1]))
        tape.backward(ad.sum_(picked))
    assert table.grad[1].sum() == 9.0 or np.allclose(table.grad[1], 3.0)


def test_broadcast_backward_shapes():
    a = _t(np.ones((2, 3)))
    b = _t(np.ones((3,)))
    with Tape() as tape:
        tape.backward(ad.sum_(ad.add(a, b)))
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (3,)
    np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])


def test_softmax_matches_reference(rng):
    x = rng.standard_normal((4, 7))
    got = ad.softmax_lastdim(_t(x)).numpy()
    np.testing.assert_allclose(got, softmax_reference(x), atol=1e-12)


def test_masked_softmax_exact_zeros_rows_sum_to_one(rng):
    x = rng.standard_normal((5, 6))
    blocked = rng.random((5, 6)) < 0.4
    blocked[:, 0] = False  # keep one column open everywhere
    p = ad.softmax_lastdim(_t(x), blocked=blocked).numpy()
    assert np.all(p[blocked] == 0.0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(p, softmax_reference(x, blocked), atol=1e-12)


def test_masked_softmax_fully_blocked_row_rejected():
    x = _t(np.zeros((1, 3)))
    blocked = np.ones((1, 3), dtype=bool)
    with pytest.raises(ContractError):
        ad.softmax_lastdim(x, blocked=blocked)


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
        return ad.sum_(ad.mul(y, t.detach()))  # value x^3 but grad of x^2 * const

    err = grad_check(f, x)
    assert err > 1e-2


def test_grad_check_params_reports_per_tensor(rng):
    w = _t(rng.standard_normal((3, 2)))
    b = _t(rng.standard_normal(2))
    x = rng.standard_normal((4, 3))

    def f():
        return ad.sum_(ad.add(ad.matmul(_t(x, False), w), b))

    errs = grad_check_params(f, [("w", w), ("b", b)], rng=np.random.default_rng(3))
    assert set(errs) == {"w", "b"}
    assert max(errs.values()) < 1e-6


def test_grad_check_params_requires_float64():
    w = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(ContractError):
        grad_check_params(lambda: ad.sum_(w), [("w", w)])


def test_tensor_operator_sugar():
    x = _t([2.0])
    with Tape() as tape:
        y = ad.sum_((x * 3.0 + 1.0 - 0.5) / 2.0)
        tape.backward(y)
    np.testing.assert_allclose(y.numpy(), [3.25])
    np.testing.assert_allclose(x.grad, [1.5])
