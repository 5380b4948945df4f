import numpy as np
import pytest

from skgedrive import autodiff as ad, nn
from skgedrive.autodiff import Tape, Tensor
from skgedrive.errors import ShapeError
from skgedrive.training import AdamW

from oracles import gelu_reference, gru_reference, layer_norm_reference, sum_


def _f64(module):
    module.astype(np.float64)
    return module


def test_linear_forward_matches_matmul(rng):
    lin = _f64(nn.Linear(4, 3, rng))
    x = rng.standard_normal((5, 4))
    got = lin(Tensor(x)).numpy()
    want = x @ lin.weight.numpy() + lin.bias.numpy()
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_linear_without_bias(rng):
    lin = nn.Linear(4, 3, rng, bias=False)
    assert lin.bias is None
    assert len(list(lin.named_parameters())) == 1


def test_linear_rejects_wrong_last_dim(rng):
    lin = nn.Linear(4, 3, rng)
    with pytest.raises(ShapeError):
        lin(Tensor(np.zeros((2, 5), dtype=np.float32)))


def test_linear_applies_to_leading_batch_dims(rng):
    lin = _f64(nn.Linear(3, 2, rng))
    x = rng.standard_normal((2, 5, 7, 3))
    assert lin(Tensor(x)).shape == (2, 5, 7, 2)


def test_xavier_uniform_bound():
    vals = nn.xavier_uniform(np.random.default_rng(1), 30, 20, (30, 20))
    bound = np.sqrt(6.0 / 50.0)
    assert np.abs(vals).max() <= bound
    assert np.abs(vals).max() > 0.5 * bound


def test_trunc_normal_clipped():
    vals = nn.trunc_normal(np.random.default_rng(2), (4000,), std=0.1)
    assert np.abs(vals).max() <= 0.2


def test_layer_norm_module_matches_reference(rng):
    ln = _f64(nn.LayerNorm(6))
    ln.gamma.data = rng.uniform(0.5, 1.5, 6)
    ln.beta.data = rng.standard_normal(6)
    x = rng.standard_normal((3, 6))
    np.testing.assert_allclose(
        ln(Tensor(x)).numpy(),
        layer_norm_reference(x, ln.gamma.numpy(), ln.beta.numpy()),
        atol=1e-10)


def test_mlp_is_fc2_gelu_fc1(rng):
    mlp = _f64(nn.Mlp(4, 2.0, rng))
    assert mlp.fc1.weight.shape == (4, 8)
    x = rng.standard_normal((3, 4))
    hidden = gelu_reference(x @ mlp.fc1.weight.numpy() + mlp.fc1.bias.numpy())
    want = hidden @ mlp.fc2.weight.numpy() + mlp.fc2.bias.numpy()
    np.testing.assert_allclose(mlp(Tensor(x)).numpy(), want, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_gru_cell_matches_reference(seed):
    rng = np.random.default_rng(seed)
    cell = _f64(nn.GRUCell(3, 4, rng))
    x = rng.standard_normal((2, 3))
    h = rng.standard_normal((2, 4))
    got = cell(Tensor(x), Tensor(h)).numpy()
    want = gru_reference(x, h, cell.w_ih.numpy(), cell.w_hh.numpy(),
                         cell.b_ih.numpy(), cell.b_hh.numpy())
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_gru_step_records_fourteen_ops(rng):
    # two linears, one add and one sigmoid over all three gate blocks, four
    # slices (r, z, i_n, h_n), the candidate's mul/add/tanh, then n + z (h - n)
    cell = nn.GRUCell(5, 8, rng)
    with Tape() as tape:
        cell(Tensor(rng.standard_normal((2, 5)).astype(np.float32)),
             Tensor(rng.standard_normal((2, 8)).astype(np.float32)))
    assert len(tape.records) == 14


def test_gru_cell_gradients(rng):
    cell = _f64(nn.GRUCell(2, 3, rng))
    x0 = rng.standard_normal((1, 2))
    h0 = rng.standard_normal((1, 3))

    def f():
        return sum_(cell(Tensor(x0), Tensor(h0)))

    errs = ad.grad_check_params(f, list(cell.named_parameters()),
                                coords_per_tensor=4, rng=np.random.default_rng(9))
    assert max(errs.values()) < 1e-6, errs


def test_named_parameters_nested_modules(rng):
    class Stack(nn.Module):
        def __init__(self):
            self.blocks = [nn.Linear(2, 2, rng) for _ in range(2)]
            self.norm = nn.LayerNorm(2)

    names = [n for n, _ in Stack().named_parameters()]
    assert "blocks.0.weight" in names
    assert "blocks.1.bias" in names
    assert "norm.gamma" in names
    assert len(names) == 6


def test_zero_grad_clears(rng):
    lin = _f64(nn.Linear(2, 1, rng))
    with Tape() as tape:
        tape.backward(sum_(lin(Tensor(np.ones((1, 2))))))
    assert lin.weight.grad is not None
    AdamW(lin.parameters()).zero_grad()
    assert lin.weight.grad is None and lin.bias.grad is None


def test_astype_converts_in_place(rng):
    lin = nn.Linear(2, 2, rng)
    assert lin.weight.dtype == np.float32
    lin.astype(np.float64)
    assert lin.weight.dtype == np.float64
    assert lin.bias.dtype == np.float64
