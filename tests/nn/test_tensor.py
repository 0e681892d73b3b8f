"""Tests of the autodiff tape machinery in repro.nn.tensor."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, no_grad
from repro.nn.tensor import _unbroadcast


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_from_scalar(self):
        assert Tensor(2.5).item() == 2.5

    def test_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert np.array_equal(a.data, b.data)

    def test_requires_grad_default_off(self):
        assert not Tensor([1.0]).requires_grad

    def test_item_rejects_multi_element(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_len_and_size_and_ndim(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2


class TestBackward:
    def test_scalar_chain(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 7
        y.backward()
        assert np.allclose(x.grad, 7.0)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x).backward()
        (x * x).backward()
        assert np.allclose(x.grad, 8.0)

    def test_zero_grad(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_sums_paths(self):
        # z = (x*2) + (x*3): dz/dx = 5
        x = Tensor(1.0, requires_grad=True)
        z = x * 2.0 + x * 3.0
        z.backward()
        assert np.allclose(x.grad, 5.0)

    def test_shared_subexpression(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x
        z = y + y  # dz/dx = 2 * 2x = 8
        z.backward()
        assert np.allclose(x.grad, 8.0)

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(1.0).backward()

    def test_backward_shape_mismatch_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(ValueError):
            y.backward(np.ones(3))

    def test_explicit_grad_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 3.0
        y.backward(np.array([1.0, 10.0]))
        assert np.allclose(x.grad, [3.0, 30.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.backward()
        assert np.allclose(x.grad, 1.0)

    def test_non_grad_parent_receives_nothing(self):
        x = Tensor(1.0, requires_grad=True)
        c = Tensor(5.0)
        (x * c).backward()
        assert c.grad is None
        assert np.allclose(x.grad, 5.0)


class TestNoGrad:
    def test_no_grad_blocks_tape(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            pass
        assert (x * 2.0).requires_grad

    def test_no_grad_nested(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad

    def test_detach_cuts_tape(self):
        x = Tensor(1.0, requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad

    def test_clone_preserves_flag(self):
        x = Tensor([1.0], requires_grad=True)
        c = x.clone()
        assert c.requires_grad
        c.data[0] = 9.0
        assert x.data[0] == 1.0


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert _unbroadcast(g, (2, 3)).shape == (2, 3)

    def test_prepended_axis(self):
        g = np.ones((4, 2, 3))
        out = _unbroadcast(g, (2, 3))
        assert out.shape == (2, 3)
        assert np.allclose(out, 4.0)

    def test_stretched_axis(self):
        g = np.ones((2, 3))
        out = _unbroadcast(g, (2, 1))
        assert out.shape == (2, 1)
        assert np.allclose(out, 3.0)

    def test_scalar_target(self):
        g = np.ones((2, 3))
        out = _unbroadcast(g, ())
        assert out.shape == ()
        assert np.allclose(out, 6.0)

    def test_broadcast_gradients_through_add(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (x + b).sum().backward()
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, 2.0)
