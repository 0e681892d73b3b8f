"""Finite-difference gradient checks for every differentiable op.

Central differences with h = 1e-6 on float64 give ~1e-9 truncation error;
we assert agreement to 1e-5 relative / 1e-7 absolute everywhere.
"""

import numpy as np
import pytest

from repro.nn import Tensor, ops
from repro.nn import functional as F


def numeric_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return grad


def check(op_fn, *shapes, wrt=0, seed=0, positive=False):
    """Gradient-check op_fn(*tensors).sum() against finite differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    if positive:
        arrays = [np.abs(a) + 0.5 for a in arrays]

    def scalar(x):
        inputs = [a.copy() for a in arrays]
        inputs[wrt] = x
        tensors = [Tensor(a) for a in inputs]
        return float(op_fn(*tensors).sum().data)

    tensors = [Tensor(a, requires_grad=(i == wrt)) for i, a in enumerate(arrays)]
    out = op_fn(*tensors).sum()
    out.backward()
    analytic = tensors[wrt].grad
    numeric = numeric_grad(scalar, arrays[wrt].copy())
    assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-7), (
        f"max err {np.abs(analytic - numeric).max():.2e}"
    )


class TestElementwise:
    def test_add(self):
        check(ops.add, (3, 4), (3, 4))

    def test_add_broadcast_rhs(self):
        check(ops.add, (3, 4), (4,), wrt=1)

    def test_sub_lhs(self):
        check(ops.sub, (3, 4), (3, 4), wrt=0)

    def test_sub_rhs(self):
        check(ops.sub, (3, 4), (3, 4), wrt=1)

    def test_mul(self):
        check(ops.mul, (5,), (5,))

    def test_mul_broadcast(self):
        check(ops.mul, (2, 3), (1, 3), wrt=1)

    def test_div_numerator(self):
        check(ops.div, (4,), (4,), wrt=0, positive=True)

    def test_div_denominator(self):
        check(ops.div, (4,), (4,), wrt=1, positive=True)

    def test_neg(self):
        check(ops.neg, (3, 3))

    def test_exp(self):
        check(ops.exp, (3, 3))

    def test_log(self):
        check(ops.log, (5,), positive=True)

    def test_sqrt(self):
        check(ops.sqrt, (5,), positive=True)

    def test_sigmoid(self):
        check(ops.sigmoid, (4, 4))

    def test_relu(self):
        check(ops.relu, (50,), seed=3)

    def test_clip(self):
        check(lambda t: ops.clip(t, -0.5, 0.5), (50,), seed=4)

    def test_relu6(self):
        check(ops.relu6, (20,), seed=5)


class TestLinalgReduce:
    def test_matmul_2d_lhs(self):
        check(ops.matmul, (3, 4), (4, 5), wrt=0)

    def test_matmul_2d_rhs(self):
        check(ops.matmul, (3, 4), (4, 5), wrt=1)

    def test_matmul_vec_rhs(self):
        check(ops.matmul, (3, 4), (4,), wrt=1)

    def test_matmul_vec_lhs(self):
        check(ops.matmul, (4,), (4, 5), wrt=0)

    def test_inner_product(self):
        check(ops.matmul, (6,), (6,), wrt=0)

    def test_sum_all(self):
        check(lambda t: ops.sum_(t), (3, 4))

    def test_sum_axis0(self):
        check(lambda t: ops.sum_(t, axis=0), (3, 4))

    def test_sum_axis1_keepdims(self):
        check(lambda t: ops.sum_(t, axis=1, keepdims=True), (3, 4))

    def test_sum_negative_axis(self):
        check(lambda t: ops.sum_(t, axis=-1), (3, 4))

    def test_sum_axes_tuple(self):
        check(lambda t: ops.sum_(t, axis=(0, 2)), (2, 3, 4))

    def test_mean_all(self):
        check(lambda t: ops.mean(t), (3, 4))

    def test_mean_axis(self):
        check(lambda t: ops.mean(t, axis=(2, 3)), (2, 3, 2, 2))


class TestShape:
    def test_reshape(self):
        check(lambda t: ops.reshape(t, (6,)) * Tensor(np.arange(6.0)), (2, 3))

    def test_transpose_default(self):
        check(lambda t: ops.transpose(t) * Tensor(np.ones((4, 3))), (3, 4))

    def test_transpose_axes(self):
        check(
            lambda t: ops.transpose(t, (2, 0, 1)) * Tensor(np.ones((4, 2, 3))),
            (2, 3, 4),
        )

    def test_getitem_row(self):
        check(lambda t: t[1], (3, 4))

    def test_getitem_scalar_entry(self):
        check(lambda t: t[1, 2], (3, 4))

    def test_pad2d(self):
        check(lambda t: ops.pad2d(t, 2), (1, 2, 3, 3))

    def test_pad2d_zero_is_identity(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        assert ops.pad2d(x, 0) is x


class TestConv:
    def test_conv_wrt_input(self):
        w = np.random.default_rng(1).normal(size=(2, 3, 3, 3))
        check(lambda x: ops.conv2d(x, Tensor(w), padding=1), (2, 3, 5, 5))

    def test_conv_wrt_weight(self):
        check(
            lambda x, w: ops.conv2d(x, w, padding=1),
            (1, 2, 5, 5), (3, 2, 3, 3), wrt=1,
        )

    def test_conv_wrt_bias(self):
        check(
            lambda x, w, b: ops.conv2d(x, w, b),
            (1, 2, 4, 4), (3, 2, 3, 3), (3,), wrt=2,
        )

    def test_conv_stride2_input(self):
        check(
            lambda x, w: ops.conv2d(x, w, stride=2, padding=1),
            (1, 2, 6, 6), (4, 2, 3, 3), wrt=0,
        )

    def test_conv_stride2_weight(self):
        check(
            lambda x, w: ops.conv2d(x, w, stride=2, padding=2),
            (1, 2, 8, 8), (4, 2, 5, 5), wrt=1,
        )

    def test_depthwise_input(self):
        check(
            lambda x, w: ops.conv2d(x, w, padding=1, groups=4),
            (2, 4, 5, 5), (4, 1, 3, 3), wrt=0,
        )

    def test_depthwise_weight(self):
        check(
            lambda x, w: ops.conv2d(x, w, padding=1, groups=4),
            (2, 4, 5, 5), (4, 1, 3, 3), wrt=1,
        )

    def test_grouped_conv(self):
        check(
            lambda x, w: ops.conv2d(x, w, groups=2),
            (1, 4, 4, 4), (6, 2, 3, 3), wrt=1,
        )

    def test_conv_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 2, 3, 3)))
        with pytest.raises(ValueError):
            ops.conv2d(x, w)

    def test_conv_groups_divisibility_raises(self):
        x = Tensor(np.zeros((1, 4, 4, 4)))
        w = Tensor(np.zeros((3, 2, 3, 3)))
        with pytest.raises(ValueError):
            ops.conv2d(x, w, groups=2)

    def test_conv_matches_naive(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = ops.conv2d(Tensor(x), Tensor(w), padding=1).data
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        naive = np.zeros((1, 3, 5, 5))
        for co in range(3):
            for i in range(5):
                for j in range(5):
                    naive[0, co, i, j] = (
                        padded[0, :, i : i + 3, j : j + 3] * w[co]
                    ).sum()
        assert np.allclose(out, naive)

    def test_avg_pool_global(self):
        check(ops.avg_pool_global, (2, 3, 4, 4))


class TestFunctionalGrad:
    def test_softmax(self):
        check(lambda t: F.softmax(t) * Tensor(np.arange(12.0).reshape(3, 4)), (3, 4))

    def test_log_softmax(self):
        check(
            lambda t: F.log_softmax(t) * Tensor(np.arange(12.0).reshape(3, 4)),
            (3, 4),
        )

    def test_cross_entropy(self):
        labels = np.array([0, 2, 1])
        check(lambda t: F.cross_entropy(t, labels), (3, 4))

    def test_mse(self):
        target = np.random.default_rng(0).normal(size=(5,))
        check(lambda t: F.mse_loss(t, target), (5,))

    def test_gumbel_softmax_fixed_noise(self):
        noise = np.random.default_rng(1).gumbel(size=(3, 4))
        check(
            lambda t: F.gumbel_softmax(t, tau=0.7, noise=noise)
            * Tensor(np.arange(12.0).reshape(3, 4)),
            (3, 4),
        )

    def test_dropout_mask(self):
        mask = (np.random.default_rng(2).uniform(size=(4, 4)) < 0.5).astype(float)
        check(lambda t: ops.dropout_mask(t, mask, 2.0), (4, 4))
