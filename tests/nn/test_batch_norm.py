"""Training-mode batch norm as one tape node vs the composite it replaces.

``ops.batch_norm_train`` must reproduce, bit for bit and sign of zero
included, the output and every gradient of the 13-op composite that
``BatchNorm2d`` used to build (kept below as the reference).  The cases
cover counts that are not powers of two (3×3 and 7×7 maps, where
``x / count`` and ``x · (1/count)`` round differently), frozen γ/β, the
input as a leaf, as an interior node and as a constant, a channel-major
input like the 1×1 conv's output, a channel-major cotangent, and
float32.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import Tensor, ops


def composite(x, gamma, beta, eps):
    """The historical training-mode ``BatchNorm2d`` forward."""
    c = gamma.shape[0]
    mean_t = ops.mean(x, axis=(0, 2, 3), keepdims=True)
    centered = x - mean_t
    var_t = ops.mean(centered * centered, axis=(0, 2, 3), keepdims=True)
    normed = centered / ops.sqrt(var_t + Tensor(eps))
    return (normed * ops.reshape(gamma, (1, c, 1, 1))
            + ops.reshape(beta, (1, c, 1, 1)))


def fused(x, gamma, beta, eps):
    """``ops.batch_norm_train`` with throwaway running-statistics buffers."""
    c = gamma.shape[0]
    return ops.batch_norm_train(x, gamma, beta, eps, np.zeros(c), np.ones(c),
                                0.1)


def run(fn, case):
    """Forward + backward of ``fn``; returns (out, gx, gγ, gβ)."""
    (x_data, gamma_data, beta_data, cotangent, dtype, leaf_x, frozen,
     const_x, eps) = case
    with nn.dtype_scope(dtype):
        source = Tensor(x_data, requires_grad=not const_x)
        # an interior x is one op away from the leaf, as a conv output is
        x = source if leaf_x else source * Tensor(1.0)
        gamma = Tensor(gamma_data, requires_grad=not frozen)
        beta = Tensor(beta_data, requires_grad=not frozen)
        out = fn(x, gamma, beta, eps)
        if out.requires_grad:
            out.backward(cotangent)
    return out.data, source.grad, gamma.grad, beta.grad


def assert_bit_identical(case):
    for name, f, r in zip(("out", "gx", "gamma", "beta"), run(fused, case),
                          run(composite, case)):
        if r is None:
            assert f is None, name
            continue
        assert f.dtype == r.dtype and f.shape == r.shape, name
        # the input gradient's layout decides the bits of the reductions
        # that consume it further down the tape
        assert f.strides == r.strides, f"{name} differs in layout"
        assert np.array_equal(f, r), f"{name} differs"
        assert np.array_equal(np.signbit(f), np.signbit(r)), (
            f"{name} differs in the sign of a zero")


def channel_major_copy(a):
    """``a`` laid out channel-major, the memory order a 1×1 conv hands
    batch norm."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def make_case(seed, n, c, h, dtype, leaf_x, frozen, channel_major,
              eps=1e-5, const_x=False, cotangent_channel_major=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=rng.normal(), scale=3.0, size=(n, c, h, h))
    if channel_major:
        x = channel_major_copy(x)
    cotangent = rng.normal(size=x.shape)
    cotangent[rng.random(size=x.shape) < 0.1] = -0.0
    cotangent = cotangent.astype(dtype)
    if cotangent_channel_major:
        cotangent = channel_major_copy(cotangent)
    return (x, rng.normal(size=c), rng.normal(size=c), cotangent, dtype,
            leaf_x, frozen, const_x, eps)


class TestBatchNormTrain:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
           c=st.integers(1, 6), h=st.sampled_from([1, 2, 3, 4, 5, 7]),
           dtype=st.sampled_from(["float64", "float32"]),
           leaf_x=st.booleans(), frozen=st.booleans(),
           channel_major=st.booleans(), eps=st.sampled_from([1e-5, 1e-3]),
           const_x=st.booleans(), cotangent_channel_major=st.booleans())
    @example(seed=0, n=16, c=8, h=7, dtype="float64", leaf_x=False,
             frozen=False, channel_major=True, eps=1e-5, const_x=False,
             cotangent_channel_major=False)
    @example(seed=1, n=16, c=8, h=3, dtype="float32", leaf_x=True,
             frozen=True, channel_major=False, eps=1e-5, const_x=False,
             cotangent_channel_major=True)
    def test_matches_composite_bit_for_bit(self, seed, n, c, h, dtype,
                                           leaf_x, frozen, channel_major,
                                           eps, const_x,
                                           cotangent_channel_major):
        assert_bit_identical(make_case(seed, n, c, h, dtype, leaf_x, frozen,
                                       channel_major, eps, const_x,
                                       cotangent_channel_major))

    def test_supernet_shapes(self):
        """The tiny supernet's batch-norm inputs, batch 16, with the input
        and the cotangent each C-order or channel-major."""
        for c, h in ((8, 8), (24, 8), (48, 4), (96, 4), (72, 2), (144, 2)):
            for dtype in ("float64", "float32"):
                for frozen in (False, True):
                    for x_cm, cot_cm in itertools.product((False, True),
                                                          repeat=2):
                        assert_bit_identical(make_case(
                            c * h, 16, c, h, dtype, False, frozen, x_cm,
                            cotangent_channel_major=cot_cm))

    def test_signed_zero_cotangent(self):
        """An all-zero cotangent of mixed signs makes every gradient sum
        exactly zero, where only the composite's order of negating and
        summing decides the sign of each zero."""
        for seed in range(4):
            for frozen in (False, True):
                case = list(make_case(seed, 3, 4, 3, "float64", False, frozen,
                                      seed % 2 == 0))
                signs = np.random.default_rng(seed).random(case[0].shape)
                case[3] = np.where(signs < 0.5, -0.0, 0.0)
                assert_bit_identical(tuple(case))

    def test_frozen_affine_and_constant_input(self):
        """A constant input with a frozen γ/β builds no tape at all."""
        x = Tensor(np.ones((2, 3, 2, 2)))
        out = fused(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), 1e-5)
        assert out._backward is None and not out.requires_grad

    def test_no_grad_builds_no_tape(self):
        with nn.no_grad():
            out = nn.BatchNorm2d(3)(Tensor(np.ones((2, 3, 2, 2)),
                                           requires_grad=True))
        assert out._backward is None and out._parents == ()

    def test_module_uses_one_node(self):
        bn = nn.BatchNorm2d(3)
        x = Tensor(np.arange(24.0).reshape(2, 3, 2, 2), requires_grad=True)
        out = bn(x)
        assert out._parents == (x, bn.gamma, bn.beta)


def separate_running_update(x, running_mean, running_var, momentum):
    """The historical running-statistics update: its own pass over ``x``
    for the mean (``Σx / count``) and another for the biased variance."""
    count = x.dtype.type(x.shape[0] * x.shape[2] * x.shape[3])
    batch_mean = np.empty(x.shape[1], dtype=x.dtype)
    batch_var = np.empty(x.shape[1], dtype=x.dtype)
    diff = np.empty_like(x)
    np.add.reduce(x, axis=(0, 2, 3), out=batch_mean)
    np.divide(batch_mean, count, out=batch_mean)
    np.subtract(x, batch_mean.reshape(1, -1, 1, 1), out=diff)
    np.multiply(diff, diff, out=diff)
    np.add.reduce(diff, axis=(0, 2, 3), out=batch_var)
    np.divide(batch_var, count, out=batch_var)
    np.multiply(running_mean, 1 - momentum, out=running_mean)
    np.multiply(batch_mean, momentum, out=batch_mean)
    np.add(running_mean, batch_mean, out=running_mean)
    np.multiply(running_var, 1 - momentum, out=running_var)
    np.multiply(batch_var, momentum, out=batch_var)
    np.add(running_var, batch_var, out=running_var)


def reused_variance(x):
    """``Σ(x−μ)² / count`` with the forward's ``μ = Σx·(1/count)``: what
    the running variance would be if every count reused the forward's
    sum of squares."""
    inv_count = np.asarray(1.0 / (x.shape[0] * x.shape[2] * x.shape[3]),
                           dtype=x.dtype)
    centered = x - x.sum(axis=(0, 2, 3), keepdims=True) * inv_count
    return ((centered * centered).sum(axis=(0, 2, 3))
            / x.dtype.type(x.shape[0] * x.shape[2] * x.shape[3]))


def batch(rng, n, c, h, dtype):
    """Channel means far from zero next to the spread, so a one-ulp change
    of the mean moves the centred values and the variance."""
    return rng.normal(loc=rng.normal(scale=50.0, size=(1, c, 1, 1)),
                      size=(n, c, h, h)).astype(dtype)


class TestRunningStats:
    """``BatchNorm2d`` updates its running statistics from the forward's
    sums; they must match the separate pass it replaced to the bit."""

    #: (n, h): power-of-two counts (16·2·2 = 64, 16·4·4 = 256, 16·8·8 =
    #: 1024, 2·1·1) and other counts (3·3·3 = 27, 5·7·7, 3·2·2, 1·3·3)
    SHAPES = ((16, 2), (16, 4), (16, 8), (2, 1), (3, 3), (5, 7), (3, 2),
              (1, 3))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("channel_major", [True, False])
    @pytest.mark.parametrize("n,h", SHAPES)
    def test_matches_separate_pass(self, n, h, dtype, channel_major):
        c = 24
        rng = np.random.default_rng(10 * n + h)
        with nn.dtype_scope(dtype):
            bn = nn.BatchNorm2d(c, momentum=0.25)
            running_mean = bn.running_mean.copy()
            running_var = bn.running_var.copy()
            for step in range(3):
                x = batch(rng, n, c, h, dtype)
                if channel_major:
                    x = channel_major_copy(x)
                bn(Tensor(x, requires_grad=step != 1))
                separate_running_update(x, running_mean, running_var, 0.25)
                assert bn.running_mean.dtype == np.dtype(dtype)
                assert np.array_equal(bn.running_mean, running_mean), step
                assert np.array_equal(bn.running_var, running_var), step

    def test_input_narrower_than_compute_dtype(self):
        """A float32 ``x`` under a float64 compute dtype centres in
        float64, so even a power-of-two count takes the separate pass."""
        rng = np.random.default_rng(3)
        bn = nn.BatchNorm2d(24, momentum=0.25)
        running_mean = bn.running_mean.copy()
        running_var = bn.running_var.copy()
        for n, h in ((16, 4), (3, 3)):
            with nn.dtype_scope("float32"):
                x = Tensor(batch(rng, n, 24, h, "float32"))
            assert x.data.dtype == np.float32
            bn(x)
            separate_running_update(x.data, running_mean, running_var, 0.25)
            assert np.array_equal(bn.running_mean, running_mean), (n, h)
            assert np.array_equal(bn.running_var, running_var), (n, h)

    def test_other_counts_need_their_own_variance_pass(self):
        """At a count that is not a power of two, reusing the forward's
        ``Σ(x−μ)²`` would change the running variance, so the separate
        pass above really checks that branch."""
        for dtype in ("float64", "float32"):
            differs = 0
            for n, h in self.SHAPES:
                x = batch(np.random.default_rng(10 * n + h), n, 24, h, dtype)
                mean, var = np.zeros(24, dtype), np.zeros(24, dtype)
                separate_running_update(x, mean, var, 1.0)
                count = n * h * h
                if count & (count - 1) == 0:
                    assert np.array_equal(reused_variance(x), var), (n, h)
                else:
                    differs += not np.array_equal(reused_variance(x), var)
            assert differs >= 2, dtype
