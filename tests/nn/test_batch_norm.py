"""Training-mode batch norm as one tape node vs the composite it replaces.

``ops.batch_norm_train`` must reproduce, bit for bit and sign of zero
included, the output and every gradient of the 13-op composite that
``BatchNorm2d`` used to build (kept below as the reference).  The cases
cover counts that are not powers of two (3×3 and 7×7 maps, where
``x / count`` and ``x · (1/count)`` round differently), frozen γ/β, the
input as a leaf, as an interior node and as a constant, a channel-major
input like the 1×1 conv's output, and float32.
"""

import numpy as np
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
    fused = run(ops.batch_norm_train, case)
    reference = run(composite, case)
    for name, f, r in zip(("out", "gx", "gamma", "beta"), fused, reference):
        if r is None:
            assert f is None, name
            continue
        assert f.dtype == r.dtype and f.shape == r.shape, name
        assert np.array_equal(f, r), f"{name} differs"
        assert np.array_equal(np.signbit(f), np.signbit(r)), (
            f"{name} differs in the sign of a zero")


def make_case(seed, n, c, h, dtype, leaf_x, frozen, channel_major,
              eps=1e-5, const_x=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=rng.normal(), scale=3.0, size=(n, c, h, h))
    if channel_major:
        # the memory order a 1×1 conv hands batch norm
        x = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    cotangent = rng.normal(size=x.shape)
    cotangent[rng.random(size=x.shape) < 0.1] = -0.0
    return (x, rng.normal(size=c), rng.normal(size=c),
            cotangent.astype(dtype), dtype, leaf_x, frozen, const_x, eps)


class TestBatchNormTrain:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
           c=st.integers(1, 6), h=st.sampled_from([1, 2, 3, 4, 5, 7]),
           dtype=st.sampled_from(["float64", "float32"]),
           leaf_x=st.booleans(), frozen=st.booleans(),
           channel_major=st.booleans(), eps=st.sampled_from([1e-5, 1e-3]),
           const_x=st.booleans())
    @example(seed=0, n=16, c=8, h=7, dtype="float64", leaf_x=False,
             frozen=False, channel_major=True, eps=1e-5, const_x=False)
    @example(seed=1, n=16, c=8, h=3, dtype="float32", leaf_x=True,
             frozen=True, channel_major=False, eps=1e-5, const_x=False)
    def test_matches_composite_bit_for_bit(self, seed, n, c, h, dtype,
                                           leaf_x, frozen, channel_major,
                                           eps, const_x):
        assert_bit_identical(make_case(seed, n, c, h, dtype, leaf_x, frozen,
                                       channel_major, eps, const_x))

    def test_supernet_shapes(self):
        """The tiny supernet's batch-norm inputs, batch 16."""
        for c, h in ((8, 8), (24, 8), (48, 4), (96, 4), (72, 2), (144, 2)):
            for dtype in ("float64", "float32"):
                for frozen in (False, True):
                    assert_bit_identical(make_case(c * h, 16, c, h, dtype,
                                                   False, frozen, True))

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
        out = ops.batch_norm_train(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                                   1e-5)
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
