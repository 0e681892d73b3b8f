"""The specialized conv kernels vs the generic im2col path.

Every fast path (depthwise, 1×1) must agree with the generic engine —
property-tested over random shapes/strides/paddings with Hypothesis and
gradient-checked against central finite differences at float64 tolerance.
Also pins the tape-free contract: forwards under ``nn.no_grad()`` allocate
zero backward closures.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import Tensor, ops

RTOL = 1e-10
ATOL = 1e-12


def _run_conv(x, w, b, stride, padding, groups, fast):
    """One forward+backward through conv2d, returning (out, gx, gw, gb)."""
    with ops.fast_kernels(fast):
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True) if b is not None else None
        out = ops.conv2d(xt, wt, bt, stride=stride, padding=padding,
                         groups=groups)
        # non-uniform cotangent so layout bugs can't hide behind symmetry
        cotangent = np.arange(out.data.size, dtype=np.float64)
        cotangent = cotangent.reshape(out.shape) / out.data.size
        (out * Tensor(cotangent)).sum().backward()
    gb = bt.grad if bt is not None else None
    return out.data, xt.grad, wt.grad, gb


def assert_fast_matches_generic(x, w, b, stride=1, padding=0, groups=1):
    fast = _run_conv(x, w, b, stride, padding, groups, fast=True)
    slow = _run_conv(x, w, b, stride, padding, groups, fast=False)
    for name, f, s in zip(("out", "gx", "gw", "gb"), fast, slow):
        if f is None and s is None:
            continue
        assert np.allclose(f, s, rtol=RTOL, atol=ATOL), (
            f"{name}: max err {np.abs(f - s).max():.3e}"
        )


def conv_case(draw, *, depthwise=False, pointwise=False, grouped=False):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    stride = draw(st.sampled_from([1, 2]))
    if pointwise:
        c_in, k, padding, groups = draw(st.integers(1, 6)), 1, 0, 1
        c_out = draw(st.integers(1, 6))
    elif depthwise:
        c_in = draw(st.integers(1, 6))
        c_out, groups = c_in, c_in
        k = draw(st.sampled_from([3, 5]))
        padding = draw(st.integers(0, k // 2))
    elif grouped:
        groups = draw(st.sampled_from([2, 3]))
        c_in = groups * draw(st.integers(1, 2))
        c_out = groups * draw(st.integers(1, 2))
        k = 3
        padding = draw(st.integers(0, 1))
    else:
        c_in, c_out, groups = draw(st.integers(1, 4)), draw(st.integers(1, 4)), 1
        k = draw(st.sampled_from([1, 3]))
        padding = draw(st.integers(0, 1))
    h = draw(st.integers(max(k - padding * 2, stride), 8))
    x = rng.normal(size=(n, c_in, h, h))
    w = rng.normal(size=(c_out, c_in // groups, k, k))
    b = rng.normal(size=(c_out,)) if draw(st.booleans()) else None
    return x, w, b, stride, padding, groups


class TestFastMatchesGeneric:
    """Forward and all three gradients agree between engines."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_depthwise(self, data):
        x, w, b, stride, padding, groups = conv_case(data.draw, depthwise=True)
        assert_fast_matches_generic(x, w, b, stride, padding, groups)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_pointwise_1x1(self, data):
        x, w, b, stride, padding, groups = conv_case(data.draw, pointwise=True)
        assert_fast_matches_generic(x, w, b, stride, padding, groups)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_dense_strided_padded(self, data):
        x, w, b, stride, padding, groups = conv_case(data.draw)
        assert_fast_matches_generic(x, w, b, stride, padding, groups)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_grouped_not_depthwise(self, data):
        x, w, b, stride, padding, groups = conv_case(data.draw, grouped=True)
        assert_fast_matches_generic(x, w, b, stride, padding, groups)

    def test_supernet_shapes_bit_identical(self):
        """At the layouts the tiny supernet actually runs, the match is
        exact to the bit — the property the golden-trajectory test rests on."""
        rng = np.random.default_rng(0)
        cases = [
            # (n, c_in, c_out, h, k, stride, groups)
            (16, 24, 144, 4, 1, 1, 1),     # expand 1×1
            (16, 144, 24, 4, 1, 1, 1),     # project 1×1
            (16, 48, 48, 8, 3, 1, 48),     # depthwise k3 s1
            (16, 72, 72, 8, 5, 2, 72),     # depthwise k5 s2
            (16, 72, 72, 2, 7, 1, 72),     # depthwise 2×2 k7 p3
            (16, 96, 96, 4, 7, 2, 96),     # depthwise 4×4 k7 s2 p3
            (16, 48, 48, 8, 5, 2, 48),     # depthwise 8×8 k5 s2 p2
            (16, 144, 144, 2, 3, 1, 144),  # depthwise 2×2 k3 p1
        ]
        for n, c_in, c_out, h, k, stride, groups in cases:
            x = rng.normal(size=(n, c_in, h, h))
            w = rng.normal(size=(c_out, c_in // groups, k, k))
            fast = _run_conv(x, w, None, stride, k // 2, groups, fast=True)
            slow = _run_conv(x, w, None, stride, k // 2, groups, fast=False)
            for name, f, s in zip(("out", "gx", "gw"), fast, slow):
                assert np.array_equal(f, s), f"{name} not bit-identical"
        # every 1×1 geometry of a tiny-supernet search, against the einsum
        # kernel the direct matmul replaced: bytes and layout, for the
        # channel-major inputs the supernet hands it and for C-order ones
        for n, c_in, c_out, h, stride in POINTWISE_SUPERNET_SHAPES:
            for channel_major in (True, False):
                for grad_channel_major in (False, True):
                    _assert_1x1_matches_einsum(
                        rng, n, c_in, c_out, h, stride, channel_major,
                        grad_channel_major, expect_einsum=False)

    def test_pointwise_size_one_axes_keep_einsum(self):
        """A 1×1 geometry with a size-1 axis (batch, channels in or out,
        or a spatial side) still runs einsum, and still matches it."""
        rng = np.random.default_rng(1)
        for n, c_in, c_out, h, stride in ((1, 8, 16, 4, 1), (4, 1, 8, 4, 1),
                                          (4, 8, 1, 4, 1), (4, 8, 16, 1, 1),
                                          (4, 8, 16, 2, 2), (2, 3, 5, 3, 2)):
            for channel_major in (True, False):
                _assert_1x1_matches_einsum(
                    rng, n, c_in, c_out, h, stride, channel_major, False,
                    expect_einsum=(n == 1 or 1 in (c_in, c_out)
                                   or -(-h // stride) == 1))


#: (n, c_in, c_out, h, stride) of every 1×1 conv in ``repro search --tiny``
POINTWISE_SUPERNET_SHAPES = (
    (16, 8, 8, 8, 1), (16, 8, 16, 8, 2), (16, 8, 24, 8, 1),
    (16, 8, 48, 8, 1), (16, 16, 24, 4, 2), (16, 16, 48, 4, 1),
    (16, 16, 96, 4, 1), (16, 24, 32, 2, 1), (16, 24, 72, 2, 1),
    (16, 24, 144, 2, 1), (16, 24, 16, 4, 1), (16, 48, 24, 2, 1),
    (16, 48, 16, 4, 1), (16, 72, 24, 2, 1), (16, 96, 24, 2, 1),
    (16, 96, 16, 4, 1), (16, 144, 24, 2, 1),
)


def _einsum_1x1(xd_full, w, grad, stride):
    """The einsum pointwise kernel (forward, input and weight gradient)
    that ``_conv2d_1x1`` calls ``matmul`` in place of."""
    xd = xd_full[:, :, ::stride, ::stride] if stride > 1 else xd_full
    w_mat = w[:, :, 0, 0]
    out = np.einsum("nchw,oc->nohw", xd, w_mat, optimize=True)
    gx = np.zeros(xd_full.shape)
    if stride > 1:
        gx[:, :, ::stride, ::stride] += np.einsum(
            "nohw,oc->nchw", grad, w_mat, optimize=True)
    else:
        gx += np.einsum("nohw,oc->nchw", grad, w_mat, optimize=True)
    gw = np.ascontiguousarray(
        np.einsum("nohw,nchw->oc", grad, xd, optimize=True))[:, :, None, None]
    return out, gx, gw


def _layout(a):
    """Strides of the axes longer than 1 (the others never move a byte)."""
    return tuple(s for s, d in zip(a.strides, a.shape) if d > 1)


def _channel_major(a):
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def _assert_1x1_matches_einsum(rng, n, c_in, c_out, h, stride,
                               channel_major, grad_channel_major,
                               expect_einsum):
    x = rng.normal(size=(n, c_in, h, h))
    if channel_major:
        x = _channel_major(x)
    w = rng.normal(size=(c_out, c_in, 1, 1))
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    calls = []
    einsum = np.einsum

    def counting_einsum(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    np.einsum = counting_einsum
    try:
        out = ops.conv2d(xt, wt, stride=stride)
        grad = rng.normal(size=out.shape)
        if grad_channel_major:
            grad = _channel_major(grad)
        (_, gx), (_, gw) = out._backward(grad)
    finally:
        np.einsum = einsum
    assert bool(calls) == expect_einsum, (n, c_in, c_out, h, stride, calls)
    where = (f"n{n} c{c_in}->{c_out} h{h} s{stride} "
             f"x{'CM' if channel_major else 'C'}")
    for name, f, r in zip(("out", "gx", "gw"), (out.data, gx, gw),
                          _einsum_1x1(x, w, grad, stride)):
        assert f.shape == r.shape and f.dtype == r.dtype, (name, where)
        assert f.tobytes() == r.tobytes(), f"{name} differs at {where}"
        assert _layout(f) == _layout(r), f"{name} layout differs at {where}"


def _run_pad_then_depthwise(x, w, b, stride, padding):
    """The pre-fold composition: ``pad2d`` then the unpadded kernel."""
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True)
    out = ops._conv2d_depthwise(ops.pad2d(xt, padding), wt, bt, stride)
    cotangent = np.arange(out.data.size, dtype=np.float64)
    cotangent = cotangent.reshape(out.shape) / out.data.size
    (out * Tensor(cotangent)).sum().backward()
    return out.data, xt.grad, wt.grad, bt.grad


def _padding_only_taps(k, stride, padding, h):
    """How many (i, j) taps of a k×k depthwise kernel read only padding."""
    out = (h + 2 * padding - k) // stride + 1
    live = sum(ops._tap_span(i, padding, stride, out, h) is not None
               for i in range(k))
    return k * k - live * live


class TestPaddingFold:
    """The depthwise kernel folds its zero padding in: its input gradient is
    scattered onto the unpadded input, skipping taps that read only
    padding.  Forward and all gradients stay bit-identical to the old
    ``pad2d`` → depthwise composition at every supernet geometry."""

    @pytest.mark.parametrize("h", range(2, 9))
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_bit_identical_to_pad_then_conv(self, k, stride, h):
        rng = np.random.default_rng(100 * k + 10 * stride + h)
        c = 5
        x = rng.normal(size=(3, c, h, h))
        w = rng.normal(size=(c, 1, k, k))
        b = rng.normal(size=(c,))
        for padding in sorted({0, 1, k // 2}):
            if h + 2 * padding < k:
                continue
            folded = _run_conv(x, w, b, stride, padding, c, fast=True)
            old = _run_pad_then_depthwise(x, w, b, stride, padding)
            generic = _run_conv(x, w, b, stride, padding, c, fast=False)
            for name, f, o, g in zip(("out", "gx", "gw", "gb"), folded, old,
                                     generic):
                assert f.shape == o.shape, name
                assert np.array_equal(f, o), (
                    f"{name} differs at k{k} s{stride} h{h} p{padding}")
                assert np.array_equal(f, g), (
                    f"{name} off generic at k{k} s{stride} h{h} p{padding}")

    def test_grid_covers_padding_only_taps(self):
        """The sweep above really exercises skipped taps."""
        assert _padding_only_taps(7, 1, 3, 2) == 49 - 3 * 3
        assert _padding_only_taps(5, 2, 2, 2) == 25 - 2 * 2
        assert _padding_only_taps(3, 1, 1, 8) == 0
        assert ops._tap_span(0, 3, 1, 2, 2) is None
        assert ops._tap_span(3, 3, 1, 2, 2) == (0, 2, 0)

    def test_gradient_is_unpadded_and_contiguous(self):
        rng = np.random.default_rng(1)
        xt = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        wt = Tensor(rng.normal(size=(3, 1, 5, 5)))
        ops.conv2d(xt, wt, stride=2, padding=2, groups=3).sum().backward()
        assert xt.grad.shape == (2, 3, 4, 4)
        assert xt.grad.flags.c_contiguous


def numeric_grad(fn, x, h=1e-6):
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return grad


class TestFiniteDifferences:
    """The fast kernels checked directly against central differences."""

    @pytest.mark.parametrize("case", [
        dict(x=(1, 3, 5, 5), w=(3, 1, 3, 3), stride=1, padding=1, groups=3),
        dict(x=(2, 4, 6, 6), w=(4, 1, 3, 3), stride=2, padding=1, groups=4),
        dict(x=(1, 2, 7, 7), w=(2, 1, 5, 5), stride=1, padding=2, groups=2),
        dict(x=(2, 2, 2, 2), w=(2, 1, 7, 7), stride=1, padding=3, groups=2),
        dict(x=(1, 3, 3, 3), w=(3, 1, 5, 5), stride=2, padding=2, groups=3),
        dict(x=(1, 3, 4, 4), w=(5, 3, 1, 1), stride=1, padding=0, groups=1),
        dict(x=(2, 3, 5, 5), w=(4, 3, 1, 1), stride=2, padding=0, groups=1),
    ], ids=["dw_k3_s1", "dw_k3_s2", "dw_k5_pad2", "dw_k7_h2_pad3",
            "dw_k5_s2_h3_pad2", "pw_s1", "pw_s2"])
    @pytest.mark.parametrize("wrt", [0, 1])
    def test_fast_kernel_gradients(self, case, wrt):
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=case["x"]), rng.normal(size=case["w"])]
        kwargs = dict(stride=case["stride"], padding=case["padding"],
                      groups=case["groups"])

        def scalar(a):
            inputs = [v.copy() for v in arrays]
            inputs[wrt] = a
            with ops.fast_kernels(True):
                out = ops.conv2d(Tensor(inputs[0]), Tensor(inputs[1]),
                                 **kwargs)
            return float(out.sum().data)

        with ops.fast_kernels(True):
            tensors = [Tensor(a, requires_grad=(i == wrt))
                       for i, a in enumerate(arrays)]
            ops.conv2d(tensors[0], tensors[1], **kwargs).sum().backward()
        analytic = tensors[wrt].grad
        numeric = numeric_grad(scalar, arrays[wrt].copy())
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-7), (
            f"max err {np.abs(analytic - numeric).max():.2e}"
        )


class TestTapeFree:
    """Eval-mode forwards must allocate zero backward state."""

    def _assert_leaf(self, out):
        assert out._parents == ()
        assert out._backward is None
        assert not out.requires_grad

    def test_conv_fast_paths_no_tape(self):
        rng = np.random.default_rng(0)
        with nn.no_grad():
            x = Tensor(rng.normal(size=(2, 4, 6, 6)), requires_grad=True)
            w_dw = Tensor(rng.normal(size=(4, 1, 3, 3)), requires_grad=True)
            w_pw = Tensor(rng.normal(size=(3, 4, 1, 1)), requires_grad=True)
            self._assert_leaf(ops.conv2d(x, w_dw, padding=1, groups=4))
            self._assert_leaf(ops.conv2d(x, w_pw))

    def test_model_eval_forward_builds_no_graph(self):
        """A whole supernet eval forward is one flat sea of leaf tensors."""
        from repro.proxy.supernet import SuperNet
        from repro.search_space.macro import MacroConfig
        from repro.search_space.space import SearchSpace

        space = SearchSpace(MacroConfig.tiny())
        net = SuperNet(space, np.random.default_rng(0))
        net.eval()
        arch = space.sample(np.random.default_rng(1))
        r = space.macro.input_resolution
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, r, r)))
        with nn.no_grad():
            out = net.forward_arch(x, arch)
        self._assert_leaf(out)
