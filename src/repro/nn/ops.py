"""Differentiable operations for :class:`repro.nn.Tensor`.

Each function builds the forward value with numpy and registers a backward
closure returning one ``(parent, gradient_contribution)`` pair per operand,
in operand order.  Importing this module attaches the Python operator
overloads (``+``, ``*``, ``@`` …) to :class:`Tensor`; :mod:`repro.nn`
performs that import, so users never need to import this module directly.

Engine notes
------------
* **Tape-free eval**: every op checks the grad mode *before* constructing
  its backward closure, so forwards under ``nn.no_grad()`` allocate zero
  closures and capture no intermediates — validation passes cost only the
  forward arithmetic.  The same check skips the closure when no operand
  requires grad, so a frozen module (``Module.set_trainable(False)``)
  applied to a constant input builds no tape at all.
* **Gradients only where used**: a closure computes a contribution only
  for an operand that requires grad and returns ``None`` at the other
  operands' positions (the pair list keeps operand order, which the
  step-plan compiler reads as operand position).  Conv backwards skip
  the weight gradient of a frozen weight, elementwise ops and ``matmul``
  the gradient of a constant operand.
* **Specialized convolution kernels**: ``conv2d`` dispatches depthwise
  (``groups == C_in``) and pointwise (1×1, ``groups == 1``) convolutions to
  kernels that skip the im2col reshuffle and the col2im scatter of the
  generic grouped path.  Both call ``matmul`` directly on the operands
  their channel-contraction einsum lowered to: the pointwise kernel on
  the ``(C, N·H·W)`` view of its input, the depthwise kernel on a window
  operand it builds (and it scatters its input gradient tap by tap).
  Both keep the generic path's accumulation order, so in float64 they
  are **bit-identical** to it (asserted by
  ``tests/nn/test_conv_fast_paths.py`` and the golden-trajectory test);
  :func:`fast_kernels` toggles them for benchmarking.
* **Batch norm is one op**: :func:`batch_norm_train` is training-mode
  batch norm as a single tape node.  Its forward and backward repeat the
  13 composite ops it replaced, expression by expression and in the same
  accumulation order, so outputs and gradients are bit-identical to them
  (``tests/nn/test_batch_norm.py``) at a fraction of the dispatch cost.
  It also updates ``BatchNorm2d``'s running statistics from its own batch
  sums instead of a second pass over the batch.
* **Profiling**: when a :func:`repro.nn.profiler.profile` context is open,
  each primitive op records wall time and call count under its op kind
  (backward closures under ``<kind>.bwd`` via ``Tensor.backward``).

The generic convolution is im2col/col2im with stride, symmetric padding and
grouped kernels; its col2im adjoint is fully vectorized (a dilated
scatter buffer reduced through a negative-stride window view — no Python
``kh×kw`` loop).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from . import profiler
from .tensor import Tensor, _GradMode, _unbroadcast, get_default_dtype

__all__ = [
    "add", "sub", "mul", "div", "neg", "exp", "log", "sqrt",
    "matmul", "sum_", "mean", "amax", "clip", "relu", "relu6", "sigmoid",
    "reshape", "transpose", "pad2d", "batch_norm_train", "conv2d",
    "avg_pool_global", "getitem", "dropout_mask", "fast_kernels",
]

#: dispatch depthwise/1×1 convolutions to the specialized kernels
_FAST_KERNELS = True

#: the step-plan tracer currently recording primitive ops, or None; set by
#: :mod:`repro.nn.plan` around a traced step (checked per op call like the
#: profiler, so tracing costs nothing when off)
_TRACER = None


@contextmanager
def fast_kernels(enabled: bool = True) -> Iterator[None]:
    """Enable/disable the specialized conv kernels inside the context.

    ``fast_kernels(False)`` forces every convolution through the generic
    grouped im2col path — used by the parity tests and the
    ``bench_nn_engine`` old-vs-new comparison.  In float64 the outputs and
    gradients are bit-identical either way.
    """
    global _FAST_KERNELS
    previous = _FAST_KERNELS
    _FAST_KERNELS = bool(enabled)
    try:
        yield
    finally:
        _FAST_KERNELS = previous


def _op(kind: str):
    """Record wall time under ``kind`` while a profiler context is open.

    When no profiler is active the overhead is one attribute load and a
    ``None`` check per call.  The produced tensor is labelled with the op
    kind so ``Tensor.backward`` can attribute closure time to ``kind.bwd``.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            prof = profiler._active
            if prof is None and _TRACER is None:
                return fn(*args, **kwargs)
            if prof is None:
                out = fn(*args, **kwargs)
            else:
                start = time.perf_counter()
                out = fn(*args, **kwargs)
                prof.record(kind, time.perf_counter() - start,
                            nbytes=out.data.nbytes if isinstance(out, Tensor)
                            else 0)
                if isinstance(out, Tensor) and out.name is None:
                    out.name = kind
            if _TRACER is not None and isinstance(out, Tensor):
                _TRACER.record(kind, args, kwargs, out)
            return out

        return wrapper

    return decorate


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------

@_op("add")
def add(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data
    if not _GradMode.enabled or not (a.requires_grad or b.requires_grad):
        return Tensor(out)

    def backward(grad):
        return [(a, _unbroadcast(grad, a.shape) if a.requires_grad else None),
                (b, _unbroadcast(grad, b.shape) if b.requires_grad else None)]

    return Tensor._make(out, (a, b), backward)


@_op("sub")
def sub(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data
    if not _GradMode.enabled or not (a.requires_grad or b.requires_grad):
        return Tensor(out)

    def backward(grad):
        return [(a, _unbroadcast(grad, a.shape) if a.requires_grad else None),
                (b, _unbroadcast(-grad, b.shape) if b.requires_grad else None)]

    return Tensor._make(out, (a, b), backward)


@_op("mul")
def mul(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data
    if not _GradMode.enabled or not (a.requires_grad or b.requires_grad):
        return Tensor(out)

    def backward(grad):
        return [
            (a, _unbroadcast(grad * b.data, a.shape)
             if a.requires_grad else None),
            (b, _unbroadcast(grad * a.data, b.shape)
             if b.requires_grad else None),
        ]

    return Tensor._make(out, (a, b), backward)


@_op("div")
def div(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data / b.data
    if not _GradMode.enabled or not (a.requires_grad or b.requires_grad):
        return Tensor(out)

    def backward(grad):
        return [
            (a, _unbroadcast(grad / b.data, a.shape)
             if a.requires_grad else None),
            (b, _unbroadcast(-grad * a.data / (b.data ** 2), b.shape)
             if b.requires_grad else None),
        ]

    return Tensor._make(out, (a, b), backward)


@_op("neg")
def neg(a: Tensor) -> Tensor:
    out = -a.data
    if not _GradMode.enabled or not a.requires_grad:
        return Tensor(out)

    def backward(grad):
        return [(a, -grad)]

    return Tensor._make(out, (a,), backward)


@_op("exp")
def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    if not _GradMode.enabled or not a.requires_grad:
        return Tensor(out)

    def backward(grad):
        return [(a, grad * out)]

    return Tensor._make(out, (a,), backward)


@_op("log")
def log(a: Tensor) -> Tensor:
    out = np.log(a.data)
    if not _GradMode.enabled or not a.requires_grad:
        return Tensor(out)

    def backward(grad):
        return [(a, grad / a.data)]

    return Tensor._make(out, (a,), backward)


@_op("sqrt")
def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    if not _GradMode.enabled or not a.requires_grad:
        return Tensor(out)

    def backward(grad):
        return [(a, grad * 0.5 / out)]

    return Tensor._make(out, (a,), backward)


@_op("clip")
def clip(a: Tensor, low: float, high: float) -> Tensor:
    """Clamp to ``[low, high]``; gradient is 1 strictly inside the band."""
    out = np.clip(a.data, low, high)
    if not _GradMode.enabled or not a.requires_grad:
        return Tensor(out)
    inside = (a.data > low) & (a.data < high)

    def backward(grad):
        return [(a, grad * inside)]

    return Tensor._make(out, (a,), backward)


@_op("relu")
def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    if not _GradMode.enabled or not a.requires_grad:
        return Tensor(out)
    mask = a.data > 0.0

    def backward(grad):
        return [(a, grad * mask)]

    return Tensor._make(out, (a,), backward)


def relu6(a: Tensor) -> Tensor:
    """ReLU6, the activation used throughout MobileNetV2-style blocks."""
    return clip(a, 0.0, 6.0)


@_op("sigmoid")
def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))
    if not _GradMode.enabled or not a.requires_grad:
        return Tensor(out)

    def backward(grad):
        return [(a, grad * out * (1.0 - out))]

    return Tensor._make(out, (a,), backward)


@_op("dropout")
def dropout_mask(a: Tensor, mask: np.ndarray, scale: float) -> Tensor:
    """Multiply by a fixed 0/1 mask and rescale (inverted dropout)."""
    out = a.data * mask * scale
    if not _GradMode.enabled or not a.requires_grad:
        return Tensor(out)

    def backward(grad):
        return [(a, grad * mask * scale)]

    return Tensor._make(out, (a,), backward)


# ----------------------------------------------------------------------
# Linear algebra and reductions
# ----------------------------------------------------------------------

@_op("matmul")
def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data @ b.data
    if not _GradMode.enabled or not (a.requires_grad or b.requires_grad):
        return Tensor(out)

    def backward(grad):
        x, y = a.data, b.data
        ga = gb = None
        if x.ndim == 1 and y.ndim == 1:  # inner product
            if a.requires_grad:
                ga = grad * y
            if b.requires_grad:
                gb = grad * x
        elif x.ndim == 1:  # (k,) @ (k, n)
            if a.requires_grad:
                ga = grad @ y.T
            if b.requires_grad:
                gb = np.outer(x, grad)
        elif y.ndim == 1:  # (m, k) @ (k,)
            if a.requires_grad:
                ga = np.outer(grad, y)
            if b.requires_grad:
                gb = x.T @ grad
        else:
            if a.requires_grad:
                ga = _unbroadcast(grad @ np.swapaxes(y, -1, -2), a.shape)
            if b.requires_grad:
                gb = _unbroadcast(np.swapaxes(x, -1, -2) @ grad, b.shape)
        return [(a, ga), (b, gb)]

    return Tensor._make(out, (a, b), backward)


@_op("sum")
def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    if not _GradMode.enabled or not a.requires_grad:
        return Tensor(out)

    def backward(grad):
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax % a.data.ndim for ax in axes)
            g = np.expand_dims(g, axis=tuple(sorted(axes)))
        return [(a, np.broadcast_to(g, a.shape))]

    return Tensor._make(out, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return sum_(a, axis=axis, keepdims=keepdims) * (1.0 / count)


@_op("amax")
def amax(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Non-differentiable elementwise maximum reduction.

    Used for the softmax max-shift, which the engine has always treated as
    a constant (no gradient flows through it — the shift cancels exactly in
    the softmax quotient).  Making it a primitive op, rather than a baked
    ``Tensor(x.data.max(...))`` leaf, lets the step-plan tracer recompute
    the shift from the live input on every replay.
    """
    return Tensor(a.data.max(axis=axis, keepdims=keepdims))


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------

@_op("reshape")
def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    if not _GradMode.enabled or not a.requires_grad:
        return Tensor(out)

    def backward(grad):
        return [(a, grad.reshape(a.shape))]

    return Tensor._make(out, (a,), backward)


@_op("transpose")
def transpose(a: Tensor, axes=None) -> Tensor:
    out = np.transpose(a.data, axes)
    if not _GradMode.enabled or not a.requires_grad:
        return Tensor(out)

    def backward(grad):
        inverse = None if axes is None else np.argsort(axes)
        return [(a, np.transpose(grad, inverse))]

    return Tensor._make(out, (a,), backward)


@_op("getitem")
def getitem(a: Tensor, index) -> Tensor:
    out = a.data[index]
    if not _GradMode.enabled or not a.requires_grad:
        return Tensor(out)

    def backward(grad):
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        return [(a, full)]

    return Tensor._make(out, (a,), backward)


@_op("pad2d")
def pad2d(a: Tensor, padding: int) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    if padding == 0:
        return a
    p = int(padding)
    out = np.pad(a.data, ((0, 0), (0, 0), (p, p), (p, p)))
    if not _GradMode.enabled or not a.requires_grad:
        return Tensor(out)

    def backward(grad):
        return [(a, grad[:, :, p:-p, p:-p])]

    return Tensor._make(out, (a,), backward)


# ----------------------------------------------------------------------
# Normalisation
# ----------------------------------------------------------------------

@_op("batch_norm")
def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float,
                     running_mean: np.ndarray, running_var: np.ndarray,
                     momentum: float) -> Tensor:
    """Training-mode batch norm over NCHW, normalising with batch statistics.

    One tape node for what used to be 13 composite ops (``mean``, ``-``,
    ``*``, ``mean``, ``+ eps``, ``sqrt``, ``/``, two ``reshape``, ``* γ``,
    ``+ β``).  The forward repeats the composite's numpy expressions in
    order, ``sum(x)·(1/count)`` included (not ``sum(x)/count``, which rounds
    differently), with ``1/count`` and ``eps`` in the compute dtype as
    ``Tensor`` made them.  The backward repeats what ``Tensor.backward``
    swept over those nodes, accumulation order included: the centred
    input's gradient is ``(g_n/σ + t) + t`` (the divide's contribution
    first, then the square's two), and the input's is that plus the
    broadcast mean gradient.  Outputs and gradients are bit-identical to
    the composite (``tests/nn/test_batch_norm.py``).

    ``running_mean`` and ``running_var`` are updated in place with
    ``momentum`` from the batch statistics, reusing the forward's sums
    (:func:`_update_running_stats`).
    """
    xd = x.data
    axes = (0, 2, 3)
    dtype = get_default_dtype()
    inv_count = np.asarray(1.0 / (xd.shape[0] * xd.shape[2] * xd.shape[3]),
                           dtype=dtype)
    sum_x = xd.sum(axis=axes, keepdims=True)
    centered = xd - sum_x * inv_count
    sum_sq = (centered * centered).sum(axis=axes, keepdims=True)
    std = np.sqrt(sum_sq * inv_count + np.asarray(eps, dtype=dtype))
    normed = centered / std
    g = gamma.data.reshape(1, -1, 1, 1)
    out = normed * g + beta.data.reshape(1, -1, 1, 1)
    _update_running_stats(running_mean, running_var, momentum, xd, sum_x,
                          centered, sum_sq)
    if not _GradMode.enabled or not (x.requires_grad or gamma.requires_grad
                                     or beta.requires_grad):
        return Tensor(out)
    stat_shape = std.shape

    def backward(grad):
        gx = gg = gb = None
        if beta.requires_grad:
            gb = _unbroadcast(grad, stat_shape).reshape(beta.shape)
        if gamma.requires_grad:
            gg = _unbroadcast(grad * normed, stat_shape).reshape(gamma.shape)
        if x.requires_grad:
            # The composite's products of the gradient and `centered` took
            # their shared layout, or C order where the two differed (one
            # is C-order wherever they differ in a supernet step), and a
            # reduction's bits follow its input's layout.  Both operands
            # are brought to that layout once, so the products below run
            # over one layout, written in place into two buffers.  `grad`
            # has `out`'s dtype or wider, so no in-place op narrows.
            if _same_layout(grad, centered):
                cen, g_n = centered, grad * g
            else:
                cen = np.ascontiguousarray(centered)
                g_n = np.multiply(grad, g, order="C")
            buf = np.negative(g_n)
            buf *= cen
            buf /= std ** 2
            g_s2 = _unbroadcast(buf, stat_shape) * 0.5 / std * inv_count
            t = np.multiply(g_s2, cen, out=buf)
            g_c = np.divide(g_n, std, out=g_n)
            g_c += t
            g_c += t
            g_s1 = _unbroadcast(np.negative(g_c, out=buf),
                                stat_shape) * inv_count
            gx = g_c
            gx += g_s1
        return [(x, gx), (gamma, gg), (beta, gb)]

    return Tensor._make(out, (x, gamma, beta), backward)


def _same_layout(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays of one shape order their elements alike in memory."""
    return ([s // a.itemsize for s in a.strides]
            == [s // b.itemsize for s in b.strides])


def _update_running_stats(running_mean: np.ndarray, running_var: np.ndarray,
                          momentum: float, xd: np.ndarray, sum_x: np.ndarray,
                          centered: np.ndarray, sum_sq: np.ndarray) -> None:
    """Momentum update of batch norm's running mean and biased variance.

    Bit-identical to the separate pass over ``x`` it replaced
    (``tests/nn/test_batch_norm.py`` keeps that pass): the batch mean is
    ``Σx / count`` from the forward's ``Σx``.  When ``count`` is a power of
    two, ``Σx·(1/count)`` equals ``Σx / count`` exactly, so the forward's
    ``centered`` is ``x - mean`` and its ``Σ(x−μ)²`` gives the variance
    too.  Any other count rounds the two means differently, and an ``x``
    narrower than the compute dtype centres in the wider one, so both keep
    a separate variance pass.
    """
    n, c, h, w = xd.shape
    count = n * h * w
    batch_mean = sum_x.reshape(c) / xd.dtype.type(count)
    if count & (count - 1) == 0 and centered.dtype == xd.dtype:
        batch_var = sum_sq.reshape(c) / xd.dtype.type(count)
    else:
        diff = xd - batch_mean.reshape(1, -1, 1, 1)
        np.multiply(diff, diff, out=diff)
        batch_var = np.add.reduce(diff, axis=(0, 2, 3)) / xd.dtype.type(count)
    np.multiply(running_mean, 1 - momentum, out=running_mean)
    np.add(running_mean, batch_mean * momentum, out=running_mean)
    np.multiply(running_var, 1 - momentum, out=running_var)
    np.add(running_var, batch_var * momentum, out=running_var)


# ----------------------------------------------------------------------
# Convolution (im2col) and pooling
# ----------------------------------------------------------------------

def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Extract sliding windows: (N, C, H, W) -> (N, C, kh, kw, OH, OW)."""
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    shape = (n, c, kh, kw, oh, ow)
    strides = (sn, sc, sh, sw, sh * stride, sw * stride)
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)


def _col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add windows back to the image.

    Fully vectorized: the windows are written into a kernel-dilated scatter
    buffer (one strided assignment), then summed through a window view whose
    kernel axes carry *negative* spatial strides, so position ``(y, x)``
    reads exactly the ``(i, j)`` window entries that cover it.  The einsum
    reduction visits ``(i, j)`` in the same ascending order as the
    historical Python loop, so results are bit-identical to it.
    """
    n, c, h, w = x_shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    di, dj = kh - 1, kw - 1
    buf = np.zeros((n, c, kh, kw, h + di, w + dj), dtype=cols.dtype)
    buf[:, :, :, :, di:di + stride * oh:stride, dj:dj + stride * ow:stride] = cols
    sn, sc, si, sj, sy, sx = buf.strides
    window = np.lib.stride_tricks.as_strided(
        buf[:, :, :, :, di:, dj:],
        shape=(n, c, kh, kw, h, w),
        strides=(sn, sc, si - sy, sj - sx, sy, sx),
    )
    return np.einsum("ncijyx->ncyx", window)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution on NCHW input.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Kernels of shape ``(C_out, C_in // groups, KH, KW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    stride, padding:
        Symmetric stride/zero padding on both spatial axes.
    groups:
        Number of channel groups; ``groups == C_in`` with ``C_out == C_in``
        gives a depthwise convolution.

    Depthwise and pointwise (1×1, ungrouped) kernels dispatch to fast
    paths that are bit-identical to the generic grouped path in float64
    (see :func:`fast_kernels`).
    """
    c_in = x.shape[1]
    c_out, c_in_g, kh, kw = weight.shape
    if c_in_g * groups != c_in:
        raise ValueError(
            f"conv2d channel mismatch: input has {c_in} channels, "
            f"weight expects {c_in_g}×{groups} groups"
        )
    if c_out % groups != 0:
        raise ValueError(f"c_out={c_out} not divisible by groups={groups}")

    if _FAST_KERNELS and groups == c_in and c_out == c_in and c_in_g == 1:
        return _conv2d_depthwise(x, weight, bias, stride, int(padding))
    if padding:
        x = pad2d(x, padding)
    if _FAST_KERNELS and groups == 1 and kh == 1 and kw == 1:
        return _conv2d_1x1(x, weight, bias, stride)
    return _conv2d_generic(x, weight, bias, stride, groups)


@_op("conv2d_1x1")
def _conv2d_1x1(x: Tensor, weight: Tensor, bias: Optional[Tensor],
                stride: int) -> Tensor:
    """Pointwise convolution: one channel matmul, no im2col at all.

    ``einsum("nchw,oc->nohw", optimize=True)`` lowers (operands swapped) to
    ``w @ x_cnhw``, with ``x_cnhw`` the input as a C-order ``(C, N·H·W)``
    matrix (a free view of the channel-major arrays the supernet hands
    this kernel), and returns a transposed view of the ``(C_out, N, H, W)``
    product.  This kernel calls that ``matmul`` itself, without einsum's
    parsing and path search, and so do both gradients (``oc,nohw->nchw``
    and ``nchw,nohw->oc``): the same operands and the same output layout,
    so not one float changes.  The layout is part of that contract: the
    channel-major output feeds layout-sensitive reductions downstream.  A
    geometry with a size-1 axis goes through einsum itself, whose lowering
    squeezes such axes.
    """
    xd = x.data[:, :, ::stride, ::stride] if stride > 1 else x.data
    n, c, h, w = xd.shape
    w_mat = weight.data[:, :, 0, 0]  # (C_out, C_in)
    c_out = w_mat.shape[0]
    direct = min(n, c, c_out, h, w) > 1
    if direct:
        out = np.matmul(
            w_mat, xd.transpose(1, 0, 2, 3).reshape(c, n * h * w)
        ).reshape(c_out, n, h, w).transpose(1, 0, 2, 3)
    else:
        out = np.einsum("nchw,oc->nohw", xd, w_mat, optimize=True)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)
    if not _GradMode.enabled or not any(p.requires_grad for p in parents):
        return Tensor(out)

    def backward(grad):
        gx = gw = gb = None
        if x.requires_grad:
            if direct:
                g_in = np.matmul(
                    w_mat.T, grad.transpose(1, 0, 2, 3).reshape(c_out, n * h * w)
                ).reshape(c, n, h, w).transpose(1, 0, 2, 3)
            else:
                g_in = np.einsum("nohw,oc->nchw", grad, w_mat, optimize=True)
            # += into zeros (not assignment) matches the generic col2im,
            # which canonicalises -0.0 products to +0.0.  np.zeros (not
            # zeros_like) pins C order even if x.data is a strided view.
            gx = np.zeros(x.shape, dtype=x.data.dtype)
            if stride > 1:
                gx[:, :, ::stride, ::stride] += g_in
            else:
                gx += g_in
        if weight.requires_grad:
            if direct:
                gw = np.matmul(
                    xd.transpose(1, 0, 2, 3).reshape(c, n * h * w),
                    grad.transpose(0, 2, 3, 1).reshape(n * h * w, c_out)).T
            else:
                gw = np.einsum("nohw,nchw->oc", grad, xd, optimize=True)
            gw = np.ascontiguousarray(gw)[:, :, None, None]
        if bias is not None and bias.requires_grad:
            gb = grad.sum(axis=(0, 2, 3))
        return list(zip(parents, (gx, gw, gb)))

    return Tensor._make(out, parents, backward)


def _tap_span(offset: int, padding: int, stride: int, out_size: int,
              size: int) -> Optional[tuple]:
    """Output range ``[lo, hi)`` of one kernel tap that lands on real input.

    Along one spatial axis, output ``o`` of tap ``offset`` reads unpadded
    input ``offset - padding + stride * o``.  Returns ``(lo, hi, start)``
    with ``start`` the input index of output ``lo``, or ``None`` when every
    output of the tap reads padding.
    """
    lo = max(0, -((offset - padding) // stride))
    hi = min(out_size, (size - 1 + padding - offset) // stride + 1)
    if lo >= hi:
        return None
    return lo, hi, offset - padding + stride * lo


@functools.lru_cache(maxsize=256)
def _live_taps(kh: int, kw: int, padding: int, stride: int, oh: int, ow: int,
               h: int, w: int) -> tuple:
    """The ``(i, j)`` taps of a depthwise kernel that read real input.

    One ``(i, j, in_rows, in_cols, out_rows, out_cols)`` entry per tap, in
    ascending ``(i, j)`` order: output ``[out_rows, out_cols]`` of the tap
    reads unpadded input ``[in_rows, in_cols]``, and every other output of
    the tap reads padding.  Taps whose every output reads padding are left
    out.
    """
    spans_x = [_tap_span(j, padding, stride, ow, w) for j in range(kw)]
    taps = []
    for i in range(kh):
        span_y = _tap_span(i, padding, stride, oh, h)
        if span_y is None:
            continue
        p0, p1, y0 = span_y
        for j, span_x in enumerate(spans_x):
            if span_x is None:
                continue
            q0, q1, x0 = span_x
            taps.append((i, j, slice(y0, y0 + stride * (p1 - p0), stride),
                         slice(x0, x0 + stride * (q1 - q0), stride),
                         slice(p0, p1), slice(q0, q1)))
    return tuple(taps)


def _dw_window(xd: np.ndarray, kh: int, kw: int, taps: tuple, oh: int,
               ow: int) -> np.ndarray:
    """``(C, kh·kw, N·OH·OW)``: the im2col windows of the zero-padded input
    in ``(c, i, j, n, p, q)`` order, C-contiguous.

    These are the bytes of the operand einsum's lowering copies out of the
    padded im2col view and hands ``matmul`` for the depthwise contractions.
    They are built here from the unpadded input, one live tap at a time,
    into zeros: outputs that read padding keep their ``+0.0``.
    """
    n, c = xd.shape[:2]
    window = np.zeros((c, kh, kw, n, oh, ow), dtype=xd.dtype)
    x_cn = xd.transpose(1, 0, 2, 3)
    for i, j, in_rows, in_cols, out_rows, out_cols in taps:
        window[:, i, j, :, out_rows, out_cols] = x_cn[:, :, in_rows, in_cols]
    return window.reshape(c, kh * kw, n * oh * ow)


@_op("conv2d_dw")
def _conv2d_depthwise(x: Tensor, weight: Tensor, bias: Optional[Tensor],
                      stride: int, padding: int = 0) -> Tensor:
    """Depthwise convolution: one batched matmul over per-channel windows.

    ``einsum("ncijpq,cij->ncpq", optimize=True)`` over the strided im2col
    view of the padded input lowers to a transpose-copy of the view into
    ``(C, kh·kw, N·OH·OW)`` and one ``matmul``.  This kernel builds those
    same bytes (:func:`_dw_window`) and calls ``matmul`` itself: no padded
    copy of the input, no path search or equation parsing, and not one
    float changed.  The weight gradient is einsum's ``ncijpq,ncpq->cij``
    lowering, again called directly, on a window rebuilt in the backward
    (keeping the forward's alive costs more memory than the copy costs
    time).  A geometry with a size-1 axis (batch, channels, kernel or
    output) goes through einsum itself, whose lowering squeezes such axes
    through a different copy.

    The input gradient is scattered straight onto the unpadded input, one
    live tap at a time in ascending ``(i, j)`` order — bit-identical to
    ``pad2d`` followed by the unpadded kernel.
    """
    xd = x.data
    n, c, h, w = xd.shape
    kh, kw = weight.shape[2:]
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    taps = _live_taps(kh, kw, padding, stride, oh, ow, h, w)
    w_sq = weight.data[:, 0]  # (C, kh, kw)
    direct = min(n, c, kh, kw, oh, ow) > 1
    if direct:
        cols = None
        out = np.matmul(w_sq.reshape(c, 1, kh * kw),
                        _dw_window(xd, kh, kw, taps, oh, ow))
        out = out.reshape(c, n, oh, ow).transpose(1, 0, 2, 3)
    else:
        pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
        cols = _im2col(np.pad(xd, pad) if padding else xd, kh, kw, stride)
        out = np.einsum("ncijpq,cij->ncpq", cols, w_sq, optimize=True)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)
    if not _GradMode.enabled or not any(p.requires_grad for p in parents):
        return Tensor(out)

    def backward(grad):
        gx = gw = gb = None
        if x.requires_grad:
            # scatter in (H, W, N, C) order, so each tap's update runs over
            # whole channel rows rather than 2-8 wide spatial rows; every
            # element still sums its taps in ascending (i, j) order
            grad_t = np.ascontiguousarray(grad.transpose(2, 3, 0, 1))
            w_t = w_sq.transpose(1, 2, 0)  # (kh, kw, C)
            gx_t = np.zeros((h, w, n, c), dtype=xd.dtype)
            for i, j, in_rows, in_cols, out_rows, out_cols in taps:
                gx_t[in_rows, in_cols] += grad_t[out_rows, out_cols] * w_t[i, j]
            gx = np.ascontiguousarray(gx_t.transpose(2, 3, 0, 1))
        if weight.requires_grad:
            if direct:
                gw = np.matmul(
                    _dw_window(xd, kh, kw, taps, oh, ow),
                    grad.transpose(1, 0, 2, 3).reshape(c, n * oh * ow, 1),
                ).reshape(c, kh, kw)[:, None]
            else:
                gw = np.einsum("ncpq,ncijpq->cij", grad, cols,
                               optimize=True)[:, None]
        if bias is not None and bias.requires_grad:
            gb = grad.sum(axis=(0, 2, 3))
        return list(zip(parents, (gx, gw, gb)))

    return Tensor._make(out, parents, backward)


@_op("conv2d")
def _conv2d_generic(x: Tensor, weight: Tensor, bias: Optional[Tensor],
                    stride: int, groups: int) -> Tensor:
    """Generic grouped convolution via materialised im2col columns."""
    n, c_in, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    co_g = c_out // groups

    cols = _im2col(x.data, kh, kw, stride)  # (N, C, kh, kw, OH, OW)
    # Group the channel axis: (N, G, OH*OW, C_in_g*kh*kw)
    cols_g = cols.reshape(n, groups, c_in_g, kh, kw, oh, ow)
    cols_mat = cols_g.transpose(0, 1, 5, 6, 2, 3, 4).reshape(
        n, groups, oh * ow, c_in_g * kh * kw)
    w_mat = weight.data.reshape(groups, co_g, c_in_g * kh * kw)

    # (n, g, oh*ow, co_g) = (n, g, oh*ow, ckk) @ (g, ckk, co_g)
    out_mat = np.einsum("ngpk,gok->ngpo", cols_mat, w_mat, optimize=True)
    out = out_mat.transpose(0, 1, 3, 2).reshape(n, c_out, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    if not _GradMode.enabled or not any(p.requires_grad for p in parents):
        return Tensor(out)

    def backward(grad):
        grad_mat = grad.reshape(n, groups, co_g, oh * ow).transpose(0, 1, 3, 2)
        gx = gw = gb = None
        if x.requires_grad:
            # dX columns: (n,g,p,k) = grad (n,g,p,o) @ w (g,o,k)
            gcols_mat = np.einsum("ngpo,gok->ngpk", grad_mat, w_mat,
                                  optimize=True)
            gcols = gcols_mat.reshape(n, groups, oh, ow, c_in_g, kh, kw)
            gcols = gcols.transpose(0, 1, 4, 5, 6, 2, 3).reshape(
                n, c_in, kh, kw, oh, ow)
            gx = _col2im(gcols, (n, c_in, h, w), kh, kw, stride)
        if weight.requires_grad:
            # dW: (g, o, k) = sum_n,p grad (n,g,p,o) * cols (n,g,p,k)
            gw = np.einsum("ngpo,ngpk->gok", grad_mat, cols_mat,
                           optimize=True).reshape(c_out, c_in_g, kh, kw)
        if bias is not None and bias.requires_grad:
            gb = grad.sum(axis=(0, 2, 3))
        return list(zip(parents, (gx, gw, gb)))

    return Tensor._make(out, parents, backward)


def avg_pool_global(x: Tensor) -> Tensor:
    """Global average pooling: ``(N, C, H, W) -> (N, C)``."""
    return mean(x, axis=(2, 3))


# ----------------------------------------------------------------------
# Operator overloads
# ----------------------------------------------------------------------

Tensor.__add__ = lambda self, other: add(self, other)
Tensor.__radd__ = lambda self, other: add(_as_tensor(other), self)
Tensor.__sub__ = lambda self, other: sub(self, other)
Tensor.__rsub__ = lambda self, other: sub(_as_tensor(other), self)
Tensor.__mul__ = lambda self, other: mul(self, other)
Tensor.__rmul__ = lambda self, other: mul(_as_tensor(other), self)
Tensor.__truediv__ = lambda self, other: div(self, other)
Tensor.__rtruediv__ = lambda self, other: div(_as_tensor(other), self)
Tensor.__neg__ = neg
Tensor.__matmul__ = matmul
Tensor.__getitem__ = getitem

Tensor.sum = sum_
Tensor.mean = mean
Tensor.reshape = reshape
Tensor.transpose = transpose
Tensor.exp = exp
Tensor.log = log
Tensor.sqrt = sqrt
