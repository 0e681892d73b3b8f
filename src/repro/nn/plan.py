"""Step compiler: trace-once/replay-many execution plans for the nn engine.

A *step plan* records one genuine eager training step — forward tape,
backward sweep, optimizer-visible gradients — and lowers it to a flat
schedule of raw-numpy kernel calls that can be replayed with **zero tape
construction and near-zero fresh allocations**.  Every op output and every
gradient array of the traced step is *adopted* as a plan-owned buffer; the
replay kernels write into those exact arrays with ``out=``-style numpy
calls, so the replayed step reuses the eager step's own memory, layouts and
reduction orders.  In float64 a replay is therefore **bit-identical** to
the eager engine by construction (asserted by the golden-trajectory and
hypothesis parity tests).

Architecture
------------
* :class:`_Tracer` hooks into ``ops._op`` (via ``ops._TRACER``) and records
  every primitive op in call order, interleaved with *effects* — non-tape
  side computations such as BatchNorm running-stat updates and Dropout mask
  redraws, registered by the modules through
  :func:`repro.nn.ops.record_replay_effect`.
* Forward lowering adopts each record's output array.  Pure-view outputs
  (transpose, view-reshape, basic-slice getitem) need no kernel at all:
  the standing view updates automatically when its base is rewritten.
* Backward lowering replicates :meth:`Tensor.backward`'s exact sweep while
  calling each real traced closure **once** (this doubles as the traced
  step's actual backward), adopting every gradient array it produces.
  Per-node replay kernels either (a) skip pure-view contributions,
  (b) use a hand-written ``out=`` kernel that matches the closure's
  arithmetic bit-for-bit, or (c) fall back to calling the original closure
  and copying the results into the adopted buffers.
* A :class:`BufferArena` hands out shape+dtype-keyed scratch workspaces and
  tracks adopted bytes and pool hit/miss counters; evicted plans release
  their workspaces back to the pool.
* :class:`StepProgram` keys compiled plans by a caller key plus
  ``(dtype, fast-kernels flag, grad flag)`` in an LRU cache, and falls back
  to the plain eager step when plans are disabled (:func:`plans`,
  ``--no-plans``, or ``REPRO_NN_PLANS=0``).

Invalidation is **loud**: a replay with a changed batch shape, missing
input, rebound parameter storage, or drifted sampled path (the STE guard)
raises :class:`PlanError` instead of silently reusing stale buffers.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import ops, profiler
from .tensor import Tensor, _unbroadcast, get_default_dtype

try:  # numpy's 2-operand einsum fast path; guarded — the layout is private
    from numpy._core.einsumfunc import bmm_einsum as _np_bmm_einsum
    from numpy._core.einsumfunc import (
        _parse_eq_to_batch_matmul as _parse_bmm)
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # pragma: no cover - older/newer numpy layouts
    _np_bmm_einsum = None
    _parse_bmm = None
    _c_einsum = None

__all__ = ["PlanError", "BufferArena", "StepPlan", "StepProgram", "plans",
           "plans_enabled", "fusion", "fusion_enabled"]


class PlanError(RuntimeError):
    """A step plan could not be compiled or safely replayed.

    Raised instead of silently recomputing or reusing stale buffers: the
    caller should either fix the key (recompile) or fall back to the eager
    engine with :func:`plans` ``(False)``.
    """


# ----------------------------------------------------------------------
# Global enable switch (default ON; REPRO_NN_PLANS=0 opts out process-wide)
# ----------------------------------------------------------------------

class _PlanMode:
    enabled: bool = os.environ.get(
        "REPRO_NN_PLANS", "1").strip().lower() not in ("0", "false", "off", "no")


def plans_enabled() -> bool:
    """Whether :class:`StepProgram` compiles/replays plans (vs eager steps)."""
    return _PlanMode.enabled


@contextmanager
def plans(enabled: bool = True) -> Iterator[None]:
    """Enable/disable step plans inside the context.

    ``plans(False)`` is the eager escape hatch: every
    :meth:`StepProgram.run` inside the context executes the plain
    tape-based step instead of compiling or replaying a plan.
    """
    previous = _PlanMode.enabled
    _PlanMode.enabled = bool(enabled)
    try:
        yield
    finally:
        _PlanMode.enabled = previous


class _FusionMode:
    enabled: bool = os.environ.get(
        "REPRO_NN_FUSION", "1").strip().lower() not in (
            "0", "false", "off", "no")


def fusion_enabled() -> bool:
    """Whether plan compilation runs the kernel-fusion pass."""
    return _FusionMode.enabled


@contextmanager
def fusion(enabled: bool = True) -> Iterator[None]:
    """Enable/disable the plan fusion pass inside the context.

    ``fusion(False)`` keeps step plans but compiles them one traced op per
    kernel — the escape hatch (also ``--no-fusion`` / ``REPRO_NN_FUSION=0``)
    for isolating a suspected fusion bug or benchmarking the fusion win.
    Fusion never changes replayed bits either way: every fused kernel is
    gated by a build-time bitwise acceptance probe and rejected per-site on
    any mismatch.
    """
    previous = _FusionMode.enabled
    _FusionMode.enabled = bool(enabled)
    try:
        yield
    finally:
        _FusionMode.enabled = previous


# ----------------------------------------------------------------------
# Buffer arena
# ----------------------------------------------------------------------

class BufferArena:
    """Shape+dtype-keyed buffer pool shared by the plans of one program.

    Two kinds of memory flow through the arena:

    * **adopted** buffers — arrays materialised by the traced eager step and
      taken over as plan state (op outputs, gradients, masks).  They are
      owned by exactly one plan and counted in :attr:`adopted_bytes`.
    * **requested** workspaces — fresh scratch arrays handed out by
      :meth:`request` and returned to the keyed pool when a plan is evicted,
      so the next compile with matching shapes reuses them
      (:attr:`hits`/:attr:`misses` count pool traffic).
    """

    def __init__(self) -> None:
        self._pool: Dict[tuple, List[np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        self.adopted_bytes = 0
        self.adopted_arrays = 0
        self.requested_bytes = 0

    @staticmethod
    def _key(shape, dtype) -> tuple:
        return (tuple(int(s) for s in shape), np.dtype(dtype).str)

    def request(self, shape, dtype, zero: bool = False) -> np.ndarray:
        """A writable array of exactly ``shape``/``dtype`` (pooled if possible)."""
        key = self._key(shape, dtype)
        stack = self._pool.get(key)
        if stack:
            self.hits += 1
            arr = stack.pop()
            if zero:
                arr.fill(0)
            return arr
        self.misses += 1
        arr = np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype=dtype)
        self.requested_bytes += arr.nbytes
        return arr

    def release(self, arr: np.ndarray) -> None:
        """Return a workspace obtained from :meth:`request` to the pool."""
        self._pool.setdefault(self._key(arr.shape, arr.dtype), []).append(arr)

    def total_bytes(self) -> int:
        """Bytes held alive through the arena (adopted + pooled workspaces)."""
        return int(self.adopted_bytes + self.requested_bytes)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

class _Record:
    __slots__ = ("kind", "args", "kwargs", "out")

    def __init__(self, kind, args, kwargs, out):
        self.kind = kind
        self.args = args
        self.kwargs = kwargs
        self.out = out


class _Tracer:
    """Collects ``("op", record)`` / ``("effect", fn)`` entries in call order."""

    def __init__(self) -> None:
        self.entries: List[tuple] = []

    def record(self, kind, args, kwargs, out) -> None:
        # identity ops (e.g. pad2d with padding=0) return an argument
        # unchanged — nothing to replay
        for a in args:
            if out is a:
                return
        self.entries.append(("op", _Record(kind, args, kwargs, out)))

    def record_effect(self, fn: Callable[[], None]) -> None:
        self.entries.append(("effect", fn))


#: positional parameter names and defaults per op kind (mirrors ops.py)
_SIGNATURES: Dict[str, tuple] = {
    "add": (("a", "b"), {}),
    "sub": (("a", "b"), {}),
    "mul": (("a", "b"), {}),
    "div": (("a", "b"), {}),
    "neg": (("a",), {}),
    "pow": (("a", "exponent"), {}),
    "exp": (("a",), {}),
    "log": (("a",), {}),
    "sqrt": (("a",), {}),
    "maximum": (("a", "b"), {}),
    "clip": (("a", "low", "high"), {}),
    "relu": (("a",), {}),
    "sigmoid": (("a",), {}),
    "tanh": (("a",), {}),
    "dropout": (("a", "mask", "scale"), {}),
    "matmul": (("a", "b"), {}),
    "sum": (("a", "axis", "keepdims"), {"axis": None, "keepdims": False}),
    "amax": (("a", "axis", "keepdims"), {"axis": None, "keepdims": False}),
    "reshape": (("a", "shape"), {}),
    "transpose": (("a", "axes"), {"axes": None}),
    "getitem": (("a", "index"), {}),
    "concat": (("tensors", "axis"), {"axis": 0}),
    "stack": (("tensors", "axis"), {"axis": 0}),
    "pad2d": (("a", "padding"), {}),
    "conv2d_1x1": (("x", "weight", "bias", "stride"), {}),
    "conv2d_dw": (("x", "weight", "bias", "stride"), {}),
    "conv2d": (("x", "weight", "bias", "stride", "groups"), {}),
    "ste": (("probs", "axis"), {"axis": -1}),
}


def _bind(rec: _Record) -> Dict[str, Any]:
    """Bind a record's raw ``(args, kwargs)`` to named parameters."""
    try:
        names, defaults = _SIGNATURES[rec.kind]
    except KeyError:
        raise PlanError(f"step plan cannot lower unknown op kind {rec.kind!r}")
    bound = dict(defaults)
    bound.update(zip(names, rec.args))
    bound.update(rec.kwargs)
    return bound


def _operand(value, dtype) -> np.ndarray:
    """The live array behind an op operand.

    Tensors contribute their (plan-stable) ``.data``; raw scalars/arrays are
    baked exactly as ``ops._as_tensor`` would have stored them.  ``asarray``
    preserves identity when the dtype already matches, which keeps the
    Dropout mask an *alias* of the module's persistent buffer.
    """
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


# ----------------------------------------------------------------------
# Forward kernel builders
# ----------------------------------------------------------------------

def _ufunc2(ufunc, a, b, o):
    def kernel():
        ufunc(a, b, out=o)
    return kernel


def _build_forward(rec: _Record, plan: "StepPlan",
                   dtype: np.dtype) -> Optional[Callable[[], None]]:
    """A replay kernel writing ``rec.out.data`` in place, or None for views.

    Each kernel reproduces the corresponding eager forward in ops.py with
    the same elementwise/reduction arithmetic, writing into the adopted
    output buffer instead of allocating.
    """
    kind = rec.kind
    b = _bind(rec)
    o = rec.out.data

    if kind in ("add", "sub", "mul", "div", "maximum"):
        x = _operand(b["a"], dtype)
        y = _operand(b["b"], dtype)
        ufunc = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
                 "div": np.divide, "maximum": np.maximum}[kind]
        return _ufunc2(ufunc, x, y, o)
    if kind == "neg":
        a = _operand(b["a"], dtype)
        return lambda: np.negative(a, out=o)
    if kind == "pow":
        a = _operand(b["a"], dtype)
        e = float(b["exponent"])
        # ndarray.__pow__ special-cases small exponents; replicate verbatim
        return lambda: np.copyto(o, a ** e)
    if kind in ("exp", "log", "sqrt", "tanh"):
        a = _operand(b["a"], dtype)
        ufunc = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt,
                 "tanh": np.tanh}[kind]
        return lambda: ufunc(a, out=o)
    if kind == "sigmoid":
        a = _operand(b["a"], dtype)

        def sigmoid_kernel():
            np.negative(a, out=o)
            np.exp(o, out=o)
            np.add(o, 1.0, out=o)
            np.divide(1.0, o, out=o)
        return sigmoid_kernel
    if kind == "relu":
        a = _operand(b["a"], dtype)
        return lambda: np.maximum(a, 0.0, out=o)
    if kind == "clip":
        a = _operand(b["a"], dtype)
        low, high = b["low"], b["high"]
        return lambda: np.clip(a, low, high, out=o)
    if kind == "dropout":
        a = _operand(b["a"], dtype)
        mask = np.asarray(b["mask"])  # aliased: effects refresh it in place
        scale = b["scale"]

        def dropout_kernel():
            np.multiply(a, mask, out=o)
            np.multiply(o, scale, out=o)
        return dropout_kernel
    if kind == "matmul":
        x = _operand(b["a"], dtype)
        y = _operand(b["b"], dtype)
        if x.ndim >= 2 and y.ndim >= 2:
            return lambda: np.matmul(x, y, out=o)
        return lambda: np.copyto(o, x @ y)
    if kind == "sum":
        a = _operand(b["a"], dtype)
        axis, keepdims = b["axis"], b["keepdims"]
        return lambda: np.sum(a, axis=axis, keepdims=keepdims, out=o)
    if kind == "amax":
        a = _operand(b["a"], dtype)
        axis, keepdims = b["axis"], b["keepdims"]
        return lambda: np.amax(a, axis=axis, keepdims=keepdims, out=o)
    if kind == "reshape":
        a = _operand(b["a"], dtype)
        if np.shares_memory(o, a):
            return None
        shape = b["shape"]
        return lambda: np.copyto(o, a.reshape(shape))
    if kind == "transpose":
        a = _operand(b["a"], dtype)
        if np.shares_memory(o, a):
            return None
        axes = b["axes"]
        return lambda: np.copyto(o, np.transpose(a, axes))
    if kind == "getitem":
        a = _operand(b["a"], dtype)
        index = b["index"]
        if isinstance(o, np.ndarray) and o.size and np.shares_memory(o, a):
            return None
        return lambda: np.copyto(o, a[index])
    if kind in ("concat", "stack"):
        srcs = [_operand(t, dtype) for t in b["tensors"]]
        axis = b["axis"]
        if kind == "concat":
            return lambda: np.concatenate(srcs, axis=axis, out=o)
        return lambda: np.stack(srcs, axis=axis, out=o)
    if kind == "pad2d":
        a = _operand(b["a"], dtype)
        p = int(b["padding"])
        interior = o[:, :, p:-p, p:-p]  # border zeros persist from the trace

        def pad_kernel():
            np.copyto(interior, a)
        return pad_kernel
    if kind == "ste":
        return _build_ste_forward(rec, b, plan)
    if kind == "conv2d_1x1":
        return _build_conv1x1_forward(rec, b, plan, dtype)
    if kind == "conv2d_dw":
        return _build_convdw_forward(rec, b, plan, dtype)
    if kind == "conv2d":
        return _build_convgen_forward(rec, b, plan, dtype)
    raise PlanError(f"step plan cannot lower op kind {kind!r}")


def _build_ste_forward(rec, b, plan):
    """Hard binarize; guarded records verify the traced argmax still holds.

    A *guarded* STE is one whose one-hot output selects control flow (its
    data is consumed by a ``getitem`` record — the per-layer gate lookup of
    ``forward_single_path``).  Since the plan baked the traced path's op
    sequence, a drifted argmax would silently replay the wrong block; the
    guard turns that into a loud :class:`PlanError`.  Deterministic-path STE
    outputs that only feed the predictor stay unguarded — their argmax may
    legitimately drift within one plan key.
    """
    o = rec.out.data
    probs = b["probs"].data
    axis = b["axis"]
    guarded = id(rec) in plan._guarded_ste
    baked = np.argmax(probs, axis=axis).copy()  # trace-time selections

    def ste_kernel():
        idx = np.argmax(probs, axis=axis)
        if guarded and not np.array_equal(idx, baked):
            raise PlanError(
                "sampled path drifted from the traced plan: argmax of the "
                "STE input no longer matches the compiled selections — the "
                "plan key must include the sampled-path signature")
        o.fill(0.0)
        np.put_along_axis(o, np.expand_dims(idx, axis=axis), 1.0, axis=axis)
    return ste_kernel


def _freeze_bmm(subscripts, a, b):
    """Build-time specialization of numpy's ``bmm_einsum`` lowering.

    Replays run the same contraction on the same frozen buffers, so the
    parse/prep/reshape work ``bmm_einsum`` repeats on every call can be
    done once here: operand reshapes become standing views, operand
    transposes become at most one bound ``c_einsum`` copy each, and the
    replay kernel collapses to a single ``np.matmul``.  Returns a
    candidate factory for :func:`_bind_einsum` (its bitwise probe still
    gates acceptance), or None when the lowering cannot be frozen.
    """
    if _np_bmm_einsum is None or _parse_bmm is None:
        return None
    try:
        parsed = _parse_bmm(subscripts, a.shape, b.shape)
    except Exception:
        return None
    eq_a, eq_b, shape_a, shape_b, shape_ab, perm_ab, pure_mult = parsed
    if pure_mult:  # the multiply lowering preps differently; keep einsum
        return None

    def prep(src, eq, new_shape):
        steps = []
        cur = src
        if eq is not None:  # diagonal/transpose copy into a standing buffer
            buf = np.empty(_c_einsum(eq, src).shape, dtype=src.dtype)
            step = lambda e=eq, s=src, o=buf: _c_einsum(e, s, out=o)
            step()  # fill it now: the factory's build-time matmul reads it
            steps.append(step)
            cur = buf
        if new_shape is not None:
            view = cur.reshape(new_shape)
            if not np.shares_memory(view, cur):
                return None  # reshape would copy per replay — can't freeze
            cur = view
        return steps, cur

    left = prep(a, eq_a, shape_a)
    right = prep(b, eq_b, shape_b)
    if left is None or right is None:
        return None
    steps = left[0] + right[0]
    am, bm = left[1], right[1]

    def factory(dst):
        if shape_ab is None and perm_ab is None:
            if not steps:
                return lambda: np.matmul(am, bm, out=dst)

            def direct():
                for s in steps:
                    s()
                np.matmul(am, bm, out=dst)
            return direct
        mm = np.matmul(am, bm)  # frozen intermediate; rewritten per replay
        ab = mm.reshape(shape_ab) if shape_ab is not None else mm
        if perm_ab is not None:
            ab = ab.transpose(perm_ab)

        def kernel():
            for s in steps:
                s()
            np.matmul(am, bm, out=mm)
            np.copyto(dst, ab)
        return kernel

    return factory


def _bind_einsum(subscripts, operands, out, candidate=None):
    """Freeze one einsum of the plan into its cheapest bit-exact form.

    A plan's buffers never change shape, stride, or dtype between
    replays, so numpy/BLAS kernel selection — a function of exactly
    those properties, never of values — is frozen too.  That makes a
    one-shot probe sound: if ``candidate`` (a closure writing its
    destination argument, typically a direct ``np.matmul``) reproduces
    ``einsum(optimize=True)`` bit-for-bit on the live traced arrays, it
    is bound as the replay kernel and the einsum dispatch layer is
    skipped entirely.  Any mismatch, error, or stray-copy write (the
    destination is zeroed first, so a candidate that silently writes a
    reshape copy fails the comparison) falls back to the einsum.  The
    destination's traced contents are restored after the probe.
    """
    candidates = [candidate] if callable(candidate) else list(candidate or ())
    # second chance for every site: the path-free C einsum.  It wins when
    # the traced contraction never dispatched to BLAS (small reductions).
    candidates.append(lambda dst: lambda: np.einsum(
        subscripts, *operands, out=dst, optimize=False))
    if _np_bmm_einsum is not None and len(operands) == 2:
        # einsum's optimizer lowers 2-operand contractions to this batched
        # matmul helper, sometimes with the operands swapped — probe both
        # orders and skip the path machinery on replay
        a, b = operands
        lhs, rhs = subscripts.split("->")
        sa, sb = lhs.split(",")
        swapped = f"{sb},{sa}->{rhs}"
        for eq, x, y in ((subscripts, a, b), (swapped, b, a)):
            frozen = _freeze_bmm(eq, x, y)
            if frozen is not None:
                candidates.append(frozen)
        candidates.append(
            lambda dst: lambda: _np_bmm_einsum(subscripts, a, b, out=dst))
        candidates.append(
            lambda dst: lambda: _np_bmm_einsum(swapped, b, a, out=dst))
    ref = np.einsum(subscripts, *operands, optimize=True)
    saved = out.copy()
    try:
        for make in candidates:
            try:
                out.fill(0)
                kernel = make(out)  # binds views of ``out`` once
                kernel()
                if out.dtype.kind == "f":
                    ok = np.array_equal(out, ref, equal_nan=True)
                else:
                    ok = np.array_equal(out, ref)
            except Exception:
                ok = False
            if ok:
                return kernel
    finally:
        np.copyto(out, saved)
    return lambda: np.einsum(subscripts, *operands, out=out, optimize=True)


# ----------------------------------------------------------------------
# Fusion pass
#
# Every fused kernel below is gated by a build-time bitwise acceptance
# probe on the live traced buffers: a plan's shapes, strides and dtypes
# are frozen, so numpy/BLAS kernel selection is frozen too, and a probe
# that reproduces the traced contents bit-for-bit once will do so on
# every replay.  A site that fails its probe is rejected (counted in
# ``fusion_rejected``) and lowered the unfused way — fusion ON therefore
# never changes replayed bits, only dispatch count.
# ----------------------------------------------------------------------

def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype.kind == "f":
        return np.array_equal(a, b, equal_nan=True)
    return np.array_equal(a, b)


def _probe_kernel(make, out, ref=None):
    """Bind ``make(out)`` as a fused kernel iff it writes ``out`` bit-exactly.

    ``out`` must hold its traced contents (the probe reference unless an
    explicit ``ref`` is given); it is zeroed first so a kernel that misses
    elements or silently writes a reshape copy fails the comparison, and
    restored afterwards.  Returns the bound kernel or None on mismatch.
    """
    saved = out.copy()
    if ref is None:
        ref = saved
    kernel = None
    try:
        out.fill(0)
        try:
            kernel = make(out)
            kernel()
            ok = _bits_equal(out, ref)
        except Exception:
            ok = False
    finally:
        np.copyto(out, saved)
    return kernel if ok else None


def _fuse_convdw_forward(rec, plan, dtype, cols, w_t, w_sq, o):
    """Shared-cols depthwise forward: one packed copy feeds fwd *and* gw.

    The depthwise contraction and its weight gradient both reduce over the
    same strided im2col window view, and the frozen-bmm lowering of each
    pays a separate strided pack per replay.  Packing once into a
    ``(c, k·k, n·oh·ow)`` workspace turns the forward into a single batched
    matmul and lets the backward's weight-gradient matmul reuse the copy
    (see :func:`_fuse_convdw_gw`), halving the dominant memory traffic.
    """
    n, c, kh, kw, oh, ow = cols.shape
    kk, npq = kh * kw, n * oh * ow
    w3 = w_sq.reshape(c, 1, kk)
    if not np.shares_memory(w3, w_t.data):
        return None
    colsB = plan.request((c, kk, npq), dtype)
    colsB_view = colsB.reshape(c, kh, kw, n, oh, ow)
    cols_src = cols.transpose(1, 2, 3, 0, 4, 5)
    mm = plan.request((c, 1, npq), dtype)
    mm_view = mm.reshape(c, n, oh, ow)
    dst_t = o.transpose(1, 0, 2, 3)

    def make(_dst):
        def kernel():
            np.copyto(colsB_view, cols_src)
            np.matmul(w3, colsB, out=mm)
            np.copyto(dst_t, mm_view)
        return kernel
    kernel = _probe_kernel(make, o)
    if kernel is None:
        plan.fusion_rejected += 1
        return None
    plan.fused_kernels += 1
    kernel._label = "fused:conv2d_dw.cols"
    # the probe run above left the traced cols in colsB, so the backward
    # builder's own probe compares on real data
    plan._conv_ws[id(rec)] = {"colsB": colsB, "dims": (n, c, kh, kw, oh, ow)}
    return kernel


def _fuse_convdw_gw(plan, dtype, rec, g, flat):
    """Depthwise weight gradient off the forward's shared cols copy.

    Only offered when :func:`_fuse_convdw_forward` was accepted for the
    same record: that kernel refreshes ``colsB`` at the top of every
    replay's forward schedule, which always runs before the backward.
    """
    ws = plan._conv_ws.get(id(rec))
    if ws is None or "colsB" not in ws:
        return None
    colsB = ws["colsB"]
    n, c, kh, kw, oh, ow = ws["dims"]
    kk, npq = kh * kw, n * oh * ow
    gw3 = flat.reshape(c, kk, 1)
    if not np.shares_memory(gw3, flat):
        return None
    gT = plan.request((c, npq, 1), dtype)
    gT_view = gT.reshape(c, n, oh, ow)
    g_src = g.transpose(1, 0, 2, 3)

    def make(dst):
        d3 = dst.reshape(c, kk, 1)

        def kernel():
            np.copyto(gT_view, g_src)
            np.matmul(colsB, gT, out=d3)
        return kernel
    kernel = _probe_kernel(make, flat)
    if kernel is None:
        plan.fusion_rejected += 1
        return None
    plan.fused_kernels += 1
    kernel._label = "fused:conv2d_dw.gw"
    return kernel


def _fuse_convdw_gx_clip(plan, dtype, b, g, B, w_sq, s, kh, kw, oh, ow):
    """Depthwise input-gradient tap loop clipped to the pad interior.

    When the conv input came from a ``pad2d`` consumed by nothing else
    (and is not a plan output), the pad's backward is a pure interior
    view of ``B`` — the border writes of the eager tap scatter are dead.
    The fused kernel zeroes just the interior and runs the same ascending
    (i, j) multiply/accumulate with every tap clipped to the rows and
    columns that land inside it: per interior element the contributing
    taps, their order, and their values are identical to eager (the probe
    checks the interior bits), while the dead border keeps its traced
    contents and is never read.
    """
    x_t = b["x"]
    pad_rec = plan._produced_by.get(id(x_t))
    if pad_rec is None or pad_rec.kind != "pad2d":
        return None
    if len(plan._consumers.get(id(x_t), ())) != 1:
        return None
    if id(x_t) in plan._output_ids:
        return None
    p = int(_bind(pad_rec)["padding"])
    if p <= 0:
        return None
    h, w = B.shape[2:]
    interior = B[:, :, p:h - p, p:w - p]
    t = plan.request(g.shape, dtype)
    steps = []
    for i in range(kh):
        p_lo = max(0, -((i - p) // s))  # ceil((p - i) / s)
        p_hi = min(oh - 1, (h - 1 - p - i) // s)
        if p_lo > p_hi:
            continue
        for j in range(kw):
            q_lo = max(0, -((j - p) // s))
            q_hi = min(ow - 1, (w - 1 - p - j) // s)
            if q_lo > q_hi:
                continue
            g_clip = g[:, :, p_lo:p_hi + 1, q_lo:q_hi + 1]
            dest = B[:, :, i + s * p_lo:i + s * p_hi + 1:s,
                     j + s * q_lo:j + s * q_hi + 1:s]
            wv = w_sq[None, :, i, j, None, None]
            tc = t[:, :, :p_hi - p_lo + 1, :q_hi - q_lo + 1]
            steps.append((g_clip, wv, dest, tc))

    def kernel():
        interior.fill(0.0)
        for g_clip, wv, dest, tc in steps:
            np.multiply(g_clip, wv, out=tc)
            np.add(dest, tc, out=dest)

    saved = B.copy()
    try:
        kernel()
        ok = _bits_equal(interior, saved[:, :, p:h - p, p:w - p])
    except Exception:
        ok = False
    finally:
        np.copyto(B, saved)
    if not ok:
        plan.fusion_rejected += 1
        return None
    plan.fused_kernels += 1
    kernel._label = "fused:conv2d_dw.gx-clip"
    return kernel


def _sole_consumer(plan, t, kind):
    """The single record consuming tensor ``t`` as its first operand, if it
    has exactly one consumer of the given kind and is not a plan output."""
    if id(t) in plan._output_ids:
        return None
    recs = plan._consumers.get(id(t), ())
    if len(recs) != 1 or recs[0].kind != kind:
        return None
    r = recs[0]
    bound = _bind(r)
    if bound.get("a") is not t:
        return None
    return r, bound


def _make_folded_conv_bn(plan, rec, bb, out, affines):
    mean4, std4, gamma4, beta4 = affines
    dtype = out.dtype
    x_t, w_t = bb["x"], bb["weight"]
    s = bb["stride"]
    c_out = mean4.shape[1]
    scale4 = plan.request((1, c_out, 1, 1), dtype)
    shift4 = plan.request((1, c_out, 1, 1), dtype)
    s_flat = scale4.reshape(c_out)
    if rec.kind == "conv2d_1x1":
        xd = x_t.data[:, :, ::s, ::s] if s > 1 else x_t.data
        w_mat = w_t.data[:, :, 0, 0]
        wf = plan.request(w_mat.shape, dtype)
        s_col = s_flat[:, None]

        def make(dst):
            def kernel():
                np.divide(gamma4, std4, out=scale4)
                np.multiply(w_mat, s_col, out=wf)
                np.einsum("nchw,oc->nohw", xd, wf, out=dst, optimize=True)
                np.multiply(scale4, mean4, out=shift4)
                np.subtract(beta4, shift4, out=shift4)
                np.add(dst, shift4, out=dst)
            return kernel
    else:  # conv2d_dw
        kh, kw = w_t.data.shape[2:]
        cols = ops._im2col(x_t.data, kh, kw, s)
        w_sq = w_t.data[:, 0]
        wf = plan.request(w_sq.shape, dtype)
        s_cube = s_flat[:, None, None]

        def make(dst):
            def kernel():
                np.divide(gamma4, std4, out=scale4)
                np.multiply(w_sq, s_cube, out=wf)
                np.einsum("ncijpq,cij->ncpq", cols, wf, out=dst,
                          optimize=True)
                np.multiply(scale4, mean4, out=shift4)
                np.subtract(beta4, shift4, out=shift4)
                np.add(dst, shift4, out=dst)
            return kernel
    return _probe_kernel(make, out)


def _fold_conv_bn_sites(plan, op_records, replaced):
    """Fold eval-mode BatchNorm scale/shift into the preceding conv.

    Matches the exact chain BatchNorm2d emits in eval mode —
    ``conv → sub(mean) → div(std) → mul(γ) → add(β)`` with per-channel
    ``(1, C, 1, 1)`` affine operands — and replaces the five kernels with
    one that refolds ``W·(γ/std)`` and ``β − γ·mean/std`` from the *live*
    BN buffers on every replay (so ``load_state_dict`` updates keep
    working, and a ``.data`` rebind still trips the guards).  Only
    attempted on grad-free plans: a grad plan's backward closures read the
    intermediate buffers the fold would leave stale, and training-mode BN
    depends on batch statistics that do not exist before the conv runs —
    those plans keep per-op lowering, which is what preserves
    training-mode bit-identity and running-stat updates.  The fold
    changes the order of float multiplications, so the bitwise probe
    rejects it wherever distributivity does not hold exactly — honest
    rejections counted per site.
    """
    for rec in op_records:
        if rec.kind not in ("conv2d_1x1", "conv2d_dw"):
            continue
        if id(rec) in replaced:
            continue
        bb = _bind(rec)
        if bb["bias"] is not None:
            continue
        chain = []
        t = rec.out
        for kind in ("sub", "div", "mul", "add"):
            nxt = _sole_consumer(plan, t, kind)
            if nxt is None:
                chain = None
                break
            r, rb = nxt
            other = rb.get("b")
            if not isinstance(other, Tensor):
                chain = None
                break
            chain.append((r, other))
            t = r.out
        if not chain:
            continue
        c_out = rec.out.data.shape[1]
        affines = tuple(other.data for _, other in chain)
        if any(a.shape != (1, c_out, 1, 1) for a in affines):
            continue
        add_r = chain[-1][0]
        kernel = _make_folded_conv_bn(plan, rec, bb, add_r.out.data, affines)
        if kernel is None:
            plan.fusion_rejected += 1
            continue
        plan.fused_kernels += 1
        kernel._label = f"fused:{rec.kind}+bn"
        replaced[id(rec)] = None
        for r, _ in chain:
            replaced[id(r)] = None
        replaced[id(add_r)] = kernel


def _stack_conv1x1_siblings(plan, op_records, replaced):
    """Batch sibling 1×1 convs on one input into a single stacked matmul.

    Multi-path Gumbel evaluation (``forward_weighted``) dispatches every
    candidate block on the same layer input; their expansion convs are K
    independent ``(o, c) @ (n, c, pix)`` contractions.  Stacking the live
    weights into a ``(K, 1, o, c)`` workspace turns them into one batched
    matmul — per-slice GEMMs identical to the unfused lowering, so the
    probe usually accepts.  Emitted at the earliest sibling's position
    (the shared input is ready there; later consumers only see their
    output earlier, never a stale value).
    """
    groups: Dict[tuple, List[_Record]] = {}
    binds: Dict[int, dict] = {}
    for rec in op_records:
        if rec.kind != "conv2d_1x1" or id(rec) in replaced:
            continue
        bb = _bind(rec)
        if bb["bias"] is not None or bb["stride"] != 1:
            continue
        if not bb["x"].data.flags.c_contiguous:
            continue
        groups.setdefault((id(bb["x"]), bb["weight"].data.shape),
                          []).append(rec)
        binds[id(rec)] = bb
    for recs in groups.values():
        if len(recs) < 2:
            continue
        k_n = len(recs)
        bb0 = binds[id(recs[0])]
        xd = bb0["x"].data
        n, c = xd.shape[:2]
        o_ch = bb0["weight"].data.shape[0]
        pix = xd.shape[2] * xd.shape[3]
        x3 = xd.reshape(n, c, pix)
        outs = [r.out.data for r in recs]
        wsrcs = [binds[id(r)]["weight"].data[:, :, 0, 0] for r in recs]
        wstack = plan.request((k_n, 1, o_ch, c), xd.dtype)
        mm = plan.request((k_n, n, o_ch, pix), xd.dtype)

        def kernel(wsrcs=wsrcs, wstack=wstack, x3=x3, mm=mm, outs=outs):
            for i, wsrc in enumerate(wsrcs):
                np.copyto(wstack[i, 0], wsrc)
            np.matmul(wstack, x3, out=mm)
            # copyto through a reshaped *source* view: mm[i] is contiguous
            # so the reshape is free, while the destination may keep the
            # einsum's channel-major layout (strided copy is fine)
            for o, m in zip(outs, mm):
                np.copyto(o, m.reshape(o.shape))

        saved = [o.copy() for o in outs]
        try:
            for o in outs:
                o.fill(0)
            kernel()
            ok = all(_bits_equal(o, sv) for o, sv in zip(outs, saved))
        except Exception:
            ok = False
        finally:
            for o, sv in zip(outs, saved):
                np.copyto(o, sv)
        if not ok:
            plan.fusion_rejected += 1
            continue
        plan.fused_kernels += k_n
        kernel._label = f"fused:conv2d_1x1.x{k_n}"
        replaced[id(recs[0])] = kernel
        for r in recs[1:]:
            replaced[id(r)] = None


def _plan_fusions(plan, op_records):
    """Record-level fusion decisions, made before per-op lowering.

    Returns ``{id(record): kernel_or_None}`` — a record mapped to a kernel
    is replaced by it; a record mapped to None is subsumed by a fused
    kernel emitted at another record's position.
    """
    replaced: Dict[int, Optional[Callable[[], None]]] = {}
    if not plan.grad:
        _fold_conv_bn_sites(plan, op_records, replaced)
    _stack_conv1x1_siblings(plan, op_records, replaced)
    return replaced


def _pack_schedule(plan, sched, metas):
    """Merge adjacent elementwise kernels into composite dispatches.

    ``metas[i]`` is ``(kind, outs)`` for a packable kernel — one whose
    recomputation at the same inputs is a pure function writing exactly
    ``outs`` — or None for a barrier (convs, reductions, effects, STE
    guards).  Runs of ≥2 packable kernels are probed by re-executing them
    once at build time and comparing every written buffer against its
    traced contents; order inside a composite is unchanged, so this can
    only fail if a kernel is not actually idempotent — in which case it
    is rejected and the run stays unfused.
    """
    packed: List[Tuple[str, Callable[[], None]]] = []
    i, n = 0, len(sched)
    while i < n:
        j = i
        while j < n and metas[j] is not None:
            j += 1
        if j - i < 2:
            packed.append(sched[i])
            i = max(j, i + 1)
            continue
        run = sched[i:j]
        outs: List[np.ndarray] = []
        seen: set = set()
        for m in metas[i:j]:
            for arr in m[1]:
                if id(arr) not in seen:
                    seen.add(id(arr))
                    outs.append(arr)
        kernels = tuple(k for _, k in run)
        saved = [arr.copy() for arr in outs]
        try:
            for k in kernels:
                k()
            ok = all(_bits_equal(arr, sv) for arr, sv in zip(outs, saved))
        except Exception:
            ok = False
        finally:
            for arr, sv in zip(outs, saved):
                np.copyto(arr, sv)
        if not ok:
            plan.fusion_rejected += 1
            packed.extend(run)
            i = j
            continue
        kinds = [m[0] for m in metas[i:j]]
        label = "fused:" + "+".join(kinds[:3])
        if len(kinds) > 3:
            label += f"(+{len(kinds) - 3})"

        def composite(kernels=kernels):
            for k in kernels:
                k()
        packed.append((label, composite))
        plan.fused_kernels += len(kernels)
        i = j
    return packed


def _build_conv1x1_forward(rec, b, plan, dtype):
    o = rec.out.data
    x_t, w_t, bias_t = b["x"], b["weight"], b["bias"]
    s = b["stride"]
    xd = x_t.data[:, :, ::s, ::s] if s > 1 else x_t.data  # standing view
    w_mat = w_t.data[:, :, 0, 0]
    n, c = xd.shape[:2]
    pix = xd.shape[2] * xd.shape[3]
    cand = None
    if xd.flags.c_contiguous:
        x3 = xd.reshape(n, c, pix)  # view

        def cand(dst):
            d3 = dst.reshape(n, -1, pix)
            return lambda: np.matmul(w_mat, x3, out=d3)
    dest = o if bias_t is None else plan.request(o.shape, dtype)
    ein = _bind_einsum("nchw,oc->nohw", (xd, w_mat), dest, cand)
    if bias_t is None:
        return ein
    bias4 = bias_t.data.reshape(1, -1, 1, 1)

    def kernel():
        ein()
        np.add(dest, bias4, out=o)
    return kernel


def _build_convdw_forward(rec, b, plan, dtype):
    o = rec.out.data
    x_t, w_t, bias_t = b["x"], b["weight"], b["bias"]
    s = b["stride"]
    kh, kw = w_t.data.shape[2:]
    cols = ops._im2col(x_t.data, kh, kw, s)  # standing strided view
    w_sq = w_t.data[:, 0]
    if bias_t is None:
        if _FusionMode.enabled:
            fused = _fuse_convdw_forward(rec, plan, dtype, cols, w_t, w_sq, o)
            if fused is not None:
                return fused
        return _bind_einsum("ncijpq,cij->ncpq", (cols, w_sq), o)
    scratch = plan.request(o.shape, dtype)
    bias4 = bias_t.data.reshape(1, -1, 1, 1)
    ein = _bind_einsum("ncijpq,cij->ncpq", (cols, w_sq), scratch)

    def kernel():
        ein()
        np.add(scratch, bias4, out=o)
    return kernel


def _build_convgen_forward(rec, b, plan, dtype):
    """Generic grouped conv: persistent im2col matrix + einsum + regroup.

    The materialised column matrix lives in an arena workspace refilled by a
    single strided-view copy per replay; the backward builder reuses it via
    ``plan._conv_ws``.
    """
    o = rec.out.data
    x_t, w_t, bias_t = b["x"], b["weight"], b["bias"]
    s, groups = b["stride"], b["groups"]
    n, c_in, h, w = x_t.data.shape
    c_out, c_in_g, kh, kw = w_t.data.shape
    oh = (h - kh) // s + 1
    ow = (w - kw) // s + 1
    co_g = c_out // groups
    ckk = c_in_g * kh * kw

    cols = ops._im2col(x_t.data, kh, kw, s)
    cols_mat = plan.request((n, groups, oh * ow, ckk), dtype)
    cm_view = cols_mat.reshape(n, groups, oh, ow, c_in_g, kh, kw)
    src = cols.reshape(n, groups, c_in_g, kh, kw, oh, ow)
    src_t = src.transpose(0, 1, 5, 6, 2, 3, 4)
    static_src = np.shares_memory(src_t, x_t.data)
    w_mat = w_t.data.reshape(groups, co_g, ckk)
    out_mat = plan.request((n, groups, oh * ow, co_g), dtype)
    out_src = out_mat.transpose(0, 1, 3, 2)
    target = o if bias_t is None else plan.request(o.shape, dtype)
    target_g = target.reshape(n, groups, co_g, oh * ow)
    bias4 = None if bias_t is None else bias_t.data.reshape(1, c_out, 1, 1)
    plan._conv_ws[id(rec)] = {
        "cols_mat": cols_mat, "w_mat": w_mat,
        "dims": (n, c_in, h, w, c_out, c_in_g, kh, kw, oh, ow, co_g, ckk),
        "stride": s, "groups": groups,
    }

    def fill_cols():
        if static_src:
            np.copyto(cm_view, src_t)
        else:  # reshape degraded to a copy: rebuild the window view live
            live = ops._im2col(x_t.data, kh, kw, s)
            np.copyto(cm_view, live.reshape(
                n, groups, c_in_g, kh, kw, oh, ow).transpose(0, 1, 5, 6, 2, 3, 4))

    # seed the workspace with traced activations so _bind_einsum probes
    # (here and in the backward builder) compare on real data
    fill_cols()
    wT = plan.request((groups, ckk, co_g), dtype)
    w_src = w_mat.transpose(0, 2, 1)

    def cand(dst):
        def kernel():
            np.copyto(wT, w_src)  # weights change per step: refresh the copy
            np.matmul(cols_mat, wT, out=dst)
        return kernel
    ein = _bind_einsum("ngpk,gok->ngpo", (cols_mat, w_mat), out_mat, cand)

    def kernel():
        fill_cols()
        ein()
        np.copyto(target_g, out_src)
        if bias4 is not None:
            np.add(target, bias4, out=o)
    return kernel


# ----------------------------------------------------------------------
# Backward kernel builders
#
# Each builder receives the node's fixed incoming-gradient array ``g``, the
# pairs produced by one real call of the traced closure, and the subset of
# pairs needing a writer (``writes`` maps pair index -> adopted array).  It
# returns a list of replay kernels, or None to decline — in which case the
# generic closure-call fallback handles the node (recomputing exactly what
# the eager engine would, then copying into the adopted buffers).
#
# Builders only take over when they can reproduce the closure's arithmetic
# bit-for-bit without fresh layout-sensitive temporaries: pairs that need an
# ``_unbroadcast`` reduction are left to the fallback, because the summation
# order of a reduction depends on the memory layout of its (eager-allocated)
# operand and a C-ordered arena workspace could legally differ.
# ----------------------------------------------------------------------

def _bwd_relu(b, rec, g, pairs, writes, plan, dtype):
    a = b["a"].data
    B = writes[0][1]
    mask = plan.request(a.shape, np.bool_)

    def kernel():
        np.greater(a, 0.0, out=mask)
        np.multiply(g, mask, out=B)
    return [kernel]


def _bwd_clip(b, rec, g, pairs, writes, plan, dtype):
    a = b["a"].data
    low, high = b["low"], b["high"]
    B = writes[0][1]
    m1 = plan.request(a.shape, np.bool_)
    m2 = plan.request(a.shape, np.bool_)

    def kernel():
        np.greater(a, low, out=m1)
        np.less(a, high, out=m2)
        np.logical_and(m1, m2, out=m1)
        np.multiply(g, m1, out=B)
    return [kernel]


def _bwd_dropout(b, rec, g, pairs, writes, plan, dtype):
    mask = np.asarray(b["mask"])
    scale = b["scale"]
    B = writes[0][1]

    def kernel():
        np.multiply(g, mask, out=B)
        np.multiply(B, scale, out=B)
    return [kernel]


def _bwd_exp(b, rec, g, pairs, writes, plan, dtype):
    o = rec.out.data
    B = writes[0][1]
    return [lambda: np.multiply(g, o, out=B)]


def _bwd_log(b, rec, g, pairs, writes, plan, dtype):
    a = b["a"].data
    B = writes[0][1]
    return [lambda: np.divide(g, a, out=B)]


def _bwd_sqrt(b, rec, g, pairs, writes, plan, dtype):
    o = rec.out.data
    B = writes[0][1]

    def kernel():
        np.multiply(g, 0.5, out=B)
        np.divide(B, o, out=B)
    return [kernel]


def _bwd_sigmoid(b, rec, g, pairs, writes, plan, dtype):
    o = rec.out.data
    B = writes[0][1]
    t = plan.request(o.shape, dtype)

    def kernel():
        np.subtract(1.0, o, out=t)
        np.multiply(g, o, out=B)
        np.multiply(B, t, out=B)
    return [kernel]


def _bwd_tanh(b, rec, g, pairs, writes, plan, dtype):
    o = rec.out.data
    B = writes[0][1]
    t = plan.request(o.shape, dtype)

    def kernel():
        np.multiply(o, o, out=t)
        np.subtract(1.0, t, out=t)
        np.multiply(g, t, out=B)
    return [kernel]


def _bwd_neg(b, rec, g, pairs, writes, plan, dtype):
    B = writes[0][1]
    return [lambda: np.negative(g, out=B)]


def _bind_unbroadcast(plan, src, B, dtype):
    """Kernel replicating ``tensor._unbroadcast(src, B.shape)`` into ``B``.

    Mirrors the eager helper step by step — the same leading-axis sum,
    the same keepdims reduction over stretched axes — but with ``out=``
    targets (``np.add.reduce`` is what ``ndarray.sum`` dispatches to, so
    the pairwise summation is bit-identical).  Returns None when ``B``
    cannot expose the required destination view.
    """
    extra = src.ndim - B.ndim
    lead = tuple(range(extra)) if extra > 0 else ()
    mid_shape = src.shape[extra:]
    axes = tuple(i for i, s in enumerate(B.shape)
                 if s == 1 and mid_shape[i] != 1)
    keep_shape = tuple(1 if i in axes else s for i, s in enumerate(mid_shape))
    final = B.reshape(keep_shape if axes else mid_shape)
    if not np.shares_memory(final, B):
        return None  # reshape degraded to a copy — fallback
    if lead and axes:
        mid = plan.request(mid_shape, dtype)

        def kernel():
            np.add.reduce(src, axis=lead, out=mid)
            np.add.reduce(mid, axis=axes, keepdims=True, out=final)
        return kernel
    if lead:
        return lambda: np.add.reduce(src, axis=lead, out=final)
    if axes:
        return lambda: np.add.reduce(src, axis=axes, keepdims=True,
                                     out=final)
    return None  # same shape — caller handles


def _bwd_add(b, rec, g, pairs, writes, plan, dtype):
    kernels = []
    for index, B in writes:
        if B.shape == g.shape:
            return None  # contribution aliases g — fallback
        red = _bind_unbroadcast(plan, g, B, dtype)
        if red is None:
            return None
        kernels.append(red)
    return kernels


def _bwd_mul(b, rec, g, pairs, writes, plan, dtype):
    operands = (_operand(b["b"], dtype), _operand(b["a"], dtype))
    kernels = []
    for index, B in writes:
        other = operands[index]
        if B.shape == g.shape:
            kernels.append(_ufunc2(np.multiply, g, other, B))
            continue
        t = plan.request(g.shape, dtype)
        red = _bind_unbroadcast(plan, t, B, dtype)
        if red is None:
            return None

        def kernel(t=t, other=other, red=red):
            np.multiply(g, other, out=t)
            red()
        kernels.append(kernel)
    return kernels


def _bwd_div(b, rec, g, pairs, writes, plan, dtype):
    x = _operand(b["a"], dtype)
    y = _operand(b["b"], dtype)
    kernels = []
    for index, B in writes:
        same = B.shape == g.shape
        if index == 0:
            if same:
                kernels.append(_ufunc2(np.divide, g, y, B))
                continue
            t = plan.request(g.shape, dtype)
            red = _bind_unbroadcast(plan, t, B, dtype)
            if red is None:
                return None

            def kernel(t=t, red=red):
                np.divide(g, y, out=t)
                red()
            kernels.append(kernel)
        else:
            t = B if same else plan.request(g.shape, dtype)
            red = None
            if not same:
                red = _bind_unbroadcast(plan, t, B, dtype)
                if red is None:
                    return None
            y2 = plan.request(y.shape, dtype)

            def kernel(t=t, y2=y2, red=red):
                np.negative(g, out=t)
                np.multiply(t, x, out=t)
                np.multiply(y, y, out=y2)  # y ** 2
                np.divide(t, y2, out=t)
                if red is not None:
                    red()
            kernels.append(kernel)
    return kernels


def _bwd_sub(b, rec, g, pairs, writes, plan, dtype):
    kernels = []
    for index, B in writes:
        same = B.shape == g.shape
        if index == 0:
            if same:
                return None  # pair 0 aliases g when unwritten — fallback
            red = _bind_unbroadcast(plan, g, B, dtype)
            if red is None:
                return None
            kernels.append(red)
        elif same:
            kernels.append(lambda B=B: np.negative(g, out=B))
        else:
            t = plan.request(g.shape, dtype)
            red = _bind_unbroadcast(plan, t, B, dtype)
            if red is None:
                return None

            def kernel(t=t, red=red):
                np.negative(g, out=t)
                red()
            kernels.append(kernel)
    return kernels


def _bwd_maximum(b, rec, g, pairs, writes, plan, dtype):
    for _, B in writes:
        if B.shape != g.shape:
            return None
    x = _operand(b["a"], dtype)
    y = _operand(b["b"], dtype)
    wins = plan.request(g.shape, np.bool_)
    Ba = dict(writes).get(0)
    Bb = dict(writes).get(1)

    def kernel():
        np.greater_equal(x, y, out=wins)
        if Ba is not None:
            np.multiply(g, wins, out=Ba)
        if Bb is not None:
            np.logical_not(wins, out=wins)
            np.multiply(g, wins, out=Bb)
    return [kernel]


def _bwd_matmul(b, rec, g, pairs, writes, plan, dtype):
    x = _operand(b["a"], dtype)
    y = _operand(b["b"], dtype)
    if x.ndim < 2 or y.ndim < 2:
        return None
    for index, B in writes:
        if B.shape != (x.shape if index == 0 else y.shape):
            return None  # broadcast batch dims — fallback
    xT = np.swapaxes(x, -1, -2)
    yT = np.swapaxes(y, -1, -2)
    kernels = []
    for index, B in writes:
        if index == 0:
            kernels.append(_ufunc2(np.matmul, g, yT, B))
        else:
            kernels.append(_ufunc2(np.matmul, xT, g, B))
    return kernels


def _bwd_getitem(b, rec, g, pairs, writes, plan, dtype):
    index = b["index"]
    B = writes[0][1]

    def kernel():
        B.fill(0.0)
        np.add.at(B, index, g)
    return [kernel]


def _bwd_conv1x1(b, rec, g, pairs, writes, plan, dtype):
    x_t, w_t, bias_t = b["x"], b["weight"], b["bias"]
    s = b["stride"]
    xd = x_t.data[:, :, ::s, ::s] if s > 1 else x_t.data
    w_mat = w_t.data[:, :, 0, 0]
    n, o_ch = g.shape[:2]
    pix = g.shape[2] * g.shape[3]
    wT = w_mat.T  # standing view
    g3 = g.reshape(n, o_ch, pix) if g.flags.c_contiguous else None
    kernels = []
    for pair_index, B in writes:
        parent = pairs[pair_index][0]
        if parent is x_t:
            c_in = x_t.data.shape[1]
            scatter = plan.request((n, c_in) + g.shape[2:], dtype)
            cand = None
            if g3 is not None:
                def cand(dst, c_in=c_in):
                    d3 = dst.reshape(n, c_in, pix)
                    return lambda: np.matmul(wT, g3, out=d3)
            ein = _bind_einsum("nohw,oc->nchw", (g, w_mat), scatter, cand)

            def kernel(B=B, scatter=scatter, ein=ein):
                ein()
                B.fill(0.0)
                if s > 1:
                    B[:, :, ::s, ::s] += scatter
                else:
                    B += scatter
            kernels.append(kernel)
        elif parent is w_t:
            flat = B.reshape(w_mat.shape)
            kernels.append(_bind_einsum(
                "nohw,nchw->oc", (g, xd), flat,
                lambda dst: lambda: np.copyto(dst, np.tensordot(
                    g, xd, axes=([0, 2, 3], [0, 2, 3])))))
        else:  # bias
            kernels.append(lambda B=B: np.sum(g, axis=(0, 2, 3), out=B))
    return kernels


def _bwd_convdw(b, rec, g, pairs, writes, plan, dtype):
    x_t, w_t, bias_t = b["x"], b["weight"], b["bias"]
    s = b["stride"]
    n, c, h, w = x_t.data.shape
    kh, kw = w_t.data.shape[2:]
    oh = (h - kh) // s + 1
    ow = (w - kw) // s + 1
    cols = ops._im2col(x_t.data, kh, kw, s)
    w_sq = w_t.data[:, 0]
    kernels = []
    for pair_index, B in writes:
        parent = pairs[pair_index][0]
        if parent is x_t:
            # The strided scatter-adds must run in the same (i, j) order
            # as the eager closure (the windows overlap, so accumulation
            # order matters for bits).  The per-tap products are pure
            # elementwise ops, so they may be batched into one broadcast
            # multiply without changing bits — worth it only while the
            # tap workspace stays cache-resident.
            taps_shape = (kh, kw) + g.shape  # leading taps keep slices contiguous
            batch_taps = (np.prod(taps_shape) * np.dtype(dtype).itemsize
                          <= 1 << 20)
            dests = [B[:, :, i:i + s * oh:s, j:j + s * ow:s]
                     for i in range(kh) for j in range(kw)]
            if batch_taps:
                taps = plan.request(taps_shape, dtype)
                g6 = g[None, None]
                w6 = w_sq.transpose(1, 2, 0)[:, :, None, :, None, None]
                pieces = [(taps[i, j], dests[i * kw + j])
                          for i in range(kh) for j in range(kw)]

                def kernel(B=B, taps=taps, pieces=pieces):
                    np.multiply(g6, w6, out=taps)
                    B.fill(0.0)
                    for t, dest in pieces:
                        np.add(dest, t, out=dest)
            else:
                kernel = None
                if _FusionMode.enabled:
                    kernel = _fuse_convdw_gx_clip(
                        plan, dtype, b, g, B, w_sq, s, kh, kw, oh, ow)
                if kernel is None:
                    t = plan.request(g.shape, dtype)
                    wtaps = [w_sq[None, :, i, j, None, None]
                             for i in range(kh) for j in range(kw)]

                    def kernel(B=B, t=t):
                        B.fill(0.0)
                        for wv, dest in zip(wtaps, dests):
                            np.multiply(g, wv, out=t)
                            np.add(dest, t, out=dest)
            kernels.append(kernel)
        elif parent is w_t:
            flat = B.reshape(c, kh, kw)
            fused = (_fuse_convdw_gw(plan, dtype, rec, g, flat)
                     if _FusionMode.enabled else None)
            kernels.append(fused if fused is not None else _bind_einsum(
                "ncpq,ncijpq->cij", (g, cols), flat))
        else:
            kernels.append(lambda B=B: np.sum(g, axis=(0, 2, 3), out=B))
    return kernels


def _bwd_convgen(b, rec, g, pairs, writes, plan, dtype):
    ws = plan._conv_ws.get(id(rec))
    if ws is None:
        return None
    x_t, w_t = b["x"], b["weight"]
    (n, c_in, h, w, c_out, c_in_g, kh, kw, oh, ow, co_g, ckk) = ws["dims"]
    s, groups = ws["stride"], ws["groups"]
    cols_mat, w_mat = ws["cols_mat"], ws["w_mat"]

    gm = g.reshape(n, groups, co_g, oh * ow)
    if np.shares_memory(gm, g):
        gm_t = gm.transpose(0, 1, 3, 2)  # standing view of the grad slot
        grad_mat = lambda: gm_t
    else:
        gm_t = None
        grad_mat = lambda: g.reshape(
            n, groups, co_g, oh * ow).transpose(0, 1, 3, 2)

    kernels = []
    for pair_index, B in writes:
        parent = pairs[pair_index][0]
        if parent is x_t:
            gcols_mat = plan.request((n, groups, oh * ow, ckk), dtype)
            src = gcols_mat.reshape(
                n, groups, oh, ow, c_in_g, kh, kw).transpose(0, 1, 4, 5, 6, 2, 3)
            di, dj = kh - 1, kw - 1
            scatter = plan.request((n, c_in, kh, kw, h + di, w + dj),
                                   dtype, zero=True)
            hole = scatter[:, :, :, :, di:di + s * oh:s, dj:dj + s * ow:s]
            sn, sc, si, sj, sy, sx = scatter.strides
            window = np.lib.stride_tricks.as_strided(
                scatter[:, :, :, :, di:, dj:],
                shape=(n, c_in, kh, kw, h, w),
                strides=(sn, sc, si - sy, sj - sx, sy, sx),
            )

            if gm_t is not None:
                ein = _bind_einsum(
                    "ngpo,gok->ngpk", (gm_t, w_mat), gcols_mat,
                    lambda dst: lambda: np.matmul(gm_t, w_mat, out=dst))
            else:
                ein = lambda: np.einsum(
                    "ngpo,gok->ngpk", grad_mat(), w_mat, out=gcols_mat,
                    optimize=True)

            def kernel(B=B, src=src, hole=hole, window=window, ein=ein):
                ein()
                hole[...] = src
                # default (non-optimized) einsum matches _col2im verbatim
                np.einsum("ncijyx->ncyx", window, out=B)
            kernels.append(kernel)
        elif parent is w_t:
            flat = B.reshape(groups, co_g, ckk)
            cand = None
            if gm_t is not None:
                ga = plan.request((groups, co_g, n, oh * ow), dtype)
                ca = plan.request((groups, n, oh * ow, ckk), dtype)
                ga_m = ga.reshape(groups, co_g, n * oh * ow)
                ca_m = ca.reshape(groups, n * oh * ow, ckk)
                ga_src = gm_t.transpose(1, 3, 0, 2)
                ca_src = cols_mat.transpose(1, 0, 2, 3)

                def cand(dst, ga=ga, ca=ca, ga_m=ga_m, ca_m=ca_m,
                         ga_src=ga_src, ca_src=ca_src):
                    def kernel():
                        np.copyto(ga, ga_src)
                        np.copyto(ca, ca_src)
                        np.matmul(ga_m, ca_m, out=dst)
                    return kernel
            if gm_t is not None:
                kernels.append(_bind_einsum(
                    "ngpo,ngpk->gok", (gm_t, cols_mat), flat, cand))
            else:
                kernels.append(lambda flat=flat: np.einsum(
                    "ngpo,ngpk->gok", grad_mat(), cols_mat, out=flat,
                    optimize=True))
        else:
            kernels.append(lambda B=B: np.sum(g, axis=(0, 2, 3), out=B))
    return kernels


_BWD_FAST = {
    "relu": _bwd_relu, "clip": _bwd_clip, "dropout": _bwd_dropout,
    "exp": _bwd_exp, "log": _bwd_log, "sqrt": _bwd_sqrt,
    "sigmoid": _bwd_sigmoid, "tanh": _bwd_tanh, "neg": _bwd_neg,
    "add": _bwd_add, "mul": _bwd_mul, "div": _bwd_div, "sub": _bwd_sub,
    "maximum": _bwd_maximum, "matmul": _bwd_matmul, "getitem": _bwd_getitem,
    "conv2d_1x1": _bwd_conv1x1, "conv2d_dw": _bwd_convdw,
    "conv2d": _bwd_convgen,
}

# ----------------------------------------------------------------------
# Compiled plan
# ----------------------------------------------------------------------

def _tensor_operands(rec: _Record) -> Iterator[Tensor]:
    for value in list(rec.args) + list(rec.kwargs.values()):
        if isinstance(value, Tensor):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Tensor):
                    yield item


class StepPlan:
    """One compiled step: fixed buffers plus flat forward/backward schedules.

    Instances are built by :meth:`StepProgram.run` on a cache miss; replays
    validate inputs and guards, refresh the input buffers, and execute the
    schedules with zero tape construction.
    """

    def __init__(self, arena: BufferArena, dtype: np.dtype, grad: bool) -> None:
        self.arena = arena
        self.dtype = dtype
        self.grad = grad
        self.replays = 0
        self.fused_kernels = 0
        self.fusion_rejected = 0
        self._fwd: List[Tuple[str, Callable[[], None]]] = []
        self._bwd: List[Tuple[str, Callable[[], None]]] = []
        #: per-kernel (kind, written-buffers) for the chain packer; None
        #: entries are fusion barriers (parallel to _fwd/_bwd)
        self._fwd_meta: List[Optional[tuple]] = []
        self._bwd_meta: List[Optional[tuple]] = []
        self._consumers: Dict[int, List[_Record]] = {}
        self._produced_by: Dict[int, _Record] = {}
        self._output_ids: set = set()
        self._leaf_assigns: List[Tuple[Tensor, np.ndarray]] = []
        self._inputs: Dict[str, np.ndarray] = {}
        self._input_tensors: Dict[str, Tensor] = {}
        self._outputs: Dict[str, np.ndarray] = {}
        self._guards: List[Tuple[Tensor, np.ndarray]] = []
        self._scratch: List[np.ndarray] = []
        self._conv_ws: Dict[int, dict] = {}
        self._guarded_ste: set = set()
        self._adopted_ids: set = set()
        self._adopted: List[np.ndarray] = []
        self._records: List[_Record] = []  # keeps every traced tensor alive

    # -- buffer bookkeeping -------------------------------------------
    def request(self, shape, dtype, zero: bool = False) -> np.ndarray:
        arr = self.arena.request(shape, dtype, zero=zero)
        self._scratch.append(arr)
        return arr

    def adopt(self, arr: np.ndarray) -> None:
        base = arr if arr.base is None else arr.base
        if id(base) not in self._adopted_ids:
            self._adopted_ids.add(id(base))
            self._adopted.append(base)
            self.arena.adopted_bytes += base.nbytes
            self.arena.adopted_arrays += 1

    def release(self) -> None:
        """Return workspaces to the arena pool and drop adopted accounting."""
        for arr in self._scratch:
            self.arena.release(arr)
        self._scratch = []
        for base in self._adopted:
            self.arena.adopted_bytes -= base.nbytes
            self.arena.adopted_arrays -= 1
        self._adopted = []
        self._adopted_ids = set()

    # -- compilation --------------------------------------------------
    def _compile_forward(self, tracer: _Tracer) -> None:
        produced = {id(t) for t in self._input_tensors.values()}
        # STE outputs that select control flow (their data feeds a getitem,
        # possibly through a detach) get the argmax drift guard
        ste_bases: Dict[int, int] = {}
        for tag, entry in tracer.entries:
            if tag == "op" and entry.kind == "ste":
                arr = entry.out.data
                base = arr if arr.base is None else arr.base
                ste_bases[id(base)] = id(entry)
        if ste_bases:
            for tag, entry in tracer.entries:
                if tag != "op" or entry.kind != "getitem":
                    continue
                a = _bind(entry)["a"]
                if isinstance(a, Tensor):
                    arr = a.data
                    base = arr if arr.base is None else arr.base
                    rec_id = ste_bases.get(id(base))
                    if rec_id is not None:
                        self._guarded_ste.add(rec_id)

        # structural maps for the fusion pass: who consumes each traced
        # tensor, and which record produced it
        op_records: List[_Record] = []
        for tag, entry in tracer.entries:
            if tag != "op":
                continue
            op_records.append(entry)
            for t in _tensor_operands(entry):
                self._consumers.setdefault(id(t), []).append(entry)
            self._produced_by[id(entry.out)] = entry

        replaced: Dict[int, Optional[Callable[[], None]]] = {}
        if _FusionMode.enabled:
            replaced = _plan_fusions(self, op_records)

        guard_seen: set = set()
        for tag, entry in tracer.entries:
            if tag == "effect":
                self._fwd.append(("plan.effect", entry))
                self._fwd_meta.append(None)
                continue
            rec = entry
            self._records.append(rec)
            for t in _tensor_operands(rec):
                if id(t) in produced:
                    continue
                if t.requires_grad and t._backward is not None:
                    raise PlanError(
                        f"op {rec.kind!r} consumes a differentiable tensor "
                        f"built outside the traced step; compute it inside "
                        f"the step fn or pass it as a plan input")
                if id(t) not in guard_seen:
                    guard_seen.add(id(t))
                    self._guards.append((t, t.data))
            if id(rec) in replaced:
                kernel = replaced[id(rec)]
            else:
                kernel = _build_forward(rec, self, self.dtype)
            self.adopt(rec.out.data)
            produced.add(id(rec.out))
            if kernel is not None:
                self._fwd.append((getattr(kernel, "_label",
                                          f"{rec.kind}.replay"), kernel))
                self._fwd_meta.append(
                    (rec.kind, (rec.out.data,))
                    if rec.kind in ops.ELEMENTWISE_KINDS
                    and id(rec) not in replaced else None)

    def _compile_backward(self, loss: Optional[Tensor],
                          records_by_out: Dict[int, _Record]) -> None:
        """Run the traced step's real backward sweep while lowering it.

        Mirrors :meth:`Tensor.backward` exactly — same topological order,
        same slot arithmetic — calling each traced closure once.  Every
        gradient array the sweep produces is adopted, so replays rewrite
        the very arrays the eager step would have allocated (matching
        layouts keep the layout-sensitive pairwise reductions identical).
        As a side effect this *is* the trace step's backward: leaves end up
        with their gradients accumulated just as eagerly.
        """
        if loss is None or not isinstance(loss, Tensor):
            raise PlanError("a grad step plan needs a 'loss' output tensor")
        if not loss.requires_grad:
            raise PlanError("the traced 'loss' does not require grad")
        root = np.ones_like(loss.data)
        self.adopt(root)
        topo: List[Tensor] = []
        visited: set = set()
        stack: List[Tuple[Tensor, bool]] = [(loss, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: Dict[int, np.ndarray] = {id(loss): root}
        arrivals: Dict[int, List[np.ndarray]] = {id(loss): [root]}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            arrival = arrivals.pop(id(node), None)
            if node_grad is None:
                continue
            if isinstance(node_grad, np.generic):
                # ufuncs return numpy scalars for 0-d operands; replay needs
                # a real array slot (same bits either way)
                node_grad = np.asarray(node_grad)
            if len(arrival) > 1:
                # eager builds the final slot from fresh pairwise adds; the
                # replay rebuilds the adopted final array in the same order
                self.adopt(node_grad)
                seq = tuple(arrival)
                partial = (self.request(node_grad.shape, node_grad.dtype)
                           if len(seq) > 2 else None)

                def accumulate(seq=seq, partial=partial, final=node_grad):
                    if len(seq) == 2:
                        np.add(seq[0], seq[1], out=final)
                        return
                    np.add(seq[0], seq[1], out=partial)
                    for c in seq[2:-1]:
                        np.add(partial, c, out=partial)
                    np.add(partial, seq[-1], out=final)
                self._bwd.append(("accumulate.replay", accumulate))
                self._bwd_meta.append(("acc", (node_grad,)))
            elif arrival[0] is not node_grad:
                # np.asarray had to cast-copy the single contribution
                self.adopt(node_grad)
                self._bwd.append(("accumulate.replay",
                                  lambda s=arrival[0], d=node_grad:
                                  np.copyto(d, s)))
                self._bwd_meta.append(("acc", (node_grad,)))
            if node._backward is None:
                if node.grad is not None:
                    raise PlanError(
                        "a leaf reached by the traced backward already "
                        "carries a gradient; call zero_grad before the "
                        "planned step")
                leaf_grad = np.array(node_grad, dtype=node.data.dtype,
                                     copy=True)
                node.grad = leaf_grad  # the trace step's real accumulation
                self.adopt(leaf_grad)
                self._bwd.append(("leaf.replay",
                                  lambda d=leaf_grad, s=node_grad:
                                  np.copyto(d, s)))
                self._bwd_meta.append(("leaf", (leaf_grad,)))
                self._leaf_assigns.append((node, leaf_grad))
                continue
            rec = records_by_out.get(id(node))
            if rec is None:
                raise PlanError(
                    "the traced backward reached a tensor produced by an "
                    "untraced operation (a raw Tensor._make closure?); only "
                    "ops primitives can be compiled into a step plan")
            pairs = node._backward(node_grad)  # the real closure, once
            pairs = [
                (p, np.asarray(c, dtype=p.data.dtype)
                 if isinstance(c, np.generic) else c)
                for p, c in pairs
            ]
            writes: List[Tuple[int, np.ndarray]] = []
            for i, (parent, contribution) in enumerate(pairs):
                if not parent.requires_grad:
                    continue
                if not isinstance(contribution, np.ndarray):
                    raise PlanError(
                        f"op {rec.kind!r} produced a non-array gradient "
                        f"contribution; cannot compile")
                if contribution is node_grad or (
                        contribution.size
                        and np.shares_memory(contribution, node_grad)):
                    continue  # standing view of the grad slot: auto-updates
                self.adopt(contribution)
                writes.append((i, contribution))
            if writes:
                kernels = None
                fast = _BWD_FAST.get(rec.kind)
                if fast is not None:
                    kernels = fast(_bind(rec), rec, node_grad, pairs, writes,
                                   self, self.dtype)
                if kernels is None:
                    closure = node._backward
                    idxs = tuple(i for i, _ in writes)
                    slots = tuple(arr for _, arr in writes)

                    def generic(closure=closure, g=node_grad, idxs=idxs,
                                slots=slots):
                        ps = closure(g)
                        for i, dst in zip(idxs, slots):
                            np.copyto(dst, ps[i][1])
                    kernels = [generic]
                label = f"{rec.kind}.bwd.replay"
                meta = ((f"{rec.kind}.bwd", tuple(arr for _, arr in writes))
                        if rec.kind in ops.ELEMENTWISE_KINDS else None)
                for kernel in kernels:
                    self._bwd.append((getattr(kernel, "_label", label),
                                      kernel))
                    self._bwd_meta.append(meta)
            for parent, contribution in pairs:
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contribution
                    arrivals[key].append(contribution)
                else:
                    grads[key] = np.asarray(contribution,
                                            dtype=parent.data.dtype)
                    arrivals[key] = [contribution]

    def _pack_elementwise(self) -> None:
        """Merge adjacent elementwise kernels after lowering (probe-gated)."""
        self._fwd = _pack_schedule(self, self._fwd, self._fwd_meta)
        if self.grad:
            self._bwd = _pack_schedule(self, self._bwd, self._bwd_meta)
        self._fwd_meta = []
        self._bwd_meta = []

    # -- execution ----------------------------------------------------
    def replay(self, inputs: Dict[str, np.ndarray],
               prof=None) -> Dict[str, np.ndarray]:
        """Re-execute the compiled step on fresh input values.

        Returns the named output arrays (plan-owned: valid until the next
        replay).  Any mismatch with the traced step — different input names
        or shapes, rebound parameter storage, drifted sampled path — raises
        :class:`PlanError` loudly rather than reusing stale state.
        """
        if set(inputs) != set(self._inputs):
            raise PlanError(
                f"plan inputs changed: compiled with "
                f"{sorted(self._inputs)}, replayed with {sorted(inputs)}")
        for name, buf in self._inputs.items():
            value = np.asarray(inputs[name])
            if value.shape != buf.shape:
                raise PlanError(
                    f"plan input {name!r} changed shape: compiled "
                    f"{buf.shape}, got {value.shape} — use a new plan key")
            np.copyto(buf, value)
        for t, arr in self._guards:
            if t.data is not arr:
                raise PlanError(
                    "a tensor used by the compiled step was rebound to new "
                    "storage since tracing (.data replaced); in-place "
                    "updates keep plans valid, rebinding does not")
        if prof is None:
            for _, kernel in self._fwd:
                kernel()
            if self.grad:
                for _, kernel in self._bwd:
                    kernel()
        else:
            for label, kernel in self._fwd:
                start = time.perf_counter()
                kernel()
                prof.record(label, time.perf_counter() - start)
            if self.grad:
                for label, kernel in self._bwd:
                    start = time.perf_counter()
                    kernel()
                    prof.record(label, time.perf_counter() - start)
        for t, leaf_grad in self._leaf_assigns:
            t.grad = leaf_grad
        self.replays += 1
        return dict(self._outputs)


# ----------------------------------------------------------------------
# Program: LRU plan cache + eager escape hatch
# ----------------------------------------------------------------------

class StepProgram:
    """Caches compiled :class:`StepPlan` objects behind shape-aware keys.

    ``run(key, inputs, fn, grad=...)`` executes one training/eval step:

    * plans disabled — plain eager step (``Tensor`` per input, ``fn``,
      ``loss.backward()``), bit-identical to the historical engine;
    * cache miss — trace ``fn`` once eagerly (which *is* that step) and
      compile it;
    * cache hit — replay the plan with zero tape construction.

    The caller key should capture everything that changes the traced op
    sequence (architecture signature, batch shape); the program extends it
    with ``(dtype, fast-kernels flag, grad flag)`` automatically.  ``fn``
    receives ``{name: Tensor}`` and must return ``{name: Tensor}`` with a
    ``"loss"`` entry when ``grad=True``; returned arrays are plan-owned.

    A key compiles on first sight, so callers should pass keys that come
    round again (a fixed step graph); a step whose ops change every time
    belongs under :func:`plans` ``(False)``.
    """

    def __init__(self, name: str = "step", capacity: int = 32) -> None:
        self.name = name
        self.capacity = max(1, int(capacity))
        self.arena = BufferArena()
        self._plans: "OrderedDict[tuple, StepPlan]" = OrderedDict()
        self.plans_compiled = 0
        self.replays = 0
        self.eager_steps = 0
        self.evictions = 0
        self.kernels_fused = 0
        self.fusion_rejected = 0

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> Dict[str, int]:
        """Counters for journals and benchmarks."""
        return {
            "plans_compiled": self.plans_compiled,
            "replays": self.replays,
            "eager_steps": self.eager_steps,
            "plan_evictions": self.evictions,
            "arena_hits": self.arena.hits,
            "arena_misses": self.arena.misses,
            "arena_bytes": self.arena.total_bytes(),
            "kernels_fused": self.kernels_fused,
            "fusion_rejected": self.fusion_rejected,
        }

    def clear(self) -> None:
        """Drop every cached plan (workspaces return to the arena pool)."""
        while self._plans:
            _, plan = self._plans.popitem(last=False)
            plan.release()
            self.evictions += 1

    def run(self, key, inputs: Dict[str, np.ndarray], fn,
            grad: bool = True) -> Dict[str, np.ndarray]:
        if not _PlanMode.enabled:
            self.eager_steps += 1
            return self._eager_step(inputs, fn, grad)
        if ops._TRACER is not None:
            raise PlanError("StepProgram.run cannot nest inside an active "
                            "step trace")
        dtype = get_default_dtype()
        full_key = (key, dtype.name, bool(ops._FAST_KERNELS), bool(grad),
                    _FusionMode.enabled)
        plan = self._plans.get(full_key)
        if plan is not None:
            self._plans.move_to_end(full_key)
            result = plan.replay(inputs, profiler.active_profile())
            self.replays += 1
            return result
        plan, result = self._trace(inputs, fn, grad, dtype)
        self._plans[full_key] = plan
        self.plans_compiled += 1
        self.kernels_fused += plan.fused_kernels
        self.fusion_rejected += plan.fusion_rejected
        while len(self._plans) > self.capacity:
            _, evicted = self._plans.popitem(last=False)
            evicted.release()
            self.evictions += 1
        return result

    @staticmethod
    def _eager_step(inputs, fn, grad) -> Dict[str, np.ndarray]:
        tensors = {name: Tensor(value) for name, value in inputs.items()}
        outs = fn(tensors)
        if grad:
            outs["loss"].backward()
        return {name: t.data for name, t in outs.items()}

    def _trace(self, inputs, fn, grad,
               dtype) -> Tuple[StepPlan, Dict[str, np.ndarray]]:
        plan = StepPlan(self.arena, dtype, grad)
        for name, value in inputs.items():
            buf = np.array(value, dtype=dtype, copy=True)  # layout-preserving
            plan._inputs[name] = buf
            plan._input_tensors[name] = Tensor(buf)
            plan.adopt(buf)
        tracer = _Tracer()
        ops._TRACER = tracer
        try:
            outs = fn(dict(plan._input_tensors))
        finally:
            ops._TRACER = None
        for name, t in outs.items():
            if not isinstance(t, Tensor):
                raise PlanError(f"step fn output {name!r} is not a Tensor")
        plan._output_ids = {id(t) for t in outs.values()}
        plan._compile_forward(tracer)
        if grad:
            records_by_out = {id(rec.out): rec for rec in plan._records}
            plan._compile_backward(outs.get("loss"), records_by_out)
        if _FusionMode.enabled:
            plan._pack_elementwise()
        for name, t in outs.items():
            plan._outputs[name] = t.data
            plan.adopt(t.data)
        return plan, dict(plan._outputs)
