"""Step compiler: trace-once/replay-many execution plans for the nn engine.

A *step plan* records one genuine eager training step — forward tape,
backward sweep, optimizer-visible gradients — and lowers it to a flat
schedule of raw-numpy kernel calls that can be replayed with **zero tape
construction and near-zero fresh allocations**.  Every op output and every
gradient array of the traced step is *adopted* as a plan-owned buffer; the
replay kernels write into those exact arrays with ``out=``-style numpy
calls, so the replayed step reuses the eager step's own memory, layouts and
reduction orders.  In float64 a replay is therefore **bit-identical** to
the eager engine by construction (asserted by the surrogate-plan and
hypothesis parity tests).

The compiler lowers the elementwise, reduction, matmul, indexing and
straight-through ops a surrogate α-step uses.  Convolutions are not
lowered: tracing one raises :class:`PlanError`, and such steps run eagerly
under :func:`plans` ``(False)``.

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
  ``(dtype, grad flag)`` in an LRU cache, and falls back to the plain eager
  step when plans are disabled (:func:`plans` or ``--no-plans``).

Invalidation is **loud**: a replay with a changed batch shape, missing
input, rebound parameter storage, or drifted sampled path (the STE guard)
raises :class:`PlanError` instead of silently reusing stale buffers.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import ops, profiler
from .tensor import Tensor, get_default_dtype

__all__ = ["PlanError", "BufferArena", "StepPlan", "StepProgram", "plans",
           "plans_enabled"]


class PlanError(RuntimeError):
    """A step plan could not be compiled or safely replayed.

    Raised instead of silently recomputing or reusing stale buffers: the
    caller should either fix the key (recompile) or fall back to the eager
    engine with :func:`plans` ``(False)``.
    """


# ----------------------------------------------------------------------
# Global enable switch (default ON)
# ----------------------------------------------------------------------

class _PlanMode:
    enabled: bool = True


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

    def request(self, shape, dtype) -> np.ndarray:
        """A writable array of exactly ``shape``/``dtype`` (pooled if possible)."""
        key = self._key(shape, dtype)
        stack = self._pool.get(key)
        if stack:
            self.hits += 1
            return stack.pop()
        self.misses += 1
        arr = np.empty(shape, dtype=dtype)
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
        if kind not in _SIGNATURES:
            raise PlanError(
                f"step plans cannot compile op kind {kind!r} (convolutions "
                f"are not lowered); run this step eagerly under "
                f"nn.plans(False)")
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
    "ste": (("probs", "axis"), {"axis": -1}),
}


def _bind(rec: _Record) -> Dict[str, Any]:
    """Bind a record's raw ``(args, kwargs)`` to named parameters."""
    names, defaults = _SIGNATURES[rec.kind]
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


_BWD_FAST = {
    "relu": _bwd_relu, "clip": _bwd_clip, "dropout": _bwd_dropout,
    "exp": _bwd_exp, "log": _bwd_log, "sqrt": _bwd_sqrt,
    "sigmoid": _bwd_sigmoid, "tanh": _bwd_tanh, "neg": _bwd_neg,
    "add": _bwd_add, "mul": _bwd_mul, "div": _bwd_div, "sub": _bwd_sub,
    "maximum": _bwd_maximum, "matmul": _bwd_matmul, "getitem": _bwd_getitem,
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
        self._fwd: List[Tuple[str, Callable[[], None]]] = []
        self._bwd: List[Tuple[str, Callable[[], None]]] = []
        self._leaf_assigns: List[Tuple[Tensor, np.ndarray]] = []
        self._inputs: Dict[str, np.ndarray] = {}
        self._input_tensors: Dict[str, Tensor] = {}
        self._outputs: Dict[str, np.ndarray] = {}
        self._guards: List[Tuple[Tensor, np.ndarray]] = []
        self._scratch: List[np.ndarray] = []
        self._guarded_ste: set = set()
        self._adopted_ids: set = set()
        self._adopted: List[np.ndarray] = []
        self._records: List[_Record] = []  # keeps every traced tensor alive

    # -- buffer bookkeeping -------------------------------------------
    def request(self, shape, dtype) -> np.ndarray:
        arr = self.arena.request(shape, dtype)
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

        guard_seen: set = set()
        for tag, entry in tracer.entries:
            if tag == "effect":
                self._fwd.append(("plan.effect", entry))
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
            kernel = _build_forward(rec, self, self.dtype)
            self.adopt(rec.out.data)
            produced.add(id(rec.out))
            if kernel is not None:
                self._fwd.append((f"{rec.kind}.replay", kernel))

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
            elif arrival[0] is not node_grad:
                # np.asarray had to cast-copy the single contribution
                self.adopt(node_grad)
                self._bwd.append(("accumulate.replay",
                                  lambda s=arrival[0], d=node_grad:
                                  np.copyto(d, s)))
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
                self._bwd.extend((label, kernel) for kernel in kernels)
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
    with ``(dtype, grad flag)`` automatically.  ``fn``
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
        full_key = (key, dtype.name, bool(grad))
        plan = self._plans.get(full_key)
        if plan is not None:
            self._plans.move_to_end(full_key)
            result = plan.replay(inputs, profiler.active_profile())
            self.replays += 1
            return result
        plan, result = self._trace(inputs, fn, grad, dtype)
        self._plans[full_key] = plan
        self.plans_compiled += 1
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
        plan._compile_forward(tracer)
        if grad:
            records_by_out = {id(rec.out): rec for rec in plan._records}
            plan._compile_backward(outs.get("loss"), records_by_out)
        for name, t in outs.items():
            plan._outputs[name] = t.data
            plan.adopt(t.data)
        return plan, dict(plan._outputs)
