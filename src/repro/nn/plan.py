"""Step compiler: trace-once/replay-many execution plans for the nn engine.

A *step plan* records one genuine eager training step — forward tape,
backward sweep, optimizer-visible gradients — and lowers it to a flat
schedule of raw-numpy kernel calls that can be replayed with **zero tape
construction and near-zero fresh allocations**.  Every op output and every
gradient array of the traced step is *adopted* as a plan-owned buffer; the
replay kernels write into those exact arrays with ``out=``-style numpy
calls, so the replayed step reuses the eager step's own memory, layouts and
reduction orders.  A replay is therefore **bit-identical** to the eager
engine by construction (asserted by the surrogate-plan and hypothesis
parity tests).

The compiler fits the one step a shipped command compiles, the surrogate
α-step (Gumbel gates over the L×K logits, the straight-through binarizer,
the oracle loss, the metric predictor and the λ term): it lowers exactly
the 14 op kinds that step traces, in float64, with a backward.  Tracing
any other op kind — a convolution, ``sigmoid``, ... — raises
:class:`PlanError` naming it; such steps run eagerly under
:func:`plans` ``(False)``.

Architecture
------------
* :class:`_Tracer` hooks into ``ops._op`` (via ``ops._TRACER``) and records
  every primitive op in call order.
* Forward lowering adopts each record's output array.  Pure-view outputs
  (transpose, view-reshape) need no kernel at all:
  the standing view updates automatically when its base is rewritten.
* Backward lowering replicates :meth:`Tensor.backward`'s exact sweep while
  calling each real traced closure **once** (this doubles as the traced
  step's actual backward), adopting every gradient array it produces.
  Per-node replay kernels either skip pure-view contributions or use a
  hand-written ``out=`` kernel that matches the closure's arithmetic
  bit-for-bit; a node no kernel covers raises :class:`PlanError`.
* :class:`StepProgram` holds one plan: it traces on the first
  :meth:`StepProgram.run` and replays on every later one, or runs the
  plain eager step inside :func:`plans` ``(False)``.

Invalidation is **loud**: a replay with changed input names or shapes,
rebound parameter storage, or a default dtype other than float64 raises
:class:`PlanError` instead of silently reusing stale buffers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import ops, profiler
from .tensor import Tensor, get_default_dtype

__all__ = ["PlanError", "StepPlan", "StepProgram", "plans"]

#: the one dtype plans compile in (the surrogate search always runs float64)
_DTYPE = np.dtype(np.float64)


class PlanError(RuntimeError):
    """A step plan could not be compiled or safely replayed.

    Raised instead of silently recomputing or reusing stale buffers: the
    caller should fix the step (a fresh :class:`StepProgram` recompiles) or
    run it eagerly with :func:`plans` ``(False)``.
    """


# ----------------------------------------------------------------------
# Global enable switch (default ON)
# ----------------------------------------------------------------------

class _PlanMode:
    enabled: bool = True


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
    """Collects the traced step's op records in call order."""

    def __init__(self) -> None:
        self.records: List[_Record] = []

    def record(self, kind, args, kwargs, out) -> None:
        if kind not in _SIGNATURES:
            raise PlanError(
                f"step plans cannot compile op kind {kind!r} (only the "
                f"surrogate alpha-step's ops are lowered); run this step "
                f"eagerly under nn.plans(False)")
        self.records.append(_Record(kind, args, kwargs, out))


#: positional parameter names and defaults per op kind (mirrors ops.py)
_SIGNATURES: Dict[str, tuple] = {
    "add": (("a", "b"), {}),
    "sub": (("a", "b"), {}),
    "mul": (("a", "b"), {}),
    "div": (("a", "b"), {}),
    "neg": (("a",), {}),
    "exp": (("a",), {}),
    "log": (("a",), {}),
    "relu": (("a",), {}),
    "matmul": (("a", "b"), {}),
    "sum": (("a", "axis", "keepdims"), {"axis": None, "keepdims": False}),
    "amax": (("a", "axis", "keepdims"), {"axis": None, "keepdims": False}),
    "reshape": (("a", "shape"), {}),
    "transpose": (("a", "axes"), {"axes": None}),
    "ste": (("probs", "axis"), {"axis": -1}),
}


def _bind(rec: _Record) -> Dict[str, Any]:
    """Bind a record's raw ``(args, kwargs)`` to named parameters."""
    names, defaults = _SIGNATURES[rec.kind]
    bound = dict(defaults)
    bound.update(zip(names, rec.args))
    bound.update(rec.kwargs)
    return bound


def _operand(value) -> np.ndarray:
    """The live array behind an op operand.

    Tensors contribute their (plan-stable) ``.data``; raw scalars/arrays are
    baked exactly as ``ops._as_tensor`` would have stored them.
    """
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=_DTYPE)


# ----------------------------------------------------------------------
# Forward kernel builders
# ----------------------------------------------------------------------

def _ufunc2(ufunc, a, b, o):
    def kernel():
        ufunc(a, b, out=o)
    return kernel


_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
           "div": np.divide}
_UNARY = {"neg": np.negative, "exp": np.exp, "log": np.log}


def _build_forward(rec: _Record) -> Optional[Callable[[], None]]:
    """A replay kernel writing ``rec.out.data`` in place, or None for views.

    Each kernel reproduces the corresponding eager forward in ops.py with
    the same elementwise/reduction arithmetic, writing into the adopted
    output buffer instead of allocating.
    """
    kind = rec.kind
    b = _bind(rec)
    o = rec.out.data
    if kind == "ste":
        return _build_ste_forward(b["probs"].data, b["axis"], o)
    a = _operand(b["a"])
    if kind in _BINARY:
        return _ufunc2(_BINARY[kind], a, _operand(b["b"]), o)
    if kind in _UNARY:
        ufunc = _UNARY[kind]
        return lambda: ufunc(a, out=o)
    if kind == "relu":
        return lambda: np.maximum(a, 0.0, out=o)
    if kind == "matmul":
        y = _operand(b["b"])
        if a.ndim >= 2 and y.ndim >= 2:
            return lambda: np.matmul(a, y, out=o)
        return lambda: np.copyto(o, a @ y)
    if kind in ("sum", "amax"):
        # the ufunc reductions np.sum / np.amax dispatch to, minus their
        # Python wrappers
        reduce = np.add.reduce if kind == "sum" else np.maximum.reduce
        axis, keepdims = b["axis"], b["keepdims"]
        return lambda: reduce(a, axis=axis, keepdims=keepdims, out=o)
    # reshape, transpose: a view of the operand updates itself
    if isinstance(o, np.ndarray) and o.size and np.shares_memory(o, a):
        return None
    if kind == "reshape":
        shape = b["shape"]
        return lambda: np.copyto(o, a.reshape(shape))
    axes = b["axes"]  # transpose
    return lambda: np.copyto(o, np.transpose(a, axes))


def _build_ste_forward(probs, axis, o):
    """Hard binarize, recomputing the argmax from the live input.

    The one-hot is written as ``argmax == column`` (exact 1.0/0.0 either
    way): two ufunc calls instead of a fill plus ``put_along_axis``.
    """
    axis %= probs.ndim
    idx = np.empty(probs.shape[:axis] + (1,) + probs.shape[axis + 1:],
                   dtype=np.intp)
    columns = np.arange(probs.shape[axis]).reshape(
        (-1,) + (1,) * (probs.ndim - axis - 1))

    def ste_kernel():
        probs.argmax(axis=axis, out=idx, keepdims=True)
        np.equal(idx, columns, out=o, casting="unsafe")
    return ste_kernel


# ----------------------------------------------------------------------
# Backward kernel builders
#
# Each builder receives the node's fixed incoming-gradient array ``g`` and
# the pairs of one real call of the traced closure that need a writer
# (``writes`` maps operand position -> adopted array; the compiler checks
# that a closure's pair ``i`` is operand ``i``).  It returns a list of
# replay kernels, or None when it cannot reproduce the closure's
# arithmetic bit-for-bit (e.g. a matmul with broadcast batch dims) — the
# compile then raises :class:`PlanError`.  Kernels allocate no fresh
# layout-sensitive temporaries: the summation order of a reduction depends
# on the memory layout of its operand, so ``_unbroadcast`` reductions run
# into views of the adopted (eager-allocated) gradient arrays.
# ----------------------------------------------------------------------

def _bwd_relu(b, rec, g, writes, plan):
    a = b["a"].data
    B = writes[0]
    mask = plan.request(a.shape, np.bool_)

    def kernel():
        np.greater(a, 0.0, out=mask)
        np.multiply(g, mask, out=B)
    return [kernel]


def _bwd_exp(b, rec, g, writes, plan):
    o = rec.out.data
    B = writes[0]
    return [lambda: np.multiply(g, o, out=B)]


def _bwd_log(b, rec, g, writes, plan):
    a = b["a"].data
    B = writes[0]
    return [lambda: np.divide(g, a, out=B)]


def _bwd_neg(b, rec, g, writes, plan):
    B = writes[0]
    return [lambda: np.negative(g, out=B)]


def _bind_unbroadcast(plan, src, B):
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
        return None  # reshape degraded to a copy
    if lead and axes:
        mid = plan.request(mid_shape, _DTYPE)

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


def _bwd_mul(b, rec, g, writes, plan):
    operands = (_operand(b["b"]), _operand(b["a"]))
    kernels = []
    for index, B in writes.items():
        other = operands[index]
        if B.shape == g.shape:
            kernels.append(_ufunc2(np.multiply, g, other, B))
            continue
        t = plan.request(g.shape, _DTYPE)
        red = _bind_unbroadcast(plan, t, B)
        if red is None:
            return None

        def kernel(t=t, other=other, red=red):
            np.multiply(g, other, out=t)
            red()
        kernels.append(kernel)
    return kernels


def _bwd_div(b, rec, g, writes, plan):
    x = _operand(b["a"])
    y = _operand(b["b"])
    kernels = []
    for index, B in writes.items():
        same = B.shape == g.shape
        if index == 0:
            if same:
                kernels.append(_ufunc2(np.divide, g, y, B))
                continue
            t = plan.request(g.shape, _DTYPE)
            red = _bind_unbroadcast(plan, t, B)
            if red is None:
                return None

            def kernel(t=t, red=red):
                np.divide(g, y, out=t)
                red()
            kernels.append(kernel)
        else:
            t = B if same else plan.request(g.shape, _DTYPE)
            red = None
            if not same:
                red = _bind_unbroadcast(plan, t, B)
                if red is None:
                    return None
            y2 = plan.request(y.shape, _DTYPE)

            def kernel(t=t, y2=y2, red=red):
                np.negative(g, out=t)
                np.multiply(t, x, out=t)
                np.multiply(y, y, out=y2)  # y ** 2
                np.divide(t, y2, out=t)
                if red is not None:
                    red()
            kernels.append(kernel)
    return kernels


def _bwd_sub(b, rec, g, writes, plan):
    kernels = []
    for index, B in writes.items():
        same = B.shape == g.shape
        if index == 0:
            if same:
                return None  # pair 0 aliases g unless it was copied
            red = _bind_unbroadcast(plan, g, B)
            if red is None:
                return None
            kernels.append(red)
        elif same:
            kernels.append(lambda B=B: np.negative(g, out=B))
        else:
            t = plan.request(g.shape, _DTYPE)
            red = _bind_unbroadcast(plan, t, B)
            if red is None:
                return None

            def kernel(t=t, red=red):
                np.negative(g, out=t)
                red()
            kernels.append(kernel)
    return kernels


def _bwd_matmul(b, rec, g, writes, plan):
    x = _operand(b["a"])
    y = _operand(b["b"])
    if x.ndim < 2 or y.ndim < 2:
        return None
    for index, B in writes.items():
        if B.shape != (x.shape if index == 0 else y.shape):
            return None  # broadcast batch dims
    xT = np.swapaxes(x, -1, -2)
    yT = np.swapaxes(y, -1, -2)
    kernels = []
    for index, B in writes.items():
        if index == 0:
            kernels.append(_ufunc2(np.matmul, g, yT, B))
        else:
            kernels.append(_ufunc2(np.matmul, xT, g, B))
    return kernels


_BWD = {
    "relu": _bwd_relu, "exp": _bwd_exp, "log": _bwd_log, "neg": _bwd_neg,
    "mul": _bwd_mul, "div": _bwd_div, "sub": _bwd_sub,
    "matmul": _bwd_matmul,
}

# ----------------------------------------------------------------------
# Compiled plan
# ----------------------------------------------------------------------

def _tensor_operands(rec: _Record) -> Iterator[Tensor]:
    for value in list(rec.args) + list(rec.kwargs.values()):
        if isinstance(value, Tensor):
            yield value


class StepPlan:
    """One compiled step: fixed buffers plus flat forward/backward schedules.

    Built by the first :meth:`StepProgram.run`; replays validate their
    inputs and guards, refresh the input buffers, and execute the schedules
    with zero tape construction.  :attr:`nbytes` counts every buffer the
    plan holds (adopted arrays and its own workspaces).
    """

    def __init__(self) -> None:
        self.nbytes = 0
        self._fwd: List[Tuple[str, Callable[[], None]]] = []
        self._bwd: List[Tuple[str, Callable[[], None]]] = []
        self._leaf_assigns: List[Tuple[Tensor, np.ndarray]] = []
        self._inputs: Dict[str, np.ndarray] = {}
        self._input_tensors: Dict[str, Tensor] = {}
        self._outputs: Dict[str, np.ndarray] = {}
        self._guards: List[Tuple[Tensor, np.ndarray]] = []
        self._adopted: Dict[int, np.ndarray] = {}
        self._records: List[_Record] = []  # keeps every traced tensor alive

    # -- buffer bookkeeping -------------------------------------------
    def request(self, shape, dtype) -> np.ndarray:
        """A fresh plan-owned workspace of ``shape``/``dtype``."""
        arr = np.empty(shape, dtype=dtype)
        self.nbytes += arr.nbytes
        return arr

    def adopt(self, arr: np.ndarray) -> None:
        base = arr if arr.base is None else arr.base
        if id(base) not in self._adopted:
            self._adopted[id(base)] = base
            self.nbytes += base.nbytes

    # -- compilation --------------------------------------------------
    def _compile_forward(self, records: List[_Record]) -> None:
        produced = {id(t) for t in self._input_tensors.values()}
        guard_seen: set = set()
        for rec in records:
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
            kernel = _build_forward(rec)
            self.adopt(rec.out.data)
            produced.add(id(rec.out))
            if kernel is not None:
                self._fwd.append((f"{rec.kind}.replay", kernel))

    def _compile_backward(self, loss: Optional[Tensor]) -> None:
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
            raise PlanError("a step plan needs a 'loss' output tensor")
        if not loss.requires_grad:
            raise PlanError("the traced 'loss' does not require grad")
        records_by_out = {id(rec.out): rec for rec in self._records}
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
            operands = _bind(rec)
            names = _SIGNATURES[rec.kind][0]
            writes: Dict[int, np.ndarray] = {}
            for position, (parent, contribution) in enumerate(pairs):
                if not parent.requires_grad:
                    continue
                if (position >= len(names)
                        or operands[names[position]] is not parent):
                    raise PlanError(
                        f"op {rec.kind!r}'s backward closure does not return "
                        f"one pair per operand in operand order; cannot "
                        f"compile")
                if not isinstance(contribution, np.ndarray):
                    raise PlanError(
                        f"op {rec.kind!r} produced a non-array gradient "
                        f"contribution; cannot compile")
                if contribution is node_grad or (
                        contribution.size
                        and np.shares_memory(contribution, node_grad)):
                    continue  # standing view of the grad slot: auto-updates
                self.adopt(contribution)
                writes[position] = contribution
            if writes:
                build = _BWD.get(rec.kind)
                kernels = (build(operands, rec, node_grad, writes, self)
                           if build is not None else None)
                if kernels is None:
                    raise PlanError(
                        f"step plans cannot compile the backward of op kind "
                        f"{rec.kind!r} with these operand shapes; run this "
                        f"step eagerly under nn.plans(False)")
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
        or shapes, rebound parameter storage — raises :class:`PlanError`
        loudly rather than reusing stale state.
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
                    f"{buf.shape}, got {value.shape} — run the new shape "
                    f"through a fresh StepProgram")
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
            for _, kernel in self._bwd:
                kernel()
        else:
            for label, kernel in self._fwd + self._bwd:
                start = time.perf_counter()
                kernel()
                prof.record(label, time.perf_counter() - start)
        for t, leaf_grad in self._leaf_assigns:
            t.grad = leaf_grad
        return dict(self._outputs)


# ----------------------------------------------------------------------
# Program: one plan + eager escape hatch
# ----------------------------------------------------------------------

class StepProgram:
    """Runs one fixed training step: traced once, then replayed.

    ``run(inputs, fn)`` executes one step:

    * plans disabled (:func:`plans` ``(False)``) — the plain eager step
      (``Tensor`` per input, ``fn``, ``loss.backward()``);
    * first call — trace ``fn`` once eagerly (which *is* that step) and
      compile it;
    * every later call — replay the plan with zero tape construction.

    ``fn`` receives ``{name: Tensor}`` and must return ``{name: Tensor}``
    with a ``"loss"`` entry; returned arrays are plan-owned.  Every call
    must trace the same op program on the same input names and shapes in
    float64; a step whose ops change from call to call belongs under
    :func:`plans` ``(False)``.
    """

    def __init__(self, name: str = "step") -> None:
        self.name = name
        self.plan: Optional[StepPlan] = None
        self.plans_compiled = 0
        self.replays = 0
        self.eager_steps = 0

    def stats(self) -> Dict[str, int]:
        """Counters for journals and benchmarks (``arena_bytes`` is the
        plan's buffer bytes, under the key perfbench and trace-summary
        read)."""
        return {
            "plans_compiled": self.plans_compiled,
            "replays": self.replays,
            "eager_steps": self.eager_steps,
            "arena_bytes": self.plan.nbytes if self.plan is not None else 0,
        }

    def run(self, inputs: Dict[str, np.ndarray], fn) -> Dict[str, np.ndarray]:
        if not _PlanMode.enabled:
            self.eager_steps += 1
            return self._eager_step(inputs, fn)
        if ops._TRACER is not None:
            raise PlanError("StepProgram.run cannot nest inside an active "
                            "step trace")
        if get_default_dtype() != _DTYPE:
            raise PlanError(
                f"step plans compile float64 steps only, but the default "
                f"dtype is {get_default_dtype().name}; run this step eagerly "
                f"under nn.plans(False)")
        if self.plan is not None:
            result = self.plan.replay(inputs, profiler.active_profile())
            self.replays += 1
            return result
        self.plan, result = self._trace(inputs, fn)
        self.plans_compiled += 1
        return result

    @staticmethod
    def _eager_step(inputs, fn) -> Dict[str, np.ndarray]:
        tensors = {name: Tensor(value) for name, value in inputs.items()}
        outs = fn(tensors)
        outs["loss"].backward()
        return {name: t.data for name, t in outs.items()}

    @staticmethod
    def _trace(inputs, fn) -> Tuple[StepPlan, Dict[str, np.ndarray]]:
        plan = StepPlan()
        for name, value in inputs.items():
            buf = np.array(value, dtype=_DTYPE, copy=True)  # layout-preserving
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
        plan._compile_forward(tracer.records)
        plan._compile_backward(outs.get("loss"))
        for name, t in outs.items():
            plan._outputs[name] = t.data
            plan.adopt(t.data)
        return plan, dict(plan._outputs)
