"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate that replaces
PyTorch in this reproduction.  A :class:`Tensor` wraps a numpy array and
records the operations applied to it on a dynamic tape; calling
:meth:`Tensor.backward` walks the tape in reverse topological order and
accumulates gradients into the leaves, exactly like ``torch.Tensor.backward``.

Only the operations needed by the paper's equations (supernet forward,
Gumbel-Softmax relaxation, MLP predictors, SGD/Adam updates) are implemented,
but each is implemented fully and is gradient-checked in the test suite
against central finite differences.

Design notes
------------
* Every non-leaf tensor stores a ``_backward`` closure that maps the output
  gradient to a list of ``(parent, gradient_contribution)`` pairs.  The
  public :meth:`Tensor.backward` performs an iterative topological sort (no
  recursion, so deep supernets do not hit the interpreter stack limit) and
  routes contributions through a per-call dictionary, accumulating into
  ``leaf.grad`` only at leaves.
* Data is stored in the process-wide default compute dtype — ``float64``
  unless :func:`set_default_dtype` or :func:`dtype_scope` opts into
  ``float32``.  The float64 default keeps seeded runs
  bit-identical and finite-difference gradient checks tight; float32 halves
  memory traffic for supernet training.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import profiler

Number = Union[int, float]
ArrayLike = Union[Number, Sequence, np.ndarray, "Tensor"]
BackwardFn = Callable[[np.ndarray], List[Tuple["Tensor", np.ndarray]]]

__all__ = ["Tensor", "no_grad", "set_default_dtype",
           "get_default_dtype", "dtype_scope", "tensor_allocations"]

#: compute dtypes the engine supports (float64 is the bit-stable default)
_SUPPORTED_DTYPES = {"float64": np.float64, "float32": np.float32}


class _DtypeState:
    """Process-wide default compute dtype for new tensors."""

    value: np.dtype = np.dtype(np.float64)


def set_default_dtype(dtype: Union[str, np.dtype, type]) -> np.dtype:
    """Set the dtype new :class:`Tensor` data is stored in; returns the old.

    ``float64`` (the default) keeps every seeded run bit-identical to the
    historical engine; ``float32`` halves memory traffic for supernet
    training at the cost of that guarantee.
    """
    name = np.dtype(dtype).name
    if name not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported nn dtype {name!r}; expected one of "
            f"{tuple(_SUPPORTED_DTYPES)}"
        )
    previous = _DtypeState.value
    _DtypeState.value = np.dtype(_SUPPORTED_DTYPES[name])
    return previous


def get_default_dtype() -> np.dtype:
    """The dtype currently used for new tensor data."""
    return _DtypeState.value


@contextmanager
def dtype_scope(dtype: Union[str, np.dtype, type]) -> Iterator[np.dtype]:
    """Temporarily switch the default compute dtype.

    >>> with dtype_scope("float32"):
    ...     Tensor([1.0]).data.dtype == np.float32
    True
    """
    previous = set_default_dtype(dtype)
    try:
        yield _DtypeState.value
    finally:
        _DtypeState.value = previous


class _GradMode:
    """Global switch mirroring ``torch.no_grad`` semantics."""

    enabled: bool = True


class _AllocStats:
    """Always-on engine allocation counter (one int increment per Tensor).

    Every :class:`Tensor` construction — and therefore every tape node and
    eager op output — bumps :attr:`tensors`.  The step-replay benchmark
    reads the delta across a training step to show that compiled plans
    (:mod:`repro.nn.plan`) construct ~zero tensors per replayed step.
    """

    tensors: int = 0


def tensor_allocations() -> int:
    """Total :class:`Tensor` objects constructed since process start."""
    return _AllocStats.tensors


class no_grad:
    """Context manager that disables tape recording.

    Example
    -------
    >>> x = Tensor([1.0], requires_grad=True)
    >>> with no_grad():
    ...     y = x * 2
    >>> y.requires_grad
    False
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GradMode.enabled = self._prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Numpy broadcasting either prepends axes or stretches size-1 axes; the
    adjoint of broadcasting is summation over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like initial value (stored in the default compute dtype,
        ``float64`` unless changed via :func:`set_default_dtype`).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream tensor.
    name:
        Optional label used in error messages and debugging output.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        _AllocStats.tensors += 1
        self.data: np.ndarray = np.asarray(data, dtype=_DtypeState.value)
        self.requires_grad: bool = bool(requires_grad) and _GradMode.enabled
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[BackwardFn] = None
        self._parents: tuple = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view, not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        """Return a copied leaf tensor with the same data and grad flag."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_tag}{label})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Tape construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"], backward: BackwardFn) -> "Tensor":
        """Create a non-leaf tensor recording ``backward`` on the tape.

        ``backward`` maps the output gradient to one ``(parent,
        contribution)`` pair per operand, in operand order.  A closure
        computes a contribution only for a parent that requires grad when
        it is called and returns ``None`` in the others' place; the backward
        sweep (and the step-plan compiler) skips every parent with
        ``requires_grad=False`` before reading its contribution.
        """
        parents = tuple(parents)
        out = Tensor(data)
        if _GradMode.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor into every reachable leaf.

        Parameters
        ----------
        grad:
            Incoming gradient with the same shape as :attr:`data`; defaults
            to ones, so calling ``backward()`` on a scalar loss needs no
            argument.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"grad shape {grad.shape} does not match tensor shape {self.data.shape}"
            )

        # Iterative DFS topological sort of the reachable tape.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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

        grads: dict[int, np.ndarray] = {id(self): grad}
        prof = profiler.active_profile()
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            if prof is None:
                pairs = node._backward(node_grad)
            else:
                start = time.perf_counter()
                pairs = node._backward(node_grad)
                prof.record(f"{node.name or 'op'}.bwd",
                            time.perf_counter() - start)
            for parent, contribution in pairs:
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contribution
                else:
                    grads[key] = np.asarray(contribution,
                                            dtype=parent.data.dtype)


# Exposed for ops.py, which implements the arithmetic and attaches the
# operator overloads to Tensor.
Tensor._unbroadcast = staticmethod(_unbroadcast)  # type: ignore[attr-defined]
