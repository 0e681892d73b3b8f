"""Backward closures compute a gradient only for operands that need one.

Every closure returns one ``(parent, contribution)`` pair per operand, in
operand order, with ``None`` at the position of an operand that does not
require grad.  The other operand's contribution must be bit-identical to
the one computed when both operands require grad.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, ops

BINARY = {"add": ops.add, "sub": ops.sub, "mul": ops.mul, "div": ops.div,
          "matmul": ops.matmul}

CASES = [
    ("add", (3, 4), (3, 4)),
    ("add", (3, 4), (4,)),
    ("sub", (3, 4), (3, 4)),
    ("sub", (2, 3, 4), (3, 1)),
    ("mul", (3, 4), (3, 4)),
    ("mul", (3, 4), (1, 4)),
    ("div", (3, 4), (3, 4)),
    ("div", (4,), (3, 4)),
    ("matmul", (3, 4), (4, 5)),
    ("matmul", (4,), (4, 5)),
    ("matmul", (3, 4), (4,)),
    ("matmul", (4,), (4,)),
    ("matmul", (2, 3, 4), (4, 5)),
]


def _operands(shapes, grads):
    rng = np.random.default_rng(0)
    # positive values keep div's denominator away from zero
    return [Tensor(np.abs(rng.normal(size=s)) + 0.5, requires_grad=g)
            for s, g in zip(shapes, grads)]


def _pairs(kind, shapes, grads):
    a, b = _operands(shapes, grads)
    out = BINARY[kind](a, b)
    grad = np.random.default_rng(1).normal(size=out.shape)
    return (a, b), out._backward(grad)


@pytest.mark.parametrize("constant", [0, 1])
@pytest.mark.parametrize("kind,shape_a,shape_b", CASES)
def test_constant_operand_gets_none(kind, shape_a, shape_b, constant):
    shapes = (shape_a, shape_b)
    _, both = _pairs(kind, shapes, (True, True))
    grads = tuple(i != constant for i in range(2))
    parents, pairs = _pairs(kind, shapes, grads)
    assert [p for p, _ in pairs] == list(parents)
    assert pairs[constant][1] is None
    other = 1 - constant
    assert pairs[other][1] is not None
    assert np.array_equal(pairs[other][1], both[other][1])


@pytest.mark.parametrize("kind,shape_a,shape_b", CASES)
def test_backward_leaves_constant_without_grad(kind, shape_a, shape_b):
    a, b = _operands((shape_a, shape_b), (False, True))
    ops.sum_(BINARY[kind](a, b)).backward()
    ra, rb = _operands((shape_a, shape_b), (True, True))
    ops.sum_(BINARY[kind](ra, rb)).backward()
    assert a.grad is None
    assert np.array_equal(b.grad, rb.grad)


@pytest.mark.parametrize("groups,kernel", [(1, 3), (1, 1), (4, 3)])
def test_frozen_conv_weight_gets_none(groups, kernel):
    """A frozen conv (``Module.set_trainable(False)``) computes only the
    input gradient; a frozen conv on a constant input builds no tape."""
    conv = nn.Conv2d(4, 4, kernel, np.random.default_rng(0), groups=groups,
                     padding=kernel // 2, bias=True)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 5, 5)),
               requires_grad=True)
    grad = np.random.default_rng(2).normal(size=(2, 4, 5, 5))
    both = conv(x)._backward(grad)
    conv.set_trainable(False)
    out = conv(x)
    pairs = out._backward(grad)
    assert pairs[0][0] is out._parents[0]
    assert all(c is None for _, c in pairs[1:])
    assert np.array_equal(pairs[0][1], both[0][1])
    assert not conv(Tensor(x.data)).requires_grad
    conv.set_trainable(True)
    assert all(p.requires_grad and p.grad is None
               for p in conv.parameters())
