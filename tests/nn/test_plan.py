"""Tests for the step compiler: trace-once/replay-many execution plans.

The contract under test is strict bit-parity: replaying a compiled
:class:`repro.nn.plan.StepPlan` must produce exactly the arrays the eager
tape engine produces — same loss bits, same gradient bits, same optimizer
trajectories.  Invalidation must be loud: shape changes, input-set
changes, a default dtype other than float64 and rebound parameter storage
raise :class:`PlanError` instead of silently replaying stale computation,
and so does tracing a convolution, which the compiler does not lower.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn
from repro.nn import functional as F
from repro.nn import ops
from repro.nn.plan import PlanError, StepProgram


finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                   allow_infinity=False, width=64)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=finite)


class ReLU(nn.Module):
    """Test-local activation module around ``ops.relu``."""

    def forward(self, x):
        return ops.relu(x)


def make_model(rng):
    """Linear → ReLU → Linear, trained with softmax cross-entropy.

    Built from the op kinds the compiler lowers (matmul, transpose, relu
    and the softmax/log/sum/div chain); bias-free, because a broadcast bias
    gradient is an ``add`` backward, which plans do not lower.
    """
    return nn.Sequential(
        nn.Linear(6, 8, rng, bias=False),
        ReLU(),
        nn.Linear(8, 5, rng, bias=False),
    )


def train_steps(model, opt, xs, labels, program=None):
    """Run len(xs) SGD steps; planned when ``program`` is given."""
    losses = []
    targets = F.one_hot(labels, 5)
    for x in xs:
        if program is None:
            logits = model(nn.Tensor(x))
            loss = F.cross_entropy(logits, labels)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        else:
            def fn(ts):
                return {"loss": F.cross_entropy(model(ts["x"]),
                                                targets=ts["t"])}
            opt.zero_grad()
            out = program.run({"x": x, "t": targets}, fn)
            opt.step()
            losses.append(float(out["loss"]))
    return losses


def batches(steps, n=4, seed=3):
    rng_x = np.random.default_rng(seed)
    xs = [rng_x.normal(size=(n, 6)) for _ in range(steps)]
    return xs, rng_x.integers(0, 5, size=n)


class TestReplayBitParity:
    # plans compile float64 only; a float32 step raises (TestInvalidation)
    @pytest.mark.parametrize("dtype", ["float64"])
    def test_training_bit_identical(self, dtype):
        xs, labels = batches(4)
        results = []
        for planned in (False, True):
            with nn.dtype_scope(dtype):
                model = make_model(np.random.default_rng(0))
                opt = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
                program = StepProgram("t") if planned else None
                losses = train_steps(model, opt, xs, labels, program)
            results.append((losses, model.state_dict()))
        (el, es), (pl, ps) = results
        assert el == pl
        assert set(es) == set(ps)
        for key in es:
            assert np.array_equal(es[key], ps[key]), key
        assert (program.stats()["plans_compiled"],
                program.stats()["replays"]) == (1, 3)

    def test_replay_allocates_no_tensors(self):
        xs, labels = batches(3)
        model = make_model(np.random.default_rng(0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        program = StepProgram("t")
        train_steps(model, opt, xs[:1], labels, program)  # compile
        before = nn.tensor_allocations()
        train_steps(model, opt, xs[1:], labels, program)  # replays
        assert nn.tensor_allocations() == before
        assert program.stats()["replays"] == 2

    @settings(max_examples=15, deadline=None)
    @given(arrays((3, 4)), arrays((3, 4)), arrays((4, 2)))
    def test_elementwise_chain_gradients_bitwise(self, a, b, w):
        def build():
            pa = nn.Parameter(a.copy(), name="a")
            pb = nn.Parameter(b.copy(), name="b")
            pw = nn.Parameter(w.copy(), name="w")
            return pa, pb, pw

        def compute(pa, pb, pw, x_t):
            h = ops.relu(pa * x_t + pb)
            h = ops.matmul(ops.exp(-h), pw)
            return {"loss": ops.mean(h * h)}

        x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        ea, eb, ew = build()
        outs = compute(ea, eb, ew, nn.Tensor(x))
        outs["loss"].backward()

        pa, pb, pw = build()
        program = StepProgram("t")
        program.run({"x": x}, lambda ts: compute(pa, pb, pw, ts["x"]))
        # replay once more on the same inputs: grads must not accumulate
        # or drift (each replay recomputes the leaf slots from scratch)
        for p in (pa, pb, pw):
            p.zero_grad()
        out = program.run({"x": x}, lambda ts: compute(pa, pb, pw, ts["x"]))
        assert float(out["loss"]) == outs["loss"].item()
        for eager_p, plan_p in ((ea, pa), (eb, pb), (ew, pw)):
            assert np.array_equal(eager_p.grad, plan_p.grad)


class TestInvalidation:
    def _program_with_plan(self):
        model = make_model(np.random.default_rng(0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        program = StepProgram("t")
        xs, labels = batches(1)
        train_steps(model, opt, xs, labels, program)
        return model, opt, program, labels

    def test_shape_mismatch_under_same_key_raises(self):
        model, opt, program, labels = self._program_with_plan()
        bad = np.zeros((2, 6))
        targets = F.one_hot(labels[:2], 5)
        opt.zero_grad()
        with pytest.raises(PlanError, match="shape"):
            program.run({"x": bad, "t": targets},
                        lambda ts: {"loss": F.cross_entropy(
                            model(ts["x"]), targets=ts["t"])})

    def test_changed_input_names_raise(self):
        model, opt, program, labels = self._program_with_plan()
        x = np.zeros((4, 6))
        opt.zero_grad()
        with pytest.raises(PlanError, match="inputs changed"):
            program.run({"x": x},
                        lambda ts: {"loss": F.cross_entropy(
                            model(ts["x"]), labels)})

    def test_changed_default_dtype_raises(self):
        model, opt, program, labels = self._program_with_plan()
        xs, _ = batches(1)
        with nn.dtype_scope("float32"):
            with pytest.raises(PlanError, match="float64"):
                train_steps(model, opt, xs, labels, program)
        assert program.stats()["replays"] == 0
        train_steps(model, opt, xs, labels, program)  # float64 replays
        assert program.stats()["replays"] == 1

    def test_rebound_parameter_storage_raises(self):
        model, opt, program, labels = self._program_with_plan()
        weight = model.layers[0].weight
        weight.data = weight.data.copy()  # rebind, not in-place
        xs, _ = batches(1)
        with pytest.raises(PlanError, match="rebound"):
            train_steps(model, opt, xs, labels, program)

    def test_stale_leaf_grad_raises_at_trace(self):
        model = make_model(np.random.default_rng(0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        xs, labels = batches(1)
        train_steps(model, opt, xs, labels)  # eager step
        program = StepProgram("t")
        with pytest.raises(PlanError, match="zero_grad"):
            # eager left .grad set on every parameter; tracing demands a
            # clean slate — train_steps zeroes before run, so call run raw
            x, targets = xs[0], F.one_hot(labels, 5)
            program.run({"x": x, "t": targets},
                        lambda ts: {"loss": F.cross_entropy(
                            model(ts["x"]), targets=ts["t"])})

    @pytest.mark.parametrize("kernel,groups,kind", [
        (3, 1, "conv2d"), (1, 1, "conv2d_1x1"), (3, 4, "conv2d_dw")])
    def test_traced_conv_raises_naming_eager_fallback(self, kernel, groups,
                                                      kind):
        # unpadded, so the convolution is the first op the tracer rejects
        # (a padded generic conv would stop at its pad2d)
        conv = nn.Conv2d(4, 4, kernel, np.random.default_rng(0),
                         groups=groups)
        x = np.random.default_rng(1).normal(size=(2, 4, 5, 5))

        def fn(ts):
            return {"loss": ops.mean(conv(ts["x"]))}

        program = StepProgram("t")
        with pytest.raises(PlanError, match=kind) as info:
            program.run({"x": x}, fn)
        assert "plans(False)" in str(info.value)
        assert ops._TRACER is None
        assert program.stats()["plans_compiled"] == 0
        # the fix the message names: the same step runs eagerly
        with nn.plans(False):
            out = program.run({"x": x}, fn)
        assert np.isfinite(out["loss"])
        assert conv.weight.grad is not None


class TestOperandPosition:
    """Backward writes are keyed by operand position: a constant first
    operand leaves pair 0 to a parent that needs no gradient, and the
    compiler must still lower the second operand's gradient as ``b``'s."""

    @staticmethod
    def _step(p, ts):
        c, m = ts["c"], ts["m"]
        h = ops.sub(c, p)           # constant minuend
        h = ops.mul(c, h)           # constant left factor
        h = ops.div(c, ops.exp(h))  # constant numerator
        h = ops.matmul(m, h)        # constant left matrix
        return {"loss": ops.mean(h * h)}

    def test_constant_first_operand_replays_bit_identical(self):
        rng = np.random.default_rng(4)
        feeds = [{"c": rng.normal(size=(3, 4)), "m": rng.normal(size=(2, 3))}
                 for _ in range(3)]
        start = rng.normal(size=(3, 4))
        runs = []
        for planned in (False, True):
            p = nn.Parameter(start.copy(), name="p")
            opt = nn.SGD([p], lr=0.01)
            program = StepProgram("t")
            losses, grads = [], []
            with nn.plans(planned):
                for feed in feeds:
                    opt.zero_grad()
                    out = program.run(feed, lambda ts: self._step(p, ts))
                    losses.append(float(out["loss"]))
                    grads.append(p.grad.copy())
                    opt.step()
            runs.append((losses, grads, p.data.copy(), program.stats()))
        (el, eg, ep, estats), (pl, pg, pp, pstats) = runs
        assert estats["eager_steps"] == 3
        assert (pstats["plans_compiled"], pstats["replays"]) == (1, 2)
        assert el == pl
        for e, g in zip(eg, pg):
            assert np.array_equal(e, g)
        assert np.array_equal(ep, pp)

    def test_closure_that_drops_pairs_raises(self):
        @ops._op("sub")
        def dropping_sub(a, b):
            def backward(grad):
                return [(b, -grad)]  # no pair for the constant minuend
            return nn.Tensor._make(a.data - b.data, (a, b), backward)

        p = nn.Parameter(np.ones(3), name="p")
        program = StepProgram("t")
        with pytest.raises(PlanError, match="one pair per operand"):
            program.run({"c": np.zeros(3)}, lambda ts: {
                "loss": ops.mean(dropping_sub(ts["c"], p))})


class TestProgramModes:
    def test_plans_context_falls_back_to_eager(self):
        model = make_model(np.random.default_rng(0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        program = StepProgram("t")
        xs, labels = batches(1)
        with nn.plans(False):
            train_steps(model, opt, xs, labels, program)
        stats = program.stats()
        assert stats["eager_steps"] == 1
        assert stats["plans_compiled"] == 0
        # leaving the context turns plans back on
        after = StepProgram("t")
        train_steps(model, opt, xs, labels, after)
        assert after.stats()["plans_compiled"] == 1

    def test_nested_trace_rejected(self):
        program = StepProgram("t")
        inner = StepProgram("i")
        p = nn.Parameter(np.ones(3), name="p")

        def fn(ts):
            inner.run({"x": np.ones(3)},
                      lambda its: {"loss": ops.mean(its["x"] * p)})
            return {"loss": ops.mean(ts["x"] * p)}

        with pytest.raises(PlanError, match="nest"):
            program.run({"x": np.ones(3)}, fn)
