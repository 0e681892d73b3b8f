"""Tests for the step compiler: trace-once/replay-many execution plans.

The contract under test is strict bit-parity: replaying a compiled
:class:`repro.nn.plan.StepPlan` must produce exactly the arrays the eager
tape engine produces — same loss bits, same gradient bits, same optimizer
trajectories — across dtypes and with the fast conv kernels disabled.
Invalidation must be loud: shape changes, input-set changes, rebound
parameter storage, and drifted sampled paths raise :class:`PlanError`
instead of silently replaying stale computation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn
from repro.nn import functional as F
from repro.nn import ops
from repro.nn import plan as plan_mod
from repro.nn.plan import BufferArena, PlanError, StepProgram


finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                   allow_infinity=False, width=64)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=finite)


def make_model(rng, dtype="float64"):
    """Conv → BN → ReLU6 → pool → dropout → linear: every stateful path."""
    with nn.dtype_scope(dtype):
        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1, rng=rng),
            nn.BatchNorm2d(8),
            nn.ReLU6(),
            nn.GlobalAvgPool(),
            nn.Flatten(),
            nn.Dropout(0.3, np.random.default_rng(11)),
            nn.Linear(8, 5, rng),
        )
    return model


def train_steps(model, opt, xs, labels, program=None):
    """Run len(xs) SGD steps; planned when ``program`` is given."""
    losses = []
    targets = F.one_hot(labels, 5)
    model.train(True)
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
            out = program.run(("step", x.shape), {"x": x, "t": targets}, fn)
            opt.step()
            losses.append(float(out["loss"]))
    return losses


def run_pair(dtype="float64", steps=4, fast=True):
    """Identical seeded runs, eager vs planned; returns both (loss, state)."""
    rng_x = np.random.default_rng(3)
    xs = [rng_x.normal(size=(4, 3, 6, 6)) for _ in range(steps)]
    labels = rng_x.integers(0, 5, size=4)
    results = []
    for planned in (False, True):
        with nn.dtype_scope(dtype), ops.fast_kernels(fast):
            model = make_model(np.random.default_rng(0), dtype)
            opt = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
            program = (StepProgram("t", compile_threshold=1)
                       if planned else None)
            losses = train_steps(model, opt, xs, labels, program)
            results.append((losses, model.state_dict()))
    return results


class TestReplayBitParity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_training_bit_identical(self, dtype):
        (el, es), (pl, ps) = run_pair(dtype=dtype)
        assert el == pl
        assert set(es) == set(ps)
        for key in es:
            assert np.array_equal(es[key], ps[key]), key

    def test_bit_identical_without_fast_kernels(self):
        (el, es), (pl, ps) = run_pair(fast=False)
        assert el == pl
        for key in es:
            assert np.array_equal(es[key], ps[key]), key

    def test_replay_allocates_no_tensors(self):
        rng_x = np.random.default_rng(3)
        xs = [rng_x.normal(size=(4, 3, 6, 6)) for _ in range(3)]
        labels = rng_x.integers(0, 5, size=4)
        model = make_model(np.random.default_rng(0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        program = StepProgram("t", compile_threshold=1)
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
            h = ops.matmul(ops.tanh(h), pw)
            return {"loss": ops.mean(h * h)}

        x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        ea, eb, ew = build()
        outs = compute(ea, eb, ew, nn.Tensor(x))
        outs["loss"].backward()

        pa, pb, pw = build()
        program = StepProgram("t", compile_threshold=1)
        program.run(("k", x.shape), {"x": x},
                    lambda ts: compute(pa, pb, pw, ts["x"]))
        # replay once more on the same inputs: grads must not accumulate
        # or drift (each replay recomputes the leaf slots from scratch)
        for p in (pa, pb, pw):
            p.zero_grad()
        out = program.run(("k", x.shape), {"x": x},
                          lambda ts: compute(pa, pb, pw, ts["x"]))
        assert float(out["loss"]) == outs["loss"].item()
        for eager_p, plan_p in ((ea, pa), (eb, pb), (ew, pw)):
            assert np.array_equal(eager_p.grad, plan_p.grad)


class TestInvalidation:
    def _program_with_plan(self):
        model = make_model(np.random.default_rng(0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        program = StepProgram("t", compile_threshold=1)
        rng_x = np.random.default_rng(3)
        xs = [rng_x.normal(size=(4, 3, 6, 6))]
        labels = rng_x.integers(0, 5, size=4)
        train_steps(model, opt, xs, labels, program)
        return model, opt, program, labels

    def test_changed_batch_shape_compiles_new_plan(self):
        model, opt, program, labels = self._program_with_plan()
        assert program.stats()["plans_compiled"] == 1
        xs = [np.random.default_rng(5).normal(size=(2, 3, 6, 6))]
        train_steps(model, opt, xs, labels[:2], program)
        assert program.stats()["plans_compiled"] == 2
        assert program.stats()["replays"] == 0

    def test_shape_mismatch_under_same_key_raises(self):
        model, opt, program, labels = self._program_with_plan()
        bad = np.zeros((2, 3, 6, 6))
        targets = F.one_hot(labels[:2], 5)
        opt.zero_grad()
        with pytest.raises(PlanError, match="shape"):
            program.run(("step", (4, 3, 6, 6)), {"x": bad, "t": targets},
                        lambda ts: {"loss": F.cross_entropy(
                            model(ts["x"]), targets=ts["t"])})

    def test_changed_input_names_raise(self):
        model, opt, program, labels = self._program_with_plan()
        x = np.zeros((4, 3, 6, 6))
        opt.zero_grad()
        with pytest.raises(PlanError, match="inputs changed"):
            program.run(("step", x.shape), {"x": x},
                        lambda ts: {"loss": F.cross_entropy(
                            model(ts["x"]), labels)})

    def test_rebound_parameter_storage_raises(self):
        model, opt, program, labels = self._program_with_plan()
        weight = model.layers[0].weight
        weight.data = weight.data.copy()  # rebind, not in-place
        rng_x = np.random.default_rng(3)
        xs = [rng_x.normal(size=(4, 3, 6, 6))]
        with pytest.raises(PlanError, match="rebound"):
            train_steps(model, opt, xs, labels, program)

    def test_stale_leaf_grad_raises_at_trace(self):
        model = make_model(np.random.default_rng(0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        rng_x = np.random.default_rng(3)
        xs = [rng_x.normal(size=(4, 3, 6, 6))]
        labels = rng_x.integers(0, 5, size=4)
        train_steps(model, None if False else opt, xs, labels)  # eager step
        program = StepProgram("t", compile_threshold=1)
        with pytest.raises(PlanError, match="zero_grad"):
            # eager left .grad set on every parameter; tracing demands a
            # clean slate — train_steps zeroes before run, so call run raw
            x, targets = xs[0], F.one_hot(labels, 5)
            program.run(("step", x.shape), {"x": x, "t": targets},
                        lambda ts: {"loss": F.cross_entropy(
                            model(ts["x"]), targets=ts["t"])})

    def test_lru_eviction_recycles_workspaces(self):
        model = make_model(np.random.default_rng(0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        program = StepProgram("t", capacity=2, compile_threshold=1)
        rng_x = np.random.default_rng(3)
        labels = rng_x.integers(0, 5, size=4)
        for n in (2, 3, 4, 5):  # four distinct batch shapes, capacity 2
            xs = [rng_x.normal(size=(n, 3, 6, 6))]
            train_steps(model, opt, xs, labels[:n] if n <= 4
                        else rng_x.integers(0, 5, size=n), program)
        stats = program.stats()
        assert stats["plans_compiled"] == 4
        assert stats["plan_evictions"] == 2
        assert len(program) == 2
        # evicted plans returned their workspaces to the arena pool
        assert program.arena.hits + program.arena.misses > 0

    def test_sampled_path_drift_raises(self):
        # a gates tensor whose argmax drives a getitem lookup is guarded:
        # replaying with probabilities whose argmax differs must be loud
        w = nn.Parameter(np.ones((3, 3)), name="w")

        def fn(ts):
            relaxed = F.softmax(ts["scores"] * w, axis=-1)
            hard = F.hard_binarize_ste(relaxed, axis=-1)
            picked = hard[0]  # getitem on the STE output → guarded
            return {"loss": ops.mean(picked * picked)}

        program = StepProgram("t", compile_threshold=1)
        scores = np.array([[3.0, 1.0, 0.5],
                           [0.2, 2.0, 0.1],
                           [0.3, 0.4, 4.0]])
        program.run(("k", scores.shape), {"scores": scores}, fn)
        w.zero_grad()
        flipped = scores[:, ::-1].copy()  # argmax moves to another column
        with pytest.raises(PlanError, match="drifted"):
            program.run(("k", scores.shape), {"scores": flipped}, fn)


class TestProgramModes:
    def test_plans_context_falls_back_to_eager(self):
        model = make_model(np.random.default_rng(0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        program = StepProgram("t", compile_threshold=1)
        rng_x = np.random.default_rng(3)
        xs = [rng_x.normal(size=(4, 3, 6, 6))]
        labels = rng_x.integers(0, 5, size=4)
        with nn.plans(False):
            assert not nn.plans_enabled()
            train_steps(model, opt, xs, labels, program)
        assert nn.plans_enabled()
        stats = program.stats()
        assert stats["eager_steps"] == 1
        assert stats["plans_compiled"] == 0

    def test_compile_threshold_defers_tracing(self):
        model = make_model(np.random.default_rng(0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        program = StepProgram("t", compile_threshold=2)
        rng_x = np.random.default_rng(3)
        xs = [rng_x.normal(size=(4, 3, 6, 6)) for _ in range(3)]
        labels = rng_x.integers(0, 5, size=4)
        train_steps(model, opt, xs, labels, program)
        stats = program.stats()
        assert stats["eager_steps"] == 1   # first sighting stays eager
        assert stats["plans_compiled"] == 1  # second sighting traces
        assert stats["replays"] == 1       # third replays

    def test_nested_trace_rejected(self):
        program = StepProgram("t", compile_threshold=1)
        inner = StepProgram("i", compile_threshold=1)
        p = nn.Parameter(np.ones(3), name="p")

        def fn(ts):
            inner.run(("k",), {"x": np.ones(3)},
                      lambda its: {"loss": ops.mean(its["x"] * p)})
            return {"loss": ops.mean(ts["x"] * p)}

        with pytest.raises(PlanError, match="nest"):
            program.run(("outer",), {"x": np.ones(3)}, fn)

    def test_arena_reuses_buffers_across_release(self):
        arena = BufferArena()
        a = arena.request((4, 4), np.dtype(np.float64))
        arena.release(a)
        b = arena.request((4, 4), np.dtype(np.float64))
        assert b is a
        assert arena.hits == 1 and arena.misses == 1


@pytest.mark.skipif(plan_mod._np_bmm_einsum is None,
                    reason="numpy has no bmm_einsum lowering to freeze")
class TestFrozenBmm:
    def test_build_time_matmul_reads_filled_prep_buffers(self, monkeypatch):
        """Regression: ``_freeze_bmm`` ran its build-time matmul on transpose
        buffers fresh from ``np.empty``, before any prep step had filled
        them.  NaN-filled ``np.empty`` makes that read visible every time."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((6, 3))
        subscripts = "nchw,oc->nohw"  # transposes both operands, then permutes

        real_empty, real_matmul = np.empty, np.matmul
        unfilled = []

        def nan_empty(shape, dtype=float, *args, **kwargs):
            arr = real_empty(shape, dtype, *args, **kwargs)
            arr.fill(np.nan)
            return arr

        def checked_matmul(a, b, *args, **kwargs):
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                unfilled.append((a.shape, b.shape))
            return real_matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "empty", nan_empty)
        monkeypatch.setattr(np, "matmul", checked_matmul)
        factory = plan_mod._freeze_bmm(subscripts, x, w)
        assert factory is not None
        out = real_empty((2, 6, 4, 5))
        kernel = factory(out)
        assert unfilled == [], "frozen matmul read an unfilled prep buffer"
        kernel()
        monkeypatch.undo()
        assert np.array_equal(out, np.einsum(subscripts, x, w, optimize=True))
