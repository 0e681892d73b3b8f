"""Tests for the chains the plan fusion pass used to rewrite.

Step plans no longer fuse kernels: a BN → ReLU6 → pool chain, which the
fusion pass once packed into one elementwise kernel, now replays op by
op.  These tests pin that such a chain replays bit for bit like the eager
tape engine and like the ``plans(False)`` fallback, in both dtypes, that
no ``fused:`` kernel or fusion counter is left in a plan, and that the
rebound-parameter and same-key shape guards still fire on that chain.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.plan import PlanError, StepProgram


def make_chain_model(rng, dtype="float64"):
    """BN → ReLU6 → pool → head: the chain fusion used to pack."""
    with nn.dtype_scope(dtype):
        model = nn.Sequential(
            nn.BatchNorm2d(3),
            nn.ReLU6(),
            nn.GlobalAvgPool(),
            nn.Flatten(),
            nn.Linear(3, 5, rng),
        )
    return model


def train_steps(model, opt, xs, labels, program=None):
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


def run_mode(mode, dtype="float64", steps=4):
    """One seeded training run; mode is 'eager', 'planned' or 'fallback'."""
    rng_x = np.random.default_rng(3)
    xs = [rng_x.normal(size=(4, 3, 6, 6)) for _ in range(steps)]
    labels = rng_x.integers(0, 5, size=4)
    with nn.dtype_scope(dtype):
        model = make_chain_model(np.random.default_rng(0), dtype)
        opt = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
        if mode == "eager":
            losses = train_steps(model, opt, xs, labels)
            return losses, model.state_dict(), None
        program = StepProgram("t")
        with nn.plans(mode == "planned"):
            losses = train_steps(model, opt, xs, labels, program)
        return losses, model.state_dict(), program


class TestFusedBitParity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fused_training_bit_identical(self, dtype):
        el, es, _ = run_mode("eager", dtype)
        pl, ps, pprog = run_mode("planned", dtype)
        fl, fs, fprog = run_mode("fallback", dtype)
        assert el == pl == fl
        assert set(es) == set(ps) == set(fs)
        for key in es:
            assert np.array_equal(es[key], ps[key]), key
            assert np.array_equal(es[key], fs[key]), key
        stats = pprog.stats()
        assert (stats["plans_compiled"], stats["replays"]) == (1, 3)
        assert fprog.stats()["eager_steps"] == 4
        assert "kernels_fused" not in stats
        assert "fusion_rejected" not in stats
        (plan,) = pprog._plans.values()
        labels = [label for label, _ in plan._fwd + plan._bwd]
        assert labels
        assert not any(label.startswith("fused:") for label in labels)


class TestFusionInvalidation:
    def test_rebound_bn_param_raises_under_fusion(self):
        model = make_chain_model(np.random.default_rng(0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        program = StepProgram("t")
        rng_x = np.random.default_rng(3)
        xs = [rng_x.normal(size=(4, 3, 6, 6))]
        labels = rng_x.integers(0, 5, size=4)
        train_steps(model, opt, xs, labels, program)
        bn = model.layers[0]
        bn.beta.data = bn.beta.data.copy()  # rebind, not in-place
        with pytest.raises(PlanError, match="rebound"):
            train_steps(model, opt, xs, labels, program)

    def test_shape_change_under_same_key_raises(self):
        model = make_chain_model(np.random.default_rng(0))
        program = StepProgram("t")
        rng_x = np.random.default_rng(3)
        labels = rng_x.integers(0, 5, size=4)
        targets = F.one_hot(labels, 5)
        x = rng_x.normal(size=(4, 3, 6, 6))

        def fn(ts):
            return {"loss": F.cross_entropy(model(ts["x"]),
                                            targets=ts["t"])}

        program.run(("fixed",), {"x": x, "t": targets}, fn)
        for p in model.parameters():
            p.zero_grad()
        with pytest.raises(PlanError, match="shape"):
            program.run(("fixed",),
                        {"x": rng_x.normal(size=(2, 3, 6, 6)),
                         "t": targets[:2]}, fn)
