"""Tests of the calibrated ImageNet accuracy oracle."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.proxy.accuracy_model import AccuracyOracle, EvalResult
from repro.search_space.operators import SKIP_INDEX
from repro.search_space.space import Architecture


class TestEvalResult:
    def test_validates_percentages(self):
        with pytest.raises(ValueError):
            EvalResult(top1=120.0, top5=90.0)


class TestCapacity:
    def test_skip_contributes_nothing(self, full_space, full_oracle):
        dense = Architecture((0,) * 21)
        sparse = Architecture((0,) * 20 + (SKIP_INDEX,))
        assert full_oracle.capacity(sparse) < full_oracle.capacity(dense)

    def test_monotone_in_expansion(self, full_space, full_oracle):
        e3 = Architecture((0,) * 21)
        e6 = Architecture((1,) * 21)
        assert full_oracle.capacity(e6) > full_oracle.capacity(e3)

    def test_monotone_in_kernel(self, full_space, full_oracle):
        k3 = Architecture((1,) * 21)
        k7 = Architecture((5,) * 21)
        assert full_oracle.capacity(k7) > full_oracle.capacity(k3)

    def test_value_matrix_shape(self, full_space, full_oracle):
        table = full_oracle.value_matrix()
        assert table.shape == (21, 7)
        assert np.all(table[:, SKIP_INDEX] == 0.0)

    def test_value_matrix_built_once_read_only(self, full_oracle):
        table = full_oracle.value_matrix()
        assert full_oracle.value_matrix() is table
        assert not table.flags.writeable

    def test_position_dependence(self, full_space, full_oracle):
        """Kernels matter early, expansion matters late (layer diversity)."""
        table = full_oracle.value_matrix()
        early, late = 0, 20
        kernel_gain_early = table[early, 4] - table[early, 0]  # k7e3 - k3e3
        kernel_gain_late = table[late, 4] - table[late, 0]
        expansion_gain_early = table[early, 1] - table[early, 0]  # k3e6 - k3e3
        expansion_gain_late = table[late, 1] - table[late, 0]
        assert kernel_gain_early > kernel_gain_late
        assert expansion_gain_late > expansion_gain_early


class TestEvaluate:
    def test_accuracy_band(self, full_space, full_oracle, rng):
        """Random architectures land in the paper's Table-2 band."""
        results = [full_oracle.evaluate(full_space.sample(rng))
                   for _ in range(100)]
        top1s = np.array([r.top1 for r in results])
        # random architectures (≈3 skip layers on average) sit below the
        # searched 74–76 band but far above the all-skip floor
        assert 58.0 < top1s.mean() < 72.0
        assert top1s.max() < 78.0

    def test_top5_above_top1(self, full_space, full_oracle, rng):
        result = full_oracle.evaluate(full_space.sample(rng))
        assert result.top5 > result.top1

    def test_top5_map_matches_paper_anchors(self, full_oracle):
        # top5 = 59.9 + 0.432·top1 interpolates (72.0, 91.0), (76.4, 92.9)
        assert abs(59.9 + 0.432 * 72.0 - 91.0) < 0.2
        assert abs(59.9 + 0.432 * 76.4 - 92.9) < 0.2

    def test_quick_training_penalty(self, full_space, full_oracle, rng):
        arch = full_space.sample(rng)
        full = full_oracle.evaluate(arch, epochs=360).top1
        quick = full_oracle.evaluate(arch, epochs=50).top1
        assert 5.0 < full - quick < 9.0

    def test_se_bonus(self, full_space, full_oracle, rng):
        arch = full_space.sample(rng)
        base = full_oracle.evaluate(arch).top1
        se = full_oracle.evaluate(arch, with_se=True).top1
        assert 0.2 < se - base < 1.0

    def test_all_skip_scores_terribly(self, full_space, full_oracle):
        collapse = full_oracle.evaluate(Architecture((SKIP_INDEX,) * 21)).top1
        dense = full_oracle.evaluate(Architecture((1,) * 21)).top1
        assert collapse < dense - 10.0

    def test_deterministic(self, full_space, full_oracle, rng):
        arch = full_space.sample(rng)
        assert full_oracle.evaluate(arch) == full_oracle.evaluate(arch)

    def test_jitter_varies_across_archs_but_bounded(self, full_space, full_oracle):
        a = Architecture((1,) * 21)
        b = Architecture((1,) * 20 + (3,))
        ja = full_oracle._jitter(a)
        jb = full_oracle._jitter(b)
        assert ja != jb
        assert abs(ja) <= full_oracle.JITTER and abs(jb) <= full_oracle.JITTER


class TestScaling:
    def test_width_scaling_sublinear(self, full_space):
        narrow = AccuracyOracle(full_space, width_mult=0.5)
        base = AccuracyOracle(full_space, width_mult=1.0)
        wide = AccuracyOracle(full_space, width_mult=1.5)
        arch = Architecture((1,) * 21)
        t_narrow = narrow.evaluate(arch).top1
        t_base = base.evaluate(arch).top1
        t_wide = wide.evaluate(arch).top1
        assert t_narrow < t_base < t_wide
        # diminishing returns: the gain above 1.0 is smaller than the loss below
        assert (t_wide - t_base) < (t_base - t_narrow)

    def test_resolution_scaling(self, full_space):
        low = AccuracyOracle(full_space, resolution=128)
        high = AccuracyOracle(full_space, resolution=224)
        arch = Architecture((1,) * 21)
        assert low.evaluate(arch).top1 < high.evaluate(arch).top1

    def test_invalid_width(self, full_space):
        with pytest.raises(ValueError):
            AccuracyOracle(full_space, width_mult=0.0)


class TestDifferentiableLoss:
    def test_gradient_prefers_capacity(self, full_space, full_oracle):
        """∂loss/∂P̄ must be negative for ops the oracle rewards (more
        capacity ⇒ lower loss), and zero-capacity skip entries must have
        weaker pull."""
        arch = Architecture((0,) * 21)
        gates = nn.Tensor(arch.one_hot(7), requires_grad=True)
        loss = full_oracle.differentiable_loss(gates)
        loss.backward()
        table = full_oracle.value_matrix()
        # gradient is (dloss/dS) * V; dloss/dS < 0, so grad ∝ -V
        assert gates.grad[0, 1] < gates.grad[0, SKIP_INDEX]

    def test_loss_decreases_with_capacity(self, full_space, full_oracle):
        small = nn.Tensor(Architecture((0,) * 21).one_hot(7))
        big = nn.Tensor(Architecture((5,) * 21).one_hot(7))
        assert (full_oracle.differentiable_loss(big).item()
                < full_oracle.differentiable_loss(small).item())

    def test_loss_scale_comparable_to_cross_entropy(self, full_space, full_oracle):
        gates = nn.Tensor(Architecture((1,) * 21).one_hot(7))
        value = full_oracle.differentiable_loss(gates).item()
        assert 0.1 < value < 3.0

    def test_matches_evaluate_ordering(self, full_space, full_oracle, rng):
        """Differentiable loss and discrete evaluation must rank architectures
        consistently (up to jitter/diversity bonuses)."""
        archs = [Architecture((0,) * 21), Architecture((1,) * 21),
                 Architecture((5,) * 21)]
        losses = [full_oracle.differentiable_loss(
            nn.Tensor(a.one_hot(7))).item() for a in archs]
        top1s = [full_oracle.evaluate(a).top1 for a in archs]
        assert np.argsort(losses).tolist() == np.argsort(top1s)[::-1].tolist()
