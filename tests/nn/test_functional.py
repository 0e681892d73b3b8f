"""Behavioural tests of repro.nn.functional (softmax family, Gumbel, STE)."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 7)))
        out = F.softmax(x).data
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_shift_invariance(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b)

    def test_large_values_stable(self):
        out = F.softmax(Tensor([[1000.0, 0.0]])).data
        assert np.isfinite(out).all()
        assert out[0, 0] > 0.999

    def test_log_softmax_consistent(self):
        x = Tensor(np.random.default_rng(2).normal(size=(4, 6)))
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data))

    def test_axis_argument(self):
        x = Tensor(np.random.default_rng(3).normal(size=(4, 6)))
        out = F.softmax(x, axis=0).data
        assert np.allclose(out.sum(axis=0), 1.0)


class TestOneHotAndLosses:
    def test_one_hot_shape_and_values(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        assert out.shape == (3, 3)
        assert np.array_equal(out, np.eye(3)[[0, 2, 1]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)

    def test_one_hot_negative(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([-1]), 3)

    def test_one_hot_requires_1d(self):
        with pytest.raises(ValueError):
            F.one_hot(np.zeros((2, 2), dtype=int), 3)

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = F.cross_entropy(logits, np.zeros(4, dtype=int))
        assert np.isclose(loss.item(), np.log(10))

    def test_cross_entropy_perfect_prediction(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss = F.cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-6

    def test_cross_entropy_positive(self):
        rng = np.random.default_rng(4)
        loss = F.cross_entropy(Tensor(rng.normal(size=(8, 5))),
                               rng.integers(5, size=8))
        assert loss.item() > 0

    def test_mse_zero_at_target(self):
        x = Tensor([1.0, 2.0])
        assert F.mse_loss(x, np.array([1.0, 2.0])).item() == 0.0

    def test_mse_value(self):
        x = Tensor([0.0, 0.0])
        assert np.isclose(F.mse_loss(x, np.array([1.0, 3.0])).item(), 5.0)



class TestGumbel:
    def test_noise_shape(self):
        g = F.gumbel_noise((100, 7), np.random.default_rng(0))
        assert g.shape == (100, 7)

    def test_noise_moments(self):
        g = F.gumbel_noise((200_000,), np.random.default_rng(0))
        # Gumbel(0,1): mean = Euler-Mascheroni ≈ 0.5772, var = π²/6 ≈ 1.6449
        assert abs(g.mean() - 0.5772) < 0.02
        assert abs(g.var() - 1.6449) < 0.05

    def test_gumbel_softmax_simplex(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 7)))
        out = F.gumbel_softmax(x, tau=1.0, rng=np.random.default_rng(1)).data
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert (out >= 0).all()

    def test_low_temperature_concentrates(self):
        x = Tensor(np.array([[2.0, 0.0, 0.0]]))
        out = F.gumbel_softmax(x, tau=0.05).data  # no noise
        assert out[0, 0] > 0.999

    def test_high_temperature_flattens(self):
        x = Tensor(np.array([[2.0, 0.0, 0.0]]))
        out = F.gumbel_softmax(x, tau=100.0).data
        assert out.max() - out.min() < 0.02

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            F.gumbel_softmax(Tensor([[1.0]]), tau=0.0)

    def test_gumbel_max_sampling_frequencies(self):
        # argmax(log p + G) must sample with probabilities p
        rng = np.random.default_rng(5)
        p = np.array([0.6, 0.3, 0.1])
        log_p = np.log(p)
        counts = np.zeros(3)
        n = 20000
        noise = F.gumbel_noise((n, 3), rng)
        picks = (log_p + noise).argmax(axis=1)
        for k in range(3):
            counts[k] = (picks == k).mean()
        assert np.allclose(counts, p, atol=0.02)


class TestHardBinarizeSTE:
    def test_forward_is_one_hot(self):
        probs = F.softmax(Tensor(np.random.default_rng(0).normal(size=(6, 7))))
        hard = F.hard_binarize_ste(probs).data
        assert np.allclose(hard.sum(axis=-1), 1.0)
        assert set(np.unique(hard)) <= {0.0, 1.0}

    def test_forward_selects_argmax(self):
        probs = Tensor(np.array([[0.1, 0.7, 0.2]]))
        hard = F.hard_binarize_ste(probs).data
        assert hard[0, 1] == 1.0

    def test_backward_is_identity(self):
        x = Tensor(np.array([[0.2, 0.5, 0.3]]), requires_grad=True)
        hard = F.hard_binarize_ste(x)
        seed = np.array([[1.0, 2.0, 3.0]])
        hard.backward(seed)
        assert np.allclose(x.grad, seed)

    def test_gradient_chains_through_softmax(self):
        alpha = Tensor(np.zeros((2, 3)), requires_grad=True)
        hard = F.hard_binarize_ste(F.softmax(alpha))
        (hard * Tensor(np.arange(6.0).reshape(2, 3))).sum().backward()
        assert alpha.grad is not None
        assert alpha.grad.shape == (2, 3)
