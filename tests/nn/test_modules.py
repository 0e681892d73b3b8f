"""Tests of repro.nn.modules: registration, layers, state dicts."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, ops


class ReLU(nn.Module):
    """Test-local activation module around ``ops.relu``."""

    def forward(self, x):
        return ops.relu(x)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestModuleRegistration:
    def test_parameters_recursive(self, rng):
        model = nn.Sequential(nn.Linear(4, 8, rng), ReLU(), nn.Linear(8, 2, rng))
        # 2 weights + 2 biases
        assert len(model.parameters()) == 4

    def test_named_parameters_prefixes(self, rng):
        model = nn.Sequential(nn.Linear(2, 2, rng))
        names = [n for n, _ in model.named_parameters()]
        assert "0.weight" in names and "0.bias" in names

    def test_num_parameters(self, rng):
        layer = nn.Linear(3, 5, rng)
        assert layer.num_parameters() == 3 * 5 + 5

    def test_train_eval_propagates(self, rng):
        model = nn.Sequential(nn.BatchNorm2d(3), nn.Sequential(nn.BatchNorm2d(3)))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears_all(self, rng):
        layer = nn.Linear(2, 2, rng)
        out = layer(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLinear:
    def test_shapes(self, rng):
        layer = nn.Linear(4, 7, rng)
        assert layer(Tensor(np.zeros((3, 4)))).shape == (3, 7)

    def test_no_bias(self, rng):
        layer = nn.Linear(4, 7, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_linearity(self, rng):
        layer = nn.Linear(3, 2, rng, bias=False)
        x = np.random.default_rng(1).normal(size=(2, 3))
        out1 = layer(Tensor(x)).data
        out2 = layer(Tensor(2 * x)).data
        assert np.allclose(out2, 2 * out1)


class TestConv2d:
    def test_output_shape(self, rng):
        conv = nn.Conv2d(3, 8, 3, rng, stride=2, padding=1)
        assert conv(Tensor(np.zeros((2, 3, 8, 8)))).shape == (2, 8, 4, 4)

    def test_depthwise_params(self, rng):
        conv = nn.Conv2d(8, 8, 3, rng, groups=8)
        assert conv.weight.shape == (8, 1, 3, 3)

    def test_invalid_groups(self, rng):
        with pytest.raises(ValueError):
            nn.Conv2d(3, 8, 3, rng, groups=2)

    def test_pointwise_equals_linear_map(self, rng):
        conv = nn.Conv2d(4, 6, 1, rng)
        x = np.random.default_rng(2).normal(size=(1, 4, 3, 3))
        out = conv(Tensor(x)).data
        w = conv.weight.data[:, :, 0, 0]
        expected = np.einsum("oc,nchw->nohw", w, x)
        assert np.allclose(out, expected)


class TestBatchNorm:
    def test_train_normalises(self, rng):
        bn = nn.BatchNorm2d(3)
        x = np.random.default_rng(3).normal(loc=5.0, scale=2.0, size=(8, 3, 4, 4))
        out = bn(Tensor(x)).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update(self, rng):
        bn = nn.BatchNorm2d(2, momentum=0.5)
        x = np.full((4, 2, 2, 2), 10.0)
        bn(Tensor(x))
        assert np.allclose(bn.running_mean, 5.0)  # 0.5*0 + 0.5*10

    def test_eval_uses_running_stats(self, rng):
        bn = nn.BatchNorm2d(2)
        for _ in range(200):
            bn(Tensor(np.random.default_rng(4).normal(size=(16, 2, 3, 3)) + 3.0))
        bn.eval()
        x = np.full((1, 2, 2, 2), 3.0)
        out = bn(Tensor(x)).data
        assert np.allclose(out, 0.0, atol=0.2)

    def test_eval_no_stat_update(self, rng):
        bn = nn.BatchNorm2d(2)
        bn.eval()
        before = bn.running_mean.copy()
        bn(Tensor(np.ones((2, 2, 2, 2))))
        assert np.array_equal(bn.running_mean, before)

    def test_rejects_non_4d(self, rng):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(2)(Tensor(np.zeros((2, 2))))

    def test_gamma_beta_trainable(self, rng):
        bn = nn.BatchNorm2d(3)
        out = bn(Tensor(np.random.default_rng(5).normal(size=(2, 3, 2, 2)))).sum()
        out.backward()
        assert bn.gamma.grad is not None and bn.beta.grad is not None


class TestDropout:
    def test_eval_identity(self, rng):
        drop = nn.Dropout(0.5, rng)
        drop.eval()
        x = np.ones((4, 4))
        assert np.array_equal(drop(Tensor(x)).data, x)

    def test_train_scales(self, rng):
        drop = nn.Dropout(0.5, np.random.default_rng(0))
        out = drop(Tensor(np.ones((100, 100)))).data
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)
        assert abs((out > 0).mean() - 0.5) < 0.05

    def test_p_zero_identity(self, rng):
        drop = nn.Dropout(0.0, rng)
        x = np.ones((3, 3))
        assert np.array_equal(drop(Tensor(x)).data, x)

    def test_invalid_p(self, rng):
        with pytest.raises(ValueError):
            nn.Dropout(1.0, rng)


class TestSqueezeExcite:
    def test_preserves_shape(self, rng):
        se = nn.SqueezeExcite(8, rng)
        assert se(Tensor(np.random.default_rng(6).normal(size=(2, 8, 4, 4)))).shape \
            == (2, 8, 4, 4)

    def test_output_bounded_by_input(self, rng):
        se = nn.SqueezeExcite(4, rng)
        x = np.abs(np.random.default_rng(7).normal(size=(1, 4, 3, 3)))
        out = se(Tensor(x)).data
        assert (out <= x + 1e-12).all()  # sigmoid gate ∈ (0, 1)
        assert (out >= 0).all()


class TestContainersAndPooling:
    def test_global_avg_pool(self):
        x = np.arange(16.0).reshape(1, 2, 2, 4)
        out = nn.GlobalAvgPool()(Tensor(x)).data
        assert out.shape == (1, 2)
        assert np.allclose(out[0], [x[0, 0].mean(), x[0, 1].mean()])

    def test_sequential_iteration_and_indexing(self, rng):
        a, b = ReLU(), nn.ReLU6()
        seq = nn.Sequential(a, b)
        assert len(seq) == 2
        assert seq[0] is a
        assert list(seq) == [a, b]


class TestStateDict:
    def test_round_trip(self, rng):
        model = nn.Sequential(nn.Linear(3, 4, rng), nn.BatchNorm2d(4))
        state = model.state_dict()
        model2 = nn.Sequential(nn.Linear(3, 4, np.random.default_rng(9)),
                               nn.BatchNorm2d(4))
        model2.load_state_dict(state)
        for (n1, p1), (n2, p2) in zip(model.named_parameters(),
                                      model2.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_includes_buffers(self, rng):
        bn = nn.BatchNorm2d(2)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

    def test_missing_key_raises(self, rng):
        layer = nn.Linear(2, 2, rng)
        with pytest.raises(KeyError):
            layer.load_state_dict({})

    def test_shape_mismatch_raises(self, rng):
        layer = nn.Linear(2, 2, rng)
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_state_dict_copies(self, rng):
        layer = nn.Linear(2, 2, rng)
        state = layer.state_dict()
        state["weight"][:] = 99.0
        assert not np.allclose(layer.weight.data, 99.0)
