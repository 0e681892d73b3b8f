"""Tests of the weight-sharing supernet and stand-alone builder."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.proxy.supernet import SuperNet, build_standalone
from repro.search_space.space import Architecture


@pytest.fixture(scope="module")
def supernet(tiny_space):
    return SuperNet(tiny_space, np.random.default_rng(0))


def one_hot_gates(space, arch, requires_grad=False):
    return nn.Tensor(arch.one_hot(space.num_operators), requires_grad=requires_grad)


def batch_images(space, n=2, seed=0):
    r = space.macro.input_resolution
    return nn.Tensor(np.random.default_rng(seed).normal(size=(n, 3, r, r)))


class TestSinglePath:
    def test_output_shape(self, tiny_space, supernet):
        arch = tiny_space.sample(np.random.default_rng(1))
        out = supernet.forward_single_path(batch_images(tiny_space),
                                           one_hot_gates(tiny_space, arch))
        assert out.shape == (2, tiny_space.macro.num_classes)

    def test_single_path_active_count(self, tiny_space, supernet):
        arch = tiny_space.sample(np.random.default_rng(2))
        supernet.forward_single_path(batch_images(tiny_space),
                                     one_hot_gates(tiny_space, arch))
        assert supernet.last_active_paths == tiny_space.num_layers

    def test_matches_forward_arch(self, tiny_space, supernet):
        """Gated single-path forward ≡ plain discrete forward (gates are 1)."""
        arch = tiny_space.sample(np.random.default_rng(3))
        x = batch_images(tiny_space, seed=3)
        supernet.eval()
        gated = supernet.forward_single_path(x, one_hot_gates(tiny_space, arch))
        plain = supernet.forward_arch(x, arch)
        supernet.train(True)
        assert np.allclose(gated.data, plain.data)

    def test_gate_gradient_flows_to_alpha(self, tiny_space, supernet):
        """The straight-through chain of Eq. (12): loss → gates → α."""
        alpha = nn.Parameter(tiny_space.uniform_alpha())
        gates = F.hard_binarize_ste(F.softmax(alpha))
        out = supernet.forward_single_path(batch_images(tiny_space), gates)
        loss = F.cross_entropy(out, np.zeros(2, dtype=np.int64))
        loss.backward()
        assert alpha.grad is not None
        assert np.abs(alpha.grad).sum() > 0

    def test_wrong_gate_shape_raises(self, tiny_space, supernet):
        with pytest.raises(ValueError):
            supernet.forward_single_path(batch_images(tiny_space),
                                         nn.Tensor(np.ones((2, 2))))

    def test_only_active_ops_get_weight_gradients(self, tiny_space):
        net = SuperNet(tiny_space, np.random.default_rng(5))
        arch = Architecture((0,) * tiny_space.num_layers)
        out = net.forward_single_path(batch_images(tiny_space),
                                      one_hot_gates(tiny_space, arch))
        out.sum().backward()
        active = net.choice_blocks[0][0]
        inactive = net.choice_blocks[0][1]
        assert any(p.grad is not None for p in active.parameters())
        assert all(p.grad is None for p in inactive.parameters())


class TestLayerProfile:
    def test_profile_records_each_choice_block(self, tiny_space, supernet):
        arch = tiny_space.sample(np.random.default_rng(7))
        with nn.profiler.profile() as prof:
            supernet.forward_single_path(batch_images(tiny_space),
                                         one_hot_gates(tiny_space, arch))
        layers = prof.layers()
        assert sorted(layers) == sorted(
            f"layer {l}/{tiny_space.operators[k].name}"
            for l, k in enumerate(arch.op_indices))
        assert all(row["calls"] == 1 for row in layers.values())
        # layer spans overlap the op times inside them: never op kinds
        assert not set(layers) & set(prof.as_dict())

    def test_one_profile_check_per_forward(self, tiny_space, supernet,
                                           monkeypatch):
        """With profiling off the layer view costs one check per forward."""
        checks = []
        real = nn.profiler.active_profile
        monkeypatch.setattr(nn.profiler, "active_profile",
                            lambda: checks.append(1) or real())
        arch = tiny_space.sample(np.random.default_rng(8))
        supernet.forward_single_path(batch_images(tiny_space),
                                     one_hot_gates(tiny_space, arch))
        assert len(checks) == 1


class TestMultiPath:
    def test_all_paths_active(self, tiny_space, supernet):
        weights = nn.Tensor(np.full(
            (tiny_space.num_layers, tiny_space.num_operators),
            1.0 / tiny_space.num_operators))
        supernet.forward_weighted(batch_images(tiny_space), weights)
        assert supernet.last_active_paths == (
            tiny_space.num_layers * tiny_space.num_operators)

    def test_memory_footprint_ratio(self, tiny_space, supernet):
        """The §3.3 claim: multi-path activates K× the operators."""
        arch = tiny_space.sample(np.random.default_rng(6))
        supernet.forward_single_path(batch_images(tiny_space),
                                     one_hot_gates(tiny_space, arch))
        single = supernet.last_active_paths
        weights = nn.Tensor(np.full(
            (tiny_space.num_layers, tiny_space.num_operators),
            1.0 / tiny_space.num_operators))
        supernet.forward_weighted(batch_images(tiny_space), weights)
        assert supernet.last_active_paths == tiny_space.num_operators * single

    def test_one_hot_weights_equal_single_path(self, tiny_space, supernet):
        arch = tiny_space.sample(np.random.default_rng(7))
        x = batch_images(tiny_space, seed=7)
        supernet.eval()
        multi = supernet.forward_weighted(x, one_hot_gates(tiny_space, arch),
                                          threshold=0.5)
        single = supernet.forward_single_path(x, one_hot_gates(tiny_space, arch))
        supernet.train(True)
        assert np.allclose(multi.data, single.data)

    def test_threshold_prunes_paths(self, tiny_space, supernet):
        weights = np.full((tiny_space.num_layers, tiny_space.num_operators), 0.01)
        weights[:, 0] = 1.0 - 0.01 * (tiny_space.num_operators - 1)
        supernet.forward_weighted(batch_images(tiny_space), nn.Tensor(weights),
                                  threshold=0.5)
        assert supernet.last_active_paths == tiny_space.num_layers

    def test_zero_weight_candidate_never_executed(self, tiny_space, supernet):
        """Masked-weight callers (threshold<0) must not run zeroed paths.

        ProxylessNAS-style two-path sampling zeroes all other candidates
        and passes a negative threshold; a zero weight contributes nothing
        to the blend, so executing the operator would be pure waste.
        """
        weights = np.zeros((tiny_space.num_layers, tiny_space.num_operators))
        weights[:, 0] = 0.6
        weights[:, 1] = 0.4
        calls = []
        zeroed = supernet.choice_blocks[0][2]
        orig_forward = zeroed.forward
        zeroed.forward = lambda x: (calls.append(1), orig_forward(x))[1]
        try:
            supernet.forward_weighted(batch_images(tiny_space),
                                      nn.Tensor(weights), threshold=-1.0)
        finally:
            zeroed.forward = orig_forward
        assert calls == [], "zero-weight candidate was executed"
        assert supernet.last_active_paths == 2 * tiny_space.num_layers

    def test_all_pruned_raises(self, tiny_space, supernet):
        weights = nn.Tensor(np.zeros(
            (tiny_space.num_layers, tiny_space.num_operators)))
        with pytest.raises(ValueError):
            supernet.forward_weighted(batch_images(tiny_space), weights,
                                      threshold=0.5)


class TestPathParameters:
    def test_subset_of_all(self, tiny_space, supernet):
        arch = tiny_space.sample(np.random.default_rng(8))
        path = supernet.path_parameters(arch)
        assert 0 < len(path) < len(supernet.parameters())


class TestStandalone:
    def test_forward_shape(self, tiny_space, rng):
        arch = tiny_space.sample(rng)
        model = build_standalone(tiny_space, arch, np.random.default_rng(0))
        out = model(batch_images(tiny_space))
        assert out.shape == (2, tiny_space.macro.num_classes)

    def test_with_se(self, tiny_space, rng):
        arch = Architecture((1,) * tiny_space.num_layers)
        base = build_standalone(tiny_space, arch, np.random.default_rng(0),
                                dropout=0.0)
        se = build_standalone(tiny_space, arch, np.random.default_rng(0),
                              dropout=0.0, with_se_last=2)
        assert se.num_parameters() > base.num_parameters()

    def test_trainable(self, tiny_space, rng):
        arch = tiny_space.sample(rng)
        model = build_standalone(tiny_space, arch, np.random.default_rng(0),
                                 dropout=0.0)
        out = model(batch_images(tiny_space))
        F.cross_entropy(out, np.zeros(2, dtype=np.int64)).backward()
        grads = [p.grad is not None for p in model.parameters()]
        assert any(grads)

    def test_validates_arch(self, tiny_space):
        with pytest.raises(ValueError):
            build_standalone(tiny_space, Architecture((0,)),
                             np.random.default_rng(0))
