"""Tests of Architecture encoding and the SearchSpace container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search_space.macro import MacroConfig
from repro.search_space.space import Architecture, SearchSpace


class TestArchitecture:
    def test_len(self):
        assert len(Architecture((0, 1, 2))) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Architecture(())

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Architecture((0, -1))

    def test_one_hot_shape(self):
        oh = Architecture((0, 3, 6)).one_hot(7)
        assert oh.shape == (3, 7)
        assert np.allclose(oh.sum(axis=1), 1.0)

    def test_one_hot_out_of_range(self):
        with pytest.raises(ValueError):
            Architecture((0, 8)).one_hot(7)

    def test_from_one_hot_round_trip(self):
        """Eq. 4's argmax decodes an exact one-hot matrix back."""
        arch = Architecture((2, 0, 5, 6))
        assert Architecture.from_alpha(arch.one_hot(7)) == arch

    def test_from_alpha_argmax(self):
        alpha = np.array([[0.1, 2.0, 0.0], [5.0, 1.0, 1.0]])
        assert Architecture.from_alpha(alpha).op_indices == (1, 0)

    def test_from_alpha_rejects_1d(self):
        with pytest.raises(ValueError):
            Architecture.from_alpha(np.zeros(5))

    def test_depth_counts_non_skip(self):
        arch = Architecture((6, 0, 6, 1))
        assert arch.depth(skip_index=6) == 2

    def test_hashable_equality(self):
        assert Architecture((1, 2)) == Architecture((1, 2))
        assert len({Architecture((1, 2)), Architecture((1, 2))}) == 1


class TestSearchSpace:
    def test_paper_dimensions(self, full_space):
        assert full_space.num_layers == 21
        assert full_space.num_operators == 7
        assert np.isclose(full_space.size, 7.0 ** 21)
        # |A| ≈ 5.6e17 as stated in §3.1
        assert 5.5e17 < full_space.size < 5.7e17

    def test_skip_index(self, full_space):
        assert full_space.operators[full_space.skip_index].is_skip

    def test_sample_valid(self, full_space, rng):
        arch = full_space.sample(rng)
        full_space.validate(arch)
        assert len(arch) == 21

    def test_sample_many_count(self, full_space, rng):
        archs = full_space.sample_many(50, rng)
        assert len(archs) == 50

    def test_validate_wrong_length(self, full_space):
        with pytest.raises(ValueError):
            full_space.validate(Architecture((0, 1)))

    def test_validate_unknown_operator(self, full_space):
        with pytest.raises(ValueError):
            full_space.validate(Architecture((9,) * 21))

    def test_describe(self, full_space):
        names = full_space.describe(Architecture((0,) * 20 + (6,)))
        assert names[0] == "mbconv_k3_e3"
        assert names[-1] == "skip"

    def test_uniform_alpha_shape(self, full_space):
        alpha = full_space.uniform_alpha()
        assert alpha.shape == (21, 7)
        assert np.all(alpha == 0)

    def test_layer_geometries_copies(self, full_space):
        geoms = full_space.layer_geometries()
        geoms.pop()
        assert len(full_space.layer_geometries()) == 21


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=21))
def test_one_hot_round_trip_property(indices):
    arch = Architecture(tuple(indices))
    assert Architecture.from_alpha(arch.one_hot(7)) == arch


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_sampling_always_valid_property(seed):
    space = SearchSpace(MacroConfig.tiny())
    arch = space.sample(np.random.default_rng(seed))
    space.validate(arch)
