"""Tests of the macro-architecture stage layout."""

import pytest

from repro.search_space.macro import MacroConfig


class TestLightNASLayout:
    def test_21_searchable_layers(self):
        # L = 22 with the first fixed ⇒ 21 searchable (paper §3.1)
        assert MacroConfig.lightnas().num_searchable_layers == 21

    def test_strides_halve_resolution_to_7(self):
        macro = MacroConfig.lightnas()
        # 224 / 2 (stem) / 2^4 (stages)
        assert macro.searchable_layers()[-1].out_resolution == 7

    def test_layer_geometry_chain_consistent(self):
        layers = MacroConfig.lightnas().searchable_layers()
        for prev, cur in zip(layers, layers[1:]):
            assert cur.in_channels == prev.out_channels
            assert cur.in_resolution == prev.out_resolution

    def test_first_layer_enters_from_fixed_block(self):
        macro = MacroConfig.lightnas()
        first = macro.searchable_layers()[0]
        assert first.in_channels == macro.first_layer_channels
        assert first.in_resolution == macro.input_resolution // 2

    def test_stage_channel_progression(self):
        macro = MacroConfig.lightnas()
        outs = [layer.out_channels for layer in macro.searchable_layers()]
        assert outs[0] == 24 and outs[-1] == 352
        assert outs == sorted(outs)  # non-decreasing widths

    def test_one_stride2_per_reduction_stage(self):
        macro = MacroConfig.lightnas()
        strides = [l.stride for l in macro.searchable_layers()]
        assert strides.count(2) == 4  # stages with first_stride=2

    def test_resolutions_powers_structure(self):
        layers = MacroConfig.lightnas().searchable_layers()
        assert layers[0].in_resolution == 112
        assert layers[-1].out_resolution == 7


class TestTinyLayout:
    def test_default_four_layers(self):
        assert MacroConfig.tiny().num_searchable_layers == 4

    def test_configurable_depth(self):
        assert MacroConfig.tiny(num_searchable_layers=6).num_searchable_layers == 6

    def test_minimum_depth(self):
        with pytest.raises(ValueError):
            MacroConfig.tiny(num_searchable_layers=1)

    def test_geometry_chain_consistent(self):
        layers = MacroConfig.tiny().searchable_layers()
        for prev, cur in zip(layers, layers[1:]):
            assert cur.in_channels == prev.out_channels
            assert cur.in_resolution == prev.out_resolution


class TestScaling:
    def test_identity_scale(self):
        macro = MacroConfig.lightnas()
        scaled = macro.scaled(1.0)
        assert scaled.stages == macro.stages
        assert scaled.input_resolution == macro.input_resolution

    def test_width_rounds_to_multiple_of_8(self):
        scaled = MacroConfig.lightnas().scaled(0.77)
        for ch, _, _ in scaled.stages:
            assert ch % 8 == 0

    def test_width_monotone(self):
        base = MacroConfig.lightnas()
        up = base.scaled(1.5)
        down = base.scaled(0.5)
        for (b, _, _), (u, _, _), (d, _, _) in zip(base.stages, up.stages, down.stages):
            assert d <= b <= u

    def test_resolution_override(self):
        scaled = MacroConfig.lightnas().scaled(1.0, resolution=160)
        assert scaled.input_resolution == 160

    def test_layer_count_preserved(self):
        assert (MacroConfig.lightnas().scaled(0.6).num_searchable_layers
                == MacroConfig.lightnas().num_searchable_layers)

    def test_minimum_width_floor(self):
        scaled = MacroConfig.lightnas().scaled(0.01)
        assert all(ch >= 8 for ch, _, _ in scaled.stages)


class TestLayerGeometry:
    def test_out_resolution(self):
        layer = MacroConfig.lightnas().searchable_layers()[0]
        assert layer.out_resolution == layer.in_resolution // layer.stride
