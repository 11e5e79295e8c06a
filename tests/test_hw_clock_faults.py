"""Tests for glitch parameters and the fault-physics model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GlitchConfigError
from repro.hw.clock import (
    GRID_POINTS,
    GlitchParams,
    normalized,
    width_offset_grid,
)
from repro.hw.faults import EFFECT_KINDS, FaultModel, PipelineView

WIDTHS = st.integers(-49, 49)
OFFSETS = st.integers(-49, 49)


def _grid_params():
    return [GlitchParams(0, width, offset) for width, offset in width_offset_grid()]


class TestGlitchParams:
    def test_valid_params(self):
        params = GlitchParams(ext_offset=3, width=10, offset=-5)
        assert params.repeat == 1
        assert list(params.glitched_cycles()) == [3]

    def test_repeat_window(self):
        params = GlitchParams(ext_offset=2, width=0, offset=0, repeat=4)
        assert list(params.glitched_cycles()) == [2, 3, 4, 5]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ext_offset": -1, "width": 0, "offset": 0},
            {"ext_offset": 0, "width": 50, "offset": 0},
            {"ext_offset": 0, "width": 0, "offset": -50},
            {"ext_offset": 0, "width": 0, "offset": 0, "repeat": 0},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(GlitchConfigError):
            GlitchParams(**kwargs)

    def test_grid_is_9801_points(self):
        grid = width_offset_grid()
        assert len(grid) == len(set(grid)) == GRID_POINTS == 9801
        assert len(width_offset_grid(12)) == 9 * 9

    def test_normalized_range(self):
        assert normalized(-49) == -1.0
        assert normalized(49) == 1.0
        assert normalized(0) == 0.0


class TestFaultModelDeterminism:
    def test_same_inputs_same_effect(self):
        model = FaultModel(seed=1)
        params = GlitchParams(0, 20, -10)
        view = PipelineView(executing_class="load")
        first = model.effect_at(params, 0, view, 0)
        second = model.effect_at(params, 0, view, 0)
        assert first == second

    def test_different_seed_different_field(self):
        a = FaultModel(seed=1)
        b = FaultModel(seed=2)
        decisions_a = [a.occurrence_decision(GlitchParams(0, w, -10), 0) for w in range(-49, 50)]
        decisions_b = [b.occurrence_decision(GlitchParams(0, w, -10), 0) for w in range(-49, 50)]
        assert decisions_a != decisions_b

    def test_occurrence_parameter_deterministic(self):
        """Re-tested parameters must behave identically — the property that
        makes the paper's tuning phase (§II-B, §V-B) possible at all."""
        model = FaultModel()
        for width, offset in ((20, -10), (0, 0), (-30, 30)):
            params = GlitchParams(2, width, offset)
            results = {model.occurrence_decision(params, 2) for _ in range(5)}
            assert len(results) == 1

    def test_occurrence_varies_realization_not_decision(self):
        model = FaultModel()
        params = GlitchParams(0, 20, -10)
        view = PipelineView(executing_class="load")
        effects = {model.effect_at(params, 0, view, occurrence) for occurrence in range(20)}
        decisions = {e is None for e in effects}
        # The decision (fault or not) is fixed; the realizations may differ.
        assert decisions == {False} or decisions == {True}


class TestSusceptibilityField:
    def test_sweet_spot_is_hot(self):
        model = FaultModel()
        assert model.fault_probability(20, -10) > 0.9

    def test_far_corner_is_cold(self):
        model = FaultModel()
        assert model.fault_probability(-49, 49) < 1e-6

    @given(WIDTHS, OFFSETS)
    def test_probabilities_are_probabilities(self, width, offset):
        model = FaultModel()
        assert 0.0 <= model.fault_probability(width, offset) <= 1.0
        assert 0.0 <= model.crash_probability(width, offset) <= 1.0

    def test_extreme_width_crashes(self):
        model = FaultModel()
        assert model.crash_probability(49, 49) >= 0.35

    def test_most_of_grid_does_nothing(self):
        """The paper's scans succeed on well under 1% of the grid; most
        points must be inert for that to hold."""
        model = FaultModel()
        inert = sum(
            1
            for params in _grid_params()
            if model.occurrence_decision(params, 0) is None
        )
        assert inert / GRID_POINTS > 0.85

    def test_crash_decision_is_point_level(self):
        """A crashing parameter point crashes at every cycle — long glitches
        don't get 20 independent chances to crash."""
        model = FaultModel()
        for width, offset in ((22, -12), (18, -8), (25, -15)):
            params = GlitchParams(0, width, offset, repeat=20)
            decisions = [model.occurrence_decision(params, rel) for rel in range(20)]
            crash_flags = {d == "crash" for d in decisions}
            assert len(crash_flags) == 1


class TestEffectRealization:
    def _fault_params(self, model):
        for params in _grid_params():
            if model.occurrence_decision(params, 0) == "fault":
                return params
        raise AssertionError("no faulting point found")  # pragma: no cover

    def test_effect_kinds_valid(self):
        model = FaultModel()
        params = self._fault_params(model)
        for cls in ("load", "store", "branch", "alu", "none"):
            for occurrence in range(10):
                effect = model.effect_at(
                    params, 0, PipelineView(executing_class=cls), occurrence
                )
                if effect is not None:
                    assert effect.kind in EFFECT_KINDS

    def test_load_views_produce_load_effects(self):
        model = FaultModel()
        params = self._fault_params(model)
        kinds = set()
        for occurrence in range(64):
            effect = model.effect_at(params, 0, PipelineView(executing_class="load"), occurrence)
            if effect is not None:
                kinds.add(effect.kind)
        assert "load_data" in kinds

    def test_alu_rarely_corrupted(self):
        """§V-A: register-manipulating instructions are exceptionally hard
        to glitch — writeback corruption must be the rarest execute effect."""
        model = FaultModel()
        params = self._fault_params(model)
        writebacks = loads = 0
        for occurrence in range(400):
            alu_effect = model.effect_at(params, 0, PipelineView(executing_class="alu"), occurrence)
            load_effect = model.effect_at(params, 0, PipelineView(executing_class="load"), occurrence)
            if alu_effect is not None and alu_effect.kind == "writeback":
                writebacks += 1
            if load_effect is not None and load_effect.kind == "load_data":
                loads += 1
        assert loads > writebacks * 2

    def test_and_mode_dominates(self):
        """§IV: clock-glitch bit flips are predominantly 1→0."""
        model = FaultModel()
        params = self._fault_params(model)
        modes = {"and": 0, "or": 0, "xor": 0}
        for occurrence in range(300):
            effect = model.effect_at(params, 0, PipelineView(executing_class="load"), occurrence)
            if effect is not None and effect.mask:
                modes[effect.mode] += 1
        assert modes["and"] > modes["or"]
        assert modes["and"] > modes["xor"]

    def test_follow_up_windows_attenuated(self):
        """§V-C: glitches in a second back-to-back window bite less often."""
        model = FaultModel()
        params = self._fault_params(model)
        view = PipelineView(executing_class="load")
        first = sum(
            model.effect_at(params, 0, view, occ, window_index=0) is not None
            for occ in range(200)
        )
        second = sum(
            model.effect_at(params, 0, view, occ, window_index=1) is not None
            for occ in range(200)
        )
        assert second < first

    def test_long_glitch_masks_heavier(self):
        model = FaultModel()
        params = self._fault_params(model)
        from dataclasses import replace as _replace
        long_params = GlitchParams(params.ext_offset, params.width, params.offset, repeat=11)
        view = PipelineView(executing_class="none")
        def mean_bits(p):
            weights = []
            for occ in range(100):
                effect = model.effect_at(p, 0, view, occ)
                if effect is not None and effect.kind in ("fetch", "decode"):
                    weights.append(bin(effect.mask).count("1"))
            return sum(weights) / max(1, len(weights))
        assert mean_bits(long_params) > mean_bits(params)
