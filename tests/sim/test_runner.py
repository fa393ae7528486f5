"""Tests for the predictor presets, the cell builder and run_trace."""

import pytest

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.jrs import EnhancedJrsEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.gshare import GsharePredictor
from repro.predictors.tage.config import AUTOMATON_PROBABILISTIC
from repro.sim.engine import simulate
from repro.sim.runner import build_cell, build_predictor, get_trace, run_trace
from repro.sweep.spec import EstimatorSpec, PredictorSpec


class TestBuildPredictor:
    def test_presets(self):
        assert build_predictor("16K").storage_bits() == 16 * 1024
        assert build_predictor("64K").storage_bits() == 64 * 1024
        assert build_predictor("256K").storage_bits() == 256 * 1024

    def test_automaton_selection(self):
        predictor = build_predictor("16K", automaton=AUTOMATON_PROBABILISTIC, sat_prob_log2=4)
        assert predictor.saturation_probability_log2 == 4

    def test_overrides(self):
        predictor = build_predictor("16K", ctr_bits=4)
        assert predictor.config.ctr_bits == 4

    def test_unknown_size(self):
        with pytest.raises(KeyError):
            build_predictor("2M")


class TestBuildCell:
    def test_tage_observation_cell(self):
        cell = build_cell(PredictorSpec.of("tage", size="16K"),
                          EstimatorSpec.of("tage", bim_miss_window=4))
        assert not cell.binary and cell.controller is None
        assert cell.estimator.predictor is cell.predictor
        assert cell.estimator.bim_miss_window == 4

    def test_adaptive_attaches_controller_and_forces_automaton(self):
        cell = build_cell(PredictorSpec.of("tage", size="16K"),
                          EstimatorSpec.of("tage"), adaptive=True, target_mkp=6.0)
        assert isinstance(cell.controller, AdaptiveSaturationController)
        assert cell.controller.target_mkp == 6.0
        assert cell.predictor.config.automaton == AUTOMATON_PROBABILISTIC

    def test_seed_reseeds_tage_random_sources(self):
        spec, estimator = PredictorSpec.of("tage", size="16K"), EstimatorSpec.of("tage")
        unseeded = build_cell(spec, estimator).predictor.config
        seeded = build_cell(spec, estimator, seed=7).predictor.config
        assert (seeded.lfsr_seed, seeded.alloc_seed) != (
            unseeded.lfsr_seed, unseeded.alloc_seed)
        assert build_cell(spec, estimator, seed=7).predictor.config == seeded

    def test_binary_cells(self):
        cell = build_cell(PredictorSpec.of("gshare"), EstimatorSpec.of("ejrs"))
        assert cell.binary
        assert type(cell.predictor) is GsharePredictor
        assert type(cell.estimator) is EnhancedJrsEstimator
        cell = build_cell(PredictorSpec.of("perceptron"), EstimatorSpec.of("self"))
        assert isinstance(cell.estimator, SelfConfidenceEstimator)
        assert cell.estimator.predictor is cell.predictor


class TestRunTrace:
    def test_produces_class_breakdown(self, tiny_trace):
        result = run_trace(tiny_trace, size="16K")
        assert result.classes is not None
        assert result.classes.total_predictions == len(tiny_trace)

    def test_adaptive_forces_probabilistic(self, tiny_trace):
        result = run_trace(tiny_trace, size="16K", adaptive=True)
        assert result.final_sat_prob_log2 is not None

    def test_config_overrides_forwarded(self, tiny_trace):
        result = run_trace(tiny_trace, size="16K", ctr_bits=4)
        assert result.storage_bits > 16 * 1024  # wider counters cost bits

    def test_fresh_predictor_per_call(self, tiny_trace):
        """Each call simulates on a fresh cell: repeating it repeats the
        result."""
        assert run_trace(tiny_trace, size="16K") == run_trace(tiny_trace, size="16K")

    def test_equals_simulate_on_built_cell(self):
        trace = get_trace("INT-1", 600)
        cell = build_cell(PredictorSpec.of("tage", size="16K", automaton="probabilistic"),
                          EstimatorSpec.of("tage"), adaptive=True)
        direct = simulate(trace, cell.predictor, cell.estimator, cell.controller,
                          warmup_branches=100)
        assert run_trace(trace, size="16K", adaptive=True, warmup_branches=100) == direct
