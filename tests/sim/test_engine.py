"""Tests for the simulation engine."""

import pytest

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.classes import ConfidenceLevel, PredictionClass
from repro.confidence.estimator import TageConfidenceEstimator
from repro.confidence.jrs import JrsEstimator
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.tage.config import TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import Cell
from repro.sim.engine import (
    OBSERVATION_CLASS_CODES,
    mispredicted_of,
    simulate,
    simulate_binary,
    step,
)
from repro.traces.types import Trace


def constant_trace(n=100, taken=True):
    return Trace("const", [0x400] * n, [int(taken)] * n, [5] * n)


def _tage_cell(adaptive=False):
    predictor = TagePredictor(TageConfig.small().with_probabilistic_automaton())
    controller = (
        AdaptiveSaturationController(predictor, target_mkp=5.0, window=64)
        if adaptive else None
    )
    return Cell(predictor, TageConfidenceEstimator(predictor), controller)


def _jrs_cell():
    return Cell(BimodalPredictor(log_entries=8), JrsEstimator(), binary=True)


def _bare_cell():
    return Cell(BimodalPredictor(log_entries=8))


class TestStep:
    """The one reference stepper: chunking is invisible, codes per protocol."""

    @pytest.mark.parametrize("make_cell", [
        _bare_cell, _jrs_cell, _tage_cell, lambda: _tage_cell(adaptive=True),
    ], ids=["bare", "binary", "multi-class", "adaptive"])
    @pytest.mark.parametrize("chunk", [1, 7, 500])
    def test_chunked_steps_equal_one_pass(self, tiny_trace, make_cell, chunk):
        whole_cell = make_cell()
        whole = step(whole_cell, tiny_trace.pcs, tiny_trace.takens)
        cell = make_cell()
        predictions, codes = [], []
        for start in range(0, len(tiny_trace), chunk):
            part_predictions, part_codes = step(
                cell,
                tiny_trace.pcs[start:start + chunk],
                tiny_trace.takens[start:start + chunk],
            )
            predictions += part_predictions
            codes += part_codes or []
        assert predictions == whole[0]
        assert codes == (whole[1] or [])
        if cell.controller is not None:
            assert cell.controller.sat_prob_log2 == whole_cell.controller.sat_prob_log2

    def test_codes_per_protocol(self, tiny_trace):
        n = len(tiny_trace)
        predictions, codes = step(_bare_cell(), tiny_trace.pcs, tiny_trace.takens)
        assert len(predictions) == n and codes is None
        _, flags = step(_jrs_cell(), tiny_trace.pcs, tiny_trace.takens)
        assert len(flags) == n and set(flags) <= {True, False}
        _, class_codes = step(_tage_cell(), tiny_trace.pcs, tiny_trace.takens)
        assert len(class_codes) == n
        assert set(class_codes) <= set(range(len(OBSERVATION_CLASS_CODES)))

    def test_simulate_aggregates_the_stepper(self, tiny_trace):
        predictions, codes = step(_tage_cell(adaptive=True), tiny_trace.pcs,
                                  tiny_trace.takens)
        mispredicted = mispredicted_of(predictions, tiny_trace.takens)
        cell = _tage_cell(adaptive=True)
        result = simulate(tiny_trace, cell.predictor, cell.estimator,
                          cell.controller, warmup_branches=300)
        assert result.mispredictions == sum(mispredicted)
        for code, prediction_class in enumerate(OBSERVATION_CLASS_CODES):
            after = [miss for c, miss in zip(codes[300:], mispredicted[300:])
                     if c == code]
            assert result.classes.predictions(prediction_class) == len(after)
            assert result.classes.mispredictions(prediction_class) == sum(after)


class TestSimulate:
    def test_accuracy_counting(self, tiny_trace, small_tage):
        result = simulate(tiny_trace, small_tage)
        assert result.n_branches == len(tiny_trace)
        assert result.n_instructions == tiny_trace.total_instructions
        assert 0 <= result.mispredictions <= result.n_branches
        assert result.classes is None
        assert result.levels is None

    def test_mpki_and_mkp(self):
        trace = constant_trace(100)
        predictor = BimodalPredictor(log_entries=4)
        result = simulate(trace, predictor)
        assert result.mpki == pytest.approx(1000 * result.mispredictions / 500)
        assert result.mkp == pytest.approx(1000 * result.mispredictions / 100)
        assert result.accuracy == pytest.approx(1 - result.mispredictions / 100)

    def test_constant_branch_nearly_perfect(self):
        predictor = BimodalPredictor(log_entries=4)
        result = simulate(constant_trace(500), predictor)
        assert result.mispredictions <= 1

    def test_with_estimator_classes_populated(self, tiny_trace, small_tage):
        estimator = TageConfidenceEstimator(small_tage)
        result = simulate(tiny_trace, small_tage, estimator)
        assert result.classes is not None
        assert result.classes.total_predictions == len(tiny_trace)
        assert result.classes.total_mispredictions == result.mispredictions
        assert result.levels.total_predictions == len(tiny_trace)

    def test_warmup_excluded_from_classes(self, tiny_trace, small_tage):
        estimator = TageConfidenceEstimator(small_tage)
        result = simulate(tiny_trace, small_tage, estimator, warmup_branches=500)
        assert result.classes.total_predictions == len(tiny_trace) - 500
        # Overall accuracy still covers the whole trace.
        assert result.n_branches == len(tiny_trace)

    def test_negative_warmup_rejected(self, tiny_trace, small_tage):
        with pytest.raises(ValueError):
            simulate(tiny_trace, small_tage, warmup_branches=-1)

    def test_class_mpki_contributions_sum(self, tiny_trace, medium_tage):
        estimator = TageConfidenceEstimator(medium_tage)
        result = simulate(tiny_trace, medium_tage, estimator)
        total = sum(result.class_mpki_contribution(cls) for cls in PredictionClass)
        assert total == pytest.approx(result.mpki, rel=1e-9)

    def test_levels_consistent_with_classes(self, tiny_trace, medium_tage):
        estimator = TageConfidenceEstimator(medium_tage)
        result = simulate(tiny_trace, medium_tage, estimator)
        high = result.levels.predictions(ConfidenceLevel.HIGH)
        assert high == (
            result.classes.predictions(PredictionClass.HIGH_CONF_BIM)
            + result.classes.predictions(PredictionClass.STAG)
        )

    def test_class_table_renders(self, tiny_trace, medium_tage):
        estimator = TageConfidenceEstimator(medium_tage)
        result = simulate(tiny_trace, medium_tage, estimator)
        text = result.class_table()
        assert "high-conf-bim" in text
        assert "Wtag" in text

    def test_class_table_without_estimator(self, tiny_trace, small_tage):
        result = simulate(tiny_trace, small_tage)
        assert "no confidence estimator" in result.class_table()

    def test_controller_receives_observations(self, tiny_trace):
        from repro.confidence.adaptive import AdaptiveSaturationController

        predictor = TagePredictor(TageConfig.small().with_probabilistic_automaton())
        estimator = TageConfidenceEstimator(predictor)
        controller = AdaptiveSaturationController(predictor, window=200)
        result = simulate(tiny_trace, predictor, estimator, controller)
        assert result.final_sat_prob_log2 == predictor.saturation_probability_log2
        assert len(controller.adjustments) >= 1

    def test_storage_bits_recorded(self, tiny_trace, small_tage):
        result = simulate(tiny_trace, small_tage)
        assert result.storage_bits == 16 * 1024


class TestSimulateBinary:
    def test_confusion_totals(self, tiny_trace):
        predictor = BimodalPredictor(log_entries=10)
        estimator = JrsEstimator(log_entries=10)
        metrics, result = simulate_binary(tiny_trace, predictor, estimator)
        assert metrics.total == len(tiny_trace)
        assert metrics.high_incorrect + metrics.low_incorrect == result.mispredictions

    def test_warmup(self, tiny_trace):
        predictor = BimodalPredictor(log_entries=10)
        estimator = JrsEstimator(log_entries=10)
        metrics, result = simulate_binary(
            tiny_trace, predictor, estimator, warmup_branches=300
        )
        assert metrics.total == len(tiny_trace) - 300
        assert result.n_branches == len(tiny_trace)

    def test_negative_warmup(self, tiny_trace):
        with pytest.raises(ValueError):
            simulate_binary(tiny_trace, BimodalPredictor(), JrsEstimator(), warmup_branches=-2)

    def test_jrs_confidence_tracks_predictability(self):
        """On a constant branch JRS quickly reaches high confidence."""
        predictor = BimodalPredictor(log_entries=8)
        estimator = JrsEstimator(log_entries=10, history_length=4)
        metrics, _ = simulate_binary(constant_trace(400), predictor, estimator)
        assert metrics.high_coverage > 0.8
        assert metrics.pvp > 0.95
