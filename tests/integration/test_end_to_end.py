"""End-to-end integration: traces -> predictor -> estimator -> reports."""

import pytest

from repro import (
    TageConfidenceEstimator,
    TageConfig,
    TagePredictor,
    simulate,
)
from repro.confidence.classes import PredictionClass
from repro.sim.report import format_distribution_figure
from repro.sim.runner import run_trace
from repro.sim.stats import summarize
from repro.traces.io import read_trace, write_trace
from repro.traces.suites import cbp1_trace


class TestPublicApi:
    def test_quickstart_flow(self):
        """The README quickstart must work verbatim."""
        trace = cbp1_trace("INT-1", n_branches=4000)
        predictor = TagePredictor(TageConfig.medium())
        estimator = TageConfidenceEstimator(predictor)
        result = simulate(trace, predictor, estimator)
        assert result.mpki > 0
        assert "high-conf-bim" in result.class_table()

    def test_package_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_trace_file_to_simulation(self, tmp_path):
        """Write a trace to disk, read it back, simulate it: identical
        result to simulating the original."""
        trace = cbp1_trace("MM-1", n_branches=3000)
        path = tmp_path / "mm1.rtrc.gz"
        write_trace(trace, path)
        loaded = read_trace(path)

        result_a = simulate(trace, TagePredictor(TageConfig.small()))
        result_b = simulate(loaded, TagePredictor(TageConfig.small()))
        assert result_a.mispredictions == result_b.mispredictions

    def test_suite_to_report(self):
        results = [
            run_trace(cbp1_trace(name, n_branches=1500), size="16K")
            for name in ("FP-1", "INT-1")
        ]
        summary = summarize(results)
        assert summary.total_predictions == 3000
        text = format_distribution_figure(results, title="fig")
        assert "FP-1" in text and "INT-1" in text

    def test_reproducibility_of_full_pipeline(self):
        first = run_trace(cbp1_trace("INT-2", n_branches=1500), size="16K")
        second = run_trace(cbp1_trace("INT-2", n_branches=1500), size="16K")
        assert first.mispredictions == second.mispredictions
        assert first.classes.as_dict() == second.classes.as_dict()


class TestCrossPredictorSanity:
    """TAGE must beat the 1990s baselines it claims to supersede."""

    @pytest.fixture(scope="class")
    def trace(self):
        return cbp1_trace("INT-1", n_branches=10_000)

    def test_tage_beats_bimodal(self, trace):
        from repro.predictors.bimodal import BimodalPredictor

        tage = simulate(trace, TagePredictor(TageConfig.small()))
        bimodal = simulate(trace, BimodalPredictor(log_entries=13))
        assert tage.mispredictions < bimodal.mispredictions

    def test_tage_beats_gshare(self, trace):
        from repro.predictors.gshare import GsharePredictor

        tage = simulate(trace, TagePredictor(TageConfig.small()))
        gshare = simulate(trace, GsharePredictor(log_entries=13, history_length=13))
        assert tage.mispredictions < gshare.mispredictions

    def test_all_classes_appear_on_mixed_trace(self, trace):
        predictor = TagePredictor(TageConfig.small())
        estimator = TageConfidenceEstimator(predictor)
        result = simulate(trace, predictor, estimator)
        observed = result.classes.keys()
        for cls in PredictionClass:
            assert cls in observed, f"{cls} never observed"
