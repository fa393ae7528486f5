"""Tests for the probability calibration module."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence.calibration import (
    ClassRateTracker,
    ReliabilityReport,
    calibrate_simulation,
)
from repro.common.rng import SplitMix64


class TestClassRateTracker:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClassRateTracker(decay=1.0)
        with pytest.raises(ValueError):
            ClassRateTracker(decay=0.5, prior=2.0)

    def test_prior_before_observation(self):
        tracker = ClassRateTracker(prior=0.07)
        assert tracker.probability("unseen") == 0.07
        assert tracker.observations("unseen") == 0

    def test_converges_to_true_rate(self):
        tracker = ClassRateTracker(decay=0.99)
        rng = SplitMix64(3)
        for _ in range(5000):
            tracker.observe("x", rng.next_float() < 0.3)
        assert 0.2 < tracker.probability("x") < 0.4

    def test_all_misses_converges_to_one(self):
        tracker = ClassRateTracker(decay=0.9)
        for _ in range(200):
            tracker.observe("bad", True)
        assert tracker.probability("bad") > 0.95

    def test_classes_independent(self):
        tracker = ClassRateTracker(decay=0.9)
        for _ in range(100):
            tracker.observe("a", True)
            tracker.observe("b", False)
        assert tracker.probability("a") > 0.9
        assert tracker.probability("b") < 0.1

    def test_table_and_reset(self):
        tracker = ClassRateTracker()
        tracker.observe("a", True)
        assert "a" in tracker.table()
        tracker.reset()
        assert tracker.table() == {}

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_probability_stays_in_unit_interval(self, events):
        tracker = ClassRateTracker(decay=0.95)
        for event in events:
            tracker.observe("k", event)
            assert 0.0 <= tracker.probability("k") <= 1.0


class TestReliabilityReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReliabilityReport(n_bins=0)
        with pytest.raises(ValueError):
            ReliabilityReport().observe(1.5, True)

    def test_perfect_calibration_low_brier(self):
        report = ReliabilityReport(n_bins=10)
        rng = SplitMix64(7)
        for _ in range(20000):
            p = rng.next_float() * 0.5
            report.observe(p, rng.next_float() < p)
        assert report.brier_score() < 0.20
        assert report.expected_calibration_error() < 0.05

    def test_miscalibration_detected(self):
        report = ReliabilityReport(n_bins=10)
        rng = SplitMix64(8)
        for _ in range(5000):
            # Claims 5% but actually misses 50%.
            report.observe(0.05, rng.next_float() < 0.5)
        assert report.expected_calibration_error() > 0.3

    def test_bins_cover_observations(self):
        report = ReliabilityReport(n_bins=4)
        for p in (0.1, 0.3, 0.9, 0.95):
            report.observe(p, False)
        bins = report.bins()
        assert sum(b.count for b in bins) == 4
        assert all(b.lower <= b.mean_predicted <= b.upper for b in bins)

    def test_probability_one_lands_in_last_bin(self):
        report = ReliabilityReport(n_bins=5)
        report.observe(1.0, True)
        assert report.bins()[-1].upper == 1.0

    def test_empty_report(self):
        report = ReliabilityReport()
        assert report.brier_score() == 0.0
        assert report.expected_calibration_error() == 0.0
        assert report.bins() == []

    def test_render(self):
        report = ReliabilityReport()
        report.observe(0.2, False)
        text = report.render()
        assert "Brier" in text


class TestCalibrateSimulation:
    def test_end_to_end_calibration(self, int1_trace):
        """The per-class EMA probabilities are well calibrated: after the
        run, the reliability report's ECE is small."""
        from repro.confidence.estimator import TageConfidenceEstimator
        from repro.predictors.tage.config import TageConfig
        from repro.predictors.tage.predictor import TagePredictor

        predictor = TagePredictor(TageConfig.small())
        estimator = TageConfidenceEstimator(predictor)
        tracker, report = calibrate_simulation(int1_trace, predictor, estimator)
        assert report.total == len(int1_trace)
        assert report.expected_calibration_error() < 0.12
        # The tracker learned materially different rates per class.
        probabilities = list(tracker.table().values())
        assert max(probabilities) > 4 * min(probabilities)

    def test_equals_calibrating_inside_the_simulation_loop(self, tiny_trace):
        """Replaying the observation stream gives exactly what an in-loop
        calibration would: the tracker never feeds back into the predictor."""
        from repro.confidence.estimator import TageConfidenceEstimator
        from repro.predictors.tage.config import TageConfig
        from repro.predictors.tage.predictor import TagePredictor

        predictor = TagePredictor(TageConfig.small())
        estimator = TageConfidenceEstimator(predictor)
        tracker = ClassRateTracker()
        report = ReliabilityReport()
        for pc, taken_byte in zip(tiny_trace.pcs, tiny_trace.takens):
            taken = taken_byte == 1
            prediction = predictor.predict(pc)
            observation = predictor.last_prediction
            prediction_class = estimator.classify(observation)
            report.observe(tracker.probability(prediction_class), prediction != taken)
            tracker.observe(prediction_class, prediction != taken)
            estimator.observe(observation, taken)
            predictor.train(pc, taken)

        fresh = TagePredictor(TageConfig.small())
        replayed_tracker, replayed_report = calibrate_simulation(
            tiny_trace, fresh, TageConfidenceEstimator(fresh)
        )
        assert replayed_tracker.table() == tracker.table()
        assert replayed_report.bins() == report.bins()
        assert replayed_report.brier_score() == report.brier_score()
