"""The paper's qualitative claims, as executable assertions.

These are the *shape* checks of DESIGN.md §4: each test encodes one
claim from the paper's evaluation and asserts it on reduced-scale runs
(bands are generous — the traces are synthetic).
"""

import pytest

from repro.confidence.classes import ConfidenceLevel, PredictionClass
from repro.sim.runner import run_trace
from repro.sim.stats import summarize
from repro.traces.suites import cbp1_trace, cbp2_trace

N_BRANCHES = 12_000
SHAPE_TRACES_CBP1 = ("FP-1", "INT-1", "MM-1", "SERV-1")


@pytest.fixture(scope="module")
def standard_results():
    return {
        name: run_trace(cbp1_trace(name, N_BRANCHES), size="64K")
        for name in SHAPE_TRACES_CBP1
    }


@pytest.fixture(scope="module")
def modified_results():
    return {
        name: run_trace(cbp1_trace(name, N_BRANCHES), size="64K", automaton="probabilistic")
        for name in SHAPE_TRACES_CBP1
    }


class TestSection5Classes:
    """§5: the 7 observation classes have distinct misprediction rates."""

    def test_low_conf_bim_is_low_confidence(self, standard_results):
        """low-conf-bim MPrate ~30 %+ wherever it has volume."""
        for name, result in standard_results.items():
            if result.classes.predictions(PredictionClass.LOW_CONF_BIM) > 100:
                assert result.classes.mprate(PredictionClass.LOW_CONF_BIM) > 200, name

    def test_wtag_is_low_confidence(self, standard_results):
        """Weak tagged counters mispredict in the 30 % range (checked
        where the class has enough volume for the rate to be stable)."""
        for name, result in standard_results.items():
            if result.classes.predictions(PredictionClass.WTAG) > 300:
                assert result.classes.mprate(PredictionClass.WTAG) > 180, name

    def test_tagged_ladder_monotone(self, standard_results):
        """MPrate decreases with counter strength: Wtag > NStag > Stag
        (checked where the classes have volume)."""
        for name, result in standard_results.items():
            classes = result.classes
            if (
                classes.predictions(PredictionClass.WTAG) > 150
                and classes.predictions(PredictionClass.NSTAG) > 150
                and classes.predictions(PredictionClass.STAG) > 150
            ):
                assert classes.mprate(PredictionClass.WTAG) > classes.mprate(
                    PredictionClass.NSTAG
                ), name
                assert classes.mprate(PredictionClass.NSTAG) > classes.mprate(
                    PredictionClass.STAG
                ), name

    def test_high_conf_bim_is_high_confidence(self, standard_results):
        """Strong bimodal counters far from a BIM miss rarely mispredict."""
        for name, result in standard_results.items():
            assert result.classes.mprate(PredictionClass.HIGH_CONF_BIM) < 40, name

    def test_bim_coverage_significant(self, standard_results):
        """§5.1: the BIM class covers a significant share of predictions."""
        for name, result in standard_results.items():
            bim = sum(
                result.classes.pcov(cls) for cls in PredictionClass if cls.is_bimodal
            )
            assert bim > 0.3, name


class TestSection6ModifiedAutomaton:
    """§6: the probabilistic saturation automaton purifies Stag."""

    def test_stag_mprate_collapses(self, standard_results, modified_results):
        for name in SHAPE_TRACES_CBP1:
            before = standard_results[name].classes
            after = modified_results[name].classes
            if before.predictions(PredictionClass.STAG) > 200:
                assert after.mprate(PredictionClass.STAG) < before.mprate(
                    PredictionClass.STAG
                ) + 1e-9, name
                assert after.mprate(PredictionClass.STAG) < 25, name

    def test_stag_coverage_shrinks_nstag_grows(self, standard_results, modified_results):
        for name in SHAPE_TRACES_CBP1:
            before = standard_results[name].classes
            after = modified_results[name].classes
            if before.predictions(PredictionClass.STAG) > 200:
                assert after.pcov(PredictionClass.STAG) < before.pcov(PredictionClass.STAG), name
                assert after.pcov(PredictionClass.NSTAG) > before.pcov(
                    PredictionClass.NSTAG
                ), name

    def test_accuracy_cost_is_marginal(self, standard_results, modified_results):
        """§6: 'increases the misprediction rate ... less than 0.02
        misp/KI in average' — we allow a slightly wider band."""
        deltas = [
            modified_results[name].mpki - standard_results[name].mpki
            for name in SHAPE_TRACES_CBP1
        ]
        assert sum(deltas) / len(deltas) < 0.15


class TestSection61ThreeLevels:
    """§6.1 / Table 2: the three-level split."""

    @pytest.fixture(scope="class")
    def pooled(self):
        results = [
            run_trace(cbp1_trace(name, 8_000), size="64K", automaton="probabilistic")
            for name in ("FP-1", "INT-1", "MM-1", "SERV-1", "INT-3")
        ]
        return summarize(results)

    def test_high_conf_covers_majority(self, pooled):
        pcov, _, _ = pooled.level_row(ConfidenceLevel.HIGH)
        assert pcov > 0.55

    def test_high_conf_mprate_small(self, pooled):
        _, _, mprate = pooled.level_row(ConfidenceLevel.HIGH)
        assert mprate < 25

    def test_low_conf_mprate_large(self, pooled):
        _, _, mprate = pooled.level_row(ConfidenceLevel.LOW)
        assert mprate > 200

    def test_rates_strictly_ordered(self, pooled):
        rates = [pooled.level_row(level)[2] for level in
                 (ConfidenceLevel.HIGH, ConfidenceLevel.MEDIUM, ConfidenceLevel.LOW)]
        assert rates[0] < rates[1] < rates[2]

    def test_medium_and_low_split_mispredictions(self, pooled):
        """Paper: medium and low each cover roughly half the
        mispredictions; generous band."""
        _, mpcov_medium, _ = pooled.level_row(ConfidenceLevel.MEDIUM)
        _, mpcov_low, _ = pooled.level_row(ConfidenceLevel.LOW)
        assert mpcov_medium + mpcov_low > 0.6
        assert mpcov_low > 0.25


class TestTable1Shape:
    """Table 1: accuracy improves with storage budget."""

    def test_sizes_ordered(self):
        trace = cbp1_trace("SERV-2", 10_000)
        mpki = {
            size: run_trace(trace, size=size).mpki for size in ("16K", "64K", "256K")
        }
        assert mpki["16K"] > mpki["64K"] >= mpki["256K"] * 0.95

    def test_fp_easier_than_noisy(self):
        fp = run_trace(cbp1_trace("FP-1", 8_000), size="64K").mpki
        twolf = run_trace(cbp2_trace("300.twolf", 8_000), size="64K").mpki
        assert twolf > 3 * fp


class TestSection62Probability:
    """§6.2: probability 1/16 vs 1/128 trade-off."""

    def test_larger_probability_grows_stag_and_its_mprate(self):
        trace = cbp1_trace("INT-1", N_BRANCHES)
        p128 = run_trace(trace, size="16K", automaton="probabilistic", sat_prob_log2=7)
        p16 = run_trace(trace, size="16K", automaton="probabilistic", sat_prob_log2=4)
        assert p16.classes.pcov(PredictionClass.STAG) > p128.classes.pcov(
            PredictionClass.STAG
        )

    def test_adaptive_controller_bounds_high_conf_rate(self):
        trace = cbp2_trace("164.gzip", N_BRANCHES)
        result = run_trace(trace, size="64K", adaptive=True, target_mkp=10.0)
        levels = result.levels
        # The controller cannot do magic on a noisy trace, but it must
        # keep the high-confidence rate within a small multiple of target.
        assert levels.mprate(ConfidenceLevel.HIGH) < 40
        assert result.final_sat_prob_log2 is not None
