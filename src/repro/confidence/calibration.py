"""Probability-calibrated confidence (Malik et al. [8] style usage).

§2.2: "Malik et al proposed ... to use the probability of the
mispredictions for the different values of the confidence prediction
counters in order to control fetch gating and SMT fetch policies."
The TAGE observation classes are a natural substrate for this: each
class has a characteristic misprediction probability, so tracking an
online per-class rate turns the 7-class label into a calibrated
probability-of-misprediction — the quantity a graded consumer
(weighted gating, fractional SMT priorities) actually wants.

:class:`ClassRateTracker` keeps an exponential moving average per class
(a handful of small registers — still no tables).
:class:`ReliabilityReport` checks the calibration: predictions binned by
estimated probability versus the observed misprediction frequency, plus
the Brier score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

__all__ = ["ClassRateTracker", "ReliabilityReport", "ReliabilityBin"]


class ClassRateTracker:
    """Online per-class misprediction probability via an EMA.

    Args:
        decay: EMA coefficient; the effective window is ~1/(1-decay)
            observations (default ~1000).
        prior: initial probability for a class never observed.
    """

    def __init__(self, decay: float = 0.999, prior: float = 0.05) -> None:
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {decay}")
        if not 0.0 <= prior <= 1.0:
            raise ValueError(f"prior must be in [0, 1], got {prior}")
        self.decay = decay
        self.prior = prior
        self._rates: dict[Hashable, float] = {}
        self._counts: dict[Hashable, int] = {}

    def observe(self, key: Hashable, mispredicted: bool) -> None:
        """Fold one resolved prediction into the class's rate."""
        rate = self._rates.get(key, self.prior)
        self._rates[key] = rate * self.decay + (1.0 - self.decay) * float(mispredicted)
        self._counts[key] = self._counts.get(key, 0) + 1

    def probability(self, key: Hashable) -> float:
        """Current misprediction probability estimate for a class."""
        return self._rates.get(key, self.prior)

    def observations(self, key: Hashable) -> int:
        return self._counts.get(key, 0)

    def table(self) -> dict[Hashable, float]:
        """Snapshot of every tracked class's probability."""
        return dict(self._rates)

    def reset(self) -> None:
        self._rates.clear()
        self._counts.clear()


@dataclass(frozen=True)
class ReliabilityBin:
    """One probability bin of a reliability diagram."""

    lower: float
    upper: float
    count: int
    mean_predicted: float
    observed_rate: float

    @property
    def gap(self) -> float:
        """Calibration gap of the bin (predicted minus observed)."""
        return self.mean_predicted - self.observed_rate


class ReliabilityReport:
    """Reliability diagram + Brier score over (probability, outcome)
    pairs.

    Feed every prediction's estimated misprediction probability and
    whether it actually mispredicted; the report bins by probability and
    compares against the observed frequency.
    """

    def __init__(self, n_bins: int = 10) -> None:
        if n_bins <= 0:
            raise ValueError(f"n_bins must be positive, got {n_bins}")
        self.n_bins = n_bins
        self._counts = [0] * n_bins
        self._prob_sums = [0.0] * n_bins
        self._miss_sums = [0] * n_bins
        self._brier_sum = 0.0
        self._total = 0

    def observe(self, probability: float, mispredicted: bool) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        bin_index = min(int(probability * self.n_bins), self.n_bins - 1)
        self._counts[bin_index] += 1
        self._prob_sums[bin_index] += probability
        self._miss_sums[bin_index] += int(mispredicted)
        self._brier_sum += (probability - float(mispredicted)) ** 2
        self._total += 1

    @property
    def total(self) -> int:
        return self._total

    def brier_score(self) -> float:
        """Mean squared error of the probability estimates (0 = perfect)."""
        return self._brier_sum / self._total if self._total else 0.0

    def bins(self) -> list[ReliabilityBin]:
        """Non-empty bins of the reliability diagram."""
        result = []
        width = 1.0 / self.n_bins
        for index in range(self.n_bins):
            count = self._counts[index]
            if count == 0:
                continue
            result.append(
                ReliabilityBin(
                    lower=index * width,
                    upper=(index + 1) * width,
                    count=count,
                    mean_predicted=self._prob_sums[index] / count,
                    observed_rate=self._miss_sums[index] / count,
                )
            )
        return result

    def expected_calibration_error(self) -> float:
        """Count-weighted mean absolute calibration gap (ECE)."""
        if self._total == 0:
            return 0.0
        return sum(abs(b.gap) * b.count for b in self.bins()) / self._total

    def render(self) -> str:
        """ASCII reliability diagram."""
        lines = [f"reliability over {self._total} predictions, "
                 f"Brier {self.brier_score():.4f}, ECE {self.expected_calibration_error():.4f}"]
        for b in self.bins():
            lines.append(
                f"  [{b.lower:4.2f},{b.upper:4.2f})  n={b.count:<7} "
                f"predicted={b.mean_predicted:.3f}  observed={b.observed_rate:.3f}"
            )
        return "\n".join(lines)


def calibrate_simulation(trace, predictor, estimator, tracker=None, n_bins=10):
    """Run a trace while calibrating per-class probabilities online.

    Convenience driver used by the calibration example and tests: it
    replays the reference observation stream
    (:func:`repro.sim.observe.observe_trace`) through the tracker — for
    each branch, asks the tracker for the class's current probability,
    records it into a :class:`ReliabilityReport`, then feeds the outcome
    back.  The tracker never feeds back into the predictor, so this is
    the same as calibrating inside the simulation loop.

    Returns (tracker, report).
    """
    # Imported here: the simulation engine imports this package.
    from repro.sim.observe import observe_trace

    tracker = tracker or ClassRateTracker()
    report = ReliabilityReport(n_bins=n_bins)
    stream = observe_trace(trace, predictor, estimator, backend="reference")
    for prediction_class, mispredicted in zip(stream.classes, stream.mispredicted):
        report.observe(tracker.probability(prediction_class), mispredicted)
        tracker.observe(prediction_class, mispredicted)
    return tracker, report
