"""The reference engine: one per-branch stepper and its aggregations.

:func:`step` is the single statement of the per-branch step order this
repo reproduces — predict, classify (multi-class) or assess (binary),
observe, the §6.2 controller, train — over a live
:class:`~repro.sim.backends.Cell`.  Every reference path is a caller:

* :func:`simulate` drives a TAGE predictor while a
  :class:`~repro.confidence.estimator.TageConfidenceEstimator` observes
  every prediction; the result carries both overall accuracy (misp/KI,
  the paper's Table 1 metric) and the per-class / per-level breakdowns
  behind every other table and figure.
* :func:`simulate_binary` aggregates binary high/low estimators (JRS,
  enhanced JRS, perceptron/O-GEHL self-confidence) over any
  :class:`~repro.predictors.base.BranchPredictor`.
* :func:`repro.sim.observe.observe_trace` returns the stepper's output
  as the apps layer's observation stream.
* :meth:`repro.serve.state.TenantSession.observe_batch` steps a
  tenant's live cell, batch by batch.

The two simulate entry points accept ``backend="reference"`` (the
stepper, the semantic ground truth) or ``backend="fast"`` (the
vectorized batch engine in :mod:`repro.sim.fast`, bit-for-bit
equivalent where it applies).  A configuration the fast backend cannot
vectorize falls back to the reference engine with a
:class:`~repro.sim.backends.FastBackendFallbackWarning`.  This module
stays NumPy-free.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field

from repro.sim.backends import (
    Cell,
    DEFAULT_BACKEND,
    FastBackendFallbackWarning,
    FastBackendUnsupported,
    get_backend,
    load_fast_engine,
    validate_backend,
)
from repro.confidence.classes import (
    CLASS_ORDER,
    ConfidenceLevel,
    LEVEL_ORDER,
    PredictionClass,
    confidence_level_of,
)
from repro.confidence.metrics import BinaryConfidenceMetrics, ClassBreakdown, mkp

__all__ = [
    "OBSERVATION_CLASS_CODES",
    "SimulationResult",
    "class_breakdown",
    "mispredicted_of",
    "simulate",
    "simulate_binary",
    "step",
]

#: Class-code encoding shared by the stepper, the fast TAGE kernel and
#: the serving wire: ``OBSERVATION_CLASS_CODES[code]`` is the class of
#: code.
OBSERVATION_CLASS_CODES: tuple[PredictionClass, ...] = (
    PredictionClass.HIGH_CONF_BIM,
    PredictionClass.LOW_CONF_BIM,
    PredictionClass.MEDIUM_CONF_BIM,
    PredictionClass.STAG,
    PredictionClass.NSTAG,
    PredictionClass.NWTAG,
    PredictionClass.WTAG,
)

_CODE_OF_CLASS = {
    prediction_class: code
    for code, prediction_class in enumerate(OBSERVATION_CLASS_CODES)
}

_CODES = range(len(OBSERVATION_CLASS_CODES))

_LEVEL_OF_CODE = tuple(
    confidence_level_of(prediction_class)
    for prediction_class in OBSERVATION_CLASS_CODES
)


def _confidence_step(cell: Cell, codes: list):
    """The per-branch confidence step of ``cell``'s protocol.

    It runs between predict and train and appends the branch's code to
    ``codes``: the observation-class code (after which the §6.2
    controller, when attached, sees the branch's level) for the
    multi-class protocol, the high-confidence flag for the binary one,
    nothing without an estimator.
    """
    estimator = cell.estimator
    if estimator is None:
        return lambda pc, prediction, taken: None
    emit = codes.append
    observe = estimator.observe
    if cell.binary:
        assess = estimator.assess

        def assess_step(pc, prediction, taken):
            emit(assess(pc, prediction))
            observe(pc, prediction, taken)

        return assess_step

    predictor = cell.predictor
    classify = estimator.classify
    code_of = _CODE_OF_CLASS
    level_of = _LEVEL_OF_CODE
    adapt = cell.controller.observe if cell.controller is not None else None

    def observe_step(pc, prediction, taken):
        observation = predictor.last_prediction
        code = code_of[classify(observation)]
        emit(code)
        observe(observation, taken)
        if adapt is not None:
            adapt(level_of[code], prediction != taken)

    return observe_step


def step(cell: Cell, pcs, takens) -> tuple[list[bool], list | None]:
    """Advance a live cell over a run of branches, in the reference order.

    Per branch: predict, classify (or assess), observe, the §6.2
    controller, train.  The protocol is picked once per call from the
    cell; the cell's components are mutated in place, so consecutive
    calls continue where the previous one stopped.  Warm-up is the
    caller's business.

    Returns the per-branch predictions and codes: observation-class
    codes (indices into :data:`OBSERVATION_CLASS_CODES`) for the
    multi-class protocol, high-confidence flags for ``cell.binary``,
    ``None`` when the cell has no estimator.
    """
    predictor = cell.predictor
    predict = predictor.predict
    train = predictor.train
    predictions: list[bool] = []
    emit = predictions.append
    codes: list = []
    confide = _confidence_step(cell, codes)
    for pc, taken_byte in zip(pcs, takens):
        taken = taken_byte == 1
        prediction = predict(pc)
        emit(prediction)
        confide(pc, prediction, taken)
        train(pc, taken)
    return predictions, (codes if cell.estimator is not None else None)


def mispredicted_of(predictions, takens) -> list[bool]:
    """Per-branch misprediction flags of a prediction run."""
    return [
        prediction != (taken == 1)
        for prediction, taken in zip(predictions, takens)
    ]


def class_breakdown(pred_counts, misp_counts) -> ClassBreakdown[PredictionClass]:
    """The per-class breakdown from per-code prediction and misprediction
    counts (indexed like :data:`OBSERVATION_CLASS_CODES`); both engines
    build their ``SimulationResult.classes`` here."""
    classes: ClassBreakdown[PredictionClass] = ClassBreakdown()
    for code, prediction_class in enumerate(OBSERVATION_CLASS_CODES):
        total = pred_counts[code]
        misses = misp_counts[code]
        if total - misses:
            classes.record(prediction_class, mispredicted=False, count=total - misses)
        if misses:
            classes.record(prediction_class, mispredicted=True, count=misses)
    return classes


def _dispatch_fast(entry_point: str, kwargs: dict, binary: bool = False):
    """Try the fast backend; return its result or None after warning.

    The fallback decision is the
    :meth:`~repro.sim.backends.Backend.capability` query — the same
    verdict (and reason wording) the sweep executor's pre-pass and the
    CLI read — so a cell can never be judged differently by different
    dispatchers.  The fallback warning is keyed to the
    unsupported-configuration message so mixed sweeps surface each
    distinct fallback once under the default warning filter.
    """
    capability = get_backend("fast").capability(Cell(
        predictor=kwargs.get("predictor"),
        estimator=kwargs.get("estimator"),
        controller=kwargs.get("controller"),
        binary=binary,
    ))
    if not capability:
        warnings.warn(
            f"fast backend cannot run this configuration "
            f"({capability.reason}); falling back to the reference engine",
            FastBackendFallbackWarning,
            stacklevel=3,
        )
        return None
    try:
        fast = load_fast_engine()
        return getattr(fast, entry_point)(**kwargs)
    except FastBackendUnsupported as unsupported:
        # Safety net: the capability probe and the kernels share their
        # predicates, so this only fires if they somehow drift.
        warnings.warn(
            f"fast backend cannot run this configuration ({unsupported}); "
            "falling back to the reference engine",
            FastBackendFallbackWarning,
            stacklevel=3,
        )
    return None


@dataclass
class SimulationResult:
    """Outcome of one trace × predictor simulation.

    Attributes:
        trace_name / predictor_name: identification.
        n_branches: simulated dynamic branches (after warm-up exclusion
            the counts in ``classes`` may be smaller).
        n_instructions: instructions covered by the trace.
        mispredictions: total mispredicted branches.
        classes: per-:class:`PredictionClass` breakdown (None when no
            estimator was attached).
        storage_bits: predictor storage budget.
    """

    trace_name: str
    predictor_name: str
    n_branches: int
    n_instructions: int
    mispredictions: int
    storage_bits: int
    classes: ClassBreakdown[PredictionClass] | None = None
    final_sat_prob_log2: int | None = None
    _levels: ClassBreakdown[ConfidenceLevel] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def mpki(self) -> float:
        """Mispredictions per kilo-instruction (the paper's accuracy metric)."""
        if self.n_instructions == 0:
            return 0.0
        return 1000.0 * self.mispredictions / self.n_instructions

    @property
    def mkp(self) -> float:
        """Mispredictions per kilo-prediction over the whole trace."""
        return mkp(self.mispredictions, self.n_branches)

    @property
    def accuracy(self) -> float:
        """Fraction of correctly predicted branches."""
        if self.n_branches == 0:
            return 0.0
        return 1.0 - self.mispredictions / self.n_branches

    @property
    def levels(self) -> ClassBreakdown[ConfidenceLevel] | None:
        """The 7-class breakdown projected onto the 3 confidence levels."""
        if self.classes is None:
            return None
        if self._levels is None:
            self._levels = self.classes.grouped(confidence_level_of)
        return self._levels

    def binary_confusion(
        self,
        high_levels: tuple[ConfidenceLevel, ...] = (ConfidenceLevel.HIGH,),
    ) -> BinaryConfidenceMetrics | None:
        """Collapse the 3-level breakdown to the 2×2 high/low confusion.

        The paper's §4 comparison against the binary prior art (JRS,
        self-confidence) treats ``high`` as high confidence and
        ``medium`` ∪ ``low`` as low confidence; pass a different
        ``high_levels`` tuple to move the split.  Returns None when no
        estimator was attached.
        """
        levels = self.levels
        if levels is None:
            return None
        high_predictions = high_mispredictions = 0
        low_predictions = low_mispredictions = 0
        for level in LEVEL_ORDER:
            predictions = levels.predictions(level)
            mispredictions = levels.mispredictions(level)
            if level in high_levels:
                high_predictions += predictions
                high_mispredictions += mispredictions
            else:
                low_predictions += predictions
                low_mispredictions += mispredictions
        return BinaryConfidenceMetrics(
            high_correct=high_predictions - high_mispredictions,
            high_incorrect=high_mispredictions,
            low_correct=low_predictions - low_mispredictions,
            low_incorrect=low_mispredictions,
        )

    def class_mpki_contribution(self, prediction_class: PredictionClass) -> float:
        """This class's share of MPKI (the paper's right-hand figure bars)."""
        if self.classes is None or self.n_instructions == 0:
            return 0.0
        return 1000.0 * self.classes.mispredictions(prediction_class) / self.n_instructions

    def class_table(self) -> str:
        """Human-readable per-class summary."""
        if self.classes is None:
            return f"{self.trace_name}: no confidence estimator attached"
        lines = [
            f"{self.trace_name} ({self.predictor_name}): "
            f"{self.mpki:.2f} misp/KI, {self.mkp:.1f} MKP"
        ]
        for prediction_class in CLASS_ORDER:
            lines.append(
                f"  {prediction_class.value:<16} "
                f"Pcov={self.classes.pcov(prediction_class):6.1%} "
                f"MPcov={self.classes.mpcov(prediction_class):6.1%} "
                f"MPrate={self.classes.mprate(prediction_class):7.1f} MKP"
            )
        levels = self.levels
        assert levels is not None
        for level in LEVEL_ORDER:
            lines.append(
                f"  [{level.value:<6}]         "
                f"Pcov={levels.pcov(level):6.1%} "
                f"MPcov={levels.mpcov(level):6.1%} "
                f"MPrate={levels.mprate(level):7.1f} MKP"
            )
        return "\n".join(lines)


def simulate(
    trace,
    predictor,
    estimator=None,
    controller=None,
    warmup_branches: int = 0,
    backend: str = DEFAULT_BACKEND,
    materialization_dir=None,
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` with optional confidence observation.

    Args:
        trace: a :class:`repro.traces.types.Trace`.
        predictor: a :class:`repro.predictors.tage.TagePredictor` when an
            estimator is attached (the estimator reads
            ``predictor.last_prediction``); any
            :class:`~repro.predictors.base.BranchPredictor` otherwise.
        estimator: optional
            :class:`~repro.confidence.estimator.TageConfidenceEstimator`.
        controller: optional
            :class:`~repro.confidence.adaptive.AdaptiveSaturationController`;
            receives every (level, mispredicted) pair.
        warmup_branches: leading branches excluded from the *class*
            accounting (the predictor still trains; overall accuracy
            still covers the whole trace, like the paper's runs).
        backend: ``"reference"`` or ``"fast"``; the fast backend is
            bit-for-bit equivalent where supported — including TAGE
            cells with the §6.2 adaptive ``controller`` attached — and
            falls back here (with a
            :class:`FastBackendFallbackWarning`) where not.  Note the
            fast path leaves ``predictor`` (and the controller)
            untrained/unmoved.
        materialization_dir: fast backend only — directory (or
            :class:`~repro.sim.fast.planes.PlaneCache`) where
            precomputed TAGE index/tag planes are memmapped and shared
            across runs; None computes them in memory.
    """
    validate_backend(backend)
    if warmup_branches < 0:
        raise ValueError(f"warmup_branches must be non-negative, got {warmup_branches}")
    if backend == "fast":
        outcome = _dispatch_fast("simulate_fast", dict(
            trace=trace,
            predictor=predictor,
            estimator=estimator,
            controller=controller,
            warmup_branches=warmup_branches,
            materialization_dir=materialization_dir,
        ))
        if outcome is not None:
            return outcome
    predictions, codes = step(
        Cell(predictor=predictor, estimator=estimator, controller=controller),
        trace.pcs,
        trace.takens,
    )
    mispredicted = mispredicted_of(predictions, trace.takens)
    classes = None
    if codes is not None:
        counts = Counter(zip(codes[warmup_branches:], mispredicted[warmup_branches:]))
        classes = class_breakdown(
            [counts[code, False] + counts[code, True] for code in _CODES],
            [counts[code, True] for code in _CODES],
        )

    final_k = None
    if controller is not None:
        final_k = controller.sat_prob_log2
    return SimulationResult(
        trace_name=trace.name,
        predictor_name=getattr(predictor, "name", type(predictor).__name__),
        n_branches=len(trace),
        n_instructions=trace.total_instructions,
        mispredictions=sum(mispredicted),
        storage_bits=predictor.storage_bits(),
        classes=classes,
        final_sat_prob_log2=final_k,
    )


def simulate_binary(
    trace,
    predictor,
    estimator,
    warmup_branches: int = 0,
    backend: str = DEFAULT_BACKEND,
    materialization_dir=None,
) -> tuple[BinaryConfidenceMetrics, SimulationResult]:
    """Run a binary high/low confidence estimator over a trace.

    The estimator must implement ``assess(pc, prediction) -> bool`` (True
    = high confidence) and ``observe(pc, prediction, taken)``; JRS,
    enhanced JRS and the self-confidence wrappers all do.

    ``backend="fast"`` runs every in-family predictor × JRS-family cell
    and the perceptron/O-GEHL × self-confidence cells bit-exactly and
    falls back here (with a warning) for the rest; the fast path leaves
    the predictor and estimator untrained.  ``materialization_dir``
    shares precomputed TAGE planes, as in :func:`simulate`.

    Returns the pooled 2×2 confusion and the accuracy result.
    """
    validate_backend(backend)
    if warmup_branches < 0:
        raise ValueError(f"warmup_branches must be non-negative, got {warmup_branches}")
    if backend == "fast":
        outcome = _dispatch_fast("simulate_binary_fast", dict(
            trace=trace,
            predictor=predictor,
            estimator=estimator,
            warmup_branches=warmup_branches,
            materialization_dir=materialization_dir,
        ), binary=True)
        if outcome is not None:
            return outcome
    predictions, highs = step(
        Cell(predictor=predictor, estimator=estimator, binary=True),
        trace.pcs,
        trace.takens,
    )
    mispredicted = mispredicted_of(predictions, trace.takens)
    counts = Counter(zip(highs[warmup_branches:], mispredicted[warmup_branches:]))
    metrics = BinaryConfidenceMetrics(
        high_correct=counts[True, False],
        high_incorrect=counts[True, True],
        low_correct=counts[False, False],
        low_incorrect=counts[False, True],
    )
    result = SimulationResult(
        trace_name=trace.name,
        predictor_name=getattr(predictor, "name", type(predictor).__name__),
        n_branches=len(trace),
        n_instructions=trace.total_instructions,
        mispredictions=sum(mispredicted),
        storage_bits=predictor.storage_bits(),
    )
    return metrics, result
