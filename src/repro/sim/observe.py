"""Per-branch observation streams for the application models.

The apps layer (fetch gating, SMT fetch arbitration, multipath
execution) consumes the same per-branch signal the confidence tables
aggregate: *(prediction, mispredicted, observation class)* for every
branch of a trace, in trace order.  :func:`observe_trace` produces that
stream on either simulation backend — the output of the reference
stepper :func:`repro.sim.engine.step`, or the fast TAGE kernel (which
already has every value in hand and only needs to emit it) — so the
policy models themselves become pure replay passes with no predictor in
the loop.

The stream encodes observation classes as small integer codes
(:data:`OBSERVATION_CLASS_CODES`, the same encoding the fast kernel
uses internally) and maps them to :class:`PredictionClass` /
:class:`ConfidenceLevel` lazily, keeping this module NumPy-free like
the rest of the reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.confidence.classes import ConfidenceLevel, PredictionClass
from repro.sim.backends import DEFAULT_BACKEND, Cell, validate_backend
from repro.sim.engine import (
    OBSERVATION_CLASS_CODES,
    _LEVEL_OF_CODE,
    _dispatch_fast,
    mispredicted_of,
    step,
)

__all__ = ["OBSERVATION_CLASS_CODES", "ObservationStream", "observe_trace"]


@dataclass
class ObservationStream:
    """One trace's per-branch confidence observations, in trace order.

    Attributes:
        trace_name: identification.
        predictions: per-branch predicted directions.
        mispredicted: per-branch misprediction flags.
        class_codes: per-branch observation class codes (indices into
            :data:`OBSERVATION_CLASS_CODES`).
    """

    trace_name: str
    predictions: list[bool]
    mispredicted: list[bool]
    class_codes: list[int]
    _levels: list[ConfidenceLevel] | None = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.class_codes)

    @property
    def levels(self) -> list[ConfidenceLevel]:
        """Per-branch §6.1 confidence levels (computed once, cached)."""
        if self._levels is None:
            level_of = _LEVEL_OF_CODE
            self._levels = [level_of[code] for code in self.class_codes]
        return self._levels

    @property
    def classes(self) -> list[PredictionClass]:
        """Per-branch §5 observation classes."""
        class_of = OBSERVATION_CLASS_CODES
        return [class_of[code] for code in self.class_codes]

    @property
    def mispredictions(self) -> int:
        return sum(self.mispredicted)


def observe_trace(
    trace,
    predictor,
    estimator,
    backend: str = DEFAULT_BACKEND,
    materialization_dir=None,
) -> ObservationStream:
    """The per-branch observation stream of one trace × predictor ×
    estimator cell, on either backend.

    ``backend="reference"`` is :func:`repro.sim.engine.step`'s output
    (predict, classify, observe, train per branch — exactly what a
    confidence-directed front end would have seen).  ``backend="fast"``
    reads the stream off the fast TAGE kernel (bit-for-bit identical;
    the predictor and estimator instances stay in their power-on state)
    and falls back to the stepper with a
    :class:`FastBackendFallbackWarning` for cells outside the fast
    family, mirroring :func:`repro.sim.engine.simulate`.
    """
    validate_backend(backend)
    outcome = None
    if backend == "fast":
        outcome = _dispatch_fast("observe_tage_fast", dict(
            trace=trace,
            predictor=predictor,
            estimator=estimator,
            materialization=materialization_dir,
        ))
    if outcome is None:
        outcome = step(Cell(predictor=predictor, estimator=estimator),
                       trace.pcs, trace.takens)
    predictions, codes = outcome
    return ObservationStream(
        trace_name=trace.name,
        predictions=predictions,
        mispredicted=mispredicted_of(predictions, trace.takens),
        class_codes=codes,
    )
