"""Trace lookup, predictor presets and the one cell builder.

Thin composition layer between the trace registry, the predictor presets
and the simulation engine.  :func:`build_cell` is the single place a
(predictor, estimator, controller) :class:`~repro.sim.backends.Cell` is
built from its specs: sweep jobs, lockstep batches, capability probes,
serving sessions and :func:`run_trace` all go through it, so a cell is
constructed identically wherever it runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.confidence.jrs import EnhancedJrsEstimator, JrsEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.local import LocalHistoryPredictor
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.tage.config import (
    AUTOMATON_PROBABILISTIC,
    AUTOMATON_STANDARD,
    TageConfig,
)
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import DEFAULT_BACKEND, Cell
from repro.sim.engine import SimulationResult, simulate
from repro.traces.sources import is_source_name, resolve_trace
from repro.traces.suites import (
    CBP1_TRACE_NAMES,
    CBP2_TRACE_NAMES,
    cbp1_trace,
    cbp2_trace,
    default_trace_length,
)
from repro.traces.types import Trace

if TYPE_CHECKING:
    from repro.sweep.spec import EstimatorSpec, PredictorSpec

__all__ = [
    "build_cell",
    "build_predictor",
    "get_trace",
    "run_trace",
    "SUITES",
    "SIZES",
]

SUITES = ("CBP1", "CBP2")
SIZES = ("16K", "64K", "256K")


def get_trace(name: str, n_branches: int | None = None) -> Trace:
    """Resolve any registered trace name to a trace.

    Covers both CBP suites, every registered
    :class:`~repro.traces.sources.TraceSource` (the scenario zoo) and
    ``file:<path>`` RTRC replay.  This is the picklable-friendly lookup
    the sweep workers use: a job ships only the *name*, and each worker
    process regenerates (and memoizes) the deterministic trace locally
    instead of pickling branch columns across the pipe.
    """
    if name in CBP1_TRACE_NAMES:
        return cbp1_trace(name, n_branches)
    if name in CBP2_TRACE_NAMES:
        return cbp2_trace(name, n_branches)
    if is_source_name(name):
        return resolve_trace(
            name, n_branches if n_branches is not None else default_trace_length()
        )
    raise KeyError(f"unknown trace name {name!r}")


def build_predictor(
    size: str = "64K",
    automaton: str = AUTOMATON_STANDARD,
    sat_prob_log2: int = 7,
    **overrides,
) -> TagePredictor:
    """Instantiate a preset TAGE predictor.

    Args:
        size: ``"16K"``, ``"64K"`` or ``"256K"`` (paper Table 1).
        automaton: ``"standard"`` or ``"probabilistic"`` (§6).
        sat_prob_log2: saturation probability (probabilistic automaton
            only); 7 → 1/128.
        overrides: any :class:`TageConfig` field override.
    """
    config = TageConfig.preset(
        size,
        automaton=automaton,
        sat_prob_log2=sat_prob_log2,
        **overrides,
    )
    return TagePredictor(config)


_BASELINE_PREDICTORS = {
    "gshare": GsharePredictor,
    "bimodal": BimodalPredictor,
    "perceptron": PerceptronPredictor,
    "ogehl": OgehlPredictor,
    "local": LocalHistoryPredictor,
}

_BINARY_ESTIMATORS = {
    "jrs": JrsEstimator,
    "ejrs": EnhancedJrsEstimator,
}


def build_cell(
    predictor: PredictorSpec,
    estimator: EstimatorSpec,
    adaptive: bool = False,
    target_mkp: float = 10.0,
    seed: int | None = None,
) -> Cell:
    """Instantiate one (predictor, estimator, controller) cell.

    ``adaptive`` attaches the §6.2 controller (``tage`` estimator only)
    and forces the probabilistic automaton it steers.  A non-None
    ``seed`` re-seeds the TAGE deterministic random sources (LFSR +
    allocation xorshift); the baseline predictors hold no random state.
    Binary estimators (``jrs``/``ejrs``/``self``) yield a
    ``binary=True`` cell.
    """
    params = dict(predictor.params)
    if predictor.kind == "tage":
        automaton = AUTOMATON_PROBABILISTIC if adaptive else predictor.automaton
        if seed is not None:
            # Two independent 32-bit streams from one seed; the constants
            # are arbitrary odd masks keeping the seeds nonzero.
            params.setdefault("lfsr_seed", (seed ^ 0xA5A5A5A5) or 1)
            params.setdefault("alloc_seed", (seed ^ 0x3C6EF373) or 1)
        model = build_predictor(
            predictor.size,
            automaton=automaton,
            sat_prob_log2=predictor.sat_prob_log2,
            **params,
        )
    else:
        model = _BASELINE_PREDICTORS[predictor.kind](**params)

    estimator_params = dict(estimator.params)
    if estimator.kind == "tage":
        return Cell(
            predictor=model,
            estimator=TageConfidenceEstimator(model, **estimator_params),
            controller=(
                AdaptiveSaturationController(model, target_mkp=target_mkp)
                if adaptive
                else None
            ),
        )
    if estimator.kind == "self":
        binary_estimator = SelfConfidenceEstimator(model, **estimator_params)
    else:
        binary_estimator = _BINARY_ESTIMATORS[estimator.kind](**estimator_params)
    return Cell(predictor=model, estimator=binary_estimator, binary=True)


def run_trace(
    trace: Trace,
    size: str = "64K",
    automaton: str = AUTOMATON_STANDARD,
    sat_prob_log2: int = 7,
    bim_miss_window: int = 8,
    adaptive: bool = False,
    target_mkp: float = 10.0,
    warmup_branches: int = 0,
    backend: str = DEFAULT_BACKEND,
    materialization_dir=None,
    **config_overrides,
) -> SimulationResult:
    """Simulate one trace on a fresh preset predictor with confidence
    observation attached.

    ``adaptive=True`` additionally attaches the §6.2 controller (and
    forces the probabilistic automaton, which the controller requires).

    ``backend`` and ``materialization_dir`` are threaded through to
    :func:`repro.sim.engine.simulate`.  ``backend="fast"`` runs every
    TAGE preset/automaton with the observation estimator — including
    ``adaptive=True``, whose §6.2 feedback loop is folded into the
    kernel with an identical decision/LFSR stream — on the plane-fed
    kernel.
    """
    # Imported here: the sweep package imports this module.
    from repro.sweep.spec import EstimatorSpec, PredictorSpec

    cell = build_cell(
        PredictorSpec.of(
            "tage",
            size=size,
            automaton=automaton,
            sat_prob_log2=sat_prob_log2,
            **config_overrides,
        ),
        EstimatorSpec.of("tage", bim_miss_window=bim_miss_window),
        adaptive=adaptive,
        target_mkp=target_mkp,
    )
    return simulate(
        trace,
        cell.predictor,
        estimator=cell.estimator,
        controller=cell.controller,
        warmup_branches=warmup_branches,
        backend=backend,
        materialization_dir=materialization_dir,
    )
