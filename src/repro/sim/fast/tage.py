"""Fast TAGE engine: precomputed planes + the batched C kernel.

The reference :class:`~repro.predictors.tage.predictor.TagePredictor`
spends almost all of its per-branch time on index/tag arithmetic: every
branch recomputes M component indices and tags (folded-history xors,
path folding) and advances 3M folded-history registers.  All of that
depends only on the PC and the *resolved* outcome/path histories, so
:mod:`repro.sim.fast.planes` precomputes it for the whole trace with
vectorized NumPy.  What remains genuinely sequential — provider/altpred
selection, counter and useful-counter updates, allocation and the
``USE_ALT_ON_NA`` monitor all feed back through table state — runs in
the C kernel of :mod:`repro.sim.fast.compiled` over flat table arrays.
This module validates cells, packs their parameters and unpacks the
kernel's counts into :class:`~repro.sim.engine.SimulationResult`
objects and observation streams.

Bit-for-bit equivalence with the reference engine (enforced by
``tests/equivalence/`` and ``tests/golden/``) includes every stateful
detail: the XorShift32 allocation stream, the §6 probabilistic-
saturation LFSR draws (count and order), graceful u-counter aging every
``u_reset_period`` branches, and the §5 observation estimator's
BIM-miss window.  The multi-class estimator costs nothing extra to
layer on top: it only *reads* the observation the kernel already has in
hand (provider, counter, bimodal state) — and the same holds for the
§6.2 adaptive saturation controller (a handful of integer counters fed
from the class the kernel just computed, adapting the live ``prob_k``
the LFSR gate reads) and for the per-branch observation streams the
apps layer replays (:func:`observe_tage_fast`).

Cells the kernel cannot hold bit-exactly — fields wider than its int64
slots (:func:`tage_width_reason`) — and every cell when no C compiler could
build the kernel raise
:class:`~repro.sim.backends.FastBackendUnsupported`; the dispatchers
turn that into a warning and a reference-engine run.

The predictor and estimator instances are only read for configuration
and are left in their power-on state, like the rest of the fast backend.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.classes import ConfidenceLevel, confidence_level_of
from repro.confidence.estimator import TageConfidenceEstimator
from repro.predictors.tage.config import AUTOMATON_PROBABILISTIC
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import FastBackendUnsupported
from repro.sim.engine import (
    OBSERVATION_CLASS_CODES,
    SimulationResult,
    class_breakdown,
)
from repro.sim.fast import compiled
from repro.sim.fast.arrays import TraceArrays
from repro.sim.fast.planes import (
    PlaneCache,
    TagePlanes,
    compute_planes,
    plane_geometry,
)

__all__ = [
    "simulate_tage_fast",
    "tage_fast_predictions",
    "observe_tage_fast",
    "controller_unsupported_reason",
    "tage_width_reason",
    "resolve_planes",
]

_MASK32 = 0xFFFFFFFF

#: Widest TAGE field whose kernel value fits an int64: tags live in the
#: int64 tag planes; the counter, useful-counter and ``USE_ALT_ON_NA``
#: bounds and the estimator's ``(1 << ctr_bits) - 1`` are packed into
#: int64 parameter slots.
_MAX_FIELD_BITS = (
    ("tag_bits", 63),
    ("ctr_bits", 63),
    ("u_bits", 63),
    ("use_alt_on_na_bits", 64),
)

#: Class codes the §6.2 controller counts (HIGH = high-conf-bim ∪ Stag),
#: derived from the canonical level mapping so the kernel can never
#: disagree with ``confidence_level_of``.
_HIGH_CLASS_CODES = frozenset(
    code
    for code, prediction_class in enumerate(OBSERVATION_CLASS_CODES)
    if confidence_level_of(prediction_class) is ConfidenceLevel.HIGH
)


def controller_unsupported_reason(predictor, controller) -> str | None:
    """Why the §6.2 controller cannot ride the kernel (None = it can).

    The single predicate behind both the kernel's raise and the
    dispatch/sweep-executor pre-pass in :mod:`repro.sim.fast.engine`,
    so they can never disagree.
    """
    if type(controller) is not AdaptiveSaturationController:
        return (
            f"controller {type(controller).__name__} is not the "
            "(non-subclassed) adaptive saturation controller"
        )
    if type(predictor) is not TagePredictor:
        return (
            "the adaptive saturation controller requires the "
            "(non-subclassed) TAGE predictor"
        )
    if controller.predictor is not predictor:
        return (
            "the adaptive controller steers a different predictor "
            "instance than the one being simulated"
        )
    if predictor.config.automaton != AUTOMATON_PROBABILISTIC:
        return (
            "the adaptive controller requires the probabilistic "
            "saturation automaton"
        )
    return None


def tage_width_reason(config) -> str | None:
    """Why a TAGE config has a field too wide for the kernel (None = it
    fits).  Shared by :func:`_check_tage_cell` and the capability query
    in :mod:`repro.sim.fast.engine`."""
    for field, limit in _MAX_FIELD_BITS:
        bits = getattr(config, field)
        if bits > limit:
            return (
                f"TAGE {field} {bits} exceeds the kernel's int64 width "
                f"({limit} bits)"
            )
    return None


def _check_tage_cell(predictor, estimator, controller=None) -> None:
    """Raise for anything outside the kernel's bit-exact family, or when
    the C kernel is unavailable."""
    if type(predictor) is not TagePredictor:
        raise FastBackendUnsupported(
            f"predictor {getattr(predictor, 'name', type(predictor).__name__)!r} "
            "is not the (non-subclassed) TAGE predictor"
        )
    if estimator is not None and type(estimator) is not TageConfidenceEstimator:
        raise FastBackendUnsupported(
            f"estimator {type(estimator).__name__} is not the (non-subclassed) "
            "TAGE observation estimator"
        )
    if controller is not None:
        reason = controller_unsupported_reason(predictor, controller)
        if reason is not None:
            raise FastBackendUnsupported(reason)
    reason = tage_width_reason(predictor.config)
    if reason is None and estimator is not None:
        reason = tage_width_reason(estimator.predictor.config)
    if reason is not None:
        raise FastBackendUnsupported(reason)
    compiled.load_kernel("tage")


def resolve_planes(
    arrays: TraceArrays,
    config,
    materialization: "PlaneCache | str | Path | None" = None,
    planes: TagePlanes | None = None,
) -> TagePlanes:
    """The index/tag planes for one trace × config, from the fastest source.

    Precedence: an explicitly supplied ``planes`` object (validated
    against the config's geometry), then the materialization cache
    (a :class:`PlaneCache` or a directory for one), then a fresh
    in-memory computation.
    """
    geometry = plane_geometry(config)
    if planes is not None:
        if planes.geometry != geometry or len(planes) != len(arrays):
            raise ValueError("supplied planes do not match this trace/configuration")
        return planes
    if materialization is None:
        return compute_planes(arrays, geometry)
    cache = (
        materialization
        if isinstance(materialization, PlaneCache)
        else PlaneCache(materialization)
    )
    return cache.load_or_compute(arrays, geometry)


def _cell_params(config, estimator_window, max_strength, warmup,
                 initial_k, controller_params):
    """One cell's packed parameter rows for the batched C kernel.

    ``initial_k`` overrides the config's ``sat_prob_log2`` with the
    automaton's *live* value (the §6.2 controller may have moved it
    before the run).  ``controller_params`` — ``(target_mkp, window,
    min_log2, max_log2, relax_fraction)`` — enables the in-kernel
    adaptive feedback loop: high-confidence predictions are counted
    exactly like :meth:`AdaptiveSaturationController.observe` and the
    probability adapts at window boundaries *before* the branch's own
    counter update, so the LFSR draw stream is identical to the
    reference engine's.  Zero seeds default like the reference LFSR and
    allocator do.  Layout: :mod:`repro.sim.fast.compiled` ``IP_*`` /
    ``FP_*`` slots.
    """
    prob_enabled = config.automaton == AUTOMATON_PROBABILISTIC
    if prob_enabled:
        prob_k = config.sat_prob_log2 if initial_k is None else initial_k
    else:
        prob_k = 0
    if controller_params is not None:
        ctrl_target, ctrl_window, ctrl_min, ctrl_max, ctrl_relax = (
            controller_params
        )
    else:
        ctrl_target = 0.0
        ctrl_window = ctrl_min = ctrl_max = 0
        ctrl_relax = 0.0
    iparams = [
        config.log_tagged,
        (1 << (config.ctr_bits - 1)) - 1,
        -(1 << (config.ctr_bits - 1)),
        (1 << config.u_bits) - 1,
        config.u_reset_period,
        1 if config.use_alt_on_na_enabled else 0,
        (1 << (config.use_alt_on_na_bits - 1)) - 1,
        -(1 << (config.use_alt_on_na_bits - 1)),
        1 if config.update_alt_when_u_zero else 0,
        1 if config.allocation_policy == "randomized" else 0,
        1 if prob_enabled else 0,
        prob_k,
        config.lfsr_seed & _MASK32 or 0xDEADBEEF,
        config.alloc_seed & _MASK32 or 0x12345678,
        -1 if estimator_window is None else estimator_window,
        max_strength,
        warmup,
        ctrl_window,
        ctrl_min,
        ctrl_max,
        sum(1 << code for code in _HIGH_CLASS_CODES),
        config.log_bimodal,
    ]
    return iparams, [float(ctrl_target), float(ctrl_relax)]


def _batch_arrays(planes: TagePlanes, n_tagged: int):
    """The shared trace-side inputs of the batched kernel, as
    C-contiguous int64 arrays (no copy when the plane store already is —
    the memmapped ``data`` block satisfies both)."""
    data = planes.data
    takens = np.ascontiguousarray(data[1], dtype=np.int64)
    bim_idx = np.ascontiguousarray(data[2], dtype=np.int64)
    idx_planes = np.ascontiguousarray(data[3:3 + n_tagged], dtype=np.int64)
    tag_planes = np.ascontiguousarray(
        data[3 + n_tagged:3 + 2 * n_tagged], dtype=np.int64
    )
    return takens, bim_idx, idx_planes, tag_planes


def _run_batch(planes: TagePlanes, cells, want_predictions: bool,
               want_classes: bool):
    """Run a batch of independent TAGE cells over one shared plane set.

    ``cells`` is a list of ``(config, estimator_window, max_strength,
    warmup, initial_k, controller_params)`` tuples, every config with
    the plane geometry of ``planes``.  Returns, per cell and in order,
    ``(mispredictions, class prediction counts, class misprediction
    counts, predictions, class codes, final sat-prob log2)`` — one C
    kernel call for the whole batch.

    Raises:
        FastBackendUnsupported: when the C kernel is unavailable.
    """
    kernel = compiled.load_kernel("tage")
    n = len(planes)
    n_tagged = cells[0][0].n_tagged
    takens, bim_idx, idx_planes, tag_planes = _batch_arrays(planes, n_tagged)
    n_cells = len(cells)
    iparams = np.zeros((n_cells, compiled.N_IPARAMS), dtype=np.int64)
    fparams = np.zeros((n_cells, compiled.N_FPARAMS), dtype=np.float64)
    for row, cell in enumerate(cells):
        iparams[row], fparams[row] = _cell_params(*cell)
    counts = np.zeros((n_cells, compiled.N_COUNTS), dtype=np.int64)
    predictions = np.zeros(
        (n_cells, n) if want_predictions else (1, 1), dtype=np.uint8
    )
    classes = np.zeros(
        (n_cells, n) if want_classes else (1, 1), dtype=np.uint8
    )
    kernel(
        takens, bim_idx, idx_planes, tag_planes, iparams, fparams, counts,
        1 if want_predictions else 0, predictions,
        1 if want_classes else 0, classes,
    )
    results = []
    for row in range(n_cells):
        final_k = int(counts[row, compiled.CT_FINAL_PROB_K])
        results.append((
            int(counts[row, compiled.CT_MISPREDICTIONS]),
            [int(v) for v in counts[row, 1:8]],
            [int(v) for v in counts[row, 8:15]],
            [bool(v) for v in predictions[row]] if want_predictions else None,
            [int(v) for v in classes[row]] if want_classes else None,
            final_k if final_k >= 0 else None,
        ))
    return results


def _live_sat_prob_log2(predictor) -> int | None:
    """The automaton's *current* saturation probability (None when the
    automaton is not probabilistic).  The §6.2 controller — or a direct
    assignment to ``saturation_probability_log2`` — may have moved it
    away from the config value, and the reference engine reads the live
    state."""
    if predictor.config.automaton != AUTOMATON_PROBABILISTIC:
        return None
    return predictor.automaton.sat_prob_log2


def _cell_inputs(predictor, estimator, controller, warmup_branches: int):
    """Validate one TAGE cell and distil it to a :func:`_run_batch`
    parameter tuple — the single place the predictor/estimator/
    controller objects are read, shared by the one-cell entry points
    and the lockstep batch runner.

    Raises:
        FastBackendUnsupported: for cells outside the kernel's family.
    """
    if warmup_branches < 0:
        raise ValueError(
            f"warmup_branches must be non-negative, got {warmup_branches}"
        )
    _check_tage_cell(predictor, estimator, controller)

    if estimator is None:
        estimator_window = None
        max_strength = 0
    else:
        estimator_window = estimator.bim_miss_window
        max_strength = (1 << estimator.predictor.config.ctr_bits) - 1

    # The controller only receives observations when an estimator is
    # attached (exactly like the reference loop); without one it never
    # adapts and only reports its starting probability.
    controller_params = None
    if controller is not None and estimator is not None:
        controller_params = (
            controller.target_mkp,
            controller.window,
            controller.min_log2,
            controller.max_log2,
            controller.relax_fraction,
        )

    return (predictor.config, estimator_window, max_strength,
            warmup_branches, _live_sat_prob_log2(predictor),
            controller_params)


def _assemble_result(trace, predictor, estimator, controller,
                     cell_result) -> SimulationResult:
    """One cell's :func:`_run_batch` output as a SimulationResult."""
    mispredictions, pred_counts, misp_counts, _, _, final_k = cell_result

    return SimulationResult(
        trace_name=trace.name,
        predictor_name=predictor.name,
        n_branches=len(trace),
        n_instructions=trace.total_instructions,
        mispredictions=mispredictions,
        storage_bits=predictor.storage_bits(),
        classes=(
            class_breakdown(pred_counts, misp_counts)
            if estimator is not None
            else None
        ),
        final_sat_prob_log2=final_k if controller is not None else None,
    )


def simulate_tage_fast(
    trace,
    predictor,
    estimator=None,
    controller=None,
    warmup_branches: int = 0,
    materialization: "PlaneCache | str | Path | None" = None,
    planes: TagePlanes | None = None,
) -> SimulationResult:
    """Fast-backend equivalent of :func:`repro.sim.engine.simulate` for
    TAGE, with the §5 observation estimator and the §6.2 adaptive
    saturation controller optionally attached.

    Raises:
        FastBackendUnsupported: for subclassed predictor/estimator/
            controller types, a controller steering a different
            predictor, or path histories beyond the packed window width.
    """
    cell = _cell_inputs(predictor, estimator, controller, warmup_branches)
    arrays = TraceArrays.from_trace(trace)
    resolved = resolve_planes(arrays, predictor.config, materialization, planes)
    (cell_result,) = _run_batch(resolved, [cell], False, False)
    return _assemble_result(trace, predictor, estimator, controller, cell_result)


def tage_fast_predictions(
    arrays: TraceArrays,
    predictor,
    materialization: "PlaneCache | str | Path | None" = None,
    planes: TagePlanes | None = None,
) -> np.ndarray:
    """Per-branch TAGE predictions over a whole trace (bool array).

    Feeds the vectorized JRS-family assessment stage of
    :func:`repro.sim.fast.engine.simulate_binary_fast`.
    """
    _check_tage_cell(predictor, None)
    resolved = resolve_planes(arrays, predictor.config, materialization, planes)
    (cell_result,) = _run_batch(
        resolved,
        [(predictor.config, None, 0, 0, _live_sat_prob_log2(predictor), None)],
        True,
        False,
    )
    return np.asarray(cell_result[3], dtype=bool)


def observe_tage_fast(
    trace,
    predictor,
    estimator,
    materialization: "PlaneCache | str | Path | None" = None,
    planes: TagePlanes | None = None,
) -> tuple[list[bool], list[int]]:
    """Per-branch (predictions, observation class codes) of one trace.

    The code encoding is :data:`repro.sim.engine.OBSERVATION_CLASS_CODES`;
    this is the fast producer behind
    :func:`repro.sim.observe.observe_trace` and therefore the apps layer.

    Raises:
        FastBackendUnsupported: for cells outside the kernel's family.
    """
    if estimator is None:
        raise FastBackendUnsupported(
            "observation streams need the TAGE observation estimator"
        )
    _check_tage_cell(predictor, estimator)
    config = predictor.config
    arrays = TraceArrays.from_trace(trace)
    resolved = resolve_planes(arrays, config, materialization, planes)
    (cell_result,) = _run_batch(
        resolved,
        [(config, estimator.bim_miss_window,
          (1 << estimator.predictor.config.ctr_bits) - 1, 0,
          _live_sat_prob_log2(predictor), None)],
        True,
        True,
    )
    return cell_result[3], cell_result[4]
