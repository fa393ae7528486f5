"""Fast-backend entry points over pre-materialized trace arrays.

:func:`simulate_fast` and :func:`simulate_binary_fast` are drop-in,
bit-for-bit equivalents of :func:`repro.sim.engine.simulate` and
:func:`repro.sim.engine.simulate_binary` for the whole model zoo:

* predictors — :class:`~repro.predictors.bimodal.BimodalPredictor`,
  :class:`~repro.predictors.gshare.GsharePredictor` and
  :class:`~repro.predictors.local.LocalHistoryPredictor` (fully
  vectorized counter scans), :class:`~repro.predictors.tage.TagePredictor`
  (precomputed index/tag planes feeding the batched C kernel through
  :mod:`repro.sim.fast.tage`) and the sum-based
  :class:`~repro.predictors.perceptron.PerceptronPredictor` /
  :class:`~repro.predictors.ogehl.OgehlPredictor`
  (plane-fed dot-product kernels in :mod:`repro.sim.fast.gehl`);
* estimators — the binary :class:`~repro.confidence.jrs.JrsEstimator` /
  :class:`~repro.confidence.jrs.EnhancedJrsEstimator` (vectorized), the
  storage-free
  :class:`~repro.confidence.self_confidence.SelfConfidenceEstimator`
  (read off the sum-based kernels' outputs) and the multi-class
  :class:`~repro.confidence.estimator.TageConfidenceEstimator`
  (read directly off the TAGE kernel's observations);
* the §6.2 :class:`~repro.confidence.adaptive.AdaptiveSaturationController`
  feedback loop, folded into the TAGE kernel with an identical
  decision/LFSR stream.

Why this is exact: for every supported component the table *indices,
tags and input signs* depend only on the branch PC and the resolved
outcome/path histories — never on predictions — so they are
precomputable from the trace alone.  Bimodal/gshare/local/JRS counter
sequences are then clamp-add scans (:mod:`repro.sim.fast.scan`); the
TAGE provider/update logic and the perceptron/O-GEHL weight state are
prediction-history-dependent and run sequentially, but over precomputed
planes and packed table state (the TAGE and O-GEHL loops in C).
Exact-type subclass checks, >62-bit history windows, fields wider than
the int64 kernel slots and — for TAGE and O-GEHL — a missing C compiler
are the only exclusions; those raise
:class:`FastBackendUnsupported` and the dispatching wrappers in
:mod:`repro.sim.engine` fall back to the reference loop with a
:class:`FastBackendFallbackWarning`.

The fast path never calls ``predict``/``train`` — the predictor and
estimator instances are only read for their configuration and are left
in their power-on state.
"""

from __future__ import annotations

import numpy as np

from repro.common.bitops import mask
from repro.confidence.estimator import TageConfidenceEstimator
from repro.confidence.jrs import EnhancedJrsEstimator, JrsEstimator
from repro.confidence.metrics import BinaryConfidenceMetrics
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.local import LocalHistoryPredictor
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import FastBackendUnsupported
from repro.sim.engine import SimulationResult
from repro.sim.fast.arrays import (
    MAX_WINDOW_BITS,
    TraceArrays,
    fold_windows,
    history_windows,
    segmented_history_windows,
)
from repro.sim.fast.gehl import (
    MAX_PERCEPTRON_WEIGHT_BITS,
    ogehl_fast_run,
    ogehl_width_reason,
    perceptron_fast_run,
)
from repro.sim.fast.planes import MAX_PATH_HISTORY_BITS
from repro.sim.fast.scan import (
    DEFAULT_CHUNK_SIZE,
    resetting_transforms,
    saturating_transforms,
    scanned_counters,
)
from repro.sim.fast.tage import (
    controller_unsupported_reason,
    observe_tage_fast,
    simulate_tage_fast,
    tage_fast_predictions,
    tage_width_reason,
)

__all__ = [
    "simulate_fast",
    "simulate_binary_fast",
    "observe_tage_fast",
    "vectorized_predictions",
    "vectorized_assessments",
    "cell_capability",
]

#: The sum-based predictors whose kernels also emit self-confidence.
_SUM_PREDICTORS = (PerceptronPredictor, OgehlPredictor)


def _predictor_reason(predictor) -> str | None:
    """Why this predictor cannot run on the fast backend (None = it can)."""
    if type(predictor) is TagePredictor:
        # The kernel's real bound is the per-component effective path
        # window min(path_history_bits, history_length) — the same
        # quantity compute_planes packs into an int64 lane — not the
        # raw register width.
        effective_path_bits = max(
            path_bits for *_, path_bits in predictor.config.component_geometries()
        )
        if effective_path_bits > MAX_PATH_HISTORY_BITS:
            return (
                f"TAGE path_history_bits window of {effective_path_bits} bits "
                f"exceeds the vectorized window width ({MAX_PATH_HISTORY_BITS} bits)"
            )
        return tage_width_reason(predictor.config)
    if type(predictor) in (GsharePredictor, PerceptronPredictor, LocalHistoryPredictor):
        if predictor.history_length > _MAX_VECTOR_HISTORY:
            return (
                f"{predictor.name} history_length {predictor.history_length} "
                f"exceeds the vectorized window width ({_MAX_VECTOR_HISTORY} bits)"
            )
        if (
            type(predictor) is PerceptronPredictor
            and predictor.weight_bits > MAX_PERCEPTRON_WEIGHT_BITS
        ):
            return (
                f"perceptron weight_bits {predictor.weight_bits} exceeds the "
                f"int64 weight-table width ({MAX_PERCEPTRON_WEIGHT_BITS} bits)"
            )
        return None
    if type(predictor) is OgehlPredictor:
        return ogehl_width_reason(predictor)
    if type(predictor) is BimodalPredictor:
        return None
    return (
        f"predictor {getattr(predictor, 'name', type(predictor).__name__)!r} "
        "is not vectorizable (supported: bimodal, gshare, local, tage, "
        "perceptron, ogehl)"
    )


def _accuracy_reason(predictor, estimator=None, controller=None) -> str | None:
    """Why :func:`simulate_fast` would refuse this cell (None = it runs)."""
    if controller is not None:
        reason = controller_unsupported_reason(predictor, controller)
        if reason is not None:
            return reason
    reason = _predictor_reason(predictor)
    if reason is not None:
        return reason
    if estimator is None:
        return None
    if type(predictor) is not TagePredictor:
        return (
            "the multi-class TAGE observation estimator requires the "
            "(non-subclassed) TAGE predictor"
        )
    if type(estimator) is not TageConfidenceEstimator:
        return (
            f"estimator {type(estimator).__name__} is not the (non-subclassed) "
            "TAGE observation estimator"
        )
    return tage_width_reason(estimator.predictor.config)


def _binary_reason(predictor, estimator) -> str | None:
    """Why :func:`simulate_binary_fast` would refuse this cell."""
    reason = _predictor_reason(predictor)
    if reason is not None:
        return reason
    if type(estimator) is SelfConfidenceEstimator:
        if type(predictor) not in _SUM_PREDICTORS:
            return (
                "self-confidence estimation requires a (non-subclassed) "
                "sum-based predictor (perceptron, ogehl)"
            )
        if estimator.predictor is not predictor:
            return (
                "the self-confidence estimator observes a different "
                "predictor instance than the one being simulated"
            )
        return None
    if type(estimator) not in (JrsEstimator, EnhancedJrsEstimator):
        return (
            f"estimator {type(estimator).__name__} is not vectorizable "
            "(supported: JrsEstimator, EnhancedJrsEstimator, "
            "SelfConfidenceEstimator)"
        )
    return _jrs_reason(estimator)


def _jrs_reason(estimator) -> str | None:
    """Why a JRS-family table cannot be scanned (None = it can).

    Shared by :func:`_binary_reason` and
    :func:`vectorized_assessments` so the dispatch pre-pass and the
    kernel can never disagree about the int64 bounds.
    """
    if estimator.history_length > _MAX_VECTOR_HISTORY:
        return (
            f"JRS history_length {estimator.history_length} exceeds the "
            f"vectorized window width ({_MAX_VECTOR_HISTORY} bits)"
        )
    if estimator.counter_bits > _MAX_VECTOR_HISTORY:
        return (
            f"JRS counter_bits {estimator.counter_bits} exceeds the int64 "
            f"counter width ({_MAX_VECTOR_HISTORY} bits)"
        )
    return None


def cell_capability(cell) -> "Capability":
    """The fast backend's :class:`~repro.sim.backends.Capability` for a
    :class:`~repro.sim.backends.Cell`.

    This is the single support predicate behind
    ``get_backend("fast").capability(cell)`` — the dispatching entry
    points, the sweep executor's warn-once fallback pass, the serve
    layer and the CLI all read the same verdict (and the same ``reason``
    wording) from here.  TAGE and O-GEHL cells run on the C kernel, so
    they are refused — naming the remedy — when it could not be built.
    Beyond the verdict it reports *how* the cell would run: whether the
    C kernel serves it (and its provider), and whether it can join a
    multi-cell lockstep batch.
    """
    from repro.sim.backends import Capability
    from repro.sim.fast import compiled

    if cell.binary:
        if cell.controller is not None:
            reason = (
                "the adaptive saturation controller does not apply to "
                "the binary confidence protocol"
            )
        else:
            reason = _binary_reason(cell.predictor, cell.estimator)
    else:
        reason = _accuracy_reason(
            cell.predictor, estimator=cell.estimator, controller=cell.controller
        )
    # The sequential TAGE and O-GEHL loops run on the C kernel; the
    # other predictors are vectorized NumPy end to end.  Lockstep
    # batching fuses accuracy-protocol TAGE cells sharing one plane
    # geometry.
    uses_kernel = type(cell.predictor) in (TagePredictor, OgehlPredictor)
    if reason is None and uses_kernel:
        reason = compiled.provider_unavailable_reason()
    if reason is not None:
        return Capability(
            backend="fast", supported=False, reason=reason,
            fallback="reference",
        )
    return Capability(
        backend="fast",
        supported=True,
        compiled=uses_kernel,
        compiled_provider=compiled.COMPILED_PROVIDER if uses_kernel else None,
        lockstep=not cell.binary and type(cell.predictor) is TagePredictor,
    )


def _bimodal_predictions(
    predictor: BimodalPredictor, arrays: TraceArrays, chunk_size: int
) -> np.ndarray:
    indices = (arrays.pcs >> 2) & mask(predictor.log_entries)
    max_value = (1 << predictor.counter_bits) - 1
    weak_not_taken = (1 << (predictor.counter_bits - 1)) - 1
    b, lo, hi = saturating_transforms(arrays.taken_bool, max_value)
    counters = scanned_counters(
        1 << predictor.log_entries, weak_not_taken + 1,
        indices, b, lo, hi, chunk_size,
    )
    return counters > weak_not_taken


#: Longest history whose packed window fits an int64 lane (the reference
#: engine uses Python bigints and has no such bound).
_MAX_VECTOR_HISTORY = MAX_WINDOW_BITS


def _gshare_predictions(
    predictor: GsharePredictor, arrays: TraceArrays, chunk_size: int
) -> np.ndarray:
    windows = history_windows(arrays.takens, predictor.history_length)
    folded = fold_windows(windows, predictor.history_length, predictor.log_entries)
    indices = ((arrays.pcs >> 2) ^ folded) & mask(predictor.log_entries)
    b, lo, hi = saturating_transforms(arrays.taken_bool, 3)
    counters = scanned_counters(
        1 << predictor.log_entries, 2, indices, b, lo, hi, chunk_size
    )
    return counters >= 2


def _local_predictions(
    predictor: LocalHistoryPredictor, arrays: TraceArrays, chunk_size: int
) -> np.ndarray:
    """Two-level local predictions as two chained vectorized stages.

    The level-1 local histories are per-PC-entry shift registers of
    resolved outcomes — prediction-independent, so every branch's
    pre-access register value is a segmented history window.  The
    level-2 PHT is then an ordinary saturating-counter scan over the
    precomputed pattern indices.
    """
    pc_part = arrays.pcs >> 2
    history_indices = pc_part & mask(predictor.log_histories)
    local = segmented_history_windows(
        history_indices, arrays.takens, predictor.history_length
    )
    if predictor.shared_pht:
        pht_indices = local & mask(predictor.log_pht)
    else:
        pht_indices = (local ^ (pc_part << 2)) & mask(predictor.log_pht)
    b, lo, hi = saturating_transforms(arrays.taken_bool, 3)
    counters = scanned_counters(
        1 << predictor.log_pht, 2, pht_indices, b, lo, hi, chunk_size
    )
    return counters >= 2


def _sum_predictor_run(predictor, arrays: TraceArrays) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch (predictions, self-confidence) of a sum-based predictor."""
    if type(predictor) is PerceptronPredictor:
        return perceptron_fast_run(arrays, predictor)
    return ogehl_fast_run(arrays, predictor)


def vectorized_predictions(
    predictor,
    arrays: TraceArrays,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    materialization=None,
) -> np.ndarray:
    """Per-branch predictions of a supported predictor over a whole trace.

    TAGE predictions come from the plane-fed sequential kernel
    (:mod:`repro.sim.fast.tage`), perceptron/O-GEHL from the dot-product
    kernels (:mod:`repro.sim.fast.gehl`); bimodal/gshare/local from the
    counter scans.

    Raises:
        FastBackendUnsupported: for any predictor outside the fast family
            (subclasses of supported types, oversized history windows).
    """
    reason = _predictor_reason(predictor)
    if reason is not None:
        raise FastBackendUnsupported(reason)
    if type(predictor) is BimodalPredictor:
        return _bimodal_predictions(predictor, arrays, chunk_size)
    if type(predictor) is GsharePredictor:
        return _gshare_predictions(predictor, arrays, chunk_size)
    if type(predictor) is LocalHistoryPredictor:
        return _local_predictions(predictor, arrays, chunk_size)
    if type(predictor) in _SUM_PREDICTORS:
        predictions, _ = _sum_predictor_run(predictor, arrays)
        return predictions
    return tage_fast_predictions(arrays, predictor, materialization)


def vectorized_assessments(
    estimator,
    arrays: TraceArrays,
    predictions: np.ndarray,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Per-branch high-confidence assessments of a JRS-family estimator.

    Raises:
        FastBackendUnsupported: for estimators outside the JRS family
            (the self-confidence flags come from the sum-based kernels
            instead — see :func:`simulate_binary_fast`).
    """
    if type(estimator) not in (JrsEstimator, EnhancedJrsEstimator):
        raise FastBackendUnsupported(
            f"estimator {type(estimator).__name__} is not vectorizable "
            "(supported: JrsEstimator, EnhancedJrsEstimator)"
        )
    reason = _jrs_reason(estimator)
    if reason is not None:
        raise FastBackendUnsupported(reason)
    windows = history_windows(arrays.takens, estimator.history_length)
    value = (arrays.pcs >> 2) ^ fold_windows(
        windows, estimator.history_length, estimator.log_entries
    )
    if estimator.include_prediction:
        value = (value << 1) | predictions.astype(np.int64)
    indices = value & mask(estimator.log_entries)
    correct = predictions == arrays.taken_bool
    max_value = (1 << estimator.counter_bits) - 1
    b, lo, hi = resetting_transforms(correct, max_value)
    counters = scanned_counters(
        1 << estimator.log_entries, 0, indices, b, lo, hi, chunk_size
    )
    return counters >= estimator.threshold


def _result(trace, predictor, mispredictions: int) -> SimulationResult:
    return SimulationResult(
        trace_name=trace.name,
        predictor_name=getattr(predictor, "name", type(predictor).__name__),
        n_branches=len(trace),
        n_instructions=trace.total_instructions,
        mispredictions=mispredictions,
        storage_bits=predictor.storage_bits(),
    )


def simulate_fast(
    trace,
    predictor,
    estimator=None,
    controller=None,
    warmup_branches: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    materialization_dir=None,
) -> SimulationResult:
    """Fast-backend equivalent of :func:`repro.sim.engine.simulate`.

    Bimodal/gshare/local accuracy runs use the vectorized counter
    scans, perceptron/O-GEHL the dot-product kernels; TAGE cells — with
    or without the multi-class observation estimator and the §6.2
    adaptive controller — run on the plane-fed sequential kernel,
    optionally sharing precomputed planes through ``materialization_dir``
    (a directory or a :class:`~repro.sim.fast.planes.PlaneCache`).

    Raises:
        FastBackendUnsupported: when the predictor/estimator/controller
            combination is outside the fast family.
    """
    if warmup_branches < 0:
        raise ValueError(f"warmup_branches must be non-negative, got {warmup_branches}")
    reason = _accuracy_reason(predictor, estimator=estimator, controller=controller)
    if reason is not None:
        raise FastBackendUnsupported(reason)
    if type(predictor) is TagePredictor:
        return simulate_tage_fast(
            trace,
            predictor,
            estimator=estimator,
            controller=controller,
            warmup_branches=warmup_branches,
            materialization=materialization_dir,
        )
    arrays = TraceArrays.from_trace(trace)
    predictions = vectorized_predictions(predictor, arrays, chunk_size)
    mispredictions = int(np.count_nonzero(predictions != arrays.taken_bool))
    return _result(trace, predictor, mispredictions)


def simulate_binary_fast(
    trace,
    predictor,
    estimator,
    warmup_branches: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    materialization_dir=None,
) -> tuple[BinaryConfidenceMetrics, SimulationResult]:
    """Fast-backend equivalent of :func:`repro.sim.engine.simulate_binary`.

    JRS-family assessments are vectorized counter scans over any
    supported predictor's prediction stream; self-confidence assessments
    come straight out of the perceptron/O-GEHL kernels.

    Raises:
        FastBackendUnsupported: when the predictor or the estimator is
            outside the fast family.
    """
    if warmup_branches < 0:
        raise ValueError(f"warmup_branches must be non-negative, got {warmup_branches}")
    reason = _binary_reason(predictor, estimator)
    if reason is not None:
        raise FastBackendUnsupported(reason)
    arrays = TraceArrays.from_trace(trace)
    if type(estimator) is SelfConfidenceEstimator:
        predictions, high = _sum_predictor_run(predictor, arrays)
    else:
        predictions = vectorized_predictions(
            predictor, arrays, chunk_size, materialization=materialization_dir
        )
        high = vectorized_assessments(estimator, arrays, predictions, chunk_size)
    correct = predictions == arrays.taken_bool
    mispredictions = int(np.count_nonzero(~correct))

    warm_high = high[warmup_branches:]
    warm_correct = correct[warmup_branches:]
    metrics = BinaryConfidenceMetrics(
        high_correct=int(np.count_nonzero(warm_high & warm_correct)),
        high_incorrect=int(np.count_nonzero(warm_high & ~warm_correct)),
        low_correct=int(np.count_nonzero(~warm_high & warm_correct)),
        low_incorrect=int(np.count_nonzero(~warm_high & ~warm_correct)),
    )
    return metrics, _result(trace, predictor, mispredictions)
