"""Fast TAGE engine: precomputed planes + a lean sequential kernel.

The reference :class:`~repro.predictors.tage.predictor.TagePredictor`
spends almost all of its per-branch time on index/tag arithmetic: every
branch recomputes M component indices and tags (folded-history xors,
path folding) and advances 3M folded-history registers.  All of that
depends only on the PC and the *resolved* outcome/path histories, so
:mod:`repro.sim.fast.planes` precomputes it for the whole trace with
vectorized NumPy.  What remains genuinely sequential — provider/altpred
selection, counter and useful-counter updates, allocation and the
``USE_ALT_ON_NA`` monitor all feed back through table state — runs here
as one tight Python loop over packed structure-of-arrays table state
(per-component ``ctr``/``tag``/``u`` int lists) with zero per-step
object allocation, attribute access or dict lookups.

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

The predictor and estimator instances are only read for configuration
and are left in their power-on state, like the rest of the fast backend.

The sequential loop below is the ``pure`` side of the ``tage-batch``
parity group: the region between its ``repro: parity-begin`` and
``repro: parity-end`` comments must change in lockstep with its C
translation in :mod:`repro.sim.fast.compiled`.  Both sides record the
same group-wide fingerprint, so ``repro lint`` (rule RPR004) fails when
one side changes until the author has visited the other, re-run the
differential suites, and stamped the new fingerprint printed in the
finding — see :mod:`repro.analysis.rules.parity` for the convention.
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
    "resolve_planes",
]

_MASK32 = 0xFFFFFFFF
_LFSR_TAPS = 0xA3000000

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


def _check_tage_cell(predictor, estimator, controller=None) -> None:
    """Raise for anything outside the kernel's bit-exact family."""
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


# repro: parity-begin tage-batch/pure fingerprint=8b663460
def _kernel(
    config,
    planes: TagePlanes,
    estimator_window: int | None,
    max_strength: int,
    warmup: int,
    want_predictions: bool,
    initial_k: int | None = None,
    controller_params: tuple | None = None,
    want_classes: bool = False,
):
    """One pass over the trace; returns (mispredictions, class counts,
    predictions, class codes, final sat-prob log2).  Everything below is
    deliberately inlined — this loop is the fast backend's only
    remaining per-branch cost.

    ``initial_k`` overrides the config's ``sat_prob_log2`` with the
    automaton's *live* value (the §6.2 controller may have moved it
    before the run).  ``controller_params`` — ``(target_mkp, window,
    min_log2, max_log2, relax_fraction)`` — enables the in-kernel
    adaptive feedback loop: high-confidence predictions are counted
    exactly like :meth:`AdaptiveSaturationController.observe` and the
    probability adapts at window boundaries *before* the branch's own
    counter update, so the LFSR draw stream is identical to the
    reference engine's."""
    n_tagged = config.n_tagged
    takens = planes.takens.tolist()
    bim_idx = planes.bimodal_indices.tolist()
    idx_planes = [planes.index_plane(i + 1).tolist() for i in range(n_tagged)]
    tag_planes = [planes.tag_plane(i + 1).tolist() for i in range(n_tagged)]

    size = 1 << config.log_tagged
    ctr_tables = [[0] * size for _ in range(n_tagged)]
    tag_tables = [[0] * size for _ in range(n_tagged)]
    u_tables = [[0] * size for _ in range(n_tagged)]
    bimodal = [2] * (1 << config.log_bimodal)

    cmax = (1 << (config.ctr_bits - 1)) - 1
    cmin = -(1 << (config.ctr_bits - 1))
    u_max = (1 << config.u_bits) - 1
    u_reset = config.u_reset_period
    use_alt_enabled = config.use_alt_on_na_enabled
    use_alt_max = (1 << (config.use_alt_on_na_bits - 1)) - 1
    use_alt_min = -(1 << (config.use_alt_on_na_bits - 1))
    use_alt = 0
    update_alt = config.update_alt_when_u_zero
    randomized = config.allocation_policy == "randomized"

    if config.automaton == AUTOMATON_PROBABILISTIC:
        prob_k = config.sat_prob_log2 if initial_k is None else initial_k
    else:
        prob_k = None
    lfsr_state = config.lfsr_seed & _MASK32 or 0xDEADBEEF
    alloc_state = config.alloc_seed & _MASK32 or 0x12345678

    def update_ctr(ctrs: list, index: int, taken: int) -> None:
        """Saturating counter step, standard or §6 probabilistic.

        Replicates the reference LFSR draw exactly: ``sat_prob_log2``
        Galois steps, consumed only on the transition into saturation
        (and none at all when the probability is 1)."""
        nonlocal lfsr_state
        c = ctrs[index]
        if taken:
            if c >= cmax:
                return
            if prob_k is not None and c == cmax - 1 and prob_k:
                state = lfsr_state
                any_set = 0
                for _ in range(prob_k):
                    lsb = state & 1
                    state >>= 1
                    if lsb:
                        state ^= _LFSR_TAPS
                        any_set = 1
                lfsr_state = state
                if any_set:
                    return
            ctrs[index] = c + 1
        else:
            if c <= cmin:
                return
            if prob_k is not None and c == cmin + 1 and prob_k:
                state = lfsr_state
                any_set = 0
                for _ in range(prob_k):
                    lsb = state & 1
                    state >>= 1
                    if lsb:
                        state ^= _LFSR_TAPS
                        any_set = 1
                lfsr_state = state
                if any_set:
                    return
            ctrs[index] = c - 1

    mispredictions = 0
    pred_counts = [0] * 7
    misp_counts = [0] * 7
    since_miss = estimator_window if estimator_window is not None else 0
    predictions: list | None = [] if want_predictions else None
    class_codes: list | None = [] if want_classes else None

    if controller_params is not None:
        ctrl_target, ctrl_window, ctrl_min, ctrl_max, ctrl_relax = controller_params
    else:
        ctrl_window = 0
    ctrl_high = 0
    ctrl_misp = 0
    high_codes = _HIGH_CLASS_CODES

    for t in range(len(takens)):
        taken = takens[t]

        # -- provider scan: longest hitting component, then the next one.
        provider = 0
        provider_idx = 0
        alt = 0
        alt_idx = 0
        i = n_tagged - 1
        while i >= 0:
            idx = idx_planes[i][t]
            if tag_tables[i][idx] == tag_planes[i][t]:
                if provider:
                    alt = i + 1
                    alt_idx = idx
                    break
                provider = i + 1
                provider_idx = idx
            i -= 1

        bidx = bim_idx[t]
        bctr = bimodal[bidx]

        # -- prediction (§3.1): provider sign, unless USE_ALT_ON_NA
        #    redirects a weak provider to the alternate prediction.
        if provider:
            ctr = ctr_tables[provider - 1][provider_idx]
            provider_pred = ctr >= 0
            weak = -1 <= ctr <= 0
            altpred = (
                ctr_tables[alt - 1][alt_idx] >= 0 if alt else bctr >= 2
            )
            if weak and use_alt_enabled and use_alt >= 0:
                prediction = altpred
            else:
                prediction = provider_pred
        else:
            ctr = bctr
            prediction = provider_pred = altpred = bctr >= 2
            weak = False

        mispredicted = prediction != taken
        if mispredicted:
            mispredictions += 1
        if predictions is not None:
            predictions.append(prediction)

        # -- §5 observation: classify from the pre-update table outputs.
        if estimator_window is not None:
            if provider:
                strength = 2 * ctr + 1
                if strength < 0:
                    strength = -strength
                if strength == 1:
                    cls = 6  # Wtag
                elif strength == max_strength:
                    cls = 3  # Stag
                elif strength == max_strength - 2:
                    cls = 4  # NStag
                else:
                    cls = 5  # NWtag
            elif bctr == 1 or bctr == 2:
                cls = 1  # low-conf-bim
            elif since_miss < estimator_window:
                cls = 2  # medium-conf-bim
            else:
                cls = 0  # high-conf-bim
            if class_codes is not None:
                class_codes.append(cls)
            if t >= warmup:
                pred_counts[cls] += 1
                if mispredicted:
                    misp_counts[cls] += 1
            if not provider:
                if mispredicted:
                    since_miss = 0
                elif since_miss < estimator_window:
                    since_miss += 1

            # -- §6.2 adaptive feedback, mirroring the reference order:
            #    the controller observes (and may move the saturation
            #    probability) *before* this branch's counter update.
            if ctrl_window and cls in high_codes:
                ctrl_high += 1
                if mispredicted:
                    ctrl_misp += 1
                if ctrl_high >= ctrl_window:
                    rate_mkp = 1000.0 * ctrl_misp / ctrl_high
                    if rate_mkp > ctrl_target and prob_k < ctrl_max:
                        prob_k += 1
                    elif rate_mkp < ctrl_target * ctrl_relax and prob_k > ctrl_min:
                        prob_k -= 1
                    ctrl_high = 0
                    ctrl_misp = 0

        # -- update (§3.2/§3.3), in the reference engine's exact order.
        allocate = mispredicted and provider < n_tagged
        if provider and weak:
            if provider_pred == taken:
                allocate = False
            if provider_pred != altpred:
                if altpred == taken:
                    if use_alt < use_alt_max:
                        use_alt += 1
                elif use_alt > use_alt_min:
                    use_alt -= 1

        if allocate:
            start = provider + 1
            if randomized:
                x = alloc_state
                while start < n_tagged:
                    x ^= (x << 13) & _MASK32
                    x ^= x >> 17
                    x ^= (x << 5) & _MASK32
                    if not x & 1:
                        break
                    start += 1
                alloc_state = x
            allocated = False
            for j in range(start - 1, n_tagged):
                idx = idx_planes[j][t]
                if u_tables[j][idx] == 0:
                    ctr_tables[j][idx] = 0 if taken else -1
                    tag_tables[j][idx] = tag_planes[j][t]
                    allocated = True
                    break
            if not allocated:
                for j in range(start - 1, n_tagged):
                    idx = idx_planes[j][t]
                    if u_tables[j][idx] > 0:
                        u_tables[j][idx] -= 1

        if provider:
            p = provider - 1
            update_ctr(ctr_tables[p], provider_idx, taken)
            pu = u_tables[p]
            if update_alt and pu[provider_idx] == 0:
                if alt:
                    update_ctr(ctr_tables[alt - 1], alt_idx, taken)
                elif taken:
                    if bimodal[bidx] < 3:
                        bimodal[bidx] += 1
                elif bimodal[bidx] > 0:
                    bimodal[bidx] -= 1
            if provider_pred != altpred:
                uv = pu[provider_idx]
                if provider_pred == taken:
                    if uv < u_max:
                        pu[provider_idx] = uv + 1
                elif uv > 0:
                    pu[provider_idx] = uv - 1
        elif taken:
            if bctr < 3:
                bimodal[bidx] = bctr + 1
        elif bctr > 0:
            bimodal[bidx] = bctr - 1

        # -- graceful periodic aging of the u counters.
        if (t + 1) % u_reset == 0:
            for u in u_tables:
                u[:] = [value >> 1 for value in u]

    return mispredictions, pred_counts, misp_counts, predictions, class_codes, prob_k
# repro: parity-end tage-batch/pure


def _cell_params(config, estimator_window, max_strength, warmup,
                 initial_k, controller_params):
    """One cell's packed parameter rows for the batched compiled kernel.

    Performs exactly the config reads the top of :func:`_kernel` does
    (including the seed masking/defaulting and the live ``initial_k``
    override) so the packed row and the pure kernel can never disagree.
    Layout: :mod:`repro.sim.fast.compiled` ``IP_*`` / ``FP_*`` slots.
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
    the plane geometry of ``planes``.  Returns the :func:`_kernel`
    result tuple per cell, in order.

    In pure mode this is a per-cell :func:`_kernel` loop; with the C
    kernel the whole batch is one kernel call.
    """
    kernel = compiled.resolve_tage_kernel()
    if kernel is None:
        return [
            _kernel(
                config, planes, estimator_window, max_strength, warmup,
                want_predictions, initial_k=initial_k,
                controller_params=controller_params,
                want_classes=want_classes,
            )
            for (config, estimator_window, max_strength, warmup,
                 initial_k, controller_params) in cells
        ]
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
