"""Fast kernels for the sum-based predictors (perceptron, O-GEHL).

Both predictors share the structural property the whole fast backend is
built on: their table *indices* and per-branch history *signs* depend
only on the PC and the resolved global history — never on predictions —
so everything except the weight state itself is precomputable for the
whole trace:

* **perceptron** — the PC index and the ±1 input vector of every branch
  are materialized up front (``history_windows`` bit-unpacked into a
  dense sign matrix), and because each branch touches exactly one
  weight row, the per-row access sequences are independent processes
  the kernel advances in *lockstep*: one batched gather / dot / masked
  clipped-add per access depth instead of one Python iteration per
  branch.
* **O-GEHL** — the per-table geometric folded-history indices are
  precomputed with the same GF(2) closed form the TAGE planes use
  (:func:`_folded_series` logic); the sequential remainder — an
  M-entry table read/sum and the adaptive-threshold (TC) bookkeeping —
  runs in the C kernel of :mod:`repro.sim.fast.compiled`.

The *self-confidence* estimators of §2.2 ride along for free: they are
pure functions of the prediction sum (``|sum|`` versus the — for O-GEHL
dynamically adapted — threshold) the kernel has in hand anyway, so each
kernel returns the per-branch high-confidence flags next to the
predictions.

Bit-for-bit equivalence with the reference predictors (including the
exact saturation/clipping arithmetic, the O-GEHL TC threshold walk and
the assess-between-predict-and-train ordering of
:class:`~repro.confidence.self_confidence.SelfConfidenceEstimator`) is
enforced by ``tests/equivalence/test_gehl_differential.py``.  Like the
rest of the fast backend, the predictor instances are only read for
configuration and stay in their power-on state.

That kernel keeps counters and the prediction sum in int64, so wider
counters (:func:`ogehl_width_reason`) and a missing C compiler raise
:class:`~repro.sim.backends.FastBackendUnsupported`.
"""

from __future__ import annotations

import numpy as np

from repro.common.bitops import mask
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.sim.backends import FastBackendUnsupported
from repro.sim.fast import compiled
from repro.sim.fast.arrays import MAX_WINDOW_BITS, TraceArrays, history_windows
from repro.sim.fast.planes import _folded_series

__all__ = ["perceptron_fast_run", "ogehl_fast_run", "ogehl_width_reason"]

#: Longest perceptron history whose packed window fits an int64 lane.
MAX_PERCEPTRON_HISTORY = MAX_WINDOW_BITS

#: Widest perceptron weight the int64 weight table can hold with the
#: batched dot provably overflow-free: |total| <= (h+1) * 2**(wb-1)
#: with h <= 62 needs wb - 1 + log2(63) < 63.
MAX_PERCEPTRON_WEIGHT_BITS = 56


def perceptron_fast_run(
    arrays: TraceArrays, predictor: PerceptronPredictor
) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch (predictions, self-confidence flags) of a perceptron.

    The vectorization axis is *across table rows*: branch ``t`` reads
    and trains only the weight row its PC selects, and the input signs
    are precomputed, so the per-row access sequences are completely
    independent processes.  The kernel therefore walks them in
    lockstep — step ``k`` handles the ``k``-th access of every (still
    active) row as one batched gather / dot / masked clipped-add —
    which needs ``max accesses per row`` NumPy steps instead of one
    Python iteration per branch, and degrades gracefully (never below
    per-branch work) for traces dominated by one hot row.

    Raises:
        FastBackendUnsupported: for subclassed predictors or histories
            beyond the packed window width.
    """
    if type(predictor) is not PerceptronPredictor:
        raise FastBackendUnsupported(
            f"predictor {getattr(predictor, 'name', type(predictor).__name__)!r} "
            "is not the (non-subclassed) perceptron predictor"
        )
    h = predictor.history_length
    if h > MAX_PERCEPTRON_HISTORY:
        raise FastBackendUnsupported(
            f"perceptron history_length {h} exceeds the vectorized window "
            f"width ({MAX_PERCEPTRON_HISTORY} bits)"
        )
    if predictor.weight_bits > MAX_PERCEPTRON_WEIGHT_BITS:
        raise FastBackendUnsupported(
            f"perceptron weight_bits {predictor.weight_bits} exceeds the "
            f"int64 weight-table width ({MAX_PERCEPTRON_WEIGHT_BITS} bits)"
        )
    n = len(arrays)
    predictions = np.empty(n, dtype=bool)
    high = np.empty(n, dtype=bool)
    if n == 0:
        return predictions, high
    indices = ((arrays.pcs >> 2) & mask(predictor.log_entries)).astype(np.int64)
    windows = history_windows(arrays.takens, h)
    # Sign matrix with a constant bias column: row t is [1, x_1 .. x_h]
    # with x_i = +1/-1 for the taken/not-taken history bit of age i-1,
    # so `inputs[t] @ weights[index]` is the full perceptron output.
    # The matrix lives for the whole run (each lockstep batch gathers
    # arbitrary rows of it); int8 keeps that at n*(h+1) bytes — 1/8 of
    # the int64 weights it is multiplied against (the batched dot/add
    # promote, and MAX_PERCEPTRON_WEIGHT_BITS keeps the promoted sums
    # overflow-free) — built one age column at a time so the *build*
    # phase adds only O(n) transients on top.
    inputs = np.empty((n, h + 1), dtype=np.int8)
    inputs[:, 0] = 1
    for age in range(h):
        inputs[:, age + 1] = (((windows >> age) & 1) * 2 - 1).astype(np.int8)

    # Group the trace positions by weight row (stable: trace order is
    # preserved within a row, which is the only order that matters).
    order = np.argsort(indices, kind="stable")
    grouped = indices[order]
    starts = np.flatnonzero(
        np.concatenate(([True], grouped[1:] != grouped[:-1]))
    )
    counts = np.diff(np.concatenate((starts, [n])))
    group_rows = grouped[starts]

    weights = np.zeros((1 << predictor.log_entries, h + 1), dtype=np.int64)
    weight_min = np.int64(predictor._weight_min)
    weight_max = np.int64(predictor._weight_max)
    threshold = predictor.threshold
    taken_bool = arrays.taken_bool

    for k in range(int(counts.max())):
        active = counts > k
        positions = order[starts[active] + k]
        rows = group_rows[active]
        signs = inputs[positions]
        gathered = weights[rows]
        totals = np.einsum("ij,ij->i", signs, gathered)
        batch_predictions = totals >= 0
        taken = taken_bool[positions]
        magnitudes = np.abs(totals)
        predictions[positions] = batch_predictions
        high[positions] = magnitudes > threshold
        train = (batch_predictions != taken) | (magnitudes <= threshold)
        if train.any():
            direction = np.where(taken[train], np.int64(1), np.int64(-1))
            weights[rows[train]] = np.clip(
                gathered[train] + direction[:, None] * signs[train],
                weight_min,
                weight_max,
            )
    return predictions, high


def ogehl_width_reason(predictor: OgehlPredictor) -> str | None:
    """Why an O-GEHL predictor's counters overflow the kernel (None =
    they fit).

    The kernel's prediction sum ``2 * sum(counters) + n_tables`` spans
    ``±n_tables * (2**counter_bits - 1)`` and its doubled partial sum
    reaches ``-n_tables * 2**counter_bits``; both fit an int64 exactly
    when ``n_tables * 2**counter_bits <= 2**63``, which also bounds the
    counters themselves.
    """
    if predictor.n_tables << predictor.counter_bits > 1 << 63:
        return (
            f"O-GEHL counter_bits {predictor.counter_bits} with "
            f"{predictor.n_tables} tables overflows the kernel's int64 "
            "prediction sum"
        )
    return None


def _ogehl_index_planes(
    arrays: TraceArrays, predictor: OgehlPredictor
) -> np.ndarray:
    """Every table index of every branch, precomputed trace-wide as one
    C-contiguous int64 ``(n_tables, n)`` plane block.

    Table 0 is PC-indexed; tables 1..M-1 mix the PC with the folded
    geometric history exactly like ``OgehlPredictor._indices`` — and the
    folded register value each branch observes is the GF(2) closed form
    (a live history bit of age ``a`` lands at ``a % log_entries``),
    evaluated with one xor-accumulate pass per history age.
    """
    log_entries = predictor.log_entries
    index_mask = mask(log_entries)
    pc_part = arrays.pcs >> 2
    outcomes = arrays.takens.astype(np.int64)
    planes = np.empty((predictor.n_tables, len(arrays)), dtype=np.int64)
    planes[0] = pc_part & index_mask
    for table, length in enumerate(predictor.history_lengths, start=1):
        (folded,) = _folded_series(outcomes, length, (log_entries,))
        planes[table] = (pc_part ^ (pc_part >> (table + 1)) ^ folded) & index_mask
    return planes


def ogehl_fast_run(
    arrays: TraceArrays, predictor: OgehlPredictor
) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch (predictions, self-confidence flags) of O-GEHL.

    The power-on threshold starts the TC walk (``predictor.threshold``
    is live state the reference run mutates), and each branch's
    confidence is judged against the pre-update threshold: assess
    happens between predict and train.

    Raises:
        FastBackendUnsupported: for subclassed predictors, counters too
            wide for the int64 kernel, or no C kernel.
    """
    if type(predictor) is not OgehlPredictor:
        raise FastBackendUnsupported(
            f"predictor {getattr(predictor, 'name', type(predictor).__name__)!r} "
            "is not the (non-subclassed) O-GEHL predictor"
        )
    reason = ogehl_width_reason(predictor)
    if reason is not None:
        raise FastBackendUnsupported(reason)
    kernel = compiled.load_kernel("ogehl")
    n = len(arrays)
    planes = _ogehl_index_planes(arrays, predictor)
    predictions = np.zeros(n, dtype=np.uint8)
    high = np.zeros(n, dtype=np.uint8)
    kernel(np.ascontiguousarray(arrays.takens, dtype=np.int64), planes,
           predictor._ctr_max, predictor._ctr_min, predictor.log_entries,
           predictions, high)
    return predictions.astype(bool), high.astype(bool)
