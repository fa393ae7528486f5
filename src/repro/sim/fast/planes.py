"""Precomputed TAGE index/tag planes and their on-disk materialization.

The whole reason TAGE admits a fast backend at all: every tagged
component's table **index and tag depend only on the branch PC and the
resolved outcome/path histories — never on predictions**.  The folded
history registers are linear over GF(2) in the live history bits (a bit
of age ``a`` contributes at position ``a % compressed_length``; see
:meth:`repro.common.history.FoldedHistory.fold_window`), so the folded
value *every* branch of a trace will observe can be computed up front
with vectorized NumPy passes — one xor-accumulate per history age —
instead of per-branch shift-register updates.  What is left for the
sequential kernel (:mod:`repro.sim.fast.tage`) is only the genuinely
prediction-dependent part: provider selection, counter/u updates and
allocation.

A :class:`TagePlanes` object packs, per trace × geometry, one int64 row
each for the PCs, the outcomes, the bimodal indices and the per-component
index/tag planes.  :class:`PlaneCache` materializes those rows to a
single ``.npy`` file next to the sweep result cache and serves repeat
requests as read-only memmaps, so a 20-job sweep grid (or a second sweep
run) computes each (trace, history-geometry) plane set exactly once —
configurations that differ only in counter automaton, counter widths or
seeds share the same planes (see
:meth:`repro.predictors.tage.config.TageConfig.component_geometries`).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.common.bitops import mask
from repro.sim.backends import FastBackendUnsupported, default_planes_dir
from repro.sim.fast.arrays import (
    MAX_WINDOW_BITS,
    TraceArrays,
    fold_windows,
    history_windows,
)

__all__ = [
    "PLANES_VERSION",
    "MAX_PATH_HISTORY_BITS",
    "TagePlanes",
    "plane_geometry",
    "compute_planes",
    "PlaneCache",
    "default_planes_dir",
]

#: Bump on any change to the plane layout or the hash arithmetic, so a
#: stale on-disk materialization can never be served.
PLANES_VERSION = 1

#: Longest path-history register whose packed per-branch window fits an
#: int64 lane (one shared bound for every window-based kernel — see
#: :data:`repro.sim.fast.arrays.MAX_WINDOW_BITS`).
MAX_PATH_HISTORY_BITS = MAX_WINDOW_BITS


def plane_geometry(config) -> tuple:
    """The hashable geometry key of a :class:`TageConfig`'s planes.

    Only the parameters the index/tag hashes read participate: the
    bimodal index width and the per-component
    :meth:`~repro.predictors.tage.config.TageConfig.component_geometries`
    tuples.  Counter widths, automaton choice and seeds deliberately do
    not, so ablations over them share materializations.
    """
    return (config.log_bimodal, config.component_geometries())


@dataclass(frozen=True)
class TagePlanes:
    """Packed per-branch lookup rows of one trace × geometry.

    ``data`` rows, all int64, each of trace length ``n``:

    ====================  =================================================
    row                   contents
    ====================  =================================================
    ``0``                 branch PCs
    ``1``                 resolved outcomes (0/1)
    ``2``                 bimodal table indices
    ``3 .. 2+M``          tagged component indices (T1..TM)
    ``3+M .. 2+2M``       tagged component tags (T1..TM)
    ====================  =================================================
    """

    geometry: tuple
    data: np.ndarray

    @property
    def n_tagged(self) -> int:
        return len(self.geometry[1])

    def __len__(self) -> int:
        return self.data.shape[1]

    @property
    def pcs(self) -> np.ndarray:
        return self.data[0]

    @property
    def takens(self) -> np.ndarray:
        return self.data[1]

    @property
    def bimodal_indices(self) -> np.ndarray:
        return self.data[2]

    def index_plane(self, table_number: int) -> np.ndarray:
        """Index row of tagged component ``table_number`` (1-based)."""
        if not 1 <= table_number <= self.n_tagged:
            raise IndexError(f"no tagged component T{table_number}")
        return self.data[2 + table_number]

    def tag_plane(self, table_number: int) -> np.ndarray:
        """Tag row of tagged component ``table_number`` (1-based)."""
        if not 1 <= table_number <= self.n_tagged:
            raise IndexError(f"no tagged component T{table_number}")
        return self.data[2 + self.n_tagged + table_number]

    def trace_arrays(self, name: str) -> TraceArrays:
        """Rebuild the :class:`TraceArrays` view this plane set was cut
        from (PCs and outcomes are materialized alongside the planes)."""
        return TraceArrays(
            name=name,
            pcs=np.asarray(self.pcs),
            takens=np.asarray(self.takens, dtype=np.uint8),
        )


def _folded_series(
    outcomes: np.ndarray, length: int, widths: tuple[int, ...]
) -> list[np.ndarray]:
    """Folded-history value seen *before* each branch, one array per width.

    ``result[w][t]`` equals ``FoldedHistory.fold_window(window_t, length,
    widths[w])`` where ``window_t`` packs the ``length`` outcomes before
    branch ``t`` (newest in bit 0) — i.e. exactly the register value the
    reference predictor reads at that point.  One xor-accumulate pass per
    live history age; the three foldings of a component share the passes.
    """
    n = len(outcomes)
    series = [np.zeros(n, dtype=np.int64) for _ in widths]
    for age in range(min(length, n)):
        source = outcomes[: n - age - 1]
        for folded, width in zip(series, widths):
            folded[age + 1 :] ^= source << (age % width)
    return series


def compute_planes(arrays: TraceArrays, geometry: tuple) -> TagePlanes:
    """Materialize every TAGE table lookup of a whole trace.

    Raises:
        FastBackendUnsupported: when a component's path window exceeds
            the packed int64 width (the reference engine has no bound).
    """
    log_bimodal, components = geometry
    n = len(arrays)
    n_tagged = len(components)
    outcomes = arrays.takens.astype(np.int64)
    pcs = arrays.pcs

    data = np.empty((3 + 2 * n_tagged, n), dtype=np.int64)
    data[0] = pcs
    data[1] = outcomes
    pc_part = pcs >> 2
    data[2] = pc_part & mask(log_bimodal)

    max_path_bits = max((path_bits for *_, path_bits in components), default=1)
    if max_path_bits > MAX_PATH_HISTORY_BITS:
        raise FastBackendUnsupported(
            f"TAGE path history of {max_path_bits} bits exceeds the "
            f"vectorized window width ({MAX_PATH_HISTORY_BITS} bits)"
        )
    path_windows = history_windows(pcs & 1, max_path_bits)

    for slot, (table_number, log_entries, tag_bits, length, path_bits) in enumerate(
        components
    ):
        folded_index, folded_tag_a, folded_tag_b = _folded_series(
            outcomes, length, (log_entries, tag_bits, max(tag_bits - 1, 1))
        )
        path_part = fold_windows(path_windows & mask(path_bits), path_bits, log_entries)
        data[3 + slot] = (
            pc_part
            ^ (pc_part >> (table_number + 1))
            ^ folded_index
            ^ path_part
        ) & mask(log_entries)
        data[3 + n_tagged + slot] = (
            pc_part ^ folded_tag_a ^ (folded_tag_b << 1)
        ) & mask(tag_bits)
    return TagePlanes(geometry=geometry, data=data)


def _row_bits(geometry: tuple) -> np.ndarray:
    """Bit width of each lookup row (``data[2:]``) of a plane set: the
    bimodal index, then the T1..TM indices, then the T1..TM tags."""
    log_bimodal, components = geometry
    return np.array(
        [log_bimodal]
        + [log_entries for _, log_entries, *_ in components]
        + [tag_bits for _, _, tag_bits, *_ in components],
        dtype=np.int64,
    )


class PlaneCache:
    """Memmap-backed store of computed planes, one ``.npy`` per key.

    The key digests the plane format version, the package version, the
    trace identity (name, length and a content digest of the PC/outcome
    columns) and the geometry, so behaviour changes and trace-generator
    changes both invalidate naturally.  Writes are atomic (temp file +
    ``os.replace``): concurrent sweep workers race benignly — the first
    writer wins and everyone else memmaps its file.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_planes_dir()
        self.hits = 0
        self.misses = 0

    def key(self, arrays: TraceArrays, geometry: tuple) -> str:
        content = hashlib.sha256()
        content.update(np.ascontiguousarray(arrays.pcs).tobytes())
        content.update(np.ascontiguousarray(arrays.takens).tobytes())
        from repro import __version__  # local import: repro imports sim

        identity = repr((
            PLANES_VERSION,
            __version__,
            arrays.name,
            len(arrays),
            content.hexdigest(),
            geometry,
        ))
        return hashlib.sha256(identity.encode()).hexdigest()[:32]

    def path(self, arrays: TraceArrays, geometry: tuple) -> Path:
        return self.root / f"{self.key(arrays, geometry)}.npy"

    def load(self, arrays: TraceArrays, geometry: tuple) -> TagePlanes | None:
        """The memmapped materialization, or None on miss/corruption.

        Besides shape and dtype, the content the kernels trust is
        checked: the outcome row must equal ``arrays.takens`` and every
        bimodal, index and tag row must lie in ``[0, 2**bits)`` for the
        geometry.  The C kernel indexes its tables with these rows
        unchecked, so a damaged file would otherwise give a silently
        wrong number; rejected here, it is recomputed and atomically
        rewritten by :meth:`load_or_compute`.
        """
        path = self.path(arrays, geometry)
        n_tagged = len(geometry[1])
        try:
            data = np.load(path, mmap_mode="r")
        except (OSError, ValueError, EOFError):
            # EOFError: np.load on a zero-byte/truncated file (e.g. a
            # crash between creat and the data hitting disk).
            return None
        if data.shape != (3 + 2 * n_tagged, len(arrays)) or data.dtype != np.int64:
            return None
        if not np.array_equal(data[1], arrays.takens):
            return None
        # A value outside [0, 2**bits) - negatives included - sets a bit
        # at or above ``bits``, and so does the OR of its row.
        if np.any(np.bitwise_or.reduce(data[2:], axis=1) >> _row_bits(geometry)):
            return None
        return TagePlanes(geometry=geometry, data=data)

    def store(self, arrays: TraceArrays, geometry: tuple, planes: TagePlanes) -> None:
        """Atomically persist a computed plane set."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(arrays, geometry)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".npy.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, planes.data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def load_or_compute(self, arrays: TraceArrays, geometry: tuple) -> TagePlanes:
        """Serve from disk when possible, else compute and persist."""
        planes = self.load(arrays, geometry)
        if planes is not None:
            self.hits += 1
            return planes
        planes = compute_planes(arrays, geometry)
        self.store(arrays, geometry, planes)
        self.misses += 1
        return planes

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.npy"))
