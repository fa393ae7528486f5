"""TAGE index/tag plane precomputation and its memmap materialization.

The planes module claims that per-branch component indices and tags are
pure functions of the trace; these tests hold the vectorized closed form
to the reference predictor's own incremental hash pipeline, and exercise
the on-disk :class:`PlaneCache` (round trip, memmap serving, corruption
tolerance, geometry sharing across automaton/seed ablations).
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.predictors.tage.config import TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import FastBackendUnsupported
from repro.sim.engine import simulate
from repro.sim.fast import simulate_tage_fast
from repro.sim.fast.arrays import TraceArrays
from repro.sim.fast.planes import PlaneCache, compute_planes, plane_geometry


def reference_planes(config: TageConfig, trace):
    """Indices/tags via the reference predictor's own hash pipeline.

    Drives a real :class:`TagePredictor` through the trace and harvests
    the per-branch ``indices``/``tags`` snapshots from the observation
    record — the ground truth the vectorized planes must reproduce.
    """
    predictor = TagePredictor(config)
    indices = [[] for _ in range(config.n_tagged)]
    tags = [[] for _ in range(config.n_tagged)]
    for pc, taken_byte in zip(trace.pcs, trace.takens):
        predictor.predict(pc)
        last = predictor.last_prediction
        for i in range(config.n_tagged):
            indices[i].append(last.indices[i + 1])
            tags[i].append(last.tags[i + 1])
        predictor.train(pc, taken_byte == 1)
    return indices, tags


@pytest.mark.parametrize("config", [
    TageConfig.small(),
    TageConfig.medium(),
    TageConfig.small(path_history_bits=5),
    TageConfig.small(min_history=1, max_history=200, n_tagged=3),
], ids=["16K", "64K", "short-path", "long-history"])
def test_planes_match_reference_hash_pipeline(tiny_trace, config):
    arrays = TraceArrays.from_trace(tiny_trace)
    planes = compute_planes(arrays, plane_geometry(config))
    ref_indices, ref_tags = reference_planes(config, tiny_trace)
    for i in range(config.n_tagged):
        assert planes.index_plane(i + 1).tolist() == ref_indices[i]
        assert planes.tag_plane(i + 1).tolist() == ref_tags[i]


def test_planes_carry_trace_arrays(tiny_trace):
    arrays = TraceArrays.from_trace(tiny_trace)
    planes = compute_planes(arrays, plane_geometry(TageConfig.small()))
    rebuilt = planes.trace_arrays(tiny_trace.name)
    assert rebuilt.name == tiny_trace.name
    np.testing.assert_array_equal(rebuilt.pcs, arrays.pcs)
    np.testing.assert_array_equal(rebuilt.takens, arrays.takens)
    bim_mask = (1 << TageConfig.small().log_bimodal) - 1
    np.testing.assert_array_equal(
        planes.bimodal_indices, (arrays.pcs >> 2) & bim_mask
    )


def test_planes_reject_oversized_path_history(tiny_trace):
    arrays = TraceArrays.from_trace(tiny_trace)
    config = TageConfig.small(path_history_bits=70, min_history=80, max_history=120)
    with pytest.raises(FastBackendUnsupported, match="path history"):
        compute_planes(arrays, plane_geometry(config))


def test_geometry_shared_across_automaton_and_seeds():
    base = TageConfig.small()
    assert plane_geometry(base) == plane_geometry(base.with_probabilistic_automaton())
    assert plane_geometry(base) == plane_geometry(
        TageConfig.small(lfsr_seed=1, alloc_seed=2, ctr_bits=4, u_bits=1)
    )
    assert plane_geometry(base) != plane_geometry(TageConfig.medium())
    assert plane_geometry(base) != plane_geometry(TageConfig.small(tag_bits=8))


class TestPlaneCache:
    def test_round_trip_serves_memmap(self, tiny_trace, tmp_path):
        arrays = TraceArrays.from_trace(tiny_trace)
        geometry = plane_geometry(TageConfig.small())
        cache = PlaneCache(tmp_path)
        assert len(cache) == 0
        first = cache.load_or_compute(arrays, geometry)
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 1

        second = cache.load_or_compute(arrays, geometry)
        assert (cache.hits, cache.misses) == (1, 1)
        assert isinstance(second.data, np.memmap)
        np.testing.assert_array_equal(np.asarray(second.data), first.data)

    def test_distinct_keys_per_trace_and_geometry(self, tiny_trace, int1_trace, tmp_path):
        cache = PlaneCache(tmp_path)
        small = plane_geometry(TageConfig.small())
        medium = plane_geometry(TageConfig.medium())
        tiny_arrays = TraceArrays.from_trace(tiny_trace)
        cache.load_or_compute(tiny_arrays, small)
        cache.load_or_compute(tiny_arrays, medium)
        cache.load_or_compute(TraceArrays.from_trace(int1_trace), small)
        assert len(cache) == 3
        assert cache.misses == 3

    def test_corrupt_entry_is_recomputed(self, tiny_trace, tmp_path):
        arrays = TraceArrays.from_trace(tiny_trace)
        geometry = plane_geometry(TageConfig.small())
        cache = PlaneCache(tmp_path)
        fresh = cache.load_or_compute(arrays, geometry)
        path = cache.path(arrays, geometry)
        path.write_bytes(b"not a numpy file")
        recovered = cache.load_or_compute(arrays, geometry)
        np.testing.assert_array_equal(recovered.data, fresh.data)
        assert cache.misses == 2

    def test_truncated_entry_is_recomputed(self, tiny_trace, tmp_path):
        """A zero-byte file (crash mid-materialization) must be a miss,
        not an EOFError crashing every later fast run."""
        arrays = TraceArrays.from_trace(tiny_trace)
        geometry = plane_geometry(TageConfig.small())
        cache = PlaneCache(tmp_path)
        fresh = cache.load_or_compute(arrays, geometry)
        cache.path(arrays, geometry).write_bytes(b"")
        recovered = cache.load_or_compute(arrays, geometry)
        np.testing.assert_array_equal(recovered.data, fresh.data)
        assert cache.misses == 2

    def test_wrong_shape_entry_is_a_miss(self, tiny_trace, tmp_path):
        arrays = TraceArrays.from_trace(tiny_trace)
        geometry = plane_geometry(TageConfig.small())
        cache = PlaneCache(tmp_path)
        path = cache.path(arrays, geometry)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path, np.zeros((2, 3), dtype=np.int64))
        planes = cache.load_or_compute(arrays, geometry)
        assert planes.data.shape == (3 + 2 * len(geometry[1]), len(arrays))
        assert cache.misses == 1

    @pytest.mark.parametrize("row,value", [
        (1, 2),       # outcome row no longer equals the trace's takens
        (2, -1),      # bimodal index below the table
        (3, 256),     # T1 index one past its 2**8-entry table
        (3, -1),      # T1 index negative
        (-1, 1 << 12),  # last tag row wider than its tag_bits
    ], ids=["takens", "bimodal-neg", "index-past-end", "index-neg", "tag-wide"])
    def test_out_of_range_content_is_recomputed(self, int1_trace, tmp_path,
                                                row, value):
        """A plane file with the right shape but content the kernels
        cannot trust (an index past its table would make the C kernel
        read out of bounds) is a miss and is rewritten."""
        arrays = TraceArrays.from_trace(int1_trace)
        config = TageConfig.small()
        geometry = plane_geometry(config)
        cache = PlaneCache(tmp_path)
        fresh = np.array(cache.load_or_compute(arrays, geometry).data)
        path = cache.path(arrays, geometry)
        damaged = fresh.copy()
        damaged[row, 100:5_000] = value
        np.save(path, damaged)
        assert cache.load(arrays, geometry) is None
        recovered = cache.load_or_compute(arrays, geometry)
        np.testing.assert_array_equal(recovered.data, fresh)
        assert cache.misses == 2
        np.testing.assert_array_equal(np.load(path), fresh)
        assert simulate_tage_fast(
            int1_trace, TagePredictor(config), materialization=cache
        ) == simulate(int1_trace, TagePredictor(config))
