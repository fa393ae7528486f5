"""Tests for the on-disk sweep result cache."""

import random
import warnings

import pytest

from repro.sweep.cache import CORRUPT_DIR, ResultCache
from repro.sweep.executor import execute_job
from repro.sweep.spec import EstimatorSpec, JobSpec, PredictorSpec


def make_job(**overrides) -> JobSpec:
    options = dict(
        predictor=PredictorSpec.of("tage", size="16K"),
        estimator=EstimatorSpec.of("tage"),
        trace="FP-1",
        n_branches=600,
    )
    options.update(overrides)
    return JobSpec(**options)


class TestResultCache:
    def test_miss_on_empty_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(make_job()) is None
        assert make_job() not in cache
        assert len(cache) == 0

    def test_store_then_load_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        executed = execute_job(job)
        cache.store(job, executed)

        assert job in cache
        assert len(cache) == 1
        loaded = cache.load(job)
        assert loaded is not None
        assert loaded.from_cache and not executed.from_cache
        assert loaded.row() == executed.row()
        assert loaded.result.class_table() == executed.result.class_table()

    def test_identical_spec_hash_hits_fresh_cache_instance(self, tmp_path):
        # A *new* ResultCache over the same directory and an equal-by-value
        # JobSpec must hit: the key is the canonical spec hash, not object
        # identity.
        job = make_job()
        ResultCache(tmp_path).store(job, execute_job(job))
        twin = make_job()
        assert twin.spec_hash() == job.spec_hash()
        assert ResultCache(tmp_path).load(twin) is not None

    def test_different_job_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.store(job, execute_job(job))
        assert cache.load(make_job(n_branches=601)) is None
        assert cache.load(make_job(trace="INT-1")) is None
        assert cache.load(make_job(seed=9)) is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.store(job, execute_job(job))
        cache.path(job).write_bytes(b"not a pickle")
        assert cache.load(job) is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_membership_is_loadability_not_existence(self, tmp_path):
        # Regression: __contains__ used to answer path.exists() while
        # load() rejected corrupt pickles, so a poisoned entry claimed
        # membership it could not honour.
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.store(job, execute_job(job))
        assert job in cache
        cache.path(job).write_bytes(b"not a pickle")
        assert cache.path(job).exists()
        assert job not in cache
        assert cache.load(job) is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_membership_consistent_with_load_on_truncated_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.store(job, execute_job(job))
        payload = cache.path(job).read_bytes()
        cache.path(job).write_bytes(payload[: len(payload) // 2])
        assert (job in cache) == (cache.load(job) is not None)
        assert job not in cache

    def test_corrupt_entry_quarantined_with_warning(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.store(job, execute_job(job))
        entry = cache.path(job)
        entry.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning) as caught:
            assert cache.load(job) is None
        # The warning names the job's spec hash and the evidence moved
        # to the .corrupt/ sibling for post-mortem.
        assert job.spec_hash() in str(caught[0].message)
        assert not entry.exists()
        quarantined = tmp_path / CORRUPT_DIR / entry.name
        assert quarantined.read_bytes() == b"not a pickle"
        # Second load: plain miss, no second warning (nothing to move).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load(job) is None

    def test_store_after_quarantine_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        executed = execute_job(job)
        cache.store(job, executed)
        cache.path(job).write_bytes(b"")
        with pytest.warns(RuntimeWarning):
            assert cache.load(job) is None
        cache.store(job, executed)
        loaded = cache.load(job)
        assert loaded is not None and loaded.row() == executed.row()

    def test_byte_flips_load_as_hits_or_quarantined_misses(self, tmp_path):
        # Regression: a flipped byte could make load() raise (TypeError,
        # MemoryError, OverflowError, or AttributeError after unpickling)
        # instead of quarantining, aborting the whole sweep.
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.store(job, execute_job(job))
        entry = cache.path(job)
        original = entry.read_bytes()
        rng = random.Random(2011)
        n_quarantined = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(600):
                flipped = bytearray(original)
                flipped[rng.randrange(len(flipped))] ^= rng.randrange(1, 256)
                entry.write_bytes(bytes(flipped))
                loaded = cache.load(job)
                if loaded is None:
                    assert not entry.exists()
                    assert (tmp_path / CORRUPT_DIR / entry.name).exists()
                    n_quarantined += 1
                else:
                    assert loaded.from_cache
        assert n_quarantined > 0

    def test_missing_entry_is_not_quarantined(self, tmp_path):
        # A plain miss must not warn or create .corrupt/.
        cache = ResultCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load(make_job()) is None
        assert not (tmp_path / CORRUPT_DIR).exists()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for trace in ("FP-1", "INT-1"):
            job = make_job(trace=trace)
            cache.store(job, execute_job(job))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
