"""Tests for the broker/worker executor: every recovery path, and the
bit-identity invariant that survives all of them.

The fault plans are deterministic (see :mod:`repro.sweep.faults`), so
each scenario exercises an exact code path: worker SIGKILL → crash
retry, flaky → transient backoff, poison → quarantine + partial table,
corrupt → cache-entry quarantine on the next load, stall → silent
straggler re-dispatch.  A shared :class:`WorkerPool` must survive all
of them from one sweep to the next.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.artifacts import SweepService
from repro.sweep import (
    EstimatorSpec,
    ExperimentSpec,
    PredictorSpec,
    ResultCache,
    replay_journal,
    journal_path,
    run_sweep,
    resume_sweep,
)
from repro.sweep.broker import BrokerConfig, WorkerPool, backoff_delay
from repro.sweep.grid import expand

N_BRANCHES = 600

# Small enough for CI, large enough that retries genuinely re-execute:
# 2 predictors x 1 estimator x 3 traces = 6 jobs.
def make_spec(**overrides) -> ExperimentSpec:
    options = dict(
        name="broker",
        predictors=(PredictorSpec.of("gshare"), PredictorSpec.of("bimodal")),
        estimators=(EstimatorSpec.of("jrs"),),
        traces=("INT-1", "MM-1", "SERV-1"),
        n_branches=N_BRANCHES,
    )
    options.update(overrides)
    return ExperimentSpec(**options)


@pytest.fixture(scope="module")
def reference_tsv():
    """Fault-free single-worker reference table (no cache, no journal)."""
    return run_sweep(make_spec()).table.to_tsv()


class TestBrokerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BrokerConfig(workers=0)
        with pytest.raises(ValueError):
            BrokerConfig(max_retries=-1)
        with pytest.raises(ValueError):
            BrokerConfig(heartbeat_timeout=0.1, heartbeat_interval=0.2)

    def test_backoff_grows_capped_and_deterministic(self):
        delays = [backoff_delay(0.25, 5.0, "r", 3, a) for a in range(10)]
        assert delays == [backoff_delay(0.25, 5.0, "r", 3, a) for a in range(10)]
        assert all(0.125 <= d <= 5.0 for d in delays)
        assert delays[-1] >= 2.5  # capped exponential reached the cap band


class TestRecoveryPaths:
    def test_worker_sigkill_mid_job_retries(self, tmp_path, reference_tsv):
        run = run_sweep(
            make_spec(), workers=2, cache=ResultCache(tmp_path),
            run_id="kill", faults="kill@0", heartbeat_timeout=5.0,
        )
        assert run.n_retries >= 1
        assert not run.quarantined
        assert run.table.to_tsv() == reference_tsv

    def test_flaky_job_retries_then_succeeds(self, tmp_path, reference_tsv):
        run = run_sweep(
            make_spec(), workers=2, cache=ResultCache(tmp_path),
            run_id="flaky", faults="flaky@2:2", max_retries=3,
        )
        assert run.n_retries == 2
        assert run.table.to_tsv() == reference_tsv

    def test_poison_quarantines_with_partial_table(self, tmp_path, reference_tsv):
        run = run_sweep(
            make_spec(), workers=2, cache=ResultCache(tmp_path),
            run_id="poison", faults="poison@4",
        )
        assert run.n_quarantined == 1
        entry = run.quarantined[0]
        assert entry.index == 4
        assert entry.kind == "deterministic"
        assert entry.attempts == 1  # no retry for deterministic failures
        assert "PoisonedJobError" in entry.error
        assert "QUARANTINED" in run.describe()
        # The partial table is the reference minus exactly row 4.
        lines = reference_tsv.splitlines()
        expected = [line for i, line in enumerate(lines) if i != 5]
        assert run.table.to_tsv().splitlines() == expected
        # ...and the journal records the quarantine durably.
        state = replay_journal(journal_path(tmp_path / "runs", "poison"), "poison")
        assert 4 in state.quarantined and state.ended

    def test_retries_exhausted_quarantines(self, tmp_path):
        run = run_sweep(
            make_spec(), workers=2, cache=ResultCache(tmp_path),
            run_id="exhaust", faults="flaky@1:9", max_retries=1,
        )
        assert run.n_quarantined == 1
        assert run.quarantined[0].index == 1
        assert "retries exhausted" in run.quarantined[0].kind

    def test_stalled_worker_redispatched(self, tmp_path, reference_tsv):
        # stall@3 suppresses the worker's heartbeat and sleeps far past
        # the (shortened) deadline: the broker must declare a straggler,
        # respawn the slot and re-dispatch job 3.
        run = run_sweep(
            make_spec(), workers=2, cache=ResultCache(tmp_path),
            run_id="stall", faults="stall@3", heartbeat_timeout=1.0,
            max_retries=2,
        )
        assert run.n_retries >= 1
        assert not run.quarantined
        assert run.table.to_tsv() == reference_tsv

    def test_corrupt_fault_quarantined_on_next_load(self, tmp_path, reference_tsv):
        cache = ResultCache(tmp_path)
        run = run_sweep(
            make_spec(), workers=1, cache=cache, run_id="corrupt",
            faults="corrupt@2",
        )
        assert run.table.to_tsv() == reference_tsv  # corruption is post-store
        # A second sweep hits 5 entries, quarantines the corrupt one
        # (with a warning naming its hash) and re-runs that job.
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            again = run_sweep(make_spec(), workers=1, cache=cache)
        assert again.n_cached == 5
        assert again.n_executed == 1
        assert again.table.to_tsv() == reference_tsv
        assert len(list((tmp_path / ".corrupt").glob("*.pkl"))) == 1


class TestBitIdentity:
    def test_identical_across_worker_counts_and_chaos(self, tmp_path, reference_tsv):
        # One run with every recoverable fault class at once, 3 workers.
        run = run_sweep(
            make_spec(), workers=3, cache=ResultCache(tmp_path),
            run_id="chaos", faults="kill@0;flaky@2:1;stall@5",
            heartbeat_timeout=1.0, max_retries=3,
        )
        assert not run.quarantined
        assert run.table.to_tsv() == reference_tsv


class TestResume:
    def test_resume_serves_done_jobs_from_cache(self, tmp_path, reference_tsv):
        cache = ResultCache(tmp_path)
        first = run_sweep(
            make_spec(), workers=2, cache=cache, run_id="res",
            faults="poison@1",
        )
        assert first.n_quarantined == 1
        resumed = resume_sweep("res", cache=cache, workers=2)
        assert resumed.n_cached == 5     # everything done the first time
        assert resumed.n_executed == 1   # only the quarantined job re-ran
        assert resumed.table.to_tsv() == reference_tsv

    def test_resume_unknown_run_id_raises(self, tmp_path):
        from repro.sweep import JournalError

        with pytest.raises(JournalError, match="no journal"):
            resume_sweep("never-ran", cache=ResultCache(tmp_path))

    def test_resume_rejects_mismatched_spec(self, tmp_path):
        from repro.sweep import JournalError

        cache = ResultCache(tmp_path)
        run_sweep(make_spec(), cache=cache, run_id="m")
        with pytest.raises(JournalError, match="records spec"):
            run_sweep(
                make_spec(n_branches=N_BRANCHES + 1), cache=cache,
                run_id="m", resume=True,
            )

    def test_journal_written_even_without_explicit_run_id(self, tmp_path):
        cache = ResultCache(tmp_path)
        run = run_sweep(make_spec(), cache=cache)
        assert run.run_id is not None
        path = journal_path(tmp_path / "runs", run.run_id)
        state = replay_journal(path, run.run_id)
        assert state.ended and len(state.done) == 6


def _new_children(before: set[int]) -> list:
    return [child for child in multiprocessing.active_children()
            if child.pid not in before]


def _child_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


class TestWorkerPool:
    """One pool serves many sweeps: forked once, lazily, and kept sound."""

    def test_service_forks_one_pool_for_every_grid(self, reference_tsv):
        other = make_spec(name="broker-other", traces=("FP-1", "INT-2", "MM-2"))
        before = _child_pids()
        with SweepService(workers=2) as service:
            first = service.sweep(make_spec())
            workers = {child.pid for child in _new_children(before)}
            second = service.sweep(other)
            assert service.pool.n_spawned == 2
            assert {child.pid for child in _new_children(before)} == workers
        assert len(workers) == 2
        assert not _new_children(before)
        assert first.table.to_tsv() == reference_tsv
        assert second.table.to_tsv() == run_sweep(other, workers=1).table.to_tsv()

    def test_fully_cached_service_forks_no_worker(self, tmp_path):
        cache = ResultCache(tmp_path)
        with SweepService(workers=2, cache=cache) as filler:
            filler.sweep(make_spec())
        with SweepService(workers=2, cache=cache) as service:
            run = service.sweep(make_spec())
            assert run.n_executed == 0
            assert service.pool.n_spawned == 0

    def test_worker_killed_while_idle_is_respawned(self, reference_tsv):
        before = _child_pids()
        with WorkerPool() as pool:
            run_sweep(make_spec(), workers=2, pool=pool, faults="")
            victim = _new_children(before)[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5.0)
            again = run_sweep(make_spec(), workers=2, pool=pool, faults="")
            assert pool.n_spawned == 3
        assert again.n_retries == 0
        assert again.table.to_tsv() == reference_tsv

    @pytest.mark.parametrize("faults", ["kill@1", "flaky@1"])
    def test_fault_plan_does_not_outlive_its_sweep(self, faults, reference_tsv):
        with WorkerPool() as pool:
            faulty = run_sweep(make_spec(), workers=2, pool=pool,
                               faults=faults, heartbeat_timeout=5.0)
            clean = run_sweep(make_spec(), workers=2, pool=pool, faults="")
        assert faulty.n_retries >= 1
        assert clean.n_retries == 0
        assert faulty.table.to_tsv() == clean.table.to_tsv() == reference_tsv

    def test_idle_workers_send_no_heartbeats(self):
        with WorkerPool(heartbeat_interval=0.02) as pool:
            run_sweep(make_spec(), workers=2, pool=pool, faults="")
            time.sleep(0.3)  # ~15 heartbeat intervals of idleness
            slots = pool.acquire(2)
            assert not any(slot.result_r.poll() for slot in slots)

    def test_worker_still_holding_a_job_is_replaced(self, reference_tsv):
        # What an interrupted sweep leaves behind: a worker mid-job.  Its
        # late result must never reach the next sweep.
        job = expand(make_spec()).jobs[0]
        with WorkerPool() as pool:
            (slot,) = pool.acquire(1)
            slot.assign(0, 0, job, "stall@0:1:60")
            pool.release([slot])
            assert not slot.process.is_alive()
            (again,) = pool.acquire(1)
            assert again.process.is_alive() and again.busy is None
            run = run_sweep(make_spec(), workers=2, pool=pool, faults="")
            assert pool.n_spawned == 3
        assert run.n_retries == 0
        assert run.table.to_tsv() == reference_tsv

    def test_service_shuts_its_pool_down_on_error(self):
        before = _child_pids()
        with pytest.raises(RuntimeError, match="boom"):
            with SweepService(workers=2) as service:
                service.sweep(make_spec())
                assert len(_new_children(before)) == 2
                raise RuntimeError("boom")
        assert not _new_children(before)
