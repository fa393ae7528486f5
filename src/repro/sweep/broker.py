"""The sweep broker: dispatch, supervise, retry, quarantine, checkpoint.

:class:`Broker` owns the execution of a sweep's pending jobs.  It borrows
:mod:`repro.sweep.worker` processes (one pair of pipes each) from a
:class:`WorkerPool`, assigns jobs to idle workers, and classifies
everything that can go wrong:

* **transient failures** (worker-reported ``transient`` errors, worker
  *crashes* — the process died holding a job — and *stalls* — the
  heartbeat went silent past the deadline): retried with exponential
  backoff + deterministic jitter, up to ``max_retries``; a job that
  exhausts its retries is quarantined as poisoned;
* **deterministic failures** (any other exception from the job): the
  same pure function over the same spec would fail identically, so the
  job is quarantined immediately and the sweep *keeps going* — the run
  ends with a partial result table plus a quarantine report instead of
  throwing away every other cell;
* **SIGINT/SIGTERM**: the broker stops dispatching, journals a clean
  ``interrupt`` checkpoint, kills any worker still mid-job and raises
  :class:`SweepInterrupted` — ``repro sweep --resume <run-id>`` then
  picks up exactly the unfinished jobs.

Completed results are stored to the :class:`ResultCache` *as they
arrive* (not after the run), which is what makes the journal's ``done``
records honest: once a job is journaled done, its bytes are already on
disk.

A :class:`WorkerPool` outlives the sweeps that borrow it: a
:class:`~repro.artifacts.service.SweepService` keeps one pool for its
whole lifetime, so the workers' trace and plane memos carry over from
one grid to the next instead of being rebuilt by fresh processes per
sweep.  The pool forks lazily, at the first sweep with pending work, and
a broker without a pool opens a private one around its single run.
Three rules make reuse safe: the fault plan travels in every assignment
(never in the spawn arguments), a worker heartbeats only while it holds
a job (an idle pool never fills its result pipe), and a worker found
dead — or still holding a job of an interrupted sweep — is respawned
before the next sweep dispatches to it.

``workers == 1`` runs inline — no subprocesses, same retry/quarantine/
journal semantics.  Inline, an injected ``kill`` fault takes down the
whole process: that is the box-crash rehearsal, and the journal plus
cache make the subsequent resume bit-identical.

Results are bit-for-bit independent of worker count, retries, stalls
and dispatch order: :func:`~repro.sweep.executor.execute_job` is a pure
function of the job spec, and the broker only decides *when and where*
it runs.
"""

from __future__ import annotations

import heapq
import multiprocessing
import signal
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable

from repro.sweep.faults import FaultInjector, TransientJobError
from repro.sweep.journal import RunJournal
from repro.sweep.result import JobResult
from repro.sweep.spec import JobSpec, LockstepBatch
from repro.sweep.worker import DEFAULT_HEARTBEAT_INTERVAL, worker_main

__all__ = [
    "Broker",
    "BrokerConfig",
    "QuarantinedJob",
    "SweepInterrupted",
    "WorkerPool",
    "backoff_delay",
]

#: Transient failure kinds a worker death maps to, by detection path.
_CRASH = "crash"
_STALL = "stall"


def backoff_delay(base: float, cap: float, run_id: str, index: int,
                  attempt: int) -> float:
    """Capped exponential backoff with deterministic jitter.

    The jitter fraction comes from a CRC-32 of (run id, job, attempt) —
    retries of many jobs quarantined by one event spread out instead of
    thundering back together, yet the schedule is reproducible.
    """
    delay = min(cap, base * (2.0 ** attempt))
    frac = (zlib.crc32(f"{run_id}:{index}:{attempt}".encode()) & 0xFFFFFFFF) / 0xFFFFFFFF
    return delay * (0.5 + 0.5 * frac)


@dataclass(frozen=True)
class BrokerConfig:
    """Supervision knobs; the defaults suit one-box CI-scale sweeps."""

    workers: int = 1
    max_retries: int = 2
    backoff_base: float = 0.25
    backoff_cap: float = 5.0
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL
    heartbeat_timeout: float = 30.0
    poll_interval: float = 0.1
    faults: str = ""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval "
                f"({self.heartbeat_timeout} <= {self.heartbeat_interval})"
            )


@dataclass(frozen=True)
class QuarantinedJob:
    """A job the run gave up on, with why and how hard it tried."""

    index: int
    job: JobSpec
    kind: str
    error: str
    attempts: int

    def describe(self) -> str:
        return (
            f"job {self.index} ({self.job.label}): {self.kind} after "
            f"{self.attempts} attempt(s) — {self.error}"
        )


class SweepInterrupted(RuntimeError):
    """SIGINT/SIGTERM checkpointed the run; resume with the run id."""

    def __init__(self, run_id: str | None, n_done: int, n_pending: int) -> None:
        super().__init__(
            f"sweep interrupted with {n_done} job(s) done, {n_pending} pending"
            + (f"; resume with run id {run_id}" if run_id else "")
        )
        self.run_id = run_id
        self.n_done = n_done
        self.n_pending = n_pending


class _WorkerSlot:
    """One supervised worker process with its private pipe pair."""

    def __init__(self, worker_id: int, ctx, heartbeat_interval: float) -> None:
        self.worker_id = worker_id
        self._ctx = ctx
        self._heartbeat_interval = heartbeat_interval
        self.busy: tuple[int, int, JobSpec | LockstepBatch] | None = None
        self.n_spawned = 0
        self.spawn()

    def spawn(self) -> None:
        task_r, self.task_w = self._ctx.Pipe(duplex=False)
        self.result_r, result_w = self._ctx.Pipe(duplex=False)
        self.process = self._ctx.Process(
            target=worker_main,
            args=(self.worker_id, task_r, result_w, self._heartbeat_interval),
            daemon=True,
        )
        self.process.start()
        self.n_spawned += 1
        # The child holds its own copies; the parent must drop these or
        # EOF detection on worker death never triggers.
        task_r.close()
        result_w.close()
        self.busy = None
        self.last_beat = time.monotonic()

    def assign(self, index: int, attempt: int,
               job: JobSpec | LockstepBatch, faults: str) -> None:
        self.task_w.send((index, attempt, job, faults))
        self.busy = (index, attempt, job)
        self.last_beat = time.monotonic()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join()

    def respawn(self) -> None:
        self.kill()
        self._close_pipes()
        self.spawn()

    def shutdown(self, grace: float = 1.0) -> None:
        try:
            self.task_w.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(grace)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(grace)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for conn in (self.task_w, self.result_r):
            try:
                conn.close()
            except OSError:
                pass


class WorkerPool:
    """Supervised worker processes shared by every sweep that borrows them.

    Nothing forks at construction: :meth:`acquire` starts workers the
    first time a sweep needs them, so a fully cache-served session never
    forks at all.  :meth:`close` (or leaving the ``with`` block) shuts
    every worker down.
    """

    def __init__(self,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL) -> None:
        self._ctx = multiprocessing.get_context()
        self.heartbeat_interval = heartbeat_interval
        self._slots: list[_WorkerSlot] = []

    @property
    def n_spawned(self) -> int:
        """Worker processes started over the pool's life, respawns included."""
        return sum(slot.n_spawned for slot in self._slots)

    def acquire(self, n: int) -> list[_WorkerSlot]:
        """``n`` idle, live workers: forks the missing ones and respawns
        any that died since the last sweep, before anything is sent."""
        while len(self._slots) < n:
            self._slots.append(
                _WorkerSlot(len(self._slots), self._ctx, self.heartbeat_interval)
            )
        slots = self._slots[:n]
        for slot in slots:
            if not slot.process.is_alive():
                slot.respawn()
        return slots

    def release(self, slots: list[_WorkerSlot]) -> None:
        """Take workers back after a sweep.  A worker still holding a job
        (the sweep was interrupted or failed) is killed, so its late
        result can never reach the next sweep; :meth:`acquire` respawns
        it."""
        for slot in slots:
            if slot.busy is not None:
                slot.kill()
                slot.busy = None

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        for slot in self._slots:
            slot.shutdown()
        self._slots = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class _JobState:
    """Broker-side bookkeeping for one pending work unit (a single job
    or a :class:`~repro.sweep.spec.LockstepBatch` of jobs)."""

    job: JobSpec | LockstepBatch
    attempt: int = 0
    history: list[str] = field(default_factory=list)


def _unit_members(index: int, unit: JobSpec | LockstepBatch):
    """The (grid index, job) pairs one dispatched unit carries."""
    if isinstance(unit, LockstepBatch):
        return unit.members
    return ((index, unit),)


class Broker:
    """Run a batch of jobs to completion (or checkpointed interruption)."""

    def __init__(
        self,
        config: BrokerConfig,
        pool: WorkerPool | None = None,
        run_id: str | None = None,
        cache=None,
        journal: RunJournal | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        self.config = config
        self.pool = pool
        self.run_id = run_id
        self.cache = cache
        self.journal = journal
        self.progress = progress
        self.injector = FaultInjector.parse(config.faults)
        self.n_retries = 0
        self._stop = threading.Event()
        self._stop_signal: int | None = None
        #: Unit indices completed or quarantined (a lockstep batch
        #: settles as one unit; its members fan out individually).
        self._settled: set[int] = set()

    # -- shared bookkeeping --------------------------------------------

    def _log(self, line: str) -> None:
        if self.progress:
            self.progress(line)

    def _complete(self, index: int, state: _JobState, outcome,
                  results: dict[int, JobResult]) -> None:
        """Record a finished unit: one result, or a batch fanned out.

        A lockstep batch returns one :class:`JobResult` per member (in
        member order); each is stored, journaled and slotted under its
        own grid index and spec hash, so downstream consumers (cache,
        resume, result table) never see the batching.
        """
        if isinstance(state.job, LockstepBatch):
            pairs = list(zip(state.job.members, outcome))
        else:
            pairs = [((index, state.job), outcome)]
        for (job_index, job), job_outcome in pairs:
            results[job_index] = job_outcome
            if self.cache is not None:
                self.cache.store(job, job_outcome)
                if self.injector.post_store(job_index, state.attempt,
                                            self.cache.path(job)):
                    self._log(f"fault: corrupted cache entry for job {job_index} "
                              f"({job.spec_hash()})")
            if self.journal is not None:
                self.journal.job_done(job_index, job.spec_hash(), state.attempt)
        self._settled.add(index)

    def _quarantine(self, index: int, state: _JobState, kind: str, error: str,
                    quarantined: list[QuarantinedJob]) -> None:
        for job_index, job in _unit_members(index, state.job):
            entry = QuarantinedJob(
                index=job_index, job=job, kind=kind, error=error,
                attempts=state.attempt + 1,
            )
            quarantined.append(entry)
            if self.journal is not None:
                self.journal.job_quarantined(
                    job_index, job.spec_hash(), kind, error, state.attempt + 1
                )
            self._log(f"quarantine: {entry.describe()}")
        self._settled.add(index)

    def _fail(self, index: int, state: _JobState, kind: str, error: str,
              retry_heap: list, quarantined: list[QuarantinedJob]) -> None:
        """Classify one failure into retry-with-backoff or quarantine."""
        state.history.append(f"{kind}: {error}")
        if kind == "deterministic" or state.attempt >= self.config.max_retries:
            reason = kind if kind == "deterministic" else f"{kind} (retries exhausted)"
            self._quarantine(index, state, reason, error, quarantined)
            return
        if self.journal is not None:
            self.journal.job_retry(index, state.attempt, kind, error)
        delay = backoff_delay(
            self.config.backoff_base, self.config.backoff_cap,
            self.run_id or "", index, state.attempt,
        )
        state.attempt += 1
        self.n_retries += 1
        heapq.heappush(retry_heap, (time.monotonic() + delay, index))
        self._log(
            f"retry: job {index} ({state.job.label}) after {kind} "
            f"({error}); attempt {state.attempt} in {delay:.2f}s"
        )

    # -- signal handling -----------------------------------------------

    def _install_signal_handlers(self):
        """Route SIGINT/SIGTERM to the stop flag; returns the restorer.

        Only possible from the main thread (signal module rule); library
        callers driving sweeps from other threads simply keep Python's
        default behaviour.
        """
        if threading.current_thread() is not threading.main_thread():
            return lambda: None

        def handler(signum, frame):
            self._stop_signal = signum
            self._stop.set()

        previous = {
            signum: signal.signal(signum, handler)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }

        def restore():
            for signum, old in previous.items():
                signal.signal(signum, old)

        return restore

    def _raise_interrupted(self, results: dict, states: dict) -> None:
        n_jobs = sum(
            len(_unit_members(index, state.job))
            for index, state in states.items()
        )
        n_pending = n_jobs - len(results)
        if self.journal is not None:
            self.journal.interrupt(len(results), n_pending)
        self._log(
            f"interrupted: checkpointed {len(results)} done, "
            f"{n_pending} pending"
            + (f"; resume with --resume {self.run_id}" if self.run_id else "")
        )
        raise SweepInterrupted(self.run_id, len(results), n_pending)

    # -- execution -----------------------------------------------------

    def run(
        self, pending: list[tuple[int, JobSpec | LockstepBatch]]
    ) -> tuple[dict[int, JobResult], list[QuarantinedJob]]:
        """Execute the pending work units; returns (results by grid
        index, quarantined jobs).  Units are single jobs or
        :class:`~repro.sweep.spec.LockstepBatch` groups; batch results
        fan out so the returned dict always maps *job* indices.

        Raises:
            SweepInterrupted: after journaling a clean checkpoint on
                SIGINT/SIGTERM.
        """
        if not pending:
            return {}, []
        self._settled = set()
        restore = self._install_signal_handlers()
        try:
            if self.config.workers == 1 or len(pending) == 1:
                return self._run_inline(pending)
            return self._run_pool(pending)
        finally:
            restore()

    def _run_inline(self, pending) -> tuple[dict[int, JobResult], list[QuarantinedJob]]:
        from repro.sweep.executor import execute_work

        states = {index: _JobState(job=job) for index, job in pending}
        results: dict[int, JobResult] = {}
        quarantined: list[QuarantinedJob] = []
        retry_heap: list[tuple[float, int]] = []
        ready = deque(index for index, _ in pending)
        while ready or retry_heap:
            if self._stop.is_set():
                self._raise_interrupted(results, states)
            if not ready:
                due, index = heapq.heappop(retry_heap)
                wait = due - time.monotonic()
                if wait > 0 and self._stop.wait(wait):
                    self._raise_interrupted(results, states)
                ready.append(index)
                continue
            index = ready.popleft()
            state = states[index]
            try:
                self.injector.pre_job(index, state.attempt)
                outcome = execute_work(state.job)
            except TransientJobError as error:
                self._fail(index, state, "transient", str(error),
                           retry_heap, quarantined)
            except (MemoryError, OSError) as error:
                self._fail(index, state, "transient",
                           f"{type(error).__name__}: {error}",
                           retry_heap, quarantined)
            except Exception as error:  # noqa: BLE001 — classification boundary
                self._fail(index, state, "deterministic",
                           f"{type(error).__name__}: {error}",
                           retry_heap, quarantined)
            else:
                self._complete(index, state, outcome, results)
        return results, quarantined

    def _run_pool(self, pending) -> tuple[dict[int, JobResult], list[QuarantinedJob]]:
        states = {index: _JobState(job=job) for index, job in pending}
        results: dict[int, JobResult] = {}
        quarantined: list[QuarantinedJob] = []
        retry_heap: list[tuple[float, int]] = []
        ready = deque(index for index, _ in pending)
        owned = self.pool is None
        pool = self.pool
        if owned:
            pool = WorkerPool(heartbeat_interval=self.config.heartbeat_interval)
        slots: list[_WorkerSlot] = []

        def outstanding() -> int:
            return len(states) - len(self._settled)

        try:
            slots = pool.acquire(min(self.config.workers, len(pending)))
            while outstanding() > 0:
                if self._stop.is_set():
                    self._raise_interrupted(results, states)
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    ready.append(heapq.heappop(retry_heap)[1])
                for slot in slots:
                    if slot.busy is None and ready:
                        index = ready.popleft()
                        state = states[index]
                        try:
                            slot.assign(index, state.attempt, state.job,
                                        self.config.faults)
                        except (BrokenPipeError, OSError):
                            # Dead before dispatch: requeue, respawn below.
                            ready.appendleft(index)
                self._drain_results(slots, states, results, quarantined, retry_heap)
                self._supervise(slots, states, results, quarantined, retry_heap,
                                outstanding)
        finally:
            pool.release(slots)
            if owned:
                pool.close()
        return results, quarantined

    def _drain_results(self, slots, states, results, quarantined, retry_heap):
        """Wait briefly for worker messages and apply them."""
        by_conn = {slot.result_r: slot for slot in slots}
        timeout = self.config.poll_interval
        if retry_heap:
            timeout = max(0.0, min(timeout,
                                   retry_heap[0][0] - time.monotonic()))
        try:
            ready_conns = mp_connection.wait(list(by_conn), timeout=timeout)
        except OSError:
            return
        for conn in ready_conns:
            slot = by_conn[conn]
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    break  # death handled by _supervise via is_alive()
                self._apply(slot, message, states, results, quarantined,
                            retry_heap)

    def _apply(self, slot, message, states, results, quarantined, retry_heap):
        kind = message[0]
        if kind == "beat":
            slot.last_beat = time.monotonic()
            return
        if kind == "done":
            _, _, index, attempt, outcome = message
            slot.busy = None
            slot.last_beat = time.monotonic()
            self._complete(index, states[index], outcome, results)
            return
        if kind == "failed":
            _, _, index, failure_kind, error = message
            slot.busy = None
            slot.last_beat = time.monotonic()
            self._fail(index, states[index], failure_kind, error,
                       retry_heap, quarantined)

    def _supervise(self, slots, states, results, quarantined, retry_heap,
                   outstanding):
        """Detect dead and silently stalled workers; recover their jobs."""
        now = time.monotonic()
        for slot in slots:
            if not slot.process.is_alive():
                # Drain any reports it managed to send before dying (a
                # worker can complete its job and then be killed idle).
                while True:
                    try:
                        if not slot.result_r.poll():
                            break
                        self._apply(slot, slot.result_r.recv(), states,
                                    results, quarantined, retry_heap)
                    except (EOFError, OSError):
                        break
                if slot.busy is not None:
                    index, attempt, job = slot.busy
                    slot.busy = None
                    if index not in states or index in self._settled:
                        pass
                    else:
                        self._fail(index, states[index], _CRASH,
                                   f"worker {slot.worker_id} died "
                                   f"(exitcode {slot.process.exitcode})",
                                   retry_heap, quarantined)
                if outstanding() > 0 and not self._stop.is_set():
                    slot.respawn()
            elif (slot.busy is not None
                  and now - slot.last_beat > self.config.heartbeat_timeout):
                index, attempt, job = slot.busy
                self._log(
                    f"straggler: worker {slot.worker_id} silent for "
                    f">{self.config.heartbeat_timeout:g}s on job {index}; "
                    "re-dispatching"
                )
                slot.busy = None
                self._fail(index, states[index], _STALL,
                           f"no heartbeat for {self.config.heartbeat_timeout:g}s",
                           retry_heap, quarantined)
                if outstanding() > 0 and not self._stop.is_set():
                    slot.respawn()
                else:
                    slot.kill()
