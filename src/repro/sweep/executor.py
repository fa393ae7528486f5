"""Sweep execution: single-job entry point + fault-tolerant fan-out.

:func:`execute_job` is the picklable unit of work: it takes one
:class:`~repro.sweep.spec.JobSpec` (pure data), regenerates the named
trace inside the worker process (trace synthesis is deterministic, so
nothing large crosses the pipe, and memoized for the worker's lifetime:
a :class:`~repro.sweep.broker.WorkerPool` lives as long as its owner —
a whole :class:`~repro.artifacts.service.SweepService`, or one
standalone :func:`run_sweep` call), builds the job's cell with
:func:`repro.sim.runner.build_cell` — the one cell builder, shared with
lockstep batches, the capability pre-pass and the serving layer — and
runs it on the job's backend: vectorized batch
execution for ``backend="fast"`` cells the fast engine supports, the
reference stepper :func:`repro.sim.engine.step` (after a
:class:`~repro.sim.backends.FastBackendFallbackWarning`) for the rest.

:func:`run_sweep` drives a whole :class:`ExperimentSpec`: expand the
grid, serve cache hits, execute the misses through the supervised
:class:`~repro.sweep.broker.Broker` (journaled, heartbeat-monitored
worker processes with retry/backoff, quarantine and straggler
re-dispatch — see :mod:`repro.sweep.broker`), and aggregate into a
:class:`~repro.sweep.result.ResultTable` in stable grid order.  Because
every job carries its own deterministic seed (or relies on the
components' fixed built-in seeds), results are bit-for-bit identical for
any worker count — and for any retry/crash/re-dispatch history.

When a cache is attached, every run also appends a crash-safe
:class:`~repro.sweep.journal.RunJournal` under ``<cache root>/runs``;
:func:`resume_sweep` (the ``repro sweep --resume <run-id>`` entry)
rebuilds the spec from that journal and re-runs *only* the unfinished
jobs, serving completed ones bit-identically from the cache.

Two fast-backend refinements happen before fan-out: unsupported fast
cells are probed once per distinct (predictor, estimator, adaptive)
cell and downgraded to the reference engine with a single
:class:`FastBackendFallbackWarning` (instead of one warning per job per
worker), and fast jobs are pointed at a shared on-disk plane
materialization directory (``<cache root>/planes`` by default) so every
(trace, TAGE-geometry) index/tag plane set is computed once per grid —
not once per job — and memmapped by later jobs and later runs.  Every
cell the default grids can express — all predictor kinds, all estimator
kinds, adaptive §6.2 included — is inside the fast family, so a
``backend="fast"`` sweep over them emits no warnings at all; the probe
exists for subclassed components and >62-bit history windows.
"""

from __future__ import annotations

import os
import time
import uuid
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.sim.backends import (
    Capability,
    Cell,
    FastBackendFallbackWarning,
    get_backend,
    load_fast_engine,
)
from repro.sim.engine import simulate, simulate_binary
from repro.sim.runner import build_cell, get_trace
from repro.sweep.broker import (
    Broker,
    BrokerConfig,
    QuarantinedJob,
    SweepInterrupted,
    WorkerPool,
)
from repro.sweep.cache import ResultCache
from repro.sweep.faults import FAULTS_ENV
from repro.sweep.grid import GridExpansion, expand
from repro.sweep.journal import (
    JournalError,
    RunJournal,
    journal_path,
    replay_journal,
)
from repro.sweep.result import JobResult, ResultTable
from repro.sweep.spec import (
    EstimatorSpec,
    ExperimentSpec,
    JobSpec,
    LockstepBatch,
    PredictorSpec,
)

__all__ = [
    "execute_job",
    "execute_batch",
    "execute_work",
    "plan_lockstep",
    "run_sweep",
    "resume_sweep",
    "SweepRun",
    "SweepInterrupted",
    "QuarantinedJob",
    "LOCKSTEP_MAX_BATCH",
    "default_workers",
    "default_journal_dir",
]

#: Largest lockstep batch the planner builds.  Bounds per-unit memory
#: (each cell owns a full table set inside the kernel) and keeps enough
#: independent units for the worker pool to stay busy.
LOCKSTEP_MAX_BATCH = 16


def default_workers() -> int:
    """Pool size when the caller does not choose: one per usable CPU, min 2.

    Usable CPUs are the process's affinity set where the platform has
    one (a host pinned to a few cores must not be oversubscribed), else
    ``os.cpu_count()``.  The floor of 2 keeps the default path genuinely
    parallel (pipelined pickling/execution) even on single-core
    containers.
    """
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return max(2, usable)


def _cell_of(job: JobSpec) -> Cell:
    """The job's live cell, via the one cell builder."""
    return build_cell(job.predictor, job.estimator, job.adaptive,
                      job.target_mkp, job.seed)


def execute_job(job: JobSpec) -> JobResult:
    """Run one grid cell; pure function of the job spec (picklable)."""
    start = time.perf_counter()
    trace = get_trace(job.trace, job.n_branches)
    cell = _cell_of(job)
    if cell.binary:
        binary, result = simulate_binary(
            trace,
            cell.predictor,
            cell.estimator,
            warmup_branches=job.warmup_branches,
            backend=job.backend,
            materialization_dir=job.materialization_dir,
        )
        estimator_bits = cell.estimator.storage_bits()
    else:
        result = simulate(
            trace,
            cell.predictor,
            estimator=cell.estimator,
            controller=cell.controller,
            warmup_branches=job.warmup_branches,
            backend=job.backend,
            materialization_dir=job.materialization_dir,
        )
        binary = result.binary_confusion()
        estimator_bits = 0

    return JobResult(
        job=job,
        result=result,
        binary=binary,
        estimator_bits=estimator_bits,
        elapsed=time.perf_counter() - start,
    )


def execute_batch(batch: LockstepBatch) -> tuple[JobResult, ...]:
    """Run one lockstep batch; one :class:`JobResult` per member, in order.

    Every member shares the batch's trace and plane geometry (the
    planner guarantees it), so the planes are resolved once and all
    cells advance through a single
    :func:`~repro.sim.fast.lockstep.simulate_tage_lockstep` kernel pass
    — bit-identical to running each member through
    :func:`execute_job` independently.  The shared wall-clock cost is
    attributed evenly across the members' ``elapsed`` fields.
    """
    start = time.perf_counter()
    first = batch.members[0][1]
    trace = get_trace(first.trace, first.n_branches)
    fast = load_fast_engine()
    cells = []
    for _, job in batch.members:
        cell = _cell_of(job)
        cells.append(
            fast.LockstepCell(
                predictor=cell.predictor,
                estimator=cell.estimator,
                controller=cell.controller,
                warmup_branches=job.warmup_branches,
            )
        )
    results = fast.simulate_tage_lockstep(
        trace, cells, materialization=first.materialization_dir
    )
    elapsed = (time.perf_counter() - start) / len(batch.members)
    return tuple(
        JobResult(
            job=job,
            result=result,
            binary=result.binary_confusion(),
            estimator_bits=0,
            elapsed=elapsed,
        )
        for (_, job), result in zip(batch.members, results)
    )


def execute_work(unit: JobSpec | LockstepBatch):
    """The broker/worker entry point: run one work unit of either shape."""
    if isinstance(unit, LockstepBatch):
        return execute_batch(unit)
    return execute_job(unit)


def _lockstep_key(job: JobSpec, geometries: dict) -> tuple | None:
    """The grouping key a job must share to join a lockstep batch
    (None = the job cannot join one).

    Only supported fast-backend TAGE×observation accuracy cells
    qualify (the capability API's ``lockstep`` flag); the key then pins
    everything batched execution shares — the trace (and its length)
    and the plane geometry the predictor's config folds to.  Kernel
    knobs (automaton, saturation probability, seeds, warmup, §6.2
    controller) may differ freely across members.
    """
    if job.backend != "fast":
        return None
    if job.predictor.kind != "tage" or job.estimator.kind != "tage":
        return None
    cell = (job.predictor, job.adaptive)
    if cell not in geometries:
        fast = load_fast_engine()
        predictor = _cell_of(job).predictor
        geometries[cell] = fast.plane_geometry(predictor.config)
    return (job.trace, job.n_branches, job.materialization_dir,
            geometries[cell])


def plan_lockstep(
    pending: list[tuple[int, JobSpec]],
    progress: Callable[[str], None] | None = None,
) -> list[tuple[int, JobSpec | LockstepBatch]]:
    """Fuse shareable fast TAGE jobs into :class:`LockstepBatch` units.

    Jobs sharing one trace's planes (same trace, branch count and plane
    geometry) are grouped — in grid order, at most
    :data:`LOCKSTEP_MAX_BATCH` per batch — and each group of two or
    more becomes one batch unit, emitted at its first member's position
    with that member's grid index as the unit index.  Everything else
    passes through unchanged, so the plan preserves grid order and
    the batching is invisible in the results: each member is cached,
    journaled and reported under its own index and spec hash.
    """
    geometries: dict = {}
    groups: dict[tuple, list[tuple[int, JobSpec]]] = {}
    keys: dict[int, tuple | None] = {}
    for index, job in pending:
        key = _lockstep_key(job, geometries)
        keys[index] = key
        if key is not None:
            groups.setdefault(key, []).append((index, job))

    batches: dict[int, LockstepBatch] = {}
    fused_members: set[int] = set()
    n_fused_jobs = 0
    for members in groups.values():
        for chunk_start in range(0, len(members), LOCKSTEP_MAX_BATCH):
            chunk = members[chunk_start:chunk_start + LOCKSTEP_MAX_BATCH]
            if len(chunk) < 2:
                continue
            batch = LockstepBatch(members=tuple(chunk))
            batches[batch.index] = batch
            fused_members.update(index for index, _ in chunk)
            n_fused_jobs += len(chunk)

    plan: list[tuple[int, JobSpec | LockstepBatch]] = []
    for index, job in pending:
        if index in batches:
            plan.append((index, batches[index]))
        elif index not in fused_members:
            plan.append((index, job))
    if progress and batches:
        progress(
            f"lockstep: fused {n_fused_jobs} job(s) into {len(batches)} "
            f"batch(es) of <= {LOCKSTEP_MAX_BATCH}"
        )
    return plan


def _resolve_fast_fallbacks(
    pending: list[tuple[int, JobSpec]],
    progress: Callable[[str], None] | None = None,
) -> list[tuple[int, JobSpec]]:
    """Downgrade unsupported ``backend="fast"`` cells before fan-out.

    Probing once per distinct (predictor, estimator) cell — instead of
    letting every worker rediscover the same fallback — means a mixed
    sweep emits exactly one :class:`FastBackendFallbackWarning` per
    unsupported cell per run, regardless of trace count or worker count.
    The downgraded jobs run on the reference engine directly (identical
    results; the backend is not part of the cache identity).
    """
    verdicts: dict[tuple[PredictorSpec, EstimatorSpec, bool], Capability] = {}
    resolved: list[tuple[int, JobSpec]] = []
    downgraded: dict[tuple[PredictorSpec, EstimatorSpec, bool], int] = {}
    for index, job in pending:
        if job.backend != "fast":
            resolved.append((index, job))
            continue
        cell = (job.predictor, job.estimator, job.adaptive)
        if cell not in verdicts:
            verdicts[cell] = get_backend("fast").capability(_cell_of(job))
        if verdicts[cell]:
            resolved.append((index, job))
        else:
            downgraded[cell] = downgraded.get(cell, 0) + 1
            resolved.append((index, replace(job, backend="reference")))
    for cell, count in downgraded.items():
        predictor, estimator, _ = cell
        warnings.warn(
            f"fast backend cannot run {predictor.label}x{estimator.label} "
            f"({verdicts[cell].reason}); falling back to the reference "
            f"engine for {count} job(s)",
            FastBackendFallbackWarning,
            stacklevel=3,
        )
        if progress:
            progress(
                f"fallback: {predictor.label}x{estimator.label} -> reference "
                f"({count} job(s))"
            )
    return resolved


def _count_plane_files(materialization_dir) -> int:
    """Plane materializations currently on disk (0 when sharing is off)."""
    if materialization_dir is None:
        return 0
    root = Path(materialization_dir)
    if not root.is_dir():
        return 0
    return sum(1 for _ in root.glob("*.npy"))


@dataclass(frozen=True)
class SweepRun:
    """A completed sweep: the aggregate table plus execution accounting.

    ``quarantined`` lists the jobs the broker gave up on (deterministic
    failures, or transient ones past ``max_retries``); their cells are
    absent from ``table``, making the run a *partial-result report*
    rather than a total loss.  ``run_id`` names the journal a
    ``--resume`` of this run would replay.
    """

    spec: ExperimentSpec
    expansion: GridExpansion
    table: ResultTable
    workers: int
    elapsed: float
    quarantined: tuple[QuarantinedJob, ...] = ()
    run_id: str | None = None
    n_retries: int = 0

    @property
    def n_jobs(self) -> int:
        return len(self.table)

    @property
    def n_cached(self) -> int:
        return self.table.n_cached

    @property
    def n_executed(self) -> int:
        return self.table.n_executed

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantined)

    def describe(self) -> str:
        text = (
            f"{self.spec.name} [{self.spec.spec_hash()}]: "
            f"{self.n_jobs} jobs ({self.n_cached} cached, "
            f"{self.n_executed} executed) with {self.workers} workers "
            f"in {self.elapsed:.2f}s"
        )
        if self.n_retries:
            text += f"; {self.n_retries} retr{'y' if self.n_retries == 1 else 'ies'}"
        if self.quarantined:
            text += f"; {self.n_quarantined} QUARANTINED"
        return text


def default_journal_dir(cache: ResultCache | None) -> Path | None:
    """Where run journals live by default: ``<cache root>/runs``."""
    if cache is None:
        return None
    return cache.root / "runs"


def _open_journal(
    spec: ExperimentSpec,
    expansion: GridExpansion,
    run_id: str | None,
    journal_dir,
    resume: bool,
    fsync_journal: bool,
    progress: Callable[[str], None] | None,
) -> tuple[RunJournal | None, str | None, dict[int, str]]:
    """Open (or resume) this run's journal.

    Returns ``(journal, run_id, done)`` where ``done`` maps grid indices
    the journal already records as completed to their job hashes.
    """
    if journal_dir is None:
        return None, run_id, {}
    if run_id is None:
        # repro: allow[RPR001] run-id labels the journal file, never results
        run_id = f"{spec.spec_hash()}-{uuid.uuid4().hex[:8]}"
    path = journal_path(journal_dir, run_id)
    job_hashes = [job.spec_hash() for job in expansion.jobs]
    if resume and path.exists():
        state = replay_journal(path, run_id)
        if state.spec_hash != spec.spec_hash():
            raise JournalError(
                f"journal {path} records spec {state.spec_hash}, but the "
                f"resumed spec hashes to {spec.spec_hash()}"
            )
        if list(state.job_hashes) != job_hashes:
            raise JournalError(
                f"journal {path} records a different grid expansion than "
                "the resumed spec produces"
            )
        journal = RunJournal(path, run_id, fresh=False, fsync=fsync_journal)
        journal.resume(len(state.done), len(state.pending_indices))
        if progress:
            progress(
                f"resume {run_id}: journal records {len(state.done)} of "
                f"{state.n_jobs} jobs done"
            )
        return journal, run_id, dict(state.done)
    journal = RunJournal(path, run_id, fresh=True, fsync=fsync_journal)
    journal.begin(spec.as_dict(), spec.spec_hash(), job_hashes)
    return journal, run_id, {}


def run_sweep(
    spec: ExperimentSpec,
    workers: int | None = 1,
    cache: ResultCache | None = None,
    progress: Callable[[str], None] | None = None,
    materialization_dir: str | os.PathLike | None = None,
    *,
    run_id: str | None = None,
    journal_dir: str | os.PathLike | None = None,
    resume: bool = False,
    max_retries: int = 2,
    heartbeat_timeout: float = 30.0,
    faults: str | None = None,
    fsync_journal: bool = True,
    pool: WorkerPool | None = None,
) -> SweepRun:
    """Execute every cell of a spec and aggregate the results.

    Args:
        spec: the declarative grid.
        workers: pool size; 1 (the default) runs in-process, ``None``
            picks :func:`default_workers`.  Results are identical for
            every value.
        cache: optional :class:`ResultCache`; hits skip execution,
            misses are stored the moment each job completes.
        progress: optional sink for human-readable status lines.
        materialization_dir: directory where fast-backend TAGE index/tag
            plane materializations are memmapped and shared across jobs
            and runs.  Defaults to ``<cache root>/planes`` when a cache
            is given (None and no cache → planes are computed per job in
            memory).
        run_id: names this run's journal (auto-generated when omitted);
            the handle ``--resume`` takes.
        journal_dir: where journals live; defaults to
            ``<cache root>/runs`` when a cache is given, and journaling
            is disabled when neither is available.
        resume: continue the journal named by ``run_id`` — completed
            jobs are served bit-identically from the cache; only the
            rest execute.  A missing journal starts fresh.
        max_retries: transient-failure budget per job (crash, stall,
            :class:`~repro.sweep.faults.TransientJobError`) before the
            job is quarantined.
        heartbeat_timeout: seconds of worker silence before the broker
            declares a straggler and re-dispatches its job.
        faults: a :class:`~repro.sweep.faults.FaultInjector` plan;
            defaults to ``$REPRO_FAULTS``.
        fsync_journal: fsync each journal record (leave on outside
            tests; without it a crash can forget acknowledged progress).
        pool: a :class:`~repro.sweep.broker.WorkerPool` to borrow
            workers from (the caller owns and closes it); None opens a
            private pool around this call when it needs workers.

    Returns:
        A :class:`SweepRun` whose table preserves grid order (minus any
        quarantined cells, reported in ``SweepRun.quarantined``).

    Raises:
        SweepInterrupted: on SIGINT/SIGTERM, after the journal has a
            clean checkpoint; resume with the run id it carries.
    """
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if materialization_dir is None and cache is not None:
        materialization_dir = cache.root / "planes"
    if journal_dir is None:
        journal_dir = default_journal_dir(cache)
    if faults is None:
        faults = os.environ.get(FAULTS_ENV, "")

    start = time.perf_counter()
    expansion = expand(spec)
    if progress:
        progress(expansion.describe())

    journal, run_id, journal_done = _open_journal(
        spec, expansion, run_id, journal_dir, resume, fsync_journal, progress
    )
    try:
        slots: list[JobResult | None] = []
        pending: list[tuple[int, JobSpec]] = []
        for index, job in enumerate(expansion.jobs):
            hit = cache.load(job) if cache is not None else None
            if hit is None and index in journal_done:
                # The journal promised this job was done but the cache
                # cannot honour it (entry evicted or quarantined as
                # corrupt): re-run rather than fail the resume.
                if progress:
                    progress(
                        f"journal records job {index} done but the cache "
                        "misses; re-running"
                    )
            slots.append(hit)
            if hit is None:
                pending.append((index, job))

        if progress and cache is not None:
            progress(f"cache: {len(slots) - len(pending)} hits, "
                     f"{len(pending)} misses")

        quarantined: tuple[QuarantinedJob, ...] = ()
        n_retries = 0
        if pending:
            pending = _resolve_fast_fallbacks(pending, progress)
            if materialization_dir is not None:
                pending = [
                    (index, replace(job, materialization_dir=str(materialization_dir)))
                    if job.backend == "fast"
                    else (index, job)
                    for index, job in pending
                ]
            planes_before = _count_plane_files(materialization_dir)
            # Fault plans key on job indices and fire per dispatched
            # unit, so fusing jobs would shift which jobs a plan hits.
            units: list[tuple[int, JobSpec | LockstepBatch]] = (
                list(pending) if faults else plan_lockstep(pending, progress)
            )
            broker = Broker(
                BrokerConfig(
                    workers=min(workers, len(units)),
                    max_retries=max_retries,
                    heartbeat_timeout=heartbeat_timeout,
                    faults=faults,
                ),
                pool=pool,
                run_id=run_id,
                cache=cache,
                journal=journal,
                progress=progress,
            )
            outcomes, dropped = broker.run(units)
            n_retries = broker.n_retries
            quarantined = tuple(dropped)
            for index, outcome in outcomes.items():
                slots[index] = outcome
            if progress and materialization_dir is not None:
                planes_after = _count_plane_files(materialization_dir)
                progress(
                    f"materializations: {planes_after} plane file(s) in "
                    f"{materialization_dir} ({planes_after - planes_before} new, "
                    f"{planes_before} reused from disk)"
                )

        if journal is not None:
            journal.end(
                sum(1 for slot in slots if slot is not None), len(quarantined)
            )
    finally:
        if journal is not None:
            journal.close()

    table = ResultTable([slot for slot in slots if slot is not None])
    run = SweepRun(
        spec=spec,
        expansion=expansion,
        table=table,
        workers=workers,
        elapsed=time.perf_counter() - start,
        quarantined=quarantined,
        run_id=run_id,
        n_retries=n_retries,
    )
    if progress:
        progress(run.describe())
    return run


def resume_sweep(
    run_id: str,
    cache: ResultCache,
    workers: int | None = 1,
    progress: Callable[[str], None] | None = None,
    *,
    journal_dir: str | os.PathLike | None = None,
    backend: str | None = None,
    max_retries: int = 2,
    heartbeat_timeout: float = 30.0,
    faults: str | None = None,
    fsync_journal: bool = True,
) -> SweepRun:
    """Resume an interrupted run from its journal alone.

    The spec is reconstructed from the journal's ``begin`` record —
    the caller needs nothing but the run id.  Completed jobs are served
    bit-identically from the cache; unfinished (and previously
    quarantined) jobs execute.

    Args:
        run_id: the id printed (and journaled) by the original run.
        cache: the same result cache the original run used.
        backend: engine override; None keeps the spec's recorded axes on
            the default backend (results are backend-invariant).

    Raises:
        JournalError: unknown run id, or a journal that does not match
            its own spec.
    """
    if journal_dir is None:
        journal_dir = default_journal_dir(cache)
    path = journal_path(journal_dir, run_id)
    if not path.exists():
        raise JournalError(f"no journal for run id {run_id!r} under {journal_dir}")
    state = replay_journal(path, run_id)
    spec = ExperimentSpec.from_dict(state.spec_dict)
    if backend is not None:
        spec = spec.with_options(backend=backend)
    return run_sweep(
        spec,
        workers=workers,
        cache=cache,
        progress=progress,
        run_id=run_id,
        journal_dir=journal_dir,
        resume=True,
        max_retries=max_retries,
        heartbeat_timeout=heartbeat_timeout,
        faults=faults,
        fsync_journal=fsync_journal,
    )
