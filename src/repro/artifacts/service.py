"""Shared sweep execution for artifact builders.

A :class:`SweepService` is the single execution funnel of one pipeline
invocation (or one benchmark session): every artifact builder hands its
:class:`~repro.sweep.spec.ExperimentSpec` grids to :meth:`SweepService.sweep`
and gets a completed :class:`~repro.sweep.result.ResultTable` back.  Two
sharing layers sit underneath:

* **in-process memoization** keyed by spec hash — Table 1, Figure 2 and
  §5.1 all need the standard-automaton CBP-1 sweeps and only the first
  requester pays for them;
* the **on-disk job cache** (:class:`~repro.sweep.cache.ResultCache`)
  passed through to :func:`~repro.sweep.executor.run_sweep` — distinct
  specs with overlapping cells (Figure 4's trace subset inside
  Figure 3's full suite) share per-job entries, fast-backend TAGE jobs
  share plane memmaps under ``<cache>/planes``, and an immediate re-run
  of the whole pipeline executes nothing at all.

The service also owns the sweep worker pool: one
:class:`~repro.sweep.broker.WorkerPool` for its whole lifetime, forked
lazily at the first sweep that has jobs to run on workers (a fully
cache-served session forks nothing) and shut down by :meth:`close` —
use the service as a context manager.  Workers therefore keep their
trace and plane memos from one grid to the next.

Finally the service owns the run accounting the ``repro paper`` CLI and
CI rely on: after a pipeline pass, ``n_executed == 0`` proves the run
was fully cache-served.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.backends import DEFAULT_BACKEND, validate_backend
from repro.sim.stats import SuiteSummary
from repro.sweep.broker import WorkerPool
from repro.sweep.cache import ResultCache
from repro.sweep.executor import SweepRun, run_sweep
from repro.sweep.spec import ExperimentSpec

__all__ = ["SweepService"]


class SweepService:
    """Memoizing front-end to :func:`run_sweep` for one artifact session."""

    def __init__(
        self,
        workers: int | None = 1,
        cache: ResultCache | None = None,
        backend: str = DEFAULT_BACKEND,
        progress: Callable[[str], None] | None = None,
        run_id: str | None = None,
        resume: bool = False,
        max_retries: int = 2,
    ) -> None:
        validate_backend(backend)
        self.workers = workers
        self.cache = cache
        self.backend = backend
        self.progress = progress
        self.run_id = run_id
        self.resume = resume
        self.max_retries = max_retries
        self.pool = WorkerPool()
        self._runs: dict[str, SweepRun] = {}

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a later pooled sweep
        would fork a fresh one)."""
        self.pool.close()

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def sweep(self, spec: ExperimentSpec) -> SweepRun:
        """Execute (or replay) one grid; memoized by spec hash.

        The service's backend overrides the spec's: the backend is
        bit-for-bit result-invariant and excluded from every hash, so
        the memo key and the on-disk entries are shared either way.

        When the service carries a ``run_id``, each distinct grid
        journals under ``<run_id>.<spec_hash>`` — one pipeline
        invocation produces one resumable journal per sweep, and
        ``resume=True`` continues any of them that were interrupted
        (grids whose journal is absent just start fresh).
        """
        key = spec.spec_hash()
        run = self._runs.get(key)
        if run is None:
            run = run_sweep(
                spec.with_options(backend=self.backend),
                workers=self.workers,
                cache=self.cache,
                progress=self.progress,
                run_id=f"{self.run_id}.{key}" if self.run_id else None,
                resume=self.resume,
                max_retries=self.max_retries,
                pool=self.pool,
            )
            self._runs[key] = run
        return run

    def results(self, spec: ExperimentSpec):
        """Raw per-job engine results of a grid, in grid order."""
        return self.sweep(spec).table.simulation_results()

    def summary(self, spec: ExperimentSpec) -> SuiteSummary:
        """Pooled suite summary of a grid (paper Tables 1-3 aggregates)."""
        return self.sweep(spec).table.summary()

    # -- accounting ----------------------------------------------------

    @property
    def runs(self) -> tuple[SweepRun, ...]:
        return tuple(self._runs.values())

    @property
    def n_jobs(self) -> int:
        """Grid cells requested across every distinct sweep."""
        return sum(run.n_jobs for run in self.runs)

    @property
    def n_cached(self) -> int:
        """Cells served from the on-disk result cache."""
        return sum(run.n_cached for run in self.runs)

    @property
    def n_executed(self) -> int:
        """Cells actually simulated (0 == fully cache-served)."""
        return sum(run.n_executed for run in self.runs)

    def describe(self) -> str:
        return (
            f"{len(self.runs)} sweep(s), {self.n_jobs} jobs "
            f"({self.n_cached} cached, {self.n_executed} executed)"
        )
