"""In-memory spans at the program's layer boundaries, and what they add up to.

:func:`install` wraps public functions and class methods of each layer
(named by module) so every call records a span ``[layer, name, start,
end, parent, extra]`` in a list held in memory; the launcher writes the
list out once, when the program exits.  A function is patched on *every*
``repro.*`` module binding it, because a ``from x import f`` binding is
not reached by wrapping ``x.f``.  Methods are patched on their class.

:func:`layer_metrics` turns one process's span list into the per-layer
metrics.  A layer's self time is its spans' durations minus the parts
their child spans cover.  Counts come from the outermost span of a
layer, so a layer calling itself is not counted twice.

Sweep workers forked by ``--workers 2`` inherit the wrappers, but their
spans die with them: only the broker's spans are visible from outside.
``sweep.worker_busy_s`` (the summed ``JobResult.elapsed`` of executed
jobs, read from each ``run_sweep`` result) stands in for the worker side.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


class Recorder:
    """Span store for one process; a per-thread stack supplies parents."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn, note=None):
        """``fn`` recording a span per call; ``note(result, args)`` adds extras."""
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(result, args)
            return result

        return traced

    def patch_method(self, cls, attr: str, layer: str, note=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr,
                self.wrap(layer, f"{cls.__name__}.{attr}", original, note))

    def patch_function(self, module, attr: str, layer: str, note=None) -> None:
        original = getattr(module, attr)
        traced = self.wrap(layer, attr, original, note)
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)


def _one_cell(result, args):
    return {"cells": 1, "branches": len(args[0])}


def _lockstep_cells(result, args):
    n_cells = len(args[1])
    return {"cells": n_cells, "branches": n_cells * len(args[0]),
            "fused": n_cells}


def _hit(result, args):
    return {"hit": result is not None}


def _sweep_run(run, args):
    busy = sum(result.elapsed for result in run.table
               if not result.from_cache)
    return {"busy": busy, "workers": run.workers}


def _units(units, args):
    return {"units": len(units)}


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro import apps, artifacts, serve
    from repro.artifacts import runner
    from repro.sim import engine, observe
    from repro.sim.fast import lockstep, planes
    from repro.sweep import cache, executor, journal
    from repro.traces import workload
    from repro.traces.sources import base

    for fn in ("simulate", "simulate_binary"):
        recorder.patch_function(engine, fn, "kernel", _one_cell)
    recorder.patch_function(observe, "observe_trace", "kernel", _one_cell)
    recorder.patch_function(lockstep, "simulate_tage_lockstep", "kernel",
                            _lockstep_cells)

    recorder.patch_method(planes.PlaneCache, "load_or_compute", "planes")
    recorder.patch_method(planes.PlaneCache, "load", "planes", _hit)
    recorder.patch_function(planes, "compute_planes", "planes")

    for attr in ("__init__", "generate"):
        recorder.patch_method(workload.SyntheticWorkload, attr, "traces")
    recorder.patch_method(base.TraceSource, "generate", "traces")

    recorder.patch_method(cache.ResultCache, "load", "cache", _hit)
    recorder.patch_method(cache.ResultCache, "store", "cache")
    recorder.patch_method(journal.RunJournal, "append", "journal")

    recorder.patch_method(artifacts.SweepService, "sweep", "sweep")
    recorder.patch_function(executor, "run_sweep", "sweep", _sweep_run)
    recorder.patch_function(executor, "plan_lockstep", "sweep", _units)
    recorder.patch_function(executor, "execute_work", "sweep")

    recorder.patch_function(runner, "run_paper", "artifacts")
    recorder.patch_function(runner, "build_artifact", "artifacts")
    recorder.patch_function(runner, "write_reports", "artifacts")

    for model in (apps.FetchGatingModel, apps.MultipathModel, apps.SmtFetchModel):
        for attr in ("run", "replay"):
            recorder.patch_method(model, attr, "apps")
    recorder.patch_method(apps.SmtFetchModel, "observe_threads", "apps")

    recorder.patch_method(serve.TenantSession, "__init__", "serve")
    recorder.patch_method(serve.TenantSession, "observe_batch", "serve")


# ---------------------------------------------------------------------------
# Span list -> per-layer metrics.
# ---------------------------------------------------------------------------

#: Per-layer metrics read from one program process's spans.
SPAN_METRICS = (
    ("traces.synth_s", "s"), ("traces.synth_calls", "count"),
    ("planes.compute_s", "s"), ("planes.computed", "count"),
    ("planes.loaded", "count"), ("planes.hit_ratio", "ratio"),
    ("kernel.self_s", "s"), ("kernel.cells", "count"),
    ("kernel.branches_per_s", "1/s"), ("kernel.lockstep_fused", "count"),
    ("cache.store_s", "s"), ("cache.stores", "count"),
    ("cache.load_s", "s"), ("cache.loads", "count"),
    ("cache.hit_ratio", "ratio"),
    ("journal.append_s", "s"), ("journal.appends", "count"),
    ("sweep.self_s", "s"), ("sweep.units", "count"),
    ("sweep.worker_busy_s", "s"), ("sweep.pool_util", "ratio"),
    ("artifacts.self_s", "s"), ("artifacts.write_s", "s"),
    ("apps.self_s", "s"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one process (see :data:`SPAN_METRICS`).

    Also returns ``root_s``, the time covered by top-level spans, which
    the caller needs for ``unattributed_share``.
    """
    child_time = [0.0] * len(spans)
    for layer, name, start, end, parent, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def outermost(index: int) -> bool:
        layer = spans[index][0]
        parent = spans[index][4]
        while parent >= 0:
            if spans[parent][0] == layer:
                return False
            parent = spans[parent][4]
        return True

    self_s: dict[str, float] = {}
    outer_s: dict[str, float] = {}
    synth_calls = 0
    by_name: dict[str, list] = {}
    total = dict.fromkeys(("cells", "branches", "fused", "units", "busy"), 0.0)
    root_s = 0.0
    sweep_capacity = 0.0
    for index, span in enumerate(spans):
        layer, name, start, end, parent, extra = span
        duration = end - start
        self_s[layer] = self_s.get(layer, 0.0) + duration - child_time[index]
        by_name.setdefault(name, []).append(span)
        if parent < 0:
            root_s += duration
        if name == "run_sweep" and extra:
            sweep_capacity += extra["workers"] * duration
        is_outer = outermost(index)
        if is_outer:
            outer_s[layer] = outer_s.get(layer, 0.0) + duration
            synth_calls += layer == "traces" and name.endswith(".generate")
        if extra and (is_outer or layer != "kernel"):
            for key, value in extra.items():
                if key in total:
                    total[key] += value

    def calls(name: str) -> list:
        return by_name.get(name, [])

    def seconds(name: str) -> float:
        return sum(end - start for _, _, start, end, _, _ in calls(name))

    def hits(name: str) -> int:
        return sum(1 for span in calls(name) if (span[5] or {}).get("hit"))

    planes_loaded = hits("PlaneCache.load")
    planes_computed = len(calls("compute_planes"))
    cache_hits = hits("ResultCache.load")
    kernel_self = self_s.get("kernel", 0.0)
    return {
        "traces.synth_s": outer_s.get("traces", 0.0),
        "traces.synth_calls": synth_calls,
        "planes.compute_s": outer_s.get("planes", 0.0),
        "planes.computed": planes_computed,
        "planes.loaded": planes_loaded,
        "planes.hit_ratio": _ratio(planes_loaded, planes_loaded + planes_computed),
        "kernel.self_s": kernel_self,
        "kernel.cells": total["cells"],
        "kernel.branches_per_s": _ratio(total["branches"], kernel_self),
        "kernel.lockstep_fused": total["fused"],
        "cache.store_s": seconds("ResultCache.store"),
        "cache.stores": len(calls("ResultCache.store")),
        "cache.load_s": seconds("ResultCache.load"),
        "cache.loads": len(calls("ResultCache.load")),
        "cache.hit_ratio": _ratio(cache_hits, len(calls("ResultCache.load"))),
        "journal.append_s": seconds("RunJournal.append"),
        "journal.appends": len(calls("RunJournal.append")),
        "sweep.self_s": self_s.get("sweep", 0.0),
        "sweep.units": total["units"],
        "sweep.worker_busy_s": total["busy"],
        "sweep.pool_util": _ratio(total["busy"], sweep_capacity),
        "artifacts.self_s": self_s.get("artifacts", 0.0) - seconds("write_reports"),
        "artifacts.write_s": seconds("write_reports"),
        "apps.self_s": self_s.get("apps", 0.0),
        "root_s": root_s,
    }
