"""The ``repro paper --quick`` workloads: cold, warm and pooled.

Each invocation is a fresh ``repro`` process; wall-clock covers
interpreter start, imports, the whole pipeline and the report writes.
The paper workloads take no seed: the artifact registry fixes their
traces, which is also what lets the reports be checked byte for byte.

``paper-cold`` and ``paper-warm`` run pinned to one CPU, ``paper-pool``
on all; the host's speed is sampled on those CPUs throughout the run,
and the run's times are stated at the reference speed
(:class:`common.HostSpeed`).
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from common import (
    CPUS,
    EXPECTED,
    LAUNCHER,
    SETUP_REPEATS,
    WORK_CPU,
    GateFailure,
    HostSpeed,
    Sandbox,
    median,
    new_sandbox,
    remove_tree,
    run_program,
)

#: Sweep worker processes per workload (2 = this box's nproc).
WORKERS = {"paper-cold": 1, "paper-warm": 1, "paper-pool": 2}

#: CPUs each workload's processes run on: one for the inline sweeps,
#: every one for the pool.
WORKLOAD_CPUS = {"paper-cold": (WORK_CPU,), "paper-warm": (WORK_CPU,),
                 "paper-pool": CPUS}

_SUMMARY = re.compile(
    r"^\d+ artifact\(s\), (\d+) sweep jobs \((\d+) cached, (\d+) executed\)",
    re.MULTILINE,
)
_RETRIES = re.compile(r"; (\d+) retr(?:y|ies)")
_QUARANTINED = re.compile(r"; (\d+) QUARANTINED")


@dataclass
class Invocation:
    started: float
    wall_s: float
    peak_rss_mb: float
    jobs: int
    records: int
    failed: int
    trace: dict | None = None


def check_provider(sandbox: Sandbox, cpus) -> None:
    """Resolve (and build, on first use) the compiled provider; gate it."""
    result = run_program(
        ["-m", "repro", "capability", "--predictor", "tage-16K",
         "--estimator", "tage"],
        sandbox.env(sandbox.root / "cache"), sandbox.root, cpus,
    )
    rows = [line.split() for line in result.output.splitlines()]
    provider = next((row[3] for row in rows if row[:1] == ["fast"]), None)
    if result.returncode != 0 or provider != EXPECTED["provider"]:
        raise GateFailure(
            f"compiled provider is {provider!r}, expected "
            f"{EXPECTED['provider']!r}:\n{result.output}"
        )


def invoke(sandbox: Sandbox, cache_dir: Path, workers: int, cpus,
           expected_executed: int, traced: bool = False) -> Invocation:
    """One gated ``repro paper --quick`` process over ``cache_dir``."""
    out = sandbox.root / f"out-{time.monotonic_ns()}"
    args = ["paper", "--quick", "--backend", "fast",
            "--workers", str(workers), "--out", str(out)]
    spans_path = out.with_suffix(".spans.json")
    argv = [str(LAUNCHER), str(spans_path), *args] if traced else ["-m", "repro", *args]
    result = run_program(argv, sandbox.env(cache_dir), sandbox.root, cpus)
    try:
        if result.returncode != 0:
            raise GateFailure(f"repro paper exited {result.returncode}:\n"
                              f"{result.output[-2000:]}")
        summary = _SUMMARY.search(result.output)
        if summary is None:
            raise GateFailure("repro paper printed no run summary")
        jobs, _, executed = (int(group) for group in summary.groups())
        if jobs != EXPECTED["paper"]["jobs"] or executed != expected_executed:
            raise GateFailure(
                f"repro paper ran {jobs} jobs with {executed} executed; "
                f"expected {EXPECTED['paper']['jobs']} with {expected_executed}"
            )
        for name, digest in EXPECTED["paper"]["sha256"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            if actual != digest:
                raise GateFailure(
                    f"{name} differs from the recorded digest ({actual})")
        scale = json.loads((out / "paper_results.json").read_text())["scale"]
        failed = sum(int(n) for n in _RETRIES.findall(result.output))
        failed += sum(int(n) for n in _QUARANTINED.findall(result.output))
        trace = json.loads(spans_path.read_text()) if traced else None
    finally:
        remove_tree(out)
        spans_path.unlink(missing_ok=True)
    return Invocation(result.started, result.wall_s, result.peak_rss_mb, jobs,
                      jobs * scale["n_branches"], failed, trace)


def _set_up(workload: str, sandboxes: list[Sandbox]) -> list[tuple]:
    """Add ``SETUP_REPEATS`` sandboxes, each with a built kernel (and, for
    ``paper-warm``, a cache filled by one gated cold run); the (start,
    seconds) of each set-up."""
    cpus = WORKLOAD_CPUS[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        sandbox = new_sandbox(workload)
        sandboxes.append(sandbox)
        check_provider(sandbox, cpus)
        if workload == "paper-warm":
            invoke(sandbox, sandbox.root / "cache", 1, cpus,
                   EXPECTED["paper"]["cold_executed"])
        times.append((started, time.perf_counter() - started))
    return times


def run(workload: str, seconds: float, traced: bool, speed: HostSpeed) -> dict:
    """Set up, invoke for ``seconds`` and report; ``speed`` is sampling."""
    sandboxes: list[Sandbox] = []
    try:
        setup_times = _set_up(workload, sandboxes)
        plain, with_spans = _invoke_for(workload, seconds, traced, sandboxes)
    finally:
        for sandbox in sandboxes:
            remove_tree(sandbox.root)
    speed.stop()

    every = plain + with_spans
    slowdown = speed.slowdown
    counts = {
        "attempted": sum(inv.jobs for inv in every),
        "failed": sum(inv.failed for inv in every),
        "samples": f"{len(plain)} untraced and {len(with_spans)} traced "
                   f"invocations, {len(setup_times)} set-ups, "
                   f"{len(speed.samples)} speed samples",
        "slowdown": slowdown,
    }
    if traced:
        values = _layer_metrics(plain, with_spans, speed)
        values["host.slowdown"] = slowdown
        return {**counts, "values": values}
    wall = median(_scaled_walls(plain, speed))
    return {**counts, "values": {
        "wall_s": wall,
        "setup_s": median(seconds / speed.over(start, start + seconds)
                          for start, seconds in setup_times),
        "peak_rss_mb": median(inv.peak_rss_mb for inv in plain),
        "serve_rps": median(inv.records for inv in plain) / wall,
        "open_p50_ms": wall * 1000.0,
    }}


def _invoke_for(workload, seconds, traced, sandboxes):
    """Invocations until ``seconds`` have passed, but at least one plain
    and, when ``traced``, one traced; traced ones alternate with plain
    ones.  Returns (plain, traced) invocations."""
    warm = workload == "paper-warm"
    expected_executed = 0 if warm else EXPECTED["paper"]["cold_executed"]
    plain: list[Invocation] = []
    with_spans: list[Invocation] = []
    started = time.perf_counter()
    count = 0
    while (time.perf_counter() - started < seconds
           or not plain or (traced and not with_spans)):
        sandbox = sandboxes[count % len(sandboxes)]
        cache_dir = sandbox.root / ("cache" if warm else f"cold-{count}")
        use_spans = traced and count % 2 == 1
        invocation = invoke(sandbox, cache_dir, WORKERS[workload],
                            WORKLOAD_CPUS[workload], expected_executed,
                            traced=use_spans)
        (with_spans if use_spans else plain).append(invocation)
        if not warm:
            remove_tree(cache_dir)
        count += 1
    return plain, with_spans


def _scaled_walls(invocations: list[Invocation], speed: HostSpeed) -> list[float]:
    """Each invocation's wall at the reference speed."""
    return [inv.wall_s / speed.over(inv.started, inv.started + inv.wall_s)
            for inv in invocations]


def _layer_metrics(plain: list[Invocation], with_spans: list[Invocation],
                   speed: HostSpeed) -> dict:
    per_run = []
    for inv in with_spans:
        layers = spans.layer_metrics(inv.trace["spans"])
        program_s = inv.wall_s - inv.trace["install_s"]
        attributed = inv.trace["import_s"] + layers.pop("root_s")
        layers["cli.import_s"] = inv.trace["import_s"]
        layers["unattributed_share"] = (program_s - attributed) / program_s
        per_run.append(layers)
    values = {name: median(layers[name] for layers in per_run)
              for name in per_run[0]}
    values["trace_overhead_share"] = (
        median(_scaled_walls(with_spans, speed))
        / median(_scaled_walls(plain, speed)) - 1.0
    )
    return values
