"""Process, sandbox and statistics helpers shared by the workloads.

Every program process the benchmark starts runs from the checkout's
``src/`` with a scrubbed environment: no inherited ``REPRO_*`` switch can
change what runs, and ``REPRO_CACHE_DIR`` / ``REPRO_COMPILED_CACHE``
point into a per-run sandbox under ``.perfbench-scratch/``, so neither
``~/.cache`` nor a ``.repro-cache/`` left in the checkout can turn a cold
run warm, and the one-time ``cext`` kernel build lands in set-up.

The host is shared and its speed drifts by tens of percent over seconds
to minutes, per vCPU.  So every program process is pinned to known CPUs,
and :class:`HostSpeed` samples a fixed reference loop on those CPUs
throughout the run: a run reports its times at the reference speed
recorded in ``expected.json`` (see ``README.md``, "Host speed").
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
SCRATCH_DIR = REPO_ROOT / ".perfbench-scratch"
LAUNCHER = BENCH_DIR / "launch.py"
SAMPLER = BENCH_DIR / "sampler.py"

#: Recorded facts the correctness gates compare against.
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())

#: Hard cap on any single program process, far above every seed timing.
PROCESS_TIMEOUT_S = 120.0

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: CPUs the benchmark may use.  A single-process workload runs pinned to
#: ``WORK_CPU``; the benchmark's own load generator runs on ``BENCH_CPU``.
CPUS = tuple(sorted(os.sched_getaffinity(0)))
WORK_CPU = CPUS[-1]
BENCH_CPU = CPUS[0]

#: Niceness of the benchmark process once its host-speed sampler runs,
#: and so of every program process it starts.  The sampler keeps the
#: default niceness, so on a shared CPU it runs as soon as it wakes
#: instead of sharing the CPU: it times the CPU, not the load on it.
PROGRAM_NICE = 19

#: Shortest interval a slowdown is taken over (about ten samples); the
#: host's fast and slow phases last about a second or more.
MIN_WINDOW_S = 2.0

#: About the mean time of a ``sampler.py`` sample on an idle CPU of the
#: host the numbers in ``README.md`` were recorded on.
REFERENCE_LOOP_S = EXPECTED["reference_loop_s"]


class GateFailure(RuntimeError):
    """A correctness gate failed: the run must not report numbers."""


def check_checkout() -> None:
    """Fail fast when the program's sources are not beside the benchmark."""
    if not (SRC_DIR / "repro" / "cli.py").is_file():
        raise GateFailure(f"no program sources under {SRC_DIR}")


@dataclass
class Sandbox:
    """One isolated scratch directory with its own cache roots."""

    root: Path

    def env(self, cache_dir: Path) -> dict:
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(SRC_DIR)
        env["TMPDIR"] = str(self.root)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env["REPRO_COMPILED_CACHE"] = str(self.root / "compiled")
        return env


def new_sandbox(label: str) -> Sandbox:
    root = SCRATCH_DIR / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
    root.mkdir(parents=True)
    return Sandbox(root)


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def pin(cpus) -> None:
    """Run the calling thread on ``cpus`` only."""
    os.sched_setaffinity(0, set(cpus))


class HostSpeed:
    """The host's speed on a workload's CPUs over one run.

    A context manager: on entry it starts ``sampler.py`` on ``cpus``;
    :meth:`stop` (called again on exit) stops and reaps it.  A slowdown
    is the mean reference-loop time of the samples taken over an interval
    divided by :data:`REFERENCE_LOOP_S`: 1.0 at the recorded speed, 2.0
    when the host ran at half of it.  A time divided by the slowdown of
    its own interval, or a rate multiplied by it, is stated at the
    recorded speed.
    """

    def __init__(self, cpus) -> None:
        self.cpus = tuple(cpus)
        self.samples: list[list[float]] = []
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "HostSpeed":
        self.proc = subprocess.Popen(
            [sys.executable, str(SAMPLER), ",".join(map(str, self.cpus))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=lambda: pin(self.cpus),
        )
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        """End sampling; the samples are then available."""
        if self.proc is None or self.proc.returncode is not None:
            return
        try:
            output, _ = self.proc.communicate("", timeout=30)
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode == 0:
            self.samples = json.loads(output)

    @property
    def slowdown(self) -> float:
        """Slowdown over the whole run."""
        return self.over(-math.inf, math.inf)

    def over(self, start: float, end: float) -> float:
        """Slowdown over ``[start, end]`` (``time.perf_counter`` values),
        widened about its middle to at least :data:`MIN_WINDOW_S`."""
        if not self.samples:
            raise GateFailure("the host-speed sampler took no samples")
        widen = max(0.0, MIN_WINDOW_S - (end - start)) / 2
        inside = [seconds for at, seconds in self.samples
                  if start - widen <= at <= end + widen]
        if not inside:
            return self.slowdown
        return statistics.fmean(inside) / REFERENCE_LOOP_S


@dataclass
class ProcessResult:
    returncode: int
    output: str
    started: float
    wall_s: float
    peak_rss_mb: float


def _signal(proc: subprocess.Popen, signum: int) -> None:
    """Signal ``proc`` unless it is reaped.  ``Popen.send_signal`` would
    reap an exited child itself and lose its resource usage."""
    if proc.returncode is None:
        os.kill(proc.pid, signum)


def _wait_with_usage(proc: subprocess.Popen, started: float) -> tuple[float, float]:
    """Reap ``proc``; (wall seconds, peak RSS MiB of it and its reaped children).

    ``wait4`` reports the larger of the process's own peak and that of
    every descendant it waited for, so forked sweep workers count too.
    """
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0


def _spawn(argv: list[str], env: dict, cwd: Path, cpus) -> subprocess.Popen:
    """Start a program process pinned to ``cpus``; stdout+stderr piped."""
    return subprocess.Popen(
        [sys.executable, *argv], env=env, cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        preexec_fn=lambda: pin(cpus),
    )


def run_program(argv: list[str], env: dict, cwd: Path, cpus,
                timeout: float = PROCESS_TIMEOUT_S) -> ProcessResult:
    """Run one program process on ``cpus`` to completion; output is
    stdout+stderr."""
    started = time.perf_counter()
    proc = _spawn(argv, env, cwd, cpus)
    killer = threading.Timer(timeout, _signal, (proc, signal.SIGKILL))
    killer.start()
    try:
        output = proc.stdout.read()
        proc.stdout.close()
        wall, rss = _wait_with_usage(proc, started)
    finally:
        killer.cancel()
    return ProcessResult(proc.returncode, output, started, wall, rss)


class ServerProcess:
    """A ``repro serve`` child: started, ready-waited, drained, reaped."""

    def __init__(self, argv: list[str], env: dict, cwd: Path, cpus) -> None:
        self.started = time.perf_counter()
        self.proc = _spawn(argv, env, cwd, cpus)
        self.lines: list[str] = []

    def wait_ready(self, timeout: float = 60.0) -> int:
        """Block until the ``serving on host:port`` banner; the port."""
        killer = threading.Timer(timeout, _signal, (self.proc, signal.SIGKILL))
        killer.start()
        try:
            for line in self.proc.stdout:
                self.lines.append(line)
                if line.startswith("serving on "):
                    address = line.split()[2]
                    return int(address.rsplit(":", 1)[1])
        finally:
            killer.cancel()
        self.stop()
        raise GateFailure("server exited before it was ready:\n"
                          + "".join(self.lines))

    def stop(self, timeout: float = 60.0) -> ProcessResult:
        """SIGTERM (graceful drain), read the rest, reap."""
        _signal(self.proc, signal.SIGTERM)
        killer = threading.Timer(timeout, _signal, (self.proc, signal.SIGKILL))
        killer.start()
        try:
            self.lines.extend(self.proc.stdout)
            self.proc.stdout.close()
            wall, rss = _wait_with_usage(self.proc, self.started)
        finally:
            killer.cancel()
        return ProcessResult(self.proc.returncode, "".join(self.lines),
                             self.started, wall, rss)


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
