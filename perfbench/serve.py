"""The ``serve`` workload: a fresh ``repro serve`` driven over two connections.

Set-up synthesises the served trace from the benchmark's seed with the
program's own workload generator, writes it as an RTRC file and starts
the server; the benchmark then reads the trace back through
``file:<path>``, so the server receives only the generated records.

The measured part alternates ``ROUNDS`` segments of two phases over the
same 2 connections, one tenant each:

* closed loop -- each client sends its next 256-record batch only when
  the previous reply arrived;
* open loop -- batches due at a fixed rate (``expected.json``) are
  pipelined over both connections, each timed from its *scheduled* send
  time.

Each connection walks on through the trace, cycling when it ends.

The server runs pinned to one CPU and the load generator to the other;
the host's speed is sampled on both throughout the run, and the run's
times and rates are stated at the reference speed
(:class:`common.HostSpeed`).  ``wall_s`` is not: the server's lifetime
is set by the fixed phase schedule.

Outside the timed window ``run_differential_check`` replays a prefix of
the trace through a fresh tenant and requires the served decisions to
equal the offline reference engine's.

The load loops and the percentile are the benchmark's own rather than
``repro.serve.driver``'s, so a change to the program's driver cannot move
the measurement, and so the open loop can record how late it sent.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

import spans
from common import (
    BENCH_CPU,
    CPUS,
    EXPECTED,
    LAUNCHER,
    SETUP_REPEATS,
    WORK_CPU,
    GateFailure,
    HostSpeed,
    Sandbox,
    ServerProcess,
    median,
    nearest_rank,
    new_sandbox,
    pin,
    remove_tree,
)

CONFIG = EXPECTED["serve"]
#: CPUs the server (``WORK_CPU``) and the load generator run on.
CPUS_USED = CPUS
#: Share of the run given to the open-loop phase (the rest is closed loop).
OPEN_SHARE = 0.25
#: Closed/open alternations per run.
ROUNDS = 16
#: Branches the served == offline check replays.
DIFFERENTIAL_BRANCHES = 16_384
#: Open-loop replies needed for ten samples beyond p95.
P95_MIN_SAMPLES = 200
_SERVE_ARGS = ["serve", "--port", "0"]


def _session(tenant: str):
    from repro.serve import SessionSpec

    return SessionSpec(tenant=tenant, predictor=CONFIG["predictor"],
                       estimator=CONFIG["estimator"])


def _synthesise(seed: int, path) -> float:
    """Write the seed's trace to ``path``; seconds spent in synthesis."""
    from repro.traces.io import write_trace
    from repro.traces.workload import SyntheticWorkload, WorkloadSpec

    started = time.perf_counter()
    trace = SyntheticWorkload(WorkloadSpec(name=f"serve-{seed}", seed=seed)) \
        .generate(CONFIG["trace_branches"])
    synth_s = time.perf_counter() - started
    write_trace(trace, path)
    return synth_s


def _batches(trace) -> list[tuple]:
    size = CONFIG["batch"]
    return [(trace.pcs[i:i + size], trace.takens[i:i + size])
            for i in range(0, len(trace), size)]


class Tally:
    def __init__(self) -> None:
        self.sent = 0
        self.answered = 0
        self.records = 0
        self.open_replies = 0

    @property
    def failed(self) -> int:
        """Rejected, timed-out and unanswered batches."""
        return self.sent - self.answered


async def _connect(port: int, tenant: str):
    from repro.serve import ServeClient

    client = await ServeClient.connect("127.0.0.1", port)
    await client.hello(_session(tenant))
    return client


async def _closed_segment(client, batches, index, deadline, tally) -> int:
    """Closed loop on one connection until ``deadline``; the next index."""
    from repro.serve import ServeRejected, ServeTimeout

    loop = asyncio.get_running_loop()
    while loop.time() < deadline:
        pcs, takens = batches[index % len(batches)]
        index += 1
        tally.sent += 1
        try:
            await client.observe(pcs, takens)
        except (ServeRejected, ServeTimeout):
            continue
        tally.answered += 1
        tally.records += len(pcs)
    return index


async def _open_segment(client, slots, batches, index, epoch, rate,
                        latencies, lateness, tally) -> int:
    """Pipelined open loop on one connection: slot ``j`` of ``slots`` is
    sent at ``epoch + j / rate`` whatever the replies do, and its latency
    runs from that scheduled time.  Returns the next batch index."""
    from repro.serve import ServeRejected, ServeTimeout

    loop = asyncio.get_running_loop()
    sent: asyncio.Queue = asyncio.Queue()

    async def sender():
        for offset, slot in enumerate(slots):
            target = epoch + slot / rate
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            pcs, takens = batches[(index + offset) % len(batches)]
            lateness.append(loop.time() - target)
            await client.send_observe(pcs, takens)
            tally.sent += 1
            sent.put_nowait(target)

    async def receiver():
        for _ in slots:
            target = await sent.get()
            try:
                await client.recv_result()
            except (ServeRejected, ServeTimeout):
                continue
            latencies.append(loop.time() - target)
            tally.answered += 1
            tally.open_replies += 1

    sending = asyncio.ensure_future(sender())
    try:
        await receiver()
    finally:
        await sending
    return index + len(slots)


@dataclass
class Load:
    """What one :func:`drive` measured, per segment, as measured."""

    #: (start, end, records answered) of each closed-loop segment.
    closed: list = field(default_factory=list)
    #: (start, end, latencies in seconds) of each open-loop segment.
    open: list = field(default_factory=list)
    #: Seconds each open-loop batch was sent after its scheduled time.
    lateness: list = field(default_factory=list)

    def summary(self, speed: HostSpeed) -> dict:
        """The load metrics, each segment's stated at the reference speed
        by the host's slowdown over that segment."""
        rates = [records / (end - start) * speed.over(start, end)
                 for start, end, records in self.closed]
        latencies = []
        for start, end, segment in self.open:
            slowdown = speed.over(start, end)
            latencies.extend(latency / slowdown for latency in segment)
        return {
            "serve_rps": median(rates),
            "open_p50_ms": nearest_rank(latencies, 50) * 1000.0,
            "open_p95_ms": nearest_rank(latencies, 95) * 1000.0,
            "driver.late_p99_ms": nearest_rank(self.lateness, 99) * 1000.0,
        }


async def drive(port: int, label: str, batches, seconds: float) -> tuple[Load, Tally]:
    """``ROUNDS`` closed-loop segments, each followed by an open-loop one,
    over the same 2 connections.

    Spreading both phases over the whole run samples the box at several
    moments instead of one.  Each connection keeps its tenant throughout
    and walks on through the trace.
    """
    loop = asyncio.get_running_loop()
    rate = CONFIG["open_rate_per_s"]
    n_clients = CONFIG["clients"]
    n_open = max(P95_MIN_SAMPLES, round(rate * OPEN_SHARE * seconds))
    closed_s = max(2.0, seconds - n_open / rate) / ROUNDS
    tally = Tally()
    load = Load()
    clients = []
    try:
        for n in range(n_clients):
            clients.append(await _connect(port, f"{label}.{n}"))
        indices = [0] * n_clients
        for round_ in range(ROUNDS):
            records = tally.records
            started = time.perf_counter()
            deadline = loop.time() + closed_s
            indices = await asyncio.gather(*(
                _closed_segment(client, batches, indices[n], deadline, tally)
                for n, client in enumerate(clients)
            ))
            load.closed.append((started, time.perf_counter(),
                                tally.records - records))
            n_due = (round_ + 1) * n_open // ROUNDS - round_ * n_open // ROUNDS
            latencies: list[float] = []
            started = time.perf_counter()
            epoch = loop.time()
            indices = await asyncio.gather(*(
                _open_segment(client, range(n, n_due, n_clients), batches,
                              indices[n], epoch, rate, latencies,
                              load.lateness, tally)
                for n, client in enumerate(clients)
            ))
            load.open.append((started, time.perf_counter(), latencies))
    finally:
        for client in clients:
            await client.close()
    n_replies = sum(len(segment) for _, _, segment in load.open)
    if n_replies < P95_MIN_SAMPLES:
        raise GateFailure(f"only {n_replies} open-loop replies: p95 "
                          f"needs {P95_MIN_SAMPLES} for ten samples beyond it")
    return load, tally


def _start(sandbox: Sandbox, spans_path=None) -> tuple[ServerProcess, int]:
    env = sandbox.env(sandbox.root / "cache")
    argv = (["-m", "repro", *_SERVE_ARGS] if spans_path is None
            else [str(LAUNCHER), str(spans_path), *_SERVE_ARGS])
    server = ServerProcess(argv, env, sandbox.root, (WORK_CPU,))
    port = server.wait_ready()
    # The banner prints just before the drain handlers are installed; a
    # completed round trip proves the loop is serving with them in place.
    asyncio.run(_hello(port, "ready"))
    return server, port


async def _hello(port: int, tenant: str) -> None:
    from repro.serve import ServeClient

    client = await ServeClient.connect("127.0.0.1", port)
    try:
        await client.hello(_session(tenant))
    finally:
        await client.close()


def _stop(server: ServerProcess) -> tuple[object, dict]:
    result = server.stop()
    banner = next((line for line in result.output.splitlines()
                   if line.startswith("drained: ")), None)
    if result.returncode != 0 or banner is None:
        raise GateFailure(f"repro serve exited {result.returncode}:\n"
                          f"{result.output[-2000:]}")
    words = banner.replace(",", "").split()
    counts = {"serve.answered": int(words[1]), "serve.rejected": int(words[3]),
              "serve.timed_out": int(words[5])}
    return result, counts


def _check_served_equals_offline(port: int, trace_name: str, label: str) -> None:
    from repro.serve import DifferentialMismatchError, run_differential_check

    try:
        run_differential_check("127.0.0.1", port, _session(f"{label}.verify"),
                               trace_name, DIFFERENTIAL_BRANCHES)
    except DifferentialMismatchError as error:
        raise GateFailure(f"served != offline: {error}") from None


def _state_rps(batches) -> float:
    """Offline ``TenantSession.observe_batch`` records/s over the trace."""
    from repro.serve import TenantSession

    session = TenantSession(_session("offline"))
    started = time.perf_counter()
    for pcs, takens in batches:
        session.observe_batch(pcs, takens)
    return sum(len(pcs) for pcs, _ in batches) / (time.perf_counter() - started)


def run(seed: int, seconds: float, traced: bool, speed: HostSpeed) -> dict:
    """Set up, drive for ``seconds`` and report; ``speed`` is sampling."""
    pin((BENCH_CPU,))
    sandbox = new_sandbox("serve")
    try:
        return _run(sandbox, seed, seconds, traced, speed)
    finally:
        remove_tree(sandbox.root)


def _run(sandbox: Sandbox, seed: int, seconds: float, traced: bool,
         speed: HostSpeed) -> dict:
    from repro.sim.runner import get_trace

    setup_times, synth_times = [], []
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                _stop(server)
            started = time.perf_counter()
            path = sandbox.root / f"served-{attempt}.rtrc"
            synth_times.append(_synthesise(seed, path))
            server, port = _start(sandbox)
            setup_times.append((started, time.perf_counter() - started))
        trace_name = f"file:{path}"
        batches = _batches(get_trace(trace_name, CONFIG["trace_branches"]))

        load, tally = asyncio.run(drive(port, f"bench.{seed}", batches, seconds))
        _check_served_equals_offline(port, trace_name, f"bench.{seed}")
        result, drained = _stop(server)
        if traced:
            spans_path = sandbox.root / "server.spans.json"
            server, port = _start(sandbox, spans_path)
            traced_load, _ = asyncio.run(
                drive(port, f"bench.{seed}.traced", batches, seconds))
            _stop(server)
    finally:
        if server is not None and server.proc.returncode is None:
            server.stop()
    speed.stop()

    slowdown = speed.slowdown
    loaded = load.summary(speed)
    counts = {
        "attempted": tally.sent,
        "failed": tally.failed,
        "samples": f"{ROUNDS} closed-loop segments, {tally.open_replies} "
                   f"open-loop replies, {len(setup_times)} set-ups, "
                   f"{len(speed.samples)} speed samples",
        "slowdown": slowdown,
    }
    if not traced:
        return {**counts, "values": {
            "wall_s": result.wall_s,
            "setup_s": median(seconds / speed.over(start, start + seconds)
                              for start, seconds in setup_times),
            "peak_rss_mb": result.peak_rss_mb,
            "serve_rps": loaded["serve_rps"],
            "open_p50_ms": loaded["open_p50_ms"],
        }}

    dump = json.loads(spans_path.read_text())
    values = spans.layer_metrics(dump["spans"])
    values.pop("root_s")
    serve_rps = median(records / (end - start)
                       for start, end, records in load.closed)
    state_rps = _state_rps(batches)
    values.update(drained)
    values.update({
        "cli.import_s": dump["import_s"],
        "traces.synth_s": median(synth_times),
        "traces.synth_calls": 1,
        "serve.state_rps": state_rps,
        "serve.wire_us_per_record": (1.0 / serve_rps - 1.0 / state_rps) * 1e6,
        "serve.open_p95_ms": loaded["open_p95_ms"],
        "driver.late_p99_ms": loaded["driver.late_p99_ms"],
        "trace_overhead_share": loaded["serve_rps"]
        / traced_load.summary(speed)["serve_rps"] - 1.0,
        "host.slowdown": slowdown,
    })
    return {**counts, "values": values}
