"""Load generation and measurement for the confidence server.

The driver replays deterministic request streams — any registered trace
source name resolves through :func:`repro.sim.runner.get_trace`, so CBP
suites, the scenario zoo and ``file:<path>`` replays all drive the
server — and reports what the HPC-workload-characterization literature
asks for: latency *percentiles* and throughput/saturation *curves*, not
single averages.

Two load modes:

* **closed loop** — ``n`` concurrent clients, each on its own tenant,
  sending the next batch only when the previous reply arrives.  Offered
  load tracks service capacity; sweeping the client count yields the
  saturation curve (throughput flattens while latency climbs once the
  server's one core is busy).  With ``retries > 0`` (CLI:
  ``repro drive --retries``), REJECTED/TIMEOUT replies — which mean the
  batch was not applied — are re-sent with capped backoff before being
  counted as losses; re-sends are tallied per point.
* **open loop** — batches are injected at a fixed arrival *rate*,
  regardless of completions, pipelined over the connections.  Latency
  is measured from the scheduled arrival time (not the actual send), so
  queueing delay during overload is charged to the server — the
  coordinated-omission-free measurement.  Rejects and timeouts are
  counted, not retried.

:func:`differential_check` is the serving layer's correctness anchor: a
trace replayed through a fresh tenant must produce the bit-identical
per-branch (prediction, confidence) stream of :func:`offline_decisions`
— one un-batched pass of the reference stepper
:func:`repro.sim.engine.step` over the cell
:func:`repro.sim.runner.build_cell` builds — so wire, shard and batch
splitting provably change nothing; its aggregate counts must match the
offline :func:`repro.sim.engine.simulate` for the same cell.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.serve.client import (
    DecisionStream,
    ServeClient,
    ServeError,
    ServeRejected,
    ServeTimeout,
)
from repro.serve.state import SessionSpec, TenantSession
from repro.sim.engine import simulate, simulate_binary
from repro.sim.runner import get_trace

__all__ = [
    "DriveConfig",
    "DrivePoint",
    "DriveReport",
    "DifferentialMismatchError",
    "percentile",
    "drive",
    "run_drive",
    "offline_decisions",
    "differential_check",
    "run_differential_check",
]


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of an unsorted sample list (q in [0, 100])."""
    if not samples:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[int(rank) - 1]


@dataclass(frozen=True)
class DriveConfig:
    """One driver invocation: where, what and how hard.

    ``clients`` is the closed-loop concurrency sweep (one saturation
    point per entry); ``rates`` is the open-loop arrival-rate sweep in
    batches/second.  Tenants are derived per point and per client from
    ``tenant_prefix``, so every point starts from power-on state.
    """

    host: str = "127.0.0.1"
    port: int = 7421
    trace: str = "INT-1"
    n_branches: int = 20_000
    predictor: str = "tage-16K"
    estimator: str = "tage"
    adaptive: bool = False
    target_mkp: float = 10.0
    seed: int | None = None
    mode: str = "closed"
    clients: tuple[int, ...] = (1, 2, 4)
    rates: tuple[float, ...] = (50.0,)
    batch_size: int = 256
    tenant_prefix: str = "drive"
    connect_timeout: float = 5.0
    retries: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.n_branches < 1:
            raise ValueError(f"n_branches must be >= 1, got {self.n_branches}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.mode == "closed" and not all(n >= 1 for n in self.clients):
            raise ValueError(f"client counts must be >= 1, got {self.clients}")
        if self.mode == "open" and not all(r > 0 for r in self.rates):
            raise ValueError(f"arrival rates must be positive, got {self.rates}")
        # Fail on a bad predictor/estimator/adaptive combination here,
        # before any connection is attempted — SessionSpec validates
        # the cell eagerly.
        self.session_spec("probe")

    def session_spec(self, tenant: str) -> SessionSpec:
        return SessionSpec(
            tenant=tenant,
            predictor=self.predictor,
            estimator=self.estimator,
            adaptive=self.adaptive,
            target_mkp=self.target_mkp,
            seed=self.seed,
        )


@dataclass(frozen=True)
class DrivePoint:
    """One measured load point of the throughput/saturation curve."""

    mode: str
    clients: int
    rate: float | None          # offered batches/s (open loop only)
    n_requests: int             # answered observe batches
    n_records: int              # branch records applied
    n_rejected: int
    n_timed_out: int
    n_retries: int              # re-sent batches (closed loop, --retries)
    elapsed: float              # wall seconds for the point
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float

    @property
    def throughput_rps(self) -> float:
        """Applied branch records per second."""
        if self.elapsed <= 0:
            return 0.0
        return self.n_records / self.elapsed

    @property
    def requests_per_s(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.n_requests / self.elapsed

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "clients": self.clients,
            "rate": self.rate,
            "n_requests": self.n_requests,
            "n_records": self.n_records,
            "n_rejected": self.n_rejected,
            "n_timed_out": self.n_timed_out,
            "n_retries": self.n_retries,
            "elapsed_s": self.elapsed,
            "throughput_rps": self.throughput_rps,
            "requests_per_s": self.requests_per_s,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
        }


@dataclass
class DriveReport:
    """A full driver run: the swept load points plus their common cell."""

    trace: str
    predictor: str
    estimator: str
    n_branches: int
    batch_size: int
    mode: str
    points: list[DrivePoint] = field(default_factory=list)

    @property
    def peak_throughput_rps(self) -> float:
        return max((p.throughput_rps for p in self.points), default=0.0)

    def as_dict(self) -> dict:
        return {
            "trace": self.trace,
            "predictor": self.predictor,
            "estimator": self.estimator,
            "n_branches": self.n_branches,
            "batch_size": self.batch_size,
            "mode": self.mode,
            "peak_throughput_rps": self.peak_throughput_rps,
            "points": [point.as_dict() for point in self.points],
        }


def _split_batches(trace, batch_size: int):
    """The trace as (pcs, takens) request batches, in trace order."""
    pcs = trace.pcs
    takens = trace.takens
    return [
        (pcs[start:start + batch_size], takens[start:start + batch_size])
        for start in range(0, len(trace), batch_size)
    ]


async def _closed_client(config, tenant, batches, latencies, counts):
    client = await ServeClient.connect(
        config.host, config.port, config.connect_timeout,
        max_retries=config.retries,
    )
    loop = asyncio.get_running_loop()
    try:
        await client.hello(config.session_spec(tenant))
        for pcs, takens in batches:
            started = loop.time()
            try:
                await client.observe(pcs, takens)
            except ServeRejected:
                counts["rejected"] += 1
                continue
            except ServeTimeout:
                counts["timed_out"] += 1
                continue
            latencies.append(loop.time() - started)
            counts["requests"] += 1
            counts["records"] += len(pcs)
    finally:
        counts["retries"] += client.n_retries
        await client.close()


async def _closed_point(config, batches, n_clients, point_label) -> DrivePoint:
    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    counts = {"requests": 0, "records": 0, "rejected": 0, "timed_out": 0,
              "retries": 0}
    started = loop.time()
    await asyncio.gather(*(
        _closed_client(
            config, f"{config.tenant_prefix}.{point_label}.{index}",
            batches, latencies, counts,
        )
        for index in range(n_clients)
    ))
    elapsed = loop.time() - started
    return _make_point(
        "closed", n_clients, None, counts, latencies, elapsed
    )


async def _open_client(config, tenant, assigned, epoch, rate, latencies, counts):
    """One pipelined open-loop connection.

    ``assigned`` is this client's list of (global_index, batch); batch
    ``j`` is scheduled at ``epoch + j / rate`` regardless of earlier
    completions, and its latency is measured from that scheduled time.
    """
    client = await ServeClient.connect(
        config.host, config.port, config.connect_timeout
    )
    loop = asyncio.get_running_loop()
    scheduled: asyncio.Queue = asyncio.Queue()

    async def sender():
        for global_index, (pcs, takens) in assigned:
            target = epoch + global_index / rate
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await client.send_observe(pcs, takens)
            scheduled.put_nowait((target, len(pcs)))

    async def receiver():
        for _ in assigned:
            target, n_records = await scheduled.get()
            try:
                await client.recv_result()
            except ServeRejected:
                counts["rejected"] += 1
                continue
            except ServeTimeout:
                counts["timed_out"] += 1
                continue
            latencies.append(loop.time() - target)
            counts["requests"] += 1
            counts["records"] += n_records

    try:
        await client.hello(config.session_spec(tenant))
        sender_task = asyncio.ensure_future(sender())
        try:
            await receiver()
        finally:
            await sender_task
    finally:
        await client.close()


async def _open_point(config, batches, rate, point_label) -> DrivePoint:
    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    counts = {"requests": 0, "records": 0, "rejected": 0, "timed_out": 0,
              "retries": 0}
    n_clients = max(1, min(len(config.clients) and max(config.clients), len(batches)))
    assignments = [
        [(j, batches[j]) for j in range(index, len(batches), n_clients)]
        for index in range(n_clients)
    ]
    epoch = loop.time()
    await asyncio.gather(*(
        _open_client(
            config, f"{config.tenant_prefix}.{point_label}.{index}",
            assignment, epoch, rate, latencies, counts,
        )
        for index, assignment in enumerate(assignments)
        if assignment
    ))
    elapsed = loop.time() - epoch
    return _make_point("open", n_clients, rate, counts, latencies, elapsed)


def _make_point(mode, clients, rate, counts, latencies, elapsed) -> DrivePoint:
    return DrivePoint(
        mode=mode,
        clients=clients,
        rate=rate,
        n_requests=counts["requests"],
        n_records=counts["records"],
        n_rejected=counts["rejected"],
        n_timed_out=counts["timed_out"],
        n_retries=counts["retries"],
        elapsed=elapsed,
        p50_ms=percentile(latencies, 50) * 1000.0,
        p95_ms=percentile(latencies, 95) * 1000.0,
        p99_ms=percentile(latencies, 99) * 1000.0,
        mean_ms=(sum(latencies) / len(latencies) * 1000.0) if latencies else 0.0,
    )


async def drive(config: DriveConfig) -> DriveReport:
    """Run the configured load sweep; one :class:`DrivePoint` per step."""
    trace = get_trace(config.trace, config.n_branches)
    batches = _split_batches(trace, config.batch_size)
    report = DriveReport(
        trace=config.trace,
        predictor=config.predictor,
        estimator=config.estimator,
        n_branches=len(trace),
        batch_size=config.batch_size,
        mode=config.mode,
    )
    if config.mode == "closed":
        for n_clients in config.clients:
            report.points.append(await _closed_point(
                config, batches, n_clients, f"c{n_clients}"
            ))
    else:
        for index, rate in enumerate(config.rates):
            report.points.append(await _open_point(
                config, batches, rate, f"r{index}"
            ))
    return report


def run_drive(config: DriveConfig) -> DriveReport:
    """Synchronous entry point for :func:`drive` (CLI, benches)."""
    return asyncio.run(drive(config))


# ---------------------------------------------------------------------------
# Served-vs-offline differential check.
# ---------------------------------------------------------------------------


class DifferentialMismatchError(AssertionError):
    """The served decision stream diverged from the offline replay."""


def offline_decisions(spec: SessionSpec, trace) -> DecisionStream:
    """The offline per-branch decision stream of one cell.

    One un-batched pass of ``trace`` over a fresh :class:`TenantSession`
    — the reference stepper :func:`repro.sim.engine.step` over the cell
    :func:`repro.sim.runner.build_cell` builds — with no wire, shard or
    batch split in between.
    """
    stream = DecisionStream(tenant=spec.tenant)
    stream.extend(*TenantSession(spec).observe_batch(trace.pcs, trace.takens))
    return stream


async def differential_check(
    host: str,
    port: int,
    spec: SessionSpec,
    trace_name: str,
    n_branches: int,
    batch_size: int = 256,
    connect_timeout: float = 5.0,
) -> dict:
    """Bit-identity of served vs offline decisions for one cell.

    Replays ``trace_name`` through a fresh tenant on the server and
    through the offline reference engine, then compares the per-branch
    (prediction, confidence-code) streams exactly — and the aggregate
    misprediction/class counts against :func:`repro.sim.engine.simulate`
    (or :func:`simulate_binary`) for the same cell.

    Returns the aggregate accounting on success; raises
    :class:`DifferentialMismatchError` naming the first divergent branch
    otherwise.
    """
    trace = get_trace(trace_name, n_branches)
    offline = offline_decisions(spec, trace)

    client = await ServeClient.connect(host, port, connect_timeout)
    try:
        await client.hello(spec)
        served = await client.replay(trace, batch_size=batch_size)
        stats = await client.close()
    except ServeError:
        await client.abort()
        raise
    if len(served) != len(offline):
        raise DifferentialMismatchError(
            f"served {len(served)} decisions, offline {len(offline)}"
        )
    for index, (sp, so, op, oc) in enumerate(zip(
        served.predictions, served.codes, offline.predictions, offline.codes
    )):
        if sp != op or so != oc:
            raise DifferentialMismatchError(
                f"branch {index}: served (prediction={sp}, code={so}) != "
                f"offline (prediction={op}, code={oc})"
            )

    # Aggregate cross-check against the offline engines proper.
    mispredictions = sum(
        prediction != (taken == 1)
        for prediction, taken in zip(served.predictions, trace.takens)
    )
    cell = spec.build_cell()
    if cell.binary:
        _, result = simulate_binary(
            trace, cell.predictor, cell.estimator, backend="reference"
        )
    else:
        result = simulate(
            trace,
            cell.predictor,
            estimator=cell.estimator,
            controller=cell.controller,
            backend="reference",
        )
    if mispredictions != result.mispredictions:
        raise DifferentialMismatchError(
            f"served stream implies {mispredictions} mispredictions, "
            f"offline simulate reports {result.mispredictions}"
        )
    if stats and stats.get("mispredictions") not in (None, mispredictions):
        raise DifferentialMismatchError(
            f"server-side accounting reports {stats.get('mispredictions')} "
            f"mispredictions, stream implies {mispredictions}"
        )
    return {
        "trace": trace_name,
        "n_branches": len(trace),
        "mispredictions": mispredictions,
        "mpki": result.mpki,
    }


def run_differential_check(*args, **kwargs) -> dict:
    """Synchronous wrapper over :func:`differential_check`."""
    return asyncio.run(differential_check(*args, **kwargs))
