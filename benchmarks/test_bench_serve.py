"""Confidence-serving latency/saturation bench (not a paper experiment).

Runs an in-process :class:`~repro.serve.server.ConfidenceServer` and
drives it with the closed-loop driver at increasing client counts — the
saturation curve: on the single-core asyncio server, throughput
plateaus while latency percentiles climb with concurrency.  Emits
``benchmarks/records/BENCH_serve.json`` with the p50/p95/p99 latency of
the 1-client point and the full curve.

The trajectory metric is ``relative_throughput`` — peak served
records/second divided by the offline reference engine's simulate
throughput measured in the same bench run.  That ratio cancels machine
speed (both measurements share the core), so CI can guard it across
runner generations: it asserts "serving costs at most a bounded factor
over bare simulation", which is the property the serving layer
guarantees.
"""

from __future__ import annotations

import asyncio
import time

from conftest import emit, record, run_once  # noqa: F401

from repro.serve import DriveConfig, ServerConfig, SessionSpec, drive, running_server
from repro.sim.engine import simulate
from repro.sim.runner import get_trace

N_BRANCHES = 8_000
BATCH_SIZE = 256
CLIENT_COUNTS = (1, 2, 4)
TRACE = "zoo.markov"
PREDICTOR = "tage-16K"
ESTIMATOR = "tage"


def _offline_reference_rps(trace) -> float:
    """Reference ``simulate`` throughput of the same cell, on this machine."""
    cell = SessionSpec(
        tenant="offline", predictor=PREDICTOR, estimator=ESTIMATOR
    ).build_cell()
    started = time.perf_counter()
    simulate(trace, cell.predictor, cell.estimator, backend="reference")
    elapsed = time.perf_counter() - started
    return len(trace) / elapsed


async def _serve_and_drive():
    async with running_server(ServerConfig(port=0, n_shards=2)) as server:
        host, port = server.address
        return await drive(DriveConfig(
            host=host, port=port, trace=TRACE, n_branches=N_BRANCHES,
            predictor=PREDICTOR, estimator=ESTIMATOR,
            mode="closed", clients=CLIENT_COUNTS, batch_size=BATCH_SIZE,
            tenant_prefix="bench",
        ))


def test_bench_serve_saturation(run_once):
    trace = get_trace(TRACE, N_BRANCHES)
    offline_rps = _offline_reference_rps(trace)
    report = run_once(lambda: asyncio.run(_serve_and_drive()))

    assert len(report.points) == len(CLIENT_COUNTS)
    for point in report.points:
        assert point.n_records == point.clients * N_BRANCHES
        assert point.n_rejected == 0
        assert point.n_timed_out == 0
        assert 0 < point.p50_ms <= point.p95_ms <= point.p99_ms

    single = report.points[0]
    peak = report.peak_throughput_rps
    relative_throughput = peak / offline_rps
    # The wire + scheduling overhead is bounded: serving a batch stream
    # must stay within an order of magnitude of bare simulation.
    assert relative_throughput > 0.1

    lines = [
        f"{'clients':>7}  {'records/s':>10}  {'p50 ms':>8}  {'p95 ms':>8}  {'p99 ms':>8}"
    ]
    for point in report.points:
        lines.append(
            f"{point.clients:>7}  {point.throughput_rps:>10.0f}  "
            f"{point.p50_ms:>8.2f}  {point.p95_ms:>8.2f}  {point.p99_ms:>8.2f}"
        )
    lines.append(
        f"offline reference: {offline_rps:.0f} records/s; "
        f"relative throughput {relative_throughput:.2f}"
    )
    emit("serve_saturation", "\n".join(lines))

    record("serve", {
        "bench": "serve",
        "metric": "relative_throughput",
        "trace": TRACE,
        "predictor": PREDICTOR,
        "estimator": ESTIMATOR,
        "branches_per_client": N_BRANCHES,
        "batch_size": BATCH_SIZE,
        "p50_ms": round(single.p50_ms, 4),
        "p95_ms": round(single.p95_ms, 4),
        "p99_ms": round(single.p99_ms, 4),
        "offline_reference_rps": round(offline_rps),
        "peak_served_rps": round(peak),
        "relative_throughput": round(relative_throughput, 4),
        "curve": [
            {
                "clients": point.clients,
                "throughput_rps": round(point.throughput_rps),
                "p50_ms": round(point.p50_ms, 4),
                "p95_ms": round(point.p95_ms, 4),
                "p99_ms": round(point.p99_ms, 4),
            }
            for point in report.points
        ],
    })
