"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` is the separate traced run that prints the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness gate prints the reason on standard error and exits 1 without
a result.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import (
    BENCH_CPU,
    PROGRAM_NICE,
    SCRATCH_DIR,
    SRC_DIR,
    GateFailure,
    HostSpeed,
    check_checkout,
    pin,
)
from spans import SPAN_METRICS

WORKLOADS = ("paper-cold", "paper-warm", "paper-pool", "serve")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "serve_rps": "1/s",
    "open_p50_ms": "ms",
}

PER_LAYER = {
    "cli.import_s": "s",
    **dict(SPAN_METRICS),
    "serve.state_rps": "1/s",
    "serve.wire_us_per_record": "us",
    "serve.open_p95_ms": "ms",
    "serve.answered": "count",
    "serve.rejected": "count",
    "serve.timed_out": "count",
    "driver.late_p99_ms": "ms",
    "host.slowdown": "ratio",
    "unattributed_share": "ratio",
    "trace_overhead_share": "ratio",
}


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    check_checkout()
    pin((BENCH_CPU,))
    sys.path.insert(0, str(SRC_DIR))
    import paper
    import serve

    cpus = serve.CPUS_USED if workload == "serve" else paper.WORKLOAD_CPUS[workload]
    with HostSpeed(cpus) as speed:
        os.nice(PROGRAM_NICE)
        if workload == "serve":
            return serve.run(seed, seconds, traced, speed)
        return paper.run(workload, seconds, traced, speed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except GateFailure as failure:
        print(f"correctness gate failed: {failure}", file=sys.stderr)
        return 1
    finally:
        try:
            SCRATCH_DIR.rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    unknown = set(outcome["values"]) - set(units)
    if unknown:
        raise RuntimeError(f"unlisted metrics {sorted(unknown)}")
    # A layer a workload bypasses did no work: 0, which is the prediction.
    metrics = {
        name: {"value": float(outcome["values"].get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"{args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; {outcome['samples']}; host slowdown "
          f"{outcome['slowdown']:.3f}, times at the reference speed)")
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  {'error_rate':28s} {failed / attempted:14.6g} "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
