"""Host-speed sampler: ``python sampler.py CPU[,CPU...]``.

Until its standard input reaches end of file, it wakes every
``INTERVAL_S``, moves itself to the next CPU of the list (round robin)
and times one fixed reference loop there.  Then it prints the samples,
one JSON list of ``[start, seconds]`` pairs (``time.perf_counter``
values, which share one clock across processes), and exits.

It runs beside the program, on the program's CPUs, for the whole run.
Each sample takes a few milliseconds, so it takes about 2% of one CPU
from the program, the same on every commit.  Because it samples while
the program runs, its mean follows the speed the host gave the program
in that run; see ``HostSpeed`` in ``common.py``.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

#: Seconds between samples.
INTERVAL_S = 0.2


def reference_loop() -> int:
    """Fixed interpreter-bound work (table updates driven by an LCG), the
    yardstick for the host's speed.  It is the benchmark's own code, so no
    program change can move it."""
    table = [0] * 4096
    counts: dict[int, int] = {}
    x = 12345
    for _ in range(15_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        slot = x & 4095
        table[slot] = (table[slot] + (x >> 16)) & 0xFFFF
        counts[slot & 255] = counts.get(slot & 255, 0) + 1
    return table[0] + len(counts)


def main() -> int:
    cpus = [int(cpu) for cpu in sys.argv[1].split(",")]
    reference_loop()
    samples: list[list[float]] = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        os.sched_setaffinity(0, {cpus[len(samples) % len(cpus)]})
        started = time.perf_counter()
        reference_loop()
        samples.append([started, time.perf_counter() - started])
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
