"""Traced launcher: ``python launch.py SPANS_JSON REPRO_ARGS...``.

Runs the ``repro`` CLI in this fresh interpreter exactly as ``python -m
repro REPRO_ARGS...`` would, after timing ``import repro.cli`` and
wrapping the layer boundaries (see :mod:`spans`).  Wrapping imports the
layer modules early; that time, ``install_s``, is tracing overhead.  When
the command returns (a ``repro serve`` returns after its SIGTERM drain)
the spans are written to SPANS_JSON, once.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - started

    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    install_s = time.perf_counter() - started - import_s
    try:
        return repro.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "install_s": install_s,
                       "spans": recorder.spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
