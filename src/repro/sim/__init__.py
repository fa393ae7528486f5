"""Trace-driven simulation and experiment harness.

* :mod:`repro.sim.engine` — the reference engine: the one per-branch
  stepper :func:`~repro.sim.engine.step` and its aggregations
  :func:`simulate` (TAGE + multi-class confidence observation) and
  :func:`simulate_binary` (any predictor + a binary high/low estimator).
* :mod:`repro.sim.backends` — the ``"reference"`` / ``"fast"`` backend
  selector shared by the engine, the sweep layer and the CLI.
* :mod:`repro.sim.fast` — the vectorized batch backend (NumPy),
  bit-for-bit equivalent to the reference loops where supported.
* :mod:`repro.sim.observe` — per-branch observation streams (the apps
  layer's replay input), produced on either backend.
* :mod:`repro.sim.stats` — suite-level aggregation.
* :mod:`repro.sim.runner` — trace lookup, predictor presets, the one
  cell builder :func:`~repro.sim.runner.build_cell` and
  :func:`run_trace`.
* :mod:`repro.sim.report` — ASCII rendering of the paper's tables and
  figure series.
"""

from repro.sim.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    FastBackendFallbackWarning,
    FastBackendUnsupported,
    validate_backend,
)
from repro.sim.engine import SimulationResult, simulate, simulate_binary
from repro.sim.observe import ObservationStream, observe_trace
from repro.sim.runner import build_predictor, run_trace
from repro.sim.stats import SuiteSummary, summarize
from repro.sim.report import render_table

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "FastBackendFallbackWarning",
    "FastBackendUnsupported",
    "ObservationStream",
    "SimulationResult",
    "SuiteSummary",
    "observe_trace",
    "validate_backend",
    "build_predictor",
    "render_table",
    "run_trace",
    "simulate",
    "simulate_binary",
    "summarize",
]
