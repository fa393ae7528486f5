"""Fallback-warning hygiene over whole sweeps.

With the entire stock model zoo inside the fast family, a
``backend="fast"`` sweep over everything the spec layer can express —
every predictor kind × every estimator kind, adaptive §6.2 cells
included — must emit *zero* :class:`FastBackendFallbackWarning`s.  A
deliberately unsupported component (a subclass, or a >62-bit history)
must still warn — and exactly once per distinct cell per run, no matter
how many traces (jobs) the cell spans.
"""

from __future__ import annotations

import warnings

import pytest

np = pytest.importorskip("numpy")

from repro.predictors.gshare import GsharePredictor
from repro.sim.backends import FastBackendFallbackWarning
from repro.sweep import ExperimentSpec, EstimatorSpec, PredictorSpec, run_sweep
from repro.sim import runner as runner_module

#: Every predictor kind the spec layer can express, in one grid.
FULL_PREDICTOR_AXIS = (
    PredictorSpec.of("tage", size="16K"),
    PredictorSpec.of("tage", size="16K", automaton="probabilistic"),
    PredictorSpec.of("gshare"),
    PredictorSpec.of("bimodal"),
    PredictorSpec.of("local"),
    PredictorSpec.of("perceptron"),
    PredictorSpec.of("ogehl"),
)

#: Every estimator kind (incompatible pairs are grid-filtered).
FULL_ESTIMATOR_AXIS = (
    EstimatorSpec.of("tage"),
    EstimatorSpec.of("jrs"),
    EstimatorSpec.of("ejrs"),
    EstimatorSpec.of("self"),
)


def run_fast_sweep(spec):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = run_sweep(spec, workers=1)
    fallbacks = [
        warning for warning in caught
        if issubclass(warning.category, FastBackendFallbackWarning)
    ]
    return run, fallbacks


def test_full_grid_fast_sweep_emits_no_fallback_warnings():
    spec = ExperimentSpec(
        name="hygiene-full-zoo",
        predictors=FULL_PREDICTOR_AXIS,
        estimators=FULL_ESTIMATOR_AXIS,
        traces=("INT-1", "MM-1"),
        n_branches=600,
        backend="fast",
    )
    run, fallbacks = run_fast_sweep(spec)
    assert fallbacks == []
    # Sanity: the grid really crossed every compatible pair.
    labels = {(row["predictor"], row["estimator"]) for row in run.table.rows()}
    assert ("tage-16K", "tage") in labels
    assert ("perceptron", "self") in labels
    assert ("ogehl", "self") in labels
    assert ("local", "jrs") in labels


def test_adaptive_fast_sweep_emits_no_fallback_warnings():
    spec = ExperimentSpec(
        name="hygiene-adaptive",
        predictors=(
            PredictorSpec.of("tage", size="16K", automaton="probabilistic"),
        ),
        estimators=(EstimatorSpec.of("tage"),),
        traces=("INT-1", "SERV-1"),
        n_branches=600,
        adaptive=True,
        backend="fast",
    )
    run, fallbacks = run_fast_sweep(spec)
    assert fallbacks == []
    assert run.n_jobs == 2


def test_zoo_trace_sources_fast_sweep_is_clean_and_reference_identical():
    """The scenario-zoo sources flow through the fast backend like any
    registered trace: a grid over the full zoo must emit zero fallback
    warnings and match the reference engine bit for bit."""
    from repro.traces.sources import ZOO_SOURCE_NAMES

    spec = ExperimentSpec(
        name="hygiene-zoo-sources",
        predictors=(
            PredictorSpec.of("tage", size="16K"),
            PredictorSpec.of("gshare"),
            PredictorSpec.of("perceptron"),
        ),
        estimators=(
            EstimatorSpec.of("tage"),
            EstimatorSpec.of("jrs"),
            EstimatorSpec.of("self"),
        ),
        traces=ZOO_SOURCE_NAMES,
        n_branches=600,
        backend="fast",
    )
    fast_run, fallbacks = run_fast_sweep(spec)
    assert fallbacks == []
    assert {row["trace"] for row in fast_run.table.rows()} == set(ZOO_SOURCE_NAMES)
    reference_run, _ = run_fast_sweep(spec.with_options(backend="reference"))
    assert fast_run.table.to_tsv() == reference_run.table.to_tsv()


class _SubclassedGshare(GsharePredictor):
    """Outside the exact-type fast family on purpose."""


def test_unsupported_subclass_warns_exactly_once_per_cell(monkeypatch):
    """Three traces × one unsupported (predictor, estimator) cell must
    produce ONE warning for the whole run, not one per job."""
    monkeypatch.setitem(
        runner_module._BASELINE_PREDICTORS, "gshare", _SubclassedGshare
    )
    spec = ExperimentSpec(
        name="hygiene-subclass",
        predictors=(PredictorSpec.of("gshare"),),
        estimators=(EstimatorSpec.of("jrs"),),
        traces=("INT-1", "MM-1", "SERV-1"),
        n_branches=400,
        backend="fast",
    )
    run, fallbacks = run_fast_sweep(spec)
    assert len(fallbacks) == 1
    assert "3 job(s)" in str(fallbacks[0].message)
    assert run.n_jobs == 3


def test_two_unsupported_cells_warn_once_each(monkeypatch):
    monkeypatch.setitem(
        runner_module._BASELINE_PREDICTORS, "gshare", _SubclassedGshare
    )
    spec = ExperimentSpec(
        name="hygiene-two-cells",
        predictors=(PredictorSpec.of("gshare"),),
        estimators=(EstimatorSpec.of("jrs"), EstimatorSpec.of("ejrs")),
        traces=("INT-1", "MM-1"),
        n_branches=400,
        backend="fast",
    )
    run, fallbacks = run_fast_sweep(spec)
    assert len(fallbacks) == 2
    assert run.n_jobs == 4


def test_oversized_history_cell_warns_once_and_matches_reference():
    """A spec-expressible unsupported cell (history > 62) downgrades
    with one warning and produces reference-identical results."""
    spec = ExperimentSpec(
        name="hygiene-oversized",
        predictors=(PredictorSpec.of("gshare", history_length=70),),
        estimators=(EstimatorSpec.of("jrs"),),
        traces=("INT-1", "MM-1"),
        n_branches=400,
        backend="fast",
    )
    fast_run, fallbacks = run_fast_sweep(spec)
    assert len(fallbacks) == 1
    reference_run, reference_fallbacks = run_fast_sweep(
        spec.with_options(backend="reference")
    )
    assert reference_fallbacks == []
    assert fast_run.table.to_tsv() == reference_run.table.to_tsv()
