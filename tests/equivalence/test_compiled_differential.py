"""C kernel differentials: the kernel vs the reference engine, bit for bit.

The C kernel (:mod:`repro.sim.fast.compiled`) is the one fast
implementation of the TAGE and O-GEHL inner loops; it must reproduce
the reference engine exactly — saturating arithmetic, the LFSR
probabilistic-automaton draws, allocation xorshift, the §6.2 in-kernel
controller, warmup splits and class accounting included.  The kernel
tests skip only when no C compiler is present; the documented fallback
for that case (TAGE and O-GEHL cells refused by the capability query,
one warning naming the remedy, reference results) is tested here with
a ``PATH`` that holds no compiler.
"""

from __future__ import annotations

import multiprocessing
import warnings

import pytest

np = pytest.importorskip("numpy")

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.confidence.jrs import JrsEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.gshare import GsharePredictor
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.tage.config import TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import FastBackendFallbackWarning, FastBackendUnsupported
from repro.sim.engine import simulate, simulate_binary
from repro.sim.fast import (
    LockstepCell,
    TraceArrays,
    compiled,
    observe_tage_fast,
    ogehl_fast_run,
    simulate_binary_fast,
    simulate_tage_fast,
    simulate_tage_lockstep,
    tage_fast_predictions,
)
from repro.sim.observe import observe_trace
from repro.sweep.executor import run_sweep
from repro.sweep.spec import EstimatorSpec, ExperimentSpec, PredictorSpec
from repro.traces.types import Trace

#: Kernel-relevant configuration corners (a condensed cut of the main
#: TAGE differential grid: every automaton/seed/width/policy family).
CONFIGS = [
    ("16K", lambda: TageConfig.small()),
    ("64K", lambda: TageConfig.medium()),
    ("16K-prob", lambda: TageConfig.small().with_probabilistic_automaton()),
    ("16K-prob1", lambda: TageConfig.small().with_probabilistic_automaton(0)),
    ("16K-ureset", lambda: TageConfig.small(u_reset_period=700)),
    ("16K-first-free", lambda: TageConfig.small(allocation_policy="first-free")),
    ("16K-no-alt", lambda: TageConfig.small(use_alt_on_na_enabled=False)),
    ("16K-ltage-alt", lambda: TageConfig.small(update_alt_when_u_zero=True,
                                               u_reset_period=900)),
    ("16K-wide", lambda: TageConfig.small(ctr_bits=4, u_bits=1)),
    ("16K-seeded", lambda: TageConfig.small(lfsr_seed=0xC0FFEE, alloc_seed=0x1234,
                                            automaton="probabilistic",
                                            sat_prob_log2=3)),
]

@pytest.fixture
def cext():
    """Skip when the C kernel cannot be built on this box."""
    if compiled.active_provider() is None:
        pytest.skip(f"C kernel unavailable "
                    f"({compiled.provider_unavailable_reason()})")


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A process view with no C compiler and an empty kernel cache: no
    ``cc``/``gcc``/``clang`` on ``PATH``, ``CC`` unset, and
    ``REPRO_COMPILED_CACHE`` pointing at an empty directory.  The loaded
    kernels are forgotten on the way in and out, so neither this test
    nor the next sees a stale resolution."""
    empty_bin = tmp_path / "bin"
    empty_bin.mkdir()
    monkeypatch.setenv("PATH", str(empty_bin))
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setenv(compiled.CACHE_ENV, str(tmp_path / "kernels"))
    compiled._reset_provider_cache()
    yield
    compiled._reset_provider_cache()


def test_the_c_kernel_is_exercised():
    """The suite must not silently degrade to comparing the reference
    engine with itself: the C kernel needs nothing but a C compiler,
    which CI always has."""
    if compiled.active_provider() is None:
        pytest.skip(f"C kernel unavailable on this box "
                    f"({compiled.provider_unavailable_reason()})")
    assert compiled.active_provider() == compiled.COMPILED_PROVIDER


@pytest.mark.parametrize("label,make_config", CONFIGS, ids=[l for l, _ in CONFIGS])
def test_tage_kernel_matches_reference(cext, int1_trace, label, make_config):
    reference = simulate(int1_trace, TagePredictor(make_config()))
    fast = simulate_tage_fast(int1_trace, TagePredictor(make_config()))
    assert fast == reference


@pytest.mark.parametrize("label,make_config", CONFIGS[:4] + CONFIGS[-1:],
                         ids=[l for l, _ in CONFIGS[:4] + CONFIGS[-1:]])
def test_observation_run_matches_reference(cext, twolf_trace, label,
                                           make_config):
    warmup = len(twolf_trace) // 4

    def run(engine):
        predictor = TagePredictor(make_config())
        estimator = TageConfidenceEstimator(predictor)
        return engine(twolf_trace, predictor, estimator, warmup_branches=warmup)

    reference = run(simulate)
    fast = run(simulate_tage_fast)
    assert fast == reference
    assert fast.classes.as_dict() == reference.classes.as_dict()
    assert fast.binary_confusion() == reference.binary_confusion()


def test_adaptive_controller_matches_reference(cext, int1_trace):
    def run(engine):
        predictor = TagePredictor(
            TageConfig.small().with_probabilistic_automaton()
        )
        estimator = TageConfidenceEstimator(predictor)
        controller = AdaptiveSaturationController(predictor, target_mkp=8.0)
        return engine(int1_trace, predictor, estimator, controller=controller,
                      warmup_branches=1000)

    reference = run(simulate)
    fast = run(simulate_tage_fast)
    assert fast == reference
    assert fast.final_sat_prob_log2 == reference.final_sat_prob_log2


def test_ogehl_kernel_matches_reference(cext, int1_trace):
    def run(engine):
        predictor = OgehlPredictor()
        return engine(int1_trace, predictor, SelfConfidenceEstimator(predictor))

    assert run(simulate_binary_fast) == run(simulate_binary)


def _empty_trace_cells():
    """``run(trace, backend)`` for every C-kernel cell shape; each run
    returns plain comparable values."""
    def tage(trace, backend):
        return simulate(trace, TagePredictor(TageConfig.small()),
                        backend=backend)

    def tage_observation(trace, backend):
        return simulate(trace, *_tage_with_estimator(), backend=backend)

    def tage_adaptive(trace, backend):
        predictor = TagePredictor(
            TageConfig.small().with_probabilistic_automaton()
        )
        result = simulate(
            trace, predictor, TageConfidenceEstimator(predictor),
            controller=AdaptiveSaturationController(predictor, target_mkp=8.0),
            backend=backend,
        )
        return result, result.final_sat_prob_log2

    def tage_jrs(trace, backend):
        return simulate_binary(trace, TagePredictor(TageConfig.small()),
                               JrsEstimator(), backend=backend)

    def tage_stream(trace, backend):
        stream = observe_trace(trace, *_tage_with_estimator(), backend=backend)
        return list(stream.predictions), list(stream.class_codes)

    def ogehl(trace, backend):
        return simulate(trace, OgehlPredictor(), backend=backend)

    def ogehl_self(trace, backend):
        predictor = OgehlPredictor()
        return simulate_binary(trace, predictor,
                               SelfConfidenceEstimator(predictor),
                               backend=backend)

    return {
        "tage": tage,
        "tage-observation": tage_observation,
        "tage-adaptive": tage_adaptive,
        "tage-jrs": tage_jrs,
        "tage-stream": tage_stream,
        "ogehl": ogehl,
        "ogehl-self": ogehl_self,
    }


EMPTY_TRACE_CELLS = _empty_trace_cells()


@pytest.mark.parametrize("cell", sorted(EMPTY_TRACE_CELLS))
def test_empty_trace_matches_reference(cext, cell):
    """A zero-branch trace runs through the C kernel (no pure-Python
    short cut is left to catch it) and yields the reference's empty
    result, without a fallback warning."""
    empty = Trace.from_records("empty", [])
    run = EMPTY_TRACE_CELLS[cell]
    reference = run(empty, "reference")
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        fast = run(empty, "fast")
    assert fast == reference


#: Every direct fast entry point that needs the C kernel.
DIRECT_CALLS = {
    "simulate_tage_fast": lambda trace: simulate_tage_fast(
        trace, TagePredictor(TageConfig.small())),
    "observe_tage_fast": lambda trace: observe_tage_fast(
        trace, *_tage_with_estimator()),
    "tage_fast_predictions": lambda trace: tage_fast_predictions(
        TraceArrays.from_trace(trace), TagePredictor(TageConfig.small())),
    "simulate_tage_lockstep": lambda trace: simulate_tage_lockstep(
        trace, [LockstepCell(TagePredictor(TageConfig.small()))]),
    "ogehl_fast_run": lambda trace: ogehl_fast_run(
        TraceArrays.from_trace(trace), OgehlPredictor()),
}


def _tage_with_estimator(config=None):
    predictor = TagePredictor(config or TageConfig.small())
    return predictor, TageConfidenceEstimator(predictor)


@pytest.mark.parametrize("entry", sorted(DIRECT_CALLS))
def test_direct_calls_without_compiler_raise_with_remedy(no_compiler,
                                                         tiny_trace, entry):
    with pytest.raises(FastBackendUnsupported,
                       match=r"C kernel build failed .*\$CC"):
        DIRECT_CALLS[entry](tiny_trace)


def _assert_falls_back(run):
    """``run(backend)`` warns once naming the remedy on ``fast``, and
    equals the reference run."""
    reference = run("reference")
    with pytest.warns(FastBackendFallbackWarning) as record:
        fast = run("fast")
    messages = [str(w.message) for w in record
                if issubclass(w.category, FastBackendFallbackWarning)]
    assert messages and all("$CC" in message for message in messages)
    assert "no C compiler found" in messages[0]
    assert fast == reference


def test_simulate_without_compiler_falls_back(no_compiler, tiny_trace):
    def run(backend):
        predictor = TagePredictor(
            TageConfig.small().with_probabilistic_automaton()
        )
        estimator = TageConfidenceEstimator(predictor)
        controller = AdaptiveSaturationController(predictor, target_mkp=8.0)
        result = simulate(tiny_trace, predictor, estimator,
                          controller=controller, backend=backend)
        return result, result.final_sat_prob_log2

    _assert_falls_back(run)
    assert compiled.active_provider() is None


def test_simulate_binary_without_compiler_falls_back(no_compiler, tiny_trace):
    _assert_falls_back(lambda backend: simulate_binary(
        tiny_trace, TagePredictor(TageConfig.small()), JrsEstimator(),
        backend=backend,
    ))

    def run_ogehl(backend):
        predictor = OgehlPredictor()
        return simulate_binary(tiny_trace, predictor,
                               SelfConfidenceEstimator(predictor),
                               backend=backend)

    _assert_falls_back(run_ogehl)


def test_observe_trace_without_compiler_falls_back(no_compiler, tiny_trace):
    def run(backend):
        stream = observe_trace(tiny_trace, *_tage_with_estimator(),
                               backend=backend)
        return stream.predictions, stream.class_codes

    _assert_falls_back(run)


def test_run_sweep_without_compiler_falls_back(no_compiler):
    def run(backend):
        spec = ExperimentSpec(
            name="no-compiler",
            predictors=(PredictorSpec.of("tage", size="16K"),
                        PredictorSpec.of("ogehl")),
            estimators=(EstimatorSpec.of("tage"), EstimatorSpec.of("self")),
            traces=("INT-1",),
            n_branches=1_500,
            backend=backend,
        )
        table = run_sweep(spec, workers=1).table
        return [(row.result, row.binary) for row in table]

    _assert_falls_back(run)


def test_capability_cli_without_compiler_reports_reason(no_compiler, capsys):
    from repro.cli import main

    assert main(["capability", "--predictor", "tage-16K",
                 "--estimator", "tage"]) == 0
    out = capsys.readouterr().out
    (fast_row,) = [line for line in out.splitlines()
                   if line.split()[:1] == ["fast"]]
    assert fast_row.split()[1:4] == ["no", "no", "-"]
    assert "$CC" in fast_row
    assert ("compiled provider: unavailable (C kernel build failed "
            "(no C compiler found") in out


def test_numpy_cells_run_fast_without_compiler(no_compiler, tiny_trace):
    """Only the TAGE and O-GEHL loops need the C kernel."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        fast = simulate_binary(tiny_trace, GsharePredictor(), JrsEstimator(),
                               backend="fast")
    assert fast == simulate_binary(tiny_trace, GsharePredictor(),
                                   JrsEstimator())


def _first_build_worker(barrier, results, trace):
    """Spawn target: race the other workers to build the C kernel in one
    empty cache, then run a tiny TAGE simulation on it."""
    barrier.wait(timeout=60)
    provider = compiled.active_provider()
    result = simulate_tage_fast(trace, TagePredictor(TageConfig.small()))
    results.put((provider, result))


def test_concurrent_first_builds_share_one_library(monkeypatch, tmp_path,
                                                   tiny_trace):
    """Four fresh processes (more than the cores of a small box) build
    the kernel into one empty cache at once: each gets the C kernel and
    the reference result, and exactly one library is left behind."""
    if compiled.active_provider() is None:
        pytest.skip(f"C kernel unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    cache = tmp_path / "kernels"
    monkeypatch.setenv(compiled.CACHE_ENV, str(cache))
    n_workers = 4
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(n_workers)
    results = context.Queue()
    workers = [
        context.Process(target=_first_build_worker,
                        args=(barrier, results, tiny_trace))
        for _ in range(n_workers)
    ]
    for worker in workers:
        worker.start()
    try:
        collected = [results.get(timeout=240) for _ in workers]
    finally:
        for worker in workers:
            worker.join(timeout=60)
        alive = [worker for worker in workers if worker.is_alive()]
        for worker in alive:
            worker.kill()
            worker.join(timeout=10)
    assert not alive, "a build worker did not exit"
    assert all(worker.exitcode == 0 for worker in workers)
    reference = simulate(tiny_trace, TagePredictor(TageConfig.small()))
    for provider, result in collected:
        assert provider == compiled.COMPILED_PROVIDER
        assert result == reference
    entries = sorted(path.name for path in cache.iterdir())
    assert len(entries) == 1, entries
    assert entries[0].startswith("repro_kernels_")
    assert entries[0].endswith(".so")
