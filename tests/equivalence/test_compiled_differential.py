"""Kernel-mode differentials: pure vs the C kernel, bit for bit.

The compiled layer (:mod:`repro.sim.fast.compiled`) may run the TAGE
and O-GEHL inner loops through the embedded C translation; both modes
must reproduce the reference engine exactly — saturating arithmetic,
the LFSR probabilistic-automaton draws, allocation xorshift, the §6.2
in-kernel controller, warmup splits and class accounting included.
The C leg skips only when no C compiler is present; the documented
fallback for that case (silent under ``auto``, one warning under
``compiled``) is tested here with a ``PATH`` that holds no compiler.
"""

from __future__ import annotations

import multiprocessing
import warnings

import pytest

np = pytest.importorskip("numpy")

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.tage.config import TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import FastBackendFallbackWarning
from repro.sim.engine import simulate, simulate_binary
from repro.sim.fast import compiled, simulate_binary_fast, simulate_tage_fast

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

#: Every selectable kernel leg; the C leg skips when it cannot be built.
KERNEL_LEGS = ("pure", "cext")


@pytest.fixture(params=KERNEL_LEGS)
def kernel_leg(request, monkeypatch):
    """Pin one kernel mode for the duration of a test."""
    leg = request.param
    if leg == "pure":
        monkeypatch.setenv(compiled.KERNEL_MODE_ENV, "pure")
    else:
        monkeypatch.setenv(compiled.KERNEL_MODE_ENV, "compiled")
        if compiled.active_provider() != leg:
            pytest.skip(f"C kernel unavailable "
                        f"({compiled.provider_unavailable_reason()})")
    return leg


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
    compiled._reset_missing_warning()
    yield
    compiled._reset_provider_cache()
    compiled._reset_missing_warning()


def test_some_compiled_leg_is_exercised():
    """The suite must not silently degrade to pure-only coverage: the
    C translation needs nothing but a C compiler, which CI always has."""
    if compiled.active_provider() is None:
        pytest.skip(f"C kernel unavailable on this box "
                    f"({compiled.provider_unavailable_reason()})")
    assert compiled.active_provider() == compiled.COMPILED_PROVIDER


@pytest.mark.parametrize("label,make_config", CONFIGS, ids=[l for l, _ in CONFIGS])
def test_tage_kernel_matches_reference(kernel_leg, int1_trace, label, make_config):
    reference = simulate(int1_trace, TagePredictor(make_config()))
    fast = simulate_tage_fast(int1_trace, TagePredictor(make_config()))
    assert fast == reference


@pytest.mark.parametrize("label,make_config", CONFIGS[:4] + CONFIGS[-1:],
                         ids=[l for l, _ in CONFIGS[:4] + CONFIGS[-1:]])
def test_observation_run_matches_reference(kernel_leg, twolf_trace, label,
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


def test_adaptive_controller_matches_reference(kernel_leg, int1_trace):
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


def test_ogehl_kernel_matches_reference(kernel_leg, int1_trace):
    def run(engine):
        predictor = OgehlPredictor()
        return engine(int1_trace, predictor, SelfConfidenceEstimator(predictor))

    assert run(simulate_binary_fast) == run(simulate_binary)


def test_unknown_kernel_mode_is_rejected(monkeypatch):
    monkeypatch.setenv(compiled.KERNEL_MODE_ENV, "turbo")
    with pytest.raises(ValueError, match="REPRO_KERNEL"):
        compiled.kernel_mode()


def test_auto_mode_without_compiler_falls_back_silently(
    no_compiler, monkeypatch, tiny_trace
):
    """``auto`` without a compiler runs pure with no warning at all, and
    the results stay bit-identical to the reference."""
    monkeypatch.delenv(compiled.KERNEL_MODE_ENV, raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        assert compiled.resolve_tage_kernel() is None
        assert compiled.resolve_ogehl_kernel() is None
        tage = simulate_tage_fast(tiny_trace, TagePredictor(TageConfig.small()))
        predictor = OgehlPredictor()
        ogehl = simulate_binary_fast(
            tiny_trace, predictor, SelfConfidenceEstimator(predictor)
        )
    assert compiled.active_provider() is None
    assert "no C compiler found" in compiled.provider_unavailable_reason()
    assert tage == simulate(tiny_trace, TagePredictor(TageConfig.small()))
    predictor = OgehlPredictor()
    assert ogehl == simulate_binary(
        tiny_trace, predictor, SelfConfidenceEstimator(predictor)
    )


def test_compiled_mode_without_provider_warns_once(
    no_compiler, monkeypatch, tiny_trace
):
    """Explicit ``compiled`` + no compiler: exactly one process-wide
    warning naming the remedy, then silence — and pure results."""
    monkeypatch.setenv(compiled.KERNEL_MODE_ENV, "compiled")
    with pytest.warns(FastBackendFallbackWarning,
                      match=r"C compiler \(cc, gcc or clang\) on PATH") as record:
        compiled.resolve_tage_kernel()
        compiled.resolve_ogehl_kernel()
        result = simulate_tage_fast(tiny_trace, TagePredictor(TageConfig.small()))
    fallbacks = [w for w in record
                 if issubclass(w.category, FastBackendFallbackWarning)]
    assert len(fallbacks) == 1
    assert "$CC" in str(fallbacks[0].message)
    assert result == simulate(tiny_trace, TagePredictor(TageConfig.small()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        compiled.resolve_tage_kernel()
        compiled.resolve_ogehl_kernel()


def test_capability_cli_without_compiler_reports_reason(no_compiler, capsys):
    from repro.cli import main

    assert main(["capability", "--predictor", "tage-16K",
                 "--estimator", "tage"]) == 0
    out = capsys.readouterr().out
    (fast_row,) = [line for line in out.splitlines()
                   if line.split()[:1] == ["fast"]]
    assert fast_row.split()[1:4] == ["yes", "no", "-"]
    assert ("compiled provider: unavailable (C kernel build failed "
            "(no C compiler found") in out


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
    monkeypatch.setenv(compiled.KERNEL_MODE_ENV, "compiled")
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


def test_prediction_streams_match_across_modes(int1_trace, monkeypatch):
    """The apps-layer per-branch streams are mode-invariant too."""
    from repro.sim.fast import TraceArrays, tage_fast_predictions

    arrays = TraceArrays.from_trace(int1_trace)

    def run(mode):
        monkeypatch.setenv(compiled.KERNEL_MODE_ENV, mode)
        predictor = TagePredictor(TageConfig.small())
        return tage_fast_predictions(arrays, predictor)

    pure = run("pure")
    if compiled.active_provider() is None:
        pytest.skip("C kernel unavailable on this box")
    auto = run("auto")
    assert np.array_equal(pure, auto)
