"""The run_paper pipeline: selection, validation, reports, caching."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.artifacts import (
    ArtifactPayload,
    ArtifactResult,
    ArtifactSpec,
    ArtifactValidationError,
    Scale,
    SweepService,
    UnknownArtifactError,
    run_paper,
    select_artifacts,
    write_reports,
)
from repro.artifacts.runner import build_artifact
from repro.artifacts.spec import cell_deltas
from repro.sweep import ResultCache

TINY = Scale(400)

#: A cheap subset covering a figure subset, a sweep with paper deltas
#: and an application model — in registry order, which run_paper
#: preserves regardless of selection order.
SUBSET = ("FIG4", "SEC62_PROB", "APP_FETCH_GATING")


def test_select_artifacts_defaults_to_registry_order():
    keys = [spec.key for spec in select_artifacts()]
    assert keys[0] == "TABLE1" and "APP_SMT_FETCH" in keys


def test_select_artifacts_dedupes_and_normalizes():
    specs = select_artifacts(["fig4", "FIG4", "sec62_prob"])
    assert [spec.key for spec in specs] == ["FIG4", "SEC62_PROB"]


def test_select_artifacts_reorders_to_registry_order():
    """The same subset yields the same report bytes for any --only order."""
    specs = select_artifacts(["APP_SMT_FETCH", "TABLE1", "FIG4"])
    assert [spec.key for spec in specs] == ["TABLE1", "FIG4", "APP_SMT_FETCH"]


def test_select_artifacts_unknown_key():
    with pytest.raises(UnknownArtifactError):
        select_artifacts(["FIG4", "NOPE"])


def test_run_paper_subset_and_reports(tmp_path):
    cache = ResultCache(tmp_path / "sweeps")
    run = run_paper(SUBSET, scale=TINY, workers=1, cache=cache)
    assert [result.key for result in run.artifacts] == list(SUBSET)
    assert run.n_executed > 0 and not run.fully_cached

    md_path, json_path = write_reports(run, tmp_path / "out")
    md = md_path.read_text()
    payload = json.loads(json_path.read_text())
    assert set(payload["artifacts"]) == set(SUBSET)
    assert payload["scale"]["n_branches"] == TINY.n_branches
    for key in SUBSET:
        assert f"## {key}" in md
    # SEC62 carries paper expectations -> a delta table in both reports.
    assert payload["artifacts"]["SEC62_PROB"]["deltas"]
    assert "| `p128/high_pcov` |" in md


def test_run_paper_second_run_is_fully_cached_and_deterministic(tmp_path):
    cache = ResultCache(tmp_path / "sweeps")
    first = run_paper(SUBSET, scale=TINY, workers=1, cache=cache)
    second = run_paper(SUBSET, scale=TINY, workers=1, cache=cache)
    assert second.fully_cached
    assert second.n_jobs == first.n_jobs
    assert second.to_json() == first.to_json()
    assert second.to_markdown() == first.to_markdown()


def test_run_paper_pooled_equals_inline_and_leaves_no_worker():
    inline = run_paper(SUBSET, scale=TINY, workers=1)
    pooled = run_paper(SUBSET, scale=TINY, workers=2)
    assert pooled.to_markdown() == inline.to_markdown()
    assert pooled.to_json() == inline.to_json()
    assert not multiprocessing.active_children()


def test_run_paper_shuts_its_pool_down_when_interrupted(monkeypatch):
    import repro.artifacts.runner as runner_module
    from repro.sweep import SweepInterrupted

    real_build = runner_module.build_artifact
    built = []

    def build_then_interrupt(spec, service, scale):
        if built:
            raise SweepInterrupted("run", 1, 1)
        built.append(real_build(spec, service, scale))
        assert service.pool.n_spawned == 2
        return built[-1]

    monkeypatch.setattr(runner_module, "build_artifact", build_then_interrupt)
    with pytest.raises(SweepInterrupted):
        run_paper(SUBSET, scale=TINY, workers=2)
    assert not multiprocessing.active_children()


def _broken_spec(cells):
    return ArtifactSpec(
        key="BROKEN",
        title="broken",
        paper_element="Table 1",
        kind="table",
        description="synthetic",
        build=lambda service, scale: ArtifactPayload(text="x", cells=cells),
        paper_values={"present": 1.0},
    )


def test_validation_rejects_nan_and_missing_paper_cells():
    service = SweepService(workers=1)
    result = build_artifact(_broken_spec({"a": float("nan")}), service, TINY)
    problems = result.validate()
    assert any("not finite" in p for p in problems)
    assert any("'present'" in p for p in problems)


def test_run_paper_raises_on_invalid_cells(monkeypatch):
    import repro.artifacts.runner as runner_module

    monkeypatch.setattr(
        runner_module,
        "select_artifacts",
        lambda keys=None: (_broken_spec({"a": float("inf"), "present": 1.0}),),
    )
    with pytest.raises(ArtifactValidationError, match="not finite"):
        run_paper(["BROKEN"], scale=TINY, workers=1)


def test_cell_deltas_math():
    deltas = cell_deltas({"x": 2.0, "y": 5.0, "z": 1.0}, {"x": 4.0, "z": 0.0})
    assert deltas["x"] == {"repro": 2.0, "paper": 4.0, "delta": -2.0, "ratio": 0.5}
    assert deltas["z"]["ratio"] is None
    assert "y" not in deltas


def test_artifact_result_json_rounding():
    spec = _broken_spec({"present": 1.23456789})
    result = ArtifactResult(spec=spec, scale=TINY, text="x",
                            cells={"present": 1.23456789})
    payload = result.as_json_dict()
    assert payload["cells"]["present"] == 1.234568
    assert payload["deltas"]["present"]["paper"] == 1.0
