"""`repro lint` CLI round-trips."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main

BAD = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)


@pytest.fixture
def project(tmp_path, monkeypatch):
    bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(BAD)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_list_rules(project, capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RPR001", "RPR002", "RPR003", "RPR005"):
        assert rule_id in out
    assert "RPR004" not in out  # retired; IDs are never reused


def test_findings_exit_1_and_render(project, capsys):
    assert main(["lint", "src", "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "src/repro/sim/bad.py:5:12: RPR001" in out


def test_clean_run_exits_0(project, capsys):
    assert main(["lint", "src", "--no-baseline", "--rules", "RPR005"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_json_output_to_file(project, capsys):
    code = main([
        "lint", "src", "--no-baseline",
        "--format", "json", "--output", "lint.json",
    ])
    assert code == 1
    payload = json.loads((project / "lint.json").read_text())
    assert payload["summary"]["n_findings"] == 1
    assert "wrote lint.json" in capsys.readouterr().out


def test_sarif_format(project, capsys):
    assert main([
        "lint", "src", "--no-baseline", "--format", "sarif",
    ]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"


def test_update_baseline_then_clean(project, capsys):
    assert main([
        "lint", "src", "--baseline", "lint_baseline.json",
        "--update-baseline",
    ]) == 0
    assert "wrote lint_baseline.json (1 entry)" in capsys.readouterr().out
    assert main([
        "lint", "src", "--baseline", "lint_baseline.json",
    ]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_unknown_rule_is_a_usage_error(project):
    with pytest.raises(SystemExit, match="RPR999"):
        main(["lint", "src", "--rules", "RPR999"])


def test_retired_rule_id_is_a_usage_error(project):
    """RPR004 (the retired kernel-parity rule) is not silently accepted
    as a no-op selection: asking for it is an unknown-rule error."""
    with pytest.raises(SystemExit, match="RPR004"):
        main(["lint", "src", "--rules", "RPR004"])


def test_missing_path_is_a_usage_error(project):
    with pytest.raises(SystemExit, match="no such file"):
        main(["lint", "does-not-exist"])


def test_pyproject_defaults_are_read(project, capsys):
    """[tool.repro.lint] supplies paths/baseline when flags are absent.

    On Python 3.10 (no tomllib) the built-in defaults happen to name the
    same paths, so the assertion holds either way.
    """
    (project / "pyproject.toml").write_text(
        '[tool.repro.lint]\npaths = ["src"]\n'
        'baseline = "lint_baseline.json"\n'
    )
    (project / "tools").mkdir()
    assert main(["lint", "--no-baseline"]) == 1
    assert "bad.py" in capsys.readouterr().out


def test_parse_error_exits_2(project, capsys):
    (project / "src" / "repro" / "sim" / "broken.py").write_text("def f(:\n")
    assert main(["lint", "src", "--no-baseline"]) == 2
    assert "RPR000" in capsys.readouterr().out
