"""CLI backend-selector tests (`--backend` on run-trace/sweep)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.sim.backends import FastBackendFallbackWarning


class TestParser:
    @pytest.mark.parametrize("command", [["run-trace", "FP-1"], ["sweep"]])
    def test_backend_defaults_to_reference(self, command):
        assert build_parser().parse_args(command).backend == "reference"

    def test_backend_accepts_fast(self):
        args = build_parser().parse_args(["sweep", "--backend", "fast"])
        assert args.backend == "fast"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--backend", "turbo"])


class TestCommands:
    def test_sweep_fast_backend_vectorized_grid(self, capsys):
        pytest.importorskip("numpy")
        code = main([
            "sweep", "--backend", "fast", "--no-cache",
            "--predictors", "gshare", "bimodal",
            "--estimators", "jrs", "ejrs",
            "--traces", "INT-1", "--branches", "1000", "--workers", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 jobs" in out

    def test_sweep_backends_print_identical_tables(self, capsys):
        pytest.importorskip("numpy")
        base = [
            "sweep", "--no-cache", "--predictors", "gshare",
            "--estimators", "jrs", "--traces", "MM-1",
            "--branches", "1200", "--workers", "1", "--tsv",
        ]
        def tsv_portion(out: str) -> str:
            # Drop the progress lines (they carry wall-clock timings);
            # keep everything from the TSV header on.
            return out[out.index("trace\t"):]

        assert main(base) == 0
        reference_out = capsys.readouterr().out
        assert main(base + ["--backend", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert tsv_portion(fast_out) == tsv_portion(reference_out)

    def test_run_trace_fast_tage_runs_without_warning(self, capsys):
        """The TAGE×observation cell behind run-trace is fast-native now."""
        pytest.importorskip("numpy")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", FastBackendFallbackWarning)
            code = main([
                "run-trace", "FP-1", "--branches", "1200",
                "--size", "16K", "--backend", "fast", "--no-cache",
            ])
        assert code == 0
        assert "high-conf-bim" in capsys.readouterr().out

    def test_run_trace_backends_print_identical_tables(self, capsys):
        pytest.importorskip("numpy")
        base = ["run-trace", "MM-1", "--branches", "1500", "--size", "16K"]
        assert main(base) == 0
        reference_out = capsys.readouterr().out
        assert main(base + ["--backend", "fast", "--no-cache"]) == 0
        fast_out = capsys.readouterr().out
        assert fast_out == reference_out

    def test_run_trace_materialization_cache_round_trip(self, tmp_path, capsys):
        """--cache-dir materializes the planes; a second run memmaps them."""
        pytest.importorskip("numpy")
        planes_dir = tmp_path / "planes"
        base = [
            "run-trace", "INT-1", "--branches", "1200", "--size", "16K",
            "--backend", "fast", "--cache-dir", str(planes_dir),
        ]
        assert main(base) == 0
        first_out = capsys.readouterr().out
        entries = sorted(planes_dir.glob("*.npy"))
        assert len(entries) == 1
        stamp = entries[0].stat().st_mtime_ns
        assert main(base) == 0
        second_out = capsys.readouterr().out
        assert second_out == first_out
        assert sorted(planes_dir.glob("*.npy")) == entries
        assert entries[0].stat().st_mtime_ns == stamp
