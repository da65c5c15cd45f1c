"""Tests for the ``c2bound`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("fig1", "table1", "fig12", "ablation-factors"):
            assert key in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "C-AMAT" in out
        assert "True" in out

    def test_run_with_csv_output(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table1.csv").exists()
        assert "saved" in capsys.readouterr().out

    def test_every_fast_experiment_renders(self, capsys):
        fast = ("fig1", "table1", "fig7", "capacity",
                "ablation-miss-curve")
        for key in fast:
            assert main([key]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--fabric"], ["--workers", "2"],
                                       ["--steal"], ["--no-steal"]])
    def test_pool_flags_are_gone(self, flags, capsys):
        # Experiments evaluate inline; pool width belongs to the
        # evaluator (and ``serve --job-workers``), not to this CLI.
        with pytest.raises(SystemExit) as exc:
            main(["fig12", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_registry_complete(self):
        # Every paper artifact has a CLI entry.
        for key in ("fig1", "table1", "fig7", "fig8", "fig9", "fig10",
                    "fig11", "fig12", "fig13", "capacity",
                    "aps-accuracy"):
            assert key in EXPERIMENTS


class TestObservabilityFlags:
    def test_version(self, capsys):
        from repro.obs import package_version
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert package_version() in capsys.readouterr().out

    def test_quiet_silences_stdout_keeps_files(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        assert main(["fig1", "--quiet", "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        assert capsys.readouterr().out == ""
        assert trace.exists()
        assert metrics.exists()

    def test_trace_validates_against_schema(self, tmp_path, capsys):
        from repro.obs import validate_trace_file
        trace = tmp_path / "t.jsonl"
        assert main(["fig1", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert validate_trace_file(trace) == []

    def test_metrics_snapshot_has_experiment_span_counters(self, tmp_path,
                                                           capsys):
        import json
        metrics = tmp_path / "m.json"
        assert main(["table1", "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        snap = json.loads(metrics.read_text())
        assert set(snap) == {"counters", "gauges", "histograms"}

    def test_manifest_written(self, tmp_path, capsys):
        import json
        manifest = tmp_path / "manifest.json"
        assert main(["fig1", "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        data = json.loads(manifest.read_text())
        assert data["experiment"] == "fig1"
        assert data["schema"].startswith("c2bound.manifest/")
        assert "metrics" in data

    def test_manifest_defaults_into_out_dir(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "manifest_table1.json").exists()

    def test_timing_summary_printed(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "experiment.fig1" in out

    def test_tracer_disabled_after_run(self):
        from repro.obs import get_tracer
        assert main(["fig1"]) == 0
        assert get_tracer().enabled is False
