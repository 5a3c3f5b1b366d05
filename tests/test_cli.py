"""The ``python -m repro.experiments`` command-line runner."""

import pytest

from repro.experiments.__main__ import build_parser, main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig03" in out
        assert "tab01" in out
        assert "figAX" in out
        assert "figMT" in out
        assert "figZOO" in out
        assert len(out.strip().splitlines()) == 16

    def test_run_one(self, capsys):
        assert main(["tab01"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "fast load" in out

    def test_run_several(self, capsys):
        assert main(["tab01", "fig01"]) == 0
        out = capsys.readouterr().out
        assert "PALcode" in out
        assert "Figure 1" in out

    def test_no_args_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_experiment(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["fig99"])

    def test_parser_help_mentions_paper(self):
        parser = build_parser()
        assert "Subpages" in parser.description


class TestExecutionFlags:
    def test_workers_and_progress(self, capsys):
        from repro.experiments import common

        common.clear_run_cache()
        assert main(["--workers", "2", "--progress", "fig09"]) == 0
        captured = capsys.readouterr()
        assert "Figure 9" in captured.out
        # Per-cell progress/timing lines went to stderr.
        assert "done" in captured.err
        assert "ms" in captured.err

    def test_build_options_layers_env_and_flags(self, monkeypatch,
                                                tmp_path):
        from repro.experiments.__main__ import build_options

        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        args = build_parser().parse_args(["fig01"])
        options = build_options(args)
        assert options.workers == 3
        assert options.cache is None
        assert options.progress is None

        args = build_parser().parse_args(
            ["--workers", "5", "--cache", str(tmp_path), "fig01"]
        )
        options = build_options(args)
        assert options.workers == 5
        assert options.cache is not None
        assert str(options.cache.root) == str(tmp_path)

    def test_cache_flag_skips_recomputation(self, capsys, tmp_path):
        from repro.experiments import common

        common.clear_run_cache()
        assert main(["--cache", str(tmp_path), "fig09"]) == 0
        capsys.readouterr()
        common.clear_run_cache()
        assert main(["--cache", str(tmp_path), "fig09"]) == 0
        err = capsys.readouterr().err
        assert "result cache: 15 hits" in err


class TestObservabilityFlags:
    def test_build_options_merges_observe_tokens(self):
        from repro.experiments.__main__ import build_options

        args = build_parser().parse_args(
            ["--trace-out", "t.json", "fig02"]
        )
        assert build_options(args).observe == "trace"
        args = build_parser().parse_args(
            ["--trace-out", "t.json", "--metrics-out", "m.json", "fig02"]
        )
        assert build_options(args).observe == "metrics,trace"
        args = build_parser().parse_args(["fig02"])
        assert build_options(args).observe == ""

    def test_fig02_trace_and_metrics_out(self, capsys, tmp_path):
        import json

        from repro.obs.validate import (
            validate_chrome_trace,
            validate_jsonl,
            validate_metrics,
        )

        trace_path = tmp_path / "out.trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "fig02", "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"wrote {trace_path}" in out

        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        # Each Figure 2 timeline case becomes a named process.
        names = [
            e["args"]["name"] for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        ]
        assert any("fullpage 8K" in name for name in names)

        jsonl_path = tmp_path / "out.trace.jsonl"
        assert validate_jsonl(jsonl_path.read_text()) == []

        metrics = json.loads(metrics_path.read_text())
        assert validate_metrics(metrics) == []
        assert any(
            name.startswith("fig02_resume_ms")
            for name in metrics["gauges"]
        )

    def test_simulated_runs_feed_metrics_out(self, capsys, tmp_path):
        import json

        from repro.experiments import common
        from repro.obs.validate import validate_metrics

        common.clear_run_cache()
        metrics_path = tmp_path / "metrics.json"
        assert main(["fig05", "--metrics-out", str(metrics_path)]) == 0
        capsys.readouterr()
        metrics = json.loads(metrics_path.read_text())
        assert validate_metrics(metrics) == []
        assert metrics["counters"]["faults_remote"] > 0
        assert "fault_waiting_ms" in metrics["histograms"]
        common.clear_run_cache()

    def test_figax_runs_feed_metrics_out(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        from repro.experiments import common, figAX_adaptive
        from repro.obs.validate import validate_metrics

        monkeypatch.setattr(
            figAX_adaptive, "classic_app_names", lambda: ("gdb",)
        )
        common.clear_run_cache()
        metrics_path = tmp_path / "metrics.json"
        assert main(["figAX", "--metrics-out", str(metrics_path)]) == 0
        capsys.readouterr()
        metrics = json.loads(metrics_path.read_text())
        assert validate_metrics(metrics) == []
        assert metrics["counters"]["faults_remote"] > 0
        common.clear_run_cache()

    def test_figmt_feeds_metrics_out(self, capsys, tmp_path):
        import json

        from repro.obs.validate import validate_metrics

        metrics_path = tmp_path / "metrics.json"
        assert main(["figMT", "--metrics-out", str(metrics_path)]) == 0
        capsys.readouterr()
        metrics = json.loads(metrics_path.read_text())
        assert validate_metrics(metrics) == []
        gauges = metrics["gauges"]
        assert gauges["figMT_p99_ms[4/pipelined/1024/t3]"] > 0
        assert gauges["figMT_slowdown[4/pipelined/1024/t3]"] >= 1.0
        assert gauges["figMT_fairness[4/pipelined/1024]"] >= 1.0
