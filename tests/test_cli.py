"""Tests for the command-line driver."""

import json

import pytest

from repro.cli import load_circuit, main
from repro.netlist.bench import C17_BENCH


@pytest.fixture
def bench_file(tmp_path):
    path = tmp_path / "c17.bench"
    path.write_text(C17_BENCH)
    return str(path)


@pytest.fixture
def verilog_file(tmp_path, charlib_poly_90):
    from repro.netlist.generate import c17
    from repro.netlist.verilog import write_verilog

    path = tmp_path / "c17.v"
    path.write_text(write_verilog(c17()))
    return str(path)


class TestLoadCircuit:
    def test_bench_mapped(self, bench_file):
        circuit = load_circuit(bench_file)
        assert circuit.num_gates >= 1

    def test_bench_unmapped(self, bench_file):
        circuit = load_circuit(bench_file, map_to_complex=False)
        assert circuit.num_gates == 6

    def test_verilog(self, verilog_file):
        circuit = load_circuit(verilog_file)
        assert circuit.num_gates == 6


class TestStatsCommand:
    def test_stats(self, bench_file, capsys):
        assert main(["stats", bench_file, "--no-map"]) == 0
        out = capsys.readouterr().out
        assert "gates" in out and "6" in out


class TestAnalyzeCommand:
    def test_developed(self, bench_file, capsys, charlib_poly_90):
        assert main([
            "analyze", bench_file, "--no-map", "--tech", "90nm", "--top", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "True-path report" in out
        assert "ps" in out

    def test_max_paths_report_identical_at_every_width(self, capsys,
                                                       charlib_poly_90):
        """A binding ``--max-paths`` is a requested output size, not a
        degradation: serial, pooled and resilience-flagged runs print
        the same report, with no completeness block."""
        outputs = []
        for extra in ([], ["--jobs", "2"], ["--shard-timeout", "1000"]):
            assert main(["analyze", "iscas:c432", "--tech", "90nm",
                         "--max-paths", "10", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert ", 10 sensitizations)" in outputs[0]
        assert "origin completeness" not in outputs[0]
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_zero_max_paths_compare_identical_at_every_width(
            self, capsys, charlib_poly_90):
        """``--max-paths 0`` keeps no path at any ``--jobs``, through
        ``--compare`` too."""
        outputs = []
        for jobs in ("1", "2"):
            assert main(["analyze", "iscas:c17", "--tech", "90nm",
                         "--tool", "gba", "--compare", "--max-paths", "0",
                         "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert "gba_pessimism vs 0 true paths" in outputs[0]
        assert outputs[1] == outputs[0]

    def test_zero_max_paths_is_zero_paths_in_the_library(
            self, charlib_poly_90):
        from repro.core.sta import TruePathSTA

        sta = TruePathSTA(load_circuit("iscas:c17"), charlib_poly_90)
        assert sta.enumerate_paths(max_paths=0) == []
        result = sta.analyze(max_paths=0)
        assert result.paths == []
        assert {o.status for o in result.completeness.origins.values()} \
            == {"capped"}

    def test_baseline(self, bench_file, capsys, charlib_lut_90):
        assert main([
            "analyze", bench_file, "--no-map", "--tool", "baseline",
            "--tech", "90nm",
        ]) == 0
        out = capsys.readouterr().out
        assert "two-step baseline" in out

    def test_slack_and_json(self, bench_file, tmp_path, capsys,
                            charlib_poly_90):
        json_path = tmp_path / "paths.json"
        assert main([
            "analyze", bench_file, "--no-map", "--tech", "90nm",
            "--required", "90", "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "slack" in out
        data = json.loads(json_path.read_text())
        assert len(data) == 11


class TestObservabilityFlags:
    def test_profile_prints_span_tree(self, bench_file, capsys, clean_obs,
                                      charlib_poly_90):
        assert main([
            "analyze", bench_file, "--no-map", "--tech", "90nm", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "pathfinder.justify" in out
        assert "pathfinder.delaycalc" in out
        assert "metrics:" in out

    def test_metrics_json_snapshot(self, bench_file, tmp_path, capsys,
                                   clean_obs, charlib_poly_90):
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "analyze", bench_file, "--no-map", "--tech", "90nm",
            "--profile", "--metrics-json", str(metrics_path),
        ]) == 0
        data = json.loads(metrics_path.read_text())
        assert data["pathfinder.extensions_tried"] > 0
        assert "pathfinder.conflicts" in data
        assert "pathfinder.justification_backtracks" in data
        assert data["spans"]["pathfinder.justify"]["count"] > 0
        assert data["spans"]["pathfinder.delaycalc"]["total_s"] >= 0

    def test_metrics_json_baseline_tool(self, bench_file, tmp_path, capsys,
                                        clean_obs, charlib_lut_90):
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "analyze", bench_file, "--no-map", "--tool", "baseline",
            "--tech", "90nm", "--metrics-json", str(metrics_path),
        ]) == 0
        data = json.loads(metrics_path.read_text())
        assert data["baseline.paths_explored"] > 0

    def test_log_level_emits_structured_records(self, bench_file, capsys,
                                                clean_obs, charlib_poly_90):
        assert main([
            "analyze", bench_file, "--no-map", "--tech", "90nm",
            "--log-level", "info",
        ]) == 0
        err = capsys.readouterr().err
        assert "charlib_memo" in err  # hit or miss, either is logged

    def test_charlib_memo_hits_on_repeat(self, bench_file, capsys, clean_obs,
                                         charlib_poly_90):
        import repro.cli as cli

        cli._CHARLIB_MEMO.clear()
        assert main(["analyze", bench_file, "--no-map", "--tech", "90nm"]) == 0
        assert main(["analyze", bench_file, "--no-map", "--tech", "90nm"]) == 0
        capsys.readouterr()
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("cli.charlib_memo_misses").value == 1
        assert registry.counter("cli.charlib_memo_hits").value == 1


class TestSizeCommand:
    def test_size_text_report(self, bench_file, capsys, tech90):
        assert main([
            "size", bench_file, "--no-map", "--tech", "90nm",
            "--required", "80", "--max-moves", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "sizing:" in out
        assert "strategy greedy" in out

    def test_size_json_and_metrics(self, bench_file, tmp_path, capsys,
                                   clean_obs, tech90):
        report = tmp_path / "sizing.json"
        metrics = tmp_path / "metrics.json"
        assert main([
            "size", bench_file, "--no-map", "--tech", "90nm",
            "--required", "80", "--max-moves", "2",
            "--json", str(report), "--metrics-json", str(metrics),
        ]) == 0
        payload = json.loads(report.read_text())
        assert payload["strategy"] == "greedy"
        assert payload["required_ps"] == 80.0
        for move in payload["moves"]:
            assert move["to"].endswith("_X2") or move["from"].endswith("_X2")
        data = json.loads(metrics.read_text())
        assert data["sizer.moves_tried"] >= data["sizer.moves_accepted"]
        if payload["moves"]:
            assert data["incremental.edits"] >= 1
