"""Harness tests for the benchmark.  Not part of tier-1; run them with

    pytest bench -q

from the checkout root (they use the warm library cache in
``.bench_cache/``; a cold cache adds one characterization).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
os.environ["REPRO_CHAR_CACHE"] = str(ROOT / ".bench_cache" / "charlib")
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.IN_PROCESS)
def test_in_process_workload_runs_three_requests(name, tmp_path):
    workloads.write_inputs(name, 0, tmp_path)
    workload = workloads.make(name, 0, tmp_path)
    result = workloads.drive(workload, count=3)
    assert len(result.latencies) == 3
    assert result.errors == [] and result.failures == []
    assert run.check_golden(name, 0, result.digests) == []


def test_traced_pass_renders_the_untraced_bytes(tmp_path):
    workload = workloads.make("search-nworst", 0, tmp_path)
    result = workloads.traced_passes(workload, 3, None)
    assert result["failures"] == []
    assert set(result["layer_self"]) >= {"request", "netlist.load",
                                         "core.pathfinder.search"}
    assert result["counters"]["pathfinder.extensions_tried"] == \
        result["traced_counters"]["pathfinder.extensions_tried"]


def test_served_workload_runs_three_requests(tmp_path):
    netlists, _ = workloads.write_inputs(workloads.SERVED, 0, tmp_path)
    plan = workloads.served_plan(0, 3)
    server = run.Server(run.program_env(ROOT), ROOT, tmp_path / "server.log")
    try:
        samples, _wall, _slowdown = workloads.run_clients(
            run.HOST, server.port, plan, netlists, count=3)
    finally:
        server.stop()
    assert [s.position for s in samples] == [0, 1, 2]
    assert all(s.error is None for s in samples)
    assert workloads.check_served(samples, plan, netlists) == []


@pytest.fixture
def quick(monkeypatch):
    """Shortest runs of the real command: one cold start, 3 traced
    requests."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    monkeypatch.setattr(workloads, "TRACE_REQUESTS",
                        dict.fromkeys(workloads.WORKLOADS, 3))


def _result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_metric_names_and_units_match_benchmark_json(quick, capsys, trace,
                                                     section):
    argv = ["--workload", "search-nworst", "--seed", "1", "--seconds", "1",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    line = _result_line(capsys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_tampered_golden_digest_fails_the_run(quick, monkeypatch, capsys):
    golden = run.load_golden()
    golden["search-nworst"][0] = "0" * 16
    monkeypatch.setattr(run, "load_golden", lambda: golden)
    argv = ["--workload", "search-nworst", "--seed", "0", "--seconds", "1"]
    assert run.main(argv) == 1
    assert capsys.readouterr().out.strip() == ""


def test_tampered_served_byte_fails_the_run(quick, monkeypatch, capsys):
    honest = ServiceClient.call

    def tampered(self, op, params=None, **kwargs):
        frame = honest(self, op, params, **kwargs)
        if op == "analyze":
            report = frame["report"]
            frame["report"] = report[:-1] + chr(ord(report[-1]) ^ 1)
        return frame

    monkeypatch.setattr(ServiceClient, "call", tampered)
    argv = ["--workload", workloads.SERVED, "--seed", "0", "--seconds", "1"]
    assert run.main(argv) == 1
    assert capsys.readouterr().out.strip() == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search-nworst",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
