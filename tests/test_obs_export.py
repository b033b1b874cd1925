"""Trace-event export (repro.obs.export): schema, lanes, instants.

Validates the emitted JSON against the Trace Event Format contract the
viewers actually enforce: every event carries name/ph/pid/tid, complete
events ("X") carry microsecond ts+dur, instants ("i") carry a scope,
and process lanes are named via "M" metadata events.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import export, tracing


def validate_trace(document: dict) -> list:
    """Assert the trace-event JSON object form; returns the events."""
    assert set(document) >= {"traceEvents"}
    events = document["traceEvents"]
    assert isinstance(events, list)
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event), event
        assert isinstance(event["name"], str)
        assert event["ph"] in {"M", "X", "i"}, event
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
        elif event["ph"] == "i":
            assert event["s"] in {"g", "p", "t"}
        elif event["ph"] == "M":
            assert event["name"] == "process_name"
            assert "name" in event["args"]
    return events


@pytest.fixture
def collector(clean_obs):
    return export.enable()


class TestCollector:
    def test_parent_lane_named_on_creation(self, collector):
        events = validate_trace(collector.as_dict())
        meta = [e for e in events if e["ph"] == "M"]
        assert [e["args"]["name"] for e in meta] == ["parent"]

    def test_foreign_pid_gets_worker_lane(self, collector):
        collector.add_complete("shard.search", 100.0, 2.5, pid=4242)
        events = validate_trace(collector.as_dict())
        lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "worker-4242" in lanes

    def test_complete_event_microseconds(self, collector):
        collector.add_complete("shard.search", start_epoch_s=10.0,
                               dur_s=0.5, pid=1)
        (event,) = [e for e in validate_trace(collector.as_dict())
                    if e["ph"] == "X"]
        assert event["ts"] == pytest.approx(10.0 * 1e6)
        assert event["dur"] == pytest.approx(0.5 * 1e6)

    def test_instant_carries_global_scope_and_args(self, collector):
        export.instant("resilience.worker_crash", origin="I3", attempt=2)
        (event,) = [e for e in validate_trace(collector.as_dict())
                    if e["ph"] == "i"]
        assert event["s"] == "g"
        assert event["args"] == {"origin": "I3", "attempt": 2}

    def test_metadata_events_sort_first(self, collector):
        collector.add_complete("a", 5.0, 1.0, pid=7)
        collector.add_complete("b", 1.0, 1.0, pid=8)
        events = validate_trace(collector.as_dict())
        phases = [e["ph"] for e in events]
        assert phases == sorted(phases, key=lambda p: 0 if p == "M" else 1)

    def test_write_drains_pending_span_events(self, collector, tmp_path):
        with tracing.span("parent.work"):
            pass
        out = tmp_path / "trace.json"
        count = collector.write(str(out))
        document = json.loads(out.read_text())
        events = validate_trace(document)
        assert count == len(events)
        assert any(e["name"] == "parent.work" and e["ph"] == "X"
                   for e in events)

    def test_disabled_module_hooks_are_noops(self, clean_obs):
        assert not export.enabled()
        export.instant("resilience.worker_crash")  # must not raise
        export.ingest_span_events([("x", 0.0, 1.0, 0)])
        assert export.collector() is None

    def test_ingest_span_events_lands_on_worker_lane(self, collector):
        collector.ingest_span_events(
            [("shard.search", 50.0, 1.0, 0)], pid=999)
        events = validate_trace(collector.as_dict())
        (event,) = [e for e in events if e["ph"] == "X"]
        assert event["pid"] == 999


class TestSupervisedTrace:
    def test_fault_injected_run_has_lanes_and_incident_instants(
            self, clean_obs, charlib_poly_90):
        """The acceptance trace: a --jobs run under fault injection
        exports worker lanes plus crash/retry instants."""
        from repro.cli import load_circuit
        from repro.core.sta import TruePathSTA
        from repro.verify.faults import FaultPlan

        circuit = load_circuit("iscas:c432@0.1")
        origins = list(circuit.inputs)
        export.enable()
        plan = FaultPlan(crash_origins=(origins[1],))
        TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, shard_retries=2, fault_plan=plan)
        events = validate_trace(export.collector().as_dict())

        lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "parent" in lanes
        assert sum(name.startswith("worker-") for name in lanes) >= 1

        instants = {e["name"] for e in events if e["ph"] == "i"}
        assert "resilience.worker_crash" in instants
        assert "resilience.shard_retry" in instants

        # Worker span events landed on worker lanes, not the parent's.
        worker_pids = {e["pid"] for e in events
                       if e["ph"] == "M" and
                       e["args"]["name"].startswith("worker-")}
        assert any(e["ph"] == "X" and e["pid"] in worker_pids
                   for e in events)

    def test_shard_timeout_instant(self, clean_obs, charlib_poly_90):
        from repro.cli import load_circuit
        from repro.core.sta import TruePathSTA
        from repro.verify.faults import FaultPlan

        circuit = load_circuit("iscas:c432@0.1")
        origins = list(circuit.inputs)
        export.enable()
        plan = FaultPlan(hang_origins=(origins[0],))
        TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, shard_timeout=2.0, shard_retries=1, fault_plan=plan)
        events = validate_trace(export.collector().as_dict())
        instants = {e["name"] for e in events if e["ph"] == "i"}
        assert "resilience.shard_timeout" in instants


class TestCliTraceJson:
    def test_analyze_writes_valid_trace(self, tmp_path, capsys,
                                        charlib_poly_90, clean_obs):
        from repro.cli import main

        out = tmp_path / "trace.json"
        rc = main(["analyze", "iscas:c17", "--jobs", "2",
                   "--trace-json", str(out)])
        assert rc == 0
        events = validate_trace(json.loads(out.read_text()))
        lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "parent" in lanes
        assert sum(name.startswith("worker-") for name in lanes) >= 1
        assert "trace events" in capsys.readouterr().out
