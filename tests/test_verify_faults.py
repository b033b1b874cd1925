"""Fault-injection harness: plans, corruption, and the scenario driver."""

import pytest

from repro.core.sta import TruePathSTA
from repro.verify.faults import (
    FAULT_SCENARIOS,
    FaultPlan,
    corrupt_charlib,
    run_faults,
)
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap


def _circuit(seed=41, gates=30):
    return techmap(random_dag(f"flt{seed}", 6, gates, seed=seed,
                              n_outputs=3))


class TestFaultPlan:
    def test_plan_is_picklable(self):
        import pickle

        plan = FaultPlan(crash_origins=("I0",), hang_origins=("I1",),
                         interrupt_after=3)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_faults_never_fire_in_process(self, charlib_poly_90,
                                          monkeypatch):
        # The in-process paths (serial mode, serial fallback) never call
        # the hook, so they are fault-free by construction.
        calls = []
        monkeypatch.setattr(FaultPlan, "before_shard",
                            lambda plan, *args: calls.append(args))
        circuit = _circuit()
        plan = FaultPlan(crash_origins=tuple(circuit.inputs),
                         hang_origins=tuple(circuit.inputs),
                         hang_seconds=60.0)
        result = TruePathSTA(circuit, charlib_poly_90).analyze(
            fault_plan=plan)
        assert result.completeness.complete
        assert calls == []

    def test_off_schedule_attempts_pass_through(self):
        plan = FaultPlan(hang_origins=("I0",), hang_attempts=(0,),
                         hang_seconds=60.0)
        # Attempt 1 (the retry) is not scheduled: returns immediately.
        plan.before_shard("I0", 1)
        plan.before_shard("I9", 0)


class TestCorruptCharlib:
    def test_deterministic_for_a_seed(self, charlib_poly_90):
        circuit = _circuit()
        _, dropped_a = corrupt_charlib(charlib_poly_90, circuit, seed=5)
        _, dropped_b = corrupt_charlib(charlib_poly_90, circuit, seed=5)
        _, dropped_c = corrupt_charlib(charlib_poly_90, circuit, seed=6)
        assert dropped_a == dropped_b
        assert dropped_a != dropped_c

    def test_original_library_untouched(self, charlib_poly_90):
        circuit = _circuit()
        before = len(charlib_poly_90.arcs())
        corrupted, dropped = corrupt_charlib(charlib_poly_90, circuit)
        assert dropped
        assert len(charlib_poly_90.arcs()) == before
        assert len(corrupted.arcs()) == before - len(dropped)

    def test_only_used_cells_lose_arcs(self, charlib_poly_90):
        circuit = _circuit()
        used = {inst.cell.name for inst in circuit.instances.values()}
        _, dropped = corrupt_charlib(charlib_poly_90, circuit)
        assert all(key.split("|")[0] in used for key in dropped)

    def test_every_corrupted_cell_keeps_a_donor_arc(self, charlib_poly_90):
        """warn-substitute needs at least one surviving arc per cell."""
        circuit = _circuit()
        corrupted, dropped = corrupt_charlib(
            charlib_poly_90, circuit, drop_fraction=1.0, max_drops=10_000)
        survivors = {}
        for arc in corrupted.arcs():
            survivors[arc.cell] = survivors.get(arc.cell, 0) + 1
        for key in dropped:
            assert survivors.get(key.split("|")[0], 0) >= 1


class TestRunFaults:
    def test_unknown_scenario_rejected(self, charlib_poly_90):
        with pytest.raises(ValueError):
            run_faults(_circuit(), charlib_poly_90,
                       scenarios=["no_such_fault"])

    def test_full_catalog_recovers(self, charlib_poly_90, clean_obs):
        circuit = _circuit()
        report = run_faults(circuit, charlib_poly_90, seed=11, jobs=2)
        assert [s.name for s in report.scenarios] == list(FAULT_SCENARIOS)
        assert report.ok, report.describe()
        # Every scenario actually exercised its recovery machinery.
        by_name = {s.name: s for s in report.scenarios}
        assert by_name["worker_crash"].recovery[
            "resilience.worker_crashes"] >= 1
        assert by_name["shard_timeout"].recovery[
            "resilience.shard_timeouts"] >= 1
        assert by_name["corrupt_charlib"].recovery[
            "delaycalc.arc_substitutions"] >= 1
        assert by_name["interrupt_resume"].recovery[
            "resilience.resumed_shards"] >= 1
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("verify.fault_scenarios").value \
            == len(FAULT_SCENARIOS)
        assert registry.counter("verify.fault_failures").value == 0
        text = report.describe()
        assert "all scenarios recovered" in text
