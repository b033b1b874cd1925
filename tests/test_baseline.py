"""Tests for the two-step commercial-tool baseline."""

import pytest

from repro.baseline.sensitize import PathStatus, TwoStepSensitizer
from repro.baseline.structural import StructuralEnumerator
from repro.baseline.sta2step import TwoStepSTA
from repro.core.delaycalc import DelayCalculator
from repro.core.engine import EngineCircuit
from repro.core.sta import TruePathSTA
from repro.eval.fig4 import CRITICAL_NETS, fig4_circuit
from repro.netlist.generate import c17, random_dag
from repro.netlist.techmap import techmap


@pytest.fixture(scope="module")
def c17_setup(charlib_lut_90):
    circuit = c17()
    ec = EngineCircuit(circuit)
    calc = DelayCalculator(ec, charlib_lut_90)
    return circuit, ec, calc


class TestStructuralEnumeration:
    def test_c17_count(self, c17_setup):
        _c, ec, calc = c17_setup
        enum = StructuralEnumerator(ec, calc)
        assert enum.count_paths() == 11
        assert len(list(enum.iter_paths())) == 11

    def test_longest_first_order(self, c17_setup):
        _c, ec, calc = c17_setup
        enum = StructuralEnumerator(ec, calc)
        delays = [p.structural_delay for p in enum.iter_paths()]
        assert delays == sorted(delays, reverse=True)

    def test_limit(self, c17_setup):
        _c, ec, calc = c17_setup
        enum = StructuralEnumerator(ec, calc)
        assert len(list(enum.iter_paths(limit=4))) == 4

    def test_count_matches_enumeration_random(self, charlib_lut_90):
        circuit = techmap(random_dag("se", 10, 50, seed=13))
        ec = EngineCircuit(circuit)
        calc = DelayCalculator(ec, charlib_lut_90)
        enum = StructuralEnumerator(ec, calc)
        assert enum.count_paths() == len(list(enum.iter_paths()))


class TestSensitizer:
    def test_c17_all_true(self, c17_setup):
        _c, ec, calc = c17_setup
        enum = StructuralEnumerator(ec, calc)
        sens = TwoStepSensitizer(ec, calc)
        outcomes = [sens.check(p) for p in enum.iter_paths()]
        assert all(o.status is PathStatus.TRUE for o in outcomes)
        for o in outcomes:
            assert o.path is not None
            assert o.path.rise and o.path.fall

    def test_false_path_detected(self, charlib_lut_90):
        """z = AND(a, NOT a): both structural paths are false."""
        from repro.netlist.circuit import Circuit

        c = Circuit("fp")
        c.add_input("a")
        c.add_gate("INV", "an", {"A": "a"}, name="U1")
        c.add_gate("AND2", "z", {"A": "a", "B": "an"}, name="U2")
        c.add_output("z")
        ec = EngineCircuit(c)
        calc = DelayCalculator(ec, charlib_lut_90)
        enum = StructuralEnumerator(ec, calc)
        sens = TwoStepSensitizer(ec, calc)
        outcomes = [sens.check(p) for p in enum.iter_paths()]
        assert outcomes
        assert all(o.status is PathStatus.FALSE for o in outcomes)

    def test_gate_delays_recorded(self, c17_setup):
        _c, ec, calc = c17_setup
        enum = StructuralEnumerator(ec, calc)
        sens = TwoStepSensitizer(ec, calc)
        outcome = sens.check(next(iter(enum.iter_paths())))
        path = outcome.path
        for pol in path.polarities():
            assert len(pol.gate_delays) == len(path.steps)
            assert sum(pol.gate_delays) == pytest.approx(pol.arrival)


class TestTwoStepSTA:
    def test_report_counters(self, charlib_lut_90):
        circuit = techmap(random_dag("ts", 14, 80, seed=31))
        tool = TwoStepSTA(circuit, charlib_lut_90, backtrack_limit=1000)
        report = tool.run(max_structural_paths=300)
        assert report.paths_explored == min(300, tool.structural_path_count())
        assert (
            report.true_paths + report.declared_false + report.backtrack_limited
            == report.paths_explored
        )
        assert 0.0 <= report.no_vector_ratio <= 1.0
        row = report.as_row()
        assert row["paths"] == report.paths_explored

    def test_baseline_true_courses_subset_of_developed(
        self, charlib_poly_90, charlib_lut_90
    ):
        """Everything the baseline proves true, the developed tool finds."""
        circuit = techmap(random_dag("sub", 12, 70, seed=17))
        dev = TruePathSTA(circuit, charlib_poly_90)
        dev_courses = {p.course for p in dev.enumerate_paths()}
        base = TwoStepSTA(circuit, charlib_lut_90)
        report = base.run(max_structural_paths=1000)
        base_courses = {p.course for p in base.true_paths(report)}
        assert base_courses <= dev_courses

    def test_fig4_baseline_misses_worst_vector(
        self, charlib_poly_90, charlib_lut_90
    ):
        """The paper's headline: the commercial tool reports only the
        easiest vector for the Fig. 4 critical path."""
        circuit = fig4_circuit()
        base = TwoStepSTA(circuit, charlib_lut_90)
        report = base.run(max_structural_paths=100)
        critical = [
            p for p in base.true_paths(report) if p.nets == CRITICAL_NETS
        ]
        assert len(critical) == 1  # one vector only
        # Its AO22 traversal uses case 1 (the easy N6=0 assignment).
        ao22_step = critical[0].steps[2]
        assert ao22_step.cell_name == "AO22"
        assert ao22_step.case == 1
        # The developed tool additionally finds case 2 (the true worst).
        dev = TruePathSTA(circuit, charlib_poly_90)
        cases = {
            p.steps[2].case
            for p in dev.enumerate_paths()
            if p.nets == CRITICAL_NETS
        }
        assert cases == {1, 2, 3}

    def test_worst_true_path(self, charlib_lut_90):
        tool = TwoStepSTA(c17(), charlib_lut_90)
        report = tool.run()
        worst = tool.worst_true_path(report)
        assert worst is not None
        assert worst.worst_arrival == max(
            p.worst_arrival for p in tool.true_paths(report)
        )

    def test_rendered_report_is_clock_free(self, charlib_lut_90,
                                           monkeypatch):
        """The served result memo treats a baseline report as a pure
        function of its request, so the rendered text must not carry
        the run's wall-clock time (it stays in ``baseline.cpu_seconds``)."""
        import itertools
        from types import SimpleNamespace

        import repro.baseline.sta2step as sta2step
        from repro.service.requests import (
            AnalysisContext, AnalysisRequest, execute_analysis,
        )

        # A clock whose every reading advances further than the last:
        # the two runs below take 2 s and 4 s.
        ticks = itertools.accumulate(itertools.count(1))
        monkeypatch.setattr(sta2step, "time", SimpleNamespace(
            perf_counter=lambda: float(next(ticks))))

        def render():
            return execute_analysis(
                AnalysisRequest("c17", tool="baseline"),
                AnalysisContext(circuit=c17(), charlib=charlib_lut_90),
            ).report

        assert render() == render()

    def test_abort_with_tiny_budget(self, charlib_lut_90):
        circuit = techmap(random_dag("ab", 16, 120, seed=41))
        tool = TwoStepSTA(circuit, charlib_lut_90, backtrack_limit=0)
        report = tool.run(max_structural_paths=200)
        # With a zero budget anything needing a single backtrack aborts.
        assert report.backtrack_limited >= 0
        assert report.paths_explored > 0
