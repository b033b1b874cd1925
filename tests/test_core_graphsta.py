"""Tests for graph-based analysis and its pessimism vs true paths."""

import pytest

from repro.core.graphsta import GbaResult, GraphSTA, gba_pessimism
from repro.core.sta import TruePathSTA
from repro.eval.fig4 import fig4_circuit
from repro.netlist.generate import c17, random_dag
from repro.netlist.techmap import techmap


@pytest.fixture(scope="module")
def c17_gba(charlib_poly_90):
    circuit = c17()
    gba = GraphSTA(circuit, charlib_poly_90).run()
    sta = TruePathSTA(circuit, charlib_poly_90)
    return circuit, gba, sta.enumerate_paths()


@pytest.fixture(scope="module")
def c17_session(charlib_poly_90):
    """The GBA result keeps the primary outputs; every other net's
    forward timing is read from the session by net id."""
    return TruePathSTA(c17(), charlib_poly_90)


def worst_arrival(session, net):
    rise, fall = session.arrivals()[session.ec.net_id[net]]
    return max(a for a in (rise, fall) if a is not None)


class TestGba:
    def test_inputs_at_zero(self, c17_session):
        net = c17_session.ec.net_id["G1"]
        assert c17_session.arrivals()[net] == [0.0, 0.0]

    def test_all_nets_reached(self, c17_session):
        for net in c17_session.circuit.nets:
            assert worst_arrival(c17_session, net) >= 0.0

    def test_arrivals_grow_along_levels(self, c17_session):
        assert (worst_arrival(c17_session, "G22")
                > worst_arrival(c17_session, "G10"))

    def test_reports_the_primary_outputs(self, c17_gba):
        circuit, gba, _p = c17_gba
        assert list(gba.arrivals) == list(circuit.outputs)
        assert list(gba.slews) == list(circuit.outputs)

    def test_never_optimistic(self, c17_gba):
        """GBA is an upper bound on every true path arrival."""
        _c, gba, paths = c17_gba
        comparison = gba_pessimism(gba, paths)
        for endpoint, row in comparison.items():
            assert row["pessimism"] >= -0.01, endpoint  # model noise only

    def test_c17_is_tight(self, c17_gba):
        """All-NAND circuits have one vector per arc: GBA == true paths."""
        _c, gba, paths = c17_gba
        comparison = gba_pessimism(gba, paths)
        for row in comparison.values():
            assert row["pessimism"] == pytest.approx(0.0, abs=0.02)

    def test_unreachable_net_raises(self, charlib_poly_90):
        gba = GbaResult(arrivals={"x": (None, None)}, slews={"x": (None, None)})
        with pytest.raises(ValueError):
            gba.worst_arrival("x")


class TestOneSession:
    def test_compare_builds_one_engine(self, monkeypatch):
        """``--tool gba --compare`` searches the session whose forward
        pass it rendered: one indexed circuit, not one per side."""
        from repro.core.engine import EngineCircuit
        from repro.service.requests import AnalysisRequest, execute_analysis

        builds = []
        honest = EngineCircuit.__init__

        def spy(self, circuit):
            builds.append(circuit.name)
            honest(self, circuit)

        monkeypatch.setattr(EngineCircuit, "__init__", spy)
        outcome = execute_analysis(
            AnalysisRequest("iscas:c17", tool="gba", compare=True))
        assert "gba_pessimism vs" in outcome.report
        assert len(builds) == 1

    def test_gba_and_edits_never_build_sinks(self, charlib_poly_90):
        """The search's ``(gate index, pin)`` table is built on its first
        read; a GBA pass and an ECO edit never read it, and the built
        table lists every arc's pair in fanout order."""
        from repro.eval.iscas import build_circuit

        session = TruePathSTA(build_circuit("c432", scale=0.1),
                              charlib_poly_90)
        session.gba()
        gate = next(i for i in session.circuit.instances.values()
                    if i.cell.name == "NAND2")
        session.replace_cell(gate.name, "NOR2")
        session.gba()
        tgraph = session.ec.tgraph
        assert "sinks" not in tgraph.__dict__
        session.n_worst_paths(3)
        assert "sinks" in tgraph.__dict__
        eager = [[] for _ in range(session.ec.num_nets)]
        for g in session.ec.gates:
            for pin, src in zip(g.cell.inputs, g.input_nets):
                eager[src].append((g.index, pin))
        assert tgraph.sinks == eager
        assert {type(pair) for sinks in tgraph.sinks for pair in sinks} \
            == {tuple}

    def test_vector_blind_follows_the_library(self, charlib_poly_90,
                                              charlib_lut_90):
        assert not TruePathSTA(c17(), charlib_poly_90).calc.vector_blind
        assert TruePathSTA(c17(), charlib_lut_90).calc.vector_blind


class TestPessimism:
    def test_fig4_gba_overestimates(self, charlib_poly_90):
        """On the Fig. 4 circuit GBA uses the worst AO22 vector on every
        arc without checking sensitizability jointly; the endpoint bound
        must be at least the true worst (case 2) arrival."""
        circuit = fig4_circuit()
        gba = GraphSTA(circuit, charlib_poly_90).run()
        paths = TruePathSTA(circuit, charlib_poly_90).enumerate_paths()
        comparison = gba_pessimism(gba, paths)
        row = comparison["N20"]
        assert row["gba"] >= row["true"] * 0.99

    def test_random_circuits_bounded(self, charlib_poly_90):
        for seed in (3, 11, 29):
            circuit = techmap(random_dag(f"gba{seed}", 12, 60, seed=seed))
            gba = GraphSTA(circuit, charlib_poly_90).run()
            paths = TruePathSTA(circuit, charlib_poly_90).enumerate_paths(
                max_paths=2000
            )
            if not paths:
                continue
            comparison = gba_pessimism(gba, paths)
            assert comparison
            for endpoint, row in comparison.items():
                assert row["pessimism"] >= -0.02, (seed, endpoint)

    def test_pessimism_positive_somewhere(self, charlib_poly_90):
        """False paths exist in reconvergent logic, so GBA is strictly
        pessimistic on at least one endpoint of a suitable circuit."""
        found = False
        for seed in range(40):
            circuit = techmap(random_dag(f"pes{seed}", 10, 50, seed=seed))
            paths = TruePathSTA(circuit, charlib_poly_90).enumerate_paths(
                max_paths=2000
            )
            if not paths:
                continue
            gba = GraphSTA(circuit, charlib_poly_90).run()
            comparison = gba_pessimism(gba, paths)
            if any(row["pessimism"] > 0.03 for row in comparison.values()):
                found = True
                break
        assert found
