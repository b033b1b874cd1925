"""Timing-driven sizer: strategies, budgets, no-candidate reporting,
and agreement with a from-scratch reference session."""

import pytest

from repro.charlib.characterize import FAST_GRID, characterize_library
from repro.core.sta import TruePathSTA
from repro.eval.iscas import build_circuit
from repro.gates.library import sized_library
from repro.netlist.circuit import Circuit
from repro.opt.sizer import TimingDrivenSizer
from repro.resilience.budgets import SearchBudgets
from repro.service.requests import SizeRequest, execute_size

SIZING_CELLS = ["INV", "INV_X2", "NAND2", "NAND2_X2", "AO22", "AO22_X2"]


@pytest.fixture(scope="module")
def sized_lib():
    return sized_library()


@pytest.fixture(scope="module")
def charlib_sized(sized_lib, tech90):
    return characterize_library(
        sized_lib, tech90, grid=FAST_GRID, cells=SIZING_CELLS,
    )


def chain_circuit(sized_lib):
    c = Circuit("chain", sized_lib)
    for n in ("a", "b", "c", "d"):
        c.add_input(n)
    c.add_gate("NAND2", "n1", {"A": "a", "B": "b"}, name="U1")
    c.add_gate("INV", "n2", {"A": "n1"}, name="U2")
    c.add_gate("AO22", "n3", {"A": "n2", "B": "b", "C": "c", "D": "d"},
               name="U3")
    c.add_gate("INV", "n4", {"A": "n3"}, name="U4")
    for k in range(5):
        c.add_gate("INV", f"z{k}", {"A": "n4"}, name=f"UL{k}")
        c.add_output(f"z{k}")
    c.check()
    return c


class TestGreedy:
    def test_reduces_arrival(self, sized_lib, charlib_sized):
        circuit = chain_circuit(sized_lib)
        sizer = TimingDrivenSizer(
            circuit, charlib_sized, required_time=1e-12, max_moves=6,
        )
        result = sizer.run()
        assert result.strategy == "greedy"
        assert result.accepted_moves
        assert result.final_arrival < result.initial_arrival
        for move in result.accepted_moves:
            assert move.arrival_after < move.arrival_before

    def test_met_without_moves(self, sized_lib, charlib_sized):
        circuit = chain_circuit(sized_lib)
        result = TimingDrivenSizer(
            circuit, charlib_sized, required_time=1.0,
        ).run()
        assert result.met
        assert result.stop_reason == "met"
        assert not result.moves


class TestNoCandidate:
    def test_warns_and_counts(self, charlib_poly_90, clean_obs):
        """Satellite fix: a critical path with no drive variants must
        surface a structured warning + counter, not a silent no-op."""
        circuit = build_circuit("c17")  # default library: no _X2 cells
        result = TimingDrivenSizer(
            circuit, charlib_poly_90, required_time=1e-12, max_moves=3,
        ).run()
        assert result.stop_reason == "no_candidate"
        assert not result.moves
        assert not result.met
        snapshot = clean_obs.snapshot()
        assert snapshot["sizer.no_candidate"] == 1
        assert snapshot["sizer.moves_tried"] == 0


class TestAnneal:
    def test_deterministic_for_seed(self, sized_lib, charlib_sized):
        runs = []
        for _ in range(2):
            circuit = chain_circuit(sized_lib)
            result = TimingDrivenSizer(
                circuit, charlib_sized, required_time=1e-12,
                strategy="anneal", seed=11, max_moves=6,
            ).run()
            runs.append([
                (m.gate_name, m.from_cell, m.to_cell, m.accepted)
                for m in result.moves
            ])
        assert runs[0] == runs[1]
        assert runs[0]  # the walk actually attempted moves

    def test_never_worse_than_initial_when_accepting_improvements(
        self, sized_lib, charlib_sized,
    ):
        circuit = chain_circuit(sized_lib)
        result = TimingDrivenSizer(
            circuit, charlib_sized, required_time=1e-12,
            strategy="anneal", seed=3, max_moves=8,
        ).run()
        # Metropolis can accept uphill moves, but the final arrival is
        # what the accepted sequence produced -- consistency check.
        if result.accepted_moves:
            assert result.final_arrival == (
                result.accepted_moves[-1].arrival_after
            )
        else:
            assert result.final_arrival == result.initial_arrival

    def test_unknown_strategy_rejected(self, sized_lib, charlib_sized):
        circuit = chain_circuit(sized_lib)
        with pytest.raises(ValueError, match="unknown sizing strategy"):
            TimingDrivenSizer(
                circuit, charlib_sized, required_time=1e-12,
                strategy="tabu",
            )


class TestBudgets:
    def test_wall_budget_stops_loop(self, sized_lib, charlib_sized):
        circuit = chain_circuit(sized_lib)
        result = TimingDrivenSizer(
            circuit, charlib_sized, required_time=1e-12, max_moves=50,
            budgets=SearchBudgets(wall_seconds=0.0),
        ).run()
        assert result.stop_reason == "budget"
        assert not result.moves

    @pytest.mark.parametrize("strategy", ["greedy", "anneal"])
    def test_cut_trial_search_reverts_the_swap_unrecorded(
            self, strategy, sized_lib, charlib_sized, monkeypatch):
        """A trial swap whose search the budget cut short (the session
        answers None) is undone and recorded nowhere, and the loop
        stops with ``budget``."""
        circuit = chain_circuit(sized_lib)
        cells = {name: inst.cell.name
                 for name, inst in circuit.instances.items()}
        sizer = TimingDrivenSizer(
            circuit, charlib_sized, required_time=1e-12,
            strategy=strategy, seed=11, max_moves=6,
        )
        searches = []
        first_search = sizer.sta.worst_path

        def worst_path(**kwargs):
            searches.append(kwargs)
            return first_search(**kwargs) if len(searches) == 1 else None

        monkeypatch.setattr(sizer.sta, "worst_path", worst_path)
        result = sizer.run()
        assert len(searches) == 2  # the first search, then the trial's
        assert result.stop_reason == "budget"
        assert not result.moves
        assert result.final_arrival == result.initial_arrival
        assert {name: inst.cell.name
                for name, inst in circuit.instances.items()} == cells

    def test_budget_cut_search_decides_nothing(self):
        """On c432@0.3 an extension budget of 50 cuts one origin of the
        first search short; its worst path is not the circuit's, so the
        loop stops there instead of sizing against it."""
        outcome = execute_size(SizeRequest(
            "iscas:c432@0.3", 1.0, seed=7, max_moves=3,
            extension_budget=50))
        assert outcome.payload["stop_reason"] == "budget"
        assert not outcome.payload["moves"]
        assert outcome.payload["initial_ps"] is None
        assert "stop: budget" in outcome.report


class TestSearchCount:
    @pytest.mark.parametrize("strategy", ["greedy", "anneal"])
    def test_revert_keeps_the_held_worst_path(self, strategy, monkeypatch):
        """A reverted trial restores the circuit whose worst path the
        loop already holds, so only the first search and one per trial
        run: 4 on this c432 configuration (3 trials, 2 of them
        reverted), not 6."""
        searches = []
        search = TruePathSTA.worst_path

        def counting(self, **kwargs):
            searches.append(kwargs)
            return search(self, **kwargs)

        monkeypatch.setattr(TruePathSTA, "worst_path", counting)
        outcome = execute_size(SizeRequest(
            "iscas:c432@0.3", 1.0, strategy=strategy, seed=7, max_moves=3))
        moves = outcome.payload["moves"]
        assert sum(not m["accepted"] for m in moves) == 2
        assert len(searches) == 1 + len(moves) == 4


class ScratchSession:
    """From-scratch stand-in for the sizer's incremental session: every
    query re-analyzes the circuit as it stands with a fresh
    :class:`TruePathSTA`, so no derived state survives an edit."""

    def __init__(self, circuit, charlib, temp=25.0, vdd=None):
        self.circuit = circuit
        self.charlib = charlib
        self.temp = temp
        self.vdd = vdd
        self.edits = 0

    def replace_cell(self, inst_name, new_cell):
        self.circuit.instances[inst_name].cell = self.circuit.library[new_cell]
        self.circuit._topo_cache = None
        self.edits += 1

    def worst_path(self, max_paths, budgets):
        sta = TruePathSTA(self.circuit, self.charlib,
                          temp=self.temp, vdd=self.vdd)
        return sta.n_worst_paths(1, max_paths=max_paths, budgets=budgets)[0]


def use_reference(monkeypatch):
    """Route the sizer onto :class:`ScratchSession`; returns the list
    the sessions it builds are collected in."""
    sessions = []

    def make(*args, **kwargs):
        sessions.append(ScratchSession(*args, **kwargs))
        return sessions[-1]

    monkeypatch.setattr("repro.opt.sizer.TruePathSTA", make)
    return sessions


class TestScratchReference:
    """Dirty-cone repair makes the same sizing decisions, in the same
    bytes, as re-analyzing the edited circuit from scratch per query."""

    @pytest.mark.parametrize("strategy", ["greedy", "anneal"])
    def test_chain_matches_reference(self, strategy, sized_lib,
                                     charlib_sized, monkeypatch):
        def run():
            return TimingDrivenSizer(
                chain_circuit(sized_lib), charlib_sized, required_time=1e-12,
                strategy=strategy, seed=11, max_moves=6,
            ).run()

        live = run()
        sessions = use_reference(monkeypatch)
        reference = run()
        assert sessions and sessions[0].edits
        assert live.moves
        assert live.describe() == reference.describe()
        assert live.moves == reference.moves

    def test_c432_gate_configuration_matches_reference(self, monkeypatch,
                                                       clean_obs):
        """The ``repro size iscas:c432@0.3 --required 1 --seed 7
        --max-moves 3`` run: same report, same JSON payload, same sizer
        counters, and one incremental edit per reference edit."""
        def run():
            clean_obs.reset()
            outcome = execute_size(SizeRequest("iscas:c432@0.3", 1.0,
                                               seed=7, max_moves=3))
            return outcome, clean_obs.snapshot()

        live, live_metrics = run()
        sessions = use_reference(monkeypatch)
        reference, reference_metrics = run()
        assert live.report == reference.report
        assert live.payload == reference.payload
        for name in ("sizer.moves_tried", "sizer.moves_accepted",
                     "sizer.moves_rejected", "sizer.no_candidate"):
            assert live_metrics.get(name) == reference_metrics.get(name)
        assert live_metrics["incremental.edits"] == sessions[0].edits > 0
