"""Unit tests for the engine state (dual values, trail, implication)."""

from dataclasses import replace

import pytest

from repro.core import engine
from repro.core.engine import (
    EngineCircuit, EngineState, FALLING, RISING, cell_options,
)
from repro.core.logic_values import Value9
from repro.gates.cell import Cell
from repro.gates.library import default_library, sized_library
from repro.gates.logic import BoolFunc
from repro.netlist.circuit import Circuit

V = Value9


def chain_circuit():
    """a -> INV -> n1 -> NAND2(b) -> n2, output n2."""
    c = Circuit("chain")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("INV", "n1", {"A": "a"}, name="U1")
    c.add_gate("NAND2", "n2", {"A": "n1", "B": "b"}, name="U2")
    c.add_output("n2")
    return c


@pytest.fixture
def ec():
    return EngineCircuit(chain_circuit())


@pytest.fixture
def state(ec):
    return EngineState(ec)


class TestEngineCircuit:
    def test_indexing(self, ec):
        assert ec.num_nets == 4
        assert ec.driver[ec.net_id["a"]] == -1
        assert ec.driver[ec.net_id["n1"]] >= 0
        assert ec.is_input[ec.net_id["a"]]
        assert ec.is_output[ec.net_id["n2"]]

    def test_sinks(self, ec):
        sinks = ec.sinks[ec.net_id["n1"]]
        assert len(sinks) == 1
        gate = ec.gates[sinks[0][0]]
        assert gate.cell.name == "NAND2" and sinks[0][1] == "A"

    def test_vector_options_resolved(self, ec):
        gate = ec.gates[ec.driver[ec.net_id["n2"]]]
        options = gate.options["A"]
        assert len(options) == 1
        pin_index, bit = options[0].side_pins[0]
        assert gate.input_nets[pin_index] == ec.net_id["b"] and bit == 1
        assert options[0].inverting is True


def _reference_options(ec, inst):
    """The per-gate option builder the shared tables replaced: every
    vector of every pin with its side pins resolved to ``ec``'s net ids,
    sorted by side pin *name*."""
    return {
        pin: [
            (vec, tuple((ec.net_id[inst.pins[side]], bit)
                        for side, bit in sorted(vec.side_values.items())),
             vec.inverting)
            for vec in inst.cell.sensitization_vectors(pin)
        ]
        for pin in inst.cell.inputs
    }


def _out_of_order_cell():
    """AO21 with its pins declared out of name order, so that sorting
    side pins by index and by name disagree (every library cell
    declares its pins in name order)."""
    return Cell("AO21_CAB", ("C", "A", "B"),
                BoolFunc.from_callable(3, lambda c, a, b: (a & b) | c))


def _assert_tables_match_reference(cells):
    for cell in cells:
        c = Circuit(f"one_{cell.name}")
        # Input nets declared in reverse pin order: net ids follow
        # neither the pin index nor the pin name.
        for pin in reversed(cell.inputs):
            c.add_input(f"n_{pin}")
        inst = c.add_gate(cell, "z", {p: f"n_{p}" for p in cell.inputs})
        c.add_output("z")
        ec = EngineCircuit(c)
        gate = ec.gates[0]
        mapped = {
            pin: [
                (opt.vector,
                 tuple((gate.input_nets[k], bit) for k, bit in opt.side_pins),
                 opt.inverting)
                for opt in opts
            ]
            for pin, opts in gate.options.items()
        }
        assert mapped == _reference_options(ec, inst), cell.name


class TestCellOptionTable:
    """Every gate of a cell shares one option table whose side pins,
    mapped through the gate's input nets, are exactly the per-gate
    resolution in the same (pin-name) order: that order fixes the
    search's requirement order, hence its justification and witness
    bytes."""

    CELLS = [*default_library(), *sized_library(), _out_of_order_cell()]

    def test_mapped_side_pins_equal_the_per_gate_resolution(self):
        _assert_tables_match_reference(self.CELLS)

    def test_pin_index_order_fails_the_check(self, monkeypatch):
        def by_pin_index(cell):
            return {
                pin: tuple(replace(opt, side_pins=tuple(sorted(opt.side_pins)))
                           for opt in opts)
                for pin, opts in cell_options(cell).items()
            }

        monkeypatch.setattr(engine, "cell_options", by_pin_index)
        with pytest.raises(AssertionError, match="AO21_CAB"):
            _assert_tables_match_reference(self.CELLS)

    def test_gates_of_one_cell_share_one_tuple_table(self, ec):
        c = Circuit("two_nands")
        for name in ("a", "b", "c"):
            c.add_input(name)
        c.add_gate("NAND2", "x", {"A": "a", "B": "b"}, name="U1")
        c.add_gate("NAND2", "y", {"A": "c", "B": "x"}, name="U2")
        c.add_output("y")
        gates = EngineCircuit(c).gates + [ec.gates[ec.driver[ec.net_id["n2"]]]]
        table = gates[0].options
        assert all(g.cell.name == "NAND2" for g in gates)
        assert all(g.options is table for g in gates)
        for opts in table.values():
            assert isinstance(opts, tuple)
            for opt in opts:
                assert isinstance(opt.side_pins, tuple)
                assert all(isinstance(pair, tuple) for pair in opt.side_pins)

    def test_swap_cell_rebinds_only_the_swapped_gate(self):
        library = sized_library()
        c = Circuit("two_nands", library)
        for name in ("a", "b", "c"):
            c.add_input(name)
        c.add_gate("NAND2", "x", {"A": "a", "B": "b"}, name="U1")
        c.add_gate("NAND2", "y", {"A": "c", "B": "x"}, name="U2")
        c.add_output("y")
        ec = EngineCircuit(c)
        first, second = ec.gates
        nand2 = first.options
        ec.swap_cell(first, library["NAND2_X2"])
        assert first.options is cell_options(library["NAND2_X2"])
        assert first.options is not nand2
        assert second.options is nand2 is cell_options(library["NAND2"])


class TestAssignRollback:
    def test_assign_and_propagate(self, ec, state):
        a = ec.net_id["a"]
        state.assign(a, V.RISE, RISING)
        state.assign(a, V.FALL, FALLING)
        assert state.propagate()
        n1 = ec.net_id["n1"]
        assert state.values[RISING][n1] == V.FALL
        assert state.values[FALLING][n1] == V.RISE

    def test_semi_undetermined_through_nand(self, ec, state):
        a = ec.net_id["a"]
        state.assign(a, V.RISE, RISING)
        assert state.propagate()
        n2 = ec.net_id["n2"]
        # NAND2(FALL at A, unknown B): starts X, ends 1 -> X1
        assert state.values[RISING][n2] == V.X1

    def test_rollback_restores_values(self, ec, state):
        a = ec.net_id["a"]
        mark = state.checkpoint()
        state.assign(a, V.RISE, RISING)
        state.propagate()
        state.rollback(mark)
        assert state.values[RISING][a] == V.XX
        assert state.values[RISING][ec.net_id["n1"]] == V.XX

    def test_conflict_kills_component(self, ec, state):
        a = ec.net_id["a"]
        state.assign(a, V.RISE, RISING)
        state.assign(a, V.FALL, FALLING)
        state.propagate()
        # Requiring n1 steady 1 contradicts both transitions... rising
        # component first:
        n1 = ec.net_id["n1"]
        alive = state.assign(n1, V.S1, RISING)
        assert alive  # falling component still alive
        assert not state.alive[RISING]
        assert state.alive[FALLING]

    def test_kill_both_reports_dead(self, ec, state):
        a = ec.net_id["a"]
        state.assign(a, V.RISE, RISING)
        state.assign(a, V.FALL, FALLING)
        state.propagate()
        n1 = ec.net_id["n1"]
        state.assign(n1, V.S1, RISING)
        assert not state.assign(n1, V.S1, FALLING)
        assert not any(state.alive)

    def test_rollback_revives_component(self, ec, state):
        a = ec.net_id["a"]
        state.assign(a, V.RISE, RISING)
        state.propagate()
        mark = state.checkpoint()
        state.assign(ec.net_id["n1"], V.S1, RISING)
        assert not state.alive[RISING]
        state.rollback(mark)
        assert state.alive[RISING]


class TestObligations:
    def test_require_steady_records_obligation(self, ec, state):
        n1 = ec.net_id["n1"]
        assert state.require_steady(n1, 0)
        assert state.obligations == [(n1, 0)]

    def test_pi_requirement_not_an_obligation(self, ec, state):
        b = ec.net_id["b"]
        state.require_steady(b, 1)
        assert state.obligations == []

    def test_is_justified_by_implication(self, ec, state):
        a, n1 = ec.net_id["a"], ec.net_id["n1"]
        state.require_steady(n1, 0)
        assert not state.is_justified(n1, 0)
        state.require_steady(a, 1)
        state.propagate()
        assert state.is_justified(n1, 0)

    def test_first_unjustified(self, ec, state):
        n1 = ec.net_id["n1"]
        state.require_steady(n1, 0)
        assert state.first_unjustified() == (0, n1, 0)

    def test_first_unjustified_scan_start(self, ec, state):
        n1 = ec.net_id["n1"]
        state.require_steady(n1, 0)
        assert state.first_unjustified(start=1) is None

    def test_obligation_rolls_back(self, ec, state):
        mark = state.checkpoint()
        state.require_steady(ec.net_id["n1"], 0)
        state.rollback(mark)
        assert state.obligations == []


class TestInputVector:
    def test_extraction(self, ec, state):
        a, b = ec.net_id["a"], ec.net_id["b"]
        state.assign(a, V.RISE, RISING)
        state.require_steady(b, 1)
        state.propagate()
        vec = state.input_vector(RISING)
        assert vec == {"a": "T", "b": 1}

    def test_dont_care(self, ec, state):
        vec = state.input_vector(RISING)
        assert vec == {"a": None, "b": None}
