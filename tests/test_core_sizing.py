"""Tests for drive variants and the gate-sizing ECO loop."""

import pytest

from repro.charlib.characterize import FAST_GRID, characterize_library
from repro.core.sizing import replace_cell
from repro.core.sta import TruePathSTA
from repro.gates.library import sized_library
from repro.netlist.circuit import Circuit
from repro.opt.sizer import TimingDrivenSizer
from repro.spice.cellsim import CellSimulator, input_capacitance

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
    # Heavy load on n4 to give the sizer something to fix.
    for k in range(5):
        c.add_gate("INV", f"z{k}", {"A": "n4"}, name=f"UL{k}")
        c.add_output(f"z{k}")
    c.check()
    return c


class TestDriveVariants:
    def test_variants_present(self, sized_lib):
        assert "INV_X2" in sized_lib
        assert sized_lib["INV_X2"].drive == 2.0
        assert sized_lib["INV_X2"].func == sized_lib["INV"].func

    def test_x2_has_double_input_cap(self, sized_lib, tech90):
        c1 = input_capacitance(sized_lib["INV"], "A", tech90)
        c2 = input_capacitance(sized_lib["INV_X2"], "A", tech90)
        assert c2 == pytest.approx(2 * c1, rel=1e-6)

    def test_x2_faster_under_same_load(self, sized_lib, tech90):
        """At a fixed external load the X2 variant is faster."""
        load = 10e-15
        delays = {}
        for name in ("NAND2", "NAND2_X2"):
            cell = sized_lib[name]
            sim = CellSimulator(cell, tech90, steps_per_window=250)
            vec = cell.sensitization_vectors("A")[0]
            delays[name] = sim.propagation("A", vec, True, 40e-12, load).delay
        assert delays["NAND2_X2"] < delays["NAND2"]

    def test_default_library_unchanged(self):
        from repro.gates.library import default_library

        assert "INV_X2" not in default_library()


class TestReplaceCell:
    def test_swap(self, sized_lib):
        c = chain_circuit(sized_lib)
        replace_cell(c, "U2", "INV_X2")
        assert c.instances["U2"].cell.name == "INV_X2"
        c.check()

    def test_incompatible_rejected(self, sized_lib):
        c = chain_circuit(sized_lib)
        with pytest.raises(ValueError, match="pin-compatible"):
            replace_cell(c, "U2", "NAND2")


def _greedy(circuit, charlib, required_time, max_moves=20):
    return TimingDrivenSizer(
        circuit, charlib, required_time,
        strategy="greedy", max_moves=max_moves,
    ).run().to_sizing_result()


class TestSizingLoop:
    def test_upsizing_reduces_arrival(self, sized_lib, charlib_sized):
        circuit = chain_circuit(sized_lib)
        sta = TruePathSTA(circuit, charlib_sized)
        before = max(p.worst_arrival for p in sta.enumerate_paths())
        result = _greedy(
            circuit, charlib_sized, required_time=before * 0.9, max_moves=6,
        )
        assert result.initial_arrival == pytest.approx(before, rel=1e-9)
        assert result.final_arrival < before
        assert result.changes

    def test_met_flag(self, sized_lib, charlib_sized):
        circuit = chain_circuit(sized_lib)
        result = _greedy(
            circuit, charlib_sized, required_time=1.0,  # trivially met
        )
        assert result.met and not result.changes

    def test_describe(self, sized_lib, charlib_sized):
        circuit = chain_circuit(sized_lib)
        result = _greedy(
            circuit, charlib_sized, required_time=1e-12, max_moves=3,
        )
        text = result.describe()
        assert "sizing:" in text
        assert "NOT MET" in text  # 1 ps is impossible
