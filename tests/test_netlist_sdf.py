"""Tests for SDF export."""

import re

import pytest

from repro.eval.fig4 import fig4_circuit
from repro.netlist.generate import c17
from repro.netlist.sdf import write_sdf


@pytest.fixture(scope="module")
def sdf_c17(charlib_poly_90):
    return write_sdf(c17(), charlib_poly_90)


class TestStructure:
    def test_header(self, sdf_c17):
        assert sdf_c17.startswith("(DELAYFILE")
        assert '(SDFVERSION "3.0")' in sdf_c17
        assert '(DESIGN "c17")' in sdf_c17
        assert "(TIMESCALE 1ns)" in sdf_c17

    def test_one_cell_per_instance(self, sdf_c17):
        cell_lines = [l for l in sdf_c17.splitlines() if l.strip() == "(CELL"]
        assert len(cell_lines) == 6
        assert sdf_c17.count('(CELLTYPE "NAND2")') == 6

    def test_iopaths_per_pin(self, sdf_c17):
        # NAND2 has two input pins -> two IOPATH entries per instance.
        assert sdf_c17.count("(IOPATH A Z") == 6
        assert sdf_c17.count("(IOPATH B Z") == 6

    def test_balanced_parens(self, sdf_c17):
        assert sdf_c17.count("(") == sdf_c17.count(")")

    def test_triples_positive_and_ns_scaled(self, sdf_c17):
        triples = re.findall(r"\(([\d.]+):([\d.]+):([\d.]+)\)", sdf_c17)
        assert triples
        for lo, typ, hi in triples:
            assert 0 < float(lo) <= float(typ) <= float(hi) < 1.0  # ns range


class TestVectorHandling:
    def test_collapsed_minmax_spread(self, charlib_poly_90):
        """AO22 arcs collapse into triples whose min < max (the vector
        dependence shows up as the min:typ:max spread)."""
        text = write_sdf(fig4_circuit(), charlib_poly_90)
        cell_block = text[text.index('(CELLTYPE "AO22")'):]
        match = re.search(
            r"\(IOPATH A Z \(([\d.]+):([\d.]+):([\d.]+)\)", cell_block
        )
        assert match
        lo, _typ, hi = (float(g) for g in match.groups())
        assert hi > lo * 1.02

    def test_conditioned_mode(self, charlib_poly_90):
        text = write_sdf(fig4_circuit(), charlib_poly_90,
                         emit_conditions=True)
        assert "(COND" in text
        assert "B == 1'b1" in text
        assert text.count("(") == text.count(")")

    def test_design_name_override(self, charlib_poly_90):
        text = write_sdf(c17(), charlib_poly_90, design_name="TOP")
        assert '(DESIGN "TOP")' in text


class TestVectorBlindLibrary:
    def test_lut_library_writes_every_iopath(self, charlib_lut_90):
        """A vector-blind library stores one arc per pin and edge; the
        writer must look those up instead of vector-resolved arcs it
        does not have."""
        text = write_sdf(c17(), charlib_lut_90)
        cells = text.split("  (CELL\n")[1:]
        assert len(cells) == 6
        for cell in cells:
            assert cell.count("(IOPATH") == 2
