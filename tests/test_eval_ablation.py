"""Tests for the ablation runners."""

import pytest

from repro.eval.exp_ablation import (
    backtrack_limit_sweep,
    dual_logic_ablation,
    model_order_ablation,
)
from repro.eval.iscas import build_circuit
from repro.netlist.generate import c17


class TestDualLogic:
    def test_c17(self, charlib_poly_90):
        result = dual_logic_ablation(c17(), charlib_poly_90)
        assert result["consistent"]
        assert result["paths"] == 11
        assert result["dual_extensions"] * 2 == result["two_pass_extensions"]

    def test_speedup_reported(self, charlib_poly_90):
        result = dual_logic_ablation(c17(), charlib_poly_90)
        assert result["speedup"] > 0


class TestModelOrder:
    @pytest.fixture(scope="class")
    def result(self, tech90):
        """One ablation run (the slow part) shared by both tests."""
        return model_order_ablation(tech90, steps_per_window=250)

    def test_adaptive_beats_first_order(self, result):
        assert result["adaptive_max_err"] <= result["first_order_max_err"]
        assert result["adaptive_max_err"] < 0.06
        assert result["adaptive_orders"][0] >= 1

    def test_probe_rows(self, result):
        for row in result["probes"]:
            assert row["adaptive"] > 0 and row["lut"] > 0
            # Models agree within ~15% off-grid.
            assert abs(row["adaptive"] - row["lut"]) / row["lut"] < 0.15


class TestBacktrackSweep:
    def test_sweep_rows(self, charlib_lut_90):
        circuit = build_circuit("c6288", scale=0.25)
        result = backtrack_limit_sweep(
            circuit, charlib_lut_90, limits=(10, 1000),
            max_structural_paths=60,
        )
        rows = result["rows"]
        assert [r["limit"] for r in rows] == [10, 1000]
        for r in rows:
            assert r["true"] + r["false"] + r["aborted"] == r["paths"]
        assert rows[0]["aborted"] >= rows[1]["aborted"]
        assert "Backtrack-limit sweep" in result["text"]
