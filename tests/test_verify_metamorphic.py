"""The cross-engine invariant catalog (repro.verify.metamorphic)."""

from __future__ import annotations

import copy

import pytest

from repro.core.sta import TruePathSTA
from repro.netlist.generate import c17, random_dag
from repro.netlist.techmap import techmap
from repro.verify import INVARIANTS, run_metamorphic
from repro.verify.metamorphic import (
    check_gba_bounds,
    check_incremental_identical,
    check_pruning_identical,
    check_structural_superset,
)


class TestCatalog:
    def test_c17_all_invariants_hold(self, charlib_poly_90, clean_obs):
        results = run_metamorphic(c17(), charlib_poly_90, jobs=1)
        assert [r.name for r in results] == list(INVARIANTS)
        assert all(r.ok for r in results), [r.describe() for r in results]
        snapshot = clean_obs.snapshot()
        assert snapshot["verify.circuits_checked"] == 1
        assert snapshot["verify.mismatches"] == 0

    def test_mapped_random_dag(self, charlib_poly_90):
        circuit = techmap(random_dag("meta", 8, 40, seed=5))
        results = run_metamorphic(circuit, charlib_poly_90, jobs=1)
        assert all(r.ok for r in results), [r.describe() for r in results]

    def test_subset_selection(self, charlib_poly_90):
        results = run_metamorphic(
            c17(), charlib_poly_90, invariants=["pruning_identical"]
        )
        assert [r.name for r in results] == ["pruning_identical"]

    def test_unknown_invariant_rejected(self, charlib_poly_90):
        with pytest.raises(ValueError, match="unknown invariants"):
            run_metamorphic(c17(), charlib_poly_90, invariants=["bogus"])

    def test_mismatch_counter_on_violation(self, charlib_poly_90, clean_obs,
                                           monkeypatch):
        from repro.verify import metamorphic as meta

        def broken(circuit, charlib, **kwargs):
            return meta.InvariantResult("gba_bounds", False, 1, "forced")

        monkeypatch.setitem(meta._CHECKS, "gba_bounds", broken)
        monkeypatch.setattr(meta, "check_gba_bounds", broken)
        results = run_metamorphic(
            c17(), charlib_poly_90, invariants=["gba_bounds"]
        )
        assert not results[0].ok
        assert clean_obs.snapshot()["verify.mismatches"] == 1


class TestDetectionPower:
    """The checks must actually fire on corrupted inputs."""

    def test_gba_bounds_catches_inflated_path(self, charlib_poly_90):
        paths = TruePathSTA(c17(), charlib_poly_90).enumerate_paths()
        forged = copy.deepcopy(paths)
        victim = forged[0]
        polarity = max(victim.polarities(), key=lambda p: p.arrival)
        polarity.arrival *= 10.0
        result = check_gba_bounds(c17(), charlib_poly_90, paths=forged)
        assert not result.ok
        assert "exceeds GBA bound" in result.detail

    def test_structural_superset_catches_forged_course(self, charlib_poly_90):
        paths = TruePathSTA(c17(), charlib_poly_90).enumerate_paths()
        forged = copy.deepcopy(paths)
        forged[0].nets = ("GAT1", "GAT23")  # no such structural edge
        result = check_structural_superset(
            c17(), charlib_poly_90, paths=forged
        )
        assert not result.ok
        assert "missing structurally" in result.detail

    def test_pruning_identical_on_c17(self, charlib_poly_90):
        result = check_pruning_identical(c17(), charlib_poly_90, n_worst=3)
        assert result.ok, result.describe()
        assert result.checked == 3

    def test_incremental_identical_on_c17(self, charlib_poly_90):
        circuit = c17()
        original = {
            name: circuit.instances[name].cell.name
            for name in circuit.instances
        }
        result = check_incremental_identical(
            circuit, charlib_poly_90, seed=1, edits=3
        )
        assert result.ok, result.describe()
        # Per edit: session vs scratch, and scratch vs reference.
        assert result.checked >= 2
        # The check mutates the circuit, then must restore it.
        assert original == {
            name: circuit.instances[name].cell.name
            for name in circuit.instances
        }

    def test_incremental_identical_catches_skipped_repair(
        self, charlib_poly_90, monkeypatch
    ):
        from repro.core.tgraph import TimingGraph

        # Sabotage the dirty-cone forward repair: the session keeps its
        # stale arrivals while the scratch reference re-analyzes.
        monkeypatch.setattr(
            TimingGraph, "forward_update_net",
            lambda self, calc, net, timing: False,
        )
        result = check_incremental_identical(
            c17(), charlib_poly_90, seed=1, edits=3
        )
        assert not result.ok
        assert "diverged" in result.detail

    def test_incremental_identical_catches_overreported_ceiling_round(
        self, charlib_poly_90, monkeypatch
    ):
        from repro.core.tarrays import TimingArrays

        # Sabotage the SoA slew kernel on each calculator's first
        # ceiling round only: session and scratch agree with each other,
        # and both agree with the reference on the final grid.
        honest = TimingArrays.slew_peaks
        swept = []

        def first_round_inflated(self, samples, gate_indices=None):
            peaks = honest(self, samples, gate_indices)
            if any(arrays is self for arrays in swept):
                return peaks
            swept.append(self)
            return [10.0 * p for p in peaks]

        monkeypatch.setattr(TimingArrays, "slew_peaks", first_round_inflated)
        result = check_incremental_identical(
            c17(), charlib_poly_90, seed=1, edits=3
        )
        assert not result.ok
        assert "slew-ceiling fixed point" in result.detail


class TestResultFormatting:
    def test_describe_mentions_status(self, charlib_poly_90):
        results = run_metamorphic(
            c17(), charlib_poly_90, invariants=["gba_bounds"]
        )
        text = results[0].describe()
        assert "gba_bounds" in text
        assert "ok" in text
