"""Equivalence of the supervised parallel driver with the serial search.

Property-style: on generated circuits, ``TruePathSTA.analyze`` must
yield exactly the same path stream (nets, vectors, arrivals) and the
same merged search-effort totals as the serial single-pass search --
the shards are per-origin and origins never share state, so any
divergence is a merge bug.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.sta import TruePathSTA
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap

#: Counters that must merge to exactly the serial totals on an
#: unrestricted search (cpu_seconds is wall-clock, pruned depends on
#: heap state, so neither is listed).
EXACT_COUNTERS = (
    "paths_found",
    "extensions_tried",
    "conflicts",
    "justification_backtracks",
    "justification_cubes",
    "justification_aborts",
    "justify_skipped",
    "states_saved",
)


def _circuit(seed: int, gates: int = 60):
    return techmap(random_dag(f"pp{seed}", 8, gates, seed=seed, n_outputs=4))


def _key(path):
    return (
        path.nets,
        tuple((s.gate_name, s.pin, s.vector_id) for s in path.steps),
    )


def _arrivals(paths):
    return [pytest.approx(p.worst_arrival) for p in paths]


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("seed", [3, 11, 27])
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_same_paths_and_counters(self, charlib_poly_90, seed, jobs):
        circuit = _circuit(seed)
        sta = TruePathSTA(circuit, charlib_poly_90)
        serial = sta.enumerate_paths()
        serial_stats = sta.last_stats.as_dict()

        result = TruePathSTA(circuit, charlib_poly_90).analyze(jobs=jobs)
        paths, merged = result.paths, result.stats
        assert [_key(p) for p in paths] == [_key(p) for p in serial]
        assert _arrivals(serial) == [p.worst_arrival for p in paths]
        merged_dict = merged.as_dict()
        for counter in EXACT_COUNTERS:
            assert merged_dict[counter] == serial_stats[counter], counter

    @pytest.mark.parametrize("seed", [3, 27])
    def test_max_paths_prefix(self, charlib_poly_90, seed):
        """Per-shard caps + in-order truncation reproduce the serial
        early stop exactly."""
        circuit = _circuit(seed)
        sta = TruePathSTA(circuit, charlib_poly_90)
        serial = sta.enumerate_paths(max_paths=5)
        paths = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, max_paths=5).paths
        assert [_key(p) for p in paths] == [_key(p) for p in serial]

    @pytest.mark.parametrize("seed,n", [(3, 2), (11, 4)])
    def test_n_worst_top_set(self, charlib_poly_90, seed, n):
        """Per-shard pruning keeps a superset whose top-N equals the
        serial (and the exhaustive) top-N arrivals."""
        circuit = _circuit(seed)
        sta = TruePathSTA(circuit, charlib_poly_90)
        exhaustive = sorted(
            (p.worst_arrival for p in sta.enumerate_paths()), reverse=True
        )[:n]
        paths = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, n_worst=n).paths
        top = sorted((p.worst_arrival for p in paths), reverse=True)[:n]
        assert top == pytest.approx(exhaustive)

    def test_jobs_one_matches_pool(self, charlib_poly_90):
        """The in-process shard/merge pipeline (jobs=1) is the reference
        the pooled path must match."""
        circuit = _circuit(5)
        lone_result = TruePathSTA(circuit, charlib_poly_90).analyze(jobs=1)
        lone, lone_stats = lone_result.paths, lone_result.stats
        pooled_result = TruePathSTA(circuit, charlib_poly_90).analyze(jobs=2)
        pooled, pooled_stats = pooled_result.paths, pooled_result.stats
        assert [_key(p) for p in pooled] == [_key(p) for p in lone]
        for counter in EXACT_COUNTERS:
            assert pooled_stats.as_dict()[counter] == lone_stats.as_dict()[counter]

    def test_rejects_bad_jobs(self, charlib_poly_90):
        with pytest.raises(ValueError):
            TruePathSTA(_circuit(5), charlib_poly_90).analyze(jobs=0)


class TestParallelMetrics:
    def test_parent_registry_receives_merged_totals(
        self, charlib_poly_90, clean_obs
    ):
        circuit = _circuit(9)
        result = TruePathSTA(circuit, charlib_poly_90).analyze(jobs=2)
        paths, merged = result.paths, result.stats
        snap = obs.metrics.snapshot()
        assert snap["pathfinder.paths_found"] == len(paths)
        assert snap["pathfinder.extensions_tried"] == merged.extensions_tried
        assert snap["pathfinder.justify_skipped"] == merged.justify_skipped
        evals = snap["delaycalc.arc_evaluations"]
        assert evals > 0
        assert (
            snap["delaycalc.arc_cache_hits"]
            + snap["delaycalc.arc_cache_misses"]
            == evals
        )
        assert snap["perf.parallel_shards"] == len(circuit.inputs)

    def test_facade_jobs_kwarg(self, charlib_poly_90):
        circuit = _circuit(9)
        sta = TruePathSTA(circuit, charlib_poly_90)
        serial = sta.enumerate_paths()
        parallel = sta.enumerate_paths(jobs=2)
        assert [_key(p) for p in parallel] == [_key(p) for p in serial]
        assert sta.last_stats.paths_found == len(serial)
