"""Scalability of the single-pass search (the title's "scalable").

Runs the exhaustive enumeration on growing instances of the same
circuit family and checks that the cost *per reported sensitization*
stays bounded -- i.e. the search scales with its useful output, not
explosively with circuit size.  Also times the one-time preprocessing
(indexing + bounds) separately, which is linear in gates."""

import time

import pytest

from repro.core.delaycalc import DelayCalculator
from repro.core.engine import EngineCircuit
from repro.core.pathfinder import PathFinder
from repro.core.sta import TruePathSTA
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap

SIZES = [60, 150, 350]


@pytest.fixture(scope="module")
def scaling(poly90):
    rows = []
    for gates in SIZES:
        circuit = techmap(random_dag(f"scal{gates}", 24, gates, seed=99,
                                     n_outputs=10))
        sta = TruePathSTA(circuit, poly90)
        start = time.perf_counter()
        paths = sta.enumerate_paths(max_paths=50000)
        elapsed = time.perf_counter() - start
        stats = sta.last_stats
        work = stats.extensions_tried + stats.justification_backtracks
        rows.append({
            "gates": circuit.num_gates,
            "paths": len(paths),
            "seconds": elapsed,
            "work": work,
            "per_step": elapsed / max(work, 1),
        })
    return rows


def test_enumeration_scaling(benchmark, scaling, bench_snapshot):
    """The engine's per-step cost stays bounded as circuits grow.

    Total runtime grows with the explored search space (deep cones cost
    more, exactly as the paper's own CPU column grows superlinearly);
    the *scalable* part is that each search step -- extension attempt or
    justification backtrack -- costs roughly the same regardless of
    circuit size, because state updates are trail-local.
    """
    rows = benchmark(lambda: scaling)
    assert all(r["paths"] > 0 for r in rows)
    per = [r["per_step"] for r in rows]
    assert max(per) < 12 * max(min(per), 1e-9)
    bench_snapshot("scalability", {"rows": rows})


def test_preprocessing_linear(benchmark, poly90):
    """Indexing + delay bounds are a one-time, roughly linear cost."""
    def preprocess():
        out = []
        for gates in SIZES:
            circuit = techmap(random_dag(f"pp{gates}", 24, gates, seed=5,
                                         n_outputs=10))
            start = time.perf_counter()
            ec = EngineCircuit(circuit)
            calc = DelayCalculator(ec, poly90)
            calc.remaining_bounds()
            out.append((circuit.num_gates, time.perf_counter() - start))
        return out

    rows = benchmark.pedantic(preprocess, rounds=1, iterations=1)
    small_gates, small_time = rows[0]
    large_gates, large_time = rows[-1]
    ratio = (large_time / max(small_time, 1e-9))
    size_ratio = large_gates / small_gates
    assert ratio < size_ratio * 8  # near-linear with generous slack


def test_hotpath_cache_effectiveness(benchmark, poly90, bench_snapshot):
    """Justify skip leaves the path set unchanged while eliding
    justification work, and the arc cache serves nearly every
    traversal.

    The before/after counters land in ``extra_info`` so the benchmark
    trajectory records the cache hit rate and the number of skipped
    justification solves next to the wall-clock numbers.
    """
    circuit = techmap(random_dag("scal150", 24, 150, seed=99, n_outputs=10))
    ec = EngineCircuit(circuit)

    def run(justify_skip):
        calc = DelayCalculator(ec, poly90)
        finder = PathFinder(ec, calc, justify_skip=justify_skip)
        start = time.perf_counter()
        with finder.find_paths() as stream:
            paths = [p.key for p in stream]
        return {
            "paths": paths,
            "seconds": time.perf_counter() - start,
            "arc_evaluations": calc.arc_evaluations,
            "arc_cache_hits": calc.arc_cache_hits,
            "arc_cache_misses": calc.arc_cache_misses,
            "justify_skipped": finder.stats.justify_skipped,
            "justification_cubes": finder.stats.justification_cubes,
        }

    def run_both():
        return run(False), run(True)

    before, after = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert after["paths"] == before["paths"]
    hit_rate = after["arc_cache_hits"] / max(after["arc_evaluations"], 1)
    assert hit_rate >= 0.90
    assert after["justify_skipped"] > 0
    assert after["justification_cubes"] <= before["justification_cubes"]
    for stage, row in (("before", before), ("after", after)):
        benchmark.extra_info[f"hotpath_{stage}"] = {
            k: v for k, v in row.items() if k != "paths"
        }
    benchmark.extra_info["hotpath_hit_rate"] = hit_rate
    bench_snapshot("hotpath_cache", {
        "hit_rate": hit_rate,
        "before": {k: v for k, v in before.items() if k != "paths"},
        "after": {k: v for k, v in after.items() if k != "paths"},
    })


def test_n_worst_prunes_work(benchmark, poly90):
    """N-worst mode with bound pruning does not exceed exhaustive work."""
    circuit = techmap(random_dag("prn", 24, 250, seed=31, n_outputs=10))
    sta = TruePathSTA(circuit, poly90)

    def run_both():
        sta.enumerate_paths()
        exhaustive = sta.last_stats.extensions_tried
        sta.enumerate_paths(n_worst=5)
        pruned = sta.last_stats.extensions_tried
        return exhaustive, pruned

    exhaustive, pruned = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert pruned <= exhaustive
