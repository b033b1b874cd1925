"""Serial vs sharded search: equivalence and effort bookkeeping.

Runs the same exhaustive enumeration serially and through the
supervised worker pool (one shard per primary input) and records both
wall-clock numbers plus the per-run search counters in
``extra_info`` -- the trajectory of interest is that the merged
parallel counters equal the serial ones (the shards do exactly the
serial work, only partitioned) while wall-clock scales with available
cores.  On single-core runners the pool adds fork/IPC overhead, so no
speedup is asserted; equivalence is.
"""

import os
import time

import pytest

from repro.core.sta import TruePathSTA
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap

JOBS = 2


@pytest.fixture(scope="module")
def circuit():
    return techmap(random_dag("par240", 16, 240, seed=7, n_outputs=8))


def test_parallel_matches_serial_effort(benchmark, poly90, circuit,
                                        bench_snapshot):
    def run_both():
        sta = TruePathSTA(circuit, poly90)
        start = time.perf_counter()
        serial_paths = sta.enumerate_paths()
        serial_seconds = time.perf_counter() - start
        serial_stats = sta.last_stats.as_dict()

        start = time.perf_counter()
        result = TruePathSTA(circuit, poly90).analyze(jobs=JOBS)
        parallel_paths, merged = result.paths, result.stats
        parallel_seconds = time.perf_counter() - start
        return (
            serial_paths,
            parallel_paths,
            serial_stats,
            merged.as_dict(),
            serial_seconds,
            parallel_seconds,
        )

    (serial_paths, parallel_paths, serial_stats, merged_stats,
     serial_seconds, parallel_seconds) = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )

    assert [p.key for p in parallel_paths] == [p.key for p in serial_paths]
    for counter in ("paths_found", "extensions_tried", "conflicts",
                    "justification_backtracks", "justify_skipped"):
        assert merged_stats[counter] == serial_stats[counter], counter

    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["serial_seconds"] = serial_seconds
    benchmark.extra_info["parallel_seconds"] = parallel_seconds
    benchmark.extra_info["speedup"] = serial_seconds / max(
        parallel_seconds, 1e-9
    )
    benchmark.extra_info["serial_stats"] = serial_stats
    benchmark.extra_info["parallel_stats"] = merged_stats
    bench_snapshot("parallel_speedup", {
        "jobs": JOBS,
        "cpu_count": os.cpu_count(),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / max(parallel_seconds, 1e-9),
        "serial_stats": serial_stats,
        "parallel_stats": merged_stats,
    })
