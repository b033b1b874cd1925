"""The tentpole acceptance: serial and --jobs N metric snapshots agree.

A ``--jobs N`` run must report the *same* work counters as a serial
run of the same search -- including when the supervisor recovers
shards through retries or the in-process serial fallback.  Timing and
per-process cache fields are excluded by design: wall-clock differs by
construction, and each worker process pays its own arc-cache cold
misses.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import obs
from repro.cli import load_circuit
from repro.core.sta import TruePathSTA
from repro.verify.faults import FaultPlan

#: Counters that must match a serial run byte-for-byte (both the bare
#: and the circuit-labeled copies).
EXACT_KEYS = (
    "pathfinder.extensions_tried",
    "pathfinder.paths_found",
    "pathfinder.conflicts",
    "pathfinder.justification_backtracks",
    "delaycalc.arc_evaluations",
)


#: Every deterministic work counter of one search -- what the
#: in-process (``jobs=1``) supervised driver must reproduce exactly,
#: pruning included.
WORK_KEYS = EXACT_KEYS + (
    "pathfinder.justification_cubes",
    "pathfinder.justify_skipped",
    "pathfinder.states_saved",
    "pathfinder.pruned",
    "pathfinder.bound_prunes",
)


_CAPPED_KEYS = [
    (("I1", "n0", "n17", "n20"), ("A:0", "A:1", "C:10")),
    (("I1", "n0", "n17", "n20"), ("A:0", "A:1", "C:11")),
    (("I6", "n0", "n17", "n20"), ("B:0", "A:1", "C:10")),
]
_ALL_KEYS = _CAPPED_KEYS + [
    (("I6", "n0", "n17", "n20"), ("B:0", "A:1", "C:11")),
    (("I9", "n6", "n17", "n20"), ("A:0", "B:1", "C:10")),
    (("I9", "n6", "n17", "n20"), ("A:0", "B:1", "C:11")),
]

#: The single-loop serial search on c432@0.1 (a multi-origin stream over
#: one finder), measured before the per-origin shard became the only
#: unit of search.  11 origins I0..I10, 6 paths in all.
PLAIN_SERIAL = {
    (): {
        "keys": _ALL_KEYS,
        "statuses": ["complete"] * 11,
        "counters": {
            "pathfinder.extensions_tried": 94,
            "pathfinder.paths_found": 6,
            "pathfinder.conflicts": 41,
            "pathfinder.justification_backtracks": 18,
            "delaycalc.arc_evaluations": 106,
            "pathfinder.justification_cubes": 62,
            "pathfinder.justify_skipped": 33,
            "pathfinder.states_saved": 64,
            "pathfinder.pruned": 0,
            "pathfinder.bound_prunes": 0,
        },
    },
    (("n_worst", 2),): {
        "keys": _ALL_KEYS,
        "statuses": ["complete"] * 11,
        "counters": {
            "pathfinder.extensions_tried": 94,
            "pathfinder.paths_found": 6,
            "pathfinder.conflicts": 39,
            "pathfinder.justification_backtracks": 6,
            "delaycalc.arc_evaluations": 106,
            "pathfinder.justification_cubes": 52,
            "pathfinder.justify_skipped": 33,
            "pathfinder.states_saved": 64,
            "pathfinder.pruned": 2,
            "pathfinder.bound_prunes": 0,
        },
    },
    # Half the paths: the cap binds in I6, past the first productive
    # origin I1, so the shards share the count.
    (("max_paths", 3),): {
        "keys": _CAPPED_KEYS,
        "statuses": ["complete"] * 6 + ["capped"] * 5,
        "counters": {
            "pathfinder.extensions_tried": 37,
            "pathfinder.paths_found": 3,
            "pathfinder.conflicts": 16,
            "pathfinder.justification_backtracks": 5,
            "delaycalc.arc_evaluations": 42,
            "pathfinder.justification_cubes": 32,
            "pathfinder.justify_skipped": 11,
            "pathfinder.states_saved": 28,
            "pathfinder.pruned": 0,
            "pathfinder.bound_prunes": 0,
        },
    },
}


def exact_counters(snapshot, keys=EXACT_KEYS):
    return {key: value for key, value in snapshot.items()
            if key.split("{")[0] in keys}


@pytest.fixture(scope="module")
def c432():
    return load_circuit("iscas:c432@0.1")


@pytest.fixture()
def serial_baseline(c432, charlib_poly_90, clean_obs):
    """Counters of an in-process (``jobs=1``) search."""
    TruePathSTA(c432, charlib_poly_90).analyze(jobs=1)
    baseline = exact_counters(obs.snapshot())
    assert baseline["pathfinder.extensions_tried"] > 0
    obs.reset()
    return baseline


class TestSerialParallelEquivalence:
    def test_jobs4_counters_byte_identical_to_serial(
            self, c432, charlib_poly_90, serial_baseline):
        TruePathSTA(c432, charlib_poly_90).analyze(jobs=4)
        assert exact_counters(obs.snapshot()) == serial_baseline

    def test_supervised_jobs1_matches_plain_serial(
            self, c432, charlib_poly_90, clean_obs):
        """The in-process driver reproduces the single-loop serial
        search (:data:`PLAIN_SERIAL`): paths, their order, the
        per-origin statuses and every work counter, unlimited, under
        ``n_worst`` and under a binding ``max_paths``.  In-process
        shards must share one top-N heap (a per-shard heap prunes less)
        and one path count (a per-shard count searches on past the
        cap).  Regression too: the in-process path once published
        shard stats twice, doubling every counter."""
        for limits, want in PLAIN_SERIAL.items():
            clean_obs.reset()
            result = TruePathSTA(c432, charlib_poly_90).analyze(
                jobs=1, **dict(limits))
            assert [p.key for p in result.paths] == want["keys"], limits
            snap = exact_counters(clean_obs.snapshot(), WORK_KEYS)
            assert snap == {
                **want["counters"],
                **{f"{key}{{circuit=c432_mapped}}": value
                   for key, value in want["counters"].items()},
            }, limits
            statuses = [o.status
                        for o in result.completeness.origins.values()]
            assert statuses == want["statuses"], limits
            assert list(result.completeness.origins) == list(c432.inputs)
            assert not result.degraded

    def test_worker_retry_path_ships_each_shard_once(
            self, c432, charlib_poly_90, serial_baseline):
        """A crashed worker's partial work is absorbed, and only the
        successful retry's telemetry lands in the parent registry."""
        victims = tuple(c432.inputs)[1:3]
        TruePathSTA(c432, charlib_poly_90).analyze(
            jobs=2, shard_retries=2,
            fault_plan=FaultPlan(crash_origins=victims))
        snap = obs.snapshot()
        assert exact_counters(snap) == serial_baseline
        assert snap["resilience.worker_crashes"] >= 1
        assert snap["resilience.shard_retries"] >= len(victims)

    def test_serial_fallback_path_publishes_exactly_once(
            self, c432, charlib_poly_90, serial_baseline):
        """Retries exhausted -> the shard completes in-process; its
        stats must be published exactly once (in-process publication,
        not the merge's checkpoint path)."""
        victim = tuple(c432.inputs)[0]
        TruePathSTA(c432, charlib_poly_90).analyze(
            jobs=2, shard_retries=1, serial_fallback=True,
            fault_plan=FaultPlan(crash_origins=(victim,),
                                 crash_attempts=(0, 1)))
        snap = obs.snapshot()
        assert exact_counters(snap) == serial_baseline
        assert snap["resilience.serial_fallbacks"] == 1

    def test_heartbeat_stall_recovery_keeps_equivalence(
            self, c432, charlib_poly_90, serial_baseline):
        """A silently hung shard is detected by heartbeat gap, killed,
        retried -- and the merged counters still equal serial."""
        victim = tuple(c432.inputs)[2]
        TruePathSTA(c432, charlib_poly_90).analyze(
            jobs=2, heartbeat_timeout=1.5, shard_retries=2,
            fault_plan=FaultPlan(hang_origins=(victim,)))
        snap = obs.snapshot()
        assert exact_counters(snap) == serial_baseline
        assert snap["resilience.heartbeat_stalls"] >= 1

    def test_span_aggregates_ship_from_workers(
            self, c432, charlib_poly_90, clean_obs):
        """Worker span trees merge into the parent's aggregates: the
        search spans report one count per shard, not zero."""
        obs.tracing.enable()
        TruePathSTA(c432, charlib_poly_90).analyze(jobs=2)
        aggregates = obs.tracing.aggregates()
        search_spans = {name: entry for name, entry in aggregates.items()
                        if "pathfinder" in name or "search" in name}
        assert search_spans, f"no search spans shipped: {aggregates.keys()}"
        assert all(entry["count"] > 0 for entry in search_spans.values())


class TestWarmSession:
    def test_never_binding_budget_stays_on_the_hot_session(
            self, charlib_poly_90, clean_obs):
        """A budgeted request searches the context's own warm session:
        with a budget that never binds it does exactly the plain
        request's work -- same report, same work counters, and not one
        arc-cache miss."""
        from repro.service.requests import (
            AnalysisRequest,
            build_context,
            execute_analysis,
        )

        plain = AnalysisRequest("iscas:c432@0.2", n_worst=5)
        context = build_context(plain)
        execute_analysis(plain, context=context)  # warm the session
        obs.reset()
        want = execute_analysis(plain, context=context)
        want_counters = exact_counters(obs.snapshot(), WORK_KEYS)
        assert want_counters["pathfinder.pruned"] > 0
        obs.reset()
        got = execute_analysis(replace(plain, extension_budget=10 ** 9),
                               context=context)
        snap = obs.snapshot()
        assert got.report == want.report
        assert not got.degraded
        assert exact_counters(snap, WORK_KEYS) == want_counters
        assert snap["delaycalc.arc_cache_misses"] == 0


    def test_pooled_workers_search_the_warm_session(
            self, charlib_poly_90, clean_obs):
        """Pooled workers search the caller's session itself: after a
        serial search warmed it, an exhaustive ``jobs=2`` search
        resolves every arc from the inherited memo and finds the same
        paths."""
        sta = TruePathSTA(load_circuit("iscas:c432@0.3"), charlib_poly_90)
        serial = sta.analyze(jobs=1)
        obs.reset()
        pooled = sta.analyze(jobs=2)
        snap = obs.snapshot()
        assert [p.key for p in pooled.paths] == [p.key for p in serial.paths]
        assert snap["delaycalc.arc_evaluations"] > 0
        assert snap["delaycalc.arc_cache_misses"] == 0


class TestPerShardGauges:
    def test_resource_gauges_labeled_per_shard(
            self, c432, charlib_poly_90, clean_obs):
        TruePathSTA(c432, charlib_poly_90).analyze(jobs=2)
        snap = obs.snapshot()
        rss = {key for key in snap
               if key.startswith("run.peak_rss_bytes{shard=")}
        cpu = {key for key in snap
               if key.startswith("run.cpu_seconds{shard=")}
        origins = set(c432.inputs)
        assert {key.split("shard=")[1].rstrip("}") for key in rss} == origins
        assert {key.split("shard=")[1].rstrip("}") for key in cpu} == origins
        assert all(snap[key] > 0 for key in rss | cpu)
