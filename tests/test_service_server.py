"""Served results vs the one-shot CLI: the byte-identity contract.

The central promise of ``repro serve`` is that holding state hot never
changes an answer: for any configuration, the served ``report`` equals
the one-shot CLI's stdout byte for byte.  These tests run both front
ends in-process over a mixed workload (full enumeration, GBA, N-worst,
verify; c17 and scaled c432), concurrently, and compare bytes -- plus
the observability: per-request metric deltas under concurrency, the
fleet workers' warm-context hit counters, result-memo hits, and LRU
eviction under a capacity-1 cache.  Tests that count context-cache
hits exactly run on a one-worker fleet: two workers each build their
own context.
"""

from __future__ import annotations

import io
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import cli, obs
from repro.service import ServiceClient, ServiceError
from repro.service.qos import DeadlineExceeded, resolve_budgets
from repro.service.protocol import BadRequest
from repro.service.server import ServiceConfig, start_in_thread
from repro.resilience.budgets import SearchBudgets

#: The mixed workload: (label, CLI argv, service op, service params).
#: One entry per paper-relevant request shape; c432 is scaled down so
#: the whole matrix stays test-suite cheap.
WORKLOAD = [
    ("c17-full",
     ["analyze", "iscas:c17"],
     "analyze", {"netlist": "iscas:c17"}),
    ("c17-gba",
     ["analyze", "iscas:c17", "--tool", "gba"],
     "analyze", {"netlist": "iscas:c17", "tool": "gba"}),
    ("c432-nworst",
     ["analyze", "iscas:c432@0.1", "--n-worst", "5", "--top", "5"],
     "analyze", {"netlist": "iscas:c432@0.1", "n_worst": 5, "top": 5}),
    ("c17-slack",
     ["analyze", "iscas:c17", "--required", "120"],
     "analyze", {"netlist": "iscas:c17", "required_ps": 120.0}),
    ("c17-verify",
     ["verify", "--oracle", "--circuit", "iscas:c17"],
     "verify", {"circuits": ["iscas:c17"], "oracle": True}),
]


def cli_stdout(argv) -> str:
    """One-shot CLI stdout for ``argv`` (must exit 0)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = cli.main(argv)
    assert rc == 0, f"cli {argv} exited {rc}"
    return buffer.getvalue()


@pytest.fixture(scope="module")
def server():
    handle = start_in_thread(ServiceConfig(heartbeat_interval=0.05))
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with ServiceClient(server.host, server.port, timeout=300.0) as c:
        yield c


# ---------------------------------------------------------------------------
# Byte identity


@pytest.mark.parametrize(
    "label,argv,op,params", WORKLOAD, ids=[w[0] for w in WORKLOAD])
def test_served_report_byte_identical_to_cli(client, label, argv, op,
                                             params):
    served = client.call(op, params)
    expected = cli_stdout(argv)
    # The CLI prints the report plus one trailing newline.
    assert served["report"] + "\n" == expected


def test_repeat_request_hits_result_memo_and_stays_identical(client):
    first = client.call("analyze", {"netlist": "iscas:c17", "top": 7})
    second = client.call("analyze", {"netlist": "iscas:c17", "top": 7})
    assert first["cached"] is False or first["cached"] is True  # present
    assert second["cached"] is True
    assert second["report"] == first["report"]


def test_heartbeats_stream_while_computing():
    # A dedicated fast-beat server: the cold c432@0.3 request computes
    # for ~100 ms, a comfortable 10x the 10 ms heartbeat interval.
    handle = start_in_thread(ServiceConfig(heartbeat_interval=0.01))
    beats = []
    try:
        with ServiceClient(handle.host, handle.port, timeout=300.0) as c:
            result = c.call("analyze",
                            {"netlist": "iscas:c432@0.3", "n_worst": 3},
                            on_heartbeat=beats.append)
    finally:
        handle.stop()
    assert result["kind"] == "result"
    assert beats, "no heartbeat frame during a slow cold request"
    assert all(b["id"] == result["id"] for b in beats)
    assert all(b["elapsed_s"] >= 0 for b in beats)


# ---------------------------------------------------------------------------
# Concurrent mixed workload


def test_concurrent_mixed_workload_byte_identical():
    # CLI references first (serially -- stdout capture is process-wide).
    references = {label: cli_stdout(argv)
                  for label, argv, _, _ in WORKLOAD}
    handle = start_in_thread(ServiceConfig(heartbeat_interval=0.05,
                                           fleet=2))

    def serve_one(entry):
        label, _, op, params = entry
        # Separate connection per worker: requests multiplex across
        # connections, not within one.
        with ServiceClient(handle.host, handle.port, timeout=300.0) as c:
            return label, c.call(op, params)["report"]

    # Two rounds of everything, interleaved across 5 threads onto two
    # workers: cold and warm answers must both match the CLI.
    jobs = WORKLOAD * 2
    try:
        with ThreadPoolExecutor(max_workers=5) as pool:
            for label, report in pool.map(serve_one, jobs):
                assert report + "\n" == references[label], \
                    f"served {label} diverged from one-shot CLI"
    finally:
        handle.stop()


#: Two searches of very different length (~40 ms and ~3 s warm), so
#: started together they overlap on any server that computes both at
#: once.
OVERLAPPING = [
    {"netlist": "iscas:c432@0.15", "n_worst": 5},
    {"netlist": "iscas:c1355@0.1", "n_worst": 5},
]


def _search_counters(result):
    """A result's ``pathfinder.*`` metric delta, without CPU time."""
    return {key: value for key, value in result["metrics"].items()
            if key.startswith("pathfinder.")
            and not key.startswith("pathfinder.cpu_seconds")}


@pytest.mark.parametrize(
    "config", [ServiceConfig(), ServiceConfig(fleet=2)],
    ids=["default", "fleet2"])
def test_concurrent_requests_report_only_their_own_metrics(config):
    handle = start_in_thread(config)
    barrier = threading.Barrier(len(OVERLAPPING), timeout=60.0)

    def serve_together(params):
        with ServiceClient(handle.host, handle.port, timeout=300.0) as c:
            barrier.wait()
            # A new `top` misses the result memo, not the warm context.
            return c.call("analyze", dict(params, top=2))

    try:
        with ServiceClient(handle.host, handle.port, timeout=300.0) as c:
            # Each request alone first: the reference counts (and a
            # warm context, so the pair starts computing together).
            alone = [c.call("analyze", dict(params, top=1))
                     for params in OVERLAPPING]
        with ThreadPoolExecutor(max_workers=len(OVERLAPPING)) as pool:
            together = list(pool.map(serve_together, OVERLAPPING))
    finally:
        handle.stop()
    for params, solo, paired in zip(OVERLAPPING, alone, together):
        assert _search_counters(solo), solo["metrics"]
        assert _search_counters(paired) == _search_counters(solo), \
            f"{params['netlist']} counted another request's search"


def test_verify_op_reports_ok_flag(client):
    result = client.call("verify",
                         {"circuits": ["iscas:c17"], "oracle": True})
    assert result["ok"] is True
    assert "oracle c17" in result["report"]


# ---------------------------------------------------------------------------
# Cache observability


def test_warm_cache_hit_counters(server):
    with ServiceClient(server.host, server.port, timeout=300.0) as c:
        before = c.call("stats")["contexts"]
        # Same context key (netlist/tool/tech), different fingerprints:
        # context cache hits, result memo misses.
        c.call("analyze", {"netlist": "iscas:c17", "top": 2})
        c.call("analyze", {"netlist": "iscas:c17", "top": 3})
        c.call("analyze", {"netlist": "iscas:c17", "top": 4})
        after = c.call("stats")["contexts"]
    # The context was warm (possibly built by an earlier test): at most
    # one miss here, and at least two of the three requests hit.
    assert after["misses"] - before["misses"] <= 1
    assert after["hits"] - before["hits"] >= 2


def test_context_stats_count_worker_cache_hits():
    handle = start_in_thread(ServiceConfig(fleet=1, heartbeat_interval=0.2))
    try:
        with ServiceClient(handle.host, handle.port, timeout=300.0) as c:
            # One context key, three fingerprints: one build, two hits.
            for top in (2, 3, 4):
                c.call("analyze", {"netlist": "iscas:c17", "top": top})
            stats = c.call("stats")
    finally:
        handle.stop()
    assert stats["contexts"]["misses"] == 1
    assert stats["contexts"]["hits"] == 2
    assert stats["metrics"]["service.worker_cache_hits"] == 2


def test_developed_and_gba_share_one_context():
    """One netlist, one session: a gba request after a developed one
    hits the context the developed request built, and both reports
    still equal the one-shot CLI's."""
    handle = start_in_thread(ServiceConfig(fleet=1, heartbeat_interval=0.2))
    try:
        with ServiceClient(handle.host, handle.port, timeout=300.0) as c:
            developed = c.call("analyze", {"netlist": "iscas:c17"})
            gba = c.call("analyze", {"netlist": "iscas:c17", "tool": "gba"})
            stats = c.call("stats")["contexts"]
    finally:
        handle.stop()
    assert stats["misses"] == 1
    assert stats["hits"] == 1
    assert developed["report"] + "\n" == cli_stdout(["analyze", "iscas:c17"])
    assert gba["report"] + "\n" == cli_stdout(
        ["analyze", "iscas:c17", "--tool", "gba"])


def test_result_memo_counters(server):
    with ServiceClient(server.host, server.port, timeout=300.0) as c:
        params = {"netlist": "iscas:c17", "top": 9}
        first = c.call("analyze", params)
        hits_before = c.call("stats")["results"]["hits"]
        second = c.call("analyze", params)
        hits_after = c.call("stats")["results"]["hits"]
    assert first["cached"] is False
    assert second["cached"] is True
    assert hits_after - hits_before == 1


def test_result_with_failed_origins_is_not_memoized(server):
    """A failed origin is a wall-clock accident (here: shard timeouts
    with no retry or fallback), so its result must not be replayed to
    an identical request as if it were the deterministic answer."""
    params = {"netlist": "iscas:c499@0.1", "jobs": 2, "shard_timeout": 0.05,
              "shard_retries": 0, "serial_fallback": False, "n_worst": 5,
              "top": 3}
    with ServiceClient(server.host, server.port, timeout=300.0) as c:
        first = c.call("analyze", params)
        second = c.call("analyze", params)
    assert first["degraded"]
    assert any(o["status"] == "failed" for o in first["completeness"])
    assert second["cached"] is False


def test_lru_eviction_under_capacity_one():
    handle = start_in_thread(ServiceConfig(cache_size=1,
                                           heartbeat_interval=0.2))
    try:
        with ServiceClient(handle.host, handle.port, timeout=300.0) as c:
            c.call("analyze", {"netlist": "iscas:c17"})
            stats1 = c.call("stats")["contexts"]
            # A second netlist evicts the first (capacity 1)...
            c.call("analyze", {"netlist": "iscas:c432@0.05"})
            stats2 = c.call("stats")["contexts"]
            # ...and re-requesting the first must rebuild it (the result
            # memo is bypassed by varying `top` so the context is used).
            c.call("analyze", {"netlist": "iscas:c17", "top": 4})
            stats3 = c.call("stats")["contexts"]
    finally:
        handle.stop()
    assert stats1["misses"] == 1 and stats1["evictions"] == 0
    assert stats2["misses"] == 2 and stats2["evictions"] == 1
    assert stats3["misses"] == 3, "evicted context was not rebuilt"
    assert stats3["evictions"] == 2
    assert stats3["max_entries"] == 1


def test_stats_endpoint_shape(client):
    stats = client.call("stats")
    assert stats["requests"]["total"] >= 1
    assert "analyze" in stats["requests"]["by_op"] or True
    assert set(stats["contexts"]) == {"hits", "misses", "evictions",
                                      "max_entries"}
    assert "spans" in stats["metrics"]
    assert stats["uptime_s"] >= 0


def test_edited_netlist_is_never_answered_from_its_old_bytes(server,
                                                            tmp_path):
    """The result memo and the worker's context cache are keyed on the
    netlist's text, not its path: after an edit, a repeat and a memo
    miss (new ``top``) are both computed from the new file, exactly as
    the one-shot CLI prints it."""
    from repro.netlist.bench import C17_BENCH

    netlist = tmp_path / "c17.bench"
    netlist.write_text(C17_BENCH)
    with ServiceClient(server.host, server.port, timeout=300.0) as c:
        before = c.call("analyze", {"netlist": str(netlist)})
        assert "G23" in before["report"]
        netlist.write_text("".join(line for line in
                                   C17_BENCH.splitlines(keepends=True)
                                   if "G23" not in line))
        repeat = c.call("analyze", {"netlist": str(netlist)})
        new_top = c.call("analyze", {"netlist": str(netlist), "top": 3})
        again = c.call("analyze", {"netlist": str(netlist)})
    assert repeat["cached"] is False
    assert repeat["report"] + "\n" == cli_stdout(["analyze", str(netlist)])
    assert new_top["report"] + "\n" == cli_stdout(
        ["analyze", str(netlist), "--top", "3"])
    assert "G23" not in repeat["report"] + new_top["report"]
    # Unchanged bytes still hit the memo.
    assert again["cached"] is True
    assert again["report"] == repeat["report"]


@pytest.mark.parametrize("netlist,error", [
    ("absent.bench", "FileNotFoundError"),
    (5, "AttributeError"),
], ids=["missing-file", "not-a-path"])
def test_unreadable_netlist_is_an_error_frame(client, tmp_path, netlist,
                                              error):
    """The acceptor reads the netlist; a failed read answers with the
    ``internal`` frame a failed compute gives, and the connection
    keeps serving."""
    if isinstance(netlist, str):
        netlist = str(tmp_path / netlist)
    with pytest.raises(ServiceError) as err:
        client.call("analyze", {"netlist": netlist})
    assert err.value.code == "internal"
    assert error in err.value.message
    assert client.call("ping")["pong"] is True


def test_request_metrics_delta_present(server):
    with ServiceClient(server.host, server.port, timeout=300.0) as c:
        # A fresh fingerprint so the memo cannot short-circuit it.
        result = c.call("analyze", {"netlist": "iscas:c17", "top": 11})
    assert any(key.startswith("pathfinder.")
               for key in result["metrics"]), result["metrics"]


# ---------------------------------------------------------------------------
# QoS


def test_qos_effort_tier_maps_to_extension_budget():
    budgets = resolve_budgets(None, None, "low")
    assert budgets == SearchBudgets(max_extensions=10_000)


def test_qos_explicit_budget_only_tightens():
    base = SearchBudgets(max_extensions=500)
    assert resolve_budgets(base, None, "high").max_extensions == 500
    wide = SearchBudgets(max_extensions=10 ** 9)
    assert resolve_budgets(wide, None, "low").max_extensions == 10_000


def test_qos_exhaustive_and_absent_effort_are_uncapped():
    assert resolve_budgets(None, None, "exhaustive") is None
    assert resolve_budgets(None, None, None) is None


def test_qos_deadline_counts_queue_wait():
    budgets = resolve_budgets(None, 10.0, None, queued_at=100.0, now=104.0)
    assert budgets.wall_seconds == pytest.approx(6.0)
    with pytest.raises(DeadlineExceeded):
        resolve_budgets(None, 3.0, None, queued_at=100.0, now=104.0)


def test_qos_unknown_effort_rejected():
    with pytest.raises(BadRequest):
        resolve_budgets(None, None, "heroic")


def test_expired_deadline_refused_before_search(client):
    with pytest.raises(ServiceError) as err:
        client.call("analyze", {"netlist": "iscas:c17"}, deadline_s=1e-9)
    assert err.value.code == "deadline-exceeded"


@pytest.mark.parametrize("op,retired,value", [
    ("analyze", "vectorize", False),
    ("size", "vectorize", False),
    ("size", "scratch", True),
    ("size", "variant_suffix", "_X2"),
], ids=["analyze", "size", "size-scratch", "size-variant-suffix"])
def test_unknown_param_rejected_naming_it(client, op, retired, value):
    """Retired params (the scalar-sweep switch, the sizer's scratch
    mode and drive-suffix knob) are now unknown params: a structured
    bad-request naming them, never silently ignored."""
    params = {"netlist": "iscas:c17", retired: value}
    if op == "size":
        params["required_ps"] = 100.0
    with pytest.raises(ServiceError) as err:
        client.call(op, params)
    assert err.value.code == "bad-request"
    assert retired in err.value.message


def test_n_worst_below_one_is_a_bad_request(client):
    with pytest.raises(ServiceError) as err:
        client.call("analyze", {"netlist": "iscas:c17", "n_worst": 0})
    assert err.value.code == "bad-request"
    assert "n_worst" in err.value.message


def test_negative_max_paths_is_a_bad_request(client):
    with pytest.raises(ServiceError) as err:
        client.call("analyze", {"netlist": "iscas:c17", "max_paths": -1})
    assert err.value.code == "bad-request"
    assert "--max-paths" in err.value.message


def test_effort_capped_request_still_serves(client):
    result = client.call("analyze",
                         {"netlist": "iscas:c17", "top": 6},
                         effort="low")
    # c17 completes well inside the low tier, so the report matches an
    # uncapped run (budgeted supervision, same answer).
    expected = cli_stdout(["analyze", "iscas:c17", "--top", "6",
                           "--extension-budget", "10000"])
    assert result["report"] + "\n" == expected
