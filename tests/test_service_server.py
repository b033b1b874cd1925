"""Served results vs the one-shot CLI: the byte-identity contract.

The central promise of ``repro serve`` is that holding state hot never
changes an answer: for any configuration, the served ``report`` equals
the one-shot CLI's stdout byte for byte.  These tests run both front
ends in-process over a mixed workload (full enumeration, GBA, N-worst,
verify; c17 and scaled c432), concurrently, and compare bytes -- plus
the cache observability: warm-context hit counters, result-memo hits,
and LRU eviction under a capacity-1 cache.
"""

from __future__ import annotations

import io
import contextlib
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
    handle = start_in_thread(ServiceConfig(heartbeat_interval=0.05,
                                           max_concurrent=4))
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


def test_concurrent_mixed_workload_byte_identical(server):
    # CLI references first (serially -- stdout capture is process-wide).
    references = {label: cli_stdout(argv)
                  for label, argv, _, _ in WORKLOAD}

    def serve_one(entry):
        label, _, op, params = entry
        # Separate connection per worker: requests multiplex across
        # connections, not within one.
        with ServiceClient(server.host, server.port, timeout=300.0) as c:
            return label, c.call(op, params)["report"]

    # Two rounds of everything, interleaved across 5 threads: cold and
    # warm answers must both match the CLI.
    jobs = WORKLOAD * 2
    with ThreadPoolExecutor(max_workers=5) as pool:
        for label, report in pool.map(serve_one, jobs):
            assert report + "\n" == references[label], \
                f"served {label} diverged from one-shot CLI"


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


def test_lru_eviction_under_capacity_one():
    handle = start_in_thread(ServiceConfig(cache_size=1,
                                           heartbeat_interval=0.2))
    try:
        with ServiceClient(handle.host, handle.port, timeout=300.0) as c:
            c.call("analyze", {"netlist": "iscas:c17"})
            stats1 = c.call("stats")["contexts"]
            # A second config evicts the first (capacity 1)...
            c.call("analyze", {"netlist": "iscas:c17", "tool": "gba"})
            stats2 = c.call("stats")["contexts"]
            # ...and re-requesting the first must rebuild it (the result
            # memo is bypassed by varying `top` so the context is used).
            c.call("analyze", {"netlist": "iscas:c17", "top": 4})
            stats3 = c.call("stats")["contexts"]
    finally:
        handle.stop()
    assert stats1["entries"] == 1 and stats1["misses"] == 1
    assert stats2["entries"] == 1 and stats2["evictions"] == 1
    assert stats3["misses"] == 3, "evicted context was not rebuilt"
    assert stats3["evictions"] == 2


def test_stats_endpoint_shape(client):
    stats = client.call("stats")
    assert stats["requests"]["total"] >= 1
    assert "analyze" in stats["requests"]["by_op"] or True
    assert set(stats["contexts"]) >= {"entries", "hits", "misses",
                                      "evictions", "max_entries"}
    assert "spans" in stats["metrics"]
    assert stats["uptime_s"] >= 0


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


@pytest.mark.parametrize("op,params", [
    ("analyze", {"netlist": "iscas:c17", "vectorize": False}),
    ("size", {"netlist": "iscas:c17", "required_ps": 100.0,
              "vectorize": False}),
], ids=["analyze", "size"])
def test_unknown_param_rejected_naming_it(client, op, params):
    """The retired scalar-sweep switch is now an unknown param: a
    structured bad-request naming it, never silently ignored."""
    with pytest.raises(ServiceError) as err:
        client.call(op, params)
    assert err.value.code == "bad-request"
    assert "vectorize" in err.value.message


def test_effort_capped_request_still_serves(client):
    result = client.call("analyze",
                         {"netlist": "iscas:c17", "top": 6},
                         effort="low")
    # c17 completes well inside the low tier, so the report matches an
    # uncapped run (budgeted supervision, same answer).
    expected = cli_stdout(["analyze", "iscas:c17", "--top", "6",
                           "--extension-budget", "10000"])
    assert result["report"] + "\n" == expected
