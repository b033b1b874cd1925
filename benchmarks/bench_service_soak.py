"""Sustained mixed load against the hardened daemon (soak + restart).

The fleet/admission/persistence stack exists so the daemon survives
abuse: bursts beyond its width, worker deaths, and hard restarts.  This
benchmark drives a supervised ``fleet=2`` server with several client
threads for ``$REPRO_SOAK_SECONDS`` (default 8; CI runs 60) and holds
it to the robustness acceptance criteria:

* **zero dropped-without-error requests** -- every issued request ends
  in a ``result`` frame or a structured :class:`ServiceError`; nothing
  hangs and nothing vanishes (shedding is cured by the client's
  jittered backoff retry);
* **bounded memory** -- the acceptor's RSS growth over the soak stays
  within a fixed budget (the fleet keeps per-request state in worker
  processes, so the parent must not accumulate);
* **warm restart** -- after a simulated crash (``kill``: no exit
  snapshot) and a reboot from the last periodic snapshot, a memo-hit
  repeat answers ``cached`` and its latency stays within 2x of the
  pre-crash warm latency (plus a small absolute floor, since memo hits
  are sub-millisecond and noisy).

Emits ``BENCH_service_soak.json`` under ``$REPRO_BENCH_DIR`` with the
request tally, latencies, RSS, and the full ``service.*`` counter
snapshot for the CI ``repro obs diff`` gate.
"""

from __future__ import annotations

import os
import random
import statistics
import tempfile
import threading
import time

CIRCUIT = "iscas:c432@0.1"
#: The canonical request every soak thread occasionally repeats, so the
#: memo entry the restart check relies on is guaranteed hot.
BASE_PARAMS = {"netlist": CIRCUIT, "max_paths": 5, "top": 3, "jobs": 1}
SOAK_SECONDS_ENV = "REPRO_SOAK_SECONDS"
CLIENT_THREADS = 3
#: Acceptor RSS growth budget over the soak (bytes); generous, the
#: assertion is about leaks, not allocator noise.
RSS_BUDGET_BYTES = 300 * 1024 * 1024
#: Restart criterion: post-restart memo latency <= max(2x pre, +50ms).
RESTART_FACTOR = 2.0
RESTART_FLOOR_S = 0.05


def _rss_bytes() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    return 0  # pragma: no cover - non-Linux


def _soak_worker(host, port, deadline, seed, outcomes, errors):
    """One client loop: mixed workload via the retrying client until
    the deadline.  Every request's ending is recorded -- the assertion
    that nothing was dropped without an error is a simple tally."""
    from repro.service import ServiceClient, ServiceError

    rng = random.Random(seed)
    client = ServiceClient(host, port, timeout=120.0)
    try:
        while time.monotonic() < deadline:
            top = rng.choice((1, 2, 3, 4, 5))
            params = dict(BASE_PARAMS, top=top)
            try:
                result = client.call_with_retry(
                    "analyze", params, retries=6, backoff_s=0.2,
                    rng=rng)
                outcomes.append(("result", result["paths"]))
            except ServiceError as exc:
                # A structured ending still counts as *answered*; the
                # soak assertion only forbids silent drops/hangs.
                errors.append(exc.code)
    finally:
        client.close()


def _memo_latency_s(client, samples: int = 5) -> float:
    """Median latency of a memo-hit repeat (asserts it *is* a hit)."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        result = client.call("analyze", dict(BASE_PARAMS))
        times.append(time.perf_counter() - started)
        assert result.get("cached") is True, \
            "canonical repeat was not served from the memo"
    return statistics.median(times)


def test_soak_survives_sustained_load_and_restart(poly90, bench_snapshot):
    from repro.service import ServiceClient, ServiceConfig
    from repro.service.server import start_in_thread

    soak_s = float(os.environ.get(SOAK_SECONDS_ENV, "8"))
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        snapshot_path = os.path.join(tmp, "warm.json")
        config = dict(fleet=2, max_queue=8, heartbeat_interval=1.0,
                      snapshot_path=snapshot_path,
                      snapshot_interval_s=2.0)
        handle = start_in_thread(ServiceConfig(**config))
        outcomes, errors = [], []
        try:
            # Prime the memo entry the restart check replays, and pin
            # the byte-identity anchor for the whole soak.
            with ServiceClient(handle.host, handle.port,
                               timeout=120.0) as client:
                reference = client.call("analyze", dict(BASE_PARAMS))

            rss_before = _rss_bytes()
            deadline = time.monotonic() + soak_s
            threads = [
                threading.Thread(
                    target=_soak_worker,
                    args=(handle.host, handle.port, deadline, 1000 + i,
                          outcomes, errors),
                    daemon=True)
                for i in range(CLIENT_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(soak_s + 120.0)
            assert not any(t.is_alive() for t in threads), \
                "a soak client hung past the deadline"
            rss_after = _rss_bytes()

            with ServiceClient(handle.host, handle.port,
                               timeout=120.0) as client:
                pre_kill_memo_s = _memo_latency_s(client)
                stats = client.call("stats")
            handle.server.snapshot_now()
        finally:
            handle.kill()  # simulated crash: no exit snapshot

        restarted = start_in_thread(ServiceConfig(**config))
        try:
            with ServiceClient(restarted.host, restarted.port,
                               timeout=120.0) as client:
                first = client.call("analyze", dict(BASE_PARAMS))
                post_restart_memo_s = _memo_latency_s(client)
        finally:
            restarted.stop()

    # -- zero dropped-without-error ------------------------------------
    assert outcomes, "soak produced no completed requests"
    assert not errors, (
        f"{len(errors)} requests ended in errors despite retries: "
        f"{sorted(set(errors))}")
    assert all(kind == "result" for kind, _ in outcomes)
    total = stats["requests"]["total"]
    assert stats["requests"]["failed"] == 0

    # -- byte identity held under load ---------------------------------
    assert first["cached"] is True, \
        "restart did not re-warm the memo from the snapshot"
    assert first["report"] == reference["report"]

    # -- bounded memory ------------------------------------------------
    rss_growth = rss_after - rss_before
    assert rss_growth <= RSS_BUDGET_BYTES, (
        f"acceptor RSS grew {rss_growth / 1e6:.1f} MB over a "
        f"{soak_s:g}s soak (budget {RSS_BUDGET_BYTES / 1e6:.0f} MB)")

    # -- warm restart within 2x ----------------------------------------
    restart_ceiling = max(RESTART_FACTOR * pre_kill_memo_s,
                          pre_kill_memo_s + RESTART_FLOOR_S)
    assert post_restart_memo_s <= restart_ceiling, (
        f"post-restart memo hit {post_restart_memo_s * 1e3:.2f} ms vs "
        f"{pre_kill_memo_s * 1e3:.2f} ms pre-kill (ceiling "
        f"{restart_ceiling * 1e3:.2f} ms)")

    bench_snapshot("service_soak", {
        "circuit": CIRCUIT,
        "soak_seconds": soak_s,
        "client_threads": CLIENT_THREADS,
        "requests_completed": len(outcomes),
        "requests_errored": len(errors),
        "server_requests_total": total,
        "server_requests_failed": stats["requests"]["failed"],
        "admission": stats["admission"],
        "executor": stats["executor"],
        "rss_before_bytes": rss_before,
        "rss_after_bytes": rss_after,
        "rss_growth_bytes": rss_growth,
        "pre_kill_memo_s": round(pre_kill_memo_s, 6),
        "post_restart_memo_s": round(post_restart_memo_s, 6),
        "restart_ceiling_s": round(restart_ceiling, 6),
    })
