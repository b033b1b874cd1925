"""Admission control: bounded queue, shedding, expiry, preemption.

Unit tests drive :class:`~repro.service.admission.AdmissionController`
directly inside a private event loop (the controller is loop-confined
by design); integration tests boot real servers and certify the two
user-visible behaviors -- queued-state heartbeats carrying the queue
position, and a deadline-bearing request preempting an ``exhaustive``
hog off the worker fleet.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import obs
from repro.service import ServiceClient, ServiceConfig
from repro.service.admission import AdmissionController, Overloaded
from repro.service.server import start_in_thread

# ---------------------------------------------------------------------------
# Controller unit tests


def test_grant_then_queue_then_shed():
    async def main():
        ctrl = AdmissionController(max_inflight=1, max_queue=1)
        first = ctrl.submit("a")
        assert first.granted
        second = ctrl.submit("b")
        assert not second.granted
        with pytest.raises(Overloaded) as err:
            ctrl.submit("c")
        assert err.value.code == "overloaded"
        assert err.value.retry_after_s > 0
        assert obs.counter("service.overloaded").value == 1
        ctrl.release(first, service_s=0.2)
        assert second.granted
        ctrl.release(second)
        assert await ctrl.quiesce(timeout=1.0)

    asyncio.run(main())


def test_dispatch_order_is_edf_then_effort_then_fifo():
    async def main():
        ctrl = AdmissionController(max_inflight=1, max_queue=10)
        hold = ctrl.submit("hold")
        exhaustive = ctrl.submit("x", effort="exhaustive")
        low = ctrl.submit("l", effort="low")
        urgent = ctrl.submit("d", deadline_at=time.monotonic() + 30.0)
        # A deadline always outranks effort classes; cheap capped
        # probes outrank uncapped hogs; FIFO breaks ties.
        ctrl.release(hold)
        assert urgent.granted and not low.granted
        ctrl.release(urgent)
        assert low.granted and not exhaustive.granted
        ctrl.release(low)
        assert exhaustive.granted
        ctrl.release(exhaustive)
        assert await ctrl.quiesce(timeout=1.0)

    asyncio.run(main())


def test_expired_ticket_dropped_before_dispatch():
    async def main():
        ctrl = AdmissionController(max_inflight=1, max_queue=10)
        hold = ctrl.submit("hold")
        doomed = ctrl.submit("doomed",
                             deadline_at=time.monotonic() + 0.01)
        await asyncio.sleep(0.05)
        ctrl.release(hold)  # pump runs: the dead ticket never dispatches
        assert doomed.expired and not doomed.granted
        assert obs.counter("service.deadline_drops").value == 1
        assert await ctrl.quiesce(timeout=1.0)

    asyncio.run(main())


def test_queued_ticket_waits_then_resolves():
    async def main():
        ctrl = AdmissionController(max_inflight=1, max_queue=4)
        hold = ctrl.submit("hold")
        queued = ctrl.submit("queued")
        assert not await queued.wait(0.05)  # still waiting: timeout
        assert ctrl.position(queued) == 1
        ctrl.release(hold)
        assert await queued.wait(1.0)
        assert queued.granted
        ctrl.release(queued)

    asyncio.run(main())


def test_grant_landing_as_wait_times_out_counts_as_resolved(monkeypatch):
    """``wait_for`` can raise ``TimeoutError`` after the grant already
    landed (the grant races the timeout's cancellation): the ticket is
    resolved, so it must not be reported as still queued."""

    async def main():
        ctrl = AdmissionController(max_inflight=1, max_queue=4)
        hold = ctrl.submit("hold")
        queued = ctrl.submit("queued")

        async def grant_then_time_out(awaitable, timeout):
            awaitable.close()
            ctrl.release(hold)  # pumps the queue: ``queued`` is granted
            raise asyncio.TimeoutError

        with monkeypatch.context() as patch:
            patch.setattr(asyncio, "wait_for", grant_then_time_out)
            resolved = await queued.wait(0.05)
        assert queued.granted
        assert resolved
        ctrl.release(queued)

    asyncio.run(main())


def test_abandon_frees_queue_capacity():
    async def main():
        ctrl = AdmissionController(max_inflight=1, max_queue=1)
        hold = ctrl.submit("hold")
        walked = ctrl.submit("walked-away")
        ctrl.abandon(walked)
        replacement = ctrl.submit("replacement")  # capacity freed
        ctrl.release(hold)
        assert replacement.granted
        assert not walked.granted  # lazy-deleted, never dispatched
        ctrl.release(replacement)
        assert await ctrl.quiesce(timeout=1.0)

    asyncio.run(main())


def test_retry_hint_tracks_service_time_ewma():
    async def main():
        ctrl = AdmissionController(max_inflight=2, max_queue=4)
        for _ in range(10):
            ctrl.release(ctrl.submit("fast"), service_s=0.01)
        quick_hint = ctrl.retry_after_s()
        for _ in range(10):
            ctrl.release(ctrl.submit("slow"), service_s=30.0)
        assert ctrl.retry_after_s() > quick_hint
        assert ctrl.retry_after_s() <= 60.0  # clamped

    asyncio.run(main())


def test_should_preempt_requires_a_deadline_waiter():
    async def main():
        ctrl = AdmissionController(max_inflight=1, max_queue=4)
        ctrl.submit("hog", effort="exhaustive", hog=True)
        assert not ctrl.should_preempt()  # nothing waiting
        ctrl.submit("plain")
        assert not ctrl.should_preempt()  # no deadline at stake
        ctrl.submit("urgent", deadline_at=time.monotonic() + 10.0)
        assert ctrl.should_preempt()

    asyncio.run(main())


# ---------------------------------------------------------------------------
# Integration: queued heartbeats and hog preemption


def _await_stats(client, predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate(client.call("stats")):
            return True
        time.sleep(0.05)
    return False


def test_queued_heartbeats_carry_state_and_position():
    from repro.service.requests import AnalysisRequest, build_context

    origin = sorted(
        build_context(AnalysisRequest(netlist="iscas:c17"))
        .circuit.inputs)[0]
    handle = start_in_thread(ServiceConfig(
        heartbeat_interval=0.05, max_concurrent=1, max_inflight=1,
        max_queue=4, allow_fault_injection=True))
    slow_box = {}

    def _slow_call():
        with ServiceClient(handle.host, handle.port,
                           timeout=120.0) as c:
            slow_box["result"] = c.call("analyze", {
                "netlist": "iscas:c17", "jobs": 2,
                "fault": {"hang_origins": [origin],
                          "hang_attempts": [0],
                          "hang_seconds": 1.5}})

    beats = []
    try:
        slow = threading.Thread(target=_slow_call, daemon=True)
        slow.start()
        with ServiceClient(handle.host, handle.port,
                           timeout=120.0) as probe:
            assert _await_stats(
                probe,
                lambda s: (s["admission"] or {}).get("inflight"))
            result = probe.call("analyze",
                                {"netlist": "iscas:c17", "top": 2},
                                on_heartbeat=beats.append)
        slow.join(60.0)
    finally:
        handle.stop()
    assert result["kind"] == "result"
    assert "result" in slow_box
    queued_beats = [b for b in beats if b.get("queued")]
    assert queued_beats, "no queued-state heartbeat during the wait"
    assert all(b["state"] == "queued" for b in queued_beats)
    assert all(b["position"] >= 1 for b in queued_beats)


def test_deadline_waiter_preempts_exhaustive_hog():
    handle = start_in_thread(ServiceConfig(
        heartbeat_interval=0.1, fleet=1, preempt_after_s=0.2,
        allow_fault_injection=True))
    hog_box = {}

    def _hog_call():
        with ServiceClient(handle.host, handle.port,
                           timeout=120.0) as c:
            # Attempt 0 hangs (would hold the single worker ~forever);
            # the post-preemption re-run is attempt 1, which computes.
            hog_box["result"] = c.call(
                "analyze",
                {"netlist": "iscas:c17", "top": 4,
                 "fleet_fault": {"hang_attempts": [0], "hang_s": 60.0}},
                effort="exhaustive")

    try:
        hog = threading.Thread(target=_hog_call, daemon=True)
        hog.start()
        with ServiceClient(handle.host, handle.port,
                           timeout=120.0) as probe:
            assert _await_stats(
                probe,
                lambda s: (s["admission"] or {}).get("inflight"))
            urgent = probe.call("analyze",
                                {"netlist": "iscas:c17", "top": 5},
                                deadline_s=60.0)
            stats = probe.call("stats")
        hog.join(60.0)
        assert not hog.is_alive(), "preempted hog never completed"
        with ServiceClient(handle.host, handle.port,
                           timeout=120.0) as c:
            plain = c.call("analyze", {"netlist": "iscas:c17",
                                       "top": 4})
    finally:
        handle.stop()
    assert urgent["kind"] == "result"
    assert stats["executor"]["preemptions"] >= 1
    # The preempted request lost its worker, not its answer.
    assert hog_box["result"]["report"] == plain["report"]
