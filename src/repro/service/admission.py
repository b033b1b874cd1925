"""Admission control for the analysis daemon: bounded priority queue,
load shedding, and preemption policy.

PR 9's server had no backpressure: every accepted connection got a
thread-pool slot eventually, and a burst of heavy requests simply piled
unbounded futures onto the executor.  This module makes admission an
explicit, *bounded* decision in the acceptor:

* **Priority.** Tickets order by earliest-deadline-first, then by QoS
  effort class (``low`` before ``exhaustive`` -- cheap capped probes
  should not starve behind uncapped searches), then FIFO.  A request
  with a deadline always outranks one without: it is the one that can
  still be saved.
* **Shedding.** When ``max_inflight`` slots are busy *and* the queue
  holds ``max_queue`` waiting tickets, new arrivals are refused
  immediately with a structured ``overloaded`` error carrying a
  ``retry_after_s`` hint (queue depth x the EWMA service time over the
  inflight width), instead of being accepted into a wait the server
  already knows it cannot honor.  Counter: ``service.overloaded``.
* **Expiry.** A ticket whose deadline passes while it waits is dropped
  *before* dispatch (``deadline-exceeded``), so dead requests never
  consume a worker.  Counter: ``service.deadline_drops``.
* **Preemption hints.** :meth:`AdmissionController.should_preempt`
  reports when a deadline-bearing ticket is waiting behind a fleet
  full of uncapped ``exhaustive`` hogs; the server then asks the
  worker fleet to reclaim one worker (the preempted request is
  re-queued, not lost -- see :class:`repro.service.fleet.WorkerFleet`).

The controller is **loop-confined**: every method is called from the
server's asyncio loop thread only, so there are no locks -- just a heap
and counters.  Tickets expose an :class:`asyncio.Event` the per-request
coroutine awaits (with a timeout, so it can interleave queued-state
heartbeats).
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.service.protocol import ProtocolError

_log = obs.get_logger("repro.service")

#: Dispatch rank of QoS effort classes for tickets *without* a
#: deadline: capped-cheap first, uncapped-open-ended last.  ``None``
#: (no effort stated) sits between ``high`` and ``exhaustive``.
EFFORT_RANK = {"low": 0, "medium": 1, "high": 2, None: 3, "exhaustive": 4}

#: Fallback EWMA seed for the retry hint before any request completes.
_DEFAULT_SERVICE_S = 0.5


class Overloaded(ProtocolError):
    """Admission refused: queue and inflight limits are both at
    capacity.  ``retry_after_s`` is the server's backoff hint."""

    code = "overloaded"
    fatal = False

    def __init__(self, message: str, retry_after_s: float,
                 request_id: Any = None):
        super().__init__(message, request_id=request_id)
        self.retry_after_s = retry_after_s


class Ticket:
    """One admitted request waiting for (or holding) a compute slot."""

    __slots__ = ("request_id", "effort", "deadline_at", "hog", "seq",
                 "granted", "expired", "event", "arrived_at")

    def __init__(self, request_id: Any, effort: Optional[str],
                 deadline_at: Optional[float], hog: bool, seq: int):
        self.request_id = request_id
        self.effort = effort
        self.deadline_at = deadline_at
        self.hog = hog
        self.seq = seq
        self.granted = False
        self.expired = False
        self.event = asyncio.Event()
        self.arrived_at = time.monotonic()

    def priority(self) -> Tuple:
        if self.deadline_at is not None:
            return (0, self.deadline_at, self.seq)
        return (1, EFFORT_RANK.get(self.effort, 3), self.seq)

    async def wait(self, timeout: float) -> bool:
        """Await grant/expiry for up to ``timeout`` seconds; returns
        whether the ticket was resolved (granted or expired)."""
        try:
            await asyncio.wait_for(self.event.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            # wait_for can time out while the grant lands during its
            # cancellation; a granted ticket must not beat "queued" with
            # position 0.
            return self.granted or self.expired


class AdmissionController:
    """Bounded EDF/effort priority queue over a fixed inflight width.

    Loop-confined: construct and call only from the server's asyncio
    loop thread.
    """

    def __init__(self, max_inflight: int, max_queue: int):
        if max_inflight < 1:
            raise ValueError(
                f"admission needs >= 1 inflight slot, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue cannot be negative: {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self._inflight = 0
        self._waiting = 0
        self._seq = itertools.count()
        self._heap: List[Tuple[Tuple, Ticket]] = []
        self._service_ewma = _DEFAULT_SERVICE_S
        self._idle = asyncio.Event()
        self._idle.set()

    # -- admission ---------------------------------------------------------

    def submit(self, request_id: Any, effort: Optional[str] = None,
               deadline_at: Optional[float] = None,
               hog: bool = False) -> Ticket:
        """Admit a request or raise :class:`Overloaded`.

        The returned ticket is either granted immediately (a free slot)
        or queued; the caller awaits :meth:`Ticket.wait` and must call
        :meth:`release` exactly once after a granted ticket finishes
        (or :meth:`abandon` for a queued ticket it walks away from).
        """
        if self._inflight >= self.max_inflight and \
                self._waiting >= self.max_queue:
            retry_after = self.retry_after_s()
            obs.counter("service.overloaded").inc()
            _log.warning("admission.shed", request_id=request_id,
                         inflight=self._inflight, queued=self._waiting,
                         retry_after_s=retry_after)
            raise Overloaded(
                f"server at capacity ({self._inflight} inflight, "
                f"{self._waiting} queued); retry in ~{retry_after:g}s",
                retry_after_s=retry_after, request_id=request_id)
        ticket = Ticket(request_id, effort, deadline_at, hog,
                        next(self._seq))
        self._idle.clear()
        if self._inflight < self.max_inflight:
            self._grant(ticket)
        else:
            self._waiting += 1
            heapq.heappush(self._heap, (ticket.priority(), ticket))
            obs.counter("service.queued").inc()
        return ticket

    def _grant(self, ticket: Ticket) -> None:
        ticket.granted = True
        self._inflight += 1
        ticket.event.set()

    def release(self, ticket: Ticket, service_s: Optional[float] = None) \
            -> None:
        """Return a granted ticket's slot and dispatch the next waiter."""
        assert ticket.granted, "release() of a never-granted ticket"
        self._inflight -= 1
        if service_s is not None and service_s >= 0:
            self._service_ewma = 0.8 * self._service_ewma + 0.2 * service_s
        self._pump()
        self._maybe_idle()

    def abandon(self, ticket: Ticket) -> None:
        """Remove a still-queued ticket (client vanished mid-wait)."""
        if ticket.granted or ticket.expired:
            return
        ticket.expired = True  # lazy-deleted from the heap by _pump
        ticket.event.set()
        self._waiting -= 1
        self._maybe_idle()

    def expire(self, ticket: Ticket) -> None:
        """Drop a queued ticket whose deadline passed mid-wait (the
        per-request coroutine checks between heartbeats; :meth:`_pump`
        catches the rest at dispatch time)."""
        if ticket.granted or ticket.expired:
            return
        ticket.expired = True
        ticket.event.set()
        self._waiting -= 1
        obs.counter("service.deadline_drops").inc()
        _log.info("admission.deadline_drop", request_id=ticket.request_id,
                  waited_s=round(time.monotonic() - ticket.arrived_at, 3))
        self._maybe_idle()

    def _pump(self) -> None:
        """Dispatch waiters into free slots, dropping expired tickets."""
        now = time.monotonic()
        while self._heap and self._inflight < self.max_inflight:
            _, ticket = heapq.heappop(self._heap)
            if ticket.expired:
                continue  # abandoned; already uncounted
            if ticket.deadline_at is not None and now >= ticket.deadline_at:
                ticket.expired = True
                self._waiting -= 1
                obs.counter("service.deadline_drops").inc()
                _log.info("admission.deadline_drop",
                          request_id=ticket.request_id,
                          waited_s=round(now - ticket.arrived_at, 3))
                ticket.event.set()
                continue
            self._waiting -= 1
            self._grant(ticket)

    def _maybe_idle(self) -> None:
        if self._inflight == 0 and self._waiting == 0:
            self._idle.set()

    # -- introspection -----------------------------------------------------

    def position(self, ticket: Ticket) -> int:
        """1-based dispatch position of a queued ticket (heap order)."""
        if ticket.granted or ticket.expired:
            return 0
        live = sorted(t.priority() for _, t in self._heap
                      if not t.expired and not t.granted)
        try:
            return live.index(ticket.priority()) + 1
        except ValueError:  # pragma: no cover - racing a concurrent pump
            return len(live) or 1

    def retry_after_s(self) -> float:
        """Backoff hint: expected queue drain time given the EWMA
        service rate, floored at a useful minimum."""
        depth = self._waiting + 1
        estimate = depth * self._service_ewma / self.max_inflight
        return round(max(0.1, min(estimate, 60.0)), 3)

    def should_preempt(self) -> bool:
        """True when a deadline-bearing ticket waits while every slot
        is busy -- the server decides whether a hog is actually
        running (fleet mode) and preempts at most one."""
        if self._inflight < self.max_inflight:
            return False
        return any(t.deadline_at is not None
                   for _, t in self._heap
                   if not t.expired and not t.granted)

    async def quiesce(self, timeout: Optional[float] = None) -> bool:
        """Await drain (no inflight, no queued); returns success."""
        if timeout is None:
            await self._idle.wait()
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def stats(self) -> Dict[str, Any]:
        return {
            "inflight": self._inflight,
            "max_inflight": self.max_inflight,
            "queued": self._waiting,
            "max_queue": self.max_queue,
            "service_ewma_s": round(self._service_ewma, 4),
            "shed": obs.counter("service.overloaded").value,
            "deadline_drops": obs.counter("service.deadline_drops").value,
        }
