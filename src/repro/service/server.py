"""The analysis daemon: asyncio acceptor over supervised compute.

One :class:`AnalysisServer` owns

* a :class:`~repro.service.cache.ResultMemo` of rendered outcomes for
  deterministic request repeats (checked in the acceptor, so memo hits
  bypass admission entirely),
* a supervised :class:`~repro.service.fleet.WorkerFleet` of
  ``fleet`` worker processes, the only place compute runs (a worker
  segfault/OOM/hang kills one request attempt, not the daemon).  Each
  worker holds its own :class:`~repro.service.cache.HotCache` of built
  :class:`~repro.service.requests.AnalysisContext` objects (circuit +
  charlib + compiled session); ``stats`` reports their merged
  ``service.worker_cache_*`` counters,
* an :class:`~repro.service.admission.AdmissionController`: a bounded
  EDF/effort priority queue with load shedding (``overloaded`` +
  ``retry_after_s``), queue-wait heartbeats (``queued: true`` with the
  1-based position), deadline expiry before dispatch, and hog
  preemption,
* optionally a :class:`~repro.service.persistence.WarmStateStore`
  snapshotting the result memo periodically and on drain, re-warming
  it on boot (corrupt snapshots are discarded, never trusted).

Request lifecycle: frame decoded -> envelope validated -> the op's
request type parses the params -> spec built (analyze: QoS effort
applied, netlist text read; fingerprint/memo check) -> **admitted** (or
shed) -> heartbeats with ``state="queued"`` while waiting -> on grant, the
deadline's queue wait is charged (:func:`repro.service.qos
.resolve_budgets`) -> a fleet worker executes the spec via
:func:`repro.service.fleet.run_work` -- *the same compute code as the
one-shot CLI*, which is what makes served reports byte-identical to
it -> heartbeats with
``state="running"`` -> ``partial`` frame for degraded results -> the
terminal ``result``/``error`` frame.

Shutdown: :meth:`AnalysisServer.begin_drain` (the wire ``shutdown`` op
and SIGTERM both route here) stops admitting compute, finishes
in-flight work, snapshots warm state, and exits; ``request_stop`` /
:meth:`ServerHandle.kill` is the immediate path (tests and the chaos
harness's simulated crash).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro import obs
from repro.obs.aggregate import merge_shard_telemetry
from repro.resilience.errors import ConfigError
from repro.resilience.workers import Preempted, WorkerCrashed, WorkerTimeout
from repro.service.admission import AdmissionController, Overloaded, Ticket
from repro.service.cache import ResultMemo
from repro.service.fleet import FLEET_FAULT_FIELDS, WorkerFleet
from repro.service.persistence import WarmStateStore
from repro.service.protocol import (
    PROTOCOL_VERSION,
    BadRequest,
    ProtocolError,
    TruncatedFrame,
    encode_frame,
    error_frame,
    heartbeat_frame,
    read_frame,
    result_frame,
    validate_request,
)
from repro.service.qos import resolve_budgets
from repro.service.requests import REQUEST_TYPES, read_netlist

_log = obs.get_logger("repro.service")

#: Ceiling on how long a drain waits for in-flight work, seconds.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    #: 0 = let the OS pick (the bound port is on the server/handle).
    port: int = 0
    #: LRU capacity for built analysis contexts, per fleet worker.
    cache_size: int = 8
    #: LRU capacity for memoized deterministic results.
    result_cache_size: int = 64
    #: Seconds between liveness beats (queued and running states).
    heartbeat_interval: float = 5.0
    #: Honor the ``fault`` request param (test/CI harnesses only).
    allow_fault_injection: bool = False
    #: Worker processes (>= 1), and the admission slots.  One worker
    #: keeps one context cache: the pool hands sequential tasks to its
    #: workers in turn, so at N workers one client's same-config
    #: requests pay up to N builds.
    fleet: int = 1
    #: Waiting tickets beyond which new arrivals are shed.
    max_queue: int = 32
    #: Crash retries per request before giving up.
    request_retries: int = 2
    #: Queue wait after which a deadline-bearing ticket may trigger a
    #: hog preemption.
    preempt_after_s: float = 2.0
    #: Warm-state snapshot file; None disables persistence.
    snapshot_path: Optional[str] = None
    #: Seconds between periodic snapshots.
    snapshot_interval_s: float = 30.0
    #: Discard snapshots older than this on boot; None = no horizon.
    snapshot_max_age_s: Optional[float] = None


@dataclass
class ServerHandle:
    """A server running in a daemon thread (tests, benchmarks, CLI)."""

    server: "AnalysisServer"
    thread: threading.Thread

    @property
    def host(self) -> str:
        return self.server.config.host

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not bound yet"
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        self.server.request_stop()
        self.thread.join(timeout)

    def kill(self, timeout: float = 30.0) -> None:
        """Simulated crash: stop *without* the exit snapshot, so a
        restart exercises whatever the last periodic snapshot saved."""
        self.server.skip_final_snapshot = True
        self.server.request_stop()
        self.thread.join(timeout)

    def drain(self, timeout: float = 60.0) -> None:
        """Graceful: finish in-flight, refuse new, snapshot, stop."""
        self.server.begin_drain()
        self.thread.join(timeout)


@dataclass
class _PendingCompute:
    """A validated compute request, ready for admission/dispatch.  The
    spec's analyze-only extras: ``fault``, ``fleet_fault``,
    ``netlist_text``; at dispatch ``timeout_s`` and ``hog``."""

    request: Any
    spec: Dict[str, Any]
    memoizable: bool = False
    fingerprint: Optional[str] = None
    hog: bool = False

    @property
    def op(self) -> str:
        return self.request.op


class AnalysisServer:
    """See the module docstring; construct, then :meth:`run` (blocking)
    or :func:`start_in_thread`."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        if self.config.fleet < 1:
            raise ConfigError(
                f"--fleet must be >= 1 worker, got {self.config.fleet}")
        self.port: Optional[int] = None
        self.results = ResultMemo(self.config.result_cache_size)
        self.fleet = WorkerFleet(
            self.config.fleet, cache_size=self.config.cache_size,
            retries=self.config.request_retries)
        self.store: Optional[WarmStateStore] = None
        if self.config.snapshot_path:
            self.store = WarmStateStore(
                self.config.snapshot_path,
                max_age_s=self.config.snapshot_max_age_s)
        self.skip_final_snapshot = False
        self._admission: Optional[AdmissionController] = None
        self._started_at = time.monotonic()
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._draining = False
        self._requests_lock = threading.Lock()
        self._requests: Dict[str, int] = {}
        self._failed = 0
        self._client_tasks: set = set()

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> None:
        """Serve until :meth:`request_stop` (blocking; owns the loop)."""
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        # One admission slot per worker: more would only move the wait
        # from the EDF queue into the pool's FIFO, fewer would idle one.
        width = self.fleet.width
        self._admission = AdmissionController(
            max_inflight=width, max_queue=self.config.max_queue)
        self._restore_warm_state()
        server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port)
        self.port = server.sockets[0].getsockname()[1]
        _log.info("service.listening", host=self.config.host,
                  port=self.port, fleet=self.config.fleet,
                  max_inflight=width,
                  max_queue=self.config.max_queue)
        self._ready.set()
        snapshotter = None
        if self.store is not None:
            snapshotter = asyncio.ensure_future(self._snapshot_loop())
        try:
            await self._stop_async.wait()
        finally:
            server.close()
            await server.wait_closed()
            if snapshotter is not None:
                snapshotter.cancel()
            # Drain live connection handlers instead of letting
            # asyncio.run() cancel them un-awaited (which logs a noisy
            # CancelledError per connection on shutdown).
            live = [t for t in self._client_tasks if not t.done()]
            if live:
                _, pending = await asyncio.wait(live, timeout=2.0)
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
            if self.store is not None and not self.skip_final_snapshot:
                self.snapshot_now()
            self.fleet.shutdown()
            _log.info("service.stopped", port=self.port)

    def wait_ready(self, timeout: float = 60.0) -> None:
        if not self._ready.wait(timeout):
            raise TimeoutError("service did not come up in time")

    def request_stop(self) -> None:
        """Thread-safe *immediate* shutdown trigger."""
        loop, stop = self._loop, self._stop_async
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    def begin_drain(self) -> None:
        """Thread-safe graceful shutdown: refuse new compute with
        ``unavailable``, finish in-flight work, snapshot warm state,
        then stop.  The wire ``shutdown`` op and SIGTERM route here."""
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(self._begin_drain_local)

    def _begin_drain_local(self) -> None:
        if self._draining:
            return
        self._draining = True
        _log.info("service.draining", port=self.port)
        asyncio.ensure_future(self._drain_and_stop())

    async def _drain_and_stop(self) -> None:
        assert self._admission is not None and self._stop_async is not None
        drained = await self._admission.quiesce(timeout=DRAIN_TIMEOUT_S)
        if not drained:
            _log.warning("service.drain_timeout", timeout_s=DRAIN_TIMEOUT_S)
        self._stop_async.set()

    # -- warm-state persistence --------------------------------------------

    def _restore_warm_state(self) -> None:
        if self.store is None:
            return
        state = self.store.load()
        if state is None:
            return
        restored = self.results.restore(state["memo"])
        _log.info("service.rewarmed", memo_entries=restored)

    def snapshot_now(self) -> None:
        """Write a warm-state snapshot (no-op without a store)."""
        if self.store is None:
            return
        try:
            self.store.save(self.results.items())
        except OSError as exc:
            _log.warning("service.snapshot_failed",
                         error=f"{type(exc).__name__}: {exc}")

    async def _snapshot_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(self.config.snapshot_interval_s)
                self.snapshot_now()
        except asyncio.CancelledError:
            pass

    # -- bookkeeping -------------------------------------------------------

    def _count(self, op: str) -> None:
        obs.counter("service.requests").inc()
        obs.counter("service.requests_by_op", op=op).inc()
        with self._requests_lock:
            self._requests[op] = self._requests.get(op, 0) + 1

    def _count_failure(self) -> None:
        obs.counter("service.requests_failed").inc()
        with self._requests_lock:
            self._failed += 1

    def stats_payload(self) -> Dict[str, Any]:
        with self._requests_lock:
            by_op = dict(self._requests)
            failed = self._failed
        return {
            "protocol_version": PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "requests": {
                "total": sum(by_op.values()),
                "by_op": by_op,
                "failed": failed,
            },
            "contexts": self._context_stats(),
            "results": self.results.stats(),
            "executor": self.fleet.stats(),
            "admission": (self._admission.stats()
                          if self._admission is not None else None),
            "draining": self._draining,
            "metrics": obs.snapshot(),
        }

    def _context_stats(self) -> Dict[str, Any]:
        """The fleet workers' context caches, from the
        ``service.worker_cache_*`` counters their telemetry merges into
        this registry (no one process holds the entry count)."""
        stats: Dict[str, Any] = {"max_entries": self.config.cache_size}
        for key in ("hits", "misses", "evictions"):
            stats[key] = obs.counter(f"service.worker_cache_{key}").value
        return stats

    # -- connection handling ----------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter,
                    payload: Dict[str, Any]) -> None:
        writer.write(encode_frame(payload))
        await writer.drain()

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        obs.counter("service.connections").inc()
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
            task.add_done_callback(self._client_tasks.discard)
        try:
            while True:
                try:
                    payload = await read_frame(reader)
                except TruncatedFrame:
                    # Peer vanished mid-frame; nothing to answer to.
                    obs.counter("service.truncated_frames").inc()
                    break
                except ProtocolError as exc:
                    obs.counter("service.protocol_errors").inc()
                    await self._send(writer, error_frame(
                        exc.request_id, exc.code, str(exc)))
                    if exc.fatal:
                        break
                    continue
                if payload is None:
                    break  # clean EOF at a frame boundary
                try:
                    request_id, op, params, deadline_s, effort = \
                        validate_request(payload)
                except ProtocolError as exc:
                    obs.counter("service.protocol_errors").inc()
                    await self._send(writer, error_frame(
                        exc.request_id, exc.code, str(exc)))
                    continue
                await self._process(writer, request_id, op, params,
                                    deadline_s, effort)
                if op == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer went away; the server keeps serving others
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- request processing ------------------------------------------------

    async def _process(self, writer: asyncio.StreamWriter, request_id: Any,
                       op: str, params: Dict[str, Any],
                       deadline_s: Optional[float],
                       effort: Optional[str]) -> None:
        arrived_at = time.monotonic()
        self._count(op)
        with obs.span(f"service.request.{op}"):
            if op == "ping":
                await self._send(writer, result_frame(
                    request_id, op="ping", pong=True,
                    draining=self._draining,
                    uptime_s=round(arrived_at - self._started_at, 3)))
                return
            if op == "stats":
                await self._send(writer, result_frame(
                    request_id, op="stats", **self.stats_payload()))
                return
            if op == "shutdown":
                await self._send(writer, result_frame(
                    request_id, op="shutdown", stopping=True))
                self.begin_drain()
                return
            if self._draining:
                self._count_failure()
                await self._send(writer, error_frame(
                    request_id, "unavailable",
                    "server is draining; not accepting new work"))
                return
            try:
                pending = self._build_spec(op, dict(params), effort)
            except ProtocolError as exc:
                frame = error_frame(request_id, exc.code, str(exc))
            except ConfigError as exc:
                frame = error_frame(request_id, "bad-request", str(exc))
            except Exception as exc:
                # E.g. an unreadable netlist file: answered as a worker
                # answers any request that raises, connection intact.
                error = f"{type(exc).__name__}: {exc}"
                _log.warning("service.request_error", op=op, error=error)
                frame = error_frame(request_id, "internal", error)
            else:
                await self._admit_and_run(writer, request_id, pending,
                                          deadline_s, effort, arrived_at)
                return
            self._count_failure()
            await self._send(writer, frame)

    # -- spec construction (acceptor side, cheap) --------------------------

    def _build_spec(self, op: str, params: Dict[str, Any],
                    effort: Optional[str]) -> _PendingCompute:
        """Every op's params become its request type; fault injection,
        the QoS effort tier, the result memo and hog preemption are
        ``analyze``-only."""
        request_type = REQUEST_TYPES.get(op)
        if request_type is None:
            raise BadRequest(f"op {op!r} not dispatchable")
        if op != "analyze":
            request = request_type.from_params(params)
            return _PendingCompute(
                request=request, spec={"op": op, "request": asdict(request)})
        fault_plan = self._fault_plan(params)
        fleet_fault = self._fleet_fault(params)
        request = request_type.from_params(params)
        if effort is not None:
            # Effort tiers are deterministic (same cap -> same result),
            # so they merge *before* fingerprinting; the deadline's
            # wall budget is charged at dispatch, after the queue wait.
            request = request.with_budgets(
                resolve_budgets(request.budgets(), None, effort))
        # The memo and the worker's context cache are keyed on the
        # netlist text read here, and the worker computes from this
        # very text: a hit is served only for the bytes it came from.
        text = read_netlist(request.netlist)
        spec: Dict[str, Any] = {"op": op, "request": asdict(request),
                                "fault": fault_plan, "netlist_text": text}
        if fleet_fault:
            spec["fleet_fault"] = fleet_fault
        return _PendingCompute(
            request=request, spec=spec,
            memoizable=(request.deterministic() and fault_plan is None
                        and fleet_fault is None),
            fingerprint=request.fingerprint(text),
            hog=(effort == "exhaustive"))

    def _fault_plan(self, params: Dict[str, Any]):
        """Honor a ``fault`` param (test harnesses only): a FaultPlan
        field dict, e.g. ``{"crash_origins": ["N1"], "crash_attempts":
        [0, 1, 2]}``."""
        spec = params.pop("fault", None)
        if spec is None:
            return None
        if not self.config.allow_fault_injection:
            raise BadRequest(
                "fault injection is disabled on this server")
        from repro.verify.faults import FaultPlan

        known = {f.name for f in FaultPlan.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = sorted(set(spec) - known)
        if unknown:
            raise BadRequest(f"unknown fault fields: {', '.join(unknown)}")
        coerced = {key: tuple(value) if isinstance(value, list) else value
                   for key, value in spec.items()}
        return FaultPlan(**coerced)

    def _fleet_fault(self, params: Dict[str, Any]) -> Optional[Dict]:
        """Honor a ``fleet_fault`` param (chaos harness only): worker-
        level crash/hang injection, e.g. ``{"crash_attempts": [0]}``."""
        spec = params.pop("fleet_fault", None)
        if spec is None:
            return None
        if not self.config.allow_fault_injection:
            raise BadRequest(
                "fault injection is disabled on this server")
        unknown = sorted(set(spec) - set(FLEET_FAULT_FIELDS))
        if unknown:
            raise BadRequest(
                f"unknown fleet_fault fields: {', '.join(unknown)}")
        return dict(spec)

    # -- admission + dispatch ----------------------------------------------

    async def _admit_and_run(self, writer: asyncio.StreamWriter,
                             request_id: Any, pending: _PendingCompute,
                             deadline_s: Optional[float],
                             effort: Optional[str],
                             arrived_at: float) -> None:
        # Memo fast path: a deterministic repeat answers from the
        # acceptor without touching admission or a compute slot.
        if pending.memoizable and deadline_s is None:
            hit = self.results.get(pending.fingerprint)
            if hit is not None:
                frame = dict(hit, cached=True)
                frame["id"] = request_id
                await self._send(writer, frame)
                return
        deadline_at = (arrived_at + deadline_s
                       if deadline_s is not None else None)
        assert self._admission is not None
        attempt = 0
        hog = pending.hog
        spec = pending.spec
        while True:
            try:
                ticket = self._admission.submit(
                    request_id, effort=effort, deadline_at=deadline_at,
                    hog=hog)
            except Overloaded as exc:
                self._count_failure()
                await self._send(writer, error_frame(
                    request_id, exc.code, str(exc),
                    retry_after_s=exc.retry_after_s))
                return
            granted = await self._wait_for_grant(writer, request_id,
                                                 ticket, arrived_at)
            if not granted:
                self._count_failure()
                await self._send(writer, error_frame(
                    request_id, "deadline-exceeded",
                    f"deadline of {deadline_s:g}s expired after "
                    f"{time.monotonic() - arrived_at:.3f}s in queue"))
                return
            # Slot granted: charge the queue wait against the deadline.
            if pending.op == "analyze" and deadline_s is not None:
                try:
                    request = pending.request.with_budgets(resolve_budgets(
                        pending.request.budgets(), deadline_s, None,
                        queued_at=arrived_at))
                except ProtocolError as exc:
                    self._admission.release(ticket)
                    self._count_failure()
                    await self._send(writer, error_frame(
                        request_id, exc.code, str(exc)))
                    return
                wall = request.wall_budget
                spec = dict(spec, request=asdict(request))
                if wall is not None:
                    # Hard kill horizon for a *hung* worker: the search
                    # honors the wall budget itself, so the supervisor
                    # only steps in well past it.
                    spec["timeout_s"] = wall + max(5.0, wall)
            if hog:
                spec = dict(spec, hog=True)
            dispatched_at = time.monotonic()
            try:
                frames = await self._run_with_heartbeats(
                    writer, request_id, spec, attempt, arrived_at, ticket)
            except Preempted:
                self._admission.release(ticket)
                attempt += 1
                hog = False  # a preempted request never yields twice
                spec = dict(spec, hog=False)
                continue
            self._admission.release(
                ticket, service_s=time.monotonic() - dispatched_at)
            break
        terminal = frames[-1]
        if terminal.get("kind") == "error":
            self._count_failure()
        elif pending.op == "analyze":
            elapsed = terminal.get("elapsed_s")
            if elapsed is not None:
                obs.histogram("service.analyze_seconds").observe(elapsed)
            # A failed origin is an infrastructure accident (a crash or
            # a wall-clock timeout), not a function of the request.
            failed = any(o.get("status") == "failed"
                         for o in terminal.get("completeness", ()))
            if pending.memoizable and deadline_s is None and not failed:
                self.results.put(
                    pending.fingerprint,
                    {key: value for key, value in terminal.items()
                     if key not in ("elapsed_s", "metrics")})
        for frame in frames:
            if frame.get("id") is None:
                frame["id"] = request_id
            await self._send(writer, frame)

    async def _wait_for_grant(self, writer: asyncio.StreamWriter,
                              request_id: Any, ticket: Ticket,
                              arrived_at: float) -> bool:
        """Await the ticket, beating with ``state="queued"`` and the
        queue position; returns whether the ticket was granted (False =
        expired).  Triggers at most one hog preemption per wait."""
        assert self._admission is not None
        preempt_tried = False
        while not (ticket.granted or ticket.expired):
            resolved = await ticket.wait(self.config.heartbeat_interval)
            if resolved:
                break
            if (ticket.deadline_at is not None
                    and time.monotonic() >= ticket.deadline_at):
                self._admission.expire(ticket)
                break
            try:
                await self._send(writer, heartbeat_frame(
                    request_id, time.monotonic() - arrived_at,
                    state="queued", queued=True,
                    position=self._admission.position(ticket)))
            except (ConnectionResetError, BrokenPipeError):
                self._admission.abandon(ticket)
                raise
            if (not preempt_tried
                    and ticket.deadline_at is not None
                    and (time.monotonic() - arrived_at
                         >= self.config.preempt_after_s)
                    and self._admission.should_preempt()):
                preempt_tried = True
                self.fleet.preempt_one()
        return ticket.granted

    async def _run_with_heartbeats(
        self, writer: asyncio.StreamWriter, request_id: Any,
        spec: Dict[str, Any], attempt: int, arrived_at: float,
        ticket: Ticket,
    ) -> List[Dict[str, Any]]:
        """Execute the spec on the fleet, beating while it runs.
        Returns response frames; raises only :class:`Preempted` (fleet
        infrastructure failures map to error frames here)."""
        future = asyncio.wrap_future(self.fleet.submit(spec, attempt))
        disconnected = False
        try:
            while True:
                done, _ = await asyncio.wait(
                    [future], timeout=self.config.heartbeat_interval)
                if done:
                    break
                if disconnected:
                    continue
                try:
                    await self._send(writer, heartbeat_frame(
                        request_id, time.monotonic() - arrived_at))
                except (ConnectionResetError, BrokenPipeError):
                    # The client is gone but the compute is not
                    # cancelable; keep waiting so the admission slot is
                    # released only when the worker actually frees up.
                    disconnected = True
        except asyncio.CancelledError:
            # The server is stopping under this request: the fleet's
            # shutdown fails the future after this task is gone, so
            # read that outcome here or asyncio reports it as lost.
            future.add_done_callback(
                lambda dead: dead.cancelled() or dead.exception())
            raise
        try:
            frames, telemetry = future.result()
        except Preempted:
            raise
        except WorkerTimeout as exc:
            frames = [error_frame(request_id, "deadline-exceeded",
                                  str(exc))]
        except WorkerCrashed as exc:
            frames = [error_frame(request_id, "internal", str(exc))]
        except Exception as exc:  # defensive: run_work converts its own
            _log.warning("service.executor_error", op=spec.get("op"),
                         error=f"{type(exc).__name__}: {exc}")
            frames = [error_frame(request_id, "internal",
                                  f"{type(exc).__name__}: {exc}")]
        else:
            # The worker's registry delta: the acceptor's metrics see
            # fleet work, merged on this one thread.  A worker runs one
            # task at a time, so the delta is also the request's own
            # record: its counters are the result's ``metrics``.
            merge_shard_telemetry(telemetry)
            if frames[-1].get("kind") == "result":
                frames[-1]["metrics"] = telemetry.counters()
        # On a mid-compute disconnect the frames are returned anyway:
        # the caller releases the slot first, then the doomed send
        # surfaces the broken pipe to the connection handler.
        return frames


def start_in_thread(config: Optional[ServiceConfig] = None) -> ServerHandle:
    """Run an :class:`AnalysisServer` in a daemon thread and block until
    it is bound (tests, benchmarks, and ``repro serve`` all use this)."""
    server = AnalysisServer(config)
    thread = threading.Thread(target=server.run, daemon=True,
                              name="repro-service-loop")
    thread.start()
    server.wait_ready()
    return ServerHandle(server=server, thread=thread)
