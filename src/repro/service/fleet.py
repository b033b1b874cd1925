"""Supervised worker processes behind the analysis acceptor.

Compute runs in N supervised **worker processes**, so a segfault, OOM
kill or runaway loop costs one request attempt, not the daemon:

* :func:`run_work` -- the single spec-driven execution function.  Every
  fleet worker runs it, and it calls the same
  :mod:`repro.service.requests` code as the one-shot CLI, which makes
  served reports byte-identical to CLI ones by construction.
  Request-level failures become structured error frames here.
* :class:`WorkerFleet` -- a thin layer over the supervised worker pool
  shared with ``--jobs N`` shards
  (:class:`repro.resilience.workers.WorkerPool`): crash retry with
  backoff, a hard per-request deadline derived from the QoS wall
  budget, hog preemption.  Its futures resolve to the frames plus the
  worker's telemetry delta, which the acceptor merges, and raise only
  the pool's infrastructure failures -- ``WorkerCrashed`` (retries
  exhausted), ``WorkerTimeout`` (worker killed at the deadline) and
  ``Preempted`` (the server re-enqueues the request).  Counters:
  ``service.worker_crashes``, ``service.request_retries``,
  ``service.worker_timeouts``, ``service.worker_respawns``,
  ``service.preemptions``.

Forked workers inherit the warm charlib memo and keep their own
:class:`~repro.service.cache.HotCache` of built contexts
(``service.worker_cache_*`` counters).  A worker runs one request at a
time, so the pool's per-task telemetry is that request's work and
nothing else: the acceptor merges it and fills the result frame's
``metrics`` from its counter deltas.  The chaos
harness's ``fleet_fault`` spec field hard-kills a worker with
``os._exit`` before the compute starts, exactly like an OOM kill.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.resilience.errors import ConfigError, ResilienceError
from repro.resilience.workers import Task, WorkerPool
from repro.service.cache import HotCache
from repro.service.protocol import (
    ProtocolError,
    error_frame,
    partial_frame,
    result_frame,
)
from repro.service.requests import (
    REQUEST_TYPES,
    AnalysisRequest,
    build_context,
    execute_analysis,
    execute_size,
    execute_verify,
)

_log = obs.get_logger("repro.service")

#: Fields a ``fleet_fault`` request param may carry (chaos harness
#: only; attempt numbers are zero-based and continuous across retries
#: and re-admissions, so ``{"crash_attempts": [0]}`` kills the first
#: try and lets the retry succeed).
FLEET_FAULT_FIELDS = ("crash_attempts", "crash_exit_code",
                      "hang_attempts", "hang_s")


# ---------------------------------------------------------------------------
# The shared execution function (byte identity by construction)


def run_work(spec: Dict[str, Any], contexts: HotCache) -> List[Dict[str, Any]]:
    """Execute one work spec against a context cache; return the
    response frames (``partial``* then a terminal ``result``/``error``).

    Every op's request is rebuilt the same way, from the spec's
    ``request`` fields.  Request-level failures are rendered to error
    frames *here*, so the worker pipe carries plain frame lists and
    only infrastructure failures surface as exceptions in the acceptor.
    """
    try:
        op = spec["op"]
        request = REQUEST_TYPES[op](**spec["request"])
        if op == "analyze":
            return _run_analyze(request, spec, contexts)
        if op == "verify":
            outcome = execute_verify(request)
            return [result_frame(None, op="verify", report=outcome.report,
                                 ok=outcome.ok)]
        outcome = execute_size(request)
        return [result_frame(None, op="size", report=outcome.report,
                             **outcome.payload)]
    except ProtocolError as exc:
        return [error_frame(None, exc.code, str(exc))]
    except ConfigError as exc:
        return [error_frame(None, "bad-request", str(exc))]
    except ResilienceError as exc:
        return [error_frame(None, "internal", str(exc))]
    except Exception as exc:  # never let a request take the worker down
        _log.warning("service.request_error", op=spec.get("op"),
                     error=f"{type(exc).__name__}: {exc}")
        return [error_frame(None, "internal",
                            f"{type(exc).__name__}: {exc}")]


def _run_analyze(request: AnalysisRequest, spec: Dict[str, Any],
                 contexts: HotCache) -> List[Dict[str, Any]]:
    # The acceptor read the netlist file: the context and the result
    # both belong to exactly the text it keyed the memo on.
    text = spec.get("netlist_text")
    context = contexts.get_or_build(
        request.context_key(text), lambda: build_context(request, text))
    with context.lock:
        started = time.monotonic()
        outcome = execute_analysis(request, context=context,
                                   fault_plan=spec.get("fault"))
        elapsed = time.monotonic() - started
    fields: Dict[str, Any] = {
        "op": "analyze",
        "report": outcome.report,
        "paths": len(outcome.paths),
        "degraded": outcome.degraded,
        "cached": False,
        "elapsed_s": round(elapsed, 6),
    }
    frames: List[Dict[str, Any]] = []
    if outcome.degraded and outcome.completeness is not None:
        completeness = [o.as_dict() for o in
                        outcome.completeness.origins.values()]
        fields["completeness"] = completeness
        frames.append(partial_frame(None, completeness))
    frames.append(result_frame(None, **fields))
    return frames


# ---------------------------------------------------------------------------
# Worker fleet


def _fleet_worker(cache_size: int) -> Callable:
    """Pool worker init: a worker-local context cache, and the handler
    that runs one request spec against it."""
    contexts = HotCache(cache_size, name="worker_cache")

    def handle(spec: Dict[str, Any], attempt: int,
               beat: Callable) -> List[Dict[str, Any]]:
        fault = spec.get("fleet_fault") or {}
        if attempt in tuple(fault.get("crash_attempts", ())):
            # Hard death before any compute: skips every finally/atexit,
            # exactly like an OOM kill of the worker.
            os._exit(int(fault.get("crash_exit_code", 23)))
        if attempt in tuple(fault.get("hang_attempts", ())):
            time.sleep(float(fault.get("hang_s", 30.0)))
        return run_work(spec, contexts)

    return handle


#: Pool event -> the fleet counter it bumps.
_EVENT_COUNTERS = {
    "spawn": "service.worker_respawns",
    "crashed": "service.worker_crashes",
    "retry": "service.request_retries",
    "timeout": "service.worker_timeouts",
    "killed": "service.preemptions",
}


def _count_event(kind: str, task: Optional[Task], detail: Any) -> None:
    name = _EVENT_COUNTERS.get(kind)
    if name is not None:
        obs.counter(name).inc()


class WorkerFleet:
    """N supervised worker processes sharing one task queue.

    ``submit`` returns a :class:`concurrent.futures.Future` resolving
    to ``(frames, telemetry)``, or raising the pool's ``WorkerCrashed``
    / ``WorkerTimeout`` / ``Preempted`` -- see the module docstring for
    the contract.
    """

    def __init__(self, size: int, cache_size: int = 8, retries: int = 2):
        self.width = size
        self._pool = WorkerPool(size, partial(_fleet_worker, cache_size),
                                on_event=_count_event, retries=retries,
                                name="fleet")

    def submit(self, spec: Dict[str, Any], attempt: int = 0) -> Future:
        return self._pool.submit(spec, attempt,
                                 timeout=spec.get("timeout_s")).future

    def preempt_one(self) -> bool:
        """Reclaim one worker running a hog (an uncapped ``exhaustive``
        request); returns whether a preemption was requested."""
        for task in self._pool.running():
            if task.payload.get("hog") and not task.kill_requested:
                self._pool.kill(task)
                return True
        return False

    def stats(self) -> Dict[str, Any]:
        return {
            "width": self.width,
            "workers_alive": self._pool.alive(),
            "busy": len(self._pool.running()),
            "crashes": obs.counter("service.worker_crashes").value,
            "retries": obs.counter("service.request_retries").value,
            "preemptions": obs.counter("service.preemptions").value,
        }

    def shutdown(self) -> None:
        self._pool.shutdown()
