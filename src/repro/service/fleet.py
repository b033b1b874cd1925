"""Supervised worker processes behind the analysis acceptor.

Compute runs in N supervised **worker processes**, so a segfault, OOM
kill or runaway loop costs one request attempt, not the daemon:

* :func:`run_work` -- the single spec-driven execution function.  The
  in-process :class:`ThreadedExecutor` (``--fleet 0``) and every fleet
  worker run *this* function on *the same spec*, which makes fleet
  reports byte-identical to threaded ones by construction (and both to
  the one-shot CLI: ``run_work`` calls :mod:`repro.service.requests`).
  Request-level failures become structured error frames here.
* :class:`WorkerFleet` -- a thin layer over the supervised worker pool
  shared with ``--jobs N`` shards
  (:class:`repro.resilience.workers.WorkerPool`): crash retry with
  backoff, a hard per-request deadline derived from the QoS wall
  budget, hog preemption.  Its futures resolve to the frames plus the
  worker's telemetry delta, which the acceptor merges (the threaded
  executor's carry ``None``), and raise only the pool's
  infrastructure failures -- ``WorkerCrashed`` (retries exhausted),
  ``WorkerTimeout`` (worker killed at the deadline) and ``Preempted``
  (the server re-enqueues the request).  Counters:
  ``service.worker_crashes``, ``service.request_retries``,
  ``service.worker_timeouts``, ``service.worker_respawns``,
  ``service.preemptions``.
* :class:`ThreadedExecutor` -- the deterministic in-process fallback:
  same ``run_work``, same frames, no process isolation.

Forked workers inherit the warm charlib memo and keep their own
:class:`~repro.service.cache.HotCache` of built contexts.  The chaos
harness's ``fleet_fault`` spec field hard-kills a worker with
``os._exit`` before the compute starts, exactly like an OOM kill.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.obs import metrics as obs_metrics
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


def _numeric_snapshot() -> Dict[str, float]:
    return {key: value for key, value in obs_metrics.snapshot().items()
            if isinstance(value, (int, float))}


def _numeric_delta(before: Dict[str, float]) -> Dict[str, float]:
    after = _numeric_snapshot()
    return {key: value - before.get(key, 0)
            for key, value in after.items()
            if value != before.get(key, 0)}


def run_work(spec: Dict[str, Any], contexts: HotCache) -> List[Dict[str, Any]]:
    """Execute one work spec against a context cache; return the
    response frames (``partial``* then a terminal ``result``/``error``).

    Request-level failures are rendered to error frames *here*, so the
    threaded pool and the worker pipe both carry plain frame lists --
    the acceptor never needs to distinguish where the work ran.
    """
    try:
        op = spec["op"]
        if op == "analyze":
            return _run_analyze(spec, contexts)
        if op == "verify":
            outcome = execute_verify(**spec["params"])
            return [result_frame(None, op="verify", report=outcome.report,
                                 ok=outcome.ok)]
        if op == "size":
            outcome = execute_size(**spec["params"])
            return [result_frame(None, op="size", report=outcome.report,
                                 **outcome.payload)]
        return [error_frame(None, "bad-request",
                            f"op {op!r} not dispatchable")]
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


def _run_analyze(spec: Dict[str, Any],
                 contexts: HotCache) -> List[Dict[str, Any]]:
    request = AnalysisRequest(**spec["request"])
    fault_plan = spec.get("fault")
    context = contexts.get_or_build(
        request.context_key(), lambda: build_context(request))
    with context.lock:
        before = _numeric_snapshot()
        started = time.monotonic()
        outcome = execute_analysis(request, context=context,
                                   fault_plan=fault_plan)
        elapsed = time.monotonic() - started
        delta = _numeric_delta(before)
    fields: Dict[str, Any] = {
        "op": "analyze",
        "report": outcome.report,
        "paths": len(outcome.paths),
        "degraded": outcome.degraded,
        "cached": False,
        "elapsed_s": round(elapsed, 6),
        "metrics": delta,
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
# In-process fallback (--fleet 0)


class ThreadedExecutor:
    """The deterministic in-process executor: ``run_work`` on a thread
    pool against the server's own context cache.  No isolation -- a
    worker segfault is a daemon segfault -- but zero IPC overhead and
    bit-for-bit the PR 9 behavior."""

    def __init__(self, width: int, contexts: HotCache):
        self.width = width
        self._contexts = contexts
        self._pool = ThreadPoolExecutor(
            max_workers=width, thread_name_prefix="repro-service")

    def submit(self, spec: Dict[str, Any], attempt: int = 0) -> Future:
        return self._pool.submit(
            lambda: (run_work(spec, self._contexts), None))

    def preemptible(self) -> bool:
        return False

    def preempt_one(self) -> bool:
        return False

    def stats(self) -> Dict[str, Any]:
        return {"mode": "threaded", "width": self.width}

    def shutdown(self) -> None:
        self._pool.shutdown(wait=False)


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

    def __init__(self, size: int, cache_size: int = 8,
                 retries: int = 2, retry_backoff: float = 0.1):
        self.width = size
        self._pool = WorkerPool(size, partial(_fleet_worker, cache_size),
                                on_event=_count_event, retries=retries,
                                retry_backoff=retry_backoff, name="fleet")

    def submit(self, spec: Dict[str, Any], attempt: int = 0) -> Future:
        return self._pool.submit(spec, attempt,
                                 timeout=spec.get("timeout_s")).future

    def preemptible(self) -> bool:
        return True

    def preempt_one(self) -> bool:
        """Reclaim one worker running a preemptible hog (an uncapped
        ``exhaustive`` request); returns whether a preemption was
        requested."""
        for task in self._pool.running():
            if task.payload.get("hog") and not task.kill_requested:
                self._pool.kill(task)
                return True
        return False

    def stats(self) -> Dict[str, Any]:
        return {
            "mode": "fleet",
            "width": self.width,
            "workers_alive": self._pool.alive(),
            "busy": len(self._pool.running()),
            "crashes": obs.counter("service.worker_crashes").value,
            "retries": obs.counter("service.request_retries").value,
            "preemptions": obs.counter("service.preemptions").value,
        }

    def shutdown(self) -> None:
        self._pool.shutdown()
