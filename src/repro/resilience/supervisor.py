"""Supervised parallel search: the driver that refuses to die.

:class:`ShardSupervisor` runs one shard per origin on the supervised
worker pool (:mod:`repro.resilience.workers`), one shard per worker at
a time, so every failure is blamed on the shard that caused it and no
other shard is re-run:

* **Worker crashes** are retried by the pool on a respawned worker,
  with exponential backoff (``resilience.worker_crashes``,
  ``resilience.shard_retries``).
* **Shard timeouts** (a wall-clock deadline per attempt, started when a
  worker takes the shard) and **heartbeat stalls** kill only that
  worker; the shard is re-queued (``resilience.shard_timeouts``,
  ``resilience.heartbeat_stalls``).
* **Retry exhaustion**: crashes, timeouts, stalls and worker exceptions
  together get ``shard_retries + 1`` pooled attempts; then the shard
  runs in-process, where worker-environment faults cannot follow.  If
  even that fails, the origin is recorded as ``failed`` and the run
  *continues* (``resilience.serial_fallbacks``,
  ``resilience.degraded_origins``).  Only policy errors from the
  resilience taxonomy (a missing arc under the ``error`` policy) abort
  the run: they are deterministic decisions, not infrastructure faults.
* **SIGINT**: the pool shuts down (workers ignore SIGINT), completed
  shards and their merged metrics are kept, and
  :class:`~repro.resilience.errors.SearchInterrupted` carries the
  partial result out.
* **Checkpoint/resume**: completed origins stream to a JSON snapshot
  (:mod:`repro.resilience.checkpoint`); a resumed run adopts them and
  reproduces the exact path set of an uninterrupted run.

The merge stays byte-identical to the serial search: results are
concatenated in origin declaration order, whatever the completion,
retry, or resume order.  This module is imported lazily
(``repro.resilience.__init__`` does not pull it in) because it imports
the core search, which itself uses :mod:`repro.resilience.budgets` and
:mod:`repro.resilience.errors`.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DelayCalculator
from repro.core.engine import EngineCircuit
from repro.core.path import TimedPath
from repro.core.pathfinder import PathFinder, SearchStats
from repro.netlist.circuit import Circuit
from repro.obs import export as obs_export
from repro.obs import metrics as obs_metrics
from repro.obs.aggregate import (
    ShardTelemetry,
    merge_shard_telemetry,
    record_resource_usage,
)
from repro.obs.logging import get_logger
from repro.obs.progress import (
    HeartbeatPublisher,
    ProgressBoard,
    ProgressRenderer,
)
from repro.resilience.budgets import CompletenessReport, OriginOutcome
from repro.resilience.checkpoint import (
    CheckpointWriter,
    config_fingerprint,
    load_checkpoint,
)
from repro.resilience.errors import ResilienceError, SearchInterrupted
from repro.resilience.workers import Task, WorkerPool

_log = get_logger("repro.resilience")

#: Supervision loop poll period (seconds): how often heartbeat ages are
#: checked while waiting on in-flight shards.
_POLL_SECONDS = 0.05

#: One shard's wire format: paths, SearchStats.as_dict(), delaycalc
#: counter deltas, per-origin completeness outcome dicts.
ShardResult = Tuple[
    List[TimedPath], Dict[str, float], Dict[str, int], Dict[str, Dict]
]

#: The delaycalc counters folded across shards into the parent registry.
DELTA_KEYS = (
    "delaycalc.arc_evaluations",
    "delaycalc.arc_cache_hits",
    "delaycalc.arc_cache_misses",
    "delaycalc.arc_substitutions",
)


def _shard_worker(circuit: Circuit, charlib: CharacterizedLibrary,
                  calc_kwargs: Dict, finder_kwargs: Dict,
                  fault_plan: object, beats: bool,
                  compiled_tables: object = None) -> Callable:
    """Pool worker init: build this worker's search context once and
    return the per-shard handler.  The forked worker inherits the
    parent's tracing switches; the pool's shipper absorbs everything
    recorded before the first shard."""
    ec = EngineCircuit(circuit)
    # The parent's compiled timing tables (slew fixed point, worst-arc
    # delays, pruning bounds) are derived purely from circuit + corner:
    # seeding them gives byte-identical values without redoing the
    # sweeps once per worker process.
    calc = DelayCalculator(ec, charlib, compiled=compiled_tables,
                           **calc_kwargs)

    def search(origin: str, attempt: int, beat: Callable) -> ShardResult:
        if fault_plan is not None:
            fault_plan.before_shard(origin, attempt, in_worker=True)
        publisher = HeartbeatPublisher(beat, origin) if beats else None
        if publisher is not None:
            publisher.started()
        result = run_shard(ec, calc, finder_kwargs, [origin],
                           progress=publisher)
        record_resource_usage()
        if publisher is not None:
            paths, stats = result[0], result[1]
            publisher.done(
                extensions=int(stats.get("extensions_tried", 0)),
                paths=len(paths),
                best=max((p.worst_arrival for p in paths), default=None),
            )
        return result

    return search


def run_shard(ec: EngineCircuit, calc: DelayCalculator, finder_kwargs: Dict,
              origins: Sequence[str],
              progress: object = None) -> ShardResult:
    """One shard's search, in whatever process this runs in."""
    before = (calc.arc_evaluations, calc.arc_cache_hits,
              calc.arc_cache_misses, calc.arc_substitutions)
    finder = PathFinder(ec, calc, progress=progress, **finder_kwargs)
    with finder.find_paths(inputs=origins) as stream:
        paths = list(stream)
    deltas = {
        "delaycalc.arc_evaluations": calc.arc_evaluations - before[0],
        "delaycalc.arc_cache_hits": calc.arc_cache_hits - before[1],
        "delaycalc.arc_cache_misses": calc.arc_cache_misses - before[2],
        "delaycalc.arc_substitutions": calc.arc_substitutions - before[3],
    }
    outcomes = {
        name: outcome.as_dict()
        for name, outcome in finder.completeness.origins.items()
    }
    return paths, finder.stats.as_dict(), deltas, outcomes


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy knobs (all have production-safe defaults)."""

    jobs: int = 1
    #: Wall-clock deadline per pooled shard *attempt* (None = no
    #: deadline).  Guards against hung workers; a shard that merely
    #: runs long is retried and ultimately completed by the serial
    #: fallback, so results never change -- only placement does.
    shard_timeout: Optional[float] = None
    #: Re-queue attempts per shard beyond the first try.
    shard_retries: int = 2
    #: Base of the exponential backoff before a retry is resubmitted
    #: (``backoff * 2**attempt`` seconds; 0 disables sleeping).
    retry_backoff: float = 0.05
    #: Run a shard in-process after its retries are exhausted.
    serial_fallback: bool = True
    checkpoint_path: Optional[str] = None
    resume_path: Optional[str] = None
    #: Render a throttled live progress line (origins done/total,
    #: extensions, best bound, ETA) on stderr.
    progress: bool = False
    #: Treat a pooled shard whose *heartbeat* goes silent this long as
    #: hung (worker kill + retry, like a deadline expiry) -- unlike
    #: ``shard_timeout`` this distinguishes a stalled shard from a
    #: merely slow one, which keeps beating.  None disables.
    heartbeat_timeout: Optional[float] = None


@dataclass
class SupervisedResult:
    """Merged outcome of one supervised run."""

    paths: List[TimedPath]
    stats: SearchStats
    completeness: CompletenessReport
    #: Shards adopted from the resume checkpoint without re-searching.
    resumed_shards: int = 0
    interrupted: bool = False

    @property
    def degraded(self) -> bool:
        return not self.completeness.complete


@dataclass
class _Shard:
    """Supervisor-side bookkeeping for one origin."""

    index: int
    origin: str
    attempts: int = 0
    result: Optional[ShardResult] = None
    status: str = "pending"
    #: Metrics for this shard already landed in the parent registry
    #: (telemetry merge for pooled shards, direct publication for
    #: in-process ones); the merge must not publish them again.
    published: bool = False


class ShardSupervisor:
    """Runs the per-origin shards of one search under supervision.

    One instance covers one search invocation; :meth:`run` is the only
    entry point.  ``jobs == 1`` runs every shard in-process (no pool)
    through the identical bookkeeping/merge/checkpoint code, which is
    the reference for the equivalence tests.
    """

    def __init__(
        self,
        circuit: Circuit,
        charlib: CharacterizedLibrary,
        calc_kwargs: Dict,
        finder_kwargs: Dict,
        config: SupervisorConfig,
        fault_plan: object = None,
    ):
        self.circuit = circuit
        self.charlib = charlib
        self.calc_kwargs = dict(calc_kwargs)
        self.finder_kwargs = dict(finder_kwargs)
        self.config = config
        self.fault_plan = fault_plan
        #: Parent-computed :class:`~repro.core.tarrays.CompiledTables`
        #: shipped to every worker (and any in-process fallback
        #: calculator).  Deliberately not part of ``calc_kwargs``: it is
        #: derived state, excluded from the checkpoint fingerprint.
        self.compiled_tables = None
        self._ec: Optional[EngineCircuit] = None
        self._calc: Optional[DelayCalculator] = None
        self._completed_count = 0
        self._writer: Optional[CheckpointWriter] = None
        self._board: Optional[ProgressBoard] = None
        self.metrics = {
            "worker_crashes": 0,
            "shard_timeouts": 0,
            "heartbeat_stalls": 0,
            "shard_retries": 0,
            "serial_fallbacks": 0,
        }

    # ------------------------------------------------------------------
    def _in_process_context(self) -> Tuple[EngineCircuit, DelayCalculator]:
        """Lazy parent-process search context (serial mode, fallbacks)."""
        if self._ec is None:
            self._ec = EngineCircuit(self.circuit)
            self._calc = DelayCalculator(self._ec, self.charlib,
                                         compiled=self.compiled_tables,
                                         **self.calc_kwargs)
        return self._ec, self._calc

    def attach_parent_context(self, ec: EngineCircuit,
                              calc: DelayCalculator) -> None:
        """Reuse an already-built circuit/calculator (the parallel
        driver builds one to precompute pruning bounds)."""
        self._ec, self._calc = ec, calc

    # ------------------------------------------------------------------
    def run(self, origins: Sequence[str]) -> SupervisedResult:
        shards = [_Shard(index, origin)
                  for index, origin in enumerate(origins)]
        if self.config.progress or self.config.heartbeat_timeout is not None:
            renderer = ProgressRenderer() if self.config.progress else None
            self._board = ProgressBoard(len(shards), renderer=renderer)
        fingerprint = config_fingerprint(
            self.circuit.name, list(origins),
            {**self.finder_kwargs, **self.calc_kwargs,
             "budgets": self._budget_dict()},
        )
        resumed = self._adopt_resume(shards, fingerprint)
        if self.config.checkpoint_path:
            self._writer = CheckpointWriter(
                self.config.checkpoint_path, self.circuit.name, fingerprint,
            )
        for shard in shards:
            if shard.result is not None:  # adopted from the resume
                # Carry it forward so a later resume of the new
                # checkpoint still covers it.
                self._record_checkpoint(shard)
                if self._board is not None:
                    self._board.mark_done(shard.origin,
                                          paths=len(shard.result[0]))
        pending = [s for s in shards if s.result is None]
        interrupted = False
        try:
            if pending:
                if self.config.jobs > 1:
                    self._run_pooled(pending)
                else:
                    self._run_serial(pending)
        except KeyboardInterrupt:
            interrupted = True
        finally:
            if self._board is not None:
                self._board.close()

        result = self._merge(shards, resumed, interrupted)
        if interrupted:
            exc = SearchInterrupted(
                f"search interrupted after {self._completed_count} "
                "completed shard(s); merged partial results preserved"
                + (f" in checkpoint {self.config.checkpoint_path}"
                   if self.config.checkpoint_path else "")
            )
            exc.partial = result
            raise exc
        return result

    def _budget_dict(self) -> Optional[Dict]:
        budgets = self.finder_kwargs.get("budgets")
        return budgets.as_dict() if budgets is not None else None

    # ------------------------------------------------------------------
    def _adopt_resume(self, shards: List[_Shard], fingerprint: str) -> int:
        if not self.config.resume_path:
            return 0
        checkpoint = load_checkpoint(self.config.resume_path, fingerprint)
        adopted = 0
        by_origin = {s.origin: s for s in shards}
        for origin in checkpoint.completed_origins():
            shard = by_origin.get(origin)
            if shard is None:
                continue
            status, paths, stats, deltas = checkpoint.shard_result(origin)
            outcome = OriginOutcome(origin, status,
                                    paths_found=len(paths)).as_dict()
            shard.result = (paths, stats, deltas, {origin: outcome})
            shard.status = status
            adopted += 1
        _log.info("supervisor.resumed", path=self.config.resume_path,
                  adopted=adopted, total=len(shards))
        return adopted

    def _record_checkpoint(self, shard: _Shard) -> None:
        if self._writer is None or shard.result is None:
            return
        paths, stats, deltas, outcomes = shard.result
        self._writer.record(shard.origin, shard.status, paths, stats, deltas)
        obs_export.instant("resilience.checkpoint_write",
                           origin=shard.origin, status=shard.status)

    # ------------------------------------------------------------------
    def _finish_shard(self, shard: _Shard, result: ShardResult,
                      telemetry: Optional[ShardTelemetry] = None) -> None:
        """Record a searched shard.  Its metrics reach this registry
        exactly once: an in-process search published them at stream
        close, a pooled shard's telemetry merges here (counters add,
        histograms merge, gauges keep a shard label, trace events land
        on the worker's lane)."""
        shard.result = result
        shard.published = True
        if telemetry is not None:
            merge_shard_telemetry(telemetry)
        elif self._board is not None:
            self._board.mark_done(
                shard.origin, paths=len(result[0]),
                extensions=int(result[1].get("extensions_tried", 0)),
            )
        outcome = result[3].get(shard.origin)
        shard.status = outcome["status"] if outcome else "complete"
        self._completed_count += 1
        self._record_checkpoint(shard)
        if (self.fault_plan is not None
                and getattr(self.fault_plan, "interrupt_after", None)
                is not None
                and self._completed_count >= self.fault_plan.interrupt_after):
            # Deterministic SIGINT simulation for the fault harness:
            # exercises the exact KeyboardInterrupt unwind path.
            raise KeyboardInterrupt

    def _fail_shard(self, shard: _Shard, reason: str) -> None:
        """Retries and fallback exhausted: degrade, don't die."""
        shard.status = "failed"
        shard.result = (
            [], SearchStats().as_dict(), {key: 0 for key in DELTA_KEYS},
            {shard.origin: OriginOutcome(shard.origin, "failed").as_dict()},
        )
        self._completed_count += 1
        if self._board is not None:
            self._board.mark_done(shard.origin)
        self._record_checkpoint(shard)
        _log.error("supervisor.shard_failed", origin=shard.origin,
                   attempts=shard.attempts, reason=reason)

    # ------------------------------------------------------------------
    def _run_serial(self, pending: List[_Shard]) -> None:
        ec, calc = self._in_process_context()
        for shard in pending:
            if self.fault_plan is not None:
                self.fault_plan.before_shard(shard.origin, shard.attempts,
                                             in_worker=False)
            shard.attempts += 1
            self._finish_shard(
                shard,
                run_shard(ec, calc, self.finder_kwargs, [shard.origin],
                          progress=self._local_progress(shard.origin)))

    def _local_progress(self, origin: str) -> Optional[HeartbeatPublisher]:
        """In-process shards beat straight into the board, no queue."""
        if self._board is None:
            return None
        return HeartbeatPublisher(self._board.update, origin)

    # ------------------------------------------------------------------
    def _run_pooled(self, pending: List[_Shard]) -> None:
        config = self.config
        # Pool events arrive on the slot threads; they are counted and
        # folded into the board on this thread, like everything else.
        events: "queue.SimpleQueue" = queue.SimpleQueue()
        pool = WorkerPool(
            config.jobs,
            partial(_shard_worker, self.circuit, self.charlib,
                    self.calc_kwargs, self.finder_kwargs, self.fault_plan,
                    self._board is not None, self.compiled_tables),
            on_event=lambda *event: events.put(event),
            retries=config.shard_retries, retry_backoff=config.retry_backoff,
            name="shard",
        )
        in_flight: Dict[Future, Tuple[_Shard, Task]] = {}

        def submit(shard: _Shard) -> None:
            # The pool's crash retries draw on the same budget as the
            # resubmissions below: shard_retries + 1 attempts in total.
            task = pool.submit(shard.origin, shard.attempts,
                               timeout=config.shard_timeout,
                               retries=config.shard_retries - shard.attempts,
                               label=shard.origin)
            in_flight[task.future] = (shard, task)

        try:
            for shard in pending:
                submit(shard)
            while in_flight:
                done, _ = wait(list(in_flight), timeout=_POLL_SECONDS,
                               return_when=FIRST_COMPLETED)
                self._drain_events(events)
                for future in done:
                    shard, task = in_flight.pop(future)
                    shard.attempts = task.attempt + 1
                    try:
                        result, telemetry = future.result()
                    except ResilienceError:
                        # Policy decision (missing arc under `error`,
                        # checkpoint mismatch...): deterministic, so a
                        # retry cannot help -- propagate.
                        raise
                    except Exception as exc:
                        _log.warning("supervisor.shard_error",
                                     origin=shard.origin,
                                     attempt=shard.attempts, error=str(exc))
                        self._retry_or_fallback(shard, submit)
                    else:
                        self._finish_shard(shard, result,
                                           telemetry=telemetry)
                if config.heartbeat_timeout is not None:
                    self._kill_stalled(pool, in_flight.values())
        finally:
            pool.shutdown()
            self._drain_events(events)

    def _drain_events(self, events: "queue.SimpleQueue") -> None:
        while not events.empty():
            kind, task, detail = events.get()
            if kind == "beat":
                self._board.update(detail)
            elif kind == "crashed":
                self.metrics["worker_crashes"] += 1
                obs_export.instant("resilience.worker_crash",
                                   origins=task.payload)
            elif kind == "retry":
                self._count_retry(task.payload, task.attempt)
            elif kind == "timeout":
                self.metrics["shard_timeouts"] += 1
                obs_export.instant("resilience.shard_timeout",
                                   origin=task.payload,
                                   attempt=task.attempt + 1)

    def _kill_stalled(self, pool: WorkerPool, running) -> None:
        """Kill every running shard whose beats went silent for
        ``heartbeat_timeout`` (a slow shard keeps beating)."""
        now = time.monotonic()
        for _shard, task in running:
            started = task.started_at  # None while not on a worker
            if started is None or task.kill_requested:
                continue
            # A beat from an earlier attempt must not mask a silent
            # retry: the attempt's own start bounds the age.
            age = now - started
            beat_age = self._board.beat_age(task.payload)
            if beat_age is not None:
                age = min(age, beat_age)
            if age > self.config.heartbeat_timeout:
                pool.kill(task)
                self.metrics["heartbeat_stalls"] += 1
                obs_export.instant("resilience.heartbeat_stall",
                                   origin=task.payload, silent_s=round(age, 3))

    def _count_retry(self, origin: str, attempt: int) -> None:
        self.metrics["shard_retries"] += 1
        obs_export.instant("resilience.shard_retry", origin=origin,
                           attempt=attempt)

    def _retry_or_fallback(self, shard: _Shard,
                           submit: Callable[[_Shard], None]) -> None:
        """Resubmit a failed attempt while the retry budget lasts, else
        exhaust into the serial fallback."""
        if shard.attempts <= self.config.shard_retries:
            self._count_retry(shard.origin, shard.attempts)
            submit(shard)
            return
        if self.config.serial_fallback:
            self.metrics["serial_fallbacks"] += 1
            obs_export.instant("resilience.serial_fallback",
                               origin=shard.origin, attempts=shard.attempts)
            _log.warning("supervisor.serial_fallback", origin=shard.origin,
                         attempts=shard.attempts)
            ec, calc = self._in_process_context()
            try:
                self._finish_shard(
                    shard,
                    run_shard(ec, calc, self.finder_kwargs, [shard.origin],
                              progress=self._local_progress(shard.origin)))
            except ResilienceError:
                raise
            except Exception as exc:
                self._fail_shard(shard, f"serial fallback failed: {exc}")
            return
        self._fail_shard(shard, "retries exhausted, serial fallback disabled")

    # ------------------------------------------------------------------
    def _merge(self, shards: List[_Shard], resumed: int,
               interrupted: bool) -> SupervisedResult:
        """Fold shard results in origin declaration order and publish
        the merged totals plus completeness and resilience accounting."""
        max_paths = self.finder_kwargs.get("max_paths")
        paths: List[TimedPath] = []
        merged = SearchStats()
        # Shards whose metrics never reached this registry -- adopted
        # from a resume checkpoint, or recorded as failed -- are
        # published here from their checkpointed stats/deltas; pooled
        # (telemetry) and in-process (stream close) shards already were.
        unpublished = SearchStats()
        totals: Dict[str, int] = {key: 0 for key in DELTA_KEYS}
        completeness = CompletenessReport()
        for shard in shards:
            if shard.result is None:
                completeness.origins[shard.origin] = OriginOutcome(
                    shard.origin, "skipped"
                )
                continue
            shard_paths, stats_dict, deltas, outcomes = shard.result
            if max_paths is None or len(paths) < max_paths:
                paths.extend(shard_paths)
            merged.merge(stats_dict)
            if not shard.published:
                unpublished.merge(stats_dict)
                for key, value in deltas.items():
                    totals[key] = totals.get(key, 0) + value
            for name, outcome in outcomes.items():
                completeness.origins[name] = OriginOutcome.from_dict(outcome)
        if max_paths is not None:
            del paths[max_paths:]

        name = self.circuit.name
        unpublished.publish(name)
        registry = obs_metrics.REGISTRY
        for key in DELTA_KEYS:
            value = totals.get(key, 0)
            registry.counter(key).inc(value)
            registry.counter(key, circuit=name).inc(value)
        for key, value in self.metrics.items():
            registry.counter(f"resilience.{key}").inc(value)
        degraded = len(completeness.degraded_origins())
        registry.counter("resilience.degraded_origins").inc(degraded)
        if resumed:
            registry.counter("resilience.resumed_shards").inc(resumed)
        _log.debug("supervisor.done", circuit=name, shards=len(shards),
                   paths=len(paths), degraded=degraded, resumed=resumed,
                   interrupted=interrupted, **self.metrics)
        return SupervisedResult(
            paths=paths,
            stats=merged,
            completeness=completeness,
            resumed_shards=resumed,
            interrupted=interrupted,
        )
