"""Supervised search: the driver that refuses to die.

:class:`ShardSupervisor` runs the search of one
:class:`~repro.core.sta.TruePathSTA` session as one shard per origin,
always on that session's circuit and calculator.  With ``jobs == 1`` the
shards run in-process, in origin order, sharing one top-N heap and one
``max_paths`` count: exactly the work of the plain serial search, with
budgets, checkpoints and progress on top.  With ``jobs > 1`` they run on
the supervised worker pool (:mod:`repro.resilience.workers`), one shard
per worker at a time, so every failure is blamed on the shard that
caused it and no other shard is re-run:

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

Pooled workers search the session itself: the pool's init closes over
its ``ec``/``calc``, so forked workers inherit them copy-on-write (a
``spawn`` pool pickles them).  Under ``n_worst`` the pruning bounds and
the worst-arc table are built before the pool starts, so no worker
redoes a sweep.  What a worker can observe of the session beyond that
is memo state (resolved arcs, per-gate arc tuples) whose values are
deterministic per circuit and corner, so a worker forked at any moment
-- the lazy first spawn, or a respawn while the serial fallback fills
memos on this thread -- returns the same answers; only cache hit/miss
counters depend on the moment.

Results are concatenated in origin declaration order, whatever the
completion, retry, or resume order.  Merge semantics under the search
limits:

* ``jobs=1``: the shards share one top-N heap and one ``max_paths``
  count, so the paths, their order and every work counter equal the
  plain serial stream's.
* ``max_paths`` (``jobs > 1``): each pooled shard is capped at
  ``max_paths`` (a single origin can never contribute more), and the
  merged stream is truncated after concatenation -- byte-identical to
  the serial early stop.  The origin holding the last kept path and
  every later origin are tagged ``capped``, which is not a degradation.
* ``n_worst`` (``jobs > 1``): each pooled shard prunes against its
  *own* top-N heap, which is at most as aggressive as the serial shared
  heap, so the merged stream is a superset of the serial one that
  provably contains the true top-N set; callers keep the N worst of the
  merge exactly as they would keep the N worst of a serial run.
* ``budgets``: the wall axis is one deadline per run
  (:meth:`~repro.resilience.budgets.SearchBudgets.started`), shared by
  in-process shards, pooled shards and the serial fallback; a shard
  whose turn comes after it is ``skipped`` without a single extension.
  The extension and backtrack axes apply per shard.

``repro.resilience.__init__`` does not import this module, because it
imports the core search, which itself uses
:mod:`repro.resilience.budgets` and :mod:`repro.resilience.errors`.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.delaycalc import DelayCalculator
from repro.core.engine import EngineCircuit
from repro.core.path import TimedPath
from repro.core.pathfinder import (
    DELTA_KEYS,
    PathFinder,
    SearchStats,
    keep_worst,
)
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

#: Base of the exponential backoff before a crashed pooled shard is
#: resubmitted (``RETRY_BACKOFF * 2**attempt`` seconds).
RETRY_BACKOFF = 0.05

#: One shard's wire format: paths, SearchStats.as_dict(), delaycalc
#: counter deltas, per-origin completeness outcome dicts.
ShardResult = Tuple[
    List[TimedPath], Dict[str, float], Dict[str, int], Dict[str, Dict]
]


def _shard_worker(ec: EngineCircuit, calc: DelayCalculator,
                  finder_kwargs: Dict, fault_plan: object,
                  beats: bool) -> Callable:
    """Pool worker init: return the per-shard handler, which searches
    the parent's session (inherited on fork, unpickled on spawn).  The
    forked worker inherits the parent's tracing switches; the pool's
    shipper absorbs everything recorded before the first shard.  Faults
    fire only here, in workers."""

    def search(origin: str, attempt: int, beat: Callable) -> ShardResult:
        if fault_plan is not None:
            fault_plan.before_shard(origin, attempt)
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
              origins: Sequence[str], progress: object = None,
              best: Optional[List[float]] = None) -> ShardResult:
    """One shard's search, in whatever process this runs in (``best``:
    the shared top-N heap of in-process shards)."""
    finder = PathFinder(ec, calc, progress=progress, best=best,
                        **finder_kwargs)
    with finder.find_paths(inputs=origins) as stream:
        paths = list(stream)
    outcomes = {
        name: outcome.as_dict()
        for name, outcome in finder.completeness.origins.items()
    }
    return paths, finder.stats.as_dict(), finder.calc_deltas, outcomes


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
class AnalysisResult:
    """Anytime analysis product: always a report, always bounded.

    ``paths`` is exact for every ``complete`` origin in
    ``completeness``; each degraded origin carries ``gba_bound`` (once
    :meth:`~repro.core.sta.TruePathSTA.analyze` attached it) -- the GBA
    forward-pass worst endpoint arrival, a sound upper bound on any
    path the search did not reach.
    """

    paths: List[TimedPath]
    stats: SearchStats
    completeness: CompletenessReport
    #: Shards adopted from the resume checkpoint without re-searching.
    resumed_shards: int = 0
    interrupted: bool = False

    @property
    def degraded(self) -> bool:
        return not self.completeness.complete

    def describe_completeness(self) -> str:
        lines = [f"origin completeness: {self.completeness.summary()}"]
        for name, outcome in self.completeness.degraded_origins().items():
            bound = (
                f"GBA bound {outcome.gba_bound * 1e12:.1f} ps"
                if outcome.gba_bound is not None else "no bound"
            )
            lines.append(
                f"  {name}: {outcome.status} "
                f"({outcome.paths_found} paths found, {bound})"
            )
        return "\n".join(lines)


@dataclass
class _Shard:
    """Supervisor-side bookkeeping for one origin."""

    origin: str
    attempts: int = 0
    result: Optional[ShardResult] = None
    status: str = "pending"
    #: Metrics for this shard already landed in the parent registry
    #: (telemetry merge for pooled shards, direct publication for
    #: in-process ones); the merge must not publish them again.
    published: bool = False


class ShardSupervisor:
    """Runs the per-origin shards of one session's search under
    supervision.

    One instance covers one search invocation; :meth:`run` is the only
    entry point.  Every shard -- in-process (``jobs == 1``, the serial
    fallback) or pooled -- searches on the session's ``ec``/``calc``.
    """

    def __init__(
        self,
        ec: EngineCircuit,
        calc: DelayCalculator,
        finder_kwargs: Dict,
        config: SupervisorConfig,
        fault_plan: object = None,
    ):
        self.ec = ec
        self.calc = calc
        self.circuit = ec.circuit
        #: The corner, as the checkpoint fingerprint hashes it.
        self.calc_kwargs = dict(
            temp=calc.temp, vdd=calc.vdd, input_slew=calc.input_slew,
            vector_blind=calc.vector_blind,
            missing_arc_policy=calc.missing_arc_policy,
        )
        self.finder_kwargs = dict(finder_kwargs)
        if self.finder_kwargs.get("budgets") is not None:
            # One wall deadline for the whole run, every shard included.
            self.finder_kwargs["budgets"] = \
                self.finder_kwargs["budgets"].started()
        self.config = config
        self.fault_plan = fault_plan
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
    def run(self, origins: Sequence[str]) -> AnalysisResult:
        shards = [_Shard(origin) for origin in origins]
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
            if self.config.jobs == 1:
                self._run_serial(shards)
            elif pending:
                self._run_pooled(pending)
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
        shard.status = result[3][shard.origin]["status"]
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
    def _run_serial(self, shards: List[_Shard]) -> None:
        """Search the pending shards in-process, in origin order.  They
        share one top-N heap and one ``max_paths`` count, which adopted
        resume shards feed too, so the work is exactly one plain serial
        search's; once the cap is reached no shard is scheduled (the
        merge tags the rest ``capped``)."""
        n_worst = self.finder_kwargs.get("n_worst")
        max_paths = self.finder_kwargs.get("max_paths")
        best: List[float] = []
        found = 0
        for shard in shards:
            if max_paths is not None and found >= max_paths:
                return
            if shard.result is None:
                shard.attempts += 1
                finder_kwargs = self.finder_kwargs
                if max_paths is not None:
                    finder_kwargs = dict(finder_kwargs,
                                         max_paths=max_paths - found)
                self._finish_shard(
                    shard,
                    run_shard(self.ec, self.calc, finder_kwargs,
                              [shard.origin],
                              progress=self._local_progress(shard.origin),
                              best=best))
            elif n_worst is not None:
                for path in shard.result[0]:
                    keep_worst(best, n_worst, path.worst_arrival)
            found += len(shard.result[0])

    def _local_progress(self, origin: str) -> Optional[HeartbeatPublisher]:
        """In-process shards beat straight into the board, no queue."""
        if self._board is None:
            return None
        return HeartbeatPublisher(self._board.update, origin)

    # ------------------------------------------------------------------
    def _run_pooled(self, pending: List[_Shard]) -> None:
        config = self.config
        if self.finder_kwargs.get("n_worst") is not None:
            # Sweep once, here, before any worker forks from this state:
            # the bounds' pass also fills the whole worst-arc table.
            self.calc.prune_bounds()
        # Pool events arrive on the slot threads; they are counted and
        # folded into the board on this thread, like everything else.
        events: "queue.SimpleQueue" = queue.SimpleQueue()
        pool = WorkerPool(
            config.jobs,
            partial(_shard_worker, self.ec, self.calc, self.finder_kwargs,
                    self.fault_plan, self._board is not None),
            on_event=lambda *event: events.put(event),
            retries=config.shard_retries, retry_backoff=RETRY_BACKOFF,
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
            try:
                self._finish_shard(
                    shard,
                    run_shard(self.ec, self.calc, self.finder_kwargs,
                              [shard.origin],
                              progress=self._local_progress(shard.origin)))
            except ResilienceError:
                raise
            except Exception as exc:
                self._fail_shard(shard, f"serial fallback failed: {exc}")
            return
        self._fail_shard(shard, "retries exhausted, serial fallback disabled")

    # ------------------------------------------------------------------
    def _merge(self, shards: List[_Shard], resumed: int,
               interrupted: bool) -> AnalysisResult:
        """Fold shard results in origin declaration order and publish
        the merged totals plus completeness and resilience accounting.
        The stream is truncated at ``max_paths`` like the serial early
        stop; the origin holding the last kept path and every origin
        after it are ``capped``."""
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
        capped = False
        for shard in shards:
            outcome = OriginOutcome(shard.origin, "skipped")
            if shard.result is not None:
                shard_paths, stats_dict, deltas, outcomes = shard.result
                paths.extend(shard_paths)
                merged.merge(stats_dict)
                if not shard.published:
                    unpublished.merge(stats_dict)
                    for key, value in deltas.items():
                        totals[key] = totals.get(key, 0) + value
                outcome = OriginOutcome.from_dict(outcomes[shard.origin])
            capped = capped or (max_paths is not None
                                and len(paths) >= max_paths)
            if capped:
                outcome.status = "capped"
            completeness.origins[shard.origin] = outcome
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
        return AnalysisResult(
            paths=paths,
            stats=merged,
            completeness=completeness,
            resumed_shards=resumed,
            interrupted=interrupted,
        )
