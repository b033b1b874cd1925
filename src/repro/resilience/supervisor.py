"""Supervised parallel search: the driver that refuses to die.

The plain process-pool driver (PR 2) is all-or-nothing: one crashed
worker poisons the whole pool, one hung shard stalls the run forever,
and SIGINT unwinds through a child-process traceback storm with every
completed shard's work lost.  :class:`ShardSupervisor` wraps the same
shard/merge pipeline in a supervision loop:

* **Worker crashes** (``BrokenProcessPool``): the pool is rebuilt and
  every in-flight shard is re-queued.  A dead worker poisons all
  in-flight futures identically, so with several shards in flight the
  crasher cannot be identified; the casualties are then refunded and
  quarantined to run one at a time until a solo crash assigns blame.
  Only unambiguous crashes charge the bounded retry budget, with
  exponential backoff (``resilience.worker_crashes`` /
  ``resilience.shard_retries``).
* **Shard timeouts**: each pooled shard attempt carries a wall-clock
  deadline; an expired shard's pool is torn down (hung worker processes
  are terminated) and the shard re-queued
  (``resilience.shard_timeouts``).
* **Retry exhaustion**: the shard falls back to an in-process serial
  run -- worker-environment faults cannot follow it there.  If even
  that fails, the origin is recorded as ``failed`` with zero paths and
  the run *continues* (``resilience.serial_fallbacks``,
  ``resilience.degraded_origins``); only policy errors from the
  resilience taxonomy (e.g. a missing arc under the ``error`` policy)
  abort the run, because they are deterministic decisions, not
  infrastructure failures.
* **SIGINT**: the pool is shut down cleanly (workers ignore SIGINT, so
  there is no child traceback storm), completed-shard results and
  merged metrics are preserved, the checkpoint is flushed, and
  :class:`~repro.resilience.errors.SearchInterrupted` carries the
  partial result out.
* **Checkpoint/resume**: completed origins stream to a JSON snapshot
  (:mod:`repro.resilience.checkpoint`); a resumed run adopts them
  without re-searching and reproduces the exact path set of an
  uninterrupted run.

The merge stays byte-identical to the serial search: results are
collected per origin *index* and concatenated in declaration order, no
matter the completion, retry, or resume order.

This module is imported lazily (``repro.resilience.__init__`` does not
pull it in) because it imports the core search -- which itself uses the
leaf modules :mod:`repro.resilience.budgets` and
:mod:`repro.resilience.errors`.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DelayCalculator
from repro.core.engine import EngineCircuit
from repro.core.path import TimedPath
from repro.core.pathfinder import PathFinder, SearchStats
from repro.netlist.circuit import Circuit
from repro.obs import export as obs_export
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.aggregate import (
    RegistryShipper,
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

_log = get_logger("repro.resilience")

#: Supervision loop poll period (seconds): how often deadlines are
#: checked while waiting on in-flight shards.
_POLL_SECONDS = 0.05

#: Per-process worker context, set by the pool initializer.
_WORKER: Optional[Tuple] = None

#: One shard's wire format: paths, SearchStats.as_dict(), delaycalc
#: counter deltas, per-origin completeness outcome dicts.
ShardResult = Tuple[
    List[TimedPath], Dict[str, float], Dict[str, int], Dict[str, Dict]
]

#: What a pooled shard ships home: the result plus the worker's
#: registry/span delta (:mod:`repro.obs.aggregate`).
ShardShipment = Tuple[ShardResult, ShardTelemetry]

#: The delaycalc counters folded across shards into the parent registry.
DELTA_KEYS = (
    "delaycalc.arc_evaluations",
    "delaycalc.arc_cache_hits",
    "delaycalc.arc_cache_misses",
    "delaycalc.arc_substitutions",
)


def _init_worker(circuit: Circuit, charlib: CharacterizedLibrary,
                 calc_kwargs: Dict, finder_kwargs: Dict,
                 fault_plan: object, obs_config: Dict,
                 beat_queue: object, compiled_tables: object = None) -> None:
    # Workers ignore SIGINT: the parent owns interruption, so a Ctrl-C
    # does not spray one KeyboardInterrupt traceback per child.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Mirror the parent's observability switches (a fork inherits them,
    # a spawn does not) and start this worker's telemetry shipper from
    # a clean slate: whatever the registry holds now predates the first
    # shard and must not ship.
    if obs_config.get("tracing"):
        obs_tracing.enable()
    if obs_config.get("events"):
        obs_tracing.capture_events()
        obs_tracing.drain_events()
    global _WORKER
    ec = EngineCircuit(circuit)
    # The parent's compiled timing tables (slew fixed point, worst-arc
    # delays, pruning bounds) are derived purely from circuit + corner:
    # seeding them gives byte-identical values without redoing the
    # sweeps once per worker process.
    calc = DelayCalculator(ec, charlib, compiled=compiled_tables,
                           **calc_kwargs)
    shipper = RegistryShipper()
    shipper.collect("__init__")  # absorb pre-shard registry state
    _WORKER = (ec, calc, finder_kwargs, fault_plan, shipper, beat_queue)


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


def _search_shard(origin: str, attempt: int) -> ShardShipment:
    ec, calc, finder_kwargs, fault_plan, shipper, beat_queue = _WORKER
    if fault_plan is not None:
        fault_plan.before_shard(origin, attempt, in_worker=True)
    publisher = (HeartbeatPublisher(beat_queue, origin)
                 if beat_queue is not None else None)
    if publisher is not None:
        publisher.started()
    try:
        result = run_shard(ec, calc, finder_kwargs, [origin],
                           progress=publisher)
    except Exception:
        # A failed attempt will be retried elsewhere; absorb whatever
        # the aborted search already recorded into the shipper baseline
        # so the *next* shard on this worker does not ship it.
        shipper.collect(origin)
        raise
    record_resource_usage()
    telemetry = shipper.collect(origin)
    if publisher is not None:
        stats = result[1]
        paths = result[0]
        publisher.done(
            extensions=int(stats.get("extensions_tried", 0)),
            paths=len(paths),
            best=max((p.worst_arrival for p in paths), default=None),
        )
    return result, telemetry


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
    checkpoint_flush_every: int = 1
    #: Render a throttled live progress line (origins done/total,
    #: extensions, best bound, ETA) on stderr.
    progress: bool = False
    #: Treat a pooled shard whose *heartbeat* goes silent this long as
    #: hung (pool teardown + retry, like a deadline expiry) -- unlike
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


@dataclass(eq=False)  # identity semantics: shards live in sets/dicts
class _Shard:
    """Supervisor-side bookkeeping for one origin."""

    index: int
    origin: str
    attempts: int = 0
    result: Optional[ShardResult] = None
    status: str = "pending"
    deadline: Optional[float] = None
    submitted_at: Optional[float] = None
    fallback_error: Optional[str] = None
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
        self._beat_queue = None  # manager-queue proxy (pooled + board)
        # Shards caught in a pool break whose blame was ambiguous; run
        # one at a time until the crasher identifies itself solo.
        self._suspects: set = set()
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
                flush_every=self.config.checkpoint_flush_every,
            )
            # Carry adopted shards forward so a later resume of the new
            # checkpoint still covers them.
            for shard in shards:
                if shard.result is not None:
                    self._record_checkpoint(shard)

        if self._board is not None:
            for shard in shards:
                if shard.result is not None:  # adopted from the resume
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
            if self._writer is not None:
                self._writer.flush()
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
                      telemetry: Optional[ShardTelemetry] = None,
                      in_process: bool = False) -> None:
        self._suspects.discard(shard)
        shard.result = result
        if telemetry is not None:
            # Pooled shard: fold the worker's registry/span delta into
            # this process's registry (counters add, histograms merge,
            # gauges keep a shard label, trace events land on the
            # worker's lane).
            merge_shard_telemetry(telemetry)
            shard.published = True
        elif in_process:
            # The in-process search already published straight into
            # this registry at stream close.
            shard.published = True
        outcome = result[3].get(shard.origin)
        shard.status = outcome["status"] if outcome else "complete"
        self._completed_count += 1
        if self._board is not None and telemetry is None:
            self._board.mark_done(
                shard.origin, paths=len(result[0]),
                extensions=int(result[1].get("extensions_tried", 0)),
            )
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
        shard.fallback_error = reason
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
                          progress=self._local_progress(shard.origin)),
                in_process=True,
            )

    def _local_progress(self, origin: str) -> Optional[HeartbeatPublisher]:
        """In-process shards beat straight into the board, no queue."""
        if self._board is None:
            return None
        return HeartbeatPublisher(self._board.update, origin)

    # ------------------------------------------------------------------
    def _make_pool(self) -> ProcessPoolExecutor:
        obs_config = {
            "tracing": obs_tracing.enabled(),
            "events": obs_tracing.events_enabled(),
        }
        return ProcessPoolExecutor(
            max_workers=self.config.jobs,
            initializer=_init_worker,
            initargs=(self.circuit, self.charlib, self.calc_kwargs,
                      self.finder_kwargs, self.fault_plan, obs_config,
                      self._beat_queue, self.compiled_tables),
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting on hung workers."""
        pool.shutdown(wait=False, cancel_futures=True)
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.terminate()
            except Exception:
                pass

    def _run_pooled(self, pending: List[_Shard]) -> None:
        config = self.config
        queue: Deque[_Shard] = deque(pending)
        in_flight: Dict[Future, _Shard] = {}
        retry_at: List[Tuple[float, _Shard]] = []
        manager = None
        if self._board is not None:
            import multiprocessing

            manager = multiprocessing.Manager()
            self._beat_queue = manager.Queue()
        pool = self._make_pool()
        try:
            while queue or in_flight or retry_at:
                now = time.monotonic()
                # Promote retries whose backoff has elapsed.
                due = [entry for entry in retry_at if entry[0] <= now]
                for entry in due:
                    retry_at.remove(entry)
                    queue.append(entry[1])
                submit_broken = False
                while queue and len(in_flight) < config.jobs:
                    if self._suspects:
                        # Quarantine: blame for the last pool break was
                        # ambiguous, so suspects run strictly alone --
                        # the next break identifies the crasher.
                        if in_flight:
                            break
                        idx = next((i for i, s in enumerate(queue)
                                    if s in self._suspects), None)
                        if idx is None:
                            break
                        shard = queue[idx]
                        del queue[idx]
                    else:
                        shard = queue.popleft()
                    try:
                        future = pool.submit(_search_shard, shard.origin,
                                             shard.attempts)
                    except BrokenProcessPool:
                        # The executor noticed a dead worker after the
                        # last wait().  This shard never ran: it goes
                        # back uncharged, and the break is handled
                        # below exactly like a result-time one.
                        queue.appendleft(shard)
                        submit_broken = True
                        break
                    shard.attempts += 1
                    shard.submitted_at = time.monotonic()
                    shard.deadline = (
                        shard.submitted_at + config.shard_timeout
                        if config.shard_timeout is not None else None
                    )
                    if self._board is not None:
                        # A stale beat from a previous attempt must not
                        # mask a silent retry.
                        self._board.last_beat.pop(shard.origin, None)
                    in_flight[future] = shard
                if not in_flight and not submit_broken:
                    # Only backed-off retries remain: sleep to the next.
                    if retry_at:
                        time.sleep(
                            max(0.0, min(t for t, _ in retry_at)
                                - time.monotonic())
                        )
                    continue
                # After a submit-time break, harvest only what already
                # finished; everything still in flight is a casualty.
                done, _ = wait(list(in_flight),
                               timeout=0 if submit_broken else _POLL_SECONDS,
                               return_when=FIRST_COMPLETED)
                self._drain_beats()
                pool_broken = submit_broken
                broken: List[_Shard] = []
                for future in done:
                    shard = in_flight.pop(future)
                    try:
                        result, telemetry = future.result()
                    except BrokenProcessPool:
                        broken.append(shard)
                        pool_broken = True
                    except ResilienceError:
                        # Policy decision (missing arc under `error`,
                        # checkpoint mismatch...): deterministic, so a
                        # retry cannot help -- propagate.
                        raise
                    except Exception as exc:  # worker raised: retry
                        _log.warning("supervisor.shard_error",
                                     origin=shard.origin,
                                     attempt=shard.attempts, error=str(exc))
                        self._requeue(shard, queue, retry_at)
                    else:
                        self._finish_shard(shard, result,
                                           telemetry=telemetry)
                if pool_broken:
                    # A dead worker poisons every in-flight future with
                    # the same BrokenProcessPool, so the executor cannot
                    # say which shard crashed.  Charge the retry budget
                    # only when blame is unambiguous (a single shard was
                    # in flight); otherwise refund all casualties and
                    # quarantine them to run one at a time.
                    casualties = broken + list(in_flight.values())
                    in_flight.clear()
                    self.metrics["worker_crashes"] += 1
                    obs_export.instant(
                        "resilience.worker_crash",
                        origins=",".join(s.origin for s in casualties))
                    _log.warning(
                        "supervisor.worker_crash",
                        origins=",".join(s.origin for s in casualties))
                    if len(casualties) == 1:
                        self._requeue(casualties[0], queue, retry_at)
                    else:
                        for shard in casualties:
                            shard.attempts -= 1  # blame unproven
                            self._suspects.add(shard)
                            queue.append(shard)
                    self._kill_pool(pool)
                    pool = self._make_pool()
                    continue
                # Deadline sweep: a hung worker cannot be cancelled, so
                # the whole pool is torn down and survivors re-queued.
                now = time.monotonic()
                expired = [
                    (future, shard) for future, shard in in_flight.items()
                    if shard.deadline is not None and now > shard.deadline
                ]
                for _future, shard in expired:
                    self.metrics["shard_timeouts"] += 1
                    obs_export.instant("resilience.shard_timeout",
                                       origin=shard.origin,
                                       attempt=shard.attempts)
                    _log.warning("supervisor.shard_timeout",
                                 origin=shard.origin,
                                 attempt=shard.attempts,
                                 timeout=config.shard_timeout)
                # Heartbeat sweep: a shard whose beats went silent is
                # stalled (a slow one keeps beating); same teardown.
                if (config.heartbeat_timeout is not None
                        and self._board is not None):
                    flagged = {shard for _f, shard in expired}
                    for future, shard in in_flight.items():
                        if shard in flagged:
                            continue
                        age = self._board.beat_age(shard.origin)
                        if age is None and shard.submitted_at is not None:
                            age = now - shard.submitted_at
                        if age is not None and age > config.heartbeat_timeout:
                            expired.append((future, shard))
                            self.metrics["heartbeat_stalls"] += 1
                            obs_export.instant(
                                "resilience.heartbeat_stall",
                                origin=shard.origin, silent_s=round(age, 3))
                            _log.warning("supervisor.heartbeat_stall",
                                         origin=shard.origin,
                                         attempt=shard.attempts,
                                         silent_s=age)
                if expired:
                    expired_shards = {shard for _f, shard in expired}
                    for future, shard in list(in_flight.items()):
                        if shard in expired_shards:
                            self._requeue(shard, queue, retry_at)
                        else:
                            shard.attempts -= 1  # innocent casualty
                            queue.append(shard)
                    in_flight.clear()
                    self._kill_pool(pool)
                    pool = self._make_pool()
        except KeyboardInterrupt:
            self._kill_pool(pool)
            raise
        else:
            pool.shutdown()
        finally:
            self._drain_beats()
            if manager is not None:
                self._beat_queue = None
                manager.shutdown()

    def _drain_beats(self) -> None:
        if self._beat_queue is None or self._board is None:
            return
        while True:
            try:
                beat = self._beat_queue.get_nowait()
            except Exception:  # queue.Empty, or a torn-down manager
                break
            self._board.update(beat)

    def _requeue(self, shard: _Shard, queue: Deque[_Shard],
                 retry_at: List[Tuple[float, _Shard]]) -> None:
        """Schedule a failed attempt for retry, or exhaust into the
        serial fallback."""
        self._suspects.discard(shard)  # blame assigned: quarantine over
        if shard.attempts <= self.config.shard_retries:
            self.metrics["shard_retries"] += 1
            obs_export.instant("resilience.shard_retry",
                               origin=shard.origin, attempt=shard.attempts)
            backoff = self.config.retry_backoff * (2 ** (shard.attempts - 1))
            if backoff > 0:
                retry_at.append((time.monotonic() + backoff, shard))
            else:
                queue.append(shard)
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
                              progress=self._local_progress(shard.origin)),
                    in_process=True,
                )
            except KeyboardInterrupt:
                raise
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
        the merged totals -- identical semantics to the plain parallel
        driver, plus completeness and resilience accounting."""
        max_paths = self.finder_kwargs.get("max_paths")
        paths: List[TimedPath] = []
        merged = SearchStats()
        # Shards whose metrics never reached this registry -- adopted
        # from a resume checkpoint, or recorded as failed -- are
        # published here from their checkpointed stats/deltas.  Pooled
        # shards arrived via telemetry shipping and in-process shards
        # published at stream close; re-publishing either would double
        # count (which the old unconditional publish did for every
        # supervised serial run).
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
