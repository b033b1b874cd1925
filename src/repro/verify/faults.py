"""Fault-injection harness for the resilience layer.

The supervisor's recovery paths (worker-crash retry, shard-timeout
teardown, missing-arc substitution, checkpoint/resume after an
interrupt) only run when something goes wrong, which on a healthy
machine is never.  This module makes them run deterministically:

* :class:`FaultPlan` -- a picklable fault schedule the supervisor ships
  to its workers.  A scheduled *crash* hard-kills the worker process
  with :func:`os._exit` (no unwinding, exactly like an OOM kill); a
  scheduled *hang* sleeps past the shard deadline; ``interrupt_after``
  raises the supervisor's own :class:`KeyboardInterrupt` after N
  completed shards, exercising the SIGINT unwind without a signal.
* :func:`corrupt_charlib` -- a seeded deep copy of a characterized
  library with a sample of timing arcs removed, modeling a truncated or
  mis-characterized library file.
* :func:`run_faults` -- the scenario driver behind
  ``repro verify --faults``: each scenario injects one fault class and
  asserts the recovered output is *identical* to a fault-free run (or,
  for corruption, that the run degrades per policy instead of dying).

Faults are injected only into worker processes: only the pooled shard
handler calls :meth:`FaultPlan.before_shard`, so the serial fallback and
``jobs=1`` runs see the same plan but no faults, which is precisely the
recovery guarantee being tested.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.charlib.store import CharacterizedLibrary
from repro.core.path import TimedPath
from repro.core.sta import TruePathSTA
from repro.netlist.circuit import Circuit
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.resilience.errors import SearchInterrupted
from repro.verify.metamorphic import _path_identity

_log = get_logger("repro.verify")

#: Scenario names, in execution order.
FAULT_SCENARIOS = (
    "worker_crash",
    "shard_timeout",
    "corrupt_charlib",
    "interrupt_resume",
)


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault schedule, handed to every pool worker at
    start (plain data only, so it also pickles).

    Attempt numbers are zero-based: ``crash_attempts=(0,)`` crashes the
    first try of each listed origin and lets every retry succeed.
    """

    #: Origins whose worker dies hard (``os._exit``) on the listed
    #: attempts.
    crash_origins: Tuple[str, ...] = ()
    crash_attempts: Tuple[int, ...] = (0,)
    crash_exit_code: int = 17
    #: Origins whose worker sleeps ``hang_seconds`` on the listed
    #: attempts -- long enough to trip the supervisor's shard deadline.
    hang_origins: Tuple[str, ...] = ()
    hang_attempts: Tuple[int, ...] = (0,)
    hang_seconds: float = 30.0
    #: Raise KeyboardInterrupt in the *supervisor* once this many
    #: shards have completed (None = never) -- a deterministic SIGINT.
    interrupt_after: Optional[int] = None

    def before_shard(self, origin: str, attempt: int) -> None:
        """Worker hook: called immediately before a pooled shard's
        search starts.  The in-process paths (serial mode, serial
        fallback) never call it, so they are fault-free by
        construction."""
        if origin in self.crash_origins and attempt in self.crash_attempts:
            # Hard death: skips every finally/atexit, like a kill -9.
            os._exit(self.crash_exit_code)
        if origin in self.hang_origins and attempt in self.hang_attempts:
            time.sleep(self.hang_seconds)


def corrupt_charlib(
    charlib: CharacterizedLibrary,
    circuit: Optional[Circuit] = None,
    seed: int = 0,
    drop_fraction: float = 0.25,
    max_drops: int = 64,
) -> Tuple[CharacterizedLibrary, List[str]]:
    """A deep copy of ``charlib`` with a seeded sample of timing arcs
    removed.  When ``circuit`` is given, only arcs of cells the circuit
    instantiates are candidates (so the corruption is guaranteed to be
    in the analysis's way), and never the last arc of a cell (so the
    ``warn-substitute`` policy always has a donor arc).

    Returns the corrupted library and the sorted list of dropped arc
    keys.
    """
    data = charlib.to_dict()
    used = ({inst.cell.name for inst in circuit.instances.values()}
            if circuit is not None else None)
    by_cell: Dict[str, int] = {}
    for arc in data["arcs"]:
        by_cell[arc["cell"]] = by_cell.get(arc["cell"], 0) + 1
    candidates = [
        i for i, arc in enumerate(data["arcs"])
        if (used is None or arc["cell"] in used) and by_cell[arc["cell"]] > 1
    ]
    rng = random.Random(seed)
    count = min(len(candidates), max_drops,
                max(1, int(len(candidates) * drop_fraction)))
    # Re-check the donor guarantee as we draw: dropping several arcs of
    # one small cell could otherwise empty it.
    dropped_idx: List[int] = []
    for i in rng.sample(candidates, len(candidates)):
        if len(dropped_idx) >= count:
            break
        cell = data["arcs"][i]["cell"]
        if by_cell[cell] > 1:
            by_cell[cell] -= 1
            dropped_idx.append(i)
    dropped = sorted(
        "|".join((data["arcs"][i]["cell"], data["arcs"][i]["pin"],
                  data["arcs"][i]["vector_id"],
                  "r" if data["arcs"][i]["input_rising"] else "f",
                  "R" if data["arcs"][i]["output_rising"] else "F"))
        for i in dropped_idx
    )
    keep = set(range(len(data["arcs"]))) - set(dropped_idx)
    data["arcs"] = [arc for i, arc in enumerate(data["arcs"]) if i in keep]
    return CharacterizedLibrary.from_dict(data), dropped


@dataclass
class FaultScenarioResult:
    """Outcome of one injected-fault scenario."""

    name: str
    ok: bool
    detail: str = ""
    #: Recovery counters observed during the scenario (registry deltas).
    recovery: Dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        status = "recovered" if self.ok else "FAILED"
        tail = f" -- {self.detail}" if self.detail else ""
        events = ", ".join(f"{k}={v:g}" for k, v in sorted(
            self.recovery.items()) if v)
        if events:
            tail += f" [{events}]"
        return f"{self.name}: {status}{tail}"


@dataclass
class FaultReport:
    """All scenarios of one :func:`run_faults` invocation."""

    circuit: str
    seed: int
    scenarios: List[FaultScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.scenarios)

    def describe(self) -> str:
        lines = [
            f"fault injection on {self.circuit} (seed {self.seed}): "
            + ("all scenarios recovered" if self.ok else "FAILURES")
        ]
        lines.extend("  " + s.describe() for s in self.scenarios)
        return "\n".join(lines)


#: Registry counters snapshotted around each scenario.
_RECOVERY_COUNTERS = (
    "resilience.worker_crashes",
    "resilience.shard_timeouts",
    "resilience.shard_retries",
    "resilience.serial_fallbacks",
    "resilience.degraded_origins",
    "resilience.resumed_shards",
    "delaycalc.arc_substitutions",
    "service.worker_crashes",
    "service.request_retries",
    "service.worker_timeouts",
    "service.preemptions",
    "service.queued",
    "service.overloaded",
    "service.deadline_drops",
    "service.snapshots_written",
    "service.snapshot_restores",
    "service.snapshot_discarded",
)


def _counter_values() -> Dict[str, float]:
    return {name: obs_metrics.REGISTRY.counter(name).as_value()
            for name in _RECOVERY_COUNTERS}


def _delta(before: Dict[str, float]) -> Dict[str, float]:
    after = _counter_values()
    return {name: after[name] - before[name] for name in before}


def run_faults(
    circuit: Circuit,
    charlib: CharacterizedLibrary,
    seed: int = 0,
    jobs: int = 2,
    max_paths: Optional[int] = None,
    scenarios: Optional[Sequence[str]] = None,
    shard_timeout: Optional[float] = None,
) -> FaultReport:
    """Run the fault-scenario catalog (or a named subset) on one
    circuit and certify every recovery.

    Each scenario's recovered output is compared path-by-path
    (bit-exact arrivals) against a fault-free reference run, so a
    recovery that silently dropped or re-ordered work fails the
    scenario even though no exception escaped.
    """
    selected = list(scenarios) if scenarios is not None \
        else list(FAULT_SCENARIOS)
    unknown = [name for name in selected if name not in FAULT_SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown fault scenarios {unknown}; have {FAULT_SCENARIOS}")
    jobs = max(jobs, 2)  # faults live in workers; a pool is required
    origins = list(circuit.inputs)
    report = FaultReport(circuit=circuit.name, seed=seed)
    rng = random.Random(seed)

    started = time.perf_counter()
    reference = TruePathSTA(circuit, charlib).analyze(
        jobs=jobs, max_paths=max_paths)
    baseline_elapsed = time.perf_counter() - started
    reference_ids = [_path_identity(p) for p in reference.paths]
    if shard_timeout is None:
        # Generous headroom over the whole fault-free run, so only the
        # injected hang can ever trip the deadline.
        shard_timeout = max(5.0, 10.0 * baseline_elapsed)

    def compare(name: str, result, recovery: Dict[str, float],
                expect: Dict[str, str]) -> FaultScenarioResult:
        got = [_path_identity(p) for p in result.paths]
        if got != reference_ids:
            return FaultScenarioResult(
                name, False,
                f"recovered run differs from fault-free reference "
                f"({len(got)} vs {len(reference_ids)} paths)", recovery)
        for counter, why in expect.items():
            if not recovery.get(counter):
                return FaultScenarioResult(
                    name, False, f"no {counter} recorded ({why})", recovery)
        return FaultScenarioResult(
            name, True, f"{len(got)} paths identical", recovery)

    for name in selected:
        before = _counter_values()
        try:
            if name == "worker_crash":
                victims = tuple(rng.sample(origins,
                                           min(2, len(origins))))
                result = TruePathSTA(circuit, charlib).analyze(
                    jobs=jobs, max_paths=max_paths,
                    fault_plan=FaultPlan(crash_origins=victims),
                )
                outcome = compare(name, result, _delta(before), {
                    "resilience.worker_crashes": "no crash detected",
                    "resilience.shard_retries": "no retry happened",
                })
            elif name == "shard_timeout":
                victim = (rng.choice(origins),)
                result = TruePathSTA(circuit, charlib).analyze(
                    jobs=jobs, max_paths=max_paths,
                    shard_timeout=shard_timeout,
                    fault_plan=FaultPlan(
                        hang_origins=victim,
                        hang_seconds=4.0 * shard_timeout,
                    ),
                )
                outcome = compare(name, result, _delta(before), {
                    "resilience.shard_timeouts": "no deadline tripped",
                })
            elif name == "corrupt_charlib":
                outcome = _run_corrupt_charlib(
                    circuit, charlib, seed, jobs, max_paths, before)
            else:  # interrupt_resume
                outcome = _run_interrupt_resume(
                    circuit, charlib, jobs, max_paths, reference_ids,
                    before)
        except Exception as exc:  # a scenario must never abort the run
            outcome = FaultScenarioResult(
                name, False, f"escaped {type(exc).__name__}: {exc}",
                _delta(before))
        report.scenarios.append(outcome)
        _log.info("verify.fault_scenario", scenario=name, ok=outcome.ok,
                  detail=outcome.detail)

    registry = obs_metrics.REGISTRY
    registry.counter("verify.fault_scenarios").inc(len(report.scenarios))
    failures = sum(1 for s in report.scenarios if not s.ok)
    registry.counter("verify.fault_failures").inc(failures)
    registry.counter("verify.fault_recoveries").inc(
        len(report.scenarios) - failures)
    return report


#: Served-request scenario names, in execution order (the harness
#: behind ``repro verify --server-faults`` and
#: ``tests/test_service_faults.py``).
SERVER_FAULT_SCENARIOS = (
    "server_worker_crash",
    "server_degraded_bounds",
    "server_fleet_kill",
    "server_restart_mid_request",
    "server_snapshot_corruption",
    "server_queue_overflow",
)


def run_server_faults(
    circuit_spec: str = "iscas:c432@0.1",
    seed: int = 0,
    jobs: int = 2,
    max_paths: Optional[int] = None,
    scenarios: Optional[Sequence[str]] = None,
) -> FaultReport:
    """Fault-inject the *analysis server's* request path.

    Boots an in-thread :class:`~repro.service.server.AnalysisServer`
    with fault injection enabled and certifies the served recovery
    story end to end:

    ``server_worker_crash``
        A request whose pool workers are hard-killed on their first
        attempt for two sampled origins must still return a report
        byte-identical to the fault-free served request, with the
        supervisor's crash/retry counters raised.

    ``server_degraded_bounds``
        A request whose worker dies on *every* attempt for one origin
        (serial fallback disabled) must complete degraded: a ``partial``
        frame precedes the result, the failed origin carries a GBA
        bound, and that bound soundly dominates every fault-free
        arrival from the origin.

    ``server_fleet_kill``
        On a ``fleet=2`` server, a request whose *fleet worker* is
        OOM-killed (``os._exit`` before any compute) on its first
        attempt must be retried onto a respawned worker and return a
        report byte-identical to the fault-free reference, with the
        fleet's crash/retry counters raised.

    ``server_restart_mid_request``
        The daemon is hard-killed (no exit snapshot) while a request is
        in flight.  The client's retry loop must recover identical
        bytes from a restarted daemon on the same port, and the restart
        must re-warm the result memo from the last periodic snapshot
        (a deterministic repeat answers ``cached``).

    ``server_snapshot_corruption``
        A warm-state snapshot tampered with on disk (valid JSON, wrong
        digest) must be *discarded* on boot -- never trusted -- and the
        cold recompute must still be byte-identical.

    ``server_queue_overflow``
        With one inflight slot and a one-deep queue, a third concurrent
        request must be shed with a structured ``overloaded`` error
        carrying a positive ``retry_after_s``; the client's backoff
        retry must then complete, and no request may hang or be dropped
        without an error.
    """
    from repro.service import ServiceClient, ServiceConfig, start_in_thread
    from repro.service.requests import build_context, AnalysisRequest

    selected = list(scenarios) if scenarios is not None \
        else list(SERVER_FAULT_SCENARIOS)
    unknown = [name for name in selected
               if name not in SERVER_FAULT_SCENARIOS]
    if unknown:
        raise ValueError(f"unknown server fault scenarios {unknown}; "
                         f"have {SERVER_FAULT_SCENARIOS}")
    jobs = max(jobs, 2)  # faults live in pool workers
    base_params = {"netlist": circuit_spec, "jobs": jobs,
                   "max_paths": max_paths}
    report = FaultReport(circuit=circuit_spec, seed=seed)
    handle = start_in_thread(ServiceConfig(
        allow_fault_injection=True, heartbeat_interval=0.25))
    try:
        with ServiceClient(handle.host, handle.port) as client:
            reference = client.call("analyze", dict(base_params))
            context = build_context(AnalysisRequest(netlist=circuit_spec))
            origins = list(context.circuit.inputs)
            rng = random.Random(seed)
            for name in selected:
                before = _counter_values()
                try:
                    if name == "server_worker_crash":
                        outcome = _server_worker_crash(
                            client, base_params, reference, rng, origins,
                            before)
                    elif name == "server_degraded_bounds":
                        outcome = _server_degraded_bounds(
                            client, base_params, context, rng, origins,
                            before)
                    elif name == "server_fleet_kill":
                        outcome = _server_fleet_kill(
                            base_params, reference, before)
                    elif name == "server_restart_mid_request":
                        outcome = _server_restart_mid_request(
                            base_params, reference, seed, before)
                    elif name == "server_snapshot_corruption":
                        outcome = _server_snapshot_corruption(
                            base_params, reference, before)
                    else:  # server_queue_overflow
                        outcome = _server_queue_overflow(
                            base_params, reference, origins, seed, before)
                except Exception as exc:  # a scenario must never abort
                    outcome = FaultScenarioResult(
                        name, False,
                        f"escaped {type(exc).__name__}: {exc}",
                        _delta(before))
                report.scenarios.append(outcome)
                _log.info("verify.server_fault_scenario", scenario=name,
                          ok=outcome.ok, detail=outcome.detail)
    finally:
        handle.stop()
    registry = obs_metrics.REGISTRY
    registry.counter("verify.fault_scenarios").inc(len(report.scenarios))
    failures = sum(1 for s in report.scenarios if not s.ok)
    registry.counter("verify.fault_failures").inc(failures)
    registry.counter("verify.fault_recoveries").inc(
        len(report.scenarios) - failures)
    return report


def _server_worker_crash(client, base_params, reference, rng, origins,
                         before) -> FaultScenarioResult:
    victims = rng.sample(origins, min(2, len(origins)))
    result = client.call("analyze", dict(
        base_params, fault={"crash_origins": victims,
                            "crash_attempts": [0]}))
    recovery = _delta(before)
    if result.get("cached"):
        return FaultScenarioResult(
            "server_worker_crash", False,
            "fault-injected request was served from the result memo",
            recovery)
    if result["report"] != reference["report"]:
        return FaultScenarioResult(
            "server_worker_crash", False,
            "recovered served report differs from fault-free reference",
            recovery)
    for counter, why in (
        ("resilience.worker_crashes", "no crash detected"),
        ("resilience.shard_retries", "no retry happened"),
    ):
        if not recovery.get(counter):
            return FaultScenarioResult(
                "server_worker_crash", False,
                f"no {counter} recorded ({why})", recovery)
    return FaultScenarioResult(
        "server_worker_crash", True,
        f"report identical after {len(victims)} worker kills", recovery)


def _server_degraded_bounds(client, base_params, context, rng, origins,
                            before) -> FaultScenarioResult:
    # Reference run first, so the victim can be drawn from origins that
    # actually produce paths -- otherwise the bound-dominance check
    # below would be vacuous (max over an empty set).
    fault_free = TruePathSTA(context.circuit, context.charlib).analyze(
        max_paths=base_params.get("max_paths"))
    productive = sorted({p.nets[0] for p in fault_free.paths})
    victim = rng.choice(productive or origins)
    retries = int(base_params.get("shard_retries", 2))
    partials = []
    result = client.call(
        "analyze",
        dict(base_params, serial_fallback=False,
             fault={"crash_origins": [victim],
                    "crash_attempts": list(range(retries + 2))}),
        on_partial=partials.append,
    )
    recovery = _delta(before)
    if not result.get("degraded"):
        return FaultScenarioResult(
            "server_degraded_bounds", False,
            f"request did not degrade (origin {victim} should have "
            "failed every attempt)", recovery)
    if not partials:
        return FaultScenarioResult(
            "server_degraded_bounds", False,
            "no partial frame preceded the degraded result", recovery)
    failed = [o for o in result.get("completeness", ())
              if o["origin"] == victim and o["status"] != "complete"]
    if not failed:
        return FaultScenarioResult(
            "server_degraded_bounds", False,
            f"origin {victim} missing from the degraded completeness "
            "report", recovery)
    bound = failed[0].get("gba_bound")
    if bound is None:
        return FaultScenarioResult(
            "server_degraded_bounds", False,
            f"failed origin {victim} carries no GBA bound", recovery)
    # Soundness: the bound must dominate every arrival the fault-free
    # search finds from the failed origin.
    reachable = [p.worst_arrival for p in fault_free.paths
                 if p.nets[0] == victim]
    ceiling = max(reachable) if reachable else 0.0
    if bound < ceiling:
        return FaultScenarioResult(
            "server_degraded_bounds", False,
            f"GBA bound {bound * 1e12:.1f} ps below true arrival "
            f"{ceiling * 1e12:.1f} ps from {victim} (unsound)", recovery)
    return FaultScenarioResult(
        "server_degraded_bounds", True,
        f"origin {victim} degraded with sound bound "
        f"{bound * 1e12:.1f} ps >= {ceiling * 1e12:.1f} ps", recovery)


def _server_fleet_kill(base_params, reference, before) -> FaultScenarioResult:
    """A fleet worker OOM-killed mid-request must cost one attempt, not
    the daemon: the retry lands on a respawned worker and the served
    bytes match the fault-free reference."""
    from repro.service import ServiceClient, ServiceConfig, start_in_thread

    handle = start_in_thread(ServiceConfig(
        allow_fault_injection=True, heartbeat_interval=0.25, fleet=2))
    try:
        with ServiceClient(handle.host, handle.port) as client:
            result = client.call("analyze", dict(
                base_params, fleet_fault={"crash_attempts": [0]}))
    finally:
        handle.stop()
    recovery = _delta(before)
    if result.get("cached"):
        return FaultScenarioResult(
            "server_fleet_kill", False,
            "fault-injected request was served from the result memo",
            recovery)
    if result["report"] != reference["report"]:
        return FaultScenarioResult(
            "server_fleet_kill", False,
            "fleet-recovered report differs from the fault-free "
            "reference",
            recovery)
    for counter, why in (
        ("service.worker_crashes", "no worker death detected"),
        ("service.request_retries", "no fleet retry happened"),
    ):
        if not recovery.get(counter):
            return FaultScenarioResult(
                "server_fleet_kill", False,
                f"no {counter} recorded ({why})", recovery)
    return FaultScenarioResult(
        "server_fleet_kill", True,
        "report identical after the fleet worker was hard-killed",
        recovery)


def _server_restart_mid_request(base_params, reference, seed,
                                before) -> FaultScenarioResult:
    """Hard-kill the daemon under an in-flight request, restart it on
    the same port from the last snapshot: the client's retry loop must
    recover identical bytes, and the restarted memo must answer a
    deterministic repeat ``cached``."""
    from repro.service import ServiceClient, ServiceConfig, start_in_thread

    shared = dict(allow_fault_injection=True, heartbeat_interval=0.25,
                  fleet=1, snapshot_interval_s=3600.0)
    with tempfile.TemporaryDirectory(prefix="repro-server-faults-") as tmp:
        snapshot = os.path.join(tmp, "warm.json")
        first = start_in_thread(ServiceConfig(snapshot_path=snapshot,
                                              **shared))
        try:
            with ServiceClient(first.host, first.port) as client:
                warm = client.call("analyze", dict(base_params))
            first.server.snapshot_now()
            if warm["report"] != reference["report"]:
                return FaultScenarioResult(
                    "server_restart_mid_request", False,
                    "fleet warm-up report differs from the reference",
                    _delta(before))
            host, port = first.host, first.port
            box = {}

            def _retrying_call():
                retry_client = ServiceClient(host, port, timeout=120.0)
                try:
                    # The hang keeps attempt 0 in flight long enough for
                    # the kill to land mid-request; the fault also makes
                    # the request non-memoizable, so the restarted
                    # server must actually recompute it.
                    box["result"] = retry_client.call_with_retry(
                        "analyze",
                        dict(base_params,
                             fleet_fault={"hang_attempts": [0],
                                          "hang_s": 4.0}),
                        retries=8, backoff_s=0.25,
                        rng=random.Random(seed))
                except Exception as exc:
                    box["error"] = exc
                finally:
                    retry_client.close()

            caller = threading.Thread(target=_retrying_call, daemon=True)
            caller.start()
            time.sleep(1.0)  # let the request reach the hung worker
        finally:
            first.kill()  # simulated crash: no exit snapshot
        second = start_in_thread(ServiceConfig(
            snapshot_path=snapshot, host=host, port=port, **shared))
        try:
            caller.join(90.0)
            with ServiceClient(second.host, second.port) as client:
                again = client.call("analyze", dict(base_params))
        finally:
            second.stop()
    recovery = _delta(before)
    if caller.is_alive():
        return FaultScenarioResult(
            "server_restart_mid_request", False,
            "client retry never completed (hung across the restart)",
            recovery)
    if "error" in box:
        exc = box["error"]
        return FaultScenarioResult(
            "server_restart_mid_request", False,
            f"client retry failed: {type(exc).__name__}: {exc}", recovery)
    if box["result"]["report"] != reference["report"]:
        return FaultScenarioResult(
            "server_restart_mid_request", False,
            "retried report differs from the pre-crash reference",
            recovery)
    if not again.get("cached") or again["report"] != reference["report"]:
        return FaultScenarioResult(
            "server_restart_mid_request", False,
            "restart did not answer the deterministic repeat from the "
            "re-warmed memo", recovery)
    if not recovery.get("service.snapshot_restores"):
        return FaultScenarioResult(
            "server_restart_mid_request", False,
            "restart restored no warm-state snapshot", recovery)
    return FaultScenarioResult(
        "server_restart_mid_request", True,
        "retry recovered identical bytes across a crash+restart; memo "
        "re-warmed from the snapshot", recovery)


def _server_snapshot_corruption(base_params, reference,
                                before) -> FaultScenarioResult:
    """A tampered snapshot (well-formed JSON, wrong digest) must be
    discarded on boot, never trusted, and the cold recompute must stay
    byte-identical."""
    from repro.service import ServiceClient, ServiceConfig, start_in_thread

    shared = dict(heartbeat_interval=0.25, snapshot_interval_s=3600.0)
    with tempfile.TemporaryDirectory(prefix="repro-server-faults-") as tmp:
        snapshot = os.path.join(tmp, "warm.json")
        first = start_in_thread(ServiceConfig(snapshot_path=snapshot,
                                              **shared))
        try:
            with ServiceClient(first.host, first.port) as client:
                client.call("analyze", dict(base_params))
        finally:
            first.drain()  # graceful exit writes the snapshot
        if not os.path.exists(snapshot):
            return FaultScenarioResult(
                "server_snapshot_corruption", False,
                "drain wrote no warm-state snapshot", _delta(before))
        # Tamper *inside* an otherwise well-formed document: the digest
        # guard, not the JSON parser, must catch this.
        with open(snapshot) as fh:
            document = json.load(fh)
        document["payload"]["memo"] = []
        with open(snapshot, "w") as fh:
            json.dump(document, fh)
        second = start_in_thread(ServiceConfig(snapshot_path=snapshot,
                                               **shared))
        try:
            with ServiceClient(second.host, second.port) as client:
                result = client.call("analyze", dict(base_params))
        finally:
            second.stop()
    recovery = _delta(before)
    if not recovery.get("service.snapshot_discarded"):
        return FaultScenarioResult(
            "server_snapshot_corruption", False,
            "tampered snapshot was not discarded", recovery)
    if recovery.get("service.snapshot_restores"):
        return FaultScenarioResult(
            "server_snapshot_corruption", False,
            "tampered snapshot was restored (trusted!)", recovery)
    if result.get("cached"):
        return FaultScenarioResult(
            "server_snapshot_corruption", False,
            "cold server served a memo hit after discarding its "
            "snapshot", recovery)
    if result["report"] != reference["report"]:
        return FaultScenarioResult(
            "server_snapshot_corruption", False,
            "cold recompute differs from the reference", recovery)
    return FaultScenarioResult(
        "server_snapshot_corruption", True,
        "tampered snapshot discarded; cold recompute byte-identical",
        recovery)


def _await_admission(client, predicate, timeout: float = 10.0) -> bool:
    """Poll the stats op until the admission payload satisfies
    ``predicate`` (stats bypasses admission, so this never queues)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = client.call("stats")
        if predicate(stats.get("admission") or {}):
            return True
        time.sleep(0.05)
    return False


def _server_queue_overflow(base_params, reference, origins, seed,
                           before) -> FaultScenarioResult:
    """With one slot and a one-deep queue, the third concurrent request
    must be shed with ``overloaded`` + ``retry_after_s``; the backoff
    retry completes, and nothing hangs or vanishes without an error."""
    from repro.service import (
        ServiceClient,
        ServiceConfig,
        ServiceError,
        start_in_thread,
    )

    handle = start_in_thread(ServiceConfig(
        allow_fault_injection=True, heartbeat_interval=0.25,
        max_queue=1))
    slow_box, queued_box = {}, {}
    threads = []

    def _call_into(box, params):
        client = ServiceClient(handle.host, handle.port, timeout=120.0)
        try:
            box["result"] = client.call("analyze", params)
        except Exception as exc:
            box["error"] = exc
        finally:
            client.close()

    slow_params = dict(base_params, fault={
        "hang_origins": [origins[0]], "hang_attempts": [0],
        "hang_seconds": 3.0})
    try:
        with ServiceClient(handle.host, handle.port) as probe:
            threads.append(threading.Thread(
                target=_call_into, args=(slow_box, slow_params),
                daemon=True))
            threads[-1].start()
            if not _await_admission(probe, lambda a: a.get("inflight")):
                return FaultScenarioResult(
                    "server_queue_overflow", False,
                    "slow request never occupied the inflight slot",
                    _delta(before))
            threads.append(threading.Thread(
                target=_call_into, args=(queued_box, dict(base_params)),
                daemon=True))
            threads[-1].start()
            if not _await_admission(probe, lambda a: a.get("queued")):
                return FaultScenarioResult(
                    "server_queue_overflow", False,
                    "second request never queued", _delta(before))
            try:
                probe.call("analyze", dict(base_params))
            except ServiceError as exc:
                shed = exc
            else:
                return FaultScenarioResult(
                    "server_queue_overflow", False,
                    "third concurrent request was not shed",
                    _delta(before))
            if shed.code != "overloaded":
                return FaultScenarioResult(
                    "server_queue_overflow", False,
                    f"shed with code {shed.code!r}, not 'overloaded'",
                    _delta(before))
            if not shed.retry_after_s or shed.retry_after_s <= 0:
                return FaultScenarioResult(
                    "server_queue_overflow", False,
                    "overloaded error carries no positive retry_after_s",
                    _delta(before))
            retried = probe.call_with_retry(
                "analyze", dict(base_params), retries=8, backoff_s=0.25,
                rng=random.Random(seed))
            for thread in threads:
                thread.join(60.0)
    finally:
        handle.stop()
    recovery = _delta(before)
    if any(thread.is_alive() for thread in threads):
        return FaultScenarioResult(
            "server_queue_overflow", False,
            "a concurrent request hung past the load burst", recovery)
    for box, label in ((slow_box, "slow"), (queued_box, "queued")):
        if "error" in box:
            exc = box["error"]
            return FaultScenarioResult(
                "server_queue_overflow", False,
                f"{label} request failed: {type(exc).__name__}: {exc}",
                recovery)
        if box["result"]["report"] != reference["report"]:
            return FaultScenarioResult(
                "server_queue_overflow", False,
                f"{label} request's report differs from the reference",
                recovery)
    if retried["report"] != reference["report"]:
        return FaultScenarioResult(
            "server_queue_overflow", False,
            "shed request's retry returned a different report", recovery)
    for counter, why in (
        ("service.overloaded", "no shed recorded"),
        ("service.queued", "nothing ever waited in the queue"),
    ):
        if not recovery.get(counter):
            return FaultScenarioResult(
                "server_queue_overflow", False,
                f"no {counter} recorded ({why})", recovery)
    return FaultScenarioResult(
        "server_queue_overflow", True,
        f"third request shed with retry_after_s={shed.retry_after_s:g}s; "
        "backoff retry completed identically", recovery)


def _run_corrupt_charlib(circuit, charlib, seed, jobs, max_paths,
                         before) -> FaultScenarioResult:
    """Corruption is a *data* fault, not an infrastructure one: under
    the default ``error`` policy the run must abort with the taxonomy
    error; under ``warn-substitute`` it must complete with the
    substitution counter raised, identically in serial and parallel."""
    from repro.core.delaycalc import MissingArcsError
    corrupted, dropped = corrupt_charlib(charlib, circuit, seed=seed)
    if not dropped:
        return FaultScenarioResult(
            "corrupt_charlib", True, "no droppable arcs; skipped")
    try:
        TruePathSTA(circuit, corrupted).analyze(max_paths=max_paths)
    except MissingArcsError:
        pass  # the policy decision the `error` default promises
    else:
        return FaultScenarioResult(
            "corrupt_charlib", False,
            f"{len(dropped)} arcs dropped but policy `error` "
            "did not raise", _delta(before))
    serial = TruePathSTA(
        circuit, corrupted, missing_arc_policy="warn-substitute",
    ).analyze(max_paths=max_paths)
    parallel = TruePathSTA(
        circuit, corrupted, missing_arc_policy="warn-substitute",
    ).analyze(jobs=jobs, max_paths=max_paths)
    recovery = _delta(before)
    serial_ids = [_path_identity(p) for p in serial.paths]
    parallel_ids = [_path_identity(p) for p in parallel.paths]
    if serial_ids != parallel_ids:
        return FaultScenarioResult(
            "corrupt_charlib", False,
            "warn-substitute serial and parallel runs differ", recovery)
    if not recovery.get("delaycalc.arc_substitutions"):
        return FaultScenarioResult(
            "corrupt_charlib", False,
            f"{len(dropped)} arcs dropped but no substitution recorded",
            recovery)
    return FaultScenarioResult(
        "corrupt_charlib", True,
        f"{len(dropped)} arcs dropped, run degraded per policy", recovery)


def _run_interrupt_resume(circuit, charlib, jobs, max_paths,
                          reference_ids, before) -> FaultScenarioResult:
    """Interrupt a checkpointed run mid-flight, then resume from the
    snapshot: the union must be the exact fault-free path set and the
    resumed run must adopt at least one shard without re-searching."""
    interrupt_after = max(1, len(circuit.inputs) // 2)
    with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp:
        checkpoint = os.path.join(tmp, "search.ckpt.json")
        try:
            TruePathSTA(circuit, charlib).analyze(
                jobs=jobs, max_paths=max_paths, checkpoint=checkpoint,
                fault_plan=FaultPlan(interrupt_after=interrupt_after),
            )
        except SearchInterrupted as exc:
            partial = exc.partial
        else:
            return FaultScenarioResult(
                "interrupt_resume", False,
                "interrupt did not fire", _delta(before))
        if not os.path.exists(checkpoint):
            return FaultScenarioResult(
                "interrupt_resume", False,
                "no checkpoint written before interrupt", _delta(before))
        resumed = TruePathSTA(circuit, charlib).analyze(
            jobs=jobs, max_paths=max_paths, resume=checkpoint,
        )
    recovery = _delta(before)
    got = [_path_identity(p) for p in resumed.paths]
    if got != reference_ids:
        return FaultScenarioResult(
            "interrupt_resume", False,
            f"resumed run differs from fault-free reference "
            f"({len(got)} vs {len(reference_ids)} paths)", recovery)
    if resumed.resumed_shards < 1:
        return FaultScenarioResult(
            "interrupt_resume", False,
            "resume adopted no checkpointed shard", recovery)
    return FaultScenarioResult(
        "interrupt_resume", True,
        f"interrupted after {len(partial.paths)} partial paths, resume "
        f"adopted {resumed.resumed_shards} shard(s), "
        f"{len(got)} paths identical", recovery)
