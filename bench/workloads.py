"""Seeded workload inputs and the loops that drive the program.

Four workloads, each chosen to stress a different layer (README.md has
the reasoning):

* ``search-nworst``   -- exact N-worst true-path search, small netlists;
* ``gba-large``       -- one-pass GBA on 400-1600-gate netlists (no path
  search);
* ``eco-incremental`` -- ECO change lists (and their undo) with endpoint
  reads on one :class:`~repro.core.incremental.IncrementalSTA` session;
* ``served-mixed``    -- ``analyze`` requests to ``repro serve`` over
  two client connections.

Every input is generated from the workload seed and written as a
``.bench`` file; the program only ever sees those files.  The in-process
workloads share one driver (:func:`drive`): ``prepare`` (untimed: make
the input) -> ``run`` or ``traced`` (timed) -> ``check`` (untimed).
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import re
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.charlib.characterize import FAST_GRID, characterize_library
from repro.core.graphsta import GraphSTA
from repro.core.incremental import IncrementalSTA
from repro.core.sta import TruePathSTA
from repro.core.tgraph import net_levels
from repro.gates.library import default_library
from repro.netlist.bench import write_bench
from repro.netlist.generate import random_dag
from repro.service.client import ServiceClient, ServiceError
from repro.service.requests import (
    AnalysisContext,
    AnalysisOutcome,
    AnalysisRequest,
    build_context,
    cached_charlib,
    execute_analysis,
    load_circuit,
)
from repro.tech.presets import TECHNOLOGIES

from spans import REQUEST, SpanRecorder

IN_PROCESS = ("search-nworst", "gba-large", "eco-incremental")
SERVED = "served-mixed"
WORKLOADS = IN_PROCESS + (SERVED,)

#: Distinct netlists per in-process workload; request i uses netlist
#: i mod pool size.
POOL = {"search-nworst": 100, "gba-large": 120}
N_WORST = 10
ECO_NETLIST = "c1908"
#: Cell swaps per eco request.
ECO_BATCH = 3
#: Every this many requests the eco session is compared with a fresh one.
ECO_CHECK_EVERY = 25
SERVED_NETLISTS = 12
#: Share of served requests that repeat an earlier request.
SERVED_REPEAT_SHARE = 0.25
#: A repeat targets one of this client's last N positions, so the
#: target finished before the repeat is sent and is still memoized.
SERVED_REPEAT_WINDOW = 8
#: ``--fleet`` and ``--cache-size`` of the served workload's daemon.
SERVED_FLEET = 1
SERVED_CACHE = 8
SERVED_CLIENTS = 2
#: Requests per pass in a traced run (fixed, so counters repeat exactly).
TRACE_REQUESTS = {"search-nworst": 30, "gba-large": 30,
                  "eco-incremental": 80, SERVED: 60}
TECH = "90nm"

#: The host-speed probe: a fixed pure-Python loop, best of 3.  On the
#: shared 2-vCPU development host, plain CPU work runs up to 1.7x slower
#: for seconds to minutes at a time, independently on each vCPU.  The
#: probe, run on the CPU doing the work, tracks that (correlation 0.85
#: with one request repeated for minutes), so every timing is reported
#: in reference-host seconds: measured seconds divided by the slowdown
#: factor probe time / PROBE_REF_S.
PROBE_LOOPS = 20_000
#: Probe time on the development host at full speed (2-vCPU KVM guest,
#: Xeon Sapphire Rapids).
PROBE_REF_S = 0.0015
#: Re-probe before a request once the last probe is this old.
PROBE_EVERY_S = 0.25


def item_seed(workload: str, seed: int, item: object) -> int:
    """Independent 64-bit seed per (workload, run seed, item)."""
    blob = f"{workload}/{seed}/{item}".encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "big")


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def load_charlib():
    """The characterized library every workload analyzes with (the
    one ``repro analyze`` uses by default)."""
    return cached_charlib(default_library(), TECHNOLOGIES[TECH])


def time_charlib_load() -> float:
    """Seconds for one disk-cache load of the library (the charlib
    layer; the cache must already be warm)."""
    started = perf_counter()
    characterize_library(default_library(), TECHNOLOGIES[TECH], grid=FAST_GRID)
    return perf_counter() - started


def speed_probe() -> float:
    """The host's slowdown factor now (1.0 = the reference speed)."""
    best = math.inf
    for _ in range(3):
        started = perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        best = min(best, perf_counter() - started)
    return best / PROBE_REF_S


class SpeedSampler(threading.Thread):
    """Probes one CPU's slowdown every PROBE_EVERY_S from a thread
    pinned to it (the served workload's daemon computes on that CPU)."""

    def __init__(self, cpu: Optional[int]):
        super().__init__(daemon=True, name="bench-speed-sampler")
        self.cpu = cpu
        self.samples: List[Tuple[float, float]] = []
        self._halt = threading.Event()

    def run(self) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        while True:
            self.samples.append((perf_counter(), speed_probe()))
            if self._halt.wait(PROBE_EVERY_S):
                return

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def factor(self, start: float, end: float) -> float:
        """Median slowdown probed while [start, end] ran (the latest
        earlier probe when none fell inside)."""
        inside = [f for t, f in self.samples if start <= t <= end]
        if inside:
            return statistics.median(inside)
        earlier = [f for t, f in self.samples if t <= end]
        return earlier[-1] if earlier else self.samples[0][1]


# ---------------------------------------------------------------------------
# Inputs


def _stratified(workload: str, seed: int, index: int, axis: int) -> float:
    """A seeded rotation of the additive golden-ratio sequence: values
    in [0, 1) that cover the interval evenly for every seed, so the mix
    of netlist sizes barely moves from one seed to the next."""
    offset = item_seed(workload, seed, f"axis{axis}") / 2.0 ** 64
    step = (math.sqrt(5) - 1) / 2 if axis == 0 else math.sqrt(2) - 1
    return (offset + index * step) % 1.0


def generate(workload: str, seed: int, index: int = 0):
    """The primitive-gate circuit behind one workload input."""
    if workload == "search-nworst":
        return random_dag(f"s{seed}_{index}", 16, 80, n_outputs=6,
                          seed=item_seed(workload, seed, index))
    if workload == "gba-large":
        gates = 400 + int(1201 * _stratified(workload, seed, index, 0))
        inputs = 40 + int(101 * _stratified(workload, seed, index, 1))
        return random_dag(f"g{seed}_{index}", inputs, gates,
                          n_outputs=inputs // 2,
                          seed=item_seed(workload, seed, index))
    # The eco and served netlists are the same for every seed (the seed
    # draws their edit and request streams): with one or a dozen
    # netlists per run, netlist-to-netlist effort differences would
    # otherwise swamp run-to-run comparisons.
    if workload == "eco-incremental":
        # The c1908 stand-in of the evaluation suite.
        return random_dag(ECO_NETLIST, 33, 950, seed=1908, n_outputs=25)
    if workload == SERVED:
        return random_dag(f"m{index}", 16, 90, n_outputs=6,
                          seed=item_seed(workload, 0, index))
    raise ValueError(f"unknown workload {workload!r}")


def write_input(workload: str, seed: int, index: int,
                directory: Path) -> Tuple[str, str]:
    """Write one input as ``.bench``; returns (path, text digest)."""
    circuit = generate(workload, seed, index)
    text = write_bench(circuit)
    path = Path(directory) / f"{circuit.name}.bench"
    path.write_text(text)
    return str(path), digest(text)


def write_inputs(workload: str, seed: int, directory: Path,
                 ) -> Tuple[List[str], Dict[int, str]]:
    """The inputs made before set-up: the eco netlist and the served
    netlists (the search and GBA pools are made lazily, untimed)."""
    count = {"eco-incremental": 1, SERVED: SERVED_NETLISTS}.get(workload, 0)
    paths, digests = [], {}
    for index in range(count):
        path, digests[index] = write_input(workload, seed, index, directory)
        paths.append(path)
    return paths, digests


# ---------------------------------------------------------------------------
# In-process workloads


class SearchNWorst:
    """One ``repro analyze --n-worst 10`` per netlist."""

    name = "search-nworst"

    def __init__(self, seed: int, directory: Path):
        self.seed = seed
        self.directory = Path(directory)
        self.charlib = load_charlib()
        self.paths: Dict[int, str] = {}
        #: Pool index -> digest of the generated ``.bench`` text.
        self.inputs: Dict[int, str] = {}

    def setup(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def prepare(self, index: int) -> str:
        index %= POOL[self.name]
        if index not in self.paths:
            self.paths[index], self.inputs[index] = write_input(
                self.name, self.seed, index, self.directory)
        return self.paths[index]

    def request(self, netlist: str) -> AnalysisRequest:
        return AnalysisRequest(netlist, n_worst=N_WORST)

    def run(self, netlist: str):
        return execute_analysis(self.request(netlist))

    def traced(self, netlist: str, rec: SpanRecorder) -> AnalysisOutcome:
        """The calls ``execute_analysis`` makes, one span per layer."""
        request = self.request(netlist)
        with rec.span("netlist.load"):
            circuit = load_circuit(netlist)
        with rec.span("core.engine.init"):
            sta = TruePathSTA(circuit, self.charlib)
        with rec.span("core.tgraph.backward"):
            sta.calc.prune_bounds()
        with rec.span("core.pathfinder.search"):
            paths = sta.n_worst_paths(request.n_worst,
                                      max_paths=request.max_paths)
        with rec.span("core.report.render"):
            report = sta.report(paths, limit=request.top)
        return AnalysisOutcome(report=report, paths=paths)

    @staticmethod
    def text(output: AnalysisOutcome) -> str:
        return output.report

    def check(self, index: int, netlist: str, output) -> Optional[str]:
        """Soundness: no true path arrives after GBA's endpoint bound."""
        gba = GraphSTA(load_circuit(netlist), self.charlib).run()
        for path in output.paths:
            bound = gba.worst_arrival(path.nets[-1])
            if path.worst_arrival > bound:
                return (f"request {index}: true path {path.describe()} "
                        f"arrives at {path.worst_arrival!r} s, after the "
                        f"GBA bound {bound!r} s")
        return None


class GbaLarge(SearchNWorst):
    """One ``repro analyze --tool gba`` per (large) netlist."""

    name = "gba-large"

    def request(self, netlist: str) -> AnalysisRequest:
        return AnalysisRequest(netlist, tool="gba")

    def traced(self, netlist: str, rec: SpanRecorder) -> AnalysisOutcome:
        request = self.request(netlist)
        with rec.span("netlist.load"):
            circuit = load_circuit(netlist)
        with rec.span("core.engine.init"):
            gba = GraphSTA(circuit, self.charlib)
        with rec.span("core.tgraph.forward"):
            result = gba.run()
        with rec.span("core.report.render"):
            # With the forward pass supplied, execute_analysis only
            # renders the endpoint table.
            context = AnalysisContext(circuit=circuit, charlib=self.charlib,
                                      gba_result=result)
            return execute_analysis(request, context=context)

    def check(self, index: int, netlist: str, output) -> Optional[str]:
        """One row per primary output, in netlist order, each with a
        finite rise and fall arrival: zero for an output that is a
        primary input, positive otherwise."""
        lines = Path(netlist).read_text().splitlines()
        inputs = {line[len("INPUT("):-1] for line in lines
                  if line.startswith("INPUT(")}
        outputs = [line[len("OUTPUT("):-1] for line in lines
                   if line.startswith("OUTPUT(")]
        rows = output.report.splitlines()[1:]
        if len(rows) != len(outputs):
            return (f"request {index}: {len(rows)} endpoint rows for "
                    f"{len(outputs)} outputs")
        for row, endpoint in zip(rows, outputs):
            match = _GBA_ROW.fullmatch(row)
            ok = match is not None and match.group(1) == endpoint
            if ok:
                arrivals = (float(match.group(2)), float(match.group(3)))
                ok = all(a == 0.0 if endpoint in inputs else 0.0 < a < math.inf
                         for a in arrivals)
            if not ok:
                return f"request {index}: bad endpoint row {row!r}"
        return None


_GBA_ROW = re.compile(r"\s*(\S+)\s+rise=\s*(\S+) ps fall=\s*(\S+) ps")


class EcoIncremental:
    """What-if ECO change lists on one incremental session: request 2m
    swaps ECO_BATCH gates to pin-compatible cells, request 2m+1 swaps
    them back, and each request ends with an endpoint-arrival read."""

    name = "eco-incremental"

    def __init__(self, seed: int, directory: Path):
        self.seed = seed
        self.netlist = str(Path(directory) / f"{ECO_NETLIST}.bench")
        self.charlib = load_charlib()
        self.inputs: Dict[int, str] = {}

    def setup(self) -> None:
        """Load the netlist and run the session's initial analysis."""
        self.circuit = load_circuit(self.netlist)
        self.session = IncrementalSTA(self.circuit, self.charlib)
        self.session.refresh()
        self.gates = len(self.circuit.instances)
        self.rng = random.Random(item_seed(self.name, self.seed, "cells"))
        by_pins: Dict[Tuple[str, ...], List[str]] = {}
        for cell in self.circuit.library:
            by_pins.setdefault(tuple(cell.inputs), []).append(cell.name)
        self.alternatives = {pins: sorted(names)
                             for pins, names in by_pins.items()}
        levels = net_levels(self.circuit)
        self.instances = sorted(
            (name for name, inst in self.circuit.instances.items()
             if len(self.alternatives[tuple(inst.cell.inputs)]) > 1),
            key=lambda name: (levels[self.circuit.instances[name].output_net],
                              name))
        self._undo: List[Tuple[str, str]] = []

    def reset(self) -> None:
        """A fresh session on the unedited netlist (same edit stream)."""
        self.setup()

    def prepare(self, index: int) -> List[Tuple[str, str]]:
        if index % 2:
            return self._undo
        # Repair cost per swap spans two decades, so a request batches
        # ECO_BATCH swaps spread evenly over the gates in level order,
        # starting at a seeded low-discrepancy point: every change list
        # mixes shallow gates (large repair cones) and deep ones (small
        # cones).  Reverting each list keeps the netlist stationary.
        start = _stratified(self.name, self.seed, index // 2, 0)
        edits, self._undo = [], []
        for k in range(ECO_BATCH):
            position = (start + k / ECO_BATCH) % 1.0
            name = self.instances[int(position * len(self.instances))]
            cell = self.circuit.instances[name].cell
            choices = [c for c in self.alternatives[tuple(cell.inputs)]
                       if c != cell.name]
            edits.append((name, self.rng.choice(choices)))
            self._undo.insert(0, (name, cell.name))
        return edits

    def run(self, edits: List[Tuple[str, str]]):
        for edit in edits:
            self.session.replace_cell(*edit)
        return self.session.arrivals()

    def traced(self, edits: List[Tuple[str, str]], rec: SpanRecorder):
        with rec.span("core.incremental.edit"):
            for edit in edits:
                self.session.replace_cell(*edit)
        with rec.span("core.incremental.read"):
            return self.session.arrivals()

    @staticmethod
    def text(output) -> str:
        return repr(output)

    def check(self, index: int, edits, output) -> Optional[str]:
        """Every ECO_CHECK_EVERY requests: the repaired session equals a
        fresh session built on the edited circuit."""
        if (index + 1) % ECO_CHECK_EVERY:
            return None
        fresh = IncrementalSTA(self.circuit, self.charlib)
        for query in ("arrivals", "slews", "required_bounds"):
            if getattr(self.session, query)() != getattr(fresh, query)():
                return (f"request {index}: incremental {query}() differs "
                        "from a fresh session on the edited circuit")
        return None


WORKLOAD_TYPES = {cls.name: cls for cls in
                  (SearchNWorst, GbaLarge, EcoIncremental)}


def make(workload: str, seed: int, directory: Path):
    """Build one in-process workload and run its set-up."""
    instance = WORKLOAD_TYPES[workload](seed, directory)
    instance.setup()
    return instance


@dataclass
class Pass:
    """One pass over a workload's request stream."""

    #: Measured seconds per request.
    latencies: List[float] = field(default_factory=list)
    #: Host slowdown factor probed before each request.
    factors: List[float] = field(default_factory=list)
    digests: List[Tuple[int, str]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def reference_busy(self) -> float:
        """Timed seconds at the reference host speed."""
        return sum(t / f for t, f in zip(self.latencies, self.factors))


def drive(workload, count: Optional[int] = None,
          seconds: Optional[float] = None,
          recorder: Optional[SpanRecorder] = None) -> Pass:
    """Closed loop, one caller: request i+1 starts when request i has
    finished and been checked.  Stops after ``count`` requests or once
    the timed requests add up to ``seconds``."""
    result = Pass()
    factor, probed_at = 1.0, -math.inf
    index = 0
    while ((count is None or index < count)
           and (seconds is None or result.busy < seconds)):
        arg = workload.prepare(index)
        if perf_counter() - probed_at > PROBE_EVERY_S:
            factor, probed_at = speed_probe(), perf_counter()
        result.factors.append(factor)
        started = perf_counter()
        try:
            if recorder is None:
                output = workload.run(arg)
            else:
                with recorder.span(REQUEST, request=index):
                    output = workload.traced(arg, recorder)
        except Exception as exc:
            result.latencies.append(perf_counter() - started)
            result.errors.append(f"request {index}: "
                                 f"{type(exc).__name__}: {exc}")
        else:
            result.latencies.append(perf_counter() - started)
            result.digests.append((index, digest(workload.text(output))))
            problem = workload.check(index, arg, output)
            if problem:
                result.failures.append(problem)
        index += 1
    return result


def counters() -> Dict[str, float]:
    """The program's own unlabeled work counters."""
    return {key: value for key, value in obs.metrics.snapshot().items()
            if isinstance(value, (int, float)) and "{" not in key}


def program_self_times() -> Dict[str, float]:
    """Self seconds per span name from ``repro.obs.tracing``."""
    out: Dict[str, float] = {}

    def visit(node) -> None:
        for child in node.children.values():
            out[child.name] = out.get(child.name, 0.0) + child.self_total
            visit(child)

    visit(obs.tracing.tree())
    return out


def traced_passes(workload, count: int, trace_file: Optional[str]) -> Dict:
    """The same ``count`` requests twice: untraced, then traced with
    benchmark spans around every layer call and ``repro.obs.tracing``
    on.  The rendered outputs of both passes must be identical."""
    obs.reset()
    plain = drive(workload, count=count)
    plain_counters = counters()
    workload.reset()
    obs.reset()
    obs.tracing.enable()
    recorder = SpanRecorder()
    try:
        # Checks run in both passes, so both pay the same untimed work
        # (and garbage) between requests.
        traced = drive(workload, count=count, recorder=recorder)
    finally:
        obs.tracing.enable(False)
    failures = plain.failures + traced.failures
    if plain.digests != traced.digests:
        failures.append("traced pass rendered different output than the "
                        "untraced pass")
    if trace_file:
        recorder.write_chrome_trace(trace_file)
    return {
        "pass": plain,
        "errors": plain.errors + traced.errors,
        "failures": failures,
        "untraced_busy": plain.reference_busy,
        "traced_busy": traced.reference_busy,
        "request_wall": recorder.wall(),
        "layer_self": recorder.self_times(),
        "program_self": program_self_times(),
        "counters": plain_counters,
        "traced_counters": counters(),
        "gates": getattr(workload, "gates", 0),
    }


# ---------------------------------------------------------------------------
# Served workload


@dataclass(frozen=True)
class Planned:
    """One served request: netlist index and ``top`` for a fresh
    request; ``origin`` is the position a repeat copies."""

    netlist: int
    top: int
    origin: Optional[int] = None


def served_plan(seed: int, positions: int) -> List[Planned]:
    """Seeded request stream.  Client k sends positions k, k+2, ...
    (static split), and a repeat only targets an earlier position of the
    same client, so it always finds its original memoized."""
    rng = random.Random(item_seed(SERVED, seed, "plan"))
    tops = [0] * SERVED_NETLISTS
    plan: List[Planned] = []
    for position in range(positions):
        window = list(range(position - SERVED_CLIENTS,
                            position - SERVED_CLIENTS * SERVED_REPEAT_WINDOW - 1,
                            -SERVED_CLIENTS))
        window = [p for p in window if p >= 0]
        if window and rng.random() < SERVED_REPEAT_SHARE:
            chosen = rng.choice(window)
            target = plan[chosen]
            origin = chosen if target.origin is None else target.origin
            plan.append(Planned(target.netlist, target.top, origin))
            continue
        # Uniform over the netlists: the working set (12) exceeds the
        # daemon's context cache (8), so context hits and misses mix.
        netlist = rng.randrange(SERVED_NETLISTS)
        tops[netlist] += 1
        plan.append(Planned(netlist, tops[netlist]))
    return plan


def served_params(planned: Planned, netlists: List[str]) -> Dict:
    return {"netlist": netlists[planned.netlist], "n_worst": N_WORST,
            "top": planned.top}


@dataclass
class ServedSample:
    position: int
    sent: float
    latency: float
    report: str = ""
    cached: bool = False
    compute_s: float = 0.0
    metrics: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    #: Slowdown of the daemon's compute CPU while the request ran.
    factor: float = 1.0


def run_clients(host: str, port: int, plan: List[Planned],
                netlists: List[str], count: Optional[int] = None,
                seconds: Optional[float] = None,
                recorder: Optional[SpanRecorder] = None,
                compute_cpu: Optional[int] = None,
                ) -> Tuple[List[ServedSample], float, float]:
    """Closed loop, SERVED_CLIENTS connections (one thread each), while
    a sampler probes ``compute_cpu``.  Returns the samples in position
    order, the wall time, and the pass's median slowdown."""
    limit = len(plan) if count is None else min(count, len(plan))
    samples: List[ServedSample] = []
    lock = threading.Lock()
    sampler = SpeedSampler(compute_cpu)
    sampler.start()
    started = perf_counter()
    deadline = None if seconds is None else started + seconds

    def client_loop(first: int) -> None:
        with ServiceClient(host, port) as client:
            for position in range(first, limit, SERVED_CLIENTS):
                if deadline is not None and perf_counter() >= deadline:
                    return
                params = served_params(plan[position], netlists)
                sent = perf_counter()
                try:
                    if recorder is None:
                        frame = client.call("analyze", params)
                    else:
                        with recorder.span(REQUEST, request=position):
                            frame = client.call("analyze", params)
                except ServiceError as exc:
                    sample = ServedSample(position, sent, perf_counter() - sent,
                                          error=str(exc))
                else:
                    sample = ServedSample(
                        position, sent, perf_counter() - sent,
                        report=frame["report"],
                        cached=bool(frame.get("cached")),
                        compute_s=float(frame.get("elapsed_s", 0.0)),
                        metrics=dict(frame.get("metrics", {})))
                with lock:
                    samples.append(sample)

    threads = [threading.Thread(target=client_loop, args=(k,))
               for k in range(SERVED_CLIENTS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        wall = perf_counter() - started
        sampler.stop()
    for sample in samples:
        sample.factor = sampler.factor(sample.sent,
                                       sample.sent + sample.latency)
    slowdown = statistics.median(f for _t, f in sampler.samples)
    return sorted(samples, key=lambda s: s.position), wall, slowdown


def check_served(samples: List[ServedSample], plan: List[Planned],
                 netlists: List[str]) -> List[str]:
    """Byte identity: every fresh report equals the in-process
    ``execute_analysis`` report for the same request, and every planned
    repeat comes back ``cached`` with its original's bytes."""
    failures: List[str] = []
    contexts: Dict[int, AnalysisContext] = {}
    reports: Dict[int, str] = {}
    for sample in samples:
        if sample.error is not None:
            continue
        planned = plan[sample.position]
        if planned.origin is None:
            request = AnalysisRequest(**served_params(planned, netlists))
            context = contexts.get(planned.netlist)
            if context is None:
                context = contexts[planned.netlist] = build_context(request)
            expected = execute_analysis(request, context=context).report
            if sample.report != expected:
                failures.append(f"position {sample.position}: served report "
                                "differs from the in-process report")
            if sample.cached:
                failures.append(f"position {sample.position}: a fresh "
                                "request came back cached")
            reports[sample.position] = sample.report
        else:
            if not sample.cached:
                failures.append(f"position {sample.position}: planned "
                                "repeat was not a memo hit")
            original = reports.get(planned.origin)
            if original is not None and sample.report != original:
                failures.append(f"position {sample.position}: repeat "
                                "differs from its original")
    return failures
