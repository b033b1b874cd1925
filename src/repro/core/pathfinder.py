"""Single-pass true-path enumeration (the paper's algorithm, Sec. IV.B).

The search starts at a primary input carrying a transition (both
polarities at once, thanks to the dual-value engine), and advances node
to node.  At the current node it tries, for every fanout gate and every
sensitization vector of the traversed pin:

1. assign the vector's steady side values (requirements),
2. forward-propagate implications (early conflict detection through the
   semi-undetermined values),
3. justify every pending requirement back to the primary inputs
   (complete backtracking search within the step),
4. compute the arc delay for each surviving polarity from the
   vector-resolved polynomial arcs, propagating slews.

Choice points (fanout stems and multi-vector pins) are saved states; a
logic incompatibility discards every path sharing the current sub-path
and resumes from the last saved state -- exactly the paper's control
flow.  Paths with the same course but different vectors are kept
distinct.  On reaching an output the path is recorded and the search
returns to the last saved state.

Hot-path shortcut: an extension whose vector adds no *new* unjustified
requirement beyond the already-justified prefix needs no justification
re-solve -- forward implication alone proves it -- which the search
detects by resuming the obligation scan at the prefix's verified index
(``pathfinder.justify_skipped`` counts these pure-forward extensions).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.delaycalc import DelayCalculator
from repro.core.engine import (
    COMPONENTS,
    EngineCircuit,
    EngineGate,
    EngineState,
    FALLING,
    RISING,
    VectorOption,
)
from repro.core.justification import Justifier, JustifyResult
from repro.core.logic_values import Value9
from repro.core.path import PathStep, PolarityTiming, TimedPath
from repro.core.tgraph import PruneBounds
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span
from repro.resilience.budgets import (
    BudgetLedger,
    CompletenessReport,
    OriginOutcome,
    SearchBudgets,
)

#: Extensions between progress-hook invocations -- a power of two so
#: the hot loop's check is one branch on a modulo of a constant.
PROGRESS_EXTENSION_INTERVAL = 1024


@dataclass
class SearchStats:
    """Counters exposed by one search run.

    The hot loop updates plain attributes (free); :meth:`publish`
    mirrors them into the process-wide :mod:`repro.obs.metrics`
    registry as ``pathfinder.*`` counters, both unlabeled and labeled
    with the circuit name, publishing only the delta since the last
    call so repeated searches accumulate correctly.
    """

    paths_found: int = 0
    extensions_tried: int = 0
    conflicts: int = 0
    justification_backtracks: int = 0
    justification_cubes: int = 0
    justification_aborts: int = 0
    justify_skipped: int = 0
    states_saved: int = 0
    pruned: int = 0
    #: Prunes only the backward required-time bound achieved -- the
    #: legacy context-free suffix sum would have kept the extension.
    bound_prunes: int = 0
    #: Runs (or shards) whose search budget tripped before exhaustion;
    #: the path list is partial and tagged with per-origin completeness.
    budget_trips: int = 0
    cpu_seconds: float = 0.0
    _published: Dict[str, float] = field(default_factory=dict, repr=False)

    def as_dict(self) -> Dict[str, float]:
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def merge(self, other: Dict[str, float]) -> None:
        """Fold another run's counter dict (:meth:`as_dict`) into this
        one -- how the parallel driver combines per-shard stats."""
        for name, value in other.items():
            if name.startswith("_"):
                continue
            setattr(self, name, getattr(self, name, 0) + value)

    def publish(self, circuit: Optional[str] = None) -> None:
        registry = obs_metrics.REGISTRY
        for name, value in self.as_dict().items():
            delta = value - self._published.get(name, 0)
            # Register even zero-valued counters so a snapshot always
            # shows the full pathfinder effort schema.
            registry.counter(f"pathfinder.{name}").inc(max(delta, 0))
            if circuit:
                registry.counter(f"pathfinder.{name}", circuit=circuit).inc(
                    max(delta, 0)
                )
            self._published[name] = value


@dataclass
class _Arc:
    """How the search entered a frame (None for the root frame)."""

    step: PathStep
    #: component -> (arrival, slew) at the frame's net.
    timing: Dict[int, Tuple[float, float]]
    #: All intrinsic steady requirements accumulated along the prefix
    #: (complete mode only).
    requirements: Tuple[Tuple[int, int], ...] = ()
    #: component -> justifying PI vector from the global re-solve
    #: (complete mode only; paper mode extracts it from the live state).
    input_vectors: Dict[int, Dict] = field(default_factory=dict)


@dataclass
class _Frame:
    net: int
    mark: int
    options: Iterator
    arc: Optional[_Arc]
    #: Obligation count verified justified when the frame opened; an
    #: extension's obligation scan resumes here (justification is
    #: monotone along a trail extension, and rollback to ``mark``
    #: restores exactly the verified prefix).
    justified: int = 0


class PathStream:
    """Iterator over one search run with deterministic stats publication.

    Wraps the finder's generator so that abandoning the iteration early
    (e.g. stopping after N paths) still publishes :class:`SearchStats`
    and the ``delaycalc.*`` counter deltas the moment :meth:`close` runs
    -- instead of whenever the garbage collector finalizes the
    generator, which leaves metric snapshots taken in between silently
    incomplete.  Exhausting the iterator publishes as well; ``close``
    is idempotent.  Usable as a context manager::

        with finder.find_paths() as stream:
            for path in stream:
                ...
    """

    def __init__(self, finder: "PathFinder", inputs: Optional[Sequence[str]]):
        self._finder = finder
        self._gen = finder._iter_paths(inputs)
        self._started = time.perf_counter()
        calc = finder.calc
        self._counters_before = (
            calc.arc_evaluations, calc.arc_cache_hits, calc.arc_cache_misses,
            calc.arc_substitutions,
        )
        self._published = False

    def __iter__(self) -> "PathStream":
        return self

    def __next__(self) -> TimedPath:
        try:
            return next(self._gen)
        except StopIteration:
            self.close()
            raise

    def close(self) -> None:
        """Stop the search (if still running) and publish its stats."""
        if self._published:
            return
        self._published = True
        self._gen.close()
        elapsed = time.perf_counter() - self._started
        self._finder._publish_run(elapsed, self._counters_before)

    def __enter__(self) -> "PathStream":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


class PathFinder:
    """Enumerates true paths with exhaustive vector exploration.

    Parameters
    ----------
    ec / calc:
        Indexed circuit and its delay calculator.
    justify_backtrack_limit:
        Safety cap on justification backtracks per step (None =
        complete; the developed tool runs complete).
    max_paths:
        Stop after this many recorded paths (None = exhaustive).
    n_worst:
        When set, prune extensions that provably cannot reach the
        current N-th worst arrival, using the timing graph's backward
        required-time bound (per-arc worst delays; provably tighter
        than, and dominated-tested against, the legacy per-gate suffix
        sum).
    bounds:
        Precomputed :class:`~repro.core.tgraph.PruneBounds` for the
        ``n_worst`` pruning.  Defaults to ``calc.prune_bounds()``; the
        parallel driver computes the bounds once in the parent process
        and passes them here so worker shards skip the backward pass.
    single_polarity:
        Restrict the trace to one input polarity (``RISING`` or
        ``FALLING``).  The default (None) is the paper's dual-value
        mode; the restriction exists for the ablation that measures
        what the dual-value logic system buys ("avoids passing twice
        through the same path").
    complete:
        The paper's control flow commits to the first justification
        found at each step and never revisits it on a later conflict
        ("jumps to the last saved point"), which can misclassify a few
        sensitizations as false when an early justification choice
        blocks a later requirement.  ``complete=True`` (an extension
        beyond the paper) re-solves the *whole* accumulated requirement
        set per polarity at every step, which is provably complete --
        validated against brute force in the tests -- at roughly the
        cost of one extra justification pass per extension.
    justify_skip:
        Enable the pure-forward-implication fast path that elides the
        per-step justification re-solve when an extension adds no new
        unjustified requirement (on by default; the toggle exists for
        A/B effort measurements in the benchmarks).
    budgets:
        Optional :class:`~repro.resilience.budgets.SearchBudgets`
        (wall-clock / extension / backtrack caps).  An exhausted budget
        stops the search *cleanly*: recorded paths are kept, and
        :attr:`completeness` tags every origin ``complete`` /
        ``partial`` / ``skipped`` so callers can attach sound GBA
        bounds to the unfinished ones (anytime degraded mode).
    """

    def __init__(
        self,
        ec: EngineCircuit,
        calc: DelayCalculator,
        justify_backtrack_limit: Optional[int] = None,
        max_paths: Optional[int] = None,
        n_worst: Optional[int] = None,
        single_polarity: Optional[int] = None,
        complete: bool = False,
        justify_skip: bool = True,
        bounds: Optional[PruneBounds] = None,
        budgets: Optional[SearchBudgets] = None,
        progress: Optional[Callable[["PathFinder"], None]] = None,
    ):
        self.ec = ec
        self.calc = calc
        self.justify_backtrack_limit = justify_backtrack_limit
        self.max_paths = max_paths
        self.n_worst = n_worst
        self.single_polarity = single_polarity
        self.complete = complete
        self.justify_skip = justify_skip
        self.budgets = budgets
        #: Optional heartbeat hook (called with the finder every
        #: :data:`PROGRESS_EXTENSION_INTERVAL` extensions and on every
        #: recorded path); the hook throttles itself on wall clock.
        self.progress = progress
        #: Worst arrival recorded so far (the live "best bound").
        self.best_arrival: Optional[float] = None
        self.completeness = CompletenessReport()
        self._ledger: Optional[BudgetLedger] = None
        self._origin: int = -1
        self.stats = SearchStats()
        self._bounds: Optional[PruneBounds] = None
        self._best: List[float] = []  # min-heap of the N best arrivals
        self._stream: Optional[PathStream] = None
        if n_worst is not None:
            self._bounds = bounds if bounds is not None else calc.prune_bounds()
            # The pruning hot loop reads calc.worst_arc_delay per
            # traversal; with shipped bounds the calculator may not have
            # swept yet, so batch-fill the whole worst-arc table now
            # instead of one lazy per-arc sweep per first read (no-op
            # when the table was seeded or self-built).
            calc.ensure_worst_arc_table()

    # ------------------------------------------------------------------
    def find_paths(
        self, inputs: Optional[Sequence[str]] = None
    ) -> PathStream:
        """Stream every true path (x vector combination) of the circuit.

        ``inputs`` restricts the origins (default: all primary inputs,
        in declaration order).  The returned :class:`PathStream` is a
        plain iterator that additionally supports ``close()`` and the
        context-manager protocol for deterministic stats publication.
        """
        stream = PathStream(self, inputs)
        self._stream = stream
        return stream

    def close(self) -> None:
        """Close (and publish) the most recent :meth:`find_paths` run."""
        if self._stream is not None:
            self._stream.close()

    def __enter__(self) -> "PathFinder":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _publish_run(
        self, elapsed: float, counters_before: Tuple[int, int, int, int]
    ) -> None:
        self.stats.cpu_seconds += elapsed
        name = self.ec.circuit.name
        self.stats.publish(name)
        calc = self.calc
        registry = obs_metrics.REGISTRY
        deltas = (
            ("delaycalc.arc_evaluations",
             calc.arc_evaluations - counters_before[0]),
            ("delaycalc.arc_cache_hits",
             calc.arc_cache_hits - counters_before[1]),
            ("delaycalc.arc_cache_misses",
             calc.arc_cache_misses - counters_before[2]),
            ("delaycalc.arc_substitutions",
             calc.arc_substitutions - counters_before[3]),
        )
        for key, delta in deltas:
            # Register even a zero delta so the snapshot schema is stable.
            registry.counter(key).inc(delta)
            registry.counter(key, circuit=name).inc(delta)

    def _iter_paths(
        self, inputs: Optional[Sequence[str]]
    ) -> Iterator[TimedPath]:
        origin_ids = list(
            self.ec.input_ids
            if inputs is None
            else [self.ec.net_id[name] for name in inputs]
        )
        if self.budgets is not None and self.budgets.bounded():
            self._ledger = BudgetLedger(self.budgets)
        outcomes = self.completeness.origins
        outcomes.clear()
        names = self.ec.net_names
        tripped = False
        try:
            for index, origin in enumerate(origin_ids):
                name = names[origin]
                if self._ledger is not None and self._ledger.exhausted:
                    outcomes[name] = OriginOutcome(name, "skipped")
                    continue
                before = self.stats.paths_found
                # Pre-registered as partial so an abandoned iteration
                # (early close, SIGINT) still reports truthfully.
                outcome = OriginOutcome(name, "partial")
                outcomes[name] = outcome
                yield from self._search_from(origin)
                outcome.paths_found = self.stats.paths_found - before
                if self._ledger is not None and self._ledger.exhausted:
                    if not tripped:
                        tripped = True
                        self.stats.budget_trips += 1
                elif not self._done():
                    outcome.status = "complete"
                if self._done():
                    # The max_paths cap stopped this origin mid-search:
                    # it stays partial, the rest were never visited.
                    self._mark_unvisited(origin_ids[index + 1:])
                    return
        except GeneratorExit:
            self._mark_unvisited(origin_ids)
            raise

    def _mark_unvisited(self, origin_ids: Sequence[int]) -> None:
        """Tag origins never searched this run as ``skipped``."""
        outcomes = self.completeness.origins
        names = self.ec.net_names
        for origin in origin_ids:
            outcomes.setdefault(names[origin],
                                OriginOutcome(names[origin], "skipped"))

    def _done(self) -> bool:
        return self.max_paths is not None and self.stats.paths_found >= self.max_paths

    # ------------------------------------------------------------------
    def _options_for(self, net: int) -> List[Tuple[EngineGate, str, VectorOption]]:
        out = []
        for gate_index, pin in self.ec.sinks[net]:
            gate = self.ec.gates[gate_index]
            for option in gate.options[pin]:
                out.append((gate, pin, option))
        return out

    def _search_from(self, origin: int) -> Iterator[TimedPath]:
        self._origin = origin
        state = EngineState(self.ec)
        state.assign(origin, Value9.RISE, RISING)
        state.assign(origin, Value9.FALL, FALLING)
        if self.single_polarity is not None:
            state.kill(1 - self.single_polarity)
        if not state.propagate():
            return
        root_timing = {
            comp: (0.0, self.calc.input_slew)
            for comp in COMPONENTS
            if state.alive[comp]
        }
        stack: List[_Frame] = [
            _Frame(
                net=origin,
                mark=state.checkpoint(),
                options=iter(self._options_for(origin)),
                arc=_Arc(
                    step=None,  # type: ignore[arg-type]
                    timing=root_timing,
                ),
                justified=len(state.obligations),
            )
        ]
        self.stats.states_saved += 1

        ledger = self._ledger
        progress = self.progress
        while stack:
            frame = stack[-1]
            applied = None
            for gate, pin, option in frame.options:
                state.rollback(frame.mark)
                if ledger is not None and not ledger.charge_extension():
                    return  # budget exhausted: keep recorded paths
                self.stats.extensions_tried += 1
                if (progress is not None and
                        not self.stats.extensions_tried
                        % PROGRESS_EXTENSION_INTERVAL):
                    progress(self)
                if self._prune(frame, gate, pin):
                    self.stats.pruned += 1
                    continue
                with span("pathfinder.step"):
                    arc = self._apply(state, frame, gate, pin, option)
                if ledger is not None and ledger.exhausted:
                    return  # backtrack budget tripped inside the step
                if arc is None:
                    self.stats.conflicts += 1
                    continue
                applied = (gate, arc)
                break
            if applied is None:
                state.rollback(frame.mark)
                stack.pop()
                continue
            gate, arc = applied
            out_net = gate.output_net
            child = _Frame(
                net=out_net,
                mark=state.checkpoint(),
                options=iter(self._options_for(out_net)),
                arc=arc,
                justified=len(state.obligations),
            )
            stack.append(child)
            self.stats.states_saved += 1
            if self.ec.is_output[out_net]:
                path = self._record(state, stack)
                if path is not None:
                    if (self.best_arrival is None
                            or path.worst_arrival > self.best_arrival):
                        self.best_arrival = path.worst_arrival
                    if progress is not None:
                        progress(self)
                    yield path
                    if self._done():
                        return

    # ------------------------------------------------------------------
    def _prune(self, frame: _Frame, gate: EngineGate, pin: str) -> bool:
        """Whether extending through (gate, pin) provably cannot reach
        the current N-th worst arrival.

        The bound on any completion is the traversed arc's own worst
        delay plus the backward required-time bound at the gate output
        -- both maximized over the achievable-slew domain, so pruning
        keeps the top-N set exact.  When the tighter bound fires where
        the legacy per-gate suffix sum would have kept the extension,
        ``bound_prunes`` records the win.
        """
        if self._bounds is None or len(self._best) < (self.n_worst or 0):
            return False
        threshold = self._best[0]
        through = (
            self.calc.worst_arc_delay(gate, pin)
            + self._bounds.required[gate.output_net]
        )
        timing = frame.arc.timing
        for _comp, (arrival, _slew) in timing.items():
            if arrival + through >= threshold:
                return False
        loose = (
            self.calc.worst_gate_delay(gate)
            + self._bounds.suffix[gate.output_net]
        )
        for _comp, (arrival, _slew) in timing.items():
            if arrival + loose >= threshold:
                self.stats.bound_prunes += 1
                break
        return True

    def _apply(
        self,
        state: EngineState,
        frame: _Frame,
        gate: EngineGate,
        pin: str,
        option: VectorOption,
    ) -> Optional[_Arc]:
        for net, bit in option.side_assignments:
            if not state.require_steady(net, bit):
                return None
        if not state.propagate():
            return None

        requirements = frame.arc.requirements + option.side_assignments
        input_vectors: Dict[int, Dict] = {}
        if self.complete:
            if (
                self.justify_skip
                and not option.side_assignments
                and frame.arc.input_vectors
            ):
                # The accumulated requirement set is unchanged, so the
                # parent's per-polarity global re-solve (a deterministic
                # function of origin + requirements alone) still holds;
                # reuse its verdicts and witness vectors.
                self.stats.justify_skipped += 1
                sensitizable = set()
                for comp in frame.arc.timing:
                    if state.alive[comp] and comp in frame.arc.input_vectors:
                        sensitizable.add(comp)
                        input_vectors[comp] = frame.arc.input_vectors[comp]
            else:
                # Global re-solve per polarity: complete, immune to stale
                # justification commitments from earlier steps.
                sensitizable = set()
                with span("pathfinder.justify"):
                    for comp in frame.arc.timing:
                        if not state.alive[comp]:
                            continue
                        vector = self._check_polarity(comp, requirements)
                        if vector is not None:
                            sensitizable.add(comp)
                            input_vectors[comp] = vector
            if not sensitizable:
                return None
        else:
            with span("pathfinder.justify"):
                # Disabled skip == the original control flow: always run
                # the justifier, scanning every obligation from scratch.
                pending = (
                    state.first_unjustified(frame.justified)
                    if self.justify_skip
                    else (0,)
                )
                if pending is None:
                    # Pure-forward extension: every requirement (old and
                    # new) is already implied, so the re-solve would be
                    # a no-op.
                    self.stats.justify_skipped += 1
                else:
                    justifier = Justifier(
                        state,
                        backtrack_limit=self.justify_backtrack_limit,
                        scan_from=pending[0],
                    )
                    result = justifier.justify()
                    self.stats.justification_backtracks += justifier.backtracks
                    self.stats.justification_cubes += justifier.cubes_tried
                    if self._ledger is not None:
                        self._ledger.charge_backtracks(justifier.backtracks)
                    if result is JustifyResult.ABORTED:
                        self.stats.justification_aborts += 1
                        return None
                    if result is not JustifyResult.SAT:
                        return None
            sensitizable = {
                comp for comp in frame.arc.timing if state.alive[comp]
            }

        out_net = gate.output_net
        timing: Dict[int, Tuple[float, float]] = {}
        with span("pathfinder.delaycalc"):
            for comp, (arrival, slew) in frame.arc.timing.items():
                if comp not in sensitizable:
                    continue
                in_value = state.values[comp][frame.net]
                out_value = state.values[comp][out_net]
                if not Value9.is_transition(in_value) or not Value9.is_transition(
                    out_value
                ):
                    continue
                input_rising = in_value == Value9.RISE
                output_rising = out_value == Value9.RISE
                delay, out_slew = self.calc.arc_timing(
                    gate, pin, option.vector.vector_id, input_rising,
                    output_rising, slew
                )
                timing[comp] = (arrival + delay, out_slew)
        if not timing:
            return None
        step = PathStep(
            gate_name=gate.inst.name,
            cell_name=gate.cell.name,
            pin=pin,
            vector_id=option.vector.vector_id,
            case=option.vector.case,
            fo=self.calc.fo[gate.index],
        )
        return _Arc(step=step, timing=timing, requirements=requirements,
                    input_vectors=input_vectors)

    def _check_polarity(
        self, comp: int, requirements: Tuple[Tuple[int, int], ...]
    ) -> Optional[Dict]:
        """Complete-mode satisfiability check of one polarity: a fresh
        solve of the whole requirement set.  Returns a justifying PI
        vector, or None when the polarity is unsensitizable."""
        scratch = EngineState(self.ec)
        scratch.kill(1 - comp)
        scratch.assign(
            self._origin,
            Value9.RISE if comp == RISING else Value9.FALL,
            comp,
        )
        if not scratch.propagate():
            return None
        for net, bit in requirements:
            if not scratch.require_steady(net, bit):
                return None
        if not scratch.propagate():
            return None
        justifier = Justifier(
            scratch,
            backtrack_limit=self.justify_backtrack_limit,
            dynamic=True,
            origin=self._origin,
        )
        result = justifier.justify()
        self.stats.justification_backtracks += justifier.backtracks
        self.stats.justification_cubes += justifier.cubes_tried
        if self._ledger is not None:
            self._ledger.charge_backtracks(justifier.backtracks)
        if result is JustifyResult.ABORTED:
            self.stats.justification_aborts += 1
            return None
        if result is not JustifyResult.SAT:
            return None
        return scratch.input_vector(comp)

    # ------------------------------------------------------------------
    def _record(self, state: EngineState, stack: List[_Frame]) -> Optional[TimedPath]:
        frames = [f for f in stack if f.arc is not None]
        root, rest = frames[0], frames[1:]
        if not rest:
            return None  # degenerate: input is also an output
        nets = tuple(self.ec.net_names[f.net] for f in frames)
        steps = tuple(f.arc.step for f in rest)
        multi_vector = any(
            len(self.ec.gates[self.ec.driver[self.ec.net_id[nets[k + 1]]]].options[
                steps[k].pin
            ]) > 1
            for k in range(len(steps))
        )
        leaf = rest[-1]
        polarity: Dict[int, PolarityTiming] = {}
        for comp, (arrival, slew) in leaf.arc.timing.items():
            if not state.alive[comp]:
                continue
            gate_delays: List[float] = []
            gate_slews: List[float] = []
            previous = 0.0
            complete = True
            for f in rest:
                if comp not in f.arc.timing:
                    complete = False
                    break
                arr, sl = f.arc.timing[comp]
                gate_delays.append(arr - previous)
                gate_slews.append(sl)
                previous = arr
            if not complete:
                continue
            out_value = state.values[comp][leaf.net]
            input_vector = (
                leaf.arc.input_vectors[comp]
                if self.complete
                else state.input_vector(comp)
            )
            polarity[comp] = PolarityTiming(
                input_rising=comp == RISING,
                output_rising=out_value == Value9.RISE,
                arrival=arrival,
                slew=slew,
                gate_delays=gate_delays,
                gate_slews=gate_slews,
                input_vector=input_vector,
            )
        if not polarity:
            return None
        path = TimedPath(
            circuit_name=self.ec.circuit.name,
            nets=nets,
            steps=steps,
            rise=polarity.get(RISING),
            fall=polarity.get(FALLING),
            multi_vector=multi_vector,
        )
        self.stats.paths_found += 1
        if self.n_worst is not None:
            heapq.heappush(self._best, path.worst_arrival)
            if len(self._best) > self.n_worst:
                heapq.heappop(self._best)
        return path
