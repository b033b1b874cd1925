"""Incremental STA session: dirty-cone re-analysis across netlist edits.

Every other entry point in the repo is batch: one circuit in, one
analysis out, and an edit (gate resize, cell swap) means rebuilding the
whole pipeline -- engine indexing, arc resolution, slew fixed point,
forward/backward sweeps, SoA compilation.  :class:`IncrementalSTA`
keeps all of that state alive across edits and, after a pin-compatible
:meth:`replace_cell`, repairs only what the edit actually touched:

* **Dirty gates.**  A swap of gate ``g`` changes the timing of ``g``
  itself (new models, new ``mean_cap`` denominator in its equivalent
  fanout) *and* of every gate driving one of ``g``'s input nets (their
  output load includes ``g``'s input-pin caps).  Everything keyed off
  those gates' arcs is invalidated surgically:
  :meth:`DelayCalculator.invalidate_gates` drops the per-gate memos
  while the cell-name-keyed arc cache survives,
  :meth:`DelayCalculator.refresh_fanout` re-derives their equivalent
  fanouts, and :meth:`TimingArrays.patch_gate` rewrites the edited
  gate's SoA records in place instead of recompiling the graph.

* **Forward cone.**  Arrivals/slews are re-propagated from the dirty
  gates' output nets through the transitive fanout, one net at a time
  in level order (:meth:`TimingGraph.forward_update_net`), stopping as
  soon as a net's recomputed slots equal its prior values -- float
  ``max`` over a fixed multiset is order-independent and the per-arc
  arithmetic is the same IEEE doubles the full pass performs, so the
  repaired :class:`ForwardTiming` is *byte-identical* to a from-scratch
  pass (the ``incremental_identical`` metamorphic law pins this).

* **Backward cone.**  The per-net required-time and suffix bounds are
  re-propagated through the transitive fanin in descending level order
  (:meth:`TimingGraph.required_through_net` /
  :meth:`~TimingGraph.suffix_through_net`), again stopping on
  convergence; cached :class:`PruneBounds` are dropped only when a
  bound actually moved.

* **Slew fixed point.**  The achievable-slew ceiling
  (:meth:`DelayCalculator.bound_slews`) is a global fixed point, but
  its rounds only need the *worst* output slew per sample grid -- so
  the session keeps a per-gate peak table per grid and re-evaluates
  only dirty gates per edit.  When the resulting sample tuple differs
  from the active one, every fitted worst-delay value in the circuit is
  stale and the session falls back to a counted full rebuild
  (``incremental.full_rebuilds``).

N-worst path reports are memoized per session version (edits bump the
version); a cached report whose cone was touched is simply dropped --
paths entering or leaving the top-N cannot be patched locally.

``full_rebuild=True`` turns the session into its own A/B reference:
every edit tears down all derived state and re-analyzes from scratch
through the identical code paths, which is what the CI smoke job diffs
against at 0% drift.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DEFAULT_INPUT_SLEW, DelayCalculator
from repro.core.engine import CellEvaluator, EngineCircuit, EngineGate, VectorOption
from repro.core.path import TimedPath
from repro.core.pathfinder import PathFinder
from repro.core.tgraph import ForwardTiming
from repro.gates.cell import Cell
from repro.netlist.circuit import Circuit
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span
from repro.resilience.budgets import SearchBudgets


@dataclass
class EditReport:
    """What one edit's re-analysis actually touched."""

    gate_name: str
    from_cell: str
    to_cell: str
    #: Nets whose forward slots were recomputed (== gates re-swept).
    cone_gates: int
    #: Nets whose backward bounds were recomputed.
    backward_nets: int
    #: Distinct graph levels visited, forward + backward.
    levels_reswept: int
    forward_changed: bool
    backward_changed: bool
    full_rebuild: bool
    #: Session version after this edit (N-worst memo key).
    version: int


class IncrementalSTA:
    """Persistent analysis session over one mutable circuit.

    Drop-in timing oracle for optimization loops: construct once, then
    interleave :meth:`replace_cell` / :meth:`resize` edits with
    :meth:`worst_path` / :meth:`n_worst_paths` queries.  All results
    are byte-identical to a fresh :class:`~repro.core.sta.TruePathSTA`
    built on the circuit's current state.
    """

    def __init__(
        self,
        circuit: Circuit,
        charlib: CharacterizedLibrary,
        temp: float = 25.0,
        vdd: Optional[float] = None,
        input_slew: float = DEFAULT_INPUT_SLEW,
        missing_arc_policy: str = "error",
        full_rebuild: bool = False,
    ):
        circuit.check()
        self.circuit = circuit
        self.charlib = charlib
        self.ec = EngineCircuit(circuit)
        self.calc = DelayCalculator(
            self.ec, charlib, temp=temp, vdd=vdd, input_slew=input_slew,
            missing_arc_policy=missing_arc_policy,
        )
        self.tg = self.ec.tgraph
        #: Scratch mode: every edit re-derives all state (CI reference).
        self.full_rebuild = bool(full_rebuild)
        #: Bumped per edit; keys the N-worst memo.
        self.version = 0
        self._timing: Optional[ForwardTiming] = None
        self._gate_index: Dict[str, int] = {
            g.inst.name: g.index for g in self.ec.gates
        }
        self._evaluators: Dict[str, CellEvaluator] = {
            g.cell.name: g.evaluator for g in self.ec.gates
        }
        #: sample grid -> per-gate worst output slew over that grid.
        self._slew_peaks: Dict[Tuple[float, ...], List[float]] = {}
        #: sample grid -> gate indices whose peak entry is stale.  An
        #: edit marks its dirty gates stale in *every* cached grid (a
        #: later edit's fixed point may revisit a grid this edit's
        #: replay never touched); entries recompute lazily on read.
        self._peaks_stale: Dict[Tuple[float, ...], Set[int]] = {}
        #: (n, max_paths) -> (version, paths).
        self._nworst_memo: Dict[
            Tuple[int, Optional[int]], Tuple[int, List[TimedPath]]
        ] = {}
        self._distinct_levels = len(set(self.tg.levels))
        obs_metrics.REGISTRY.gauge("incremental.graph_levels").set(
            self._distinct_levels
        )

    # ------------------------------------------------------------------
    # baseline analysis
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Ensure the session's derived timing state is current.

        Lazy: the initial full analysis runs on first query or first
        edit, not in the constructor."""
        if self._timing is not None:
            return
        with span("incremental.initial_analysis"):
            if self.full_rebuild:
                self.calc.bound_slews()
            elif self.calc._bound_slews is None:
                # Same rounds over the same multiset as the stock fixed
                # point, but retains the per-gate peak tables so later
                # edits re-evaluate only dirty gates.
                self.calc._bound_slews = self._slew_fixed_point()
            self._timing = self.tg.forward_arrivals(self.calc)
            self.calc.ensure_worst_arc_table()
            self.calc.required_bounds()
            self.calc.remaining_bounds()

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    def replace_cell(
        self, inst_name: str, new_cell: Union[str, Cell]
    ) -> EditReport:
        """Swap one instance's cell for a pin-compatible variant and
        repair the analysis state.  The underlying ``Circuit`` is
        mutated in place (same contract as
        :func:`repro.core.sizing.replace_cell`), so a fresh analysis of
        the circuit object sees the edit too."""
        index = self._gate_index.get(inst_name)
        if index is None:
            raise KeyError(f"unknown instance {inst_name!r}")
        gate = self.ec.gates[index]
        if isinstance(new_cell, str):
            new_cell = self.circuit.library[new_cell]
        if new_cell.inputs != gate.cell.inputs:
            raise ValueError(
                f"{new_cell.name} is not pin-compatible with {gate.cell.name}"
            )
        self.refresh()  # baseline must reflect the pre-edit circuit
        from_cell = gate.cell.name
        self._patch_engine_gate(gate, new_cell)
        return self._after_edit(gate, from_cell)

    def resize(self, inst_name: str, variant_suffix: str = "_X2") -> EditReport:
        """Drive-strength resize: swap to ``<cell><suffix>`` from the
        circuit's library."""
        index = self._gate_index.get(inst_name)
        if index is None:
            raise KeyError(f"unknown instance {inst_name!r}")
        variant = f"{self.ec.gates[index].cell.name}{variant_suffix}"
        if variant not in self.circuit.library:
            raise ValueError(
                f"library has no drive variant {variant!r} for {inst_name}"
            )
        return self.replace_cell(inst_name, variant)

    def _patch_engine_gate(self, gate: EngineGate, new_cell: Cell) -> None:
        """Mutate the indexed gate in place (cell, evaluator, vector
        options) so every live reference -- SoA record lookups, the
        pathfinder's gate table -- sees the new cell without
        re-indexing.  ``input_nets`` survives: pin compatibility means
        the cells' input tuples are equal."""
        inst = gate.inst
        inst.cell = new_cell
        self.circuit._topo_cache = None
        gate.cell = new_cell
        evaluator = self._evaluators.get(new_cell.name)
        if evaluator is None:
            evaluator = CellEvaluator(new_cell)
            self._evaluators[new_cell.name] = evaluator
        gate.evaluator = evaluator
        options: Dict[str, List[VectorOption]] = {}
        for pin in new_cell.inputs:
            opts = []
            for vec in new_cell.sensitization_vectors(pin):
                side = tuple(
                    (self.ec.net_id[inst.pins[side_pin]], bit)
                    for side_pin, bit in sorted(vec.side_values.items())
                )
                opts.append(VectorOption(vec, side, vec.inverting))
            options[pin] = opts
        gate.options = options

    # ------------------------------------------------------------------
    def _dirty_gates(self, gate: EngineGate) -> List[int]:
        """The edited gate plus every gate driving one of its input
        nets (their output load includes the edited gate's pin caps)."""
        dirty = {gate.index}
        for net in gate.input_nets:
            driver = self.ec.driver[net]
            if driver >= 0:
                dirty.add(driver)
        return sorted(dirty)

    def _after_edit(self, gate: EngineGate, from_cell: str) -> EditReport:
        started = time.perf_counter()
        registry = obs_metrics.REGISTRY
        registry.counter("incremental.edits").inc()
        dirty = self._dirty_gates(gate)
        calc = self.calc
        calc.invalidate_gates(dirty, keep_bounds=True)
        calc.refresh_fanout(dirty)
        with span("incremental.refresh"):
            if self.full_rebuild:
                report = self._refresh_full(gate, from_cell, scratch=True)
            else:
                for stale in self._peaks_stale.values():
                    stale.update(dirty)
                if (calc._tarrays is not None
                        and not calc._tarrays.patch_gate(gate.index)):
                    registry.counter("incremental.soa_recompiles").inc()
                new_slews = self._slew_fixed_point()
                if new_slews != calc._bound_slews:
                    # The achievable-slew domain moved: every fitted
                    # worst-delay sweep in the circuit is stale, which
                    # is exactly the case incremental repair cannot
                    # bound.  Count it and rebuild.
                    report = self._refresh_full(
                        gate, from_cell, new_slews=new_slews
                    )
                else:
                    report = self._refresh_cone(gate, from_cell, dirty)
        registry.histogram("incremental.refresh_ms").observe(
            (time.perf_counter() - started) * 1e3
        )
        self.version += 1
        report.version = self.version
        return report

    # ------------------------------------------------------------------
    # cone repair
    # ------------------------------------------------------------------
    def _refresh_cone(
        self, gate: EngineGate, from_cell: str, dirty: List[int]
    ) -> EditReport:
        calc = self.calc
        registry = obs_metrics.REGISTRY
        levels = self.tg.levels
        timing = self._timing

        # Forward: re-propagate arrivals/slews from the dirty gates'
        # output nets in ascending level order.  Levels strictly
        # increase along arcs, so by the time a net pops every source
        # that can still change has already been finalized -- each net
        # is recomputed at most once.
        heap: List[Tuple[int, int]] = []
        queued: Set[int] = set()
        for index in dirty:
            net = self.ec.gates[index].output_net
            if net not in queued:
                queued.add(net)
                heapq.heappush(heap, (levels[net], net))
        cone_gates = 0
        forward_levels: Set[int] = set()
        forward_changed = False
        while heap:
            level, net = heapq.heappop(heap)
            cone_gates += 1
            forward_levels.add(level)
            if self.tg.forward_update_net(calc, net, timing):
                forward_changed = True
                for arc in self.tg.fanout[net]:
                    dst = self.ec.gates[arc.gate_index].output_net
                    if dst not in queued:
                        queued.add(dst)
                        heapq.heappush(heap, (levels[dst], dst))

        # Backward: re-propagate the required/suffix bounds from the
        # dirty gates' input nets in *descending* level order (every
        # influence on a net sits at a strictly higher level, so the
        # max-heap finalizes all of them before the net pops).
        # Batch-refill the worst-arc holes the invalidation opened
        # before the per-net sweep reads them one by one.
        calc.ensure_worst_arc_table()
        required = calc.required_bounds()
        suffix = calc.remaining_bounds()
        bheap: List[Tuple[int, int]] = []
        bqueued: Set[int] = set()
        for index in dirty:
            for net in self.ec.gates[index].input_nets:
                if net not in bqueued:
                    bqueued.add(net)
                    heapq.heappush(bheap, (-levels[net], net))
        backward_nets = 0
        backward_levels: Set[int] = set()
        backward_changed = False
        while bheap:
            neg_level, net = heapq.heappop(bheap)
            backward_nets += 1
            backward_levels.add(-neg_level)
            new_req = self.tg.required_through_net(calc, net, required)
            new_suf = self.tg.suffix_through_net(calc, net, suffix)
            if new_req == required[net] and new_suf == suffix[net]:
                continue
            backward_changed = True
            required[net] = new_req
            suffix[net] = new_suf
            for arc in self.tg.fanin[net]:
                gate_in = self.ec.gates[arc.gate_index]
                for src in gate_in.input_nets:
                    if src not in bqueued:
                        bqueued.add(src)
                        heapq.heappush(bheap, (-levels[src], src))
        if backward_changed:
            calc._prune_bounds = None

        levels_reswept = len(forward_levels) + len(backward_levels)
        registry.counter("incremental.cone_gates").inc(cone_gates)
        registry.counter("incremental.levels_reswept").inc(levels_reswept)
        return EditReport(
            gate_name=gate.inst.name,
            from_cell=from_cell,
            to_cell=gate.cell.name,
            cone_gates=cone_gates,
            backward_nets=backward_nets,
            levels_reswept=levels_reswept,
            forward_changed=forward_changed,
            backward_changed=backward_changed,
            full_rebuild=False,
            version=self.version,
        )

    def _refresh_full(
        self,
        gate: EngineGate,
        from_cell: str,
        new_slews: Optional[Tuple[float, ...]] = None,
        scratch: bool = False,
    ) -> EditReport:
        calc = self.calc
        registry = obs_metrics.REGISTRY
        registry.counter("incremental.full_rebuilds").inc()
        calc._worst_arc_cache.clear()
        calc._worst_delay_cache.clear()
        calc._worst_table_complete = False
        calc._required_bounds = None
        calc._remaining_bounds = None
        calc._prune_bounds = None
        if scratch:
            calc._gate_arcs_cache.clear()
            calc._pin_arcs_cache.clear()
            calc._tarrays = None
            calc._bound_slews = None
            self._slew_peaks.clear()
            self._peaks_stale.clear()
            calc.bound_slews()
        else:
            calc._bound_slews = new_slews
        self._timing = self.tg.forward_arrivals(calc)
        calc.ensure_worst_arc_table()
        calc.required_bounds()
        calc.remaining_bounds()
        levels_reswept = 2 * self._distinct_levels
        registry.counter("incremental.cone_gates").inc(len(self.ec.gates))
        registry.counter("incremental.levels_reswept").inc(levels_reswept)
        return EditReport(
            gate_name=gate.inst.name,
            from_cell=from_cell,
            to_cell=gate.cell.name,
            cone_gates=len(self.ec.gates),
            backward_nets=self.ec.num_nets,
            levels_reswept=levels_reswept,
            forward_changed=True,
            backward_changed=True,
            full_rebuild=True,
            version=self.version,
        )

    # ------------------------------------------------------------------
    # slew fixed point with per-gate peak tables
    # ------------------------------------------------------------------
    def _slew_fixed_point(self) -> Tuple[float, ...]:
        """:meth:`DelayCalculator.slew_fixed_point` with each round's
        worst slew read from a per-gate peak table, so only dirty gates
        re-evaluate per edit.  The max over per-gate peaks is the max
        over the identical (arc, sample) multiset a fresh calculator
        sweeps, so the returned tuple is bitwise the one it derives."""
        return self.calc.slew_fixed_point(
            lambda samples: max(self._gate_peaks(samples), default=0.0)
        )

    def _gate_peaks(self, samples: Tuple[float, ...]) -> List[float]:
        peaks = self._slew_peaks.get(samples)
        arrays = self.calc.tarrays
        if peaks is None:
            peaks = arrays.slew_peaks(samples)
            self._slew_peaks[samples] = peaks
            self._peaks_stale[samples] = set()
            return peaks
        stale = self._peaks_stale[samples]
        if stale:
            indices = sorted(stale)
            for index, value in zip(
                indices, arrays.slew_peaks(samples, indices)
            ):
                peaks[index] = value
            stale.clear()
        return peaks

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def arrivals(self) -> List[List[Optional[float]]]:
        """Per-net ``[rise, fall]`` worst arrivals (GBA semantics)."""
        self.refresh()
        return self._timing.arrivals

    def slews(self) -> List[List[Optional[float]]]:
        self.refresh()
        return self._timing.slews

    def required_bounds(self) -> List[float]:
        self.refresh()
        return self.calc.required_bounds()

    def suffix_bounds(self) -> List[float]:
        self.refresh()
        return self.calc.remaining_bounds()

    def n_worst_paths(
        self,
        n: int,
        max_paths: Optional[int] = None,
        budgets: Optional[SearchBudgets] = None,
    ) -> List[TimedPath]:
        """The N slowest true paths, worst first; memoized per session
        version.  Budgeted searches bypass the memo (their results are
        effort-dependent, not pure functions of the circuit)."""
        self.refresh()
        key = (n, max_paths)
        if budgets is None:
            cached = self._nworst_memo.get(key)
            if cached is not None and cached[0] == self.version:
                obs_metrics.REGISTRY.counter(
                    "incremental.nworst_cache_hits"
                ).inc()
                return list(cached[1])
        finder = PathFinder(
            self.ec, self.calc,
            max_paths=max_paths, n_worst=n, budgets=budgets,
        )
        with finder.find_paths() as stream:
            paths = list(stream)
        paths.sort(key=lambda p: p.worst_arrival, reverse=True)
        paths = paths[:n]
        if budgets is None:
            self._nworst_memo[key] = (self.version, list(paths))
        return paths

    def worst_path(
        self,
        max_paths: Optional[int] = None,
        budgets: Optional[SearchBudgets] = None,
    ) -> TimedPath:
        paths = self.n_worst_paths(1, max_paths=max_paths, budgets=budgets)
        if not paths:
            raise ValueError("circuit has no true paths")
        return paths[0]
