"""Incremental STA: dirty-cone re-analysis across netlist edits.

An edit (gate resize, cell swap) rebuilt from scratch means the whole
pipeline again -- engine indexing, arc resolution, slew fixed point,
forward/backward sweeps.  A :class:`~repro.core.sta.TruePathSTA`
session keeps all of that state alive across edits and, after a
pin-compatible :meth:`~repro.core.sta.TruePathSTA.replace_cell`, the
functions here repair only what the edit actually touched:

* **Dirty gates.**  A swap of gate ``g`` changes the timing of ``g``
  itself (new models, new ``mean_cap`` denominator in its equivalent
  fanout) *and* of every gate driving one of ``g``'s input nets (their
  output load includes ``g``'s input-pin caps).  The one edit hook,
  :meth:`DelayCalculator.invalidate_gates`, forgets what those gates
  stale: it re-derives their equivalent fanouts and drops their
  per-gate memos (the cell-name-keyed arc cache survives).

* **Forward cone.**  Arrivals/slews are re-propagated from the dirty
  gates' output nets through the transitive fanout, one net at a time
  in level order (:meth:`TimingGraph.forward_update_net`), stopping as
  soon as a net's recomputed slots equal its prior values -- the full
  pass (:meth:`TimingGraph.forward_arrivals`) runs the same per-net
  kernel over every driven net, and float ``max`` over a fixed multiset
  is order-independent, so the repaired :class:`ForwardTiming` is
  *byte-identical* to a from-scratch pass (the ``incremental_identical``
  metamorphic law pins this).

* **Backward cone.**  The per-net required-time and suffix bounds are
  re-propagated through the transitive fanin in descending level order
  (:meth:`TimingGraph.required_through_net` /
  :meth:`~TimingGraph.suffix_through_net`), again stopping on
  convergence -- the full passes
  (:meth:`TimingGraph.backward_required_bounds`,
  :meth:`DelayCalculator.remaining_bounds`) run the same two kernels
  over every net, so the repaired bounds are byte-identical too.  The
  worst-arc entries the edit hook dropped are refilled by one grid
  sweep on their first read; the cached :class:`PruneBounds` snapshot
  is dropped on every edit.

* **Slew fixed point.**  The achievable-slew ceiling
  (:meth:`DelayCalculator.bound_slews`) is a global fixed point, but
  its rounds only need the *worst* output slew per sample grid -- so
  the calculator keeps a per-gate peak table per grid and the edit
  hook re-evaluates only dirty gates.  When the resulting sample tuple
  differs from the active one, every fitted worst-delay value in the
  circuit is stale, the hook says so, and the session falls back to a
  counted full rebuild (``incremental.full_rebuilds``).

N-worst path reports are memoized per session version
(:meth:`~repro.core.sta.TruePathSTA.n_worst_paths`; edits bump the
version); a cached report whose cone was touched is simply dropped --
paths entering or leaving the top-N cannot be patched locally.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.core.engine import EngineGate
from repro.core.sta import TruePathSTA
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span


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


def full_sweep(session: TruePathSTA) -> None:
    """The session's forward timing, plus every calculator table not
    built yet (slew grid, both per-net bounds and, with them, the
    worst-arc table): the initial analysis, and the counted rebuild
    after the hook reported a slew-domain move (which drops the
    forward timing first)."""
    calc = session.calc
    calc.bound_slews()
    session._forward()
    calc.required_bounds()
    calc.remaining_bounds()


def repair(session: TruePathSTA, gate: EngineGate,
           from_cell: str) -> EditReport:
    """Repair ``session`` after ``gate`` was swapped from ``from_cell``
    to its current cell (the caller bumps the session version)."""
    started = time.perf_counter()
    registry = obs_metrics.REGISTRY
    registry.counter("incremental.edits").inc()
    dirty = _dirty_gates(session, gate)
    with span("incremental.refresh"):
        if session.calc.invalidate_gates(dirty):
            # The achievable-slew domain moved: every fitted
            # worst-delay sweep in the circuit is stale, which is
            # exactly the case incremental repair cannot bound.
            # Count it and rebuild.
            report = _refresh_full(session, gate, from_cell)
        else:
            report = _refresh_cone(session, gate, from_cell, dirty)
    registry.histogram("incremental.refresh_ms").observe(
        (time.perf_counter() - started) * 1e3
    )
    return report


def _dirty_gates(session: TruePathSTA, gate: EngineGate) -> List[int]:
    """The edited gate plus every gate driving one of its input nets
    (their output load includes the edited gate's pin caps)."""
    dirty = {gate.index}
    for net in gate.input_nets:
        driver = session.ec.driver[net]
        if driver >= 0:
            dirty.add(driver)
    return sorted(dirty)


# ----------------------------------------------------------------------
# cone repair
# ----------------------------------------------------------------------
def _refresh_cone(session: TruePathSTA, gate: EngineGate, from_cell: str,
                  dirty: List[int]) -> EditReport:
    ec, calc = session.ec, session.calc
    tg = ec.tgraph
    registry = obs_metrics.REGISTRY
    levels = tg.levels
    timing = session._timing

    # Forward: re-propagate arrivals/slews from the dirty gates' output
    # nets in ascending level order.  Levels strictly increase along
    # arcs, so by the time a net pops every source that can still
    # change has already been finalized -- each net is recomputed at
    # most once.
    heap: List[Tuple[int, int]] = []
    queued: Set[int] = set()
    for index in dirty:
        net = ec.gates[index].output_net
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
        if tg.forward_update_net(calc, net, timing):
            forward_changed = True
            for arc in tg.fanout[net]:
                dst = ec.gates[arc.gate_index].output_net
                if dst not in queued:
                    queued.add(dst)
                    heapq.heappush(heap, (levels[dst], dst))

    # Backward: re-propagate the required/suffix bounds from the dirty
    # gates' input nets in *descending* level order (every influence on
    # a net sits at a strictly higher level, so the max-heap finalizes
    # all of them before the net pops).  The first read of a worst-arc
    # hole the invalidation opened refills all of them in one sweep.
    required = calc.required_bounds()
    suffix = calc.remaining_bounds()
    bheap: List[Tuple[int, int]] = []
    bqueued: Set[int] = set()
    for index in dirty:
        for net in ec.gates[index].input_nets:
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
        new_req = tg.required_through_net(calc, net, required)
        new_suf = tg.suffix_through_net(calc, net, suffix)
        if new_req == required[net] and new_suf == suffix[net]:
            continue
        backward_changed = True
        required[net] = new_req
        suffix[net] = new_suf
        for arc in tg.fanin[net]:
            gate_in = ec.gates[arc.gate_index]
            for src in gate_in.input_nets:
                if src not in bqueued:
                    bqueued.add(src)
                    heapq.heappush(bheap, (-levels[src], src))

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
        version=session.version,
    )


def _refresh_full(session: TruePathSTA, gate: EngineGate,
                  from_cell: str) -> EditReport:
    ec = session.ec
    registry = obs_metrics.REGISTRY
    registry.counter("incremental.full_rebuilds").inc()
    session._timing = None
    full_sweep(session)
    levels_reswept = 2 * len(set(ec.tgraph.levels))
    registry.counter("incremental.cone_gates").inc(len(ec.gates))
    registry.counter("incremental.levels_reswept").inc(levels_reswept)
    return EditReport(
        gate_name=gate.inst.name,
        from_cell=from_cell,
        to_cell=gate.cell.name,
        cone_gates=len(ec.gates),
        backward_nets=ec.num_nets,
        levels_reswept=levels_reswept,
        forward_changed=True,
        backward_changed=True,
        full_rebuild=True,
        version=session.version,
    )


# The session's old name, which bench/workloads.py still imports.
IncrementalSTA = TruePathSTA
