"""Levelized timing-graph substrate shared by all three analysis engines.

The developed single-pass pathfinder, the two-step commercial baseline
and the conservative GBA mode all analyze the same object: a DAG of
nets connected by *timing arcs* (one arc per gate input pin, from the
pin's net to the gate's output net).  Before this module each engine
rebuilt its own private adjacency -- the engine its ``sinks`` table, the
baseline enumerator its own walk of that table, GBA a name-keyed dict
traversal.  :class:`TimingGraph` computes the shared representation
once per circuit:

* net levelization (primary inputs at level 0) and the net/gate
  topological order,
* first-class :class:`TimingArc` objects with per-net fanout/fanin
  indexes (the engine's ``sinks`` table is a view of these),
* a **forward worst-arrival pass** (what GBA reports),
* a **backward required-time pass** producing, per net, an admissible
  upper bound on the remaining delay from that net to any primary
  output -- maximized over the net's outgoing arcs and over the
  achievable-slew domain (:meth:`DelayCalculator.bound_slews`).

The backward bound is strictly tighter than the legacy context-free
suffix sum (per-gate worst delay maximized over *every* pin of the
gate, regardless of which pin the path enters through): each arc
contributes only the delays its own pin can exhibit.  Both bounds are
admissible, and dominance (``required <= suffix`` per net) is pinned by
property tests, so swapping the pathfinder's N-worst pruning onto the
backward bound prunes strictly more while provably returning the same
top-N set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span

if TYPE_CHECKING:  # avoid import cycles; tgraph is imported from netlist
    from repro.core.delaycalc import DelayCalculator
    from repro.core.engine import EngineCircuit
    from repro.netlist.circuit import Circuit


def net_levels(circuit: "Circuit") -> Dict[str, int]:
    """Level of every net: primary inputs are 0, a gate output is one
    more than its deepest input net.

    This is the single levelization implementation in the repo;
    :func:`repro.netlist.levelize.levelize` and the per-circuit
    :class:`TimingGraph` both delegate here.
    """
    levels: Dict[str, int] = {name: 0 for name in circuit.inputs}
    for inst in circuit.topological():
        level = 0
        for net_name in inst.pins.values():
            level = max(level, levels.get(net_name, 0))
        levels[inst.output_net] = level + 1
    return levels


@dataclass(frozen=True)
class TimingArc:
    """One net-to-net edge of the timing graph.

    An arc is a (gate, input pin) pair viewed as a graph edge: the
    search traverses it, GBA relaxes over it, and the backward pass
    bounds it.  Delay *models* stay in the characterized library; the
    arc object only identifies the traversal.
    """

    index: int
    gate_index: int
    pin: str
    src_net: int
    dst_net: int


@dataclass(frozen=True)
class PruneBounds:
    """Per-net upper bounds on the remaining input-to-output delay.

    ``required`` is the backward required-time bound (per-arc worst
    delays); ``suffix`` is the legacy context-free per-gate suffix sum.
    Both are admissible; ``required[net] <= suffix[net]`` everywhere.
    The pathfinder prunes on ``required`` and uses ``suffix`` to count
    how many prunes the tighter bound won (``pathfinder.bound_prunes``).
    The object is a plain pair of float tuples so the parallel driver
    can compute it once in the parent and ship it to worker shards.
    """

    required: Tuple[float, ...]
    suffix: Tuple[float, ...]


@dataclass
class ForwardTiming:
    """Worst-case arrivals/slews from one forward pass (GBA semantics).

    Indexed by net id; polarity slots are ``[rise, fall]``; ``None``
    marks an unreachable polarity.
    """

    arrivals: List[List[Optional[float]]]
    slews: List[List[Optional[float]]]


class TimingGraph:
    """Static levelized timing graph of one indexed circuit.

    Built once per :class:`~repro.core.engine.EngineCircuit` (lazily,
    via ``ec.tgraph``) and shared by every engine bound to it.
    """

    def __init__(self, ec: "EngineCircuit"):
        self.ec = ec
        n_nets = ec.num_nets

        #: All timing arcs, gate-major in topological gate order.
        self.arcs: List[TimingArc] = []
        #: net id -> outgoing arcs (the engine's fanout adjacency).
        self.fanout: List[List[TimingArc]] = [[] for _ in range(n_nets)]
        #: net id -> incoming arcs (what the forward pass relaxes over).
        self.fanin: List[List[TimingArc]] = [[] for _ in range(n_nets)]
        #: net id -> list of (gate index, pin) -- the exact ``sinks``
        #: table the search hot loop indexes (kept materialized so the
        #: substrate swap costs the hot path nothing).
        self.sinks: List[List[Tuple[int, str]]] = [[] for _ in range(n_nets)]
        for gate in ec.gates:  # already topological
            for pin, src in zip(gate.cell.inputs, gate.input_nets):
                arc = TimingArc(
                    index=len(self.arcs),
                    gate_index=gate.index,
                    pin=pin,
                    src_net=src,
                    dst_net=gate.output_net,
                )
                self.arcs.append(arc)
                self.fanout[src].append(arc)
                self.fanin[gate.output_net].append(arc)
                self.sinks[src].append((gate.index, pin))

        #: net id -> level (primary inputs at 0).
        name_levels = net_levels(ec.circuit)
        self.levels: List[int] = [
            name_levels.get(name, 0) for name in ec.net_names
        ]
        self.depth: int = max(self.levels, default=0)
        #: Net ids in non-decreasing level order (a valid topological
        #: order of the nets).
        self.topo_nets: List[int] = sorted(
            range(n_nets), key=self.levels.__getitem__
        )

    # ------------------------------------------------------------------
    def forward_arrivals(self, calc: "DelayCalculator") -> ForwardTiming:
        """One levelized worst-arrival pass (GBA semantics).

        Every arc contributes its structurally worst sensitization
        vector per polarity -- no joint sensitizability check, which is
        exactly the pessimism the true-path engines remove.  Arrivals
        and slews are maximized *independently* per output polarity:
        the propagated slew must be the worst any contributing arc can
        emit, not the slew of whichever arc happened to arrive latest
        (a latest-arrival slew can under-estimate downstream delays and
        break the GBA >= true-path soundness invariant; see
        ``tests/test_gba_slew_soundness.py``).  A missing library arc
        raises :class:`~repro.core.delaycalc.MissingArcsError` under
        the ``error`` policy the moment a reachable polarity traverses
        it, like every other engine.

        Runs the structure-of-arrays sweep
        (:meth:`TimingArrays.forward_arrivals
        <repro.core.tarrays.TimingArrays.forward_arrivals>`).
        Wall-clock is published to the ``tgraph.forward_pass_ms``
        histogram.
        """
        started = time.perf_counter()
        with span("tgraph.forward_pass"):
            timing = calc.tarrays.forward_arrivals()
        obs_metrics.REGISTRY.histogram("tgraph.forward_pass_ms").observe(
            (time.perf_counter() - started) * 1e3
        )
        return timing

    # ------------------------------------------------------------------
    # per-net recompute primitives (incremental dirty-cone re-analysis)
    # ------------------------------------------------------------------
    def forward_update_net(
        self,
        calc: "DelayCalculator",
        net: int,
        timing: ForwardTiming,
    ) -> bool:
        """Recompute one driven net's worst arrival/slew slots in place.

        Evaluates every (fanin arc x sensitization option x reachable
        input polarity) traversal of this net one :meth:`arc_timing
        <repro.core.delaycalc.DelayCalculator.arc_timing>` call at a
        time, reading the (already final) arrivals/slews of the net's
        fanin sources from ``timing`` and overwriting the net's own
        slots.  Because float ``max`` over a fixed multiset is
        order-independent and the per-record arithmetic is the same IEEE
        doubles the full pass performs, the updated slots are
        bitwise-equal to a from-scratch pass -- this is the primitive
        :class:`~repro.core.incremental.IncrementalSTA` sweeps over the
        dirty cone, and the reference forward pass in
        :mod:`repro.verify.metamorphic` applies it to every driven net
        in level order.  Returns True when either polarity slot changed
        (including reachability flips, which a function-changing cell
        swap can cause).
        """
        arrivals, slews = timing.arrivals, timing.slews
        out_arr: List[Optional[float]] = [None, None]
        out_slew: List[Optional[float]] = [None, None]
        gates = self.ec.gates
        for arc in self.fanin[net]:
            gate = gates[arc.gate_index]
            in_arr = arrivals[arc.src_net]
            in_slew = slews[arc.src_net]
            for option in gate.options[arc.pin]:
                vector = option.vector
                for in_pol in (0, 1):
                    if in_arr[in_pol] is None:
                        continue
                    input_rising = in_pol == 0
                    output_rising = input_rising ^ vector.inverting
                    out_pol = 0 if output_rising else 1
                    delay, slew = calc.arc_timing(
                        gate, arc.pin, vector.vector_id,
                        input_rising, output_rising,
                        in_slew[in_pol],
                    )
                    arrival = in_arr[in_pol] + delay
                    if out_arr[out_pol] is None or arrival > out_arr[out_pol]:
                        out_arr[out_pol] = arrival
                    if out_slew[out_pol] is None or slew > out_slew[out_pol]:
                        out_slew[out_pol] = slew
        changed = out_arr != arrivals[net] or out_slew != slews[net]
        arrivals[net] = out_arr
        slews[net] = out_slew
        return changed

    def required_through_net(
        self, calc: "DelayCalculator", net: int, required: Sequence[float]
    ) -> float:
        """One net's backward required-time bound from its (final)
        downstream values: ``max over outgoing arcs (worst_arc_delay +
        required[dst])``, floored at 0.0 -- the per-net fixed point the
        full reverse pass converges to, so recomputing only nets whose
        inputs changed reproduces the full pass bitwise."""
        best = 0.0
        gates = self.ec.gates
        for arc in self.fanout[net]:
            through = (
                calc.worst_arc_delay(gates[arc.gate_index], arc.pin)
                + required[arc.dst_net]
            )
            if through > best:
                best = through
        return best

    def suffix_through_net(
        self, calc: "DelayCalculator", net: int, suffix: Sequence[float]
    ) -> float:
        """One net's legacy context-free suffix bound: ``max over sink
        gates (worst_gate_delay + suffix[gate output])``.  A gate fed
        twice by the same net contributes once per arc, which cannot
        change the maximum -- bitwise-equal to the full reverse pass of
        :meth:`DelayCalculator.remaining_bounds`."""
        best = 0.0
        gates = self.ec.gates
        for arc in self.fanout[net]:
            gate = gates[arc.gate_index]
            through = calc.worst_gate_delay(gate) + suffix[gate.output_net]
            if through > best:
                best = through
        return best

    # ------------------------------------------------------------------
    def backward_required_bounds(self, calc: "DelayCalculator") -> List[float]:
        """Per-net admissible upper bound on the remaining delay from
        that net to any primary output.

        One reverse-topological pass maximizing, per net, over its
        outgoing arcs: ``bound[src] = max over arcs (worst_arc_delay +
        bound[dst])``, where ``worst_arc_delay`` is the arc's fitted
        delay maximized over the achievable-slew domain
        (:meth:`DelayCalculator.worst_arc_delay`).  Admissible because
        every traversal of an arc exhibits at most its worst arc delay
        at any achievable slew, and dominated by the legacy per-gate
        suffix sum because an arc's worst delay never exceeds its
        gate's worst delay over all pins.

        Runs the structure-of-arrays sweep
        (:meth:`TimingArrays.backward_required_bounds
        <repro.core.tarrays.TimingArrays.backward_required_bounds>`).
        Wall-clock is published to the ``tgraph.backward_pass_ms``
        histogram.
        """
        started = time.perf_counter()
        with span("tgraph.backward_pass"):
            bounds = calc.tarrays.backward_required_bounds()
        obs_metrics.REGISTRY.histogram("tgraph.backward_pass_ms").observe(
            (time.perf_counter() - started) * 1e3
        )
        return bounds
