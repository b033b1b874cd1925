"""Indexed circuit state for the path-finding search.

:class:`EngineCircuit` pre-indexes a :class:`~repro.netlist.circuit.Circuit`
(net ids, gate fan-in/fan-out tables, per-pin sensitization vectors with
side nets resolved) so the search never touches dictionaries keyed by
strings.

:class:`EngineState` holds the paper's dual-value node assignment: one
nine-valued entry per net **per polarity component** (component 0 traces
the rising-input case, component 1 the falling-input case -- "the
algorithm computes simultaneously both transitions through a given path
in the same step").  All mutations go through an undo trail so the
search can checkpoint and roll back in O(changes); a merge conflict
kills only the offending component, and the search continues as long as
one component is alive.

Implication is table-driven (:class:`ImplicationKernel`): every gate
keeps one integer base-9 code of its input values per component, which
``assign`` and ``rollback`` update, so evaluating a gate is one lookup
into its cell function's shared nine-valued table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.logic_values import CellEvaluator, MERGE_TABLE, Value9
from repro.gates.cell import Cell, SensitizationVector
from repro.netlist.circuit import Circuit, Instance

RISING = 0
FALLING = 1
COMPONENTS = (RISING, FALLING)


@dataclass(frozen=True)
class VectorOption:
    """A sensitization vector resolved against a placed gate."""

    vector: SensitizationVector
    #: (net_id, steady bit) for every side input.
    side_assignments: Tuple[Tuple[int, int], ...]
    inverting: bool


@dataclass
class EngineGate:
    """Pre-indexed instance."""

    index: int
    inst: Instance
    cell: Cell
    evaluator: CellEvaluator
    input_nets: Tuple[int, ...]  # cell pin order
    output_net: int
    #: pin name -> vector options
    options: Dict[str, List[VectorOption]]


class EngineCircuit:
    """Static indexed view of a circuit (shared between searches)."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.net_names: List[str] = list(circuit.nets)
        self.net_id: Dict[str, int] = {n: i for i, n in enumerate(self.net_names)}
        n_nets = len(self.net_names)
        self.is_input = [False] * n_nets
        self.is_output = [False] * n_nets
        for name in circuit.inputs:
            self.is_input[self.net_id[name]] = True
        for name in circuit.outputs:
            self.is_output[self.net_id[name]] = True

        #: cell name -> evaluator, shared by every gate of that cell.
        self._evaluators: Dict[str, CellEvaluator] = {}
        self.gates: List[EngineGate] = []
        self.driver: List[int] = [-1] * n_nets  # gate index or -1

        for inst in circuit.topological():
            cell = inst.cell
            gate_index = len(self.gates)
            input_nets = tuple(self.net_id[inst.pins[p]] for p in cell.inputs)
            output_net = self.net_id[inst.output_net]
            gate = EngineGate(
                gate_index, inst, cell, self._evaluator(cell), input_nets,
                output_net, self._vector_options(inst),
            )
            self.gates.append(gate)
            self.driver[output_net] = gate_index

        self.input_ids = [self.net_id[n] for n in circuit.inputs]
        self.output_ids = [self.net_id[n] for n in circuit.outputs]
        self._tgraph = None
        self._kernel: Optional[ImplicationKernel] = None

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    @property
    def tgraph(self):
        """The circuit's levelized :class:`~repro.core.tgraph.TimingGraph`
        (built lazily, shared by every engine bound to this circuit)."""
        if self._tgraph is None:
            from repro.core.tgraph import TimingGraph

            self._tgraph = TimingGraph(self)
        return self._tgraph

    @property
    def sinks(self) -> List[List[Tuple[int, str]]]:
        """net id -> list of (gate index, pin name); a view of the
        timing graph's fanout arcs (the graph owns the adjacency)."""
        return self.tgraph.sinks

    @property
    def kernel(self) -> "ImplicationKernel":
        """The circuit's :class:`ImplicationKernel` (built by the first
        :class:`EngineState`, so sweep-only flows never build it)."""
        if self._kernel is None:
            self._kernel = ImplicationKernel(self)
        return self._kernel

    def _evaluator(self, cell: Cell) -> CellEvaluator:
        evaluator = self._evaluators.get(cell.name)
        if evaluator is None:
            evaluator = self._evaluators[cell.name] = CellEvaluator(cell)
        return evaluator

    def _vector_options(self, inst: Instance) -> Dict[str, List[VectorOption]]:
        """``inst``'s sensitization vectors per input pin, side nets
        resolved to ids."""
        options: Dict[str, List[VectorOption]] = {}
        for pin in inst.cell.inputs:
            opts = []
            for vec in inst.cell.sensitization_vectors(pin):
                side = tuple(
                    (self.net_id[inst.pins[side_pin]], bit)
                    for side_pin, bit in sorted(vec.side_values.items())
                )
                opts.append(VectorOption(vec, side, vec.inverting))
            options[pin] = opts
        return options

    def swap_cell(self, gate: EngineGate, cell: Cell) -> None:
        """Rebind ``gate`` (and its circuit instance) to the
        pin-compatible ``cell`` in place, so every live reference -- the
        timing graph's gate list, the pathfinder's gate table, the
        implication kernel -- sees the new cell without re-indexing.  Pin
        compatibility keeps ``input_nets`` and the kernel's codes and
        weights valid; the caller checks it."""
        inst = gate.inst
        inst.cell = cell
        self.circuit._topo_cache = None
        gate.cell = cell
        gate.evaluator = self._evaluator(cell)
        gate.options = self._vector_options(inst)
        if self._kernel is not None:
            self._kernel.tables[gate.index] = gate.evaluator.table


class ImplicationKernel:
    """Per-circuit data of the table-driven forward implication.

    ``tables[g]`` is gate ``g``'s nine-valued table
    (:func:`~repro.core.logic_values.nine_valued_table`, shared per cell
    function), indexed by the base-9 code ``sum(value[k] * 9**k)`` of the
    gate's input values.  ``weights[net]`` lists ``(g, 9**pin)`` for
    every sink pin of the net, in ``ec.sinks`` order: a value change
    ``old -> new`` on the net moves each sink gate's code by
    ``(new - old) * 9**pin``.  ``xx_codes[g]`` is the code of gate
    ``g``'s all-XX inputs, the state every search starts from.
    """

    def __init__(self, ec: EngineCircuit):
        gates = ec.gates
        self.tables: List[Tuple[int, ...]] = [g.evaluator.table for g in gates]
        self.weights: List[List[Tuple[int, int]]] = [
            [(g, 9 ** gates[g].cell.pin_index(pin)) for g, pin in sinks]
            for sinks in ec.sinks
        ]
        self.xx_codes: List[int] = [9 ** len(g.input_nets) - 1 for g in gates]


# Trail entry tags.
_T_VALUE = 0
_T_ALIVE = 1
_T_OBLIGATION = 2


class EngineState:
    """Mutable dual-component assignment with checkpoint/rollback."""

    def __init__(self, ec: EngineCircuit):
        self.ec = ec
        n = ec.num_nets
        self.values: List[List[int]] = [
            [Value9.XX] * n for _ in COMPONENTS
        ]
        kernel = ec.kernel
        self._tables = kernel.tables
        self._weights = kernel.weights
        #: Per component, gate index -> base-9 code of its input values.
        self.codes: List[List[int]] = [
            list(kernel.xx_codes) for _ in COMPONENTS
        ]
        self.alive: List[bool] = [True, True]
        self._trail: List[Tuple] = []
        self._queue: List[int] = []
        #: Nets carrying a required value that may need backward
        #: justification: list of (net_id, packed 9-value).  Paper-mode
        #: requirements are steady (S0/S1); complete-mode dynamic
        #: justification can also require transitions on internal nets.
        self.obligations: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        return len(self._trail)

    def rollback(self, mark: int) -> None:
        trail = self._trail
        weights = self._weights
        while len(trail) > mark:
            tag, a, b, c = trail.pop()
            if tag == _T_VALUE:
                values = self.values[a]
                delta = c - values[b]
                values[b] = c
                codes = self.codes[a]
                for gate_index, weight in weights[b]:
                    codes[gate_index] += delta * weight
            elif tag == _T_ALIVE:
                self.alive[a] = True
            else:  # _T_OBLIGATION
                self.obligations.pop()
        self._queue.clear()

    # ------------------------------------------------------------------
    # Assignment and implication
    # ------------------------------------------------------------------
    def kill(self, comp: int) -> bool:
        """Kill one polarity component; returns False when none is left."""
        if self.alive[comp]:
            self.alive[comp] = False
            self._trail.append((_T_ALIVE, comp, 0, 0))
        return self.alive[1 - comp]

    def assign(self, net: int, value: int, comp: int) -> bool:
        """Merge ``value`` into one component of a net.

        Returns False when the whole state is dead (both components
        killed).  Enqueues the net for implication when it gained
        information.
        """
        if not self.alive[comp]:
            return self.alive[1 - comp]
        current = self.values[comp][net]
        merged = MERGE_TABLE[current * 9 + value]
        if merged < 0:
            return self.kill(comp)
        if merged != current:
            self._trail.append((_T_VALUE, comp, net, current))
            self.values[comp][net] = merged
            codes = self.codes[comp]
            delta = merged - current
            for gate_index, weight in self._weights[net]:
                codes[gate_index] += delta * weight
            self._queue.append(net)
        return True

    def assign_both(self, net: int, value: int) -> bool:
        self.assign(net, value, RISING)
        self.assign(net, value, FALLING)
        return any(self.alive)

    def require_steady(self, net: int, bit: int) -> bool:
        """Assign a required steady side value and record the obligation."""
        return self.require_value(net, Value9.steady(bit))

    def require_value(self, net: int, value: int) -> bool:
        """Assign a required 9-value to every live component and record
        the justification obligation (transition requirements only make
        sense in single-polarity states; steady ones work everywhere)."""
        if not self.assign(net, value, RISING):
            return False
        if not self.assign(net, value, FALLING):
            return False
        if self.ec.driver[net] >= 0:
            self.obligations.append((net, value))
            self._trail.append((_T_OBLIGATION, 0, 0, 0))
        return True

    def implied_value(self, gate: EngineGate, comp: int) -> int:
        index = gate.index
        return self._tables[index][self.codes[comp][index]]

    def propagate(self) -> bool:
        """Event-driven forward implication until fixpoint.

        Every value gain re-evaluates the sink gates ("each time a logic
        value is assigned to a node, such value is propagated through
        all the gates having such node as an input"), which is what
        surfaces semi-undetermined conflicts early.
        """
        queue = self._queue
        values = self.values
        values0, values1 = values
        codes = self.codes
        codes0, codes1 = codes
        alive = self.alive
        weights = self._weights
        tables = self._tables
        gates = self.ec.gates
        assign = self.assign
        xx = Value9.XX
        while queue:
            net = queue.pop()
            for gate_index, _weight in weights[net]:
                table = tables[gate_index]
                if alive[0] and alive[1]:
                    # Dual fast path: away from the transition cone both
                    # components carry identical inputs, so one lookup
                    # serves both.  An implied value equal to the
                    # output's current one would merge to a no-op, so it
                    # is skipped.
                    code0 = codes0[gate_index]
                    code1 = codes1[gate_index]
                    implied0 = table[code0]
                    implied1 = implied0 if code0 == code1 else table[code1]
                    out = gates[gate_index].output_net
                    if (
                        implied0 != xx and implied0 != values0[out]
                        and not assign(out, implied0, 0)
                    ):
                        queue.clear()
                        return False
                    if (
                        implied1 != xx and implied1 != values1[out]
                        and not assign(out, implied1, 1)
                    ):
                        queue.clear()
                        return False
                    continue
                out = gates[gate_index].output_net
                for comp in COMPONENTS:
                    if not alive[comp]:
                        continue
                    implied = table[codes[comp][gate_index]]
                    if implied == xx or implied == values[comp][out]:
                        continue
                    if not assign(out, implied, comp):
                        queue.clear()
                        return False
        return any(alive)

    # ------------------------------------------------------------------
    # Justification support
    # ------------------------------------------------------------------
    def is_justified(self, net: int, required: int) -> bool:
        """Whether the net's required 9-value is already implied by its
        driver's inputs in every live component."""
        gate_index = self.ec.driver[net]
        if gate_index < 0:
            return True  # primary inputs are justified by definition
        gate = self.ec.gates[gate_index]
        for comp in COMPONENTS:
            if not self.alive[comp]:
                continue
            if self.implied_value(gate, comp) != required:
                return False
        return True

    def first_unjustified(self, start: int = 0) -> Optional[Tuple[int, int, int]]:
        """First unjustified obligation at or after index ``start``.

        Justification is monotone along any trail extension (implied
        values only gain information, and rollback restores a state in
        which the prefix was already verified), so callers may resume
        the scan from the last verified index instead of 0.

        Returns ``(index, net, required)`` or None.
        """
        obligations = self.obligations
        for index in range(start, len(obligations)):
            net, required = obligations[index]
            if not self.is_justified(net, required):
                return (index, net, required)
        return None

    # ------------------------------------------------------------------
    def input_vector(self, comp: int) -> Dict[str, Optional[object]]:
        """The primary-input assignment of one component.

        Steady nets report their bit, the transition source reports
        ``"T"``, unconstrained inputs report None (don't-care).
        """
        out: Dict[str, Optional[object]] = {}
        for net in self.ec.input_ids:
            value = self.values[comp][net]
            if value in (Value9.S0, Value9.X0, Value9.ZX):
                out[self.ec.net_names[net]] = 0 if value == Value9.S0 else None
            elif value in (Value9.S1, Value9.X1, Value9.OX):
                out[self.ec.net_names[net]] = 1 if value == Value9.S1 else None
            elif value in (Value9.RISE, Value9.FALL):
                out[self.ec.net_names[net]] = "T"
            else:
                out[self.ec.net_names[net]] = None
        return out
