"""Event-driven gate-level timing simulation.

An independent dynamic check of the STA results: apply a primary-input
transition under a chosen input vector, propagate *events* through the
netlist with per-arc delays from the characterized library, and observe
when (and whether) each output settles.  A true path reported by the
STA must materialize here: simulating its input vector produces an
output event at (approximately) the reported arrival time, computed
through the very same vector-resolved arcs but by a completely
different mechanism (event propagation vs path search).

The simulator models each net as a waveform of (time, value) change
events, uses inertial filtering (a gate output change that would be
overtaken by a newer evaluation is cancelled), and resolves each gate
evaluation delay from the arc of the *causing* input pin under the
sensitization vector formed by the other pins' current values.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DEFAULT_INPUT_SLEW, DelayCalculator
from repro.core.engine import EngineCircuit
from repro.netlist.circuit import Circuit


@dataclass
class NetEvent:
    """One recorded value change on a net."""

    time: float
    value: int
    slew: float
    #: (net name, event index) of the input-pin event whose gate
    #: evaluation scheduled this change; None for the stimulus event.
    cause: Optional[Tuple[str, int]] = None


@dataclass
class SimulationResult:
    """Outcome of one transition simulation."""

    #: net name -> chronological value-change events (excluding t=0 init).
    events: Dict[str, List[NetEvent]]
    #: net name -> final settled value.
    final_values: Dict[str, int]
    #: total scheduled gate evaluations (activity measure).
    evaluations: int

    def last_event(self, net: str) -> Optional[NetEvent]:
        changes = self.events.get(net)
        return changes[-1] if changes else None

    def settled_time(self, net: str) -> float:
        event = self.last_event(net)
        return event.time if event else 0.0

    def toggled(self, net: str) -> bool:
        return bool(self.events.get(net))

    def causal_chain(self, net: str) -> List[Tuple[str, NetEvent]]:
        """The chain of events that produced ``net``'s final change,
        stimulus first: follow each event's ``cause`` pointer back to
        the primary-input toggle.  Empty when the net never toggled."""
        chain: List[Tuple[str, NetEvent]] = []
        event = self.last_event(net)
        current = net
        while event is not None:
            chain.append((current, event))
            if event.cause is None:
                break
            current, index = event.cause
            event = self.events[current][index]
        chain.reverse()
        return chain


class TimingSimulator:
    """Event-driven simulation bound to one circuit and library corner."""

    def __init__(
        self,
        circuit: Circuit,
        charlib: CharacterizedLibrary,
        temp: float = 25.0,
        vdd: Optional[float] = None,
        input_slew: float = DEFAULT_INPUT_SLEW,
    ):
        circuit.check()
        self.circuit = circuit
        self.ec = EngineCircuit(circuit)
        self.calc = DelayCalculator(
            self.ec, charlib, temp=temp, vdd=vdd, input_slew=input_slew)

    # ------------------------------------------------------------------
    def simulate_transition(
        self,
        input_vector: Dict[str, int],
        toggle_input: str,
        rising: bool,
        horizon: float = 1e-8,
    ) -> SimulationResult:
        """Apply ``input_vector``, then flip ``toggle_input`` at t=0.

        ``input_vector`` holds the pre-transition values of every
        primary input (don't-care inputs may be omitted and default 0).
        """
        values: Dict[str, int] = {}
        slews: Dict[str, float] = {}
        for name in self.circuit.inputs:
            values[name] = int(input_vector.get(name, 0))
            slews[name] = self.calc.input_slew
        start = dict(values)
        start[toggle_input] = 0 if rising else 1
        # Settle the pre-transition state combinationally.
        settled = self.circuit.simulate(start)
        values.update(settled)
        for net in settled:
            slews.setdefault(net, self.calc.input_slew)

        counter = itertools.count()
        #: (time, tiebreak, net, new_value, slew, cause)
        queue: List[Tuple[float, int, str, int, float, Optional[Tuple[str, int]]]] = []
        #: net -> (scheduled time, stamp); an event is live only while
        #: its stamp is the net's current pending stamp (inertial
        #: cancellation and supersession both just replace the stamp).
        pending: Dict[str, Tuple[float, int]] = {}
        first = next(counter)
        pending[toggle_input] = (0.0, first)
        heapq.heappush(
            queue,
            (0.0, first, toggle_input, 1 if rising else 0,
             self.calc.input_slew, None),
        )
        events: Dict[str, List[NetEvent]] = {}
        evaluations = 0

        while queue:
            time, tie, net, new_value, slew, cause = heapq.heappop(queue)
            if time > horizon:
                break
            stamp = pending.get(net)
            if stamp is None or stamp[1] != tie:
                continue  # cancelled or superseded (inertial model)
            pending.pop(net, None)
            if values[net] == new_value:
                continue
            values[net] = new_value
            slews[net] = slew
            events.setdefault(net, []).append(
                NetEvent(time, new_value, slew, cause)
            )
            source = (net, len(events[net]) - 1)
            for gate_index, pin in self.ec.sinks[self.ec.net_id[net]]:
                gate = self.ec.gates[gate_index]
                evaluations += 1
                inst = gate.inst
                inputs = {p: values[inst.pins[p]] for p in gate.cell.inputs}
                out_new = gate.cell.func.eval(
                    [inputs[p] for p in gate.cell.inputs]
                )
                out_net = inst.output_net
                scheduled = pending.get(out_net)
                target = out_new
                if values[out_net] == target and scheduled is None:
                    continue
                delay, out_slew = self._arc_delay(
                    gate, pin, inputs, causing_value=new_value,
                    causing_slew=slew,
                )
                event_time = time + delay
                stamp = next(counter)
                if target == values[out_net]:
                    # The new evaluation cancels a pending change.
                    pending.pop(out_net, None)
                    continue
                pending[out_net] = (event_time, stamp)
                heapq.heappush(
                    queue,
                    (event_time, stamp, out_net, target, out_slew, source),
                )

        final = dict(values)
        return SimulationResult(events=events, final_values=final,
                                evaluations=evaluations)

    # ------------------------------------------------------------------
    def _arc_delay(
        self,
        gate,
        pin: str,
        inputs: Dict[str, int],
        causing_value: int,
        causing_slew: float,
    ) -> Tuple[float, float]:
        """Delay of the arc from ``pin`` under the side values currently
        on the other pins; falls back to the worst arc of the pin when
        the side combination does not statically sensitize it."""
        cell = gate.cell
        side = {p: v for p, v in inputs.items() if p != pin}
        chosen = None
        for vec in cell.sensitization_vectors(pin):
            if all(side.get(p) == v for p, v in vec.side_values.items()):
                chosen = vec
                break
        input_rising = causing_value == 1
        if chosen is None:
            # Non-sensitized evaluation (multi-input switching window):
            # approximate with the pin's first vector of the polarity.
            out_now = cell.func.eval([inputs[p] for p in cell.inputs])
            for vec in cell.sensitization_vectors(pin):
                chosen = vec
                break
        output_rising = input_rising ^ chosen.inverting
        try:
            return self.calc.arc_timing(
                gate, pin, chosen.vector_id, input_rising, output_rising,
                causing_slew,
            )
        except KeyError:
            # Library subset without this arc: use the worst gate delay.
            worst = self.calc.worst_gate_delay(gate)
            return worst, causing_slew


def measure_path_delay(
    simulator: TimingSimulator,
    input_vector: Dict[str, Optional[object]],
    origin: str,
    rising: bool,
    endpoint: str,
) -> Optional[float]:
    """Dynamic delay of one sensitized path: simulate its input vector
    and return the settle time of the endpoint (None if it never
    toggles -- which for a reported true path would be a bug)."""
    concrete = {
        k: (v if v in (0, 1) else 0) for k, v in input_vector.items()
    }
    result = simulator.simulate_transition(concrete, origin, rising)
    if not result.toggled(endpoint):
        return None
    return result.settled_time(endpoint)
