"""Backtrack-limited path sensitization (baseline step two).

Given a structural path, the baseline walks it gate by gate.  At each
gate it tries the sensitization vectors of the traversed pin in
*easiest-first* order (fewest new side assignments) and **commits** to
the first vector whose side values justify -- it never revisits vector
choices made at earlier gates, and never enumerates further vectors
once one works.  That is the behaviour the paper ascribes to the
commercial tool: "it simply finds the case for which the complex gate
input assignations are easier to justify instead of exploring all the
possibilities".

Consequences measured in Table 6:

* paths whose only working vector combination requires a non-easiest
  choice at some gate get declared **false** (the "#False paths"
  column);
* a shared backtrack budget per path can run out, leaving the path
  undecided (the "Backtrack limited" column);
* when a path is found true, the reported vector is the easy one, so
  the reported delay frequently is not the worst-case vector delay
  (the "Worst delay prediction ratio" column).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baseline.structural import StructuralPath
from repro.core.delaycalc import DelayCalculator
from repro.core.engine import (
    COMPONENTS,
    EngineCircuit,
    EngineGate,
    EngineState,
    RISING,
    VectorOption,
)
from repro.core.justification import Justifier, JustifyResult
from repro.core.logic_values import Value9
from repro.core.path import PathStep, PolarityTiming, TimedPath


class PathStatus(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    ABORTED = "aborted"  # backtrack limit reached before a decision


@dataclass
class SensitizeOutcome:
    """Result of checking one structural path."""

    status: PathStatus
    backtracks: int
    path: Optional[TimedPath] = None  # set when status is TRUE


class TwoStepSensitizer:
    """Checks structural paths with the commercial-tool strategy."""

    def __init__(
        self,
        ec: EngineCircuit,
        calc: DelayCalculator,
        backtrack_limit: Optional[int] = 1000,
    ):
        self.ec = ec
        self.calc = calc
        self.backtrack_limit = backtrack_limit
        #: Search-effort counters across this sensitizer's lifetime
        #: (plain attributes; the owning tool publishes them).
        self.vectors_committed = 0
        self.vectors_rejected = 0

    # ------------------------------------------------------------------
    def check(self, spath: StructuralPath) -> SensitizeOutcome:
        state = EngineState(self.ec)
        state.assign(spath.origin_net, Value9.RISE, RISING)
        state.assign(spath.origin_net, Value9.FALL, 1 - RISING)
        if not state.propagate():
            return SensitizeOutcome(PathStatus.FALSE, 0)

        budget_used = 0
        current_net = spath.origin_net
        timing = {
            comp: (0.0, self.calc.input_slew)
            for comp in COMPONENTS
            if state.alive[comp]
        }
        steps: List[PathStep] = []
        gate_delays: Dict[int, List[float]] = {comp: [] for comp in timing}
        gate_slews: Dict[int, List[float]] = {comp: [] for comp in timing}

        for gate_index, pin in spath.hops:
            gate = self.ec.gates[gate_index]
            options = self._easiest_first(state, gate, pin)
            committed = None
            for option in options:
                mark = state.checkpoint()
                ok = True
                for pin_index, bit in option.side_pins:
                    if not state.require_steady(gate.input_nets[pin_index],
                                                bit):
                        ok = False
                        break
                if ok:
                    ok = state.propagate()
                if ok:
                    remaining = (
                        None
                        if self.backtrack_limit is None
                        else self.backtrack_limit - budget_used
                    )
                    justifier = Justifier(state, backtrack_limit=remaining)
                    result = justifier.justify()
                    budget_used += justifier.backtracks
                    if result is JustifyResult.ABORTED:
                        return SensitizeOutcome(PathStatus.ABORTED, budget_used)
                    ok = result is JustifyResult.SAT
                if ok:
                    committed = option
                    self.vectors_committed += 1
                    break
                state.rollback(mark)
                self.vectors_rejected += 1
                budget_used += 1
                if (
                    self.backtrack_limit is not None
                    and budget_used > self.backtrack_limit
                ):
                    return SensitizeOutcome(PathStatus.ABORTED, budget_used)
            if committed is None:
                # No vector worked at this gate; earlier commitments are
                # never revisited -- the path is declared false (rightly
                # or wrongly).
                return SensitizeOutcome(PathStatus.FALSE, budget_used)
            new_timing = self._advance_timing(state, gate, pin, committed,
                                              current_net, timing)
            if not new_timing:
                return SensitizeOutcome(PathStatus.FALSE, budget_used)
            for comp, (arrival, out_slew) in new_timing.items():
                gate_delays[comp].append(arrival - timing[comp][0])
                gate_slews[comp].append(out_slew)
            timing = new_timing
            steps.append(
                PathStep(
                    gate_name=gate.inst.name,
                    cell_name=gate.cell.name,
                    pin=pin,
                    vector_id=committed.vector.vector_id,
                    case=committed.vector.case,
                    fo=self.calc.fo[gate.index],
                )
            )
            current_net = gate.output_net

        path = self._build_path(state, spath, steps, timing, gate_delays,
                                gate_slews)
        if path is None:
            return SensitizeOutcome(PathStatus.FALSE, budget_used)
        return SensitizeOutcome(PathStatus.TRUE, budget_used, path)

    # ------------------------------------------------------------------
    def _easiest_first(
        self, state: EngineState, gate: EngineGate, pin: str
    ) -> List[VectorOption]:
        """Order the pin's vectors by how many side values still need
        assigning (a cheap proxy for justification effort a lazy tool
        would use)."""

        def cost(option: VectorOption) -> Tuple[int, int]:
            pending = 0
            for pin_index, bit in option.side_pins:
                net = gate.input_nets[pin_index]
                required = Value9.steady(bit)
                already = all(
                    state.values[comp][net] == required
                    for comp in COMPONENTS
                    if state.alive[comp]
                )
                if not already:
                    pending += 1
            return (pending, option.vector.case)

        return sorted(gate.options[pin], key=cost)

    def _advance_timing(self, state, gate, pin, option, current_net, timing):
        out_net = gate.output_net
        new_timing: Dict[int, Tuple[float, float]] = {}
        for comp, (arrival, slew) in timing.items():
            if not state.alive[comp]:
                continue
            in_value = state.values[comp][current_net]
            out_value = state.values[comp][out_net]
            if not Value9.is_transition(in_value) or not Value9.is_transition(
                out_value
            ):
                continue
            delay, out_slew = self.calc.arc_timing(
                gate,
                pin,
                option.vector.vector_id,
                in_value == Value9.RISE,
                out_value == Value9.RISE,
                slew,
            )
            new_timing[comp] = (arrival + delay, out_slew)
        return new_timing

    def _build_path(self, state, spath, steps, timing, gate_delays,
                    gate_slews) -> Optional[TimedPath]:
        nets = [self.ec.net_names[spath.origin_net]]
        for gate_index, _pin in spath.hops:
            nets.append(self.ec.net_names[self.ec.gates[gate_index].output_net])
        polarity: Dict[int, PolarityTiming] = {}
        for comp, (arrival, slew) in timing.items():
            if not state.alive[comp]:
                continue
            out_value = state.values[comp][spath.terminal_net]
            delays = gate_delays.get(comp, [])
            if len(delays) != len(steps):
                continue  # component died mid-path; its chain is incomplete
            polarity[comp] = PolarityTiming(
                input_rising=comp == RISING,
                output_rising=out_value == Value9.RISE,
                arrival=arrival,
                slew=slew,
                gate_delays=list(delays),
                gate_slews=list(gate_slews.get(comp, [])),
                input_vector=state.input_vector(comp),
            )
        if not polarity:
            return None
        multi_vector = any(
            len(self.ec.gates[g].options[pin]) > 1 for g, pin in spath.hops
        )
        return TimedPath(
            circuit_name=self.ec.circuit.name,
            nets=tuple(nets),
            steps=tuple(steps),
            rise=polarity.get(RISING),
            fall=polarity.get(1 - RISING),
            multi_vector=multi_vector,
        )
