"""Graph-based timing analysis (GBA) -- the conservative baseline mode.

Classic block-based STA propagates a single worst-case (arrival, slew)
pair per net in one topological pass: every gate contributes its worst
arc (over sensitization vectors) regardless of whether any input vector
can actually exercise it.  It is fast -- O(gates) -- and safe, but
pessimistic: the reported arrival can exceed the true worst path delay
whenever the structurally-worst arcs cannot be sensitized together.

This module provides GBA as a third analysis mode next to the paper's
path-based tool, plus the pessimism measurement: ``gba_pessimism``
compares the GBA endpoint arrivals against the true-path results, which
quantifies exactly what the paper's single-pass tool buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DEFAULT_INPUT_SLEW, DelayCalculator
from repro.core.engine import EngineCircuit
from repro.core.path import TimedPath
from repro.netlist.circuit import Circuit


@dataclass
class GbaResult:
    """Worst-case arrivals from one topological pass."""

    #: net name -> (rise arrival, fall arrival); None = unreachable.
    arrivals: Dict[str, Tuple[Optional[float], Optional[float]]]
    #: net name -> (rise slew, fall slew)
    slews: Dict[str, Tuple[Optional[float], Optional[float]]]

    def worst_arrival(self, net: str) -> float:
        rise, fall = self.arrivals[net]
        candidates = [a for a in (rise, fall) if a is not None]
        if not candidates:
            raise ValueError(f"net {net} has no arrival")
        return max(candidates)


class GraphSTA:
    """One-pass block-based analysis: a thin consumer of the timing
    graph's forward worst-arrival pass
    (:meth:`repro.core.tgraph.TimingGraph.forward_arrivals`)."""

    def __init__(
        self,
        circuit: Circuit,
        charlib: CharacterizedLibrary,
        temp: float = 25.0,
        vdd: Optional[float] = None,
        input_slew: float = DEFAULT_INPUT_SLEW,
        missing_arc_policy: str = "error",
    ):
        circuit.check()
        self.circuit = circuit
        self.ec = EngineCircuit(circuit)
        self.calc = DelayCalculator(
            self.ec, charlib, temp=temp, vdd=vdd, input_slew=input_slew,
            vector_blind=charlib.metadata.get("vector_mode") == "default",
            missing_arc_policy=missing_arc_policy,
        )

    def run(self) -> GbaResult:
        forward = self.ec.tgraph.forward_arrivals(self.calc)
        names = self.ec.net_names
        # Report primary inputs and driven nets, like the historical
        # name-keyed traversal did (every net is one or the other in a
        # checked circuit).
        reported = [
            net for net in range(self.ec.num_nets)
            if self.ec.is_input[net] or self.ec.driver[net] >= 0
        ]
        return GbaResult(
            arrivals={
                names[net]: tuple(forward.arrivals[net]) for net in reported
            },
            slews={names[net]: tuple(forward.slews[net]) for net in reported},
        )


def gba_pessimism(
    gba: GbaResult,
    true_paths: Sequence[TimedPath],
) -> Dict[str, Dict[str, float]]:
    """Per-endpoint comparison of GBA arrivals vs true-path arrivals.

    Returns, per endpoint with both numbers available: the GBA arrival,
    the true worst arrival, and the pessimism ratio (GBA / true - 1).
    GBA must never be optimistic (ratio >= 0 up to model noise); the
    positive ratios are what path-based analysis recovers.
    """
    true_worst: Dict[str, float] = {}
    for path in true_paths:
        endpoint = path.nets[-1]
        arrival = path.worst_arrival
        if arrival > true_worst.get(endpoint, 0.0):
            true_worst[endpoint] = arrival
    out: Dict[str, Dict[str, float]] = {}
    for endpoint, truth in true_worst.items():
        try:
            bound = gba.worst_arrival(endpoint)
        except (KeyError, ValueError):
            continue
        out[endpoint] = {
            "gba": bound,
            "true": truth,
            "pessimism": bound / truth - 1.0,
        }
    return out
