"""Graph-based timing analysis (GBA) -- the conservative baseline mode.

Classic block-based STA propagates a single worst-case (arrival, slew)
pair per net in one topological pass: every gate contributes its worst
arc (over sensitization vectors) regardless of whether any input vector
can actually exercise it.  It is fast -- O(gates) -- and safe, but
pessimistic: the reported arrival can exceed the true worst path delay
whenever the structurally-worst arcs cannot be sensitized together.

The pass is the analysis session's own forward timing
(:meth:`repro.core.sta.TruePathSTA.gba`); this module holds its result
type and the pessimism measurement: ``gba_pessimism`` compares the GBA
endpoint arrivals against the true-path results, which quantifies
exactly what the paper's single-pass tool buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.path import TimedPath
from repro.core.sta import TruePathSTA


@dataclass
class GbaResult:
    """Worst-case endpoint arrivals from one topological pass."""

    #: primary output -> (rise arrival, fall arrival); None = unreachable.
    arrivals: Dict[str, Tuple[Optional[float], Optional[float]]]
    #: primary output -> (rise slew, fall slew)
    slews: Dict[str, Tuple[Optional[float], Optional[float]]]

    def worst_arrival(self, net: str) -> float:
        rise, fall = self.arrivals[net]
        candidates = [a for a in (rise, fall) if a is not None]
        if not candidates:
            raise ValueError(f"net {net} has no arrival")
        return max(candidates)


class GraphSTA(TruePathSTA):
    """The session under its old GBA-mode name, which
    bench/workloads.py still uses: ``run()`` is :meth:`gba`."""

    run = TruePathSTA.gba


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
