"""Timing-driven gate sizing: the incremental STA core's first consumer.

A small engineering-change-order loop: while the worst true path
misses the required time, swap gates on it for their drive variants.
:class:`TimingDrivenSizer` drives every decision through one persistent
:class:`~repro.core.sta.TruePathSTA` session, so each move costs a
dirty-cone repair plus one pruned worst-path query instead of a
from-scratch rebuild.  Accept/reject is on the true-path delay
(vector-resolved), never on a GBA estimate: sizing driven by a
vector-blind tool can stop too early, thinking timing is met while a
harder vector still fails.

Two strategies:

* ``greedy`` -- round-based critical-path upsizing: each round takes
  the worst true path, tries its gates in descending delay-contribution
  order, keeps the first swap that strictly improves the worst arrival
  and reverts the rest.  A round that accepts nothing ends the loop.
  ``max_moves`` caps rounds.
* ``anneal`` -- seeded simulated annealing over the same move set plus
  *downsizing* (back to the base cell), with Metropolis acceptance on
  the worst-arrival delta and a geometric temperature schedule.  Useful
  when greedy stalls on self-loading plateaus; deterministic for a
  fixed seed.

Both honor :class:`~repro.resilience.budgets.SearchBudgets`: the wall
cap bounds the whole loop (checked before every move, and the remaining
wall is forwarded to each per-move path search), the extension /
backtrack caps bound each per-move search.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.charlib.store import CharacterizedLibrary
from repro.core.path import TimedPath
from repro.core.sta import TruePathSTA
from repro.gates.library import DRIVE_SUFFIX
from repro.netlist.circuit import Circuit
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.resilience.budgets import SearchBudgets

_log = get_logger("repro.sizer")

STRATEGIES = ("greedy", "anneal")


@dataclass
class SizerMove:
    """One attempted swap, accepted or not."""

    gate_name: str
    from_cell: str
    to_cell: str
    arrival_before: float
    arrival_after: float
    accepted: bool


@dataclass
class SizerResult:
    met: bool
    required_time: float
    initial_arrival: float
    final_arrival: float
    strategy: str
    #: Why the loop ended: ``met`` | ``budget`` | ``no_candidate`` |
    #: ``converged`` | ``max_moves``.
    stop_reason: str
    moves: List[SizerMove] = field(default_factory=list)

    @property
    def accepted_moves(self) -> List[SizerMove]:
        return [m for m in self.moves if m.accepted]

    def describe(self) -> str:
        accepted = self.accepted_moves
        lines = [
            f"sizing: {self.initial_arrival * 1e12:.1f} ps -> "
            f"{self.final_arrival * 1e12:.1f} ps "
            f"(required {self.required_time * 1e12:.1f} ps, "
            f"{'MET' if self.met else 'NOT MET'})"
        ]
        for m in accepted:
            lines.append(
                f"  {m.gate_name}: {m.from_cell} -> {m.to_cell} "
                f"({m.arrival_before * 1e12:.1f} -> "
                f"{m.arrival_after * 1e12:.1f} ps)"
            )
        lines.append(
            f"  strategy {self.strategy}, stop: {self.stop_reason}, "
            f"{len(accepted)}/{len(self.moves)} moves accepted"
        )
        return "\n".join(lines)


class TimingDrivenSizer:
    """Critical-path gate sizing against a live incremental session.

    The circuit is modified in place; its ``library`` must contain the
    drive variants (``sized_library()``, suffix
    :data:`~repro.gates.library.DRIVE_SUFFIX`) and ``charlib`` must
    cover them.
    """

    def __init__(
        self,
        circuit: Circuit,
        charlib: CharacterizedLibrary,
        required_time: float,
        strategy: str = "greedy",
        seed: int = 0,
        max_moves: int = 20,
        max_paths: Optional[int] = 5000,
        temp: float = 25.0,
        vdd: Optional[float] = None,
        budgets: Optional[SearchBudgets] = None,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown sizing strategy {strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        self.circuit = circuit
        self.required_time = required_time
        self.strategy = strategy
        self.seed = seed
        self.max_moves = max_moves
        self.max_paths = max_paths
        self.budgets = budgets
        self.sta = TruePathSTA(circuit, charlib, temp=temp, vdd=vdd)
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------
    def run(self) -> SizerResult:
        registry = obs_metrics.REGISTRY
        if self.budgets is not None and self.budgets.wall_seconds is not None:
            self._deadline = time.monotonic() + self.budgets.wall_seconds
        worst = self._worst_path()
        initial = worst.worst_arrival
        result = SizerResult(
            met=initial <= self.required_time,
            required_time=self.required_time,
            initial_arrival=initial,
            final_arrival=initial,
            strategy=self.strategy,
            stop_reason="met" if initial <= self.required_time else "max_moves",
        )
        if result.met:
            return result
        if self.strategy == "greedy":
            self._run_greedy(result, worst)
        else:
            self._run_anneal(result, worst)
        result.met = result.final_arrival <= self.required_time
        registry.counter("sizer.moves_tried").inc(len(result.moves))
        registry.counter("sizer.moves_accepted").inc(
            len(result.accepted_moves)
        )
        registry.counter("sizer.moves_rejected").inc(
            len(result.moves) - len(result.accepted_moves)
        )
        _log.info(
            "sizer.done",
            strategy=self.strategy,
            stop=result.stop_reason,
            moves=len(result.moves),
            accepted=len(result.accepted_moves),
            initial_ps=result.initial_arrival * 1e12,
            final_ps=result.final_arrival * 1e12,
            met=result.met,
        )
        return result

    # ------------------------------------------------------------------
    def _out_of_wall(self) -> bool:
        return self._deadline is not None and time.monotonic() >= self._deadline

    def _move_budgets(self) -> Optional[SearchBudgets]:
        if self.budgets is None:
            return None
        remaining = None
        if self._deadline is not None:
            remaining = max(0.0, self._deadline - time.monotonic())
        return SearchBudgets(
            wall_seconds=remaining,
            max_extensions=self.budgets.max_extensions,
            max_backtracks=self.budgets.max_backtracks,
        )

    def _worst_path(self) -> TimedPath:
        return self.sta.worst_path(
            max_paths=self.max_paths, budgets=self._move_budgets()
        )

    def _no_candidate(self, path: TimedPath) -> None:
        """Satellite fix: the legacy loop silently returned an empty
        result when no gate on the critical path had a drive variant;
        surface it as a structured warning plus a counter."""
        obs_metrics.REGISTRY.counter("sizer.no_candidate").inc()
        _log.warning(
            "sizer.no_candidate",
            circuit=self.circuit.name,
            suffix=DRIVE_SUFFIX,
            path_gates=[s.gate_name for s in path.steps],
            cells=[s.cell_name for s in path.steps],
        )

    # ------------------------------------------------------------------
    def _run_greedy(self, result: SizerResult, worst: TimedPath) -> None:
        for _ in range(self.max_moves):
            if result.final_arrival <= self.required_time:
                result.stop_reason = "met"
                return
            if self._out_of_wall():
                result.stop_reason = "budget"
                return
            polarity = max(worst.polarities(), key=lambda p: p.arrival)
            candidates = sorted(
                zip(worst.steps, polarity.gate_delays),
                key=lambda item: -item[1],
            )
            swapped = False
            had_variant = False
            for step, _delay in candidates:
                variant_name = f"{step.cell_name}{DRIVE_SUFFIX}"
                if variant_name not in self.circuit.library:
                    continue
                had_variant = True
                if self._out_of_wall():
                    result.stop_reason = "budget"
                    return
                before = result.final_arrival
                self.sta.replace_cell(step.gate_name, variant_name)
                worst = self._worst_path()
                after = worst.worst_arrival
                if after >= before:  # upsizing hurt (self-loading); revert
                    result.moves.append(SizerMove(
                        gate_name=step.gate_name,
                        from_cell=step.cell_name,
                        to_cell=variant_name,
                        arrival_before=before,
                        arrival_after=after,
                        accepted=False,
                    ))
                    self.sta.replace_cell(step.gate_name, step.cell_name)
                    worst = self._worst_path()
                    continue
                result.moves.append(SizerMove(
                    gate_name=step.gate_name,
                    from_cell=step.cell_name,
                    to_cell=variant_name,
                    arrival_before=before,
                    arrival_after=after,
                    accepted=True,
                ))
                result.final_arrival = after
                swapped = True
                break
            if not swapped:
                if not had_variant:
                    self._no_candidate(worst)
                    result.stop_reason = "no_candidate"
                else:
                    result.stop_reason = "converged"
                return
        result.stop_reason = "max_moves"

    # ------------------------------------------------------------------
    def _run_anneal(self, result: SizerResult, worst: TimedPath) -> None:
        rng = random.Random(self.seed)
        # Seed the schedule off the initial arrival so acceptance odds
        # are scale-free in the circuit's time unit.
        t0 = max(result.initial_arrival * 0.02, 1e-12)
        alpha = 0.85
        for move_index in range(self.max_moves):
            if result.final_arrival <= self.required_time:
                result.stop_reason = "met"
                return
            if self._out_of_wall():
                result.stop_reason = "budget"
                return
            # Candidate moves: for each distinct gate on the current
            # worst path, upsize (base cell -> variant) or downsize
            # (variant -> base).  Downsizing lets the walk escape
            # self-loading plateaus greedy gets stuck on.
            moves = []
            seen = set()
            for step in worst.steps:
                if step.gate_name in seen:
                    continue
                seen.add(step.gate_name)
                upsized = f"{step.cell_name}{DRIVE_SUFFIX}"
                if upsized in self.circuit.library:
                    moves.append((step.gate_name, step.cell_name, upsized))
                if step.cell_name.endswith(DRIVE_SUFFIX):
                    base = step.cell_name[: -len(DRIVE_SUFFIX)]
                    if base in self.circuit.library:
                        moves.append((step.gate_name, step.cell_name, base))
            if not moves:
                self._no_candidate(worst)
                result.stop_reason = "no_candidate"
                return
            gate_name, from_cell, to_cell = moves[rng.randrange(len(moves))]
            before = result.final_arrival
            self.sta.replace_cell(gate_name, to_cell)
            worst_new = self._worst_path()
            after = worst_new.worst_arrival
            temperature = t0 * (alpha ** move_index)
            delta = after - before
            accept = delta < 0 or rng.random() < math.exp(
                -delta / temperature
            ) if temperature > 0 else delta < 0
            result.moves.append(SizerMove(
                gate_name=gate_name,
                from_cell=from_cell,
                to_cell=to_cell,
                arrival_before=before,
                arrival_after=after,
                accepted=accept,
            ))
            if accept:
                result.final_arrival = after
                worst = worst_new
            else:
                self.sta.replace_cell(gate_name, from_cell)
                worst = self._worst_path()
        result.stop_reason = (
            "met" if result.final_arrival <= self.required_time
            else "max_moves"
        )
