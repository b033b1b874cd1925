"""Backward justification with decision backtracking.

Whenever the path search requires a steady side value on a gate-driven
net, that requirement must be *justified*: some assignment of circuit
inputs has to force it.  :class:`Justifier` resolves all pending
obligations of an :class:`~repro.core.engine.EngineState` by picking,
for each unjustified net, one of the driver cell's justification cubes
(minimal input assignments forcing the required value), assigning it
(which forward-propagates and may spawn new obligations), and
backtracking chronologically through cube choices on conflict.

The search is complete within one call: if no combination of cubes
works, the requirement set is unsatisfiable and ``UNSAT`` is returned.
An optional backtrack limit makes it abort with ``ABORTED`` instead --
that is how the commercial baseline's backtrack-limited behaviour
(Table 6, "Backtrack limited" column) is modeled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.core.engine import EngineState
from repro.obs.tracing import span


class JustifyResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    ABORTED = "aborted"


@dataclass
class _Frame:
    net: int
    required: int  # packed 9-value
    cubes: Iterator
    mark: int
    #: Obligation index this frame targets; scans resume here (every
    #: earlier obligation was verified justified when the frame opened,
    #: which rollback preserves).
    scan_from: int


class Justifier:
    """Resolves pending obligations of one engine state.

    Parameters
    ----------
    state:
        The engine state to operate on (mutated in place; on UNSAT or
        ABORT it is rolled back to its entry state).
    backtrack_limit:
        Abort after this many chronological backtracks (None = complete
        search).
    dynamic:
        Use nine-valued justification cubes, whose literals may be
        transitions -- required to justify steady values *inside* the
        transition cone (e.g. XNOR of opposite transitions is steady).
        Only meaningful in a single-polarity state; ``origin`` names the
        one primary input allowed to carry a transition (the paper's
        single-input-transition model).
    scan_from:
        Obligation index the initial scan starts at.  Justification is
        monotone along a trail extension (implied values only gain
        information), so a caller that has already verified a prefix of
        the obligation list -- the path search verifies everything up
        to the last saved state -- may resume the scan there instead of
        rescanning from 0 on every step.
    """

    def __init__(self, state: EngineState, backtrack_limit: Optional[int] = None,
                 dynamic: bool = False, origin: Optional[int] = None,
                 scan_from: int = 0):
        self.state = state
        self.backtrack_limit = backtrack_limit
        self.dynamic = dynamic
        self.origin = origin
        self.scan_from = scan_from
        #: Backtracks consumed across the Justifier's lifetime (the
        #: baseline shares one budget across a whole path check).
        self.backtracks = 0
        #: Cube applications attempted (plain attribute; callers fold
        #: it into their own search-effort metrics).
        self.cubes_tried = 0

    def _cubes(self, net: int, required: int) -> List:
        from repro.core.logic_values import Value9

        gate = self.state.ec.gates[self.state.ec.driver[net]]
        if self.dynamic:
            cubes9 = gate.evaluator.dynamic_cubes(required)
            resolved = []
            for cube in cubes9:
                literals = []
                valid = True
                for pin, value in cube.items():
                    literal_net = gate.input_nets[gate.cell.pin_index(pin)]
                    if (
                        Value9.is_transition(value)
                        and self.state.ec.driver[literal_net] < 0
                        and literal_net != self.origin
                    ):
                        # Only the origin PI may carry a transition.
                        valid = False
                        break
                    literals.append((literal_net, value))
                if valid:
                    resolved.append(literals)
            return resolved
        if not Value9.is_steady(required):
            return []  # static justification cannot produce transitions
        bit = Value9.final_of(required)
        return [
            [(gate.input_nets[gate.cell.pin_index(pin)], Value9.steady(value))
             for pin, value in cube.items()]
            for cube in gate.cell.justification_cubes(bit)
        ]

    def _cube_compatible(self, cube) -> bool:
        """Cheap pre-filter: reject cubes whose literals clash with the
        current values outright (saves a checkpoint/rollback cycle; the
        real test with propagation still happens in ``_apply_cube``)."""
        state = self.state
        from repro.core.logic_values import MERGE_TABLE

        values = state.values
        alive = state.alive
        for net, value in cube:
            dead_everywhere = True
            for comp in (0, 1):
                if not alive[comp]:
                    continue
                if MERGE_TABLE[values[comp][net] * 9 + value] >= 0:
                    dead_everywhere = False
                    break
            if dead_everywhere:
                return False
        return True

    def _apply_cube(self, cube) -> bool:
        state = self.state
        for net, value in cube:
            if not state.require_value(net, value):
                return False
        return state.propagate()

    def justify(self) -> JustifyResult:
        """Resolve every pending obligation; see class docstring."""
        with span("justify.solve"):
            return self._justify()

    def _justify(self) -> JustifyResult:
        state = self.state
        entry_mark = state.checkpoint()
        stack: List[_Frame] = []

        def open_frame(scan_from: int) -> Optional[_Frame]:
            pending = state.first_unjustified(scan_from)
            if pending is None:
                return None
            index, net, required = pending
            return _Frame(net, required, iter(self._cubes(net, required)),
                          state.checkpoint(), index)

        frame = open_frame(self.scan_from)
        if frame is None:
            return JustifyResult.SAT
        stack.append(frame)

        while stack:
            frame = stack[-1]
            advanced = False
            for cube in frame.cubes:
                state.rollback(frame.mark)
                self.cubes_tried += 1
                if not self._cube_compatible(cube):
                    continue
                if self._apply_cube(cube):
                    advanced = True
                    break
                self.backtracks += 1
                if self._over_limit():
                    state.rollback(entry_mark)
                    return JustifyResult.ABORTED
            if not advanced:
                state.rollback(frame.mark)
                stack.pop()
                self.backtracks += 1
                if self._over_limit():
                    state.rollback(entry_mark)
                    return JustifyResult.ABORTED
                # The parent frame must move to its next cube; that
                # happens naturally on the next loop iteration because
                # its iterator position is preserved.
                continue
            child = open_frame(frame.scan_from)
            if child is None:
                return JustifyResult.SAT
            stack.append(child)

        state.rollback(entry_mark)
        return JustifyResult.UNSAT

    def _over_limit(self) -> bool:
        return (
            self.backtrack_limit is not None
            and self.backtracks > self.backtrack_limit
        )
