"""Gate-sizing primitives shared by the ECO flow.

:func:`replace_cell` is the in-place pin-compatible swap, and
:class:`SizingResult` / :class:`SizingChange` are the accepted-moves
summary :class:`repro.opt.sizer.SizerResult` renders.  The sizing loop
itself lives in :class:`repro.opt.sizer.TimingDrivenSizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.netlist.circuit import Circuit


def replace_cell(circuit: Circuit, inst_name: str, new_cell) -> None:
    """Swap an instance's cell for a pin-compatible variant, in place."""
    inst = circuit.instances[inst_name]
    if isinstance(new_cell, str):
        new_cell = circuit.library[new_cell]
    if new_cell.inputs != inst.cell.inputs:
        raise ValueError(
            f"{new_cell.name} is not pin-compatible with {inst.cell.name}"
        )
    inst.cell = new_cell
    circuit._topo_cache = None  # timing caches key off instance cells


@dataclass
class SizingChange:
    gate_name: str
    from_cell: str
    to_cell: str
    arrival_before: float
    arrival_after: float


@dataclass
class SizingResult:
    met: bool
    required_time: float
    initial_arrival: float
    final_arrival: float
    changes: List[SizingChange] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"sizing: {self.initial_arrival * 1e12:.1f} ps -> "
            f"{self.final_arrival * 1e12:.1f} ps "
            f"(required {self.required_time * 1e12:.1f} ps, "
            f"{'MET' if self.met else 'NOT MET'})"
        ]
        for c in self.changes:
            lines.append(
                f"  {c.gate_name}: {c.from_cell} -> {c.to_cell} "
                f"({c.arrival_before * 1e12:.1f} -> "
                f"{c.arrival_after * 1e12:.1f} ps)"
            )
        return "\n".join(lines)
