"""SDF (Standard Delay Format) annotation export.

Writes an SDF 3.0 file with one ``IOPATH`` per instance timing arc,
evaluated at the instance's actual equivalent fanout and a nominal
input slew.  Vector-resolved arcs are collapsed per (pin, output edge)
into (min:typ:max) triples over the sensitization vectors -- the honest
way to express the paper's vector dependence in a format that has no
condition syntax hook in most consumers (the ``COND`` construct is
also emitted for consumers that support it).

This lets any external SDF-annotated simulator replay the delays this
tool computed.
"""

from __future__ import annotations

from typing import List, Optional

from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DEFAULT_INPUT_SLEW, DelayCalculator
from repro.core.engine import EngineCircuit
from repro.netlist.circuit import Circuit

_NS = 1e9  # SDF numbers below are in nanoseconds


def _triple(values: List[float]) -> str:
    lo, hi = min(values), max(values)
    typ = sorted(values)[len(values) // 2]
    return f"({lo * _NS:.6f}:{typ * _NS:.6f}:{hi * _NS:.6f})"


def write_sdf(
    circuit: Circuit,
    charlib: CharacterizedLibrary,
    temp: float = 25.0,
    vdd: Optional[float] = None,
    input_slew: float = DEFAULT_INPUT_SLEW,
    design_name: Optional[str] = None,
    emit_conditions: bool = False,
) -> str:
    """Serialize per-instance IOPATH delays to SDF text.

    With ``emit_conditions=True`` each sensitization vector becomes its
    own ``(COND <side values> (IOPATH ...))`` entry; otherwise vectors
    collapse into min:typ:max triples.
    """
    circuit.check()
    ec = EngineCircuit(circuit)
    calc = DelayCalculator(
        ec, charlib, temp=temp, vdd=vdd, input_slew=input_slew)
    lines = [
        "(DELAYFILE",
        '  (SDFVERSION "3.0")',
        f'  (DESIGN "{design_name or circuit.name}")',
        f'  (VOLTAGE {calc.vdd:.2f})',
        f'  (TEMPERATURE {temp:.1f})',
        '  (TIMESCALE 1ns)',
    ]
    for gate in ec.gates:
        inst = gate.inst
        lines.append("  (CELL")
        lines.append(f'    (CELLTYPE "{gate.cell.name}")')
        lines.append(f"    (INSTANCE {inst.name})")
        lines.append("    (DELAY (ABSOLUTE")
        for pin in gate.cell.inputs:
            if emit_conditions:
                lines.extend(
                    _conditioned_entries(calc, gate, pin)
                )
            else:
                entry = _collapsed_entry(calc, gate, pin)
                if entry:
                    lines.append(entry)
        lines.append("    ))")
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _arc_delays(calc: DelayCalculator, gate, pin: str):
    """(rise delays, fall delays) over every vector of one pin."""
    rise: List[float] = []
    fall: List[float] = []
    for option in gate.options[pin]:
        vector = option.vector
        for input_rising in (True, False):
            output_rising = input_rising ^ vector.inverting
            delay, _slew = calc.arc_timing(
                gate, pin, vector.vector_id, input_rising, output_rising,
                calc.input_slew,
            )
            (rise if output_rising else fall).append(delay)
    return rise, fall


def _collapsed_entry(calc: DelayCalculator, gate, pin: str) -> Optional[str]:
    # Each vector yields one rise and one fall delay (its two input
    # edges), so both lists are empty only for a pin without vectors.
    rise, fall = _arc_delays(calc, gate, pin)
    if not rise:
        return None
    return (
        f"      (IOPATH {pin} {gate.cell.output} {_triple(rise)} "
        f"{_triple(fall)})"
    )


def _conditioned_entries(calc: DelayCalculator, gate, pin: str) -> List[str]:
    lines: List[str] = []
    for option in gate.options[pin]:
        vector = option.vector
        rise: List[float] = []
        fall: List[float] = []
        for input_rising in (True, False):
            output_rising = input_rising ^ vector.inverting
            delay, _ = calc.arc_timing(
                gate, pin, vector.vector_id, input_rising, output_rising,
                calc.input_slew,
            )
            (rise if output_rising else fall).append(delay)
        condition = " && ".join(
            f"{p} == 1'b{v}" for p, v in sorted(vector.side_values.items())
        )
        body = (f"(IOPATH {pin} {gate.cell.output} {_triple(rise)} "
                f"{_triple(fall)})")
        if condition:
            lines.append(f"      (COND {condition} {body})")
        else:
            lines.append(f"      {body}")
    return lines
