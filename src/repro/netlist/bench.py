"""ISCAS-85 ``.bench`` reader and writer.

The ``.bench`` dialect::

    INPUT(G1)
    OUTPUT(G17)
    G10 = NAND(G1, G3)
    G11 = NOT(G10)

Gate keywords: ``AND OR NAND NOR XOR XNOR NOT BUFF`` with arbitrary
fan-in.  The default library tops out at four inputs, so wider gates are
decomposed into balanced trees on import (a NAND5 becomes an AND tree
feeding a final NAND; the logic function is preserved exactly).
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, TextIO, Tuple, Union

from repro.gates.library import Library, default_library
from repro.netlist.circuit import Circuit

#: Net names: what an ``INPUT``/``OUTPUT`` line declares and what a gate
#: line drives (``[\w.\[\]]+``, the names structural Verilog ports take).
_NET = r"[\w.\[\]]+"
_LINE_RE = re.compile(rf"^\s*({_NET})\s*=\s*(\w+)\s*\(([^)]*)\)\s*$")
_IO_RE = re.compile(rf"^\s*(INPUT|OUTPUT)\s*\(\s*({_NET})\s*\)\s*$", re.IGNORECASE)

#: bench keyword -> (library family prefix, wide-tree combiner family,
#: whether the final stage inverts)
_FAMILIES = {
    "AND": ("AND", "AND", False),
    "OR": ("OR", "OR", False),
    "NAND": ("NAND", "AND", True),
    "NOR": ("NOR", "OR", True),
    "XOR": ("XOR", "XOR", False),
    "XNOR": ("XNOR", "XOR", True),
}

_MAX_FANIN = 4
_PIN_NAMES = "ABCD"

#: One gate line: (line number, output net, upper-case keyword, operands).
GateLine = Tuple[int, str, str, List[str]]
#: Where emitted primitive gates go: ``add_gate(cell name, output, pins)``.
AddGate = Callable[[str, str, Dict[str, str]], object]


class BenchParseError(ValueError):
    """Raised on malformed ``.bench`` input."""


def parse_bench(
    source: Union[str, TextIO],
    name: str = "bench",
    library: Optional[Library] = None,
) -> Circuit:
    """Parse ``.bench`` text (a string or a file object) into a Circuit."""
    declarations, gate_lines = scan_bench(source)
    circuit = Circuit(name, library or default_library())
    for is_input, net in declarations:
        if is_input:
            circuit.add_input(net)
        else:
            circuit.add_output(net)
    for gate_line in gate_lines:
        emit_gate(circuit.add_gate, *gate_line)
    circuit.check()
    return circuit


def scan_bench(
    source: Union[str, TextIO],
) -> Tuple[List[Tuple[bool, str]], List[GateLine]]:
    """Split ``.bench`` text into its ``(is_input, net)`` declarations and
    its gate lines, both in file order.

    Raises :class:`BenchParseError` on the first line that is neither.
    Readers replay every declaration before the first gate line, so a
    gate that drives a declared input fails wherever the declaration
    stands.
    """
    text = source.read() if hasattr(source, "read") else source
    declarations: List[Tuple[bool, str]] = []
    gate_lines: List[GateLine] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            kind, net = io_match.groups()
            declarations.append((kind.upper() == "INPUT", net))
            continue
        gate_match = _LINE_RE.match(line)
        if not gate_match:
            raise BenchParseError(f"line {lineno}: cannot parse {raw!r}")
        out, kind, args = gate_match.groups()
        operands = [a.strip() for a in args.split(",")] if args.strip() else []
        if "" in operands:
            raise BenchParseError(f"line {lineno}: empty operand in {raw!r}")
        gate_lines.append((lineno, out, kind.upper(), operands))
    return declarations, gate_lines


def emit_gate(
    add_gate: AddGate, lineno: int, out: str, kind: str, operands: List[str]
) -> None:
    """Emit one gate line as library primitives through ``add_gate``.

    Fan-in beyond the library's widest cell becomes a balanced tree whose
    internal nets are named ``<out>__w<k>``; the tree's gates go first.
    """
    if kind in ("NOT", "INV"):
        if len(operands) != 1:
            raise BenchParseError(f"line {lineno}: NOT takes one operand")
        add_gate("INV", out, {"A": operands[0]})
        return
    if kind in ("BUFF", "BUF"):
        if len(operands) != 1:
            raise BenchParseError(f"line {lineno}: BUFF takes one operand")
        add_gate("BUF", out, {"A": operands[0]})
        return
    family = _FAMILIES.get(kind)
    if family is None:
        raise BenchParseError(f"line {lineno}: unknown gate keyword {kind!r}")
    prefix, combiner, inverting = family
    if len(operands) < 2:
        raise BenchParseError(f"line {lineno}: {kind} needs >= 2 operands")
    max_width = 2 if combiner == "XOR" else _MAX_FANIN
    if len(operands) <= max_width:
        add_gate(f"{prefix}{len(operands)}", out, dict(zip(_PIN_NAMES, operands)))
        return
    # Decompose a wide gate: reduce with the non-inverting combiner and
    # finish with one final (possibly inverting) stage.
    stage = list(operands)
    counter = 0
    while len(stage) > max_width:
        next_stage: List[str] = []
        for i in range(0, len(stage), max_width):
            chunk = stage[i : i + max_width]
            if len(chunk) == 1:
                next_stage.append(chunk[0])
                continue
            mid = f"{out}__w{counter}"
            counter += 1
            add_gate(f"{combiner}{len(chunk)}", mid, dict(zip(_PIN_NAMES, chunk)))
            next_stage.append(mid)
        stage = next_stage
    final_prefix = prefix if inverting else combiner
    add_gate(f"{final_prefix}{len(stage)}", out, dict(zip(_PIN_NAMES, stage)))


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
_CELL_TO_BENCH = {
    "INV": "NOT",
    "BUF": "BUFF",
    "AND2": "AND",
    "AND3": "AND",
    "AND4": "AND",
    "OR2": "OR",
    "OR3": "OR",
    "OR4": "OR",
    "NAND2": "NAND",
    "NAND3": "NAND",
    "NAND4": "NAND",
    "NOR2": "NOR",
    "NOR3": "NOR",
    "NOR4": "NOR",
    "XOR2": "XOR",
    "XNOR2": "XNOR",
}


def write_bench(circuit: Circuit) -> str:
    """Serialize a primitive-gate circuit to ``.bench`` text.

    Complex gates (AO22 and friends) have no ``.bench`` keyword; callers
    should unmap them first (:func:`repro.netlist.techmap.unmap`).
    """
    lines = [f"# {circuit.name}"]
    lines.extend(f"INPUT({n})" for n in circuit.inputs)
    lines.extend(f"OUTPUT({n})" for n in circuit.outputs)
    for inst in circuit.topological():
        keyword = _CELL_TO_BENCH.get(inst.cell.name)
        if keyword is None:
            raise ValueError(
                f"cell {inst.cell.name} has no .bench equivalent; unmap first"
            )
        operands = ", ".join(inst.pins[p] for p in inst.cell.inputs)
        lines.append(f"{inst.output_net} = {keyword}({operands})")
    return "\n".join(lines) + "\n"


#: The genuine ISCAS-85 c17 netlist (the one circuit small enough to be
#: universally published verbatim).
C17_BENCH = """
# c17 (ISCAS-85)
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""
