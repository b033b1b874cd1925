"""Technology mapping between primitive and complex gates.

:func:`techmap` rewrites a primitive-gate netlist (as parsed from
``.bench``) onto the complex-gate cells of the library -- two-level
AND-OR / OR-AND clusters with single-fanout internal nets collapse into
AO / OA / AOI / OAI cells, and inverter pairs merge.  This mirrors what
a synthesis tool does and is what puts multi-sensitization-vector gates
onto circuit paths, the situation the paper studies.

:func:`techmap_bench` maps ``.bench`` text in one step: the reader's
primitive gates go straight into the rewrite passes' node table, so
only the mapped circuit is built.

:func:`unmap` is the inverse of :func:`techmap`: every complex gate is
decomposed back into primitives following its declared pull-down
network structure.  The paper cites decomposition-before-analysis as a
known source of timing inaccuracy; ``unmap`` lets the benchmarks
quantify that (ablation).

Both directions preserve the boolean function of every primary output;
:func:`equivalent` spot-checks this.
"""

from __future__ import annotations

import graphlib
import itertools
import random
from typing import Dict, List, Optional, Set, TextIO, Tuple, Union

from repro.gates.cell import NetworkExpr
from repro.gates.library import Library, default_library
from repro.netlist.bench import emit_gate, scan_bench
from repro.netlist.circuit import Circuit

#: Internal mutable netlist node: output net -> (cell name, pin -> net).
_Node = Tuple[str, Dict[str, str]]

# (outer cell, inner cell) -> replacement for INV-absorption rewrites.
_INV_MERGE = {
    "AND2": "NAND2",
    "AND3": "NAND3",
    "AND4": "NAND4",
    "OR2": "NOR2",
    "OR3": "NOR3",
    "OR4": "NOR4",
    "NAND2": "AND2",
    "NAND3": "AND3",
    "NAND4": "AND4",
    "NOR2": "OR2",
    "NOR3": "OR3",
    "NOR4": "OR4",
    "XOR2": "XNOR2",
    "XNOR2": "XOR2",
    "AO21": "AOI21",
    "AO22": "AOI22",
    "OA12": "OAI12",
    "OA22": "OAI22",
    "AOI21": "AO21",
    "AOI22": "AO22",
    "OAI12": "OA12",
    "OAI22": "OA22",
    "INV": "BUF",
    "BUF": "INV",
}

# Two-level patterns: (outer cell, inner cell) -> complex replacement.
# The inner gate feeds pin A of the outer gate (the matcher tries both
# outer pin orders).  Pin conventions of the replacement cells:
#   AO22/AOI22: Z = f(A*B + C*D)   AO21/AOI21: Z = f(A*B + C)
#   OA22/OAI22: Z = f((A+B)*(C+D)) OA12/OAI12: Z = f((A+B)*C)
_TWO_LEVEL = {
    ("OR2", "AND2", "AND2"): "AO22",
    ("OR2", "AND2", None): "AO21",
    ("NOR2", "AND2", "AND2"): "AOI22",
    ("NOR2", "AND2", None): "AOI21",
    ("AND2", "OR2", "OR2"): "OA22",
    ("AND2", "OR2", None): "OA12",
    ("NAND2", "OR2", "OR2"): "OAI22",
    ("NAND2", "OR2", None): "OAI12",
    # All-NAND / all-NOR forms (what NAND-level netlists such as the
    # original c1355 are made of):
    #   NAND(NAND(a,b), NAND(c,d)) = ab + cd  -> AO22
    #   NOR(NOR(a,b), NOR(c,d)) = (a+b)(c+d)  -> OA22
    ("NAND2", "NAND2", "NAND2"): "AO22",
    ("NOR2", "NOR2", "NOR2"): "OA22",
}


def techmap(circuit: Circuit, library: Optional[Library] = None) -> Circuit:
    """Map a netlist onto complex gates; returns a new circuit.

    The rewrite is a fixpoint of two local rules applied over single-
    fanout internal nets: inverter absorption (``INV(AND2) -> NAND2``)
    and two-level cluster collapse (``OR2(AND2, AND2) -> AO22``).
    """
    nodes, fanout = _extract(circuit)
    return _map(circuit.name, circuit.inputs, circuit.outputs, nodes, fanout,
                library or circuit.library)


def techmap_bench(
    source: Union[str, TextIO],
    name: str = "bench",
    library: Optional[Library] = None,
) -> Circuit:
    """``techmap(parse_bench(source, name, library))``, building one circuit.

    The reader's primitive gates go straight into the node table the
    rewrite passes work on, so no primitive :class:`Circuit` is built.
    The table gets the structural checks :meth:`Circuit.add_gate` and
    :meth:`Circuit.check` would make, with the same errors in the same
    order, and the mapped circuit equals the two-step one: name, ports,
    net order, instance names, cells, pins and topological order.
    """
    library = library or default_library()
    declarations, gate_lines = scan_bench(source)
    inputs = list(dict.fromkeys(net for is_in, net in declarations if is_in))
    outputs = list(dict.fromkeys(net for is_in, net in declarations if not is_in))
    input_set = set(inputs)
    # Keyed in the order ``parse_bench``'s circuit creates its nets.
    fanout: Dict[str, int] = dict.fromkeys((net for _, net in declarations), 0)
    nodes: Dict[str, _Node] = {}
    # Nets read before the line that drives them (or never driven).
    reads_ahead: List[str] = []

    def add_gate(cell_name: str, out: str, pins: Dict[str, str]) -> None:
        library[cell_name].check_pins(pins)
        if out in nodes:
            raise ValueError(f"net {out} has two drivers")
        if out in input_set:
            raise ValueError(f"net {out} is a primary input; cannot be driven")
        fanout.setdefault(out, 0)
        for net in pins.values():
            fanout[net] = fanout.get(net, 0) + 1
            if net not in nodes and net not in input_set:
                reads_ahead.append(net)
        nodes[out] = (cell_name, pins)

    for gate_line in gate_lines:
        emit_gate(add_gate, *gate_line)
    for net in fanout:
        if net not in nodes and net not in input_set:
            raise ValueError(f"net {net} has no driver and is not an input")
    # A table whose gates read only inputs and earlier gates is in
    # topological order, so only one with a read ahead can hold a loop.
    if reads_ahead:
        graph = {out: [net for net in pins.values() if net in nodes]
                 for out, (_cell, pins) in nodes.items()}
        try:
            graphlib.TopologicalSorter(graph).prepare()
        except graphlib.CycleError:
            raise ValueError(f"{name}: combinational loop detected") from None
    return _map(name, inputs, outputs, nodes, fanout, library)


def _map(name: str, inputs: List[str], outputs: List[str], nodes, fanout,
         library: Library) -> Circuit:
    """Run the rewrite passes to a fixpoint and build the mapped circuit."""
    po = set(outputs)
    changed = True
    while changed:
        changed = _pass_inv_merge(nodes, fanout, po, library)
        changed = _pass_two_level(nodes, fanout, po, library) or changed
        # Bubble absorption runs last so it only eats inverters the
        # higher-value cluster patterns left behind.
        if not changed:
            changed = _pass_bubble(nodes, fanout, po, library)
    out = Circuit(f"{name}_mapped", library)
    for net in inputs:
        out.add_input(net)
    for net in outputs:
        out.add_output(net)
    for out_net, (cell_name, pins) in nodes.items():
        out.add_gate(cell_name, out_net, pins)
    out.check()
    return out


def unmap(circuit: Circuit, library: Optional[Library] = None) -> Circuit:
    """Decompose every complex gate into primitives; returns a new circuit."""
    library = library or circuit.library
    out = Circuit(f"{circuit.name}_unmapped", library)
    for net in circuit.inputs:
        out.add_input(net)
    for net in circuit.outputs:
        out.add_output(net)
    counter = itertools.count()
    primitives = {
        "INV", "BUF",
        "AND2", "AND3", "AND4", "OR2", "OR3", "OR4",
        "NAND2", "NAND3", "NAND4", "NOR2", "NOR3", "NOR4",
        "XOR2", "XNOR2",
    }
    for inst in circuit.topological():
        cell = inst.cell
        if cell.name in primitives:
            out.add_gate(cell.name, inst.output_net, dict(inst.pins))
            continue
        _decompose(out, inst.pins, inst.output_net, cell.pdn,
                   cell.output_inverter, counter)
    out.check()
    return out


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def expand_xor(circuit: Circuit, library: Optional[Library] = None) -> Circuit:
    """Replace every XOR2/XNOR2 with the classic four-NAND2 structure.

    This is exactly the relationship between ISCAS-85 c499 (XOR-level)
    and c1355 (NAND-level): same function, the XORs expanded.  The
    resulting netlist has no XOR cells, so a later :func:`techmap` pass
    yields a genuinely different mapped circuit.
    """
    library = library or circuit.library
    out = Circuit(f"{circuit.name}_xorexp", library)
    for net in circuit.inputs:
        out.add_input(net)
    for net in circuit.outputs:
        out.add_output(net)
    counter = itertools.count()
    for inst in circuit.topological():
        if inst.cell.name not in ("XOR2", "XNOR2"):
            out.add_gate(inst.cell.name, inst.output_net, dict(inst.pins))
            continue
        a, b = inst.pins["A"], inst.pins["B"]
        tag = f"{inst.output_net}__x{next(counter)}"
        n1, n2, n3 = f"{tag}a", f"{tag}b", f"{tag}c"
        out.add_gate("NAND2", n1, {"A": a, "B": b})
        out.add_gate("NAND2", n2, {"A": a, "B": n1})
        out.add_gate("NAND2", n3, {"A": b, "B": n1})
        if inst.cell.name == "XOR2":
            out.add_gate("NAND2", inst.output_net, {"A": n2, "B": n3})
        else:
            mid = f"{tag}d"
            out.add_gate("NAND2", mid, {"A": n2, "B": n3})
            out.add_gate("INV", inst.output_net, {"A": mid})
    out.check()
    return out


def _extract(circuit: Circuit):
    nodes: Dict[str, _Node] = {}
    fanout: Dict[str, int] = {name: 0 for name in circuit.nets}
    for inst in circuit.instances.values():
        nodes[inst.output_net] = (inst.cell.name, dict(inst.pins))
        for net in inst.pins.values():
            fanout[net] += 1
    return nodes, fanout


def _absorbable(nodes, fanout, outputs: Set[str], net: str) -> bool:
    """Whether the gate driving ``net`` can be swallowed by its one sink."""
    return net in nodes and fanout.get(net, 0) == 1 and net not in outputs


def _remove(nodes, fanout, net: str) -> None:
    _cell, pins = nodes.pop(net)
    for src in pins.values():
        fanout[src] -= 1


def _pass_inv_merge(nodes, fanout, outputs: Set[str], library: Library) -> bool:
    changed = False
    for out_net in list(nodes):
        if out_net not in nodes:
            continue
        cell_name, pins = nodes[out_net]
        if cell_name != "INV":
            continue
        src = pins["A"]
        if not _absorbable(nodes, fanout, outputs, src):
            continue
        inner_cell, inner_pins = nodes[src]
        replacement = _INV_MERGE.get(inner_cell)
        if replacement is None or replacement not in library:
            continue
        _remove(nodes, fanout, out_net)
        _remove(nodes, fanout, src)
        nodes[out_net] = (replacement, dict(inner_pins))
        for net in inner_pins.values():
            fanout[net] += 1
        changed = True
    return changed


#: outer cell -> bubbled-input replacement when pin A is driven by an
#: absorbable inverter.
_BUBBLE = {
    "NAND2": "NAND2B",
    "NOR2": "NOR2B",
    "AND2": "AND2B",
    "OR2": "OR2B",
}


def _pass_bubble(nodes, fanout, outputs: Set[str], library: Library) -> bool:
    """Absorb a fanout-1 inverter into a bubbled-input gate variant."""
    changed = False
    for out_net in list(nodes):
        if out_net not in nodes:
            continue
        cell_name, pins = nodes[out_net]
        replacement = _BUBBLE.get(cell_name)
        if replacement is None or replacement not in library:
            continue
        for pin in ("A", "B"):
            src = pins[pin]
            if not _absorbable(nodes, fanout, outputs, src):
                continue
            inner_cell, inner_pins = nodes[src]
            if inner_cell != "INV":
                continue
            new_pins = dict(pins)
            new_pins[pin] = inner_pins["A"]
            if pin == "B":  # B-variants invert pin A by convention
                new_pins = {"A": new_pins["B"], "B": new_pins["A"]}
            _remove(nodes, fanout, out_net)
            _remove(nodes, fanout, src)
            nodes[out_net] = (replacement, new_pins)
            for net in new_pins.values():
                fanout[net] += 1
            changed = True
            break
    return changed


def _pass_two_level(nodes, fanout, outputs: Set[str], library: Library) -> bool:
    changed = False
    for out_net in list(nodes):
        if out_net not in nodes:
            continue
        cell_name, pins = nodes[out_net]
        if cell_name not in ("AND2", "OR2", "NAND2", "NOR2"):
            continue
        in_a, in_b = pins["A"], pins["B"]
        match = _match_cluster(nodes, fanout, outputs, cell_name, in_a, in_b, library)
        if match is None:
            match = _match_cluster(nodes, fanout, outputs, cell_name, in_b, in_a, library)
        if match is None:
            continue
        replacement, new_pins, absorbed = match
        _remove(nodes, fanout, out_net)
        for net in absorbed:
            _remove(nodes, fanout, net)
        nodes[out_net] = (replacement, new_pins)
        for net in new_pins.values():
            fanout[net] += 1
        changed = True
    return changed


def _match_cluster(nodes, fanout, outputs: Set[str], outer: str, first: str,
                   second: str, library: Library):
    """Try to collapse ``outer(first, second)`` with ``first`` (and
    possibly ``second``) being absorbable inner AND2/OR2 gates."""
    if not _absorbable(nodes, fanout, outputs, first):
        return None
    inner_cell, inner_pins = nodes[first]
    both = None
    if _absorbable(nodes, fanout, outputs, second):
        second_cell, second_pins = nodes[second]
        key = (outer, inner_cell, second_cell)
        both = _TWO_LEVEL.get(key)
        if both is not None and both in library:
            new_pins = {
                "A": inner_pins["A"], "B": inner_pins["B"],
                "C": second_pins["A"], "D": second_pins["B"],
            }
            return both, new_pins, [first, second]
    single = _TWO_LEVEL.get((outer, inner_cell, None))
    if single is not None and single in library:
        new_pins = {"A": inner_pins["A"], "B": inner_pins["B"], "C": second}
        return single, new_pins, [first]
    return None


def _decompose(out: Circuit, pin_map: Dict[str, str], target: str,
               expr: NetworkExpr, buffered: bool, counter) -> None:
    """Emit primitive gates computing the cell function onto ``target``.

    The cell function is the PDN conduction condition when the cell has
    an output inverter, and its complement otherwise; we synthesize the
    condition tree with AND/OR gates and invert at the end if needed.
    """

    def fresh() -> str:
        return f"{target}__d{next(counter)}"

    def emit(node: NetworkExpr, into: str) -> None:
        if isinstance(node, str):
            if node.startswith("!"):
                out.add_gate("INV", into, {"A": pin_map[node[1:]]})
            else:
                out.add_gate("BUF", into, {"A": pin_map[node]})
            return
        kind = node[0]
        children = node[1:]
        child_nets: List[str] = []
        for child in children:
            if isinstance(child, str) and not child.startswith("!"):
                child_nets.append(pin_map[child])
            else:
                mid = fresh()
                emit(child, mid)
                child_nets.append(mid)
        family = "AND" if kind == "s" else "OR"
        cell = f"{family}{len(child_nets)}"
        out.add_gate(cell, into, dict(zip("ABCD", child_nets)))

    if buffered:
        emit(expr, target)
    else:
        mid = fresh()
        emit(expr, mid)
        out.add_gate("INV", target, {"A": mid})


# ----------------------------------------------------------------------
# Equivalence checking
# ----------------------------------------------------------------------
def equivalent(
    a: Circuit,
    b: Circuit,
    vectors: int = 256,
    seed: int = 0,
    exhaustive_limit: int = 12,
) -> bool:
    """Functional equivalence spot check on shared primary outputs.

    Exhaustive when the circuits have at most ``exhaustive_limit``
    inputs; random sampling (``vectors`` patterns) otherwise.
    """
    if sorted(a.inputs) != sorted(b.inputs) or sorted(a.outputs) != sorted(b.outputs):
        return False
    n = len(a.inputs)
    if n <= exhaustive_limit:
        patterns = (
            {name: (i >> k) & 1 for k, name in enumerate(a.inputs)}
            for i in range(1 << n)
        )
    else:
        rng = random.Random(seed)
        patterns = (
            {name: rng.randint(0, 1) for name in a.inputs} for _ in range(vectors)
        )
    for pattern in patterns:
        va = a.simulate(pattern)
        vb = b.simulate(pattern)
        for out in a.outputs:
            if va[out] != vb[out]:
                return False
    return True
