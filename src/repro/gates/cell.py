"""Standard-cell definitions.

A :class:`Cell` bundles a boolean function, its pin names, and the
transistor-level structure of its CMOS implementation (the pull-down
network of the inverting core plus an optional output inverter).  From
the function the cell derives, once, everything the STA engines need:

* the per-pin **sensitization vectors** -- every assignment of the side
  inputs that lets a transition on the pin reach the output (the rows of
  the paper's propagation tables);
* the **justification cubes** -- minimal partial input assignments that
  force the output to a given value, ordered easiest-first;
* the **arc polarity** (inverting or not) of each sensitized pin under
  each vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.gates.logic import BoolFunc

#: Series/parallel expression tree for a transistor network.  Leaves are
#: pin names, optionally prefixed with ``!`` for an internally inverted
#: input; internal nodes are ``("s", ...)`` (series) or ``("p", ...)``
#: (parallel) tuples.
NetworkExpr = Union[str, Tuple]


@dataclass(frozen=True)
class SensitizationVector:
    """One way to sensitize one input pin of a cell.

    Attributes
    ----------
    cell_name:
        Owning cell.
    pin:
        The sensitized input pin (the one carrying the transition "T").
    case:
        1-based index matching the paper's "Case n" nomenclature; cases
        are ordered by the canonical minterm index of the side values.
    side_values:
        Steady logic values required on every other input pin.
    inverting:
        Whether the output transition has opposite polarity to the input
        transition under this vector.
    """

    cell_name: str
    pin: str
    case: int
    side_values: Dict[str, int] = field(hash=False)
    inverting: bool

    @cached_property
    def vector_id(self) -> str:
        """Stable key such as ``"A:100"`` (side pins in name order).

        Computed on first use and kept in the instance ``__dict__``;
        equality and hashing read the fields only."""
        bits = "".join(str(self.side_values[p]) for p in sorted(self.side_values))
        return f"{self.pin}:{bits}"

    def __hash__(self) -> int:  # side_values is tiny and immutable by use
        return hash((self.cell_name, self.pin, self.case))

    def __repr__(self) -> str:
        sides = ",".join(f"{p}={v}" for p, v in sorted(self.side_values.items()))
        pol = "inv" if self.inverting else "non-inv"
        return f"<{self.cell_name} {self.pin} case{self.case} [{sides}] {pol}>"


class Cell:
    """A combinational standard cell.

    Parameters
    ----------
    name:
        Library name, e.g. ``"AO22"``.
    inputs:
        Ordered input pin names.
    func:
        Boolean function of the cell output in terms of ``inputs``.
    pdn:
        Series/parallel expression of the pull-down network of the
        *inverting core* (series = AND, parallel = OR of the pulled-down
        condition).  ``None`` for cells without a transistor model.
    output_inverter:
        True when the CMOS implementation is an inverting core followed
        by an output inverter (AND/OR/AO/OA cells); the cell function is
        then the core condition itself rather than its complement.
    drive:
        Relative drive strength (width multiplier for every device).
    """

    output = "Z"

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        func: BoolFunc,
        pdn: Optional[NetworkExpr] = None,
        output_inverter: bool = False,
        drive: float = 1.0,
    ):
        if func.num_inputs != len(inputs):
            raise ValueError(f"{name}: function arity {func.num_inputs} != {len(inputs)} pins")
        if len(set(inputs)) != len(inputs):
            raise ValueError(f"{name}: duplicate input pin names")
        self.name = name
        self.inputs = tuple(inputs)
        self.func = func
        self.pdn = pdn
        self.output_inverter = output_inverter
        self.drive = drive
        self._pin_index = {p: k for k, p in enumerate(self.inputs)}
        self._vectors: Optional[Dict[str, List[SensitizationVector]]] = None
        self._cubes: Dict[int, List[Dict[str, int]]] = {}

    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    def pin_index(self, pin: str) -> int:
        try:
            return self._pin_index[pin]
        except KeyError:
            raise KeyError(f"{self.name} has no input pin {pin!r}") from None

    def check_pins(self, connections: Mapping[str, str]) -> None:
        """Raise :class:`ValueError` unless ``connections`` is keyed by
        exactly this cell's input pins."""
        if connections.keys() != self._pin_index.keys():
            missing = set(self.inputs) - set(connections)
            extra = set(connections) - set(self.inputs)
            raise ValueError(
                f"{self.name}: bad pin set (missing={sorted(missing)}, extra={sorted(extra)})"
            )

    def evaluate(self, values: Dict[str, int]) -> int:
        """Evaluate the cell under a full pin-name -> 0/1 assignment."""
        return self.func.eval([values[p] for p in self.inputs])

    # ------------------------------------------------------------------
    # Sensitization
    # ------------------------------------------------------------------
    def sensitization_vectors(self, pin: Optional[str] = None):
        """Sensitization vectors, per pin or for one pin.

        The enumeration is exhaustive: every full assignment of the side
        pins under which the output toggles with the pin.  Matches the
        paper's Tables 1 and 2 for AO22 and OA12.
        """
        if self._vectors is None:
            self._vectors = self._compute_vectors()
        if pin is None:
            return self._vectors
        if pin not in self._pin_index:
            raise KeyError(f"{self.name} has no input pin {pin!r}")
        return self._vectors[pin]

    def _compute_vectors(self) -> Dict[str, List[SensitizationVector]]:
        out: Dict[str, List[SensitizationVector]] = {}
        for pin in self.inputs:
            idx = self.pin_index(pin)
            vectors = []
            for case, assignment in enumerate(self.func.sensitizing_assignments(idx), start=1):
                # Assignment keys are original input indices (pin omitted).
                side = {self.inputs[k]: v for k, v in assignment.items()}
                side_by_index = dict(assignment)
                inverting = self.func.is_inverting_at(idx, side_by_index)
                vectors.append(
                    SensitizationVector(self.name, pin, case, side, inverting)
                )
            out[pin] = vectors
        return out

    def vector_by_id(self, vector_id: str) -> SensitizationVector:
        """Look a vector up by its stable :attr:`~SensitizationVector.vector_id`."""
        pin = vector_id.split(":", 1)[0]
        for vec in self.sensitization_vectors(pin):
            if vec.vector_id == vector_id:
                return vec
        raise KeyError(f"{self.name}: no sensitization vector {vector_id!r}")

    @property
    def is_complex(self) -> bool:
        """Whether any pin has more than one sensitization vector."""
        return any(len(v) > 1 for v in self.sensitization_vectors().values())

    # ------------------------------------------------------------------
    # Justification
    # ------------------------------------------------------------------
    def justification_cubes(self, value: int) -> List[Dict[str, int]]:
        """Minimal pin assignments forcing the output to ``value``.

        Returned smallest-first; the first cube is the "easiest" choice a
        lazy sensitizer would take.
        """
        if value not in self._cubes:
            cubes = self.func.justification_cubes(value)
            self._cubes[value] = [
                {self.inputs[k]: v for k, v in cube.items()} for cube in cubes
            ]
        return self._cubes[value]

    # ------------------------------------------------------------------
    def core_function(self) -> BoolFunc:
        """Function of the inverting core output (before any inverter)."""
        return self.func.compose_not() if self.output_inverter else self.func

    def transistor_count(self) -> int:
        """Device count of the CMOS implementation (2 per PDN leaf, +2
        per output inverter, +2 per internally inverted input)."""
        if self.pdn is None:
            return 0
        leaves = _expr_leaves(self.pdn)
        inverted = {leaf for leaf in leaves if leaf.startswith("!")}
        count = 2 * len(leaves) + 2 * len(inverted)
        if self.output_inverter:
            count += 2
        return count

    def __repr__(self) -> str:
        return f"Cell({self.name}, pins={list(self.inputs)})"


def _expr_leaves(expr: NetworkExpr) -> List[str]:
    """All leaf literals of a series/parallel expression."""
    if isinstance(expr, str):
        return [expr]
    return [leaf for child in expr[1:] for leaf in _expr_leaves(child)]


def expr_function(expr: NetworkExpr, pins: Sequence[str]) -> BoolFunc:
    """Boolean condition of a series/parallel network being conductive.

    Series composes with AND, parallel with OR; a ``!pin`` leaf conducts
    when the pin is 0.  Used to validate that a cell's declared PDN
    matches its logic function.
    """
    pin_list = list(pins)

    def conducts(*bits: int) -> int:
        values = dict(zip(pin_list, bits))

        def walk(node: NetworkExpr) -> int:
            if isinstance(node, str):
                if node.startswith("!"):
                    return 1 - values[node[1:]]
                return values[node]
            kind = node[0]
            results = [walk(child) for child in node[1:]]
            if kind == "s":
                return int(all(results))
            if kind == "p":
                return int(any(results))
            raise ValueError(f"bad network node {node!r}")

        return walk(expr)

    return BoolFunc.from_callable(len(pin_list), conducts)
