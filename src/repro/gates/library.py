"""The default standard-cell library.

Cells are defined by the pull-down network of their inverting core (the
ground truth of a static CMOS implementation); the logic function is
derived from it, which guarantees that the transistor-level model used
by :mod:`repro.spice` and the boolean model used by the STA engines can
never disagree.

The library contains the primitive gates (INV..NOR4, XOR/XNOR) and the
complex-gate families the paper studies (AO/OA/AOI/OAI, including AO22
and OA12 of Tables 1-4, plus MUX2).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.gates.cell import Cell, NetworkExpr, expr_function


class Library:
    """An immutable-by-convention collection of :class:`Cell` objects."""

    def __init__(self, name: str, cells: Iterable[Cell]):
        self.name = name
        self._cells: Dict[str, Cell] = {}
        for cell in cells:
            if cell.name in self._cells:
                raise ValueError(f"duplicate cell {cell.name}")
            self._cells[cell.name] = cell

    def __getitem__(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"library {self.name!r} has no cell {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def cell_names(self) -> List[str]:
        return list(self._cells)

    def complex_cells(self) -> List[Cell]:
        """Cells with at least one multi-vector pin."""
        return [c for c in self if c.is_complex]

    def subset(self, names: Iterable[str]) -> "Library":
        """A sub-library (useful to keep characterization cheap in tests)."""
        return Library(f"{self.name}-subset", [self[n] for n in names])

    def get(self, name: str, default: Optional[Cell] = None) -> Optional[Cell]:
        return self._cells.get(name, default)


# ----------------------------------------------------------------------
# Cell construction helpers
# ----------------------------------------------------------------------
def _series(*children: NetworkExpr) -> NetworkExpr:
    return ("s",) + children if len(children) > 1 else children[0]


def _parallel(*children: NetworkExpr) -> NetworkExpr:
    return ("p",) + children if len(children) > 1 else children[0]


def _inverting(name: str, pins: List[str], pdn: NetworkExpr) -> Cell:
    """A natively inverting cell: Z = NOT(pdn conducts)."""
    func = expr_function(pdn, pins).compose_not()
    return Cell(name, pins, func, pdn=pdn, output_inverter=False)


def _buffered(name: str, pins: List[str], pdn: NetworkExpr) -> Cell:
    """An inverting core plus output inverter: Z = (pdn conducts)."""
    func = expr_function(pdn, pins)
    return Cell(name, pins, func, pdn=pdn, output_inverter=True)


def _build_cells() -> List[Cell]:
    ab = ["A", "B"]
    abc = ["A", "B", "C"]
    abcd = ["A", "B", "C", "D"]
    cells = [
        # Inverter / buffer
        _inverting("INV", ["A"], "A"),
        _buffered("BUF", ["A"], "A"),
        # NAND family: PDN = series of inputs
        _inverting("NAND2", ab, _series("A", "B")),
        _inverting("NAND3", abc, _series("A", "B", "C")),
        _inverting("NAND4", abcd, _series("A", "B", "C", "D")),
        # NOR family: PDN = parallel of inputs
        _inverting("NOR2", ab, _parallel("A", "B")),
        _inverting("NOR3", abc, _parallel("A", "B", "C")),
        _inverting("NOR4", abcd, _parallel("A", "B", "C", "D")),
        # AND / OR: inverting core + output inverter
        _buffered("AND2", ab, _series("A", "B")),
        _buffered("AND3", abc, _series("A", "B", "C")),
        _buffered("AND4", abcd, _series("A", "B", "C", "D")),
        _buffered("OR2", ab, _parallel("A", "B")),
        _buffered("OR3", abc, _parallel("A", "B", "C")),
        _buffered("OR4", abcd, _parallel("A", "B", "C", "D")),
        # XOR / XNOR: complex PDN with internally inverted inputs.
        # XNOR core pulls down when A xor B: PDN = A!B + !AB, so the
        # inverting core is XNOR' = XOR ... Z(XOR) = core condition.
        _buffered(
            "XOR2", ab, _parallel(_series("A", "!B"), _series("!A", "B"))
        ),
        _buffered(
            "XNOR2", ab, _parallel(_series("A", "B"), _series("!A", "!B"))
        ),
        # AOI / OAI complex inverting gates
        _inverting("AOI21", abc, _parallel(_series("A", "B"), "C")),
        _inverting(
            "AOI22", abcd, _parallel(_series("A", "B"), _series("C", "D"))
        ),
        _inverting("OAI12", abc, _series(_parallel("A", "B"), "C")),
        _inverting("OAI21", abc, _series(_parallel("A", "B"), "C")),
        _inverting(
            "OAI22", abcd, _series(_parallel("A", "B"), _parallel("C", "D"))
        ),
        # AO / OA: complex inverting core + output inverter (the paper's
        # Section III notes the output inverter explicitly).
        _buffered("AO21", abc, _parallel(_series("A", "B"), "C")),
        _buffered(
            "AO22", abcd, _parallel(_series("A", "B"), _series("C", "D"))
        ),
        _buffered("OA12", abc, _series(_parallel("A", "B"), "C")),
        _buffered("OA21", abc, _series(_parallel("A", "B"), "C")),
        _buffered(
            "OA22", abcd, _series(_parallel("A", "B"), _parallel("C", "D"))
        ),
        # 2:1 multiplexer: Z = A!S + BS
        _buffered(
            "MUX2", ["A", "B", "S"], _parallel(_series("A", "!S"), _series("B", "S"))
        ),
        # Bubbled-input ("B") variants: one inverted input realized with
        # an internal inverter, as in vendor libraries.
        _inverting("NAND2B", ab, _series("!A", "B")),   # Z = !(!A & B)
        _inverting("NOR2B", ab, _parallel("!A", "B")),  # Z = !(!A | B)
        _buffered("AND2B", ab, _series("!A", "B")),     # Z = !A & B
        _buffered("OR2B", ab, _parallel("!A", "B")),    # Z = !A | B
    ]
    # OAI21/OA21 are aliases of OAI12/OA12 in some vendor libraries; we
    # keep both names but drop exact duplicates of (pins, function).
    seen = {}
    unique = []
    for cell in cells:
        key = cell.name
        if key in seen:
            continue
        seen[key] = cell
        unique.append(cell)
    return unique


def drive_variant(cell: Cell, drive: float, suffix: str) -> Cell:
    """A drive-strength variant: same function and pins, scaled device
    widths (lower output resistance, proportionally higher input cap)."""
    return Cell(f"{cell.name}{suffix}", cell.inputs, cell.func, pdn=cell.pdn,
                output_inverter=cell.output_inverter, drive=drive)


#: Cell-name suffix of the drive variants in :func:`sized_library`.
DRIVE_SUFFIX = "_X2"

#: Cells that get X2 variants in :func:`sized_library`.
SIZABLE_CELLS = ("INV", "BUF", "NAND2", "NOR2", "AND2", "OR2", "XOR2",
                 "AO22", "OA12", "AOI22", "OAI12", "MUX2")

_SIZED: Optional[Library] = None


def sized_library() -> Library:
    """The default library plus X2 drive variants (gate-sizing flows).

    Kept separate from :func:`default_library` so that characterization
    caches keyed on the default cell list stay valid.
    """
    global _SIZED
    if _SIZED is None:
        cells = list(_build_cells())
        base = {c.name: c for c in cells}
        cells.extend(
            drive_variant(base[name], 2.0, DRIVE_SUFFIX)
            for name in SIZABLE_CELLS
        )
        _SIZED = Library("repro-sized", cells)
    return _SIZED


_DEFAULT: Optional[Library] = None


def default_library() -> Library:
    """The library used throughout the reproduction (cached singleton)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Library("repro-default", _build_cells())
    return _DEFAULT
