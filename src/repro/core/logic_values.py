"""The nine-valued transition logic with semi-undetermined values.

Every node value is a pair *(initial, final)* of three-valued levels,
encoded as ``init * 3 + final`` with ``0, 1, X=2``:

====== ======= ====================================================
name   (i, f)  meaning
====== ======= ====================================================
S0     (0, 0)  steady 0
S1     (1, 1)  steady 1
RISE   (0, 1)  rising transition
FALL   (1, 0)  falling transition
X0     (X, 0)  semi-undetermined, settles to 0  (paper's "X0")
X1     (X, 1)  semi-undetermined, settles to 1
ZX     (0, X)  starts at 0, end unknown
OX     (1, X)  starts at 1, end unknown
XX     (X, X)  unknown
====== ======= ====================================================

The semi-undetermined values are what lets the implication engine flag
a conflict *before* all implied nodes are assigned (the paper's AND2
example: a falling edge on one input with the other input unknown gives
``X0``, which already contradicts a required steady 1).

The paper's *dual value* system -- tracing the rising and the falling
input transition in a single pass -- is realized one level up: the
engine stores one of these values per node **per polarity component**
and kills components independently (see :mod:`repro.core.engine`).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from repro.gates.cell import Cell
from repro.gates.logic import BoolFunc, TriValue, X

#: Three-valued encoding used inside the packed value.
_X3 = 2


class Value9:
    """Namespace of packed 9-valued constants and operations."""

    S0 = 0 * 3 + 0
    S1 = 1 * 3 + 1
    RISE = 0 * 3 + 1
    FALL = 1 * 3 + 0
    X0 = _X3 * 3 + 0
    X1 = _X3 * 3 + 1
    ZX = 0 * 3 + _X3
    OX = 1 * 3 + _X3
    XX = _X3 * 3 + _X3

    ALL = (S0, S1, RISE, FALL, X0, X1, ZX, OX, XX)

    NAMES = {
        S0: "S0",
        S1: "S1",
        RISE: "R",
        FALL: "F",
        X0: "X0",
        X1: "X1",
        ZX: "0X",
        OX: "1X",
        XX: "XX",
    }

    @staticmethod
    def pack(init: TriValue, final: TriValue) -> int:
        i = _X3 if init is X else init
        f = _X3 if final is X else final
        return i * 3 + f

    @staticmethod
    def unpack(value: int) -> Tuple[TriValue, TriValue]:
        i, f = divmod(value, 3)
        return (X if i == _X3 else i, X if f == _X3 else f)

    @staticmethod
    def steady(bit: int) -> int:
        return Value9.S1 if bit else Value9.S0

    @staticmethod
    def transition(rising: bool) -> int:
        return Value9.RISE if rising else Value9.FALL

    @staticmethod
    def name(value: int) -> str:
        return Value9.NAMES[value]

    @staticmethod
    def is_steady(value: int) -> bool:
        return value in (Value9.S0, Value9.S1)

    @staticmethod
    def is_transition(value: int) -> bool:
        return value in (Value9.RISE, Value9.FALL)

    @staticmethod
    def final_of(value: int) -> TriValue:
        f = value % 3
        return X if f == _X3 else f

    @staticmethod
    def init_of(value: int) -> TriValue:
        i = value // 3
        return X if i == _X3 else i


def _merge3(a: int, b: int) -> int:
    """Three-valued knowledge merge on the raw {0,1,2=X} encoding.

    Returns the merged level, or -1 on a 0/1 conflict.
    """
    if a == _X3:
        return b
    if b == _X3 or a == b:
        return a
    return -1


def _merge9_compute(a: int, b: int) -> int:
    ia, fa = divmod(a, 3)
    ib, fb = divmod(b, 3)
    i = _merge3(ia, ib)
    if i < 0:
        return -1
    f = _merge3(fa, fb)
    if f < 0:
        return -1
    return i * 3 + f


#: Flat 9x9 lookup of the merge lattice (index ``a * 9 + b``); merging
#: is the single hottest operation of the search, so it is a table.
MERGE_TABLE: Tuple[int, ...] = tuple(
    _merge9_compute(a, b) for a in range(9) for b in range(9)
)


def merge9(a: int, b: int) -> int:
    """Combine two pieces of knowledge about one node.

    Returns the merged packed value or -1 on conflict.  ``merge9`` is
    the meet of the information lattice: X components accept anything,
    determined components must agree.
    """
    return MERGE_TABLE[a * 9 + b]


def covers(general: int, specific: int) -> bool:
    """Whether ``specific`` refines ``general`` (merge adds nothing new
    to ``specific``)."""
    return merge9(general, specific) == specific


#: BoolFunc -> its nine-valued table.  Cells computing one function
#: (drive variants, aliases) share a single table per process.
_TABLES: Dict[BoolFunc, Tuple[int, ...]] = {}


def input_code(values: Sequence[int]) -> int:
    """Base-9 code ``sum(values[k] * 9**k)`` of a cell's input values."""
    code = 0
    for value in reversed(values):
        code = code * 9 + value
    return code


def nine_valued_table(func: BoolFunc) -> Tuple[int, ...]:
    """``func``'s nine-valued table, indexed by :func:`input_code`.

    Entry ``code`` is ``pack(eval3(inits), eval3(finals))``.  A packed
    value is ``init * 3 + final``, so each base-9 digit of the code
    splits into a base-3 init digit and a base-3 final digit; the table
    is two lookups into the 3**n three-valued table per code.  Built
    once per function per process.
    """
    table = _TABLES.get(func)
    if table is None:
        n = func.num_inputs
        table3 = []
        for levels in itertools.product((0, 1, X), repeat=n):
            # product varies its last position fastest, so reversed the
            # tuple is in pin order and sits at sum(level[k] * 3**k).
            out = func.eval3(levels[::-1])
            table3.append(_X3 if out is X else out)
        inits, finals = [0], [0]
        for k in range(n):
            weight = 3 ** k
            inits = [i + (d // 3) * weight for d in range(9) for i in inits]
            finals = [f + (d % 3) * weight for d in range(9) for f in finals]
        table = tuple(table3[i] * 3 + table3[f] for i, f in zip(inits, finals))
        _TABLES[func] = table
    return table


class CellEvaluator:
    """Nine-valued evaluation of one cell.

    Evaluates the initial and final three-valued components separately,
    which is exact for single-transition two-pattern analysis and yields
    the semi-undetermined values automatically.  The results come from
    the cell function's shared :func:`nine_valued_table`.
    """

    def __init__(self, cell: Cell):
        self.cell = cell
        self._dynamic_cubes: Dict[int, List[Dict[str, int]]] = {}

    @property
    def table(self) -> Tuple[int, ...]:
        return nine_valued_table(self.cell.func)

    def evaluate(self, values: Sequence[int]) -> int:
        return self.table[input_code(values)]

    def dynamic_cubes(self, target: int) -> List[Dict[str, int]]:
        """Minimal 9-valued input cubes forcing the output to ``target``.

        Unlike the static cubes of
        :meth:`repro.gates.cell.Cell.justification_cubes`, literals may
        be transitions (RISE/FALL), which is what justifies a steady
        requirement *inside the transition cone* -- e.g. an XNOR output
        is steady 0 when its inputs carry opposite transitions.  Cubes
        are partial pin assignments over {S0, S1, RISE, FALL}, minimal,
        ordered smallest-first; unassigned pins are unconstrained (XX).
        """
        cached = self._dynamic_cubes.get(target)
        if cached is not None:
            return cached
        pins = self.cell.inputs
        n = len(pins)
        domain = (Value9.S0, Value9.S1, Value9.RISE, Value9.FALL)
        minimal: List[Dict[int, int]] = []  # keyed by pin index
        for size in range(n + 1):
            for subset in itertools.combinations(range(n), size):
                for values in itertools.product(domain, repeat=size):
                    cube = dict(zip(subset, values))
                    if any(
                        all(cube.get(k) == v for k, v in prev.items())
                        for prev in minimal
                    ):
                        continue  # a smaller cube already covers this one
                    assignment = [cube.get(k, Value9.XX) for k in range(n)]
                    if self.evaluate(assignment) == target:
                        minimal.append(cube)
        cubes = [{pins[k]: v for k, v in cube.items()} for cube in minimal]
        self._dynamic_cubes[target] = cubes
        return cubes
