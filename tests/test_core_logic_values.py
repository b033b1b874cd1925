"""Unit tests for the nine-valued dual logic system."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.logic_values import (
    CellEvaluator,
    Value9,
    covers,
    input_code,
    merge9,
)
from repro.gates.library import default_library, sized_library
from repro.gates.logic import X

V = Value9
values9 = st.sampled_from(V.ALL)


class TestEncoding:
    def test_pack_unpack_roundtrip(self):
        for value in V.ALL:
            assert V.pack(*V.unpack(value)) == value

    def test_named_constants(self):
        assert V.unpack(V.S0) == (0, 0)
        assert V.unpack(V.RISE) == (0, 1)
        assert V.unpack(V.FALL) == (1, 0)
        assert V.unpack(V.X0) == (X, 0)
        assert V.unpack(V.ZX) == (0, X)
        assert V.unpack(V.XX) == (X, X)

    def test_steady_and_transition(self):
        assert V.steady(0) == V.S0 and V.steady(1) == V.S1
        assert V.transition(True) == V.RISE
        assert V.transition(False) == V.FALL

    def test_predicates(self):
        assert V.is_steady(V.S1) and not V.is_steady(V.RISE)
        assert V.is_transition(V.FALL) and not V.is_transition(V.X0)

    def test_components(self):
        assert V.final_of(V.X1) == 1
        assert V.init_of(V.X1) is X
        assert V.final_of(V.ZX) is X

    def test_names_cover_all(self):
        assert len(V.NAMES) == 9
        assert V.name(V.X0) == "X0"


class TestMerge:
    def test_xx_is_identity(self):
        for value in V.ALL:
            assert merge9(V.XX, value) == value
            assert merge9(value, V.XX) == value

    def test_conflicts(self):
        assert merge9(V.S0, V.S1) == -1
        assert merge9(V.RISE, V.FALL) == -1
        assert merge9(V.S1, V.X0) == -1  # required steady 1 vs settles-to-0
        assert merge9(V.S1, V.RISE) == -1  # init 1 vs init 0

    def test_refinement(self):
        assert merge9(V.X1, V.S1) == V.S1
        assert merge9(V.ZX, V.RISE) == V.RISE
        assert merge9(V.X0, V.ZX) == V.S0  # init 0 + final 0

    @given(values9, values9)
    @settings(max_examples=81, deadline=None)
    def test_commutative(self, a, b):
        assert merge9(a, b) == merge9(b, a)

    @given(values9)
    @settings(max_examples=9, deadline=None)
    def test_idempotent(self, a):
        assert merge9(a, a) == a

    @given(values9, values9, values9)
    @settings(max_examples=200, deadline=None)
    def test_associative_when_defined(self, a, b, c):
        ab = merge9(a, b)
        bc = merge9(b, c)
        left = merge9(ab, c) if ab >= 0 else -1
        right = merge9(a, bc) if bc >= 0 else -1
        assert left == right

    def test_covers(self):
        assert covers(V.XX, V.S1)
        assert covers(V.X1, V.S1)
        assert not covers(V.S0, V.S1)


class TestCellEvaluator:
    def setup_method(self):
        self.lib = default_library()

    def test_paper_and2_example(self):
        """The paper's example: a falling transition on one AND2 input
        with the other input undetermined yields X0."""
        and2 = CellEvaluator(self.lib["AND2"])
        assert and2.evaluate([V.FALL, V.XX]) == V.X0

    def test_and2_transition_propagation(self):
        and2 = CellEvaluator(self.lib["AND2"])
        assert and2.evaluate([V.RISE, V.S1]) == V.RISE
        assert and2.evaluate([V.RISE, V.S0]) == V.S0

    def test_nand2_inverts(self):
        nand2 = CellEvaluator(self.lib["NAND2"])
        assert nand2.evaluate([V.RISE, V.S1]) == V.FALL
        assert nand2.evaluate([V.FALL, V.S1]) == V.RISE

    def test_xor_polarity_follows_side(self):
        xor = CellEvaluator(self.lib["XOR2"])
        assert xor.evaluate([V.RISE, V.S0]) == V.RISE
        assert xor.evaluate([V.RISE, V.S1]) == V.FALL

    def test_two_transitions(self):
        """Simultaneous same-polarity transitions on AND2 still rise."""
        and2 = CellEvaluator(self.lib["AND2"])
        assert and2.evaluate([V.RISE, V.RISE]) == V.RISE
        # Opposite transitions: starts at 0 ends at 0 (statically).
        assert and2.evaluate([V.RISE, V.FALL]) == V.S0

    def test_semi_undetermined_or(self):
        or2 = CellEvaluator(self.lib["OR2"])
        assert or2.evaluate([V.RISE, V.XX]) == V.X1

    def test_memoization(self):
        """Tables are built once per cell function: a drive variant
        shares its base cell's table object, across libraries too."""
        sized = sized_library()
        and2 = CellEvaluator(sized["AND2"])
        assert CellEvaluator(sized["AND2_X2"]).table is and2.table
        assert CellEvaluator(self.lib["AND2"]).table is and2.table
        assert and2.table[V.RISE + 9 * V.S1] == V.RISE
        assert and2.evaluate([V.RISE, V.S1]) == V.RISE

    def test_consistency_with_truth_table(self):
        """Pair evaluation agrees with evaluating init/final separately
        through the plain 3-valued function for every input combo."""
        ao22 = self.lib["AO22"]
        evaluator = CellEvaluator(ao22)
        pool = [V.S0, V.S1, V.RISE, V.FALL, V.XX]
        for combo in itertools.product(pool, repeat=2):
            values = list(combo) + [V.S0, V.S1]
            result = evaluator.evaluate(values)
            inits = [V.init_of(v) for v in values]
            finals = [V.final_of(v) for v in values]
            assert V.unpack(result) == (
                ao22.func.eval3(inits), ao22.func.eval3(finals)
            )


class TestNineValuedTables:
    def test_input_code_is_base9(self):
        assert input_code([]) == 0
        assert input_code([V.RISE]) == V.RISE
        assert input_code([V.RISE, V.S1, V.XX]) == (
            V.RISE + 9 * V.S1 + 81 * V.XX
        )

    def test_every_sized_cell_matches_eval3_pairs(self):
        """Every entry of every sized-library table equals the pair of
        three-valued evaluations of the code's init and final digits."""
        for cell in sized_library():
            table = CellEvaluator(cell).table
            n = cell.num_inputs
            assert len(table) == 9 ** n, cell.name
            for code in range(9 ** n):
                values = [(code // 9 ** k) % 9 for k in range(n)]
                inits = [V.init_of(v) for v in values]
                finals = [V.final_of(v) for v in values]
                expected = V.pack(cell.func.eval3(inits), cell.func.eval3(finals))
                assert table[code] == expected, (cell.name, values)
