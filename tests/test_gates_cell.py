"""Unit tests for cell definitions and sensitization vectors."""

import pickle

import pytest

from repro.gates.cell import Cell, SensitizationVector, expr_function
from repro.gates.library import default_library, sized_library
from repro.gates.logic import BoolFunc


@pytest.fixture(scope="module")
def lib():
    return default_library()


class TestCellBasics:
    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            Cell("BAD", ["A", "B"], BoolFunc.constant(3, 0))

    def test_duplicate_pins(self):
        with pytest.raises(ValueError):
            Cell("BAD", ["A", "A"], BoolFunc.constant(2, 0))

    def test_pin_index(self, lib):
        nand3 = lib["NAND3"]
        assert nand3.pin_index("C") == 2
        with pytest.raises(KeyError):
            nand3.pin_index("Z")

    def test_evaluate(self, lib):
        ao22 = lib["AO22"]
        assert ao22.evaluate({"A": 1, "B": 1, "C": 0, "D": 0}) == 1
        assert ao22.evaluate({"A": 1, "B": 0, "C": 0, "D": 0}) == 0

    def test_repr(self, lib):
        assert "AO22" in repr(lib["AO22"])


class TestSensitizationVectors:
    def test_paper_table1_ao22_input_a(self, lib):
        """The exact rows of the paper's Table 1 for input A."""
        vectors = lib["AO22"].sensitization_vectors("A")
        sides = [v.side_values for v in vectors]
        assert sides == [
            {"B": 1, "C": 0, "D": 0},
            {"B": 1, "C": 1, "D": 0},
            {"B": 1, "C": 0, "D": 1},
        ]
        assert [v.case for v in vectors] == [1, 2, 3]

    def test_paper_table1_total(self, lib):
        total = sum(len(v) for v in lib["AO22"].sensitization_vectors().values())
        assert total == 12  # "a total of 12 different delay propagation values"

    def test_paper_table2_oa12(self, lib):
        oa12 = lib["OA12"]
        assert [v.side_values for v in oa12.sensitization_vectors("C")] == [
            {"A": 1, "B": 0},
            {"A": 0, "B": 1},
            {"A": 1, "B": 1},
        ]
        assert len(oa12.sensitization_vectors("A")) == 1
        assert len(oa12.sensitization_vectors("B")) == 1

    def test_simple_gate_single_vector(self, lib):
        """'single gates have typically only one sensitization vector'."""
        for name in ("INV", "NAND2", "NAND3", "NOR2", "AND2", "OR4"):
            cell = lib[name]
            for pin in cell.inputs:
                assert len(cell.sensitization_vectors(pin)) == 1

    def test_xor_two_vectors_per_pin(self, lib):
        xor = lib["XOR2"]
        for pin in xor.inputs:
            vectors = xor.sensitization_vectors(pin)
            assert len(vectors) == 2
            assert {v.inverting for v in vectors} == {False, True}

    def test_mux_select_pin(self, lib):
        mux = lib["MUX2"]
        s_vectors = mux.sensitization_vectors("S")
        # S toggles the output only when A != B.
        assert len(s_vectors) == 2
        for v in s_vectors:
            assert v.side_values["A"] != v.side_values["B"]

    def test_vector_by_id_roundtrip(self, lib):
        ao22 = lib["AO22"]
        for pin in ao22.inputs:
            for vec in ao22.sensitization_vectors(pin):
                assert ao22.vector_by_id(vec.vector_id) is vec

    def test_vector_by_id_missing(self, lib):
        with pytest.raises(KeyError):
            lib["AO22"].vector_by_id("A:999")

    def test_unknown_pin(self, lib):
        with pytest.raises(KeyError):
            lib["AO22"].sensitization_vectors("Q")

    def test_is_complex(self, lib):
        assert lib["AO22"].is_complex
        assert lib["OA12"].is_complex
        assert not lib["NAND2"].is_complex
        assert not lib["INV"].is_complex

    def test_polarity_non_inverting_families(self, lib):
        for name in ("AND2", "OR3", "AO22", "OA12", "BUF"):
            cell = lib[name]
            for pin, vectors in cell.sensitization_vectors().items():
                for v in vectors:
                    assert v.inverting is False, (name, pin)

    def test_polarity_inverting_families(self, lib):
        for name in ("INV", "NAND2", "NOR4", "AOI22", "OAI12"):
            cell = lib[name]
            for pin, vectors in cell.sensitization_vectors().items():
                for v in vectors:
                    assert v.inverting is True, (name, pin)


class TestVectorObject:
    def test_vector_id_format(self, lib):
        v = lib["AO22"].sensitization_vectors("A")[0]
        assert v.vector_id == "A:100"  # B=1, C=0, D=0

    def test_repr_and_hash(self, lib):
        vectors = lib["AO22"].sensitization_vectors("A")
        assert len({hash(v) for v in vectors}) == 3
        assert "case1" in repr(vectors[0])

    def test_cached_vector_id_matches_the_computed_key(self):
        """``vector_id`` is computed once per vector; the cached string
        is the ``"pin:bits"`` key, and equality, hashing and pickling
        still go by the fields alone."""
        for cell in sized_library():
            for vectors in cell.sensitization_vectors().values():
                for v in vectors:
                    bits = "".join(str(v.side_values[p])
                                   for p in sorted(v.side_values))
                    assert v.vector_id == f"{v.pin}:{bits}"
                    assert v.vector_id is v.vector_id
                    fresh = SensitizationVector(
                        v.cell_name, v.pin, v.case, dict(v.side_values),
                        v.inverting)
                    assert fresh == v and hash(fresh) == hash(v)
                    back = pickle.loads(pickle.dumps(v))
                    assert back == v and hash(back) == hash(v)
                    assert back.vector_id == v.vector_id


class TestJustificationCubes:
    def test_pin_names(self, lib):
        cubes = lib["NAND2"].justification_cubes(1)
        assert {frozenset(c.items()) for c in cubes} == {
            frozenset({("A", 0)}), frozenset({("B", 0)})
        }

    def test_cached(self, lib):
        cell = lib["AO21"]
        assert cell.justification_cubes(0) is cell.justification_cubes(0)


class TestExprFunction:
    def test_series_is_and(self):
        f = expr_function(("s", "A", "B"), ["A", "B"])
        assert f == BoolFunc.from_callable(2, lambda a, b: a and b)

    def test_parallel_is_or(self):
        f = expr_function(("p", "A", "B"), ["A", "B"])
        assert f == BoolFunc.from_callable(2, lambda a, b: a or b)

    def test_negated_literal(self):
        f = expr_function(("s", "A", "!B"), ["A", "B"])
        assert f.eval((1, 0)) == 1
        assert f.eval((1, 1)) == 0

    def test_bad_node(self):
        with pytest.raises(ValueError):
            expr_function(("x", "A"), ["A"]).eval((1,))

    def test_transistor_count(self, lib):
        assert lib["INV"].transistor_count() == 2
        assert lib["NAND2"].transistor_count() == 4
        assert lib["AOI22"].transistor_count() == 8
        assert lib["AO22"].transistor_count() == 10  # AOI22 core + inverter
        assert lib["XOR2"].transistor_count() == 14  # 8 core + 4 inv-in + 2 out
