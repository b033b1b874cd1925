"""Unit tests for the ISCAS .bench reader/writer and the one-step
mapped load (:func:`repro.netlist.techmap.techmap_bench`)."""

import itertools

import pytest

from repro.gates.cell import Cell
from repro.gates.library import Library, default_library
from repro.netlist.bench import (
    C17_BENCH,
    BenchParseError,
    parse_bench,
    write_bench,
)
from repro.netlist.circuit import Circuit
from repro.netlist.generate import random_dag
from repro.netlist.techmap import equivalent, techmap, techmap_bench


def two_step(text, name="bench", library=None):
    return techmap(parse_bench(text, name=name, library=library))


def structure(circuit):
    """Everything a mapped load must reproduce: name, ports, nets in
    order with their driver and sinks, instances with cells and pin maps,
    and the topological order."""
    return (
        circuit.name,
        circuit.library.name,
        list(circuit.inputs),
        list(circuit.outputs),
        [(net.name, net.is_input, net.is_output,
          net.driver.name if net.driver else None,
          [(inst.name, pin) for inst, pin in net.sinks])
         for net in circuit.nets.values()],
        [(inst.name, inst.cell.name, list(inst.pins.items()), inst.output_net)
         for inst in circuit.instances.values()],
        [inst.name for inst in circuit.topological()],
    )


class TestParse:
    def test_c17(self):
        c = parse_bench(C17_BENCH, name="c17")
        assert c.num_gates == 6
        assert len(c.inputs) == 5
        assert len(c.outputs) == 2
        assert all(i.cell.name == "NAND2" for i in c.instances.values())

    def test_c17_function(self):
        c = parse_bench(C17_BENCH)
        # Published c17 logic: G22 = NAND(G10,G16), G23 = NAND(G16,G19)
        v = c.simulate({"G1": 0, "G2": 0, "G3": 1, "G6": 1, "G7": 1})
        g10 = 1 - (0 & 1)
        g11 = 1 - (1 & 1)
        g16 = 1 - (0 & g11)
        g19 = 1 - (g11 & 1)
        assert v["G22"] == 1 - (g10 & g16)
        assert v["G23"] == 1 - (g16 & g19)

    def test_comments_and_blank_lines(self):
        text = """
        # comment
        INPUT(a)  # trailing
        INPUT(b)
        OUTPUT(z)
        z = AND(a, b)
        """
        c = parse_bench(text)
        assert c.simulate({"a": 1, "b": 1})["z"] == 1

    def test_not_and_buff(self):
        c = parse_bench("INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = NOT(a)\nz = BUFF(a)\n")
        assert c.simulate({"a": 1}) == {"a": 1, "y": 0, "z": 1}

    def test_file_object(self, tmp_path):
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        with open(path) as handle:
            c = parse_bench(handle, name="c17")
        assert c.num_gates == 6

    @pytest.mark.parametrize(
        "keyword,fn",
        [
            ("AND", lambda bits: all(bits)),
            ("OR", lambda bits: any(bits)),
            ("NAND", lambda bits: not all(bits)),
            ("NOR", lambda bits: not any(bits)),
            ("XOR", lambda bits: sum(bits) % 2 == 1),
            ("XNOR", lambda bits: sum(bits) % 2 == 0),
        ],
    )
    @pytest.mark.parametrize("width", [2, 3, 5, 7])
    def test_wide_gate_decomposition(self, keyword, fn, width):
        """Fan-in beyond the library maximum decomposes exactly, on both
        load paths, and the one-step mapped load of the tree equals the
        two-step one."""
        nets = [f"i{k}" for k in range(width)]
        text = "\n".join(
            [f"INPUT({n})" for n in nets]
            + ["OUTPUT(z)", f"z = {keyword}({', '.join(nets)})"]
        )
        one_step = techmap_bench(text)
        for c in (parse_bench(text), one_step):
            for bits in itertools.product((0, 1), repeat=width):
                values = dict(zip(nets, bits))
                assert c.simulate(values)["z"] == (1 if fn(bits) else 0), (keyword, bits)
        assert structure(one_step) == structure(two_step(text))

    def test_errors(self):
        with pytest.raises(BenchParseError, match="cannot parse"):
            parse_bench("INPUT(a)\nz AND(a)\n")
        with pytest.raises(BenchParseError, match="unknown gate"):
            parse_bench("INPUT(a)\nINPUT(b)\nz = FROB(a, b)\n")
        with pytest.raises(BenchParseError, match="one operand"):
            parse_bench("INPUT(a)\nINPUT(b)\nz = NOT(a, b)\n")
        with pytest.raises(BenchParseError, match=">= 2"):
            parse_bench("INPUT(a)\nz = AND(a)\n")

    @pytest.mark.parametrize("line", ["z = AND(a, , c)", "z = AND(a, c,)",
                                      "z = NOT( , a)"])
    def test_empty_operand_is_an_error(self, line):
        """An empty operand is not dropped: ``AND(a, , c)`` is not AND2."""
        text = f"INPUT(a)\nINPUT(c)\nOUTPUT(z)\n{line}\n"
        for load in (parse_bench, techmap_bench):
            with pytest.raises(BenchParseError) as info:
                load(text)
            assert str(info.value) == f"line 4: empty operand in {line!r}"


class TestWrite:
    def test_roundtrip_c17(self):
        c = parse_bench(C17_BENCH, name="c17")
        again = parse_bench(write_bench(c), name="c17rt")
        assert equivalent(c, again)

    @pytest.mark.parametrize("load", [parse_bench, techmap_bench],
                             ids=["parse", "one-step"])
    def test_roundtrip_dotted_and_indexed_nets(self, load):
        """A gate line drives any name an IO line declares (the names
        structural Verilog ports take), so written files read back."""
        c = Circuit("dots")
        for net in ("a[0]", "b.x"):
            c.add_input(net)
        c.add_gate("NAND2", "n.1", {"A": "a[0]", "B": "b.x"})
        c.add_gate("INV", "z[1]", {"A": "n.1"})
        c.add_output("z[1]")
        again = load(write_bench(c), name="dots")
        assert equivalent(c, again)
        assert set(again.nets) >= {"a[0]", "b.x", "z[1]"}

    def test_complex_cell_rejected(self):
        from repro.netlist.circuit import Circuit

        c = Circuit("x")
        for n in ("a", "b", "c", "d"):
            c.add_input(n)
        c.add_gate("AO22", "z", {"A": "a", "B": "b", "C": "c", "D": "d"})
        c.add_output("z")
        with pytest.raises(ValueError, match="unmap"):
            write_bench(c)


#: Small texts that reach each reader feature once.
SMALL_TEXTS = {
    "not-buff": "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = NOT(a)\nz = BUFF(a)\n",
    "comments": """
        # comment
        INPUT(a)  # trailing
        INPUT(b)
        OUTPUT(z)
        z = AND(a, b)   # and a gate
        """,
    "interleaved-io": ("OUTPUT(z)\nINPUT(b)\nOUTPUT(y)\nINPUT(a)\n"
                       "y = NAND(a, b)\nINPUT(c)\nz = NOR(y, c)\n"),
    "duplicate-declarations": ("INPUT(a)\nINPUT(b)\nINPUT(a)\nOUTPUT(z)\n"
                               "OUTPUT(z)\nOUTPUT(a)\nz = XOR(a, b)\n"),
    # Lines out of topological order, inverter pairs and AND-OR clusters
    # for the rewrite passes.
    "out-of-order": ("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(z)\n"
                     "z = NOT(w)\nw = OR(p, q)\np = AND(a, b)\n"
                     "q = AND(c, d)\n"),
    "inverter-chain": ("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(m)\n"
                       "m = AND(a, b)\nn = NOT(m)\nz = NOT(n)\n"),
}


def _broken_inv_library():
    """The default library with AND3 missing and INV's pin renamed."""
    lib = default_library()
    cells = [c for c in lib if c.name not in ("AND3", "INV")]
    cells.append(Cell("INV", ("X",), lib["INV"].func, lib["INV"].pdn))
    return Library("broken", cells)


#: Malformed netlists: (text, library) per case.
MALFORMED = {
    "unparseable-line": ("INPUT(a)\nz AND(a)\n", None),
    "unknown-keyword": ("INPUT(a)\nINPUT(b)\nz = FROB(a, b)\n", None),
    "not-arity": ("INPUT(a)\nINPUT(b)\nz = NOT(a, b)\n", None),
    "buff-arity": ("INPUT(a)\nz = BUFF()\n", None),
    "and-arity": ("INPUT(a)\nz = AND(a)\n", None),
    "empty-operand": ("INPUT(a)\nINPUT(c)\nz = AND(a, , c)\n", None),
    "unknown-cell": ("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\n"
                     "z = AND(a, b, c)\n", _broken_inv_library()),
    "bad-pin-set": ("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n",
                    _broken_inv_library()),
    "two-drivers": ("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUFF(a)\n", None),
    "two-drivers-wide-tree": ("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\n"
                              "INPUT(e)\nOUTPUT(z)\nz__w0 = AND(a, b)\n"
                              "z = AND(a, b, c, d, e)\n", None),
    "driven-input": ("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n"
                     "a = NOT(b)\n", None),
    "driven-input-declared-later": ("INPUT(a)\nINPUT(b)\nz = AND(a, b)\n"
                                    "INPUT(z)\n", None),
    "undriven-net": ("INPUT(a)\nOUTPUT(z)\nz = AND(a, q)\n", None),
    # Two undriven nets: the first the reader creates is named.
    "undriven-output": ("OUTPUT(y)\nINPUT(a)\nOUTPUT(z)\nz = AND(a, q)\n",
                        None),
    "loop": ("INPUT(a)\nOUTPUT(z)\nz = AND(a, y)\ny = NOT(z)\n", None),
    "self-loop": ("INPUT(a)\nOUTPUT(z)\nz = AND(a, z)\n", None),
    "inverter-self-loop": ("INPUT(a)\nOUTPUT(z)\nz = AND(a, y)\n"
                           "y = NOT(y)\n", None),
}


def _error(load):
    with pytest.raises(Exception) as info:
        load()
    return type(info.value), str(info.value)


class TestOneStepLoad:
    """``techmap_bench(text)`` builds the circuit ``techmap(parse_bench(
    text))`` builds, and fails where it fails, with the same error."""

    @pytest.mark.parametrize("n_inputs,n_gates,seed", [
        (16, 80, 0), (16, 80, 1), (16, 80, 2),  # search-nworst size
        (40, 400, 3), (140, 1600, 4),           # gba-large range
    ])
    def test_random_dag(self, n_inputs, n_gates, seed):
        text = write_bench(random_dag(f"r{seed}", n_inputs, n_gates,
                                      n_outputs=n_inputs // 2, seed=seed))
        one = techmap_bench(text, name=f"r{seed}")
        assert structure(one) == structure(two_step(text, name=f"r{seed}"))
        assert one.name == f"r{seed}_mapped"

    def test_c17(self):
        assert (structure(techmap_bench(C17_BENCH, name="c17"))
                == structure(two_step(C17_BENCH, name="c17")))

    @pytest.mark.parametrize("key", sorted(SMALL_TEXTS))
    def test_reader_features(self, key):
        text = SMALL_TEXTS[key]
        one = techmap_bench(text)
        assert structure(one) == structure(two_step(text))
        assert equivalent(one, parse_bench(text))

    def test_custom_library(self):
        lib = default_library()
        small = Library("small", [c for c in lib if c.name != "AO22"])
        text = SMALL_TEXTS["out-of-order"]
        one = techmap_bench(text, library=small)
        assert one.library is small
        assert structure(one) == structure(two_step(text, library=small))

    @pytest.mark.parametrize("key", sorted(MALFORMED))
    def test_error_parity(self, key):
        text, library = MALFORMED[key]
        expected = _error(lambda: two_step(text, "n", library))
        assert _error(lambda: techmap_bench(text, "n", library)) == expected

    def test_load_circuit_builds_one_circuit(self, tmp_path, monkeypatch):
        """A mapped ``.bench`` load builds the mapped circuit only."""
        from repro.service.requests import load_circuit

        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        builds = []
        honest = Circuit.__init__

        def spy(self, name, library=None):
            builds.append(name)
            honest(self, name, library)

        monkeypatch.setattr(Circuit, "__init__", spy)
        assert load_circuit(str(path)).name == "c17_mapped"
        assert builds == ["c17_mapped"]
        builds.clear()
        assert load_circuit(str(path), map_to_complex=False).name == "c17"
        assert builds == ["c17"]
