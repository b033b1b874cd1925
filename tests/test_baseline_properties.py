"""Property-based tests of the structural enumerator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.structural import StructuralEnumerator
from repro.core.delaycalc import DelayCalculator
from repro.core.engine import EngineCircuit
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap


def make_enum(seed, charlib):
    circuit = techmap(random_dag(f"sp{seed}", 10, 45, seed=seed))
    ec = EngineCircuit(circuit)
    calc = DelayCalculator(ec, charlib)
    return circuit, ec, StructuralEnumerator(ec, calc)


class TestEnumerationProperties:
    @given(st.integers(0, 2000))
    @settings(max_examples=10, deadline=None)
    def test_longest_first_and_complete(self, seed, ):
        from repro.charlib.characterize import FAST_GRID, characterize_library
        from repro.gates.library import default_library
        from repro.tech.presets import TECHNOLOGIES

        charlib = characterize_library(
            default_library(), TECHNOLOGIES["90nm"], grid=FAST_GRID,
            model="lut", vector_mode="default",
        )
        circuit, ec, enum = make_enum(seed, charlib)
        paths = list(enum.iter_paths())
        # Complete: matches the DP count.
        assert len(paths) == enum.count_paths()
        # Ordered: non-increasing structural delay.
        delays = [p.structural_delay for p in paths]
        assert all(a >= b - 1e-18 for a, b in zip(delays, delays[1:]))
        # Distinct hop sequences.
        assert len({p.hops for p in paths}) == len(paths)
        # Well-formed: each path starts at an input, ends at an output.
        for p in paths[:50]:
            assert ec.is_input[p.origin_net]
            assert ec.is_output[p.terminal_net]
            # hops are connected
            current = p.origin_net
            for gate_index, pin in p.hops:
                gate = ec.gates[gate_index]
                assert ec.net_id[gate.inst.pins[pin]] == current
                current = gate.output_net

    def test_limit_prefix_property(self, charlib_lut_90):
        """iter_paths(limit=k) is a prefix of the full enumeration."""
        _c, _ec, enum = make_enum(42, charlib_lut_90)
        full = [p.hops for p in enum.iter_paths()]
        short = [p.hops for p in enum.iter_paths(limit=5)]
        assert short == full[:5]
