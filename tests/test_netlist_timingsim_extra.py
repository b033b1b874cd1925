"""Additional timing-simulator coverage: hazards, horizons, modes."""

import pytest

from repro.netlist.circuit import Circuit
from repro.netlist.timingsim import TimingSimulator


def hazard_circuit():
    """z = AND(a, NOT a): static-0 with a potential dynamic hazard."""
    c = Circuit("hz")
    c.add_input("a")
    c.add_gate("INV", "an", {"A": "a"}, name="U1")
    c.add_gate("AND2", "z", {"A": "a", "B": "an"}, name="U2")
    c.add_output("z")
    c.check()
    return c


def mux_circuit():
    c = Circuit("mx")
    for n in ("a", "b", "s"):
        c.add_input(n)
    c.add_gate("MUX2", "z", {"A": "a", "B": "b", "S": "s"}, name="U1")
    c.add_output("z")
    c.check()
    return c


class TestHazards:
    def test_static_hazard_glitch_visible(self, charlib_poly_90):
        """a rising through AND(a, !a): the direct input arrives before
        the inverted one, so the output may glitch 0->1->0 but must end
        at 0 (the event simulator models the transport of both)."""
        sim = TimingSimulator(hazard_circuit(), charlib_poly_90)
        result = sim.simulate_transition({"a": 0}, "a", rising=True)
        assert result.final_values["z"] == 0
        events = result.events.get("z", [])
        # Either clean (inertial filtering removed the pulse) or a
        # glitch pair; never a dangling 1.
        if events:
            assert events[-1].value == 0

    def test_blocked_select_path(self, charlib_poly_90):
        """Toggling the deselected MUX data input produces no output
        event."""
        sim = TimingSimulator(mux_circuit(), charlib_poly_90)
        result = sim.simulate_transition(
            {"a": 0, "b": 0, "s": 1}, "a", rising=True
        )
        assert not result.toggled("z")

    def test_selected_path_propagates(self, charlib_poly_90):
        sim = TimingSimulator(mux_circuit(), charlib_poly_90)
        result = sim.simulate_transition(
            {"a": 0, "b": 0, "s": 0}, "a", rising=True
        )
        assert result.toggled("z")
        assert result.final_values["z"] == 1


class TestModes:
    def test_horizon_cuts_off(self, charlib_poly_90):
        from repro.netlist.generate import c17

        sim = TimingSimulator(c17(), charlib_poly_90)
        result = sim.simulate_transition(
            {"G1": 0, "G2": 1, "G3": 1, "G6": 1, "G7": 0}, "G1", True,
            horizon=1e-15,
        )
        # Nothing later than the horizon is applied.
        assert all(
            e.time <= 1e-15 for evs in result.events.values() for e in evs
        )

    def test_vector_blind_simulation(self, charlib_lut_90):
        """The simulator also runs on the baseline's LUT library."""
        from repro.netlist.generate import c17

        sim = TimingSimulator(c17(), charlib_lut_90)
        result = sim.simulate_transition(
            {"G1": 0, "G2": 1, "G3": 1, "G6": 1, "G7": 0}, "G1", True
        )
        assert result.toggled("G22") or result.toggled("G23")

    def test_blind_lookups_follow_the_library(self, charlib_lut_90):
        """A default-vector library is looked up vector-blind without
        being told: c432's NOR2 arcs exist there only as blind arcs, so
        a vector-resolved lookup would raise MissingArcsError."""
        from repro.service.requests import load_circuit

        circuit = load_circuit("iscas:c432@0.05")
        sim = TimingSimulator(circuit, charlib_lut_90)
        for bit in (0, 1):
            vector = {net: bit for net in circuit.inputs}
            for origin in circuit.inputs:
                sim.simulate_transition(vector, origin, rising=True)
        assert sim.calc.vector_blind

    def test_select_toggle_uses_mux_vectors(self, charlib_poly_90):
        """Toggling S with A != B propagates (a multi-vector pin)."""
        sim = TimingSimulator(mux_circuit(), charlib_poly_90)
        result = sim.simulate_transition(
            {"a": 0, "b": 1, "s": 0}, "s", rising=True
        )
        assert result.toggled("z")
        assert result.final_values["z"] == 1
