"""Incremental STA: dirty-cone repair is byte-identical to from-scratch
re-analysis across edit sequences, and strictly cheaper on the metrics
that matter (cone size, levels reswept)."""

import pytest

from repro.core.incremental import IncrementalSTA
from repro.core.sta import TruePathSTA
from repro.eval.iscas import build_circuit
from repro.verify.metamorphic import _path_identity


def _scratch_state(circuit, charlib, n_worst=4):
    """Reference tuple from a fresh analysis of the circuit as-is."""
    sta = TruePathSTA(circuit, charlib)
    timing = sta.ec.tgraph.forward_arrivals(sta.calc)
    return (
        timing.arrivals,
        timing.slews,
        sta.calc.required_bounds(),
        sta.calc.remaining_bounds(),
        [_path_identity(p) for p in sta.n_worst_paths(n_worst)],
    )


def _session_state(session, n_worst=4):
    return (
        session.arrivals(),
        session.slews(),
        session.required_bounds(),
        session.suffix_bounds(),
        [_path_identity(p) for p in session.n_worst_paths(n_worst)],
    )


def _pi_fanout_gate(circuit):
    """A gate every input of which is a primary input."""
    inputs = set(circuit.inputs)
    for name in sorted(circuit.instances):
        inst = circuit.instances[name]
        if all(net in inputs for net in inst.pins.values()):
            return name
    raise AssertionError("no PI-fanout gate in circuit")


def _endpoint_gate(circuit):
    """A gate driving a primary output."""
    outputs = set(circuit.outputs)
    for name in sorted(circuit.instances):
        if circuit.instances[name].output_net in outputs:
            return name
    raise AssertionError("no endpoint gate in circuit")


class TestEditIdentity:
    """Satellite: edit-sequence edge cases, each checked bit-for-bit
    against a from-scratch rebuild of the mutated circuit."""

    def test_pi_fanout_gate_edit(self, charlib_poly_90):
        circuit = build_circuit("c17")
        session = IncrementalSTA(circuit, charlib_poly_90)
        name = _pi_fanout_gate(circuit)
        report = session.replace_cell(name, "AND2")
        assert report.to_cell == "AND2"
        assert not report.full_rebuild
        assert _session_state(session) == _scratch_state(
            circuit, charlib_poly_90
        )

    def test_endpoint_gate_edit(self, charlib_poly_90):
        circuit = build_circuit("c17")
        session = IncrementalSTA(circuit, charlib_poly_90)
        name = _endpoint_gate(circuit)
        report = session.replace_cell(name, "NOR2")
        # An endpoint gate has no transitive fanout of its own; the
        # cone is its dirty drivers plus their direct sinks, not the
        # whole circuit.
        assert report.cone_gates < len(circuit.instances)
        assert _session_state(session) == _scratch_state(
            circuit, charlib_poly_90
        )

    def test_edit_inside_cached_nworst_path(self, charlib_poly_90):
        circuit = build_circuit("c17")
        session = IncrementalSTA(circuit, charlib_poly_90)
        before = session.n_worst_paths(4)  # populates the memo
        target = before[0].steps[0].gate_name
        session.replace_cell(target, "AND2")
        # The memoized report crossed the dirty cone; the session must
        # serve the re-analyzed circuit, not the stale memo.
        assert _session_state(session) == _scratch_state(
            circuit, charlib_poly_90
        )

    def test_two_edits_with_overlapping_cones(self, charlib_poly_90):
        circuit = build_circuit("c17")
        session = IncrementalSTA(circuit, charlib_poly_90)
        first = _pi_fanout_gate(circuit)
        session.replace_cell(first, "AND2")
        # Second edit: a sink of the first gate's output -- the cones
        # share the downstream levels.
        out_net = circuit.instances[first].output_net
        second = next(
            name for name in sorted(circuit.instances)
            if name != first
            and out_net in circuit.instances[name].pins.values()
        )
        session.replace_cell(second, "OR2")
        assert _session_state(session) == _scratch_state(
            circuit, charlib_poly_90
        )

    def test_edit_then_revert_restores_original(self, charlib_poly_90):
        circuit = build_circuit("c17")
        want = _scratch_state(circuit, charlib_poly_90)
        session = IncrementalSTA(circuit, charlib_poly_90)
        name = _pi_fanout_gate(circuit)
        session.replace_cell(name, "XOR2")
        session.replace_cell(name, "NAND2")
        assert _session_state(session) == want

    def test_slew_domain_move_rebuilds_and_counts(self, tech90, clean_obs):
        """An edit that moves the achievable-slew ceiling falls back to
        the counted full rebuild, and still lands on the from-scratch
        state.  A NAND2 driving 16 INVs sits at the 240 ps ceiling; one
        INV_X2 sink's doubled pin cap raises it to ~255 ps (at fanout 15
        it stays at 240 ps, at 20 the fixed point stops converging)."""
        from repro.charlib.characterize import (
            FAST_GRID, characterize_library,
        )
        from repro.gates.library import sized_library
        from repro.netlist.circuit import Circuit

        library = sized_library()
        charlib = characterize_library(
            library, tech90, grid=FAST_GRID,
            cells=["INV", "INV_X2", "NAND2", "NAND2_X2", "AO22", "AO22_X2"],
        )
        circuit = Circuit("fanout16", library)
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("NAND2", "n", {"A": "a", "B": "b"}, name="U0")
        for k in range(16):
            circuit.add_gate("INV", f"z{k}", {"A": "n"}, name=f"UL{k}")
            circuit.add_output(f"z{k}")
        session = IncrementalSTA(circuit, charlib)
        session.refresh()
        report = session.replace_cell("UL0", "INV_X2")
        assert report.full_rebuild
        assert clean_obs.snapshot()["incremental.full_rebuilds"] == 1
        assert _session_state(session) == _scratch_state(circuit, charlib)


class TestResize:
    def test_resize_uses_drive_variant(self, tech90):
        from repro.charlib.characterize import (
            FAST_GRID, characterize_library,
        )
        from repro.gates.library import sized_library

        circuit = build_circuit("c17")
        circuit.library = sized_library()
        charlib = characterize_library(
            sized_library(), tech90, grid=FAST_GRID,
            cells=["NAND2", "NAND2_X2"],
        )
        session = IncrementalSTA(circuit, charlib)
        name = _endpoint_gate(circuit)
        report = session.resize(name)
        assert report.from_cell == "NAND2"
        assert report.to_cell == "NAND2_X2"
        assert _session_state(session) == _scratch_state(circuit, charlib)

    def test_resize_without_variant_raises(self, charlib_poly_90):
        circuit = build_circuit("c17")
        session = IncrementalSTA(circuit, charlib_poly_90)
        with pytest.raises(ValueError, match="drive variant"):
            session.resize(_endpoint_gate(circuit))


class TestErrors:
    def test_unknown_instance(self, charlib_poly_90):
        session = IncrementalSTA(build_circuit("c17"), charlib_poly_90)
        with pytest.raises(KeyError, match="unknown instance"):
            session.replace_cell("nope", "AND2")

    def test_pin_incompatible_swap(self, charlib_poly_90):
        circuit = build_circuit("c17")
        session = IncrementalSTA(circuit, charlib_poly_90)
        name = _pi_fanout_gate(circuit)
        with pytest.raises(ValueError, match="pin-compatible"):
            session.replace_cell(name, "INV")

    def test_worst_path_on_empty_circuit(self, charlib_poly_90):
        from repro.netlist.circuit import Circuit

        circuit = Circuit("empty")
        circuit.add_input("a")
        circuit.add_output("a")
        session = IncrementalSTA(circuit, charlib_poly_90)
        with pytest.raises(ValueError, match="no true paths"):
            session.worst_path()


class TestMetricsAndLocality:
    def test_edit_metrics_published(self, charlib_poly_90, clean_obs):
        circuit = build_circuit("c17")
        session = IncrementalSTA(circuit, charlib_poly_90)
        session.n_worst_paths(2)
        session.replace_cell(_pi_fanout_gate(circuit), "AND2")
        session.n_worst_paths(2)
        session.n_worst_paths(2)  # second query hits the version memo
        snapshot = clean_obs.snapshot()
        assert snapshot["incremental.edits"] == 1
        assert snapshot["incremental.cone_gates"] >= 1
        assert snapshot["incremental.levels_reswept"] >= 1
        assert snapshot.get("incremental.full_rebuilds", 0) == 0
        assert snapshot["incremental.nworst_cache_hits"] == 1
        assert snapshot["incremental.graph_levels"] >= 1

    def test_endpoint_cone_is_local_on_c432(self, charlib_poly_90,
                                            clean_obs, monkeypatch):
        from repro.core.tarrays import TimingArrays

        honest = TimingArrays.slew_peaks
        swept = []

        def spy(self, samples, gate_indices=None):
            swept.append(None if gate_indices is None
                         else list(gate_indices))
            return honest(self, samples, gate_indices)

        monkeypatch.setattr(TimingArrays, "slew_peaks", spy)
        circuit = build_circuit("c432", scale=0.25)
        session = IncrementalSTA(circuit, charlib_poly_90)
        session.refresh()
        assert swept == [None]  # the slew fixed point sweeps every gate once
        name = _endpoint_gate(circuit)
        report = session.replace_cell(name, "NOR2")
        # The edit re-sweeps the slew peaks of its dirty gates only: the
        # edited gate and the drivers of its input nets.  The peak
        # tables must outlive the SoA tables an edit drops.
        gate = next(g for g in session.ec.gates if g.inst.name == name)
        drivers = {session.ec.driver[net] for net in gate.input_nets}
        assert swept == [None, sorted(({gate.index} | drivers) - {-1})]
        total_gates = len(circuit.instances)
        assert report.cone_gates < total_gates / 4
        snapshot = clean_obs.snapshot()
        assert (snapshot["incremental.levels_reswept"]
                < 2 * snapshot["incremental.graph_levels"])
        assert _session_state(session, n_worst=2) == _scratch_state(
            circuit, charlib_poly_90, n_worst=2
        )
