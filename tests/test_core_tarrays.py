"""SoA-vs-reference equivalence for the vectorized timing core.

The sweeps in :mod:`repro.core.tarrays` promise *byte identity* with
the arc-at-a-time reference passes in :mod:`repro.verify.metamorphic`,
not approximate agreement: every arrival, slew, slew peak, prune bound
and N-worst report must be bitwise the same float.  These tests pin
that contract on the ISCAS suite, on seeded fuzz netlists, and on
degenerate graphs, and also pin the batch-equivalence law of the
models that the whole scheme rests on (``evaluate_many(batch)[i]``
bitwise-equal to ``evaluate(batch[i])``).
"""

import pickle

import numpy as np
import pytest

from repro.core.delaycalc import DelayCalculator
from repro.core.engine import EngineCircuit
from repro.core.pathfinder import PathFinder
from repro.core.sta import TruePathSTA
from repro.core.tarrays import CompiledTables, TimingArrays
from repro.core.tgraph import PruneBounds
from repro.eval.iscas import build_circuit
from repro.obs import metrics as obs_metrics
from repro.perf.parallel import supervised_find_paths
from repro.verify.fuzz import generate_case
from repro.verify.metamorphic import (
    reference_bound_slews,
    reference_forward,
    reference_required_bounds,
    reference_slew_peaks,
)


def _calcs(circuit, charlib):
    """A (reference, default) calculator pair over independent engines:
    the first one only ever feeds the arc-at-a-time reference passes."""
    blind = charlib.metadata.get("vector_mode") == "default"
    return tuple(
        DelayCalculator(EngineCircuit(circuit), charlib, vector_blind=blind)
        for _ in range(2)
    )


def _assert_identical(circuit, charlib):
    """Forward pass, slew ceiling, slew peaks and prune bounds are
    byte-identical."""
    reference, calc = _calcs(circuit, charlib)

    ft = calc.ec.tgraph.forward_arrivals(calc)
    ft_ref = reference_forward(reference)
    assert ft.arrivals == ft_ref.arrivals
    assert ft.slews == ft_ref.slews

    samples = calc.bound_slews()
    assert reference_bound_slews(reference) == samples
    peaks = reference_slew_peaks(reference, samples)
    assert calc.tarrays.slew_peaks(samples) == peaks

    pb = calc.prune_bounds()
    assert pb.required == tuple(reference_required_bounds(reference))
    assert pb.suffix == tuple(reference.remaining_bounds())


class TestIscasEquivalence:
    @pytest.mark.parametrize("spec", ["c17", "c432@0.3", "c1908@0.25"])
    def test_polynomial(self, spec, charlib_poly_90):
        name, _, scale = spec.partition("@")
        circuit = build_circuit(name, scale=float(scale) if scale else 1.0)
        _assert_identical(circuit, charlib_poly_90)

    @pytest.mark.parametrize("spec", ["c17", "c432@0.3"])
    def test_lut(self, spec, charlib_lut_90):
        name, _, scale = spec.partition("@")
        circuit = build_circuit(name, scale=float(scale) if scale else 1.0)
        _assert_identical(circuit, charlib_lut_90)


class TestFuzzEquivalence:
    @pytest.mark.parametrize("index", range(4))
    def test_seeded_netlists(self, index, charlib_poly_90):
        _assert_identical(generate_case(2026, index), charlib_poly_90)


class TestDegenerateGraphs:
    def test_single_gate(self, library, charlib_poly_90):
        from repro.netlist.circuit import Circuit

        circuit = Circuit("onegate", library)
        circuit.add_input("a")
        circuit.add_gate("INV", "out", {"A": "a"})
        circuit.add_output("out")
        circuit.check()
        _assert_identical(circuit, charlib_poly_90)

    def test_fanout_chain(self, library, charlib_poly_90):
        """A diamond plus a side net exercising fanout > 1 per level."""
        from repro.netlist.circuit import Circuit

        circuit = Circuit("diamond", library)
        circuit.add_input("a")
        circuit.add_gate("INV", "u", {"A": "a"})
        circuit.add_gate("INV", "v", {"A": "a"})
        circuit.add_gate("NAND2", "out", {"A": "u", "B": "v"})
        circuit.add_output("out")
        circuit.check()
        _assert_identical(circuit, charlib_poly_90)


class TestSlewFixedPointReference:
    def test_catches_intermediate_round_overreport(self, charlib_poly_90,
                                                   monkeypatch):
        """A kernel that over-reports only on the first ceiling round
        moves the final grid, yet agrees with the reference on it; only
        the whole-fixed-point comparison notices."""
        reference, calc = _calcs(build_circuit("c17"), charlib_poly_90)
        honest = TimingArrays.slew_peaks
        rounds = []

        def first_round_inflated(self, samples, gate_indices=None):
            peaks = honest(self, samples, gate_indices)
            rounds.append(samples)
            return [10.0 * p for p in peaks] if len(rounds) == 1 else peaks

        monkeypatch.setattr(TimingArrays, "slew_peaks", first_round_inflated)
        samples = calc.bound_slews()
        assert len(rounds) >= 2
        assert (calc.tarrays.slew_peaks(samples)
                == reference_slew_peaks(reference, samples))
        assert reference_bound_slews(reference) != samples


class TestBatchEquivalenceLaw:
    """``evaluate_many(batch)[i]`` must be bitwise ``evaluate(batch[i])``.

    This is the law (documented in repro.charlib.model) that lets the
    SoA sweeps batch arbitrarily while staying byte-identical to the
    scalar traversal.  Checked against every arc of both model kinds.
    """

    def _check(self, charlib, points):
        for arc in charlib.arcs()[:40]:
            for model in (arc.delay_model, arc.slew_model):
                batch = model.evaluate_many(points)
                for i, (fo, t_in, temp, vdd) in enumerate(points):
                    one = model.evaluate(fo, t_in, temp, vdd)
                    assert batch[i] == one, (arc.key, i)

    def _points(self):
        rng = np.random.default_rng(7)
        n = 16
        return np.column_stack([
            rng.uniform(0.5, 8.0, n),
            rng.uniform(1e-12, 4e-10, n),
            np.full(n, 25.0),
            np.full(n, 1.2),
        ])

    def test_polynomial_models(self, charlib_poly_90):
        self._check(charlib_poly_90, self._points())

    def test_lut_models(self, charlib_lut_90):
        self._check(charlib_lut_90, self._points())


class TestNWorstEquivalence:
    def test_top_n_reports_identical(self, charlib_poly_90):
        """Pruning on reference bounds finds the identical top-N."""
        circuit = build_circuit("c432", scale=0.3)
        default = TruePathSTA(circuit, charlib_poly_90)
        reference, calc = _calcs(circuit, charlib_poly_90)
        bounds = PruneBounds(
            required=tuple(reference_required_bounds(reference)),
            suffix=tuple(reference.remaining_bounds()),
        )
        finder = PathFinder(calc.ec, calc, n_worst=5, bounds=bounds)
        with finder.find_paths() as stream:
            paths_ref = list(stream)
        paths = default.enumerate_paths(n_worst=5)
        assert [(p.worst_arrival, tuple(p.nets)) for p in paths_ref] == \
               [(p.worst_arrival, tuple(p.nets)) for p in paths]


class TestShardShipping:
    def test_jobs2_matches_serial(self, charlib_poly_90, clean_obs):
        """Shipping CompiledTables to shards changes nothing observable."""
        circuit = build_circuit("c432", scale=0.3)
        serial = supervised_find_paths(
            circuit, charlib_poly_90, jobs=1, n_worst=5)
        sharded = supervised_find_paths(
            circuit, charlib_poly_90, jobs=2, n_worst=5)

        def key(paths):
            return sorted((p.worst_arrival, tuple(p.nets)) for p in paths)

        assert key(serial.paths) == key(sharded.paths)
        shipped = obs_metrics.REGISTRY.counter("perf.compiled_tables_shipped")
        assert shipped.value >= 1


class TestCompiledTables:
    def test_pickle_roundtrip_and_seed(self, charlib_poly_90):
        circuit = build_circuit("c432", scale=0.3)
        _, vectorized = _calcs(circuit, charlib_poly_90)
        tables = vectorized.export_tables()

        thawed = pickle.loads(pickle.dumps(tables))
        assert isinstance(thawed, CompiledTables)
        assert thawed.bound_slews == tables.bound_slews
        assert thawed.required == tables.required
        assert thawed.suffix == tables.suffix
        assert thawed.worst_arc == tables.worst_arc

        seeded = DelayCalculator(
            EngineCircuit(circuit), charlib_poly_90, compiled=thawed)
        assert seeded.bound_slews() == vectorized.bound_slews()
        pb = seeded.prune_bounds()
        assert pb.required == tables.required
        assert pb.suffix == tables.suffix

    def test_seeded_calc_skips_recompute(self, charlib_poly_90):
        circuit = build_circuit("c17")
        _, vectorized = _calcs(circuit, charlib_poly_90)
        tables = vectorized.export_tables()
        seeded = DelayCalculator(
            EngineCircuit(circuit), charlib_poly_90, compiled=tables)
        # Seeding installs the finished tables directly; no sweep runs.
        assert seeded._prune_bounds is not None
        assert seeded._worst_table_complete


class TestLazyMissingArcs:
    def test_compile_survives_missing_arcs(self, library, charlib_poly_90):
        """Compilation must not raise for arcs no reachable signal uses;
        a reachable missing arc raises the same error as the reference
        pass when the sweep activates it."""
        from repro.charlib.store import CharacterizedLibrary
        from repro.core.delaycalc import MissingArcsError
        from repro.netlist.circuit import Circuit

        circuit = Circuit("missing", library)
        circuit.add_input("a")
        circuit.add_gate("INV", "out", {"A": "a"})
        circuit.add_output("out")
        circuit.check()

        kept = [a for a in charlib_poly_90.arcs() if a.cell != "INV"]
        gutted = CharacterizedLibrary(
            tech_name=charlib_poly_90.tech_name,
            library_name=charlib_poly_90.library_name,
            model_kind=charlib_poly_90.model_kind,
            input_caps=charlib_poly_90.input_caps,
            arcs=kept,
            metadata=charlib_poly_90.metadata,
        )

        reference, calc = _calcs(circuit, gutted)
        calc.tarrays._compile_forward()  # must not raise
        with pytest.raises(MissingArcsError):
            reference_forward(reference)
        with pytest.raises(MissingArcsError):
            calc.ec.tgraph.forward_arrivals(calc)


class TestCompileShape:
    def test_arrays_cover_every_timing_arc(self, charlib_poly_90):
        circuit = build_circuit("c17")
        _, vectorized = _calcs(circuit, charlib_poly_90)
        arrays = vectorized.tarrays
        assert isinstance(arrays, TimingArrays)
        ft = arrays.forward_arrivals()
        n_nets = vectorized.ec.num_nets
        assert len(ft.arrivals) == n_nets
        assert len(ft.slews) == n_nets
        # Every primary output must be reached at some polarity.
        for net in vectorized.ec.output_ids:
            assert any(a is not None for a in ft.arrivals[net])
