"""Production sweeps vs the reference passes of the timing core.

Every full sweep promises *byte identity* with its reference pass in
:mod:`repro.verify.metamorphic`, not approximate agreement: every
arrival, slew, slew peak, prune bound and N-worst report must be
bitwise the same float.  Each production sweep is checked against a
reference built on a different kernel:

* the forward pass (the per-net plain-float kernel in level order)
  against a gate-major pass on the models' batch kernel;
* the calculator's grid helper (slew peaks, the slew-ceiling fixed
  point, the worst-arc table) against one model sweep per arc;
* both per-net backward kernels, which the full passes and the ECO
  repair share (required bound, suffix sum), against arc-major
  reverse walks.

These tests pin that contract on the ISCAS suite, on seeded fuzz
netlists, on degenerate graphs and on missing library arcs, and show
that it catches sabotaged kernels: a forward pass that skips
sensitization options, backward kernels that skip fanout arcs, and a
grid helper that drops a model.  They also pin the batch-equivalence
law of the models that the whole scheme rests on
(``evaluate_many(batch)[i]`` bitwise-equal to ``evaluate(*batch[i])``,
and the stacked ``grid_peaks`` row bitwise the scalar maximum over the
grid).
"""

import copy
import itertools

import numpy as np
import pytest

from repro.charlib.characterize import (
    FAST_GRID, CharacterizationGrid, characterize_library,
)
from repro.charlib.lut import LutModel
from repro.charlib.polynomial import PolynomialModel
from repro.core.delaycalc import DelayCalculator
from repro.core.engine import EngineCircuit
from repro.core.pathfinder import PathFinder
from repro.core.sta import TruePathSTA
from repro.core.tgraph import PruneBounds
from repro.eval.iscas import build_circuit
from repro.verify.fuzz import generate_case
from repro.verify.metamorphic import (
    reference_bound_slews,
    reference_forward,
    reference_required_bounds,
    reference_slew_peaks,
    reference_suffix_bounds,
    reference_worst_arcs,
)


def _calcs(circuit, charlib, **kwargs):
    """A (reference, default) calculator pair over independent engines:
    the first one only ever feeds the reference passes."""
    blind = charlib.metadata.get("vector_mode") == "default"
    return tuple(
        DelayCalculator(EngineCircuit(circuit), charlib, vector_blind=blind,
                        **kwargs)
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
    assert calc.slew_peaks(samples) == peaks

    pb = calc.prune_bounds()
    worst = reference_worst_arcs(reference)
    assert calc._worst_arc_cache == worst
    assert pb.required == tuple(reference_required_bounds(reference, worst))
    assert pb.suffix == tuple(reference_suffix_bounds(reference, worst))


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
        honest = DelayCalculator.slew_peaks
        rounds = []

        def first_round_inflated(self, samples, gate_indices=None):
            peaks = honest(self, samples, gate_indices)
            rounds.append(samples)
            return [10.0 * p for p in peaks] if len(rounds) == 1 else peaks

        monkeypatch.setattr(DelayCalculator, "slew_peaks",
                            first_round_inflated)
        samples = calc.bound_slews()
        assert len(rounds) >= 2
        assert (calc.slew_peaks(samples)
                == reference_slew_peaks(reference, samples))
        assert reference_bound_slews(reference) != samples


def _numpy_scalar_evaluate(model, fo, t_in, temp, vdd):
    """The numpy scalar evaluators that the plain-float ones replaced,
    kept here verbatim as the bitwise differential reference."""
    if isinstance(model, LutModel):
        def bracket(axis, x):
            idx = int(np.searchsorted(axis, x) - 1)
            idx = min(max(idx, 0), len(axis) - 2)
            x0, x1 = axis[idx], axis[idx + 1]
            w = (x - x0) / (x1 - x0)
            return idx, min(max(w, 0.0), 1.0)

        i, wi = bracket(model.t_in_axis, t_in)
        j, wj = bracket(model.fo_axis, fo)
        t = model.table
        base = (t[i, j] * (1 - wi) * (1 - wj) + t[i + 1, j] * wi * (1 - wj)
                + t[i, j + 1] * (1 - wi) * wj + t[i + 1, j + 1] * wi * wj)
        derate = 1.0 + model.k_temp * (temp - model.ref_temp) + model.k_vdd * (
            vdd - model.ref_vdd)
        return float(base * derate)
    x = model.norm.apply(np.array([[fo, t_in, temp, vdd]], dtype=float))[0]
    ladder = PolynomialModel._power_ladder
    c = model.coeffs
    acc = 0.0
    for i, p0 in enumerate(ladder(x[0], model.orders[0])):
        for j, p1 in enumerate(ladder(x[1], model.orders[1])):
            for k, p2 in enumerate(ladder(x[2], model.orders[2])):
                for l, p3 in enumerate(ladder(x[3], model.orders[3])):
                    acc += c[i, j, k, l] * p0 * p1 * p2 * p3
    return float(acc)


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _law_points(tech) -> np.ndarray:
    """FAST_GRID's points plus seeded random points at three
    temperatures and three supplies.  Fo and t_in range well past the
    characterized axes on both sides, so LUT models also run their
    clamped extrapolation."""
    rng = np.random.default_rng(7)
    vdds = [scale * tech.vdd for scale in (0.9, 1.0, 1.1)]
    rows = list(FAST_GRID.points(tech))
    for temp in (-40.0, 25.0, 125.0):
        for vdd in vdds:
            rows.extend((rng.uniform(0.2, 10.0), rng.uniform(5e-12, 5e-10),
                         temp, vdd) for _ in range(4))
    rows += [(0.05, 1e-13, 25.0, tech.vdd), (50.0, 2e-9, 125.0, tech.vdd)]
    return np.array(rows, dtype=float)


def _library_models(charlib):
    for arc in charlib.arcs():
        yield f"{arc.key}/delay", arc.delay_model
        yield f"{arc.key}/slew", arc.slew_model


def _assert_law(models, points):
    """For every model and row, ``evaluate(*row)`` is a plain float
    with the bits of ``evaluate_many(points)[row]`` and of the numpy
    scalar reference."""
    rows = points.tolist()
    checked = 0
    for label, model in models:
        scalar = [model.evaluate(*row) for row in rows]
        assert all(type(v) is float for v in scalar), label
        assert _bits(scalar) == _bits(model.evaluate_many(points)), label
        reference = [_numpy_scalar_evaluate(model, *row) for row in rows]
        assert _bits(scalar) == _bits(reference), label
        checked += 1
    assert checked


@pytest.fixture(scope="module")
def charlib_drive_variants(tech90):
    """The X2 drive variants of ``sized_library()``: its other cells are
    the default library's, whose arcs ``charlib_poly_90`` holds."""
    from repro.gates.library import DRIVE_SUFFIX, SIZABLE_CELLS, sized_library

    return characterize_library(
        sized_library(), tech90, grid=FAST_GRID,
        cells=[name + DRIVE_SUFFIX for name in SIZABLE_CELLS],
    )


def _pvt_model(tech, orders, fo=(1.0, 2.0, 4.0, 8.0)) -> PolynomialModel:
    """A model fitted over temperature and supply as well, on a denser
    grid in the style of ``exp_pvt.PVT_GRID``.  No model of the default
    characterization varies T or VDD, so only these run kernels with
    temperature and supply terms.  Another ``fo`` axis gives the same
    orders another normalization (every library model of one orders
    tuple shares one)."""
    grid = CharacterizationGrid(
        fo=fo, t_in=(2e-11, 6e-11, 1.2e-10),
        temp=(25.0, 75.0, 125.0), vdd_scale=(0.9, 1.0, 1.1),
    )
    pts = np.array(grid.points(tech))
    fo, t_in, temp, vdd = pts.T
    values = (4e-12 * (1.0 + 0.35 * fo + 0.02 * fo ** 2)
              * (1.0 + 3e9 * t_in) * (1.0 + 1.5e-3 * (temp - 25.0))
              * (tech.vdd / vdd) ** 1.3)
    model = PolynomialModel.fit(pts, values, orders)
    assert model.orders[2] > 0 and model.orders[3] > 0
    return model


def _reassociated_evaluate(variant):
    """A scalar evaluator computing the same polynomial with its
    arithmetic reassociated: Horner's rule in t_in, or the terms
    accumulated j-major instead of in C order."""

    def evaluate(self, fo, t_in, temp, vdd):
        norm = self.norm
        x = [(v - c) / s for v, c, s in
             zip((fo, t_in, temp, vdd), norm.centers, norm.scales)]
        pw = [PolynomialModel._power_ladder(x[v], self.orders[v])
              for v in range(4)]
        c = self.coeffs.tolist()
        o0, o1, o2, o3 = self.orders
        acc = 0.0
        if variant == "horner":
            for i, k, l in itertools.product(
                    range(o0 + 1), range(o2 + 1), range(o3 + 1)):
                inner = 0.0
                for j in reversed(range(o1 + 1)):
                    inner = inner * x[1] + c[i][j][k][l]
                acc += inner * pw[0][i] * pw[2][k] * pw[3][l]
            return acc
        for j, i, k, l in itertools.product(
                range(o1 + 1), range(o0 + 1), range(o2 + 1), range(o3 + 1)):
            acc += c[i][j][k][l] * pw[0][i] * pw[1][j] * pw[2][k] * pw[3][l]
        return acc

    return evaluate


#: A bound-slew-like sweep: 0.0, the characterization slews and an
#: extrapolated ceiling.
_LAW_GRID = tuple(sorted({0.0, 2e-11, 6e-11, 1.2e-10,
                          *np.linspace(0.0, 3.1e-10, 17).tolist()}))


def _assert_grid_law(models, tech):
    """One shuffled :meth:`PolynomialModel.grid_peaks` call per corner,
    holding every model at several fanouts: row ``i`` has the bits of
    the max of ``models[i].evaluate`` over the grid."""
    rng = np.random.default_rng(11)
    rows = [(model, float(fo)) for model in models
            for fo in (1.0, *rng.uniform(0.2, 10.0, 3))]
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    for temp, vdd in ((-40.0, 0.9 * tech.vdd), (25.0, tech.vdd),
                      (125.0, 1.1 * tech.vdd)):
        got = PolynomialModel.grid_peaks(
            [model for model, _ in rows], [fo for _, fo in rows],
            _LAW_GRID, temp, vdd)
        want = [max(model.evaluate(fo, t_in, temp, vdd)
                    for t_in in _LAW_GRID) for model, fo in rows]
        assert _bits(got) == _bits(want), (temp, vdd)


def _grid_law_models(charlib_poly_90, charlib_drive_variants, tech):
    """Every polynomial model of the 90 nm and sized libraries, plus
    T/VDD-order models with two normalizations per orders tuple."""
    return [model for charlib in (charlib_poly_90, charlib_drive_variants)
            for _, model in _library_models(charlib)] + [
        _pvt_model(tech, orders, fo)
        for orders in ((2, 1, 1, 1), (1, 2, 2, 2))
        for fo in ((1.0, 2.0, 4.0, 8.0), (0.5, 1.5, 3.0, 6.0, 12.0))]


def _first_normalization_per_orders(honest):
    """A stacked kernel that applies each orders group's first
    normalization to the whole group."""

    def grid_peaks(cls, models, fos, grid, temp, vdd):
        first = {}
        for model in models:
            first.setdefault(model.orders, model.norm)
        shared = [PolynomialModel(model.orders, model.coeffs,
                                  first[model.orders]) for model in models]
        return honest(shared, fos, grid, temp, vdd)

    return classmethod(grid_peaks)


def _j_major_term_sum(orders, coeffs, xs, shape):
    """The batch term loop with its terms accumulated j-major instead
    of in C order."""
    ladders = [PolynomialModel._power_ladder(x, order)
               for x, order in zip(xs, orders)]
    c_order = list(itertools.product(*(range(o + 1) for o in orders)))
    acc = np.zeros(shape)
    for j, i, k, l in itertools.product(
            range(orders[1] + 1), range(orders[0] + 1),
            range(orders[2] + 1), range(orders[3] + 1)):
        value = coeffs[c_order.index((i, j, k, l))]
        for ladder, power in zip(ladders, (i, j, k, l)):
            if power:
                value = value * ladder[power]
        acc += value
    return acc


class TestBatchEquivalenceLaw:
    """``evaluate_many(batch)[i]`` must be bitwise ``evaluate(*batch[i])``.

    This is the law (documented in repro.charlib.model) that lets the
    grid sweeps batch arbitrarily while staying byte-identical to the
    scalar traversal.  Checked on every arc of the polynomial, LUT and
    sized libraries, on models that vary with T and VDD, and against
    the numpy scalar evaluators the plain-float kernels replaced; and
    for the stacked kernel (``PolynomialModel.grid_peaks``) and the
    grid helper's one evaluation per distinct ``(model, fo)`` pair.
    """

    def test_polynomial_models(self, charlib_poly_90, tech90):
        _assert_law(_library_models(charlib_poly_90), _law_points(tech90))

    def test_lut_models(self, charlib_lut_90, tech90):
        _assert_law(_library_models(charlib_lut_90), _law_points(tech90))

    def test_sized_library_models(self, charlib_drive_variants, tech90):
        _assert_law(_library_models(charlib_drive_variants),
                    _law_points(tech90))

    def test_models_varying_with_temperature_and_supply(self, tech90):
        models = [(str(orders), _pvt_model(tech90, orders))
                  for orders in ((2, 1, 1, 1), (1, 2, 2, 2))]
        _assert_law(models, _law_points(tech90))

    def test_derated_lut_models(self, charlib_lut_90, tech90):
        """Library LUTs all derate by 1.0; nonzero k-factors put the
        temperature and supply terms into the comparison."""
        models = [
            (f"{arc.key}/derated", LutModel(
                arc.delay_model.t_in_axis, arc.delay_model.fo_axis,
                arc.delay_model.table, ref_temp=25.0, ref_vdd=tech90.vdd,
                k_temp=1.3e-3, k_vdd=-0.45))
            for arc in charlib_lut_90.arcs()[:20]
        ]
        _assert_law(models, _law_points(tech90))

    @pytest.mark.parametrize("variant", ["horner", "j-major"])
    def test_catches_a_reassociated_kernel(self, variant, charlib_poly_90,
                                           tech90, monkeypatch):
        """Same polynomial, other rounding: the law must notice."""
        monkeypatch.setattr(PolynomialModel, "evaluate",
                            _reassociated_evaluate(variant))
        with pytest.raises(AssertionError):
            _assert_law(_library_models(charlib_poly_90), _law_points(tech90))

    def test_grid_peaks_equals_the_scalar_maximum(
            self, charlib_poly_90, charlib_drive_variants, tech90):
        """The stacked grid kernel keeps the law too: every polynomial
        model of the 90 nm and sized libraries and the T/VDD-order
        models, at several fanouts in one shuffled call."""
        _assert_grid_law(_grid_law_models(
            charlib_poly_90, charlib_drive_variants, tech90), tech90)

    @pytest.mark.parametrize("sabotage", ["shared-normalization",
                                          "j-major-accumulation"])
    def test_grid_law_catches_a_sabotaged_stacked_kernel(
            self, sabotage, charlib_poly_90, charlib_drive_variants,
            tech90, monkeypatch):
        if sabotage == "shared-normalization":
            monkeypatch.setattr(
                PolynomialModel, "grid_peaks",
                _first_normalization_per_orders(PolynomialModel.grid_peaks))
        else:
            monkeypatch.setattr(PolynomialModel, "_term_sum",
                                staticmethod(_j_major_term_sum))
        with pytest.raises(AssertionError):
            _assert_grid_law(_grid_law_models(
                charlib_poly_90, charlib_drive_variants, tech90), tech90)

    def test_grid_helper_evaluates_each_distinct_pair_once(
            self, charlib_poly_90, charlib_lut_90, monkeypatch):
        """``_grid_peaks`` rows repeat ``(model, fo)`` pairs across and
        within slots: each distinct pair is evaluated once, through the
        stacked kernel for polynomials and one ``evaluate_many`` call
        per LUT, and every slot still gets its rows' maximum."""
        calc = DelayCalculator(EngineCircuit(build_circuit("c17")),
                               charlib_poly_90)
        models = ([arc.delay_model for arc in charlib_poly_90.arcs()[:6]]
                  + [arc.slew_model for arc in charlib_lut_90.arcs()[:3]])
        pairs = [(model, fo) for model in models for fo in (1.0, 2.5)]
        rng = np.random.default_rng(3)
        rows = [(int(rng.integers(5)), model, fo)
                for model, fo in pairs for _ in range(3)]
        rows = [rows[i] for i in rng.permutation(len(rows))]

        stacked_rows, lut_points = [], []
        honest_stacked = PolynomialModel.grid_peaks
        honest_many = LutModel.evaluate_many

        def counting_stacked(cls, models, fos, grid, temp, vdd):
            stacked_rows.extend(zip(map(id, models), fos))
            return honest_stacked(models, fos, grid, temp, vdd)

        def counting_many(self, points):
            lut_points.extend((id(self), fo) for fo in points[:, 0].tolist())
            return honest_many(self, points)

        monkeypatch.setattr(PolynomialModel, "grid_peaks",
                            classmethod(counting_stacked))
        monkeypatch.setattr(LutModel, "evaluate_many", counting_many)
        got = calc._grid_peaks(rows, _LAW_GRID, 5)

        distinct = [(id(model), fo) for model, fo in pairs]
        assert sorted(stacked_rows) == sorted(distinct[:12])
        assert sorted(lut_points) == sorted(distinct[12:] * len(_LAW_GRID))
        want = [0.0] * 5
        for slot, model, fo in rows:
            peak = max(model.evaluate(fo, t_in, calc.temp, calc.vdd)
                       for t_in in _LAW_GRID)
            want[slot] = max(want[slot], peak)
        assert _bits(got) == _bits(want)

    def test_coefficient_assignment_reaches_both_evaluators(
            self, charlib_poly_90, tech90):
        """``model.coeffs *= 2.0`` assigns the scaled tensor back
        (``repro.charlib.qa``'s corrupted-model test relies on it): the
        scalar kernel and the batch path both see it, and doubling
        every coefficient doubles every value exactly."""
        points = _law_points(tech90)
        model = copy.deepcopy(charlib_poly_90.arcs()[0].delay_model)
        before = model.evaluate_many(points)
        model.coeffs *= 2.0
        doubled = model.evaluate_many(points)
        assert _bits(doubled) == _bits(2.0 * before)
        assert _bits([model.evaluate(*row) for row in points.tolist()]) == \
            _bits(doubled)


class TestNWorstEquivalence:
    def test_top_n_reports_identical(self, charlib_poly_90):
        """Pruning on reference bounds finds the identical top-N."""
        circuit = build_circuit("c432", scale=0.3)
        default = TruePathSTA(circuit, charlib_poly_90)
        reference, calc = _calcs(circuit, charlib_poly_90)
        worst = reference_worst_arcs(reference)
        calc._prune_bounds = PruneBounds(
            required=tuple(reference_required_bounds(reference, worst)),
            suffix=tuple(reference_suffix_bounds(reference, worst)),
        )
        finder = PathFinder(calc.ec, calc, n_worst=5)
        with finder.find_paths() as stream:
            paths_ref = list(stream)
        paths = default.enumerate_paths(n_worst=5)
        assert [(p.worst_arrival, tuple(p.nets)) for p in paths_ref] == \
               [(p.worst_arrival, tuple(p.nets)) for p in paths]


class TestShardShipping:
    def test_jobs2_matches_serial(self, charlib_poly_90, clean_obs):
        """Pooled shards search the session's own tables.

        The merge contract of ``repro.resilience.supervisor``: pooled
        shards prune against their own top-N heaps, so the ``jobs=2``
        stream is a superset of the serial (shared-heap) one, with the
        same top N.
        """
        circuit = build_circuit("c432", scale=0.3)
        serial = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=1, n_worst=5)
        sharded = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, n_worst=5)

        def key(path):
            return (path.worst_arrival, tuple(path.nets),
                    path.vector_signature)

        def top(paths):
            ordered = sorted(paths, key=lambda p: p.worst_arrival,
                             reverse=True)
            return [key(p) for p in ordered[:5]]

        assert {key(p) for p in serial.paths} <= {
            key(p) for p in sharded.paths}
        assert top(serial.paths) == top(sharded.paths)


def _without_arcs(charlib, dropped):
    """``charlib`` minus every arc for which ``dropped(arc)`` holds."""
    from repro.charlib.store import CharacterizedLibrary

    return CharacterizedLibrary(
        tech_name=charlib.tech_name,
        library_name=charlib.library_name,
        model_kind=charlib.model_kind,
        input_caps=charlib.input_caps,
        arcs=[arc for arc in charlib.arcs() if not dropped(arc)],
        metadata=charlib.metadata,
    )


def _inverter(library):
    from repro.netlist.circuit import Circuit

    circuit = Circuit("missing", library)
    circuit.add_input("a")
    circuit.add_gate("INV", "out", {"A": "a"})
    circuit.add_output("out")
    circuit.check()
    return circuit


class TestMissingArcs:
    def test_error_policy_raises_the_reference_error(self, library,
                                                     charlib_poly_90):
        """A reachable traversal with no library arc raises from the
        forward pass, with the reference pass's message."""
        from repro.core.delaycalc import MissingArcsError

        gutted = _without_arcs(charlib_poly_90, lambda a: a.cell == "INV")
        reference, calc = _calcs(_inverter(library), gutted)
        with pytest.raises(MissingArcsError) as want:
            reference_forward(reference)
        with pytest.raises(MissingArcsError) as got:
            calc.ec.tgraph.forward_arrivals(calc)
        assert str(got.value) == str(want.value)

    def test_warn_substitute_matches_the_reference(self, library,
                                                   charlib_poly_90):
        """Under ``warn-substitute`` both passes evaluate the same
        nearest arc for the missing rising-input traversals."""
        gutted = _without_arcs(charlib_poly_90,
                               lambda a: a.cell == "INV" and a.input_rising)
        reference, calc = _calcs(_inverter(library), gutted,
                                 missing_arc_policy="warn-substitute")
        ft = calc.ec.tgraph.forward_arrivals(calc)
        ft_ref = reference_forward(reference)
        assert ft.arrivals == ft_ref.arrivals
        assert ft.slews == ft_ref.slews
        assert calc.arc_substitutions == reference.arc_substitutions == 1


class TestForwardSabotage:
    """A forward kernel that drops the last sensitization option of
    each pin that has several still reaches every net, with plausible
    numbers; the identity checks must catch it."""

    @pytest.fixture
    def skip_last_option(self, monkeypatch):
        from repro.core.tgraph import TimingGraph

        honest = TimingGraph.forward_update_net

        def sabotaged(graph, calc, net, timing):
            gate = graph.gates[graph.fanin[net][0].gate_index]
            options = gate.options
            gate.options = {pin: opts[:-1] if len(opts) > 1 else opts
                            for pin, opts in options.items()}
            try:
                return honest(graph, calc, net, timing)
            finally:
                gate.options = options

        monkeypatch.setattr(TimingGraph, "forward_update_net", sabotaged)

    def test_fails_the_identity_check(self, charlib_poly_90,
                                      skip_last_option):
        with pytest.raises(AssertionError):
            _assert_identical(build_circuit("c880a", scale=0.05),
                              charlib_poly_90)

    def test_fails_incremental_identical(self, charlib_poly_90,
                                         skip_last_option):
        from repro.verify.metamorphic import check_incremental_identical

        result = check_incremental_identical(
            build_circuit("c880a", scale=0.05), charlib_poly_90,
            seed=1, edits=2)
        assert not result.ok
        assert "forward timing (vs reference) diverged" in result.detail


def _skip_last_fanout_arc(monkeypatch, kernel):
    """Replace the named per-net backward kernel of ``TimingGraph`` with
    one that ignores the last fanout arc of each net that has several."""
    from repro.core.tgraph import TimingGraph

    honest = getattr(TimingGraph, kernel)

    def sabotaged(graph, calc, net, bounds):
        arcs = graph.fanout[net]
        graph.fanout[net] = arcs[:-1] if len(arcs) > 1 else arcs
        try:
            return honest(graph, calc, net, bounds)
        finally:
            graph.fanout[net] = arcs

    monkeypatch.setattr(TimingGraph, kernel, sabotaged)


def _changed(got, want) -> int:
    return sum(a != b for a, b in zip(got, want, strict=True))


class TestBackwardSabotage:
    """Backward kernels that skip the last fanout arc of each net with
    several, and a grid helper that drops its last model group, still
    produce plausible bounds; the identity checks must catch them.
    c880a@0.05 has 37 gates, and each sabotage moves some of its
    values, but not all."""

    CIRCUIT = ("c880a", 0.05)

    def _circuit(self):
        return build_circuit(self.CIRCUIT[0], scale=self.CIRCUIT[1])

    def _reference(self, circuit, charlib):
        reference = DelayCalculator(EngineCircuit(circuit), charlib)
        worst = reference_worst_arcs(reference)
        return (worst, reference_required_bounds(reference, worst),
                reference_suffix_bounds(reference, worst))

    @pytest.mark.parametrize("kernel,field,changed", [
        ("required_through_net", "required", 16),
        ("suffix_through_net", "suffix", 16),
    ])
    def test_skipped_fanout_arc_fails_both_checks(
            self, kernel, field, changed, charlib_poly_90, monkeypatch):
        from repro.verify.metamorphic import check_incremental_identical

        circuit = self._circuit()
        _worst, required, suffix = self._reference(circuit, charlib_poly_90)
        _skip_last_fanout_arc(monkeypatch, kernel)
        bounds = DelayCalculator(
            EngineCircuit(circuit), charlib_poly_90).prune_bounds()
        want = required if field == "required" else suffix
        assert _changed(getattr(bounds, field), want) == changed
        with pytest.raises(AssertionError):
            _assert_identical(circuit, charlib_poly_90)
        result = check_incremental_identical(
            circuit, charlib_poly_90, seed=1, edits=2)
        assert not result.ok
        assert f"{field} bounds (vs reference) diverged" in result.detail

    def test_dropped_model_group_fails_the_identity_check(
            self, charlib_poly_90, monkeypatch):
        circuit = self._circuit()
        worst, required, _suffix = self._reference(circuit, charlib_poly_90)
        honest = DelayCalculator._grid_peaks

        def sabotaged(calc, rows, grid, slots):
            rows = list(rows)
            models = list({id(model): model for _, model, _ in rows}.values())
            kept = [row for row in rows if row[1] is not models[-1]]
            return honest(calc, kept, grid, slots)

        monkeypatch.setattr(DelayCalculator, "_grid_peaks", sabotaged)
        calc = DelayCalculator(EngineCircuit(circuit), charlib_poly_90)
        bounds = calc.prune_bounds()
        assert _changed([calc._worst_arc_cache[key] for key in worst],
                        list(worst.values())) == 1
        assert _changed(bounds.required, required) == 1
        with pytest.raises(AssertionError):
            _assert_identical(circuit, charlib_poly_90)
