"""Brute-force validation of the path finder.

Ground truth on small circuits: a (course, vector combination, polarity)
is sensitizable iff some primary-input assignment holds every traversed
gate's side values steady across the two-pattern pair.  We enumerate
that set exhaustively and compare:

* **paper mode** -- always sound (never reports a false sensitization);
  may miss a few sensitizations because it commits to the first
  justification per step (the paper's "jump to the last saved point");
* **complete mode** -- exact: sound *and* complete, thanks to the global
  per-polarity re-solve with dynamic (9-valued) justification cubes.
"""

import hashlib
import itertools

import pytest

from repro.core.sta import TruePathSTA
from repro.netlist.bench import write_bench
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap
from repro.netlist.timingsim import TimingSimulator
from repro.service.requests import load_circuit
from repro.verify.oracle import clean_course


def brute_force_set(circuit):
    found = set()
    inputs = circuit.inputs
    n = len(inputs)

    def paths_from(net, course, steps):
        netobj = circuit.nets[net]
        if netobj.is_output and steps:
            yield tuple(course), tuple(steps)
        for inst, pin in netobj.sinks:
            for vec in inst.cell.sensitization_vectors(pin):
                yield from paths_from(
                    inst.output_net, course + [inst.output_net],
                    steps + [(inst, pin, vec)],
                )

    for origin in inputs:
        for course, steps in paths_from(origin, [origin], []):
            for rising in (True, False):
                for bits in itertools.product((0, 1), repeat=n - 1):
                    others = [i for i in inputs if i != origin]
                    base = dict(zip(others, bits))
                    before = dict(base)
                    after = dict(base)
                    before[origin] = 0 if rising else 1
                    after[origin] = 1 - before[origin]
                    va = circuit.simulate(before)
                    vb = circuit.simulate(after)
                    if all(
                        va[inst.pins[sp]] == sv and vb[inst.pins[sp]] == sv
                        for inst, _pin, vec in steps
                        for sp, sv in vec.side_values.items()
                    ):
                        found.add(
                            (course,
                             tuple(v.vector_id for _, _, v in steps),
                             rising)
                        )
                        break
    return found


def tool_set(paths):
    return {
        (p.course, p.vector_signature, pol.input_rising)
        for p in paths
        for pol in p.polarities()
    }


SEEDS = list(range(14))


@pytest.fixture(scope="module")
def circuits():
    out = []
    for seed in SEEDS:
        c = techmap(random_dag(f"bf{seed}", 6, 14, seed=seed))
        if len(c.inputs) <= 8:
            out.append((seed, c, brute_force_set(c)))
    return out


class TestPaperMode:
    def test_always_sound(self, circuits, charlib_poly_90):
        for seed, circuit, truth in circuits:
            sta = TruePathSTA(circuit, charlib_poly_90)
            reported = tool_set(sta.enumerate_paths())
            assert reported <= truth, f"seed {seed}: unsound report"

    def test_nearly_complete(self, circuits, charlib_poly_90):
        """The documented incompleteness is small (a few percent)."""
        total_truth = total_found = 0
        for _seed, circuit, truth in circuits:
            sta = TruePathSTA(circuit, charlib_poly_90)
            reported = tool_set(sta.enumerate_paths())
            total_truth += len(truth)
            total_found += len(reported & truth)
        assert total_found >= 0.85 * total_truth


class TestCompleteMode:
    def test_exactly_matches_brute_force(self, circuits, charlib_poly_90):
        for seed, circuit, truth in circuits:
            sta = TruePathSTA(circuit, charlib_poly_90)
            reported = tool_set(sta.enumerate_paths(complete=True))
            assert reported == truth, f"seed {seed}"

    def test_complete_superset_of_paper(self, circuits, charlib_poly_90):
        for _seed, circuit, _truth in circuits:
            sta = TruePathSTA(circuit, charlib_poly_90)
            paper = tool_set(sta.enumerate_paths())
            complete = tool_set(sta.enumerate_paths(complete=True))
            assert paper <= complete

    def test_complete_mode_vectors_verify(self, circuits, charlib_poly_90):
        """Input vectors from the dynamic re-solve still toggle the
        output in plain simulation."""
        for _seed, circuit, _truth in circuits[:5]:
            sta = TruePathSTA(circuit, charlib_poly_90)
            for path in sta.enumerate_paths(complete=True):
                for pol in path.polarities():
                    base = {
                        k: (v if v in (0, 1) else 0)
                        for k, v in pol.input_vector.items()
                    }
                    origin = path.nets[0]
                    before = dict(base)
                    after = dict(base)
                    before[origin] = 0 if pol.input_rising else 1
                    after[origin] = 1 - before[origin]
                    va = circuit.simulate(before)
                    vb = circuit.simulate(after)
                    assert va[path.nets[-1]] != vb[path.nets[-1]]


class TestDynamicCubes:
    def test_xnor_opposite_transitions(self, charlib_poly_90):
        """The motivating case: XNOR(R, F) is steady 0."""
        from repro.core.logic_values import CellEvaluator, Value9
        from repro.gates.library import default_library

        xnor = CellEvaluator(default_library()["XNOR2"])
        cubes = xnor.dynamic_cubes(Value9.S0)
        keys = {frozenset(c.items()) for c in cubes}
        assert frozenset({("A", Value9.RISE), ("B", Value9.FALL)}.items()
                         if False else
                         {("A", Value9.RISE), ("B", Value9.FALL)}) in keys

    def test_cubes_force_target(self, charlib_poly_90):
        from repro.core.logic_values import CellEvaluator, Value9
        from repro.gates.library import default_library

        for name in ("NAND2", "XOR2", "AO22", "MUX2"):
            evaluator = CellEvaluator(default_library()[name])
            for target in (Value9.S0, Value9.S1, Value9.RISE, Value9.FALL):
                for cube in evaluator.dynamic_cubes(target):
                    assignment = [
                        cube.get(p, Value9.XX)
                        for p in evaluator.cell.inputs
                    ]
                    assert evaluator.evaluate(assignment) == target


@pytest.fixture(scope="module")
def s0_7_exact(tmp_path_factory, charlib_poly_90):
    """Seed-0 netlist 7 of the search-nworst bench, regenerated from its
    item seed (``blake2b("search-nworst/0/7")``) and loaded the way the
    bench loads it (``write_bench``, then the techmapping loader); its
    exact worst path; and that path's witness vector replayed in the
    event simulator, as ``run_oracle`` replays it."""
    seed = int.from_bytes(hashlib.blake2b(
        b"search-nworst/0/7", digest_size=8).digest(), "big")
    bench = tmp_path_factory.mktemp("s0_7") / "s0_7.bench"
    bench.write_text(write_bench(
        random_dag("s0_7", 16, 80, n_outputs=6, seed=seed)))
    circuit = load_circuit(str(bench))
    assert circuit.name == "s0_7_mapped"
    worst = TruePathSTA(circuit, charlib_poly_90).n_worst_paths(
        10, complete=True)[0]
    polarity = max(worst.polarities(), key=lambda p: p.arrival)
    vector = {net: (value if value in (0, 1) else 0)
              for net, value in polarity.input_vector.items()}
    replay = TimingSimulator(circuit, charlib_poly_90).simulate_transition(
        vector, worst.nets[0], polarity.input_rising)
    return circuit, worst, replay


class TestDefaultModeWorstDelay:
    """The default (paper) mode commits to the first justification per
    step, so its worst reported arrival can fall short of a delay the
    circuit really exhibits.  On s0_7 the exact worst path is a clean
    single transition that settles at exactly its reported arrival;
    the default mode reports 315.5 ps."""

    def test_exact_worst_path_replays_clean(self, s0_7_exact):
        circuit, worst, replay = s0_7_exact
        endpoint = worst.nets[-1]
        assert worst.worst_arrival == pytest.approx(528.05e-12,
                                                    abs=0.005e-12)
        assert replay.toggled(endpoint)
        assert clean_course(circuit, replay, endpoint) is not None
        assert replay.settled_time(endpoint) == pytest.approx(
            worst.worst_arrival, rel=1e-12)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the default mode under-reports s0_7's worst delay (315.5 ps "
        "against a clean 528.1 ps transition); drop this marker once "
        "the default answer is the exact one"))
    def test_default_worst_arrival_covers_the_clean_settle_time(
            self, s0_7_exact, charlib_poly_90):
        circuit, worst, replay = s0_7_exact
        default = TruePathSTA(circuit, charlib_poly_90).n_worst_paths(10)[0]
        assert default.worst_arrival >= replay.settled_time(worst.nets[-1])
