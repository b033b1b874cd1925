"""Hot-path layer: pruning soundness, arc cache, justify-skip, streams.

The headline regression here is N-worst admissibility: the pruning
bound used to cap arc delay at a fixed input slew, but propagated slews
on degraded chains exceed any fixed choice, so pruned searches silently
dropped true top-N paths.  The seeds below are circuits where the old
bound provably returned wrong answers.
"""

from __future__ import annotations

import io

import pytest

from repro import obs
from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DelayCalculator, MissingArcsError
from repro.core.engine import EngineCircuit
from repro.core.pathfinder import PathFinder
from repro.core.sta import TruePathSTA
from repro.netlist.circuit import Circuit
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap


def _degraded_circuit(seed: int):
    """Multi-level circuit whose propagated slews degrade well past the
    primary-input slew -- the regime that broke the old fixed-slew
    pruning bound."""
    return techmap(random_dag(f"dg{seed}", 6, 90, seed=seed, n_outputs=4))


def _key(path):
    return (
        path.nets,
        tuple((s.gate_name, s.pin, s.vector_id) for s in path.steps),
    )


def _run(finder, inputs=None):
    with finder.find_paths(inputs=inputs) as stream:
        return list(stream)


class TestNWorstAdmissibility:
    """Pruned and unpruned searches must agree on the top-N arrivals.

    Seeds are known past failures of the fixed-slew bound (e.g. seed 48
    reported 441.9 ps for the worst path when the true worst is
    449.6 ps); a sharp 5 ps input slew maximizes slew degradation along
    the chains.
    """

    @pytest.mark.parametrize("seed", [2, 4, 26, 44, 45, 48])
    def test_pruned_matches_exhaustive(self, charlib_poly_90, seed):
        sta = TruePathSTA(
            _degraded_circuit(seed), charlib_poly_90, input_slew=5e-12
        )
        exhaustive = sorted(
            (p.worst_arrival for p in sta.enumerate_paths()), reverse=True
        )
        for n in (1, 3):
            pruned = sta.n_worst_paths(n)
            assert [p.worst_arrival for p in pruned] == pytest.approx(
                exhaustive[:n]
            ), f"n_worst={n} diverged from the exhaustive top-{n}"

    def test_bound_dominates_observed_delays(self, charlib_poly_90):
        """worst_gate_delay must dominate every per-gate delay actually
        realized on enumerated paths (the definition of admissible)."""
        circuit = _degraded_circuit(48)
        sta = TruePathSTA(circuit, charlib_poly_90, input_slew=5e-12)
        bound = {
            g.inst.name: sta.calc.worst_gate_delay(g) for g in sta.ec.gates
        }
        for path in sta.enumerate_paths():
            for pol in path.polarities():
                for step, delay in zip(path.steps, pol.gate_delays):
                    assert delay <= bound[step.gate_name] * (1 + 1e-9)

    def test_bound_slews_cover_propagated_slews(self, charlib_poly_90):
        """The fixed-point slew ceiling must bracket every slew the
        search actually propagates."""
        sta = TruePathSTA(
            _degraded_circuit(48), charlib_poly_90, input_slew=5e-12
        )
        ceiling = max(sta.calc.bound_slews())
        worst_seen = max(
            slew
            for path in sta.enumerate_paths()
            for pol in path.polarities()
            for slew in pol.gate_slews
        )
        assert worst_seen <= ceiling


class TestArcCache:
    def test_cache_transparent_and_counted(self, charlib_poly_90):
        """Every traversal the memoized calculator serves equals a
        direct library lookup evaluated at the same point."""
        circuit = _degraded_circuit(3)
        ec = EngineCircuit(circuit)
        cached = DelayCalculator(ec, charlib_poly_90)
        served = []
        arc_timing = cached.arc_timing

        def recording(gate, pin, vector_id, input_rising, output_rising,
                      t_in):
            result = arc_timing(gate, pin, vector_id, input_rising,
                                output_rising, t_in)
            served.append((gate, pin, vector_id, input_rising,
                           output_rising, t_in, result))
            return result

        cached.arc_timing = recording
        assert _run(PathFinder(ec, cached))
        assert len(served) == cached.arc_evaluations
        for gate, pin, vector_id, ir, orr, t_in, (delay, slew) in served:
            arc = charlib_poly_90.arc(gate.cell.name, pin, vector_id, ir, orr)
            point = (cached.fo[gate.index], t_in, cached.temp, cached.vdd)
            assert delay == arc.delay(*point)
            assert slew == arc.slew(*point)

        assert cached.arc_cache_hits + cached.arc_cache_misses == (
            cached.arc_evaluations
        )
        assert cached.arc_cache_hits > 0
        # A miss happens at most once per distinct arc in the library.
        assert cached.arc_cache_misses <= len(charlib_poly_90.arcs())


class TestJustifySkip:
    @pytest.mark.parametrize("complete", [False, True])
    def test_skip_preserves_path_set(self, charlib_poly_90, complete):
        circuit = _degraded_circuit(11)
        ec = EngineCircuit(circuit)
        calc = DelayCalculator(ec, charlib_poly_90)
        fast = PathFinder(ec, calc, complete=complete)
        slow = PathFinder(ec, calc, complete=complete, justify_skip=False)
        fast_paths = _run(fast)
        slow_paths = _run(slow)
        assert [_key(p) for p in fast_paths] == [_key(p) for p in slow_paths]
        assert [p.worst_arrival for p in fast_paths] == pytest.approx(
            [p.worst_arrival for p in slow_paths]
        )
        assert fast.stats.justify_skipped > 0
        assert slow.stats.justify_skipped == 0
        # Skipping elides whole justification solves, so the skipping
        # search can only do less justification work.
        assert (
            fast.stats.justification_cubes <= slow.stats.justification_cubes
        )


def _drop_arcs(charlib, predicate) -> CharacterizedLibrary:
    """Copy of ``charlib`` without the arcs matching ``predicate``."""
    return CharacterizedLibrary(
        tech_name=charlib.tech_name,
        library_name=charlib.library_name,
        model_kind=charlib.model_kind,
        input_caps=charlib.input_caps,
        arcs=[a for a in charlib.arcs() if not predicate(a)],
        metadata=charlib.metadata,
    )


def _nand_chain() -> Circuit:
    c = Circuit("nchain")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("INV", "n1", {"A": "a"}, name="U1")
    c.add_gate("NAND2", "n2", {"A": "n1", "B": "b"}, name="U2")
    c.add_output("n2")
    return c


class TestMissingArcs:
    def test_all_arcs_missing_raises(self, charlib_small_90, clean_obs):
        gutted = _drop_arcs(charlib_small_90, lambda a: a.cell == "NAND2")
        ec = EngineCircuit(_nand_chain())
        calc = DelayCalculator(ec, gutted)
        nand = next(g for g in ec.gates if g.cell.name == "NAND2")
        buf = io.StringIO()
        obs.configure_logging(level="error", stream=buf)
        with pytest.raises(MissingArcsError, match="U2"):
            calc.worst_gate_delay(nand)
        assert "gate.no_arcs" in buf.getvalue()

    def test_partial_missing_warns_once_and_bounds(
        self, charlib_small_90, clean_obs
    ):
        dropped = _drop_arcs(
            charlib_small_90,
            lambda a: a.cell == "NAND2" and a.pin == "A" and a.input_rising,
        )
        ec = EngineCircuit(_nand_chain())
        calc = DelayCalculator(ec, dropped)
        nand = next(g for g in ec.gates if g.cell.name == "NAND2")
        buf = io.StringIO()
        obs.configure_logging(level="warning", stream=buf)
        assert calc.worst_gate_delay(nand) > 0.0
        assert buf.getvalue().count("gate.arcs_missing") == 1
        # Cached second call must not re-warn.
        calc._gate_arcs_cache.clear()
        calc.gate_arcs(nand)
        assert buf.getvalue().count("gate.arcs_missing") == 1

    def test_vector_blind_misses_stay_quiet(self, charlib_lut_90, clean_obs):
        """The blind library misses vector-resolved arcs by construction
        -- that is debug noise, not a warning."""
        ec = EngineCircuit(_nand_chain())
        calc = DelayCalculator(ec, charlib_lut_90, vector_blind=True)
        nand = next(g for g in ec.gates if g.cell.name == "NAND2")
        buf = io.StringIO()
        obs.configure_logging(level="warning", stream=buf)
        assert calc.worst_gate_delay(nand) > 0.0
        assert "gate.arcs_missing" not in buf.getvalue()


class TestEarlyAbandonPublication:
    def test_close_publishes_immediately(self, charlib_poly_90, clean_obs):
        sta = TruePathSTA(_degraded_circuit(3), charlib_poly_90)
        stream = sta.iter_paths()
        first = next(stream)
        assert first is not None
        # Abandon the search after one path; the snapshot taken right
        # after close() must already carry this run's effort.
        stream.close()
        snap = obs.metrics.snapshot()
        assert snap["pathfinder.paths_found"] == 1
        assert snap["pathfinder.extensions_tried"] > 0
        assert snap["delaycalc.arc_evaluations"] > 0
        assert snap["pathfinder.cpu_seconds"] > 0
        # close() is idempotent: a second close publishes nothing more.
        stream.close()
        assert obs.metrics.snapshot()["pathfinder.paths_found"] == 1

    def test_context_manager_publishes_on_break(
        self, charlib_poly_90, clean_obs
    ):
        sta = TruePathSTA(_degraded_circuit(3), charlib_poly_90)
        with sta.iter_paths() as stream:
            for _ in stream:
                break
        assert obs.metrics.snapshot()["pathfinder.paths_found"] == 1

    def test_exhaustion_publishes_once(self, charlib_poly_90, clean_obs):
        sta = TruePathSTA(_degraded_circuit(3), charlib_poly_90)
        stream = sta.iter_paths()
        paths = list(stream)
        snap = obs.metrics.snapshot()
        assert snap["pathfinder.paths_found"] == len(paths)
        stream.close()
        assert (
            obs.metrics.snapshot()["pathfinder.paths_found"] == len(paths)
        )
