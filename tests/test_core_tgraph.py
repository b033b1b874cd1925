"""Tests for the shared timing-graph substrate and its backward bound.

The load-bearing properties:

* **Admissibility** -- the backward required-time bound at a net never
  undercuts the true remaining path delay from that net, on any
  polarity of any enumerated true path (this is what makes N-worst
  pruning exact).
* **Dominance** -- the backward bound never exceeds the legacy per-gate
  suffix sum it replaced, and is strictly tighter somewhere on real
  circuits (this is what makes the swap worthwhile).
* A pinned regression seed where the tighter bound prunes extensions
  the suffix sum would have kept (``bound_prunes > 0``) while the
  pruned top-N still equals exhaustive enumeration.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineCircuit
from repro.core.sta import TruePathSTA
from repro.core.tgraph import PruneBounds, net_levels
from repro.netlist.generate import c17, random_dag
from repro.netlist.levelize import levelize
from repro.netlist.techmap import techmap

#: Tolerance for float-accumulation noise when comparing a bound
#: against a sum of per-arc delays (delays are ~1e-10 s).
EPS = 1e-15


def _sta(circuit, charlib):
    return TruePathSTA(circuit, charlib)


class TestGraphStructure:
    def test_arcs_cover_every_gate_pin(self, charlib_poly_90):
        ec = EngineCircuit(c17())
        tg = ec.tgraph
        expected = {
            (g.index, pin, net, g.output_net)
            for g in ec.gates
            for pin, net in zip(g.cell.inputs, g.input_nets)
        }
        got = {(a.gate_index, a.pin, a.src_net, a.dst_net) for a in tg.arcs}
        assert got == expected
        assert len(tg.arcs) == len(expected)

    def test_fanout_fanin_are_views_of_arcs(self):
        ec = EngineCircuit(techmap(random_dag("tg0", 8, 30, seed=7)))
        tg = ec.tgraph
        for arc in tg.arcs:
            assert arc in tg.fanout[arc.src_net]
            assert arc in tg.fanin[arc.dst_net]
        assert sum(len(f) for f in tg.fanout) == len(tg.arcs)
        assert sum(len(f) for f in tg.fanin) == len(tg.arcs)

    def test_sinks_match_arc_fanout(self):
        ec = EngineCircuit(techmap(random_dag("tg1", 8, 30, seed=11)))
        tg = ec.tgraph
        for net in range(ec.num_nets):
            assert tg.sinks[net] == [
                (a.gate_index, a.pin) for a in tg.fanout[net]
            ]
        # The engine's sinks property is the same table.
        assert ec.sinks is tg.sinks

    def test_levels_match_levelize(self):
        circuit = techmap(random_dag("tg2", 8, 30, seed=13))
        ec = EngineCircuit(circuit)
        tg = ec.tgraph
        by_name = levelize(circuit)
        assert by_name == net_levels(circuit)
        for net, name in enumerate(ec.net_names):
            assert tg.levels[net] == by_name.get(name, 0)
        assert tg.depth == max(by_name.values())

    def test_arcs_respect_levelization(self):
        ec = EngineCircuit(techmap(random_dag("tg3", 8, 30, seed=17)))
        tg = ec.tgraph
        for arc in tg.arcs:
            assert tg.levels[arc.src_net] < tg.levels[arc.dst_net]


class TestBoundProperties:
    @given(seed=st.integers(0, 3000))
    @settings(max_examples=8, deadline=None)
    def test_backward_bound_admissible(self, charlib_poly_90, seed):
        """required[net] upper-bounds the true remaining delay to the
        endpoint at every net of every enumerated true path."""
        circuit = techmap(random_dag(f"adm{seed}", 10, 45, seed=seed))
        sta = _sta(circuit, charlib_poly_90)
        required = sta.calc.required_bounds()
        net_id = sta.ec.net_id
        for path in sta.enumerate_paths(max_paths=300):
            for pol in path.polarities():
                delays = pol.gate_delays
                remaining = 0.0
                # Walk the path backwards: remaining delay after
                # reaching nets[i] is the sum of delays[i:].
                for i in range(len(delays) - 1, -1, -1):
                    remaining += delays[i]
                    net = net_id[path.nets[i]]
                    assert required[net] >= remaining - EPS

    @given(seed=st.integers(0, 3000))
    @settings(max_examples=8, deadline=None)
    def test_backward_bound_dominates_suffix_sum(self, charlib_poly_90, seed):
        """required <= suffix everywhere (the new bound never loosens)."""
        circuit = techmap(random_dag(f"dom{seed}", 10, 45, seed=seed))
        calc = _sta(circuit, charlib_poly_90).calc
        required = calc.required_bounds()
        suffix = calc.remaining_bounds()
        assert len(required) == len(suffix)
        for net in range(len(required)):
            assert required[net] <= suffix[net] + EPS

    def test_bound_strictly_tighter_somewhere(self, charlib_poly_90):
        """On a real multi-pin circuit the per-arc bound beats the
        per-gate suffix sum on at least one net."""
        calc = _sta(techmap(random_dag("strict4", 10, 45, seed=4)),
                    charlib_poly_90).calc
        required = calc.required_bounds()
        suffix = calc.remaining_bounds()
        assert any(required[n] < suffix[n] - EPS for n in range(len(required)))

    def test_prune_bounds_bundle(self, charlib_poly_90):
        calc = _sta(c17(), charlib_poly_90).calc
        bounds = calc.prune_bounds()
        assert isinstance(bounds, PruneBounds)
        assert bounds.required == tuple(calc.required_bounds())
        assert bounds.suffix == tuple(calc.remaining_bounds())
        # Pickled with the session into spawn-start pool workers.
        assert pickle.loads(pickle.dumps(bounds)) == bounds


class TestBoundPruningRegression:
    #: Pinned seed where the backward bound prunes extensions the
    #: legacy suffix sum keeps (found by scanning seeds 0..120; nearly
    #: all qualify, this one has several distinct wins).
    SEED = 4

    def test_tighter_bound_prunes_where_suffix_would_not(
        self, charlib_poly_90
    ):
        circuit = techmap(random_dag(f"nw{self.SEED}", 10, 45, seed=self.SEED))
        sta = _sta(circuit, charlib_poly_90)
        pruned = sta.n_worst_paths(3)
        stats = sta.last_stats
        assert stats.bound_prunes > 0
        assert stats.pruned >= stats.bound_prunes
        # ... and the pruned result is still exactly the exhaustive top-3.
        exhaustive = sorted(
            (p.worst_arrival for p in sta.enumerate_paths()), reverse=True
        )[:3]
        assert [p.worst_arrival for p in pruned] == pytest.approx(exhaustive)
