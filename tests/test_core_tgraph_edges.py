"""Timing-graph and backward-pass edge cases (repro.core.tgraph,
repro.core.delaycalc.bound_slews).

The bulk forward/backward properties live in test_core_tgraph.py-style
suites; this module pins the degenerate shapes: rejected cyclic and
dangling netlists, the single-gate graph, and the achievable-slew
ceiling fixed point when one round is not enough (or no rounds are).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delaycalc import DelayCalculator, _SLEW_CEILING_ROUNDS
from repro.core.engine import EngineCircuit
from repro.netlist.circuit import Circuit


def _single_gate(library):
    c = Circuit("onegate", library)
    c.add_input("a")
    c.add_gate("INV", "out", {"A": "a"})
    c.add_output("out")
    c.check()
    return c


class TestRejectedShapes:
    def test_combinational_loop_detected(self, library):
        c = Circuit("loopy", library)
        c.add_input("a")
        c.add_gate("NAND2", "n1", {"A": "a", "B": "n2"})
        c.add_gate("INV", "n2", {"A": "n1"})
        c.add_output("n1")
        with pytest.raises(ValueError, match="combinational loop detected"):
            c.check()
        with pytest.raises(ValueError, match="combinational loop detected"):
            c.topological()

    def test_dangling_net_detected(self, library):
        c = Circuit("dangling", library)
        c.add_input("a")
        c.add_gate("NAND2", "out", {"A": "a", "B": "ghost"})
        c.add_output("out")
        with pytest.raises(
            ValueError, match="net ghost has no driver and is not an input"
        ):
            c.check()

    def test_missing_declared_output(self, library):
        c = Circuit("noout", library)
        c.add_input("a")
        c.add_gate("INV", "x", {"A": "a"})
        c.outputs.append("nonexistent")
        with pytest.raises(ValueError, match="declared output nonexistent"):
            c.check()


class TestSingleGateGraph:
    def test_graph_shape(self, library):
        ec = EngineCircuit(_single_gate(library))
        tg = ec.tgraph
        assert len(tg.arcs) == 1
        arc = tg.arcs[0]
        assert arc.src_net == ec.net_id["a"]
        assert arc.dst_net == ec.net_id["out"]
        assert tg.depth == 1
        assert tg.levels[ec.net_id["a"]] == 0
        assert tg.levels[ec.net_id["out"]] == 1

    def test_forward_pass(self, charlib_small_90, library):
        ec = EngineCircuit(_single_gate(library))
        calc = DelayCalculator(ec, charlib_small_90)
        timing = ec.tgraph.forward_arrivals(calc)
        a, out = ec.net_id["a"], ec.net_id["out"]
        assert timing.arrivals[a] == [0.0, 0.0]
        for pol in (0, 1):
            assert timing.arrivals[out][pol] > 0.0
            assert timing.slews[out][pol] > 0.0

    def test_backward_pass_and_dominance(self, charlib_small_90, library):
        ec = EngineCircuit(_single_gate(library))
        calc = DelayCalculator(ec, charlib_small_90)
        bounds = calc.prune_bounds()
        a, out = ec.net_id["a"], ec.net_id["out"]
        assert bounds.required[out] == 0.0  # nothing past a primary output
        assert bounds.required[a] > 0.0
        # With one gate and one pin the arc bound equals the gate bound.
        assert bounds.required[a] == pytest.approx(bounds.suffix[a])
        # Dominance holds on every net (the pruning admissibility pin).
        for req, suf in zip(bounds.required, bounds.suffix):
            assert req <= suf + 1e-18

    def test_backward_bound_covers_forward_arrival(self, charlib_small_90,
                                                   library):
        ec = EngineCircuit(_single_gate(library))
        calc = DelayCalculator(ec, charlib_small_90)
        timing = ec.tgraph.forward_arrivals(calc)
        out = ec.net_id["out"]
        worst = max(t for t in timing.arrivals[out] if t is not None)
        assert calc.required_bounds()[ec.net_id["a"]] >= worst


class _FakeSlewModel:
    """Affine slew response t_out = gain * t_in + offset; the ceiling
    fixed point is offset / (1 - gain) for gain < 1 and diverges for
    gain >= 1."""

    def __init__(self, gain, offset):
        self.gain = gain
        self.offset = offset
        self.calls = 0

    def evaluate_many(self, points):
        self.calls += 1
        points = np.asarray(points, dtype=float)
        return self.gain * points[:, 1] + self.offset


class _FakeArc:
    def __init__(self, slew_model):
        self.slew_model = slew_model


class TestSlewCeilingFixedPoint:
    def _calc_with_fake_slews(self, library, charlib, model):
        ec = EngineCircuit(_single_gate(library))
        calc = DelayCalculator(ec, charlib)
        for gate in ec.gates:
            calc._gate_arcs_cache[gate.cell.name] = (_FakeArc(model),)
        return calc

    def test_multi_round_convergence(self, charlib_small_90, library):
        # Fixed point at 2e-9/(1-0.5) = 4 ns, far above the grid
        # ceiling, so one round cannot settle it.
        model = _FakeSlewModel(gain=0.5, offset=2e-9)
        calc = self._calc_with_fake_slews(library, charlib_small_90, model)
        samples = calc.bound_slews()
        rounds = model.calls
        assert 1 < rounds <= _SLEW_CEILING_ROUNDS
        # The final ceiling brackets the analytic fixed point and every
        # emitted slew is inside the sampled domain.
        ceiling = max(samples)
        assert ceiling >= 4e-9
        assert model.gain * ceiling + model.offset <= ceiling

    def test_single_round_when_grid_suffices(self, charlib_small_90, library):
        model = _FakeSlewModel(gain=0.1, offset=1e-12)
        calc = self._calc_with_fake_slews(library, charlib_small_90, model)
        calc.bound_slews()
        assert model.calls == 1

    def test_unconverged_warns_and_terminates(self, charlib_small_90,
                                              library, capsys):
        # gain > 1: the ceiling recursion has no finite fixed point.
        model = _FakeSlewModel(gain=1.2, offset=1e-12)
        calc = self._calc_with_fake_slews(library, charlib_small_90, model)
        samples = calc.bound_slews()
        assert model.calls == _SLEW_CEILING_ROUNDS
        assert samples == tuple(sorted(samples))
        assert "bound.slew_ceiling_unconverged" in capsys.readouterr().err

    def test_result_is_memoized(self, charlib_small_90, library):
        model = _FakeSlewModel(gain=0.5, offset=2e-9)
        calc = self._calc_with_fake_slews(library, charlib_small_90, model)
        first = calc.bound_slews()
        calls = model.calls
        assert calc.bound_slews() is first
        assert model.calls == calls
