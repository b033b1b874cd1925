"""Production timing sweeps vs the reference passes.

Times three passes on a small, a mid-size and the largest ISCAS
circuit, each on a fresh calculator.  The slew-ceiling fixed point
runs the production ``bound_slews()`` (one stacked grid sweep per
round) against ``reference_bound_slews`` (every round one scalar
``_model_max`` sweep per arc).  The forward worst-arrival pass runs
the production per-net plain-float kernel
(``TimingGraph.forward_arrivals``) against the batched reference
(``reference_forward``: gate-major, one ``evaluate_many`` row per
traversal).  The backward bound construction (required-time bound plus
suffix sum) runs the production per-net kernels, whose first worst-arc
read fills the whole table with one stacked grid sweep, against the
references of :mod:`repro.verify.metamorphic`: one scalar model sweep
per arc (``reference_worst_arcs``), then two arc-major reverse walks.
Identity is asserted first and exactly: every pair promises byte
identity, so the only thing allowed to differ is the clock.  The
snapshot carries the ``tgraph.forward_pass_ms`` /
``tgraph.backward_pass_ms`` histograms next to the measured speedups
for the ``repro obs diff`` trajectory.
"""

import time

import pytest

from repro.core.delaycalc import DelayCalculator
from repro.core.engine import EngineCircuit
from repro.eval.iscas import build_circuit
from repro.verify.metamorphic import (
    reference_bound_slews,
    reference_forward,
    reference_required_bounds,
    reference_suffix_bounds,
    reference_worst_arcs,
)

CIRCUITS = ["c432", "c1355", "c7552"]


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _calc(circuit, charlib, settle):
    """A fresh calculator with its slew fixed point settled by
    ``settle`` and timed, so neither timed backward pass pays for
    it."""
    calc = DelayCalculator(EngineCircuit(circuit), charlib)
    slews, seconds = _timed(lambda: settle(calc))
    return calc, slews, seconds


def _run_production(circuit, charlib):
    calc, slews, fix = _calc(circuit, charlib, DelayCalculator.bound_slews)
    forward, fwd = _timed(lambda: calc.ec.tgraph.forward_arrivals(calc))
    bounds, bwd = _timed(calc.prune_bounds)
    return slews, forward, (bounds.required, bounds.suffix), fix, fwd, bwd


def _reference_bounds(calc):
    worst = reference_worst_arcs(calc)
    return (tuple(reference_required_bounds(calc, worst)),
            tuple(reference_suffix_bounds(calc, worst)))


def _run_reference(circuit, charlib):
    calc, slews, fix = _calc(circuit, charlib, reference_bound_slews)
    forward, fwd = _timed(lambda: reference_forward(calc))
    bounds, bwd = _timed(lambda: _reference_bounds(calc))
    return slews, forward, bounds, fix, fwd, bwd


@pytest.fixture(scope="module")
def sweep(poly90):
    rows = []
    for name in CIRCUITS:
        circuit = build_circuit(name)
        sl_r, ft_r, pb_r, fix_r, fwd_r, bwd_r = _run_reference(circuit, poly90)
        sl_v, ft_v, pb_v, fix_v, fwd_v, bwd_v = _run_production(circuit,
                                                                poly90)
        # Byte identity, not tolerance: the production passes replay the
        # same IEEE operations the reference passes perform.
        assert sl_r == sl_v
        assert ft_r.arrivals == ft_v.arrivals
        assert ft_r.slews == ft_v.slews
        assert pb_r == pb_v
        rows.append({
            "circuit": name,
            "gates": len(circuit.instances),
            "fixed_point_reference_ms": fix_r * 1e3,
            "fixed_point_ms": fix_v * 1e3,
            "fixed_point_speedup": fix_r / max(fix_v, 1e-9),
            "forward_batched_reference_ms": fwd_r * 1e3,
            "forward_per_net_ms": fwd_v * 1e3,
            "forward_per_net_speedup": fwd_r / max(fwd_v, 1e-9),
            "backward_reference_ms": bwd_r * 1e3,
            "backward_vectorized_ms": bwd_v * 1e3,
            "backward_speedup": bwd_r / max(bwd_v, 1e-9),
        })
    return rows


def test_vectorized_passes_byte_identical_and_faster(
        benchmark, poly90, sweep, bench_snapshot):
    def rerun_production():
        circuit = build_circuit("c1355")
        return _run_production(circuit, poly90)

    benchmark.pedantic(rerun_production, rounds=1, iterations=1)

    by_name = {row["circuit"]: row for row in sweep}
    # A conservative 2x floor on c7552's backward pass so shared CI
    # runners cannot flake the gate while still catching a
    # de-vectorization regression.
    assert by_name["c7552"]["backward_speedup"] >= 2.0

    benchmark.extra_info["rows"] = sweep
    bench_snapshot("vectorized", {"rows": sweep})
