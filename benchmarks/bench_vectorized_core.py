"""Vectorized SoA timing core vs the arc-at-a-time reference passes.

Times the forward worst-arrival pass and the backward bound
construction (required-time bound plus suffix sum) on the
structure-of-arrays kernels -- the only production implementation --
and on the verify-side reference passes in
:mod:`repro.verify.metamorphic`, on a mid-size and the largest ISCAS
circuit.  Identity is asserted first and exactly: the SoA sweeps
promise byte identity, so the only thing allowed to differ is the
clock.  The snapshot carries the ``tgraph.forward_pass_ms`` /
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
)

CIRCUITS = ["c1355", "c7552"]


def _calc(circuit, charlib, settle):
    """A fresh calculator with its slew fixed point settled by
    ``settle``, so neither timed backward pass pays for it."""
    calc = DelayCalculator(EngineCircuit(circuit), charlib)
    settle(calc)
    return calc


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _run_soa(circuit, charlib):
    calc = _calc(circuit, charlib, DelayCalculator.bound_slews)
    forward, fwd = _timed(lambda: calc.ec.tgraph.forward_arrivals(calc))
    bounds, bwd = _timed(calc.prune_bounds)
    return forward, (bounds.required, bounds.suffix), fwd, bwd


def _run_reference(circuit, charlib):
    calc = _calc(circuit, charlib, reference_bound_slews)
    forward, fwd = _timed(lambda: reference_forward(calc))
    bounds, bwd = _timed(lambda: (
        tuple(reference_required_bounds(calc)),
        tuple(calc.remaining_bounds()),
    ))
    return forward, bounds, fwd, bwd


@pytest.fixture(scope="module")
def sweep(poly90):
    rows = []
    for name in CIRCUITS:
        circuit = build_circuit(name)
        ft_r, pb_r, fwd_r, bwd_r = _run_reference(circuit, poly90)
        ft_v, pb_v, fwd_v, bwd_v = _run_soa(circuit, poly90)
        # Byte identity, not tolerance: the SoA sweeps replay the same
        # IEEE operations the reference loops perform.
        assert ft_r.arrivals == ft_v.arrivals
        assert ft_r.slews == ft_v.slews
        assert pb_r == pb_v
        rows.append({
            "circuit": name,
            "gates": len(circuit.instances),
            "forward_reference_ms": fwd_r * 1e3,
            "forward_vectorized_ms": fwd_v * 1e3,
            "forward_speedup": fwd_r / max(fwd_v, 1e-9),
            "backward_reference_ms": bwd_r * 1e3,
            "backward_vectorized_ms": bwd_v * 1e3,
            "backward_speedup": bwd_r / max(bwd_v, 1e-9),
        })
    return rows


def test_vectorized_passes_byte_identical_and_faster(
        benchmark, poly90, sweep, bench_snapshot):
    def rerun_vectorized():
        circuit = build_circuit(CIRCUITS[0])
        return _run_soa(circuit, poly90)

    benchmark.pedantic(rerun_vectorized, rounds=1, iterations=1)

    by_name = {row["circuit"]: row for row in sweep}
    # A conservative 2x floor on c7552's backward pass so shared CI
    # runners cannot flake the gate while still catching a
    # de-vectorization regression.
    assert by_name["c7552"]["backward_speedup"] >= 2.0

    benchmark.extra_info["rows"] = sweep
    bench_snapshot("vectorized", {"rows": sweep})


def test_compiled_tables_ship_once(benchmark, poly90, bench_snapshot):
    """Exporting the compiled tables costs one sweep; seeding a second
    calculator from them costs effectively nothing."""
    circuit = build_circuit("c1355")

    def export_and_seed():
        parent = DelayCalculator(EngineCircuit(circuit), poly90)
        tables = parent.export_tables()
        start = time.perf_counter()
        child = DelayCalculator(
            EngineCircuit(circuit), poly90, compiled=tables)
        bounds = child.prune_bounds()
        seed_seconds = time.perf_counter() - start
        assert bounds.required == tables.required
        return seed_seconds

    seed_seconds = benchmark.pedantic(
        export_and_seed, rounds=1, iterations=1)
    benchmark.extra_info["seed_seconds"] = seed_seconds
    bench_snapshot("vectorized_seed", {"seed_seconds": seed_seconds})
