"""Ablation: graph-based analysis pessimism vs true-path enumeration.

The cost of NOT doing the paper's path-based analysis: a one-pass
block-based timer (worst arc per gate, no joint sensitizability check)
overestimates endpoint arrivals wherever the structurally-worst arcs
cannot be exercised together.  This bench measures that pessimism on
the suite stand-ins -- it is the flip side of Table 6's false-path
columns, expressed in picoseconds instead of path counts."""

import pytest

from repro.core.graphsta import gba_pessimism
from repro.core.sta import TruePathSTA
from repro.eval.iscas import build_circuit


@pytest.fixture(scope="module")
def measurements(poly90):
    rows = {}
    for name, scale in [("c432", 0.3), ("c880a", 0.25), ("c2670", 0.15)]:
        circuit = build_circuit(name, scale=scale)
        sta = TruePathSTA(circuit, poly90)
        paths = sta.enumerate_paths(max_paths=20000)
        rows[name] = gba_pessimism(sta.gba(), paths)
    return rows


def test_gba_run_cost(benchmark, poly90):
    """GBA itself is the cheap mode: one topological pass."""
    circuit = build_circuit("c2670", scale=0.15)
    sta = TruePathSTA(circuit, poly90)
    # The pass itself: sta.gba() reads the session's cached pass.
    result = benchmark(sta.ec.tgraph.forward_arrivals, sta.calc)
    assert result.arrivals


def test_never_optimistic(benchmark, measurements):
    rows = benchmark(lambda: measurements)
    for name, comparison in rows.items():
        for endpoint, row in comparison.items():
            assert row["pessimism"] >= -0.02, (name, endpoint)


def test_pessimism_exists(benchmark, measurements):
    """Reconvergent circuits show real GBA over-estimation -- the delay
    headroom that true-path analysis recovers."""
    rows = benchmark(lambda: measurements)
    worst = max(
        row["pessimism"]
        for comparison in rows.values()
        for row in comparison.values()
    )
    assert worst > 0.02


def test_mean_pessimism_reported(benchmark, measurements):
    rows = benchmark(lambda: measurements)
    for name, comparison in rows.items():
        values = [row["pessimism"] for row in comparison.values()]
        assert values
        mean = sum(values) / len(values)
        assert mean >= -0.01
