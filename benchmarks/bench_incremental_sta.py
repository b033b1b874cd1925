"""Incremental dirty-cone re-analysis vs from-scratch rebuilds.

Applies a sequence of small-cone edits (pin-compatible swaps on
endpoint drivers) to c7552 through one ``TruePathSTA`` session that
repairs only the dirty cone, and after every edit times a fresh session
built and analyzed on the edited circuit (the from-scratch rebuild the
repair replaces) and checks byte identity of the full timing state
between the two.  The speedup claim is proven on work metrics,
not wall-clock alone: the ``cone_gates`` report field is compared
against the whole circuit (a scratch rebuild re-sweeps every gate), and
the ``incremental.levels_reswept`` report field against the full
forward+backward sweep (``2 x incremental.graph_levels``).
The snapshot lands in ``BENCH_incremental.json`` for the
``repro obs diff`` trajectory and the PERFORMANCE.md table.
"""

import time

import pytest

from repro import obs
from repro.core.sta import TruePathSTA
from repro.eval.iscas import build_circuit

CIRCUIT = "c7552"
EDITS = 3


def _swap_targets(circuit, count):
    """Deep endpoint drivers with a pin-compatible alternative cell.

    An edit dirties the gate *and* its input-net drivers (their loads
    change), so the repaired cone spans everything downstream of those
    drivers.  Picking endpoint gates whose fanin sits deepest in the
    level order keeps the cone a thin slice -- the small-cone edit class
    the acceptance criterion is about.
    """
    from repro.core.tgraph import net_levels

    pools = {}
    for cell in circuit.library:
        pools.setdefault(cell.inputs, []).append(cell)
    outputs = set(circuit.outputs)
    levels = net_levels(circuit)
    candidates = []
    for name in sorted(circuit.instances):
        inst = circuit.instances[name]
        if inst.output_net not in outputs:
            continue
        alts = [c for c in pools.get(inst.cell.inputs, ())
                if c.name != inst.cell.name]
        if not alts:
            continue
        fanin_depth = min(
            (levels.get(net, 0) for net in inst.pins.values()), default=0
        )
        candidates.append((fanin_depth, name, inst.cell.name, alts[0].name))
    candidates.sort(reverse=True)
    return [(name, base, alt) for _, name, base, alt in candidates[:count]]


def _timed_edit(session, name, cell):
    start = time.perf_counter()
    report = session.replace_cell(name, cell)
    return report, time.perf_counter() - start


def _timed_rebuild(circuit, charlib):
    start = time.perf_counter()
    session = TruePathSTA(circuit, charlib)
    session.refresh()
    return session, time.perf_counter() - start


def test_incremental_edits_beat_scratch_rebuilds(
        benchmark, poly90, bench_snapshot):
    circuit = build_circuit(CIRCUIT)
    targets = _swap_targets(circuit, EDITS)
    assert len(targets) == EDITS

    inc = TruePathSTA(circuit, poly90)
    inc.refresh()

    total_gates = len(circuit.instances)
    rows = []
    for name, _, alt in targets:
        report, inc_seconds = _timed_edit(inc, name, alt)
        scratch, scratch_seconds = _timed_rebuild(circuit, poly90)
        # Byte identity after every edit: the dirty-cone repair must be
        # indistinguishable from the rebuild it replaces.
        assert inc.arrivals() == scratch.arrivals()
        assert inc.slews() == scratch.slews()
        assert inc.required_bounds() == scratch.required_bounds()
        assert inc.suffix_bounds() == scratch.suffix_bounds()
        assert not report.full_rebuild
        rows.append({
            "gate": name,
            "to_cell": alt,
            "cone_gates": report.cone_gates,
            "total_gates": total_gates,
            "gate_work_ratio": total_gates / max(report.cone_gates, 1),
            "levels_reswept": report.levels_reswept,
            "incremental_ms": inc_seconds * 1e3,
            "scratch_ms": scratch_seconds * 1e3,
            "wall_speedup": scratch_seconds / max(inc_seconds, 1e-9),
        })

    graph_levels = int(obs.snapshot()["incremental.graph_levels"])
    for row in rows:
        # Locality: a small-cone edit resweeps a sliver of the circuit
        # and strictly fewer level passes than one full round trip.
        assert row["levels_reswept"] < 2 * graph_levels
        # >= 10x fewer gates re-swept per small-cone edit than the
        # from-scratch pass, which re-sweeps all of them.
        assert row["gate_work_ratio"] >= 10.0
    # Wall-clock floor is kept conservative (2x, not 10x) so shared CI
    # runners cannot flake the gate; the measured numbers ship in the
    # snapshot either way.
    mean_wall = sum(r["wall_speedup"] for r in rows) / len(rows)
    assert mean_wall >= 2.0

    def rerun_one_edit():
        name, base, alt = targets[0]
        inc.replace_cell(name, base)
        return inc.replace_cell(name, alt)

    benchmark.pedantic(rerun_one_edit, rounds=1, iterations=1)
    payload = {
        "circuit": CIRCUIT,
        "graph_levels": graph_levels,
        "mean_wall_speedup": mean_wall,
        "rows": rows,
    }
    benchmark.extra_info["rows"] = rows
    bench_snapshot("incremental", payload)
