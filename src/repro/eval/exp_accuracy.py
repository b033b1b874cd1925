"""Experiment: Tables 7, 8, 9 -- delay accuracy vs electrical simulation.

For each circuit and each technology, a sample of multi-vector true
paths is replayed through the transistor-level chain simulator (the
golden reference).  Both tools then estimate the same paths:

* **developed tool** -- vector-resolved polynomial arcs (it knows which
  sensitization vector each gate sees);
* **commercial baseline** -- vector-blind LUT arcs characterized under
  the default vector.

Mean/max path and gate errors are reported per circuit, matching the
format of Tables 7-9.  The expected shape: the developed tool's mean
path error is a few percent; the baseline's is several times larger,
growing toward the finer node where vector sensitivity is larger
relative to total delay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DelayCalculator
from repro.core.path import TimedPath
from repro.core.sta import TruePathSTA
from repro.eval.golden import estimate_path_with, simulate_timed_path
from repro.eval.iscas import build_circuit
from repro.eval.metrics import ErrorStats, error_stats
from repro.eval.tables import render_table
from repro.netlist.circuit import Circuit
from repro.spice.pathsim import PathSimulator
from repro.tech.technology import Technology


@dataclass
class AccuracyRow:
    circuit: str
    developed: ErrorStats
    baseline: ErrorStats

    def as_cells(self) -> List[str]:
        d, b = self.developed.as_row(), self.baseline.as_row()
        return [
            self.circuit,
            d["mean_path"], d["max_path"], d["mean_gate"], d["max_gate"],
            b["mean_path"], b["max_path"], b["mean_gate"], b["max_gate"],
        ]


HEADERS = [
    "circuit",
    "dev mean path", "dev max path", "dev mean gate", "dev max gate",
    "base mean path", "base max path", "base mean gate", "base max gate",
]


def select_paths(
    paths: Sequence[TimedPath],
    limit: int,
    seed: int = 0,
    prefer_multi_vector: bool = True,
) -> List[TimedPath]:
    """Sample the paths to simulate electrically (they are the costly
    part; the paper focuses on multi-vector paths)."""
    pool = [p for p in paths if p.multi_vector] if prefer_multi_vector else []
    if len(pool) < limit:
        extra = [p for p in paths if p not in pool]
        pool = pool + extra
    if len(pool) <= limit:
        return list(pool)
    rng = random.Random(seed)
    # Keep the worst path (the headline number) and sample the rest.
    ordered = sorted(pool, key=lambda p: -p.worst_arrival)
    chosen = [ordered[0]] + rng.sample(ordered[1:], limit - 1)
    return chosen


def measure_circuit(
    name: str,
    circuit: Circuit,
    tech: Technology,
    charlib_poly: CharacterizedLibrary,
    charlib_lut: CharacterizedLibrary,
    paths_per_circuit: int = 6,
    max_dev_paths: Optional[int] = 4000,
    steps_per_window: int = 300,
    seed: int = 0,
) -> AccuracyRow:
    sta = TruePathSTA(circuit, charlib_poly)
    paths = sta.enumerate_paths(max_paths=max_dev_paths)
    if not paths:
        raise ValueError(f"{name}: no true paths found")
    sample = select_paths(paths, paths_per_circuit, seed=seed)

    lut_calc = DelayCalculator(
        sta.ec, charlib_lut, temp=sta.calc.temp, vdd=sta.calc.vdd,
        input_slew=sta.calc.input_slew,
    )
    simulator = PathSimulator(tech, steps_per_window=steps_per_window)

    dev_path_pairs: List[Tuple[float, float]] = []
    dev_gate_pairs: List[Tuple[float, float]] = []
    base_path_pairs: List[Tuple[float, float]] = []
    base_gate_pairs: List[Tuple[float, float]] = []

    for path in sample:
        polarity = max(path.polarities(), key=lambda p: p.arrival)
        golden = simulate_timed_path(
            circuit, charlib_poly, tech, path, polarity,
            input_slew=sta.calc.input_slew, simulator=simulator,
        )
        dev_path_pairs.append((polarity.arrival, golden.path_delay))
        dev_gate_pairs.extend(zip(polarity.gate_delays, golden.gate_delays))
        base_total, base_gates = estimate_path_with(lut_calc, sta.ec, path, polarity)
        base_path_pairs.append((base_total, golden.path_delay))
        base_gate_pairs.extend(zip(base_gates, golden.gate_delays))

    return AccuracyRow(
        circuit=name,
        developed=error_stats(dev_path_pairs, dev_gate_pairs),
        baseline=error_stats(base_path_pairs, base_gate_pairs),
    )


def run(
    tech: Technology,
    charlib_poly: CharacterizedLibrary,
    charlib_lut: CharacterizedLibrary,
    circuits: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    paths_per_circuit: int = 6,
    max_dev_paths: Optional[int] = 4000,
    steps_per_window: int = 300,
    table_label: str = "Table 7/8/9",
) -> Dict:
    """Regenerate one technology's accuracy table."""
    names = list(circuits) if circuits else ["c17", "c432", "c499"]
    rows: List[AccuracyRow] = []
    for name in names:
        circuit = build_circuit(name, scale=scale)
        rows.append(
            measure_circuit(
                name, circuit, tech, charlib_poly, charlib_lut,
                paths_per_circuit=paths_per_circuit,
                max_dev_paths=max_dev_paths,
                steps_per_window=steps_per_window,
            )
        )
    text = render_table(
        HEADERS, [r.as_cells() for r in rows],
        title=f"{table_label}: delay error vs electrical simulation "
              f"({tech.name})",
    )
    return {"rows": rows, "text": text}
