"""Cross-engine metamorphic invariants.

Where exhaustive sweeping is infeasible (more than ~18 inputs) the
engines still certify each other: the repo carries three analysis modes
plus several search configurations that must relate in provable ways.
Each invariant below is an executable statement of one such relation;
a violation on *any* circuit is a bug, so the fuzz driver can assert
them on arbitrarily large random netlists.

The catalog (see docs/TESTING.md):

``gba_bounds``
    The session's GBA forward pass maximizes per gate over every
    sensitization vector with no joint-sensitizability check, so its
    endpoint arrival upper-bounds every pathfinder true path at the
    same endpoint (up to model noise from slew selection at
    reconvergence).
``structural_superset``
    The baseline's structural enumeration ignores logic, so its course
    set is a superset of the pathfinder's sensitizable course set.
``parallel_identical``
    The parallel driver shards by origin and merges in declaration
    order; its output must be identical to the serial search -- same
    paths, same order, bit-equal arrivals.
``pruning_identical``
    N-worst pruning uses admissible bounds, so the pruned search's
    top-N multiset of arrivals equals the exhaustive search's, and
    every pruned path is one of the exhaustive paths.
``incremental_identical``
    After every edit in a randomized pin-compatible cell-swap sequence,
    the incremental session's dirty-cone repair (arrivals, slews,
    required/suffix bounds, N-worst report) is byte-identical to a
    from-scratch analysis of the mutated circuit, and that analysis's
    full sweeps are byte-identical to the reference passes below.

The reference passes check the production sweeps with a different
kernel.  :func:`reference_forward` is a gate-major pass on the models'
batch kernel (``evaluate_many``), against the production forward pass,
which runs the per-net plain-float kernel in level order.
:func:`reference_slew_peaks`, the :func:`reference_bound_slews` fixed
point built on it and :func:`reference_worst_arcs` sweep one arc at a
time on the scalar evaluator (:func:`_model_max`), against the
calculator's grid helper, which stacks every distinct (model, fanout)
row of a model family into one batch.
:func:`reference_required_bounds` and :func:`reference_suffix_bounds`
are arc-major reverse walks over those per-arc maxima, against the
per-net kernels (:meth:`TimingGraph.required_through_net
<repro.core.tgraph.TimingGraph.required_through_net>`,
:meth:`~repro.core.tgraph.TimingGraph.suffix_through_net`) that both
the full passes and the incremental repair run.  No reference reads a
calculator table the production sweeps fill.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baseline.structural import StructuralEnumerator
from repro.charlib.model import DelayModel
from repro.charlib.store import BLIND, CharacterizedLibrary
from repro.core.delaycalc import DelayCalculator
from repro.core.path import TimedPath
from repro.core.sta import TruePathSTA
from repro.core.tgraph import ForwardTiming, TimingArc
from repro.netlist.circuit import Circuit
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger

_log = get_logger("repro.verify")

#: Invariant names, in execution order.
INVARIANTS = (
    "gba_bounds",
    "structural_superset",
    "parallel_identical",
    "pruning_identical",
    "incremental_identical",
)

#: Model-noise allowance for the GBA dominance check: GBA propagates
#: the slew of the worst-arrival predecessor, which at reconvergence
#: can differ slightly from the slew the true path actually sees.
GBA_REL_TOL = 0.02


@dataclass
class InvariantResult:
    """Outcome of one invariant on one circuit."""

    name: str
    ok: bool
    checked: int
    detail: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else "VIOLATED"
        tail = f" -- {self.detail}" if self.detail else ""
        return f"{self.name}: {status} ({self.checked} comparisons){tail}"


def reference_forward(calc: DelayCalculator) -> ForwardTiming:
    """Gate-major GBA forward pass, independent of the production one.

    Primary inputs are seeded at arrival 0 and the calculator's input
    slew; then, gate by gate in topological order, every reachable
    traversal (pin x sensitization option x input polarity) resolves
    its arc through the calculator's missing-arc policy and evaluates
    it through the models' batch kernel (``evaluate_many``, one row per
    traversal) -- neither :meth:`TimingGraph.forward_update_net
    <repro.core.tgraph.TimingGraph.forward_update_net>` nor the
    plain-float ``evaluate``.  Raises
    :class:`~repro.core.delaycalc.MissingArcsError` on the first
    reachable traversal the library cannot resolve."""
    ec = calc.ec
    arrivals = [[None, None] for _ in range(ec.num_nets)]
    slews = [[None, None] for _ in range(ec.num_nets)]
    for net in ec.input_ids:
        arrivals[net] = [0.0, 0.0]
        slews[net] = [calc.input_slew, calc.input_slew]
    for gate in ec.gates:
        out_arr, out_slew = arrivals[gate.output_net], slews[gate.output_net]
        for pin, src in zip(gate.cell.inputs, gate.input_nets):
            for option in gate.options[pin]:
                vector_id = BLIND if calc.vector_blind \
                    else option.vector.vector_id
                for in_pol in (0, 1):
                    if arrivals[src][in_pol] is None:
                        continue
                    input_rising = in_pol == 0
                    output_rising = input_rising ^ option.inverting
                    arc = calc._lookup_arc(gate.cell.name, pin, vector_id,
                                           input_rising, output_rising)
                    row = np.array([[calc.fo[gate.index],
                                     slews[src][in_pol], calc.temp,
                                     calc.vdd]])
                    delay = float(arc.delay_model.evaluate_many(row)[0])
                    slew = float(arc.slew_model.evaluate_many(row)[0])
                    out_pol = 0 if output_rising else 1
                    arrival = arrivals[src][in_pol] + delay
                    if out_arr[out_pol] is None or arrival > out_arr[out_pol]:
                        out_arr[out_pol] = arrival
                    if out_slew[out_pol] is None or slew > out_slew[out_pol]:
                        out_slew[out_pol] = slew
    return ForwardTiming(arrivals=arrivals, slews=slews)


def _model_max(model: DelayModel, fo: float, slews: Sequence[float],
               temp: float, vdd: float) -> float:
    """Maximum of one fitted model over a sweep of input slews: one
    scalar ``evaluate`` call per slew, so no reference runs the batch
    kernels the grid helper runs."""
    return max(model.evaluate(fo, t_in, temp, vdd) for t_in in slews)


def reference_bound_slews(calc: DelayCalculator) -> Tuple[float, ...]:
    """The slew-ceiling fixed point of
    :meth:`DelayCalculator.bound_slews` with every round's worst slew
    taken from :func:`reference_slew_peaks` instead of the grid helper.

    Installs the result as ``calc``'s sample grid, so
    :func:`reference_worst_arcs` sweeps the reference fixed point.
    Call it on a fresh calculator, before anything reads
    :meth:`~DelayCalculator.bound_slews`."""
    samples = calc.slew_fixed_point(
        lambda grid: max(reference_slew_peaks(calc, grid), default=0.0)
    )
    calc._bound_slews = samples
    return samples


def reference_worst_arcs(
    calc: DelayCalculator,
) -> Dict[Tuple[int, str], float]:
    """Worst delay per (gate index, pin): the maximum of each of the
    pin's resolvable arcs' delay model over the bound-slew grid, one
    :func:`_model_max` sweep per arc, floored at 0.0.  Sweeps the
    :func:`reference_bound_slews` grid, installed here when the
    calculator has none yet; never reads the calculator's worst-arc
    table."""
    if calc._bound_slews is None:
        reference_bound_slews(calc)
    slews = calc._bound_slews
    worst = {}
    for gate in calc.ec.gates:
        fo = calc.fo[gate.index]
        for pin in gate.options:
            peak = 0.0
            for arc in calc.pin_arcs(gate, pin):
                value = _model_max(arc.delay_model, fo, slews,
                                   calc.temp, calc.vdd)
                if value > peak:
                    peak = value
            worst[gate.index, pin] = peak
    return worst


def _reverse_walk(calc: DelayCalculator,
                  through: Callable[[TimingArc], float]) -> List[float]:
    """``bound[src] = max(bound[src], through(arc) + bound[dst])`` over
    the timing arcs in reverse: arcs are gate-major in topological
    order, so every arc leaving an arc's destination comes later in the
    list and has already been walked."""
    bounds = [0.0] * calc.ec.num_nets
    for arc in reversed(calc.ec.tgraph.arcs):
        value = through(arc) + bounds[arc.dst_net]
        if value > bounds[arc.src_net]:
            bounds[arc.src_net] = value
    return bounds


def reference_required_bounds(
    calc: DelayCalculator, worst: Dict[Tuple[int, str], float],
) -> List[float]:
    """Backward required-time bound as an arc-major reverse walk over
    ``worst``, the :func:`reference_worst_arcs` table."""
    return _reverse_walk(calc, lambda arc: worst[arc.gate_index, arc.pin])


def reference_suffix_bounds(
    calc: DelayCalculator, worst: Dict[Tuple[int, str], float],
) -> List[float]:
    """The legacy per-gate suffix sum as an arc-major reverse walk: each
    arc contributes its gate's worst delay, the maximum of ``worst``
    (the :func:`reference_worst_arcs` table) over the gate's pins."""
    per_gate = [0.0] * len(calc.ec.gates)
    for (index, _pin), value in worst.items():
        if value > per_gate[index]:
            per_gate[index] = value
    return _reverse_walk(calc, lambda arc: per_gate[arc.gate_index])


def reference_slew_peaks(
    calc: DelayCalculator, samples: Sequence[float]
) -> List[float]:
    """Worst output slew per gate over one sample grid: the maximum of
    each resolvable arc's slew model over ``samples``, one
    :func:`_model_max` sweep per arc."""
    peaks = []
    for gate in calc.ec.gates:
        fo = calc.fo[gate.index]
        peak = 0.0
        for arc in calc.gate_arcs(gate):
            value = _model_max(arc.slew_model, fo, samples,
                               calc.temp, calc.vdd)
            if value > peak:
                peak = value
        peaks.append(peak)
    return peaks


def _path_identity(path: TimedPath) -> Tuple:
    """Full output identity of a path: course, vectors, and bit-exact
    per-polarity arrivals/slews."""
    timing = tuple(
        (pol.input_rising, pol.output_rising, pol.arrival, pol.slew)
        for pol in path.polarities()
    )
    return (path.nets, path.vector_signature, timing)


def check_gba_bounds(
    circuit: Circuit,
    charlib: CharacterizedLibrary,
    paths: Optional[Sequence[TimedPath]] = None,
    max_paths: Optional[int] = 5000,
    rel_tol: float = GBA_REL_TOL,
) -> InvariantResult:
    sta = TruePathSTA(circuit, charlib)
    if paths is None:
        paths = sta.enumerate_paths(max_paths=max_paths)
    gba = sta.gba()
    checked = 0
    for path in paths:
        endpoint = path.nets[-1]
        try:
            bound = gba.worst_arrival(endpoint)
        except (KeyError, ValueError):
            return InvariantResult(
                "gba_bounds", False, checked,
                f"endpoint {endpoint} has a true path but no GBA arrival",
            )
        checked += 1
        if path.worst_arrival > bound * (1.0 + rel_tol):
            return InvariantResult(
                "gba_bounds", False, checked,
                (f"true path {path.worst_arrival * 1e12:.1f}ps exceeds GBA "
                 f"bound {bound * 1e12:.1f}ps at {endpoint}: "
                 f"{path.describe()}"),
            )
    return InvariantResult("gba_bounds", True, checked)


def check_structural_superset(
    circuit: Circuit,
    charlib: CharacterizedLibrary,
    paths: Optional[Sequence[TimedPath]] = None,
    max_structural: int = 200_000,
) -> InvariantResult:
    sta = TruePathSTA(circuit, charlib)
    if paths is None:
        paths = sta.enumerate_paths(max_paths=5000)
    enumerator = StructuralEnumerator(sta.ec, sta.calc)
    total = enumerator.count_paths()
    if total > max_structural:
        return InvariantResult(
            "structural_superset", True, 0,
            f"skipped: {total} structural paths exceed the "
            f"{max_structural} enumeration cap",
        )
    structural = set()
    names = sta.ec.net_names
    gates = sta.ec.gates
    for spath in enumerator.iter_paths(limit=total):
        nets = [names[spath.origin_net]]
        for gate_index, _pin in spath.hops:
            nets.append(names[gates[gate_index].output_net])
        structural.add(tuple(nets))
    checked = 0
    for path in paths:
        checked += 1
        if path.course not in structural:
            return InvariantResult(
                "structural_superset", False, checked,
                f"sensitized course missing structurally: {path.describe()}",
            )
    return InvariantResult("structural_superset", True, checked)


def check_parallel_identical(
    circuit: Circuit,
    charlib: CharacterizedLibrary,
    jobs: int = 2,
    max_paths: Optional[int] = 2000,
    n_worst: Optional[int] = None,
) -> InvariantResult:
    serial = TruePathSTA(circuit, charlib).enumerate_paths(
        max_paths=max_paths, n_worst=n_worst
    )
    parallel = TruePathSTA(circuit, charlib).analyze(
        jobs=jobs, max_paths=max_paths, n_worst=n_worst
    ).paths
    if n_worst is None:
        serial_ids = [_path_identity(p) for p in serial]
        parallel_ids = [_path_identity(p) for p in parallel]
        if serial_ids != parallel_ids:
            return InvariantResult(
                "parallel_identical", False, len(serial),
                (f"serial ({len(serial)} paths) and jobs={jobs} "
                 f"({len(parallel)} paths) streams differ"),
            )
    else:
        # Per-shard heaps prune at most as hard as the global heap, so
        # the merge is a superset whose top-N equals the serial top-N.
        keep = sorted(parallel, key=lambda p: p.worst_arrival,
                      reverse=True)[:n_worst]
        want = sorted(serial, key=lambda p: p.worst_arrival,
                      reverse=True)[:n_worst]
        if ([p.worst_arrival for p in keep]
                != [p.worst_arrival for p in want]):
            return InvariantResult(
                "parallel_identical", False, len(want),
                f"jobs={jobs} top-{n_worst} arrivals differ from serial",
            )
    return InvariantResult("parallel_identical", True, len(serial),
                           f"jobs={jobs}")


def check_pruning_identical(
    circuit: Circuit,
    charlib: CharacterizedLibrary,
    n_worst: int = 5,
    exhaustive: Optional[Sequence[TimedPath]] = None,
) -> InvariantResult:
    sta = TruePathSTA(circuit, charlib)
    if exhaustive is None:
        exhaustive = sta.enumerate_paths()
    pruned = sta.n_worst_paths(n_worst)
    want = sorted(exhaustive, key=lambda p: p.worst_arrival,
                  reverse=True)[:n_worst]
    if [p.worst_arrival for p in pruned] != [p.worst_arrival for p in want]:
        return InvariantResult(
            "pruning_identical", False, len(want),
            (f"pruned top-{n_worst} arrivals "
             f"{[round(p.worst_arrival * 1e12, 2) for p in pruned]} != "
             f"exhaustive {[round(p.worst_arrival * 1e12, 2) for p in want]}"),
        )
    exhaustive_ids = {_path_identity(p) for p in exhaustive}
    for path in pruned:
        if _path_identity(path) not in exhaustive_ids:
            return InvariantResult(
                "pruning_identical", False, len(want),
                f"pruned path absent from exhaustive run: {path.describe()}",
            )
    return InvariantResult("pruning_identical", True, len(want))


def check_incremental_identical(
    circuit: Circuit,
    charlib: CharacterizedLibrary,
    seed: int = 0,
    edits: int = 3,
    n_worst: int = 4,
    max_paths: Optional[int] = 2000,
) -> InvariantResult:
    """After every edit of a randomized pin-compatible swap sequence,
    the incremental session must match a from-scratch rebuild bit for
    bit -- forward arrivals/slews (both the repaired ones and a fresh
    full forward pass on the session's own calculator), backward
    required/suffix bounds, and the full N-worst path identity -- and
    the rebuild's sweeps must match the reference passes (forward
    timing, the whole slew-ceiling fixed point, required and suffix
    bounds, per-gate slew peaks on the final grid), computed on a fresh
    calculator so no batched table leaks into the reference.
    Two comparisons per edit.  Mutates and then restores the circuit in
    place."""
    rng = random.Random(seed)
    pools: dict = {}
    for cell in circuit.library:
        pools.setdefault(cell.inputs, []).append(cell)
    session = TruePathSTA(circuit, charlib)
    inst_names = sorted(circuit.instances)
    original = {name: circuit.instances[name].cell for name in inst_names}
    checked = 0

    def diverged(what: str) -> InvariantResult:
        return InvariantResult(
            "incremental_identical", False, checked,
            f"{what} diverged after swapping {inst_name} to {new_cell.name}",
        )

    try:
        for _ in range(edits):
            inst_name = inst_names[rng.randrange(len(inst_names))]
            inst = circuit.instances[inst_name]
            pool = [c for c in pools.get(inst.cell.inputs, ())
                    if c.name != inst.cell.name]
            if not pool:
                continue
            new_cell = pool[rng.randrange(len(pool))]
            session.replace_cell(inst_name, new_cell)
            scratch = TruePathSTA(circuit, charlib)
            timing = scratch.ec.tgraph.forward_arrivals(scratch.calc)
            want_required = scratch.calc.required_bounds()
            want_suffix = scratch.calc.remaining_bounds()
            want_paths = [
                _path_identity(p)
                for p in scratch.n_worst_paths(n_worst, max_paths=max_paths)
            ]

            # Session vs scratch: dirty-cone repair == full rebuild.
            checked += 1
            if (session.arrivals() != timing.arrivals
                    or session.slews() != timing.slews):
                return diverged("session forward timing (vs scratch)")
            swept = session.ec.tgraph.forward_arrivals(session.calc)
            if (swept.arrivals != timing.arrivals
                    or swept.slews != timing.slews):
                return diverged("session full forward pass (vs scratch)")
            if (session.required_bounds() != want_required
                    or session.suffix_bounds() != want_suffix):
                return diverged("session backward bounds (vs scratch)")
            got = [
                _path_identity(p)
                for p in session.n_worst_paths(n_worst, max_paths=max_paths)
            ]
            if got != want_paths:
                return diverged(
                    f"session {n_worst}-worst report (vs scratch)")

            # Scratch vs reference: production sweeps == reference passes.
            checked += 1
            reference = DelayCalculator(scratch.ec, charlib)
            ref_timing = reference_forward(reference)
            if (ref_timing.arrivals != timing.arrivals
                    or ref_timing.slews != timing.slews):
                return diverged("forward timing (vs reference)")
            samples = scratch.calc.bound_slews()
            if reference_bound_slews(reference) != samples:
                return diverged("slew-ceiling fixed point (vs reference)")
            worst = reference_worst_arcs(reference)
            if reference_required_bounds(reference, worst) != want_required:
                return diverged("required bounds (vs reference)")
            if reference_suffix_bounds(reference, worst) != want_suffix:
                return diverged("suffix bounds (vs reference)")
            if (reference_slew_peaks(reference, samples)
                    != scratch.calc.slew_peaks(samples)):
                return diverged("slew peaks (vs reference)")
    finally:
        for name, cell in original.items():
            if circuit.instances[name].cell is not cell:
                circuit.instances[name].cell = cell
        circuit._topo_cache = None
    return InvariantResult("incremental_identical", True, checked,
                           f"{edits} edits, seed {seed}")


_CHECKS = {
    "gba_bounds": check_gba_bounds,
    "structural_superset": check_structural_superset,
    "parallel_identical": check_parallel_identical,
    "pruning_identical": check_pruning_identical,
    "incremental_identical": check_incremental_identical,
}


def run_metamorphic(
    circuit: Circuit,
    charlib: CharacterizedLibrary,
    invariants: Optional[Sequence[str]] = None,
    jobs: int = 2,
    n_worst: int = 5,
    max_paths: Optional[int] = 5000,
) -> List[InvariantResult]:
    """Run the invariant catalog (or a named subset) on one circuit.

    The true-path enumeration is shared across invariants so a full run
    costs roughly one exhaustive search plus one parallel search.
    ``jobs=1`` exercises the shard/merge pipeline in-process (no pool),
    which is cheap enough for per-circuit fuzzing; ``jobs>=2`` also
    covers cross-process determinism.
    """
    selected = list(invariants) if invariants is not None else list(INVARIANTS)
    unknown = [name for name in selected if name not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown invariants {unknown}; have {INVARIANTS}")
    paths = TruePathSTA(circuit, charlib).enumerate_paths(max_paths=max_paths)
    results: List[InvariantResult] = []
    for name in selected:
        if name == "gba_bounds":
            result = check_gba_bounds(circuit, charlib, paths=paths)
        elif name == "structural_superset":
            result = check_structural_superset(circuit, charlib, paths=paths)
        elif name == "parallel_identical":
            result = check_parallel_identical(
                circuit, charlib, jobs=jobs, max_paths=max_paths
            )
        elif name == "incremental_identical":
            result = check_incremental_identical(
                circuit, charlib, n_worst=n_worst, max_paths=max_paths
            )
        else:
            result = check_pruning_identical(
                circuit, charlib, n_worst=n_worst,
                exhaustive=paths if max_paths is None else None,
            )
        results.append(result)
    registry = obs_metrics.REGISTRY
    registry.counter("verify.circuits_checked").inc()
    failures = [r for r in results if not r.ok]
    registry.counter("verify.mismatches").inc(len(failures))
    log = _log.warning if failures else _log.info
    log("metamorphic.done", circuit=circuit.name,
        invariants=",".join(selected), failures=len(failures))
    return results
