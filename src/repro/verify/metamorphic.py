"""Cross-engine metamorphic invariants.

Where exhaustive sweeping is infeasible (more than ~18 inputs) the
engines still certify each other: the repo carries three analysis modes
plus several search configurations that must relate in provable ways.
Each invariant below is an executable statement of one such relation;
a violation on *any* circuit is a bug, so the fuzz driver can assert
them on arbitrarily large random netlists.

The catalog (see docs/TESTING.md):

``gba_bounds``
    GraphSTA's forward worst-arrival pass maximizes per gate over every
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
    structure-of-arrays sweeps are byte-identical to the arc-at-a-time
    reference passes below.

The reference passes (:func:`reference_forward`,
:func:`reference_required_bounds`, :func:`reference_slew_peaks` and the
:func:`reference_bound_slews` fixed point built on it) are
the scalar counterparts of the SoA kernels in
:mod:`repro.core.tarrays`.  They are built from the per-net kernels
incremental repair already uses, so no production code carries a
second full-sweep implementation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.baseline.structural import StructuralEnumerator
from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DelayCalculator, _model_max
from repro.core.graphsta import GraphSTA
from repro.core.path import TimedPath
from repro.core.sta import TruePathSTA
from repro.core.tgraph import ForwardTiming
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
    """Arc-at-a-time GBA forward pass: primary inputs seeded at arrival
    0 and the calculator's input slew, then
    :meth:`TimingGraph.forward_update_net
    <repro.core.tgraph.TimingGraph.forward_update_net>` over every
    driven net in level order.  Raises
    :class:`~repro.core.delaycalc.MissingArcsError` on the first
    reachable traversal the library cannot resolve."""
    ec = calc.ec
    tg = ec.tgraph
    timing = ForwardTiming(
        arrivals=[[None, None] for _ in range(ec.num_nets)],
        slews=[[None, None] for _ in range(ec.num_nets)],
    )
    for net in ec.input_ids:
        timing.arrivals[net] = [0.0, 0.0]
        timing.slews[net] = [calc.input_slew, calc.input_slew]
    for net in tg.topo_nets:
        if ec.driver[net] >= 0:
            tg.forward_update_net(calc, net, timing)
    return timing


def reference_bound_slews(calc: DelayCalculator) -> Tuple[float, ...]:
    """The slew-ceiling fixed point of
    :meth:`DelayCalculator.bound_slews` with every round's worst slew
    taken from :func:`reference_slew_peaks` instead of the SoA kernel.

    Installs the result as ``calc``'s sample grid, so the calculator's
    later worst-arc reads (:func:`reference_required_bounds`,
    :meth:`DelayCalculator.remaining_bounds`) sweep the scalar fixed
    point.  Call it on a fresh calculator, before anything reads
    :meth:`~DelayCalculator.bound_slews`."""
    samples = calc.slew_fixed_point(
        lambda grid: max(reference_slew_peaks(calc, grid), default=0.0)
    )
    calc._bound_slews = samples
    return samples


def reference_required_bounds(calc: DelayCalculator) -> List[float]:
    """Backward required-time bound: :meth:`TimingGraph.required_through_net
    <repro.core.tgraph.TimingGraph.required_through_net>` over every net
    in descending level order.  Worst-arc delays are read through
    :meth:`DelayCalculator.worst_arc_delay`; on a calculator whose
    worst-arc table no SoA sweep has filled yet, those are the lazy
    per-arc model sweeps over the :func:`reference_bound_slews` grid
    (installed here when the calculator has no grid yet), independent
    of the batched kernels."""
    if calc._bound_slews is None:
        reference_bound_slews(calc)
    tg = calc.ec.tgraph
    bounds = [0.0] * calc.ec.num_nets
    for net in reversed(tg.topo_nets):
        bounds[net] = tg.required_through_net(calc, net, bounds)
    return bounds


def reference_slew_peaks(
    calc: DelayCalculator, samples: Sequence[float]
) -> List[float]:
    """Worst output slew per gate over one sample grid: the maximum of
    each resolvable arc's slew model over ``samples``, one
    :func:`~repro.core.delaycalc._model_max` sweep per arc."""
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
    if paths is None:
        paths = TruePathSTA(circuit, charlib).enumerate_paths(
            max_paths=max_paths
        )
    gba = GraphSTA(circuit, charlib).run()
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
    SoA forward sweep on the session's own calculator), backward
    required/suffix bounds, and the full N-worst path identity -- and
    the rebuild's SoA sweeps must match the arc-at-a-time reference
    passes (forward timing, the whole slew-ceiling fixed point,
    required bounds, per-gate slew peaks on the final grid), computed
    on a fresh calculator so no batched table leaks into the reference.
    Two comparisons per edit.  Mutates and then restores the circuit in
    place."""
    from repro.core.incremental import IncrementalSTA

    rng = random.Random(seed)
    pools: dict = {}
    for cell in circuit.library:
        pools.setdefault(cell.inputs, []).append(cell)
    session = IncrementalSTA(circuit, charlib)
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
            swept = session.tg.forward_arrivals(session.calc)
            if (swept.arrivals != timing.arrivals
                    or swept.slews != timing.slews):
                return diverged("session SoA forward sweep (vs scratch)")
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

            # Scratch vs reference: SoA sweeps == arc-at-a-time passes.
            checked += 1
            reference = DelayCalculator(scratch.ec, charlib)
            ref_timing = reference_forward(reference)
            if (ref_timing.arrivals != timing.arrivals
                    or ref_timing.slews != timing.slews):
                return diverged("SoA forward timing (vs reference)")
            samples = scratch.calc.bound_slews()
            if reference_bound_slews(reference) != samples:
                return diverged("SoA slew-ceiling fixed point (vs reference)")
            if reference_required_bounds(reference) != want_required:
                return diverged("SoA required bounds (vs reference)")
            if (reference_slew_peaks(reference, samples)
                    != scratch.calc.tarrays.slew_peaks(samples)):
                return diverged("SoA slew peaks (vs reference)")
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
