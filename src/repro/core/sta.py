"""The analysis session: one circuit, one piece of state.

:class:`TruePathSTA` wires the indexed circuit, the vector-resolved
delay calculator and the single-pass path finder into the one session
every front end analyzes with::

    sta = TruePathSTA(circuit, charlib)
    paths = sta.enumerate_paths()
    critical = sta.n_worst_paths(10)
    result = sta.analyze(n_worst=10, budgets=SearchBudgets(...))
    endpoints = sta.gba()                   # block-based endpoint arrivals
    sta.replace_cell("U7", "NAND2_X2")      # an ECO edit

:meth:`TruePathSTA.analyze` is the search driver of the developed tool
(the CLI and the service call it for every request);
:meth:`~TruePathSTA.iter_paths` is the plain stream underneath, kept as
the reference of the equivalence tests and for library callers.
:meth:`~TruePathSTA.gba` reads the session's forward timing, which runs
on first use; an edit repairs that timing and both pruning bounds in
its dirty cone (:mod:`repro.core.incremental`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DEFAULT_INPUT_SLEW, DelayCalculator
from repro.core.engine import EngineCircuit, EngineGate
from repro.core.path import TimedPath
from repro.core.pathfinder import PathFinder, PathStream, SearchStats
from repro.core.tgraph import ForwardTiming
from repro.gates.cell import Cell
from repro.gates.library import DRIVE_SUFFIX
from repro.netlist.circuit import Circuit
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span
from repro.resilience.budgets import CompletenessReport, SearchBudgets
from repro.resilience.errors import ConfigError
# A module import, not a from-import: a spawn-start pool worker imports
# repro.resilience.supervisor first (to unpickle its shard handler),
# and that module imports this one back while half-initialized.
from repro.resilience import supervisor

if TYPE_CHECKING:  # both modules import this one back
    from repro.core.graphsta import GbaResult
    from repro.core.incremental import EditReport


class TruePathSTA:
    """Single-pass sensitization-vector-aware static timing analysis.

    Parameters
    ----------
    circuit:
        Combinational circuit to analyze (edits mutate it in place).
    charlib:
        Characterized library.  A vector-resolved one
        (``vector_mode="all"``) gives the developed tool; on a
        ``vector_mode="default"`` library every lookup is vector-blind.
    temp / vdd:
        Analysis corner; VDD defaults to the technology nominal.
    input_slew:
        Transition time assumed at primary inputs.
    missing_arc_policy:
        ``error`` (default) raises on any unresolvable timing arc;
        ``warn-substitute`` falls back to the nearest characterized arc
        of the same cell, counting ``delaycalc.arc_substitutions``.

    The GBA forward pass and both pruning bounds run the per-net
    kernels of :class:`~repro.core.tgraph.TimingGraph`; the grid sweeps
    behind the worst-arc delays and the slew fixed point run on
    :class:`~repro.core.delaycalc.DelayCalculator`.

    Every result stays byte-identical to a fresh session built on the
    circuit's current state, however :meth:`replace_cell` /
    :meth:`resize` edits interleave with queries.
    """

    def __init__(
        self,
        circuit: Circuit,
        charlib: CharacterizedLibrary,
        temp: float = 25.0,
        vdd: Optional[float] = None,
        input_slew: float = DEFAULT_INPUT_SLEW,
        missing_arc_policy: str = "error",
    ):
        circuit.check()
        self.circuit = circuit
        self.charlib = charlib
        self.ec = EngineCircuit(circuit)
        self.calc = DelayCalculator(
            self.ec, charlib, temp=temp, vdd=vdd, input_slew=input_slew,
            vector_blind=charlib.metadata.get("vector_mode") == "default",
            missing_arc_policy=missing_arc_policy,
        )
        self.last_stats: Optional[SearchStats] = None
        #: Per-origin completeness of the most recent search (None
        #: until a search ran).
        self.last_completeness: Optional[CompletenessReport] = None
        #: Bumped per edit; keys the N-worst memo.
        self.version = 0
        #: Forward worst-arrival timing, computed on first use and
        #: repaired by every edit.
        self._timing: Optional[ForwardTiming] = None
        #: Whether the state an edit repairs is built (:meth:`refresh`).
        self._refreshed = False
        #: Instance name -> gate index, built on the first edit.
        self._gate_index: Optional[Dict[str, int]] = None
        #: (n, max_paths) -> (version, paths).
        self._nworst_cache: Dict[
            Tuple[int, Optional[int]], Tuple[int, List[TimedPath]]
        ] = {}

    # ------------------------------------------------------------------
    def iter_paths(
        self,
        max_paths: Optional[int] = None,
        inputs: Optional[Sequence[str]] = None,
        n_worst: Optional[int] = None,
        single_polarity: Optional[int] = None,
        complete: bool = False,
        budgets: Optional[SearchBudgets] = None,
    ) -> PathStream:
        """Stream true paths as the single-pass search finds them.

        The returned :class:`PathStream` is a plain iterator that also
        supports ``close()`` and the context-manager protocol: closing
        it (or exhausting it) publishes the run's :class:`SearchStats`
        and ``delaycalc.*`` counters immediately, so metric snapshots
        taken after an early stop are complete.
        """
        finder = PathFinder(
            self.ec,
            self.calc,
            max_paths=max_paths,
            n_worst=n_worst,
            single_polarity=single_polarity,
            complete=complete,
            budgets=budgets,
        )
        self.last_stats = finder.stats
        self.last_completeness = finder.completeness
        return finder.find_paths(inputs=inputs)

    def enumerate_paths(self, jobs: Optional[int] = None, **kwargs) -> List[TimedPath]:
        """All true paths x sensitization-vector combinations.

        ``jobs`` > 1 shards the search across primary inputs on
        supervised worker processes (:meth:`analyze`) and merges the
        per-origin streams in declaration order.
        """
        if jobs is not None and jobs > 1:
            return self.analyze(jobs=jobs, **kwargs).paths
        with span("pathfinder.search"):
            with self.iter_paths(**kwargs) as stream:
                return list(stream)

    def analyze(
        self,
        jobs: int = 1,
        inputs: Optional[Sequence[str]] = None,
        max_paths: Optional[int] = None,
        n_worst: Optional[int] = None,
        single_polarity: Optional[int] = None,
        complete: bool = False,
        budgets: Optional[SearchBudgets] = None,
        shard_timeout: Optional[float] = None,
        shard_retries: int = 2,
        serial_fallback: bool = True,
        checkpoint: Optional[str] = None,
        resume: Optional[str] = None,
        fault_plan: object = None,
        progress: bool = False,
        heartbeat_timeout: Optional[float] = None,
    ) -> supervisor.AnalysisResult:
        """The search driver: supervised anytime analysis that always
        returns a report.

        Runs one shard per origin under
        :class:`~repro.resilience.supervisor.ShardSupervisor`.  With
        ``jobs=1`` the shards search in-process on this session's
        ``ec``/``calc``, sharing one top-N heap and one ``max_paths``
        count, so the paths, their order and every work counter equal
        the plain :meth:`iter_paths` stream's; ``jobs > 1`` runs them on
        worker processes that search this same session (merge semantics
        in :mod:`repro.resilience.supervisor`).  ``budgets`` give every
        origin the full extension and backtrack allowances, and the
        whole call one wall-clock deadline.  When an origin came back
        degraded, the worst endpoint arrival of this session's
        :meth:`gba` -- a sound upper bound on every arrival the search
        did not reach -- lands on each degraded origin's
        :attr:`~repro.resilience.budgets.OriginOutcome.gba_bound`.
        """
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if n_worst is not None and n_worst < 1:
            raise ConfigError(f"n_worst must be >= 1, got {n_worst}")
        if max_paths is not None and max_paths < 0:
            raise ConfigError(f"max_paths must be >= 0, got {max_paths}")
        origins = list(inputs if inputs is not None else self.circuit.inputs)
        jobs = min(jobs, max(len(origins), 1))
        driver = supervisor.ShardSupervisor(
            self.ec,
            self.calc,
            dict(
                max_paths=max_paths,
                n_worst=n_worst,
                single_polarity=single_polarity,
                complete=complete,
                budgets=budgets,
            ),
            supervisor.SupervisorConfig(
                jobs=jobs,
                shard_timeout=shard_timeout,
                shard_retries=shard_retries,
                serial_fallback=serial_fallback,
                checkpoint_path=checkpoint,
                resume_path=resume,
                progress=progress,
                heartbeat_timeout=heartbeat_timeout,
            ),
            fault_plan=fault_plan,
        )
        with span("pathfinder.search"):
            result = driver.run(origins)
        self.last_stats = result.stats
        self.last_completeness = result.completeness
        registry = obs_metrics.REGISTRY
        registry.counter("perf.parallel_runs").inc()
        registry.counter("perf.parallel_shards").inc(len(origins))
        registry.gauge("perf.parallel_jobs").set(jobs)
        if result.degraded:
            # The GBA worst endpoint arrival is a sound upper bound on any
            # true path arrival: GBA takes the worst arc at every gate
            # without asking whether the required sensitization vectors
            # coexist.
            bound = max((arrival for pair in self.gba().arrivals.values()
                         for arrival in pair if arrival is not None),
                        default=None)
            for outcome in result.completeness.degraded_origins().values():
                outcome.gba_bound = bound
        return result

    def n_worst_paths(self, n: int, prune: bool = True, **kwargs) -> List[TimedPath]:
        """The N slowest true paths, worst first.

        Because sensitization happens *during* traversal, no initial
        structural path count has to be guessed -- the single-pass
        search with bound pruning directly yields the N true paths.

        A pruned, unbudgeted call whose only other argument is
        ``max_paths`` is memoized per session :attr:`version`; any other
        configuration (a budgeted search's result is effort-dependent,
        not a pure function of the circuit) searches every time.
        """
        key = None
        if (prune and kwargs.get("budgets") is None
                and set(kwargs) <= {"max_paths", "budgets"}):
            key = (n, kwargs.get("max_paths"))
            cached = self._nworst_cache.get(key)
            if cached is not None and cached[0] == self.version:
                obs_metrics.REGISTRY.counter(
                    "incremental.nworst_cache_hits").inc()
                return list(cached[1])
        kwargs.setdefault("n_worst", n if prune else None)
        paths = self.enumerate_paths(**kwargs)
        paths.sort(key=lambda p: p.worst_arrival, reverse=True)
        paths = paths[:n]
        if key is not None:
            self._nworst_cache[key] = (self.version, list(paths))
        return paths

    def worst_path(
        self,
        max_paths: Optional[int] = None,
        budgets: Optional[SearchBudgets] = None,
    ) -> TimedPath:
        paths = self.n_worst_paths(1, max_paths=max_paths, budgets=budgets)
        if not paths:
            raise ValueError("circuit has no true paths")
        return paths[0]

    # ------------------------------------------------------------------
    # block-based timing
    # ------------------------------------------------------------------
    def _forward(self) -> ForwardTiming:
        if self._timing is None:
            self._timing = self.ec.tgraph.forward_arrivals(self.calc)
        return self._timing

    def gba(self) -> "GbaResult":
        """Graph-based (block-based) endpoint arrivals: the worst arc
        at every gate, with no joint-sensitizability check.  Read from
        the session's forward timing; no backward sweep runs."""
        from repro.core.graphsta import GbaResult

        timing = self._forward()
        ids = self.ec.net_id
        outputs = [(name, ids[name]) for name in self.circuit.outputs]
        return GbaResult(
            arrivals={name: tuple(timing.arrivals[net])
                      for name, net in outputs},
            slews={name: tuple(timing.slews[net]) for name, net in outputs},
        )

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Build the state an edit repairs: the slew grid, the forward
        timing, the worst-arc table and both per-net bounds.  Lazy: the
        first edit or edit-state query runs it, not the constructor."""
        if self._refreshed:
            return
        from repro.core.incremental import full_sweep

        with span("incremental.initial_analysis"):
            full_sweep(self)
        self._refreshed = True

    def _gate(self, inst_name: str) -> EngineGate:
        if self._gate_index is None:
            self._gate_index = {g.inst.name: g.index for g in self.ec.gates}
            obs_metrics.REGISTRY.gauge("incremental.graph_levels").set(
                len(set(self.ec.tgraph.levels)))
        index = self._gate_index.get(inst_name)
        if index is None:
            raise KeyError(f"unknown instance {inst_name!r}")
        return self.ec.gates[index]

    def replace_cell(
        self, inst_name: str, new_cell: Union[str, Cell]
    ) -> "EditReport":
        """Swap one instance's cell for a pin-compatible variant and
        repair the analysis state in the edit's dirty cone.  The
        underlying ``Circuit`` is mutated in place
        (:meth:`EngineCircuit.swap_cell`), so a fresh analysis of the
        circuit object sees the edit too."""
        from repro.core.incremental import repair

        gate = self._gate(inst_name)
        if isinstance(new_cell, str):
            new_cell = self.circuit.library[new_cell]
        if new_cell.inputs != gate.cell.inputs:
            raise ValueError(
                f"{new_cell.name} is not pin-compatible with {gate.cell.name}"
            )
        self.refresh()  # the baseline must reflect the pre-edit circuit
        from_cell = gate.cell.name
        self.ec.swap_cell(gate, new_cell)
        report = repair(self, gate, from_cell)
        self.version += 1
        report.version = self.version
        return report

    def resize(self, inst_name: str) -> "EditReport":
        """Drive-strength resize: swap to ``<cell>`` +
        :data:`~repro.gates.library.DRIVE_SUFFIX` from the circuit's
        library."""
        variant = f"{self._gate(inst_name).cell.name}{DRIVE_SUFFIX}"
        if variant not in self.circuit.library:
            raise ValueError(
                f"library has no drive variant {variant!r} for {inst_name}"
            )
        return self.replace_cell(inst_name, variant)

    # ------------------------------------------------------------------
    # edit-state queries
    # ------------------------------------------------------------------
    def arrivals(self) -> List[List[Optional[float]]]:
        """Per-net ``[rise, fall]`` worst arrivals (GBA semantics)."""
        self.refresh()
        return self._timing.arrivals

    def slews(self) -> List[List[Optional[float]]]:
        self.refresh()
        return self._timing.slews

    def required_bounds(self) -> List[float]:
        self.refresh()
        return self.calc.required_bounds()

    def suffix_bounds(self) -> List[float]:
        self.refresh()
        return self.calc.remaining_bounds()

    # ------------------------------------------------------------------
    @staticmethod
    def group_by_course(paths: Iterable[TimedPath]) -> Dict[Tuple[str, ...], List[TimedPath]]:
        """Group vector variants of the same gate sequence."""
        groups: Dict[Tuple[str, ...], List[TimedPath]] = defaultdict(list)
        for path in paths:
            groups[path.course].append(path)
        return dict(groups)

    @staticmethod
    def worst_vector_per_course(
        paths: Iterable[TimedPath],
    ) -> Dict[Tuple[str, ...], TimedPath]:
        """For each course, the vector combination with the largest
        arrival -- the delay a correct tool must report."""
        best: Dict[Tuple[str, ...], TimedPath] = {}
        for path in paths:
            current = best.get(path.course)
            if current is None or path.worst_arrival > current.worst_arrival:
                best[path.course] = path
        return best

    def multi_vector_paths(self, paths: Iterable[TimedPath]) -> List[TimedPath]:
        """The paths the paper's evaluation focuses on: those traversing
        at least one pin with multiple sensitization vectors."""
        return [p for p in paths if p.multi_vector]

    # ------------------------------------------------------------------
    def report(self, paths: Sequence[TimedPath], limit: int = 20) -> str:
        """Human-readable critical-path report."""
        lines = [
            f"True-path report for {self.circuit.name} "
            f"({self.charlib.tech_name}, {len(paths)} sensitizations)"
        ]
        ordered = sorted(paths, key=lambda p: p.worst_arrival, reverse=True)
        for k, path in enumerate(ordered[:limit], start=1):
            lines.append(f"{k:3d}. {path.worst_arrival * 1e12:8.1f} ps  {path.describe()}")
        if len(ordered) > limit:
            lines.append(f"... {len(ordered) - limit} more")
        return "\n".join(lines)
