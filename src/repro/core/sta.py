"""User-facing true-path STA tool.

:class:`TruePathSTA` wires the indexed circuit, the vector-resolved
delay calculator and the single-pass path finder into the interface the
examples and benchmarks use::

    sta = TruePathSTA(circuit, charlib)
    paths = sta.enumerate_paths()
    critical = sta.n_worst_paths(10)
    result = sta.analyze(n_worst=10, budgets=SearchBudgets(...))

:meth:`TruePathSTA.analyze` is the search driver of the developed tool
(the CLI and the service call it for every request);
:meth:`~TruePathSTA.iter_paths` is the plain stream underneath, kept as
the reference of the equivalence tests and for library callers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DEFAULT_INPUT_SLEW, DelayCalculator
from repro.core.engine import EngineCircuit
from repro.core.path import TimedPath
from repro.core.pathfinder import PathFinder, PathStream, SearchStats
from repro.netlist.circuit import Circuit
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span
from repro.resilience.budgets import CompletenessReport, SearchBudgets
from repro.resilience.errors import ConfigError
# A module import, not a from-import: a spawn-start pool worker imports
# repro.resilience.supervisor first (to unpickle its shard handler),
# and that module imports this one back while half-initialized.
from repro.resilience import supervisor


class TruePathSTA:
    """Single-pass sensitization-vector-aware static timing analysis.

    Parameters
    ----------
    circuit:
        Combinational circuit to analyze.
    charlib:
        Vector-resolved characterized library (``model="polynomial"``,
        ``vector_mode="all"``).
    temp / vdd:
        Analysis corner; VDD defaults to the technology nominal.
    input_slew:
        Transition time assumed at primary inputs.
    missing_arc_policy:
        ``error`` (default) raises on any unresolvable timing arc;
        ``warn-substitute`` falls back to the nearest characterized arc
        of the same cell, counting ``delaycalc.arc_substitutions``.

    The sweep passes (pruning bounds, slew fixed point, GBA forward)
    run on the structure-of-arrays kernels in :mod:`repro.core.tarrays`.
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
            missing_arc_policy=missing_arc_policy,
        )
        self.last_stats: Optional[SearchStats] = None
        #: Per-origin completeness of the most recent search (None
        #: until a search ran).
        self.last_completeness: Optional[CompletenessReport] = None

    # ------------------------------------------------------------------
    def iter_paths(
        self,
        max_paths: Optional[int] = None,
        inputs: Optional[Sequence[str]] = None,
        n_worst: Optional[int] = None,
        justify_backtrack_limit: Optional[int] = None,
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
            justify_backtrack_limit=justify_backtrack_limit,
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
        justify_backtrack_limit: Optional[int] = None,
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
        degraded, the GBA worst endpoint arrival of this session's
        forward pass -- a sound upper bound on every arrival the search
        did not reach -- lands on each degraded origin's
        :attr:`~repro.resilience.budgets.OriginOutcome.gba_bound`.
        """
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        origins = list(inputs if inputs is not None else self.circuit.inputs)
        jobs = min(jobs, max(len(origins), 1))
        driver = supervisor.ShardSupervisor(
            self.ec,
            self.calc,
            dict(
                max_paths=max_paths,
                n_worst=n_worst,
                justify_backtrack_limit=justify_backtrack_limit,
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
            # coexist.  One forward pass on this session's calculator.
            arrivals = self.ec.tgraph.forward_arrivals(self.calc).arrivals
            bound = max((arrival for output in self.circuit.outputs
                         for arrival in arrivals[self.ec.net_id[output]]
                         if arrival is not None), default=None)
            for outcome in result.completeness.degraded_origins().values():
                outcome.gba_bound = bound
        return result

    def n_worst_paths(self, n: int, prune: bool = True, **kwargs) -> List[TimedPath]:
        """The N slowest true paths, worst first.

        Because sensitization happens *during* traversal, no initial
        structural path count has to be guessed -- the single-pass
        search with bound pruning directly yields the N true paths.
        """
        kwargs.setdefault("n_worst", n if prune else None)
        paths = self.enumerate_paths(**kwargs)
        paths.sort(key=lambda p: p.worst_arrival, reverse=True)
        return paths[:n]

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
