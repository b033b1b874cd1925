"""User-facing true-path STA tool.

:class:`TruePathSTA` wires the indexed circuit, the vector-resolved
delay calculator and the single-pass path finder into the interface the
examples and benchmarks use::

    sta = TruePathSTA(circuit, charlib)
    paths = sta.enumerate_paths()
    critical = sta.n_worst_paths(10)
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DEFAULT_INPUT_SLEW, DelayCalculator
from repro.core.engine import EngineCircuit
from repro.core.path import TimedPath
from repro.core.pathfinder import PathFinder, PathStream, SearchStats
from repro.netlist.circuit import Circuit
from repro.obs.tracing import span
from repro.resilience.budgets import CompletenessReport, SearchBudgets


@dataclass
class AnalysisResult:
    """Anytime analysis product: always a report, always bounded.

    ``paths`` is exact for every ``complete`` origin in
    ``completeness``; each non-complete origin carries
    ``gba_bound`` -- the GBA forward-pass worst endpoint arrival, a
    sound upper bound on any path the budgeted search did not reach.
    """

    paths: List[TimedPath]
    stats: SearchStats
    completeness: CompletenessReport
    resumed_shards: int = 0

    @property
    def degraded(self) -> bool:
        return not self.completeness.complete

    def describe_completeness(self) -> str:
        lines = [f"origin completeness: {self.completeness.summary()}"]
        for name, outcome in self.completeness.degraded_origins().items():
            bound = (
                f"GBA bound {outcome.gba_bound * 1e12:.1f} ps"
                if outcome.gba_bound is not None else "no bound"
            )
            lines.append(
                f"  {name}: {outcome.status} "
                f"({outcome.paths_found} paths found, {bound})"
            )
        return "\n".join(lines)


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
        self.missing_arc_policy = missing_arc_policy
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

        ``jobs`` > 1 shards the search across primary inputs in a
        process pool (:func:`repro.perf.parallel_find_paths`) and
        merges the per-origin streams in declaration order.
        """
        if jobs is not None and jobs > 1:
            from repro.perf import supervised_find_paths

            result = supervised_find_paths(
                self.circuit,
                self.charlib,
                jobs=jobs,
                temp=self.calc.temp,
                vdd=self.calc.vdd,
                input_slew=self.calc.input_slew,
                missing_arc_policy=self.missing_arc_policy,
                **kwargs,
            )
            self.last_stats = result.stats
            self.last_completeness = result.completeness
            return result.paths
        with span("pathfinder.search"):
            with self.iter_paths(**kwargs) as stream:
                return list(stream)

    def analyze(
        self,
        jobs: int = 1,
        budgets: Optional[SearchBudgets] = None,
        attach_gba_bounds: bool = True,
        **kwargs,
    ) -> AnalysisResult:
        """Supervised anytime analysis: always returns a report.

        Routes the search through
        :func:`repro.perf.supervised_find_paths` regardless of ``jobs``
        (``jobs=1`` runs the same shard/merge pipeline in-process), so
        budgets, checkpoint/resume and the missing-arc policy behave
        identically in serial and parallel runs.  When
        ``attach_gba_bounds`` is set and any origin came back
        non-complete, a one-pass GBA forward analysis supplies a sound
        upper bound on every arrival the budgeted search did not reach;
        the bound lands on each degraded origin's
        :attr:`~repro.resilience.budgets.OriginOutcome.gba_bound`.
        """
        from repro.perf import supervised_find_paths

        result = supervised_find_paths(
            self.circuit,
            self.charlib,
            jobs=jobs,
            temp=self.calc.temp,
            vdd=self.calc.vdd,
            input_slew=self.calc.input_slew,
            missing_arc_policy=self.missing_arc_policy,
            budgets=budgets,
            **kwargs,
        )
        self.last_stats = result.stats
        self.last_completeness = result.completeness
        analysis = AnalysisResult(
            paths=result.paths,
            stats=result.stats,
            completeness=result.completeness,
            resumed_shards=result.resumed_shards,
        )
        if attach_gba_bounds and analysis.degraded:
            self._attach_gba_bounds(analysis.completeness)
        return analysis

    def _attach_gba_bounds(self, completeness: CompletenessReport) -> None:
        """Stamp every non-complete origin with the GBA worst endpoint
        arrival -- a sound upper bound on any true path arrival, since
        GBA takes the worst arc at every gate without asking whether the
        required sensitization vectors coexist."""
        from repro.core.graphsta import GraphSTA

        gba = GraphSTA(
            self.circuit,
            self.charlib,
            temp=self.calc.temp,
            vdd=self.calc.vdd,
            input_slew=self.calc.input_slew,
            missing_arc_policy=self.missing_arc_policy,
        ).run()
        bound: Optional[float] = None
        for output in self.circuit.outputs:
            try:
                arrival = gba.worst_arrival(output)
            except (KeyError, ValueError):
                continue
            if bound is None or arrival > bound:
                bound = arrival
        for outcome in completeness.degraded_origins().values():
            outcome.gba_bound = bound

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
