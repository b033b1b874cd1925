"""The complete two-step baseline tool ("commercial tool").

Step one enumerates structural paths longest-first; step two checks
them for sensitizability with the easiest-vector, backtrack-limited
strategy.  Delays come from vector-blind LUT arcs.  The run report
carries exactly the counters of the paper's Table 6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baseline.sensitize import PathStatus, SensitizeOutcome, TwoStepSensitizer
from repro.baseline.structural import StructuralEnumerator, StructuralPath
from repro.charlib.store import CharacterizedLibrary
from repro.core.delaycalc import DEFAULT_INPUT_SLEW, DelayCalculator
from repro.core.engine import EngineCircuit
from repro.core.path import TimedPath
from repro.netlist.circuit import Circuit
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span

_END_OF_PATHS = object()


@dataclass
class TwoStepReport:
    """Counters matching the commercial-tool columns of Table 6.

    Like :class:`repro.core.pathfinder.SearchStats`, the counters are
    plain attributes during the run and :meth:`publish` mirrors them
    into the metrics registry under ``baseline.*`` so developed-vs-
    baseline search effort is directly comparable in one snapshot.
    """

    backtrack_limit: Optional[int]
    paths_explored: int = 0
    true_paths: int = 0
    declared_false: int = 0
    backtrack_limited: int = 0
    justification_backtracks: int = 0
    cpu_seconds: float = 0.0
    results: List[SensitizeOutcome] = field(default_factory=list)
    structural_paths: List[StructuralPath] = field(default_factory=list)

    @property
    def no_vector_ratio(self) -> float:
        """Paths for which no input vector was produced / explored
        ("False path ratio" column: declared-false plus aborted)."""
        if not self.paths_explored:
            return 0.0
        return (self.declared_false + self.backtrack_limited) / self.paths_explored

    def as_row(self) -> Dict[str, object]:
        return {
            "backtrack_limit": self.backtrack_limit,
            "paths": self.paths_explored,
            "true": self.true_paths,
            "false": self.declared_false,
            "aborted": self.backtrack_limited,
            "no_vector_ratio": round(self.no_vector_ratio, 3),
        }

    def as_dict(self) -> Dict[str, float]:
        return {
            "paths_explored": self.paths_explored,
            "true_paths": self.true_paths,
            "declared_false": self.declared_false,
            "backtrack_limited": self.backtrack_limited,
            "justification_backtracks": self.justification_backtracks,
            "cpu_seconds": self.cpu_seconds,
        }

    def publish(self, circuit: Optional[str] = None) -> None:
        registry = obs_metrics.REGISTRY
        for name, value in self.as_dict().items():
            registry.counter(f"baseline.{name}").inc(max(value, 0))
            if circuit:
                registry.counter(f"baseline.{name}", circuit=circuit).inc(
                    max(value, 0)
                )


class TwoStepSTA:
    """Two-step static timing analysis with vector-blind LUT delays.

    Parameters
    ----------
    circuit:
        Circuit to analyze.
    charlib:
        LUT library characterized with ``vector_mode="default"``.
    backtrack_limit:
        Shared sensitization budget per path (the paper sweeps 1000 to
        25000 on c6288).
    missing_arc_policy:
        What a traversal does when the library lacks its arc (see
        :data:`~repro.core.delaycalc.MISSING_ARC_POLICIES`).
    """

    def __init__(
        self,
        circuit: Circuit,
        charlib: CharacterizedLibrary,
        temp: float = 25.0,
        vdd: Optional[float] = None,
        input_slew: float = DEFAULT_INPUT_SLEW,
        backtrack_limit: Optional[int] = 1000,
        missing_arc_policy: str = "error",
    ):
        circuit.check()
        self.circuit = circuit
        self.charlib = charlib
        self.backtrack_limit = backtrack_limit
        self.ec = EngineCircuit(circuit)
        self.calc = DelayCalculator(
            self.ec,
            charlib,
            temp=temp,
            vdd=vdd,
            input_slew=input_slew,
            missing_arc_policy=missing_arc_policy,
        )
        self.enumerator = StructuralEnumerator(self.ec, self.calc)
        self.sensitizer = TwoStepSensitizer(
            self.ec, self.calc, backtrack_limit=backtrack_limit
        )

    # ------------------------------------------------------------------
    def run(self, max_structural_paths: int = 1000) -> TwoStepReport:
        """Explore the longest ``max_structural_paths`` structural paths
        (the commercial tool's path-count knob) and sensitize each."""
        report = TwoStepReport(backtrack_limit=self.backtrack_limit)
        started = time.perf_counter()
        arc_evals_before = self.calc.arc_evaluations
        structural = self.enumerator.iter_paths(limit=max_structural_paths)
        while True:
            # Pull structural candidates and sensitize them under
            # separate spans so the two-step cost split (enumerate vs.
            # check) is visible next to the developed tool's profile.
            with span("baseline.structural"):
                spath = next(structural, _END_OF_PATHS)
            if spath is _END_OF_PATHS:
                break
            with span("baseline.sensitize"):
                outcome = self.sensitizer.check(spath)
            report.paths_explored += 1
            report.justification_backtracks += outcome.backtracks
            report.results.append(outcome)
            report.structural_paths.append(spath)
            if outcome.status is PathStatus.TRUE:
                report.true_paths += 1
            elif outcome.status is PathStatus.FALSE:
                report.declared_false += 1
            else:
                report.backtrack_limited += 1
        report.cpu_seconds = time.perf_counter() - started
        name = self.circuit.name
        report.publish(name)
        registry = obs_metrics.REGISTRY
        for metric, value in (
            ("baseline.vectors_committed", self.sensitizer.vectors_committed),
            ("baseline.vectors_rejected", self.sensitizer.vectors_rejected),
        ):
            # Register even when zero so the snapshot schema is stable.
            registry.counter(metric).inc(value)
            registry.counter(metric, circuit=name).inc(value)
        self.sensitizer.vectors_committed = 0
        self.sensitizer.vectors_rejected = 0
        delta = self.calc.arc_evaluations - arc_evals_before
        registry.counter("delaycalc.arc_evaluations").inc(delta)
        registry.counter("delaycalc.arc_evaluations", circuit=name).inc(delta)
        return report

    def true_paths(self, report: TwoStepReport) -> List[TimedPath]:
        return [
            r.path for r in report.results if r.status is PathStatus.TRUE and r.path
        ]

    def worst_true_path(self, report: TwoStepReport) -> Optional[TimedPath]:
        paths = self.true_paths(report)
        if not paths:
            return None
        return max(paths, key=lambda p: p.worst_arrival)

    def structural_path_count(self) -> int:
        return self.enumerator.count_paths()

    def course_of(self, spath: StructuralPath) -> Tuple[str, ...]:
        """Net-name course of a structural path (matches
        :attr:`repro.core.path.TimedPath.course`)."""
        nets = [self.ec.net_names[spath.origin_net]]
        for gate_index, _pin in spath.hops:
            nets.append(self.ec.net_names[self.ec.gates[gate_index].output_net])
        return tuple(nets)
