"""Shared request-execution layer behind the CLI and the service.

The byte-identity contract of ``repro serve`` -- a served report equals
the one-shot CLI's output for the same configuration, byte for byte --
is enforced structurally: both front ends call the same
:func:`execute_analysis` / :func:`execute_verify` / :func:`execute_size`
functions here, which build the *complete* stdout text (report, degraded
completeness block, slack table) instead of printing as they go.  The
CLI prints the returned string; the server ships it in a result frame.

The expensive inputs of a request -- the parsed/indexed circuit, the
characterized library, the :class:`~repro.core.sta.TruePathSTA` session
with its compiled SoA tables -- are bundled into an
:class:`AnalysisContext`, built once per *context fingerprint* and held
hot by the server's LRU cache (:mod:`repro.service.cache`).  A request
names everything that affects its results; the context key is the
subset that selects the heavy state.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.charlib.characterize import (
    CharacterizationGrid,
    FAST_GRID,
    characterize_library,
)
from repro.charlib.store import CharacterizedLibrary
from repro.core.report import format_slack_report, slack_report
from repro.gates.library import default_library
from repro.netlist.bench import parse_bench
from repro.netlist.circuit import Circuit
from repro.netlist.techmap import techmap
from repro.netlist.verilog import parse_verilog
from repro.resilience.budgets import CompletenessReport, SearchBudgets
from repro.resilience.errors import ConfigError
from repro.service.protocol import BadRequest
from repro.tech.presets import TECHNOLOGIES

_log = obs.get_logger("repro.service")

#: In-process characterization memo: repeat invocations (or several
#: requests against one server) skip even the JSON load of the on-disk
#: cache.  Keyed on everything that selects a library.
_CharlibKey = Tuple[str, str, CharacterizationGrid, str, str]
_CHARLIB_MEMO: Dict[_CharlibKey, CharacterizedLibrary] = {}


def load_circuit(path: str, map_to_complex: bool = True) -> Circuit:
    """Load a ``.bench`` or ``.v`` netlist, or build an evaluation-suite
    circuit from an ``iscas:<name>[@scale]`` spec (e.g. ``iscas:c432``,
    ``iscas:c6288@0.25``)."""
    if path.startswith("iscas:"):
        from repro.eval.iscas import build_circuit

        spec = path[len("iscas:"):]
        name, _, scale = spec.partition("@")
        return build_circuit(name, scale=float(scale) if scale else 1.0)
    file_path = Path(path)
    text = file_path.read_text()
    if file_path.suffix == ".v":
        return parse_verilog(text)
    circuit = parse_bench(text, name=file_path.stem)
    return techmap(circuit) if map_to_complex else circuit


def cached_charlib(
    library,
    tech,
    grid: CharacterizationGrid = FAST_GRID,
    model: str = "polynomial",
    vector_mode: str = "all",
) -> CharacterizedLibrary:
    """Memoized :func:`characterize_library` for driver invocations."""
    key = (library.name, tech.name, grid, model, vector_mode)
    cached = _CHARLIB_MEMO.get(key)
    if cached is not None:
        obs.counter("cli.charlib_memo_hits").inc()
        _log.info("charlib_memo.hit", library=library.name, tech=tech.name,
                  model=model, vector_mode=vector_mode)
        return cached
    obs.counter("cli.charlib_memo_misses").inc()
    _log.info("charlib_memo.miss", library=library.name, tech=tech.name,
              model=model, vector_mode=vector_mode)
    charlib = characterize_library(
        library, tech, grid=grid, model=model, vector_mode=vector_mode
    )
    _CHARLIB_MEMO[key] = charlib
    return charlib


# ---------------------------------------------------------------------------
# Request description


@dataclass(frozen=True)
class AnalysisRequest:
    """Everything that selects an ``analyze`` run's results.

    Field names and defaults mirror the ``repro analyze`` flags; the
    service's ``analyze`` op accepts the same names as JSON params.
    """

    netlist: str
    tech: str = "90nm"
    tool: str = "developed"
    top: int = 10
    n_worst: Optional[int] = None
    compare: bool = False
    max_paths: Optional[int] = 20000
    backtrack_limit: int = 1000
    required_ps: Optional[float] = None
    no_map: bool = False
    jobs: int = 1
    missing_arc_policy: str = "error"
    wall_budget: Optional[float] = None
    extension_budget: Optional[int] = None
    backtrack_budget: Optional[int] = None
    shard_timeout: Optional[float] = None
    shard_retries: int = 2
    checkpoint: Optional[str] = None
    resume: Optional[str] = None
    progress: bool = False
    heartbeat_timeout: Optional[float] = None
    #: Service-only knob (no CLI flag): disable the supervisor's
    #: in-process serial fallback, so exhausted shards degrade to
    #: ``failed`` origins with GBA bounds instead of completing.
    serial_fallback: bool = True

    @classmethod
    def from_params(cls, params: Dict[str, Any]) -> "AnalysisRequest":
        """Build from JSON params, rejecting unknown fields (a typo'd
        field silently ignored would break the byte-identity promise)."""
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = sorted(set(params) - known)
        if unknown:
            raise BadRequest(
                f"unknown analyze params: {', '.join(unknown)}")
        if "netlist" not in params:
            raise BadRequest("analyze requires a 'netlist' param")
        try:
            return cls(**params)
        except TypeError as exc:
            raise BadRequest(f"bad analyze params: {exc}")

    def context_key(self) -> Tuple:
        """The subset of fields selecting the heavy cached state
        (circuit + characterized library + compiled analysis session)."""
        return ("analyze", self.netlist, self.no_map, self.tech, self.tool,
                self.missing_arc_policy)

    def fingerprint(self) -> str:
        """Stable digest of the *full* request -- the result-memo key."""
        body = json.dumps(asdict(self), sort_keys=True)
        return hashlib.blake2b(body.encode(), digest_size=16).hexdigest()

    def deterministic(self) -> bool:
        """Whether an identical request must produce identical output
        (no wall-clock budget, no external checkpoint state) -- the
        precondition for memoizing its rendered result."""
        return (self.wall_budget is None
                and self.checkpoint is None
                and self.resume is None)

    def budgets(self) -> Optional[SearchBudgets]:
        budgets = SearchBudgets(
            wall_seconds=self.wall_budget,
            max_extensions=self.extension_budget,
            max_backtracks=self.backtrack_budget,
        )
        return budgets if budgets.bounded() else None

    def wants_supervision(self) -> bool:
        """Whether any resilience feature was requested -- the plain
        serial search stays on its historical in-process path
        otherwise."""
        return (self.budgets() is not None
                or self.jobs > 1
                or self.checkpoint is not None
                or self.resume is not None
                or self.shard_timeout is not None
                or self.heartbeat_timeout is not None
                or self.progress
                or not self.serial_fallback
                or self.missing_arc_policy != "error")


# ---------------------------------------------------------------------------
# Hot context


@dataclass
class AnalysisContext:
    """The expensive, reusable state behind one context key.

    ``lock`` serializes requests sharing one context: the underlying
    :class:`TruePathSTA`/:class:`DelayCalculator` session is not
    thread-safe, and serializing per context (not globally) still lets
    requests for *different* configurations run concurrently.
    """

    circuit: Circuit
    charlib: CharacterizedLibrary
    sta: Any = None          # TruePathSTA for the developed tool
    gba_result: Any = None   # memoized GraphSTA run for the gba tool
    lock: threading.Lock = field(default_factory=threading.Lock)


def build_context(request: AnalysisRequest) -> AnalysisContext:
    """Pay the startup cost once: parse/index the circuit, characterize
    (or load) the library, and compile the analysis session."""
    with obs.span("service.context_build"):
        circuit = load_circuit(request.netlist,
                               map_to_complex=not request.no_map)
        tech = TECHNOLOGIES[request.tech]
        library = default_library()
        if request.tool == "baseline":
            charlib = cached_charlib(library, tech, model="lut",
                                     vector_mode="default")
            return AnalysisContext(circuit=circuit, charlib=charlib)
        charlib = cached_charlib(library, tech)
        context = AnalysisContext(circuit=circuit, charlib=charlib)
        if request.tool == "developed":
            from repro.core.sta import TruePathSTA

            context.sta = TruePathSTA(
                circuit, charlib,
                missing_arc_policy=request.missing_arc_policy,
            )
        return context


# ---------------------------------------------------------------------------
# Execution


@dataclass
class AnalysisOutcome:
    """Everything ``analyze`` produces: the full stdout text plus the
    structured pieces the service ships alongside it."""

    report: str
    paths: List[Any] = field(default_factory=list)
    degraded: bool = False
    completeness: Optional[CompletenessReport] = None


def execute_analysis(
    request: AnalysisRequest,
    context: Optional[AnalysisContext] = None,
    fault_plan: object = None,
) -> AnalysisOutcome:
    """Run one ``analyze`` request and render its complete report text.

    ``context`` supplies pre-built hot state (server path); ``None``
    builds it inline (one-shot CLI path).  Either way the text is
    produced by the same code, so a served result is byte-identical to
    the CLI's stdout for the same configuration.
    """
    if request.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {request.jobs}")
    if request.tool not in ("developed", "gba", "baseline"):
        raise ConfigError(
            f"unknown tool {request.tool!r}; have developed, gba, baseline")
    if context is None:
        context = build_context(request)
    circuit, charlib = context.circuit, context.charlib
    lines: List[str] = []
    outcome = AnalysisOutcome(report="")

    if request.tool == "developed":
        sta = context.sta
        if sta is None:
            from repro.core.sta import TruePathSTA

            sta = TruePathSTA(circuit, charlib,
                              missing_arc_policy=request.missing_arc_policy)
            context.sta = sta
        budgets = request.budgets()
        if request.wants_supervision() or fault_plan is not None:
            analysis = sta.analyze(
                jobs=request.jobs,
                budgets=budgets,
                max_paths=request.max_paths,
                n_worst=request.n_worst,
                shard_timeout=request.shard_timeout,
                shard_retries=request.shard_retries,
                checkpoint=request.checkpoint,
                resume=request.resume,
                progress=request.progress,
                heartbeat_timeout=request.heartbeat_timeout,
                serial_fallback=request.serial_fallback,
                fault_plan=fault_plan,
            )
            paths = analysis.paths
            if request.n_worst is not None:
                paths = sorted(paths, key=lambda p: p.worst_arrival,
                               reverse=True)[:request.n_worst]
            lines.append(sta.report(paths, limit=request.top))
            if analysis.degraded:
                lines.append("")
                lines.append(analysis.describe_completeness())
                lines.append("(GBA bound = sound upper limit on any arrival "
                             "the budgeted search did not reach)")
            outcome.degraded = analysis.degraded
            outcome.completeness = analysis.completeness
        elif request.n_worst is not None:
            paths = sta.n_worst_paths(
                request.n_worst, max_paths=request.max_paths,
                jobs=request.jobs,
            )
            lines.append(sta.report(paths, limit=request.top))
        else:
            paths = sta.enumerate_paths(
                max_paths=request.max_paths, jobs=request.jobs
            )
            lines.append(sta.report(paths, limit=request.top))
    elif request.tool == "gba":
        from repro.core.graphsta import GraphSTA, gba_pessimism
        from repro.core.sta import TruePathSTA

        gba = context.gba_result
        if gba is None:
            gba = GraphSTA(circuit, charlib).run()
            context.gba_result = gba
        lines.append(f"GBA endpoint arrivals for {circuit.name} "
                     f"({charlib.tech_name}, one topological pass)")
        for endpoint in circuit.outputs:
            rise, fall = gba.arrivals.get(endpoint, (None, None))
            cells = " ".join(
                f"{pol}={arr * 1e12:8.1f} ps" if arr is not None
                else f"{pol}=    n/a"
                for pol, arr in (("rise", rise), ("fall", fall))
            )
            lines.append(f"  {endpoint:<12s} {cells}")
        paths = []
        if request.compare:
            sta = TruePathSTA(circuit, charlib)
            paths = sta.enumerate_paths(max_paths=request.max_paths,
                                        jobs=request.jobs)
            comparison = gba_pessimism(gba, paths)
            lines.append("")
            lines.append(f"gba_pessimism vs {len(paths)} true paths "
                         "(GBA/true - 1; >= 0 up to model noise):")
            for endpoint, row in sorted(comparison.items()):
                lines.append(
                    f"  {endpoint:<12s} gba={row['gba'] * 1e12:8.1f} ps  "
                    f"true={row['true'] * 1e12:8.1f} ps  "
                    f"pessimism={row['pessimism'] * 100:+6.2f}%")
    else:
        from repro.baseline.sta2step import TwoStepSTA

        tool = TwoStepSTA(circuit, charlib,
                          backtrack_limit=request.backtrack_limit)
        report = tool.run(max_structural_paths=request.max_paths or 1000)
        paths = tool.true_paths(report)
        lines.append(f"two-step baseline: {report.as_row()}")
        for k, p in enumerate(
            sorted(paths, key=lambda q: -q.worst_arrival)[: request.top], 1
        ):
            lines.append(
                f"{k:3d}. {p.worst_arrival * 1e12:8.1f} ps  {p.describe()}")

    if request.required_ps is not None:
        entries = slack_report(paths, request.required_ps * 1e-12)
        lines.append("")
        lines.append(format_slack_report(entries[: request.top]))
    outcome.report = "\n".join(lines)
    outcome.paths = paths
    return outcome


# ---------------------------------------------------------------------------
# verify / size ops


@dataclass
class VerifyOutcome:
    report: str
    ok: bool


def execute_verify(
    circuits: List[str],
    oracle: bool = False,
    metamorphic: bool = False,
    max_inputs: int = 18,
    jobs: int = 1,
    tech: str = "90nm",
) -> VerifyOutcome:
    """The oracle/metamorphic slice of ``repro verify``, rendered to the
    same text the CLI prints (fuzz and fault batteries stay CLI-only:
    they spawn pools and temp state that don't belong in a request)."""
    library = default_library()
    charlib = cached_charlib(library, TECHNOLOGIES[tech])
    lines: List[str] = []
    failed = False
    for spec in circuits:
        circuit = load_circuit(spec)
        if oracle:
            from repro.verify import run_oracle

            report = run_oracle(circuit, charlib, max_inputs=max_inputs)
            lines.append(report.summary())
            for mismatch in report.mismatches:
                lines.append(f"  {mismatch.describe()}")
            failed = failed or not report.ok
        if metamorphic:
            from repro.verify import run_metamorphic

            results = run_metamorphic(circuit, charlib, jobs=jobs)
            lines.append(f"metamorphic {circuit.name}:")
            for result in results:
                lines.append(f"  {result.describe()}")
            failed = failed or any(not r.ok for r in results)
    return VerifyOutcome(report="\n".join(lines), ok=not failed)


@dataclass
class SizeOutcome:
    report: str
    payload: Dict[str, Any]


def execute_size(
    netlist: str,
    required_ps: float,
    tech: str = "90nm",
    strategy: str = "greedy",
    seed: int = 0,
    max_moves: int = 20,
    variant_suffix: str = "_X2",
    max_paths: int = 5000,
    no_map: bool = False,
    scratch: bool = False,
    wall_budget: Optional[float] = None,
    extension_budget: Optional[int] = None,
    backtrack_budget: Optional[int] = None,
) -> SizeOutcome:
    """One ``repro size`` run.  Sizing *mutates* its circuit, so this
    always builds fresh state -- the hot cache only amortizes the
    characterized sized library (via the charlib disk cache/memo)."""
    from repro.gates.library import sized_library
    from repro.opt.sizer import TimingDrivenSizer

    circuit = load_circuit(netlist, map_to_complex=not no_map)
    tech_obj = TECHNOLOGIES[tech]
    library = sized_library()
    circuit.library = library
    used = sorted({inst.cell.name for inst in circuit.instances.values()})
    cells = set(used)
    for name in used:
        variant = f"{name}{variant_suffix}"
        if variant in library:
            cells.add(variant)
        if name.endswith(variant_suffix):
            base = name[: -len(variant_suffix)]
            if base in library:
                cells.add(base)
    charlib = characterize_library(
        library, tech_obj, grid=FAST_GRID, cells=sorted(cells)
    )
    budgets = SearchBudgets(
        wall_seconds=wall_budget,
        max_extensions=extension_budget,
        max_backtracks=backtrack_budget,
    )
    sizer = TimingDrivenSizer(
        circuit, charlib, required_ps * 1e-12,
        strategy=strategy,
        seed=seed,
        max_moves=max_moves,
        variant_suffix=variant_suffix,
        max_paths=max_paths,
        budgets=budgets if budgets.bounded() else None,
        scratch=scratch,
    )
    result = sizer.run()
    payload = {
        "circuit": circuit.name,
        "strategy": result.strategy,
        "stop_reason": result.stop_reason,
        "met": result.met,
        "required_ps": result.required_time * 1e12,
        "initial_ps": result.initial_arrival * 1e12,
        "final_ps": result.final_arrival * 1e12,
        "moves": [
            {
                "gate": m.gate_name,
                "from": m.from_cell,
                "to": m.to_cell,
                "before_ps": m.arrival_before * 1e12,
                "after_ps": m.arrival_after * 1e12,
                "accepted": m.accepted,
            }
            for m in result.moves
        ],
    }
    return SizeOutcome(report=result.describe(), payload=payload)
