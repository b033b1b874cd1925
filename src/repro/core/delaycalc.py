"""Vector-resolved delay accumulation along a path.

Uses the characterized polynomial arcs: delay and output slew of each
traversed gate are looked up per *(cell, pin, sensitization vector,
input edge)* at the gate's actual equivalent fanout, with the slew
propagated from the previous stage -- "the output transition time ...
is required to compute the propagation delay of the next gate within
the path".

Hot-path layout: arc *resolution* (the ``charlib.arc`` dict-chain
lookup) is memoized per *(cell, pin, vector, edges)* with hit/miss
counters, so each distinct arc is resolved once per search instead of
once per evaluation.  The N-worst pruning bound maximizes each gate's
fitted delay over the whole *achievable* slew domain: propagated slews
on degraded chains exceed any fixed pessimistic input slew, so bounding
the arc delay at a single slew point is not admissible.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.charlib.fanout import WireLoadModel, output_load
from repro.charlib.model import DelayModel
from repro.charlib.store import BLIND, CharacterizedLibrary, TimingArc
from repro.core.engine import EngineCircuit, EngineGate
from repro.core.tgraph import PruneBounds
from repro.obs.logging import get_logger
from repro.obs.tracing import span
from repro.resilience.errors import ConfigError, MissingArcFailure

if TYPE_CHECKING:  # tarrays imports from this module; keep the cycle lazy
    from repro.core.tarrays import CompiledTables, TimingArrays

_log = get_logger("repro.delaycalc")

#: Default input transition time applied at primary inputs (seconds).
DEFAULT_INPUT_SLEW = 40e-12

#: Recognized missing-arc policies: ``error`` raises
#: :class:`MissingArcsError` the moment a traversal needs an arc the
#: library cannot resolve; ``warn-substitute`` falls back to the
#: nearest characterized arc of the same cell (see
#: :meth:`DelayCalculator._substitute_arc`), logs once per arc, and
#: counts the substitution in ``delaycalc.arc_substitutions``.
MISSING_ARC_POLICIES = ("error", "warn-substitute")

#: Evaluation points per sweep when maximizing a fitted model over the
#: bounding slew domain.  The fitted surfaces are low-order in t_in, so
#: a dense linear sweep tracks the true maximum closely.
BOUND_SLEW_SAMPLES = 17

#: Fixed-point rounds allowed when raising the achievable-slew ceiling
#: above the characterization grid.
_SLEW_CEILING_ROUNDS = 6


class MissingArcsError(MissingArcFailure, LookupError):
    """A timing arc the analysis needs does not resolve in the
    characterized library (and the active policy forbids substitution).

    Subclasses both the resilience taxonomy (for CLI exit-code mapping)
    and :class:`LookupError` (the historical base, kept for callers
    that catch it as such)."""


def _model_max(model: DelayModel, fo: float, slews: Tuple[float, ...],
               temp: float, vdd: float) -> float:
    """Maximum of a fitted model over a sweep of input slews.

    Goes through the :class:`~repro.charlib.model.DelayModel` batch
    protocol, so polynomial and LUT libraries share one sweep path.
    """
    points = np.array([[fo, t_in, temp, vdd] for t_in in slews])
    return float(np.max(model.evaluate_many(points)))


class DelayCalculator:
    """Per-arc delay evaluation bound to one circuit and corner."""

    def __init__(
        self,
        ec: EngineCircuit,
        charlib: CharacterizedLibrary,
        temp: float = 25.0,
        vdd: Optional[float] = None,
        input_slew: float = DEFAULT_INPUT_SLEW,
        vector_blind: bool = False,
        wire: Optional[WireLoadModel] = None,
        missing_arc_policy: str = "error",
        compiled: Optional["CompiledTables"] = None,
    ):
        if missing_arc_policy not in MISSING_ARC_POLICIES:
            # ConfigError (EX_CONFIG) rather than a raw ValueError: a bad
            # flag value must exit through the resilience taxonomy, not
            # as an unclassified traceback.
            raise ConfigError(
                f"unknown missing-arc policy {missing_arc_policy!r}; "
                f"expected one of {MISSING_ARC_POLICIES}"
            )
        self.ec = ec
        self.charlib = charlib
        self.temp = temp
        self.vdd = vdd if vdd is not None else self._nominal_vdd()
        self.input_slew = input_slew
        self.vector_blind = vector_blind
        self.wire = wire
        self.missing_arc_policy = missing_arc_policy
        #: Model evaluations served (plain attribute -- the search loop
        #: is too hot for registry traffic; callers publish the delta
        #: to ``delaycalc.arc_evaluations`` at the end of a run).
        self.arc_evaluations: int = 0
        #: Arc resolutions served from / missed by the memo (plain
        #: attributes for the same reason; published as
        #: ``delaycalc.arc_cache_hits`` / ``..._misses`` deltas).
        self.arc_cache_hits: int = 0
        self.arc_cache_misses: int = 0
        #: Traversals served by a nearest-arc fallback under the
        #: ``warn-substitute`` policy (published as
        #: ``delaycalc.arc_substitutions`` deltas).
        self.arc_substitutions: int = 0
        #: Pre-resolved equivalent fanout per gate index.
        self.fo: List[float] = []
        circuit = ec.circuit
        for gate in ec.gates:
            load = output_load(circuit, gate.inst, charlib, wire=wire)
            self.fo.append(load / charlib.mean_cap(gate.cell.name))
        self._arc_cache: Dict[Tuple[str, str, str, bool, bool], TimingArc] = {}
        self._gate_arcs_cache: Dict[int, Tuple[TimingArc, ...]] = {}
        #: (gate index, pin) -> (resolved arcs, missing-arc descriptions).
        self._pin_arcs_cache: Dict[
            Tuple[int, str], Tuple[Tuple[TimingArc, ...], Tuple[str, ...]]
        ] = {}
        self._worst_delay_cache: Dict[int, float] = {}
        self._worst_arc_cache: Dict[Tuple[int, str], float] = {}
        self._bound_slews: Optional[Tuple[float, ...]] = None
        self._remaining_bounds: Optional[List[float]] = None
        self._required_bounds: Optional[List[float]] = None
        self._prune_bounds: Optional[PruneBounds] = None
        self._warned_cells: Set[str] = set()
        #: Requested-arc key -> substituted arc (warn-substitute policy).
        self._substitute_cache: Dict[
            Tuple[str, str, str, bool, bool], TimingArc
        ] = {}
        self._tarrays: Optional["TimingArrays"] = None
        self._worst_table_complete = False
        if compiled is not None:
            self.seed_tables(compiled)

    def _nominal_vdd(self) -> float:
        from repro.tech.presets import TECHNOLOGIES

        for tech in TECHNOLOGIES.values():
            if tech.name == self.charlib.tech_name:
                return tech.vdd
        raise ValueError(
            f"cannot infer nominal VDD for technology {self.charlib.tech_name!r}; "
            "pass vdd explicitly"
        )

    # ------------------------------------------------------------------
    def arc_timing(
        self,
        gate: EngineGate,
        pin: str,
        vector_id: str,
        input_rising: bool,
        output_rising: bool,
        t_in: float,
    ) -> Tuple[float, float]:
        """(delay, output slew) of one traversal, in seconds."""
        lookup_id = BLIND if self.vector_blind else vector_id
        self.arc_evaluations += 1
        key = (gate.cell.name, pin, lookup_id, input_rising, output_rising)
        arc = self._arc_cache.get(key)
        if arc is None:
            self.arc_cache_misses += 1
            arc = self._lookup_arc(*key)
            self._arc_cache[key] = arc
        else:
            self.arc_cache_hits += 1
        fo = self.fo[gate.index]
        delay = arc.delay(fo, t_in, self.temp, self.vdd)
        slew = arc.slew(fo, t_in, self.temp, self.vdd)
        return delay, slew

    # ------------------------------------------------------------------
    def _lookup_arc(
        self, cell: str, pin: str, vector_id: str, input_rising: bool,
        output_rising: bool,
    ) -> TimingArc:
        """Library arc lookup routed through the missing-arc policy."""
        try:
            return self.charlib.arc(
                cell, pin, vector_id, input_rising, output_rising
            )
        except KeyError:
            if self.missing_arc_policy != "warn-substitute":
                raise MissingArcsError(
                    f"no timing arc for cell {cell!r} pin {pin!r} vector "
                    f"{vector_id!r} ({'r' if input_rising else 'f'}->"
                    f"{'R' if output_rising else 'F'}) in library "
                    f"{self.charlib.library_name!r} "
                    "(missing-arc policy: error)"
                ) from None
            substitute = self._substitute_arc(
                cell, pin, vector_id, input_rising, output_rising
            )
            if substitute is None:
                raise MissingArcsError(
                    f"cell {cell!r} has no characterized arc at all in "
                    f"library {self.charlib.library_name!r}; nothing to "
                    "substitute"
                ) from None
            return substitute

    def _substitute_arc(
        self, cell: str, pin: str, vector_id: str, input_rising: bool,
        output_rising: bool,
    ) -> Optional[TimingArc]:
        """Nearest characterized arc of the same cell (warn-substitute
        policy): prefer the same pin, then the same input edge, then
        the same output edge, tie-broken on the arc key so the choice
        is deterministic across processes (serial and parallel runs
        must substitute identically).  Returns None only when the cell
        has no arcs at all.  Memoized per requested key; each distinct
        substituted resolution logs one warning and bumps
        ``arc_substitutions``.
        """
        key = (cell, pin, vector_id, input_rising, output_rising)
        cached = self._substitute_cache.get(key)
        if cached is not None:
            return cached
        best: Optional[TimingArc] = None
        best_rank: Tuple[int, str] = (-1, "")
        for arc in self.charlib.arcs():
            if arc.cell != cell:
                continue
            score = (
                (4 if arc.pin == pin else 0)
                + (2 if arc.input_rising == input_rising else 0)
                + (1 if arc.output_rising == output_rising else 0)
            )
            # Lexicographically smallest key wins among equals, so the
            # substitution is independent of library iteration order.
            if score > best_rank[0] or (
                score == best_rank[0] and arc.key < best_rank[1]
            ):
                best, best_rank = arc, (score, arc.key)
        if best is None:
            return None
        self._substitute_cache[key] = best
        self.arc_substitutions += 1
        _log.warning(
            "delaycalc.arc_substituted", cell=cell, pin=pin,
            vector=vector_id,
            edge=f"{'r' if input_rising else 'f'}"
                 f"{'R' if output_rising else 'F'}",
            substitute=best.key,
        )
        return best

    def _resolve_pin(
        self, gate: EngineGate, pin: str
    ) -> Tuple[Tuple[TimingArc, ...], Tuple[str, ...]]:
        """Resolve (and memoize) every timing arc entering through one
        pin: (resolved arcs, descriptions of the missing ones)."""
        key = (gate.index, pin)
        cached = self._pin_arcs_cache.get(key)
        if cached is not None:
            return cached
        arcs: List[TimingArc] = []
        seen: Set[str] = set()
        missing: List[str] = []
        for opt in gate.options[pin]:
            vector_id = BLIND if self.vector_blind else opt.vector.vector_id
            for input_rising in (True, False):
                try:
                    arc = self.charlib.arc(
                        gate.cell.name, pin, vector_id, input_rising,
                        input_rising ^ opt.inverting,
                    )
                except KeyError:
                    missing.append(
                        f"{pin}|{vector_id}|{'r' if input_rising else 'f'}"
                    )
                    if self.missing_arc_policy == "warn-substitute":
                        # Register the fallback arc so the pruning and
                        # GBA bounds cover what arc_timing will really
                        # evaluate for this traversal.
                        arc = self._substitute_arc(
                            gate.cell.name, pin, vector_id, input_rising,
                            input_rising ^ opt.inverting,
                        )
                        if arc is not None and arc.key not in seen:
                            seen.add(arc.key)
                            arcs.append(arc)
                    continue
                if arc.key not in seen:
                    seen.add(arc.key)
                    arcs.append(arc)
        result = (tuple(arcs), tuple(missing))
        self._pin_arcs_cache[key] = result
        return result

    def pin_arcs(self, gate: EngineGate, pin: str) -> Tuple[TimingArc, ...]:
        """Every resolvable timing arc entering one gate through one pin
        (vector x edge, deduplicated) -- the per-arc granularity the
        timing graph's backward pass bounds."""
        self.gate_arcs(gate)  # whole-gate validation + missing-arc logs
        return self._resolve_pin(gate, pin)[0]

    def gate_arcs(self, gate: EngineGate) -> Tuple[TimingArc, ...]:
        """Every resolvable timing arc of one gate (pin x vector x edge),
        deduplicated, cached per gate index.

        Missing arcs are reported through a structured log record once
        per cell -- vector-blind lookups miss arcs *by construction*
        (the blind library stores one output polarity per pin/edge), so
        those log at debug, anything else at warning.  A gate whose
        arcs are ALL missing would silently poison the pruning bound
        and the baseline's structural enumeration with a 0.0 worst
        delay, so it raises :class:`MissingArcsError` instead.
        """
        cached = self._gate_arcs_cache.get(gate.index)
        if cached is not None:
            return cached
        arcs: List[TimingArc] = []
        missing: List[str] = []
        for pin in gate.options:
            pin_resolved, pin_missing = self._resolve_pin(gate, pin)
            arcs.extend(pin_resolved)
            missing.extend(pin_missing)
        if missing and not arcs:
            _log.error(
                "gate.no_arcs", gate=gate.inst.name, cell=gate.cell.name,
                missing=len(missing), examples=missing[:4],
            )
            raise MissingArcsError(
                f"no timing arc of gate {gate.inst.name!r} "
                f"(cell {gate.cell.name!r}) resolves in library "
                f"{self.charlib.library_name!r}; missing {len(missing)} arcs "
                f"such as {missing[:4]}"
            )
        if missing and gate.cell.name not in self._warned_cells:
            self._warned_cells.add(gate.cell.name)
            report = _log.debug if self.vector_blind else _log.warning
            report(
                "gate.arcs_missing", cell=gate.cell.name, gate=gate.inst.name,
                missing=len(missing), resolved=len(arcs),
                examples=missing[:4], vector_blind=self.vector_blind,
            )
        result = tuple(arcs)
        self._gate_arcs_cache[gate.index] = result
        return result

    # ------------------------------------------------------------------
    def bound_slews(self) -> Tuple[float, ...]:
        """Sample points covering every input slew a traversal can see.

        Starts from the characterization grid's slew range (falling
        back to a span around the primary-input slew when the library
        carries no grid metadata) and raises the ceiling by fixed-point
        iteration over the library's own output-slew models until no
        gate of this circuit can emit a slower edge than the ceiling.
        Propagated slews on degraded chains are then inside the sampled
        domain, which is what makes :meth:`worst_gate_delay` an
        admissible bound.
        """
        if self._bound_slews is None:
            self._bound_slews = self.slew_fixed_point(
                lambda samples: max(self.tarrays.slew_peaks(samples),
                                    default=0.0)
            )
        return self._bound_slews

    def slew_fixed_point(
        self, worst_slew: Callable[[Tuple[float, ...]], float]
    ) -> Tuple[float, ...]:
        """The ceiling iteration behind :meth:`bound_slews`;
        ``worst_slew(samples)`` is the worst output slew any gate can
        emit over one sample grid (the incremental session reads it
        from per-gate peak tables instead of re-sweeping every gate)."""
        grid = (self.charlib.metadata or {}).get("grid", {})
        grid_slews = tuple(float(t) for t in grid.get("t_in", ()))
        ceiling = max((*grid_slews, self.input_slew, 4 * self.input_slew))
        for _ in range(_SLEW_CEILING_ROUNDS):
            worst = worst_slew(self._slew_samples(grid_slews, ceiling))
            if worst <= ceiling:
                break
            # Overshoot so the ceiling brackets the fixed point in a
            # couple of rounds instead of creeping up on it.
            ceiling = 1.05 * worst
        else:
            _log.warning("bound.slew_ceiling_unconverged",
                         circuit=self.ec.circuit.name, ceiling=ceiling)
        return self._slew_samples(grid_slews, ceiling)

    @staticmethod
    def _slew_samples(grid_slews: Tuple[float, ...],
                      ceiling: float) -> Tuple[float, ...]:
        points = {0.0, ceiling}
        points.update(t for t in grid_slews if t < ceiling)
        step = ceiling / (BOUND_SLEW_SAMPLES - 1)
        points.update(k * step for k in range(1, BOUND_SLEW_SAMPLES - 1))
        return tuple(sorted(points))

    def worst_arc_delay(self, gate: EngineGate, pin: str) -> float:
        """Upper bound on any traversal delay of one (gate, pin) arc.

        Admissible for the same reason as :meth:`worst_gate_delay` (the
        fitted delay of every arc of the pin is maximized over the
        whole achievable slew domain), but tighter: only delays the
        traversed pin can exhibit contribute, which is what makes the
        timing graph's backward required-time bound dominate the
        context-free per-gate suffix sum.
        """
        key = (gate.index, pin)
        cached = self._worst_arc_cache.get(key)
        if cached is not None:
            return cached
        worst = 0.0
        fo = self.fo[gate.index]
        slews = self.bound_slews()
        for arc in self.pin_arcs(gate, pin):
            peak = _model_max(arc.delay_model, fo, slews, self.temp, self.vdd)
            if peak > worst:
                worst = peak
        self._worst_arc_cache[key] = worst
        return worst

    def worst_gate_delay(self, gate: EngineGate) -> float:
        """Upper bound on any traversal delay of this gate (used for
        the legacy suffix-sum bound and for the baseline's structural
        enumeration ordering metric).

        Admissible: the fitted delay of every resolvable arc is
        maximized over the whole achievable slew domain
        (:meth:`bound_slews`), not at one fixed pessimistic slew --
        propagated slews on long chains exceed any fixed choice, which
        previously let the N-worst pruning discard true top-N paths.
        Equals the maximum of :meth:`worst_arc_delay` over the gate's
        pins (and shares its per-arc sweeps).
        """
        cached = self._worst_delay_cache.get(gate.index)
        if cached is not None:
            return cached
        self.gate_arcs(gate)  # raises MissingArcsError on hopeless gates
        worst = max(
            (self.worst_arc_delay(gate, pin) for pin in gate.options),
            default=0.0,
        )
        self._worst_delay_cache[gate.index] = worst
        return worst

    def remaining_bounds(self) -> List[float]:
        """Per-net upper bound on the worst delay from that net to any
        primary output (reverse-topological longest path with
        worst-case *per-gate* delays) -- the legacy context-free suffix
        sum.  Admissible but looser than :meth:`required_bounds`; kept
        as the baseline enumerator's ordering metric and as the
        dominance reference for ``pathfinder.bound_prunes``.
        """
        if self._remaining_bounds is not None:
            return self._remaining_bounds
        with span("delaycalc.remaining_bounds"):
            bounds = [0.0] * self.ec.num_nets
            for gate in reversed(self.ec.gates):
                worst = self.worst_gate_delay(gate)
                downstream = bounds[gate.output_net] + worst
                for net in gate.input_nets:
                    if downstream > bounds[net]:
                        bounds[net] = downstream
            self._remaining_bounds = bounds
            return bounds

    def required_bounds(self) -> List[float]:
        """Per-net backward required-time bound from the timing graph
        (:meth:`TimingGraph.backward_required_bounds
        <repro.core.tgraph.TimingGraph.backward_required_bounds>`):
        admissible, and dominated by :meth:`remaining_bounds` per net.
        Memoized, since the circuit and corner are fixed per instance.
        """
        if self._required_bounds is None:
            self._required_bounds = self.ec.tgraph.backward_required_bounds(self)
        return self._required_bounds

    def prune_bounds(self) -> PruneBounds:
        """Both pruning bounds (tight backward required-time + legacy
        suffix sum) as one shippable object -- what the pathfinder
        prunes with and what the parallel driver computes once in the
        parent and sends to worker shards."""
        if self._prune_bounds is None:
            self._prune_bounds = PruneBounds(
                required=tuple(self.required_bounds()),
                suffix=tuple(self.remaining_bounds()),
            )
        return self._prune_bounds

    # ------------------------------------------------------------------
    @property
    def tarrays(self) -> "TimingArrays":
        """Lazy structure-of-arrays compilation of this calculator's
        timing graph (:class:`~repro.core.tarrays.TimingArrays`)."""
        if self._tarrays is None:
            from repro.core.tarrays import TimingArrays

            self._tarrays = TimingArrays(self)
        return self._tarrays

    def ensure_worst_arc_table(self) -> None:
        """Batch-fill the whole (gate, pin) worst-arc-delay cache now.

        The pathfinder calls this when it receives shipped pruning
        bounds but no worst-arc table: its hot loop reads
        :meth:`worst_arc_delay` per traversal, and without the prefill
        each first read would fall back to a per-arc model sweep.  A
        no-op after :meth:`seed_tables`.
        """
        if not self._worst_table_complete:
            self.tarrays.prefill_worst_arcs()
            self._worst_table_complete = True

    def export_tables(self) -> "CompiledTables":
        """Corner-pure derived tables for worker shards
        (:class:`~repro.core.tarrays.CompiledTables`): the slew fixed
        point, the complete worst-arc-delay table and both pruning
        bounds.  Forces the backward pass, so the worst-arc table is
        complete."""
        from repro.core.tarrays import CompiledTables

        bounds = self.prune_bounds()
        return CompiledTables(
            bound_slews=tuple(self.bound_slews()),
            worst_arc=dict(self._worst_arc_cache),
            required=bounds.required,
            suffix=bounds.suffix,
        )

    def seed_tables(self, tables: "CompiledTables") -> None:
        """Adopt a parent calculator's :meth:`export_tables` output.

        Worker shards seed these instead of re-deriving them: the
        values are byte-identical to what this calculator would have
        computed (the sweeps are deterministic per circuit + corner),
        so seeded and self-computed runs are indistinguishable apart
        from the skipped work.
        """
        self._bound_slews = tuple(tables.bound_slews)
        self._worst_arc_cache.update(tables.worst_arc)
        self._required_bounds = list(tables.required)
        self._remaining_bounds = list(tables.suffix)
        self._prune_bounds = PruneBounds(
            required=tuple(tables.required), suffix=tuple(tables.suffix)
        )
        self._worst_table_complete = True

    # ------------------------------------------------------------------
    # incremental-edit plumbing (repro.core.incremental)
    # ------------------------------------------------------------------
    def invalidate_gates(
        self, gate_indices: Sequence[int], keep_bounds: bool = False
    ) -> None:
        """Drop every per-gate memo keyed off the named gates' arcs.

        Called after an in-place cell swap: the gates' resolved-arc
        tuples, worst-arc and worst-gate delays all read the old cell's
        models.  The cell-name-keyed ``_arc_cache`` survives (its
        entries stay correct for every cell, including the new one).
        With ``keep_bounds`` the per-net backward bounds are left for
        the caller to repair incrementally; otherwise they are dropped
        and recomputed from scratch on next access.
        """
        for index in gate_indices:
            self._gate_arcs_cache.pop(index, None)
            self._worst_delay_cache.pop(index, None)
            gate = self.ec.gates[index]
            for pin in gate.options:
                self._pin_arcs_cache.pop((index, pin), None)
                self._worst_arc_cache.pop((index, pin), None)
        self._worst_table_complete = False
        if not keep_bounds:
            self._remaining_bounds = None
            self._required_bounds = None
            self._prune_bounds = None

    def refresh_fanout(self, gate_indices: Sequence[int]) -> None:
        """Re-derive the pre-resolved equivalent fanout of the named
        gates from the circuit's current cells (a swap moves ``fo`` two
        ways: the sink pin caps of the edited gate's *drivers* change,
        and the edited gate's own ``mean_cap`` denominator changes).
        Mirrors the patched values into the compiled SoA tables when
        they exist."""
        circuit = self.ec.circuit
        for index in gate_indices:
            gate = self.ec.gates[index]
            load = output_load(circuit, gate.inst, self.charlib, wire=self.wire)
            self.fo[index] = load / self.charlib.mean_cap(gate.cell.name)
        if self._tarrays is not None:
            self._tarrays.patch_fo(gate_indices)
