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

**Grid sweeps.**  The slew peaks behind that domain and the per-(gate,
pin) worst-arc delays evaluate every arc of the circuit over a whole
slew grid (about 20 slews).  One helper runs both: it evaluates each
distinct (model, fanout) pair once, stacks all pairs of a model family
into one batch (for polynomials, one numpy pass per orders tuple), and
scatter-maxes the pair peaks per slot.  The
:class:`~repro.charlib.model.DelayModel` batch-equivalence law makes
every batched row bitwise the scalar value, and ``max`` over floats is
exact, so the results are bitwise the arc-at-a-time reference passes
of :mod:`repro.verify.metamorphic`.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.charlib.fanout import output_load
from repro.charlib.model import DelayModel
from repro.charlib.store import BLIND, CharacterizedLibrary, TimingArc
from repro.core.engine import EngineCircuit, EngineGate
from repro.core.tgraph import PruneBounds
from repro.obs.logging import get_logger
from repro.obs.tracing import span
from repro.resilience.errors import ConfigError, MissingArcFailure

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


def _per_model_grid_peaks(
    models: Sequence[DelayModel], fos: Sequence[float], grid: np.ndarray,
    temp: float, vdd: float,
) -> np.ndarray:
    """``grid_peaks`` for a model family that has no stacked one: row
    ``i`` is the maximum over ``grid`` of ``models[i]`` at ``fos[i]``,
    with one ``evaluate_many`` call per distinct model over its rows."""
    by_model: Dict[int, List[int]] = {}
    for row, model in enumerate(models):
        by_model.setdefault(id(model), []).append(row)
    peaks = np.empty(len(models))
    for rows in by_model.values():
        points = np.empty((len(rows) * grid.size, 4))
        points[:, 0] = np.repeat([fos[row] for row in rows], grid.size)
        points[:, 1] = np.tile(grid, len(rows))
        points[:, 2] = temp
        points[:, 3] = vdd
        values = models[rows[0]].evaluate_many(points)
        peaks[rows] = values.reshape(len(rows), grid.size).max(axis=1)
    return peaks


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
        missing_arc_policy: str = "error",
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
        self.fo: List[float] = [self._fanout(gate) for gate in ec.gates]
        self._arc_cache: Dict[Tuple[str, str, str, bool, bool], TimingArc] = {}
        self._gate_arcs_cache: Dict[int, Tuple[TimingArc, ...]] = {}
        #: (gate index, pin) -> (resolved arcs, missing-arc descriptions).
        self._pin_arcs_cache: Dict[
            Tuple[int, str], Tuple[Tuple[TimingArc, ...], Tuple[str, ...]]
        ] = {}
        self._worst_delay_cache: Dict[int, float] = {}
        self._worst_arc_cache: Dict[Tuple[int, str], float] = {}
        self._bound_slews: Optional[Tuple[float, ...]] = None
        #: sample grid -> per-gate worst output slew over that grid
        #: (None = stale: an edit marks its gates stale in *every*
        #: cached grid, since a later fixed point may revisit a grid
        #: this one never touched; entries re-sweep lazily on read).
        self._slew_peaks: Dict[Tuple[float, ...], List[Optional[float]]] = {}
        self._remaining_bounds: Optional[List[float]] = None
        self._required_bounds: Optional[List[float]] = None
        self._prune_bounds: Optional[PruneBounds] = None
        self._warned_cells: Set[str] = set()
        #: Requested-arc key -> substituted arc (warn-substitute policy).
        self._substitute_cache: Dict[
            Tuple[str, str, str, bool, bool], TimingArc
        ] = {}

    def _nominal_vdd(self) -> float:
        from repro.tech.presets import TECHNOLOGIES

        for tech in TECHNOLOGIES.values():
            if tech.name == self.charlib.tech_name:
                return tech.vdd
        raise ValueError(
            f"cannot infer nominal VDD for technology {self.charlib.tech_name!r}; "
            "pass vdd explicitly"
        )

    def _fanout(self, gate: EngineGate) -> float:
        """Equivalent fanout of one gate: its output load over its
        cell's mean input-pin capacitance."""
        load = output_load(self.ec.circuit, gate.inst, self.charlib)
        return load / self.charlib.mean_cap(gate.cell.name)

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
        return (arc.delay_model.evaluate(fo, t_in, self.temp, self.vdd),
                arc.slew_model.evaluate(fo, t_in, self.temp, self.vdd))

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
            self._bound_slews = self.slew_fixed_point(self._worst_peak)
        return self._bound_slews

    def slew_fixed_point(
        self, worst_slew: Callable[[Tuple[float, ...]], float]
    ) -> Tuple[float, ...]:
        """The ceiling iteration behind :meth:`bound_slews`;
        ``worst_slew(samples)`` is the worst output slew any gate can
        emit over one sample grid (:meth:`bound_slews` reads it from
        the per-gate peak tables, the verify-side reference from its
        arc-at-a-time sweep)."""
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

    def _worst_peak(self, samples: Tuple[float, ...]) -> float:
        """Worst output slew any gate can emit over one sample grid,
        read from that grid's per-gate peak table: only stale entries
        re-sweep.  The max over per-gate peaks is the max over the
        identical (arc, sample) multiset a fresh sweep covers, so the
        fixed point is bitwise the one a fresh calculator derives."""
        peaks = self._slew_peaks.get(samples)
        if peaks is None:
            peaks = self.slew_peaks(samples)
            self._slew_peaks[samples] = peaks
        stale = [index for index, peak in enumerate(peaks) if peak is None]
        if stale:
            for index, peak in zip(stale, self.slew_peaks(samples, stale)):
                peaks[index] = peak
        return max(peaks, default=0.0)

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

        Read from the (gate, pin) table; a miss fills every hole of it
        with one grid sweep (:meth:`_fill_worst_arcs`), so a fresh
        calculator and an edit's invalidated entries both cost one
        batched sweep, not one per arc.
        """
        key = (gate.index, pin)
        worst = self._worst_arc_cache.get(key)
        if worst is None:
            self._fill_worst_arcs()
            worst = self._worst_arc_cache[key]
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

        Runs :meth:`TimingGraph.suffix_through_net
        <repro.core.tgraph.TimingGraph.suffix_through_net>`, the kernel
        an edit's cone repair runs, over every net in descending level
        order: every sink gate's output net sits on a higher level, so
        its bound is final before the net reads it.
        """
        if self._remaining_bounds is None:
            with span("delaycalc.remaining_bounds"):
                tg = self.ec.tgraph
                bounds = [0.0] * self.ec.num_nets
                for net in reversed(tg.topo_nets):
                    bounds[net] = tg.suffix_through_net(self, net, bounds)
                self._remaining_bounds = bounds
        return self._remaining_bounds

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
        suffix sum) -- what the pathfinder prunes with."""
        if self._prune_bounds is None:
            self._prune_bounds = PruneBounds(
                required=tuple(self.required_bounds()),
                suffix=tuple(self.remaining_bounds()),
            )
        return self._prune_bounds

    # ------------------------------------------------------------------
    # grid sweeps
    # ------------------------------------------------------------------
    def slew_peaks(
        self, samples: Sequence[float],
        gate_indices: Optional[Sequence[int]] = None,
    ) -> List[float]:
        """Worst output slew *per gate* (all gates, or ``gate_indices``)
        over one sample grid: the max over the gate's resolvable arcs
        of the slew model on the grid, floored at 0.0.  One fixed-point
        round of :meth:`bound_slews` maximizes over all of them; the
        calculator keeps them as per-gate peak tables, so an edit
        re-sweeps only its dirty gates."""
        gates = (self.ec.gates if gate_indices is None
                 else [self.ec.gates[i] for i in gate_indices])
        rows = [(slot, arc.slew_model, self.fo[gate.index])
                for slot, gate in enumerate(gates)
                for arc in self.gate_arcs(gate)]
        return self._grid_peaks(rows, samples, len(gates))

    def _fill_worst_arcs(self) -> None:
        """Fill every hole of the (gate, pin) worst-arc table: each
        entry is the max over the pin's resolvable arcs of the delay
        model on the bound-slew grid, floored at 0.0."""
        slews = self.bound_slews()
        keys: List[Tuple[int, str]] = []
        rows = []
        for gate in self.ec.gates:
            fo = self.fo[gate.index]
            for pin in gate.options:
                key = (gate.index, pin)
                if key in self._worst_arc_cache:
                    continue
                rows.extend((len(keys), arc.delay_model, fo)
                            for arc in self.pin_arcs(gate, pin))
                keys.append(key)
        self._worst_arc_cache.update(
            zip(keys, self._grid_peaks(rows, slews, len(keys))))

    def _grid_peaks(
        self, rows: Iterable[Tuple[int, DelayModel, float]],
        grid: Sequence[float], slots: int,
    ) -> List[float]:
        """Per-slot maximum, floored at 0.0, of each ``(slot, model,
        fo)`` row's model over ``grid`` at this corner.

        Each distinct ``(model, fo)`` pair is evaluated once.  A model
        family with a stacked ``grid_peaks``
        (:meth:`PolynomialModel.grid_peaks
        <repro.charlib.polynomial.PolynomialModel.grid_peaks>`) takes
        all of its pairs in one call; any other model (LUTs, custom
        kinds) gets one ``evaluate_many`` call over its pairs.  The
        pair peaks scatter-max into their slots."""
        grid = np.asarray(grid, dtype=float)
        # model id -> fo -> pair index (no key tuple per row: a large
        # circuit's rows would otherwise feed the cyclic collector).
        pair_of: Dict[int, Dict[float, int]] = {}
        models: List[DelayModel] = []
        fos: List[float] = []
        row_slots: List[int] = []
        row_pairs: List[int] = []
        for slot, model, fo in rows:
            by_fo = pair_of.get(id(model))
            if by_fo is None:
                by_fo = pair_of[id(model)] = {}
            pair = by_fo.get(fo)
            if pair is None:
                pair = by_fo[fo] = len(models)
                models.append(model)
                fos.append(fo)
            row_slots.append(slot)
            row_pairs.append(pair)
        families: Dict[type, List[int]] = {}
        for pair, model in enumerate(models):
            families.setdefault(type(model), []).append(pair)
        pair_peaks = np.empty(len(models))
        for family, pairs in families.items():
            sweep = getattr(family, "grid_peaks", _per_model_grid_peaks)
            pair_peaks[pairs] = sweep(
                [models[pair] for pair in pairs],
                [fos[pair] for pair in pairs], grid, self.temp, self.vdd)
        peaks = np.zeros(slots)
        np.maximum.at(peaks, np.array(row_slots, dtype=np.intp),
                      pair_peaks[np.array(row_pairs, dtype=np.intp)])
        return peaks.tolist()

    # ------------------------------------------------------------------
    # the edit hook (repro.core.incremental)
    # ------------------------------------------------------------------
    def invalidate_gates(self, gate_indices: Sequence[int]) -> bool:
        """Forget everything an in-place cell swap of the named gates
        stales; True when the achievable-slew domain moved.

        A swap dirties the swapped gate (new models, new ``mean_cap``
        denominator) and the drivers of its input nets (new sink pin
        caps).  In order: their equivalent fanouts are re-derived,
        their per-gate memos dropped (the cell-name-keyed
        ``_arc_cache`` survives: its entries stay right for every
        cell), and their slew peaks marked stale in every cached grid;
        the :class:`PruneBounds` snapshot is dropped.  If bound slews
        were ever computed, the fixed point is re-derived from the peak
        tables, re-sweeping only the stale entries.  When it moved,
        every fitted worst-delay sweep is stale: every worst-delay memo
        and both per-net bounds are dropped, the new grid is installed
        and True is returned.
        Otherwise the per-net bounds stay for the caller to repair in
        the dirty cone.
        """
        for index in gate_indices:
            gate = self.ec.gates[index]
            self.fo[index] = self._fanout(gate)
            self._gate_arcs_cache.pop(index, None)
            self._worst_delay_cache.pop(index, None)
            for pin in gate.options:
                self._pin_arcs_cache.pop((index, pin), None)
                self._worst_arc_cache.pop((index, pin), None)
            for peaks in self._slew_peaks.values():
                peaks[index] = None
        self._prune_bounds = None
        if self._bound_slews is None:
            return False
        slews = self.slew_fixed_point(self._worst_peak)
        if slews == self._bound_slews:
            return False
        self._worst_arc_cache.clear()
        self._worst_delay_cache.clear()
        self._required_bounds = None
        self._remaining_bounds = None
        self._bound_slews = slews
        return True
