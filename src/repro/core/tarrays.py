"""Structure-of-arrays compilation of the timing graph.

The search hot loop walks Python objects arc by arc and calls
``model.evaluate`` once per traversal, which is fine there (it is
dominated by branching, not evaluation).  The three *sweep* passes --
the GBA forward pass, the backward required-time bound and the
achievable-slew fixed point -- evaluate every arc of the circuit over a
dense slew grid, and this module is their only implementation.

:class:`TimingArrays` compiles the levelized graph once per
calculator into flat numpy arrays indexed by *traversal record* (one
record per ``arc x sensitization option x input polarity``) and runs
the sweeps level by level with **one** ``evaluate_many`` call per
(level, model group) instead of one ``evaluate`` per record:

* ``forward_arrivals`` -- level-batched worst arrival/slew scatter-max;
* ``slew_peaks`` -- per-gate worst output slew over one sample grid,
  one batched sweep per slew model (each fixed-point round of
  :meth:`DelayCalculator.bound_slews` maximizes over it);
* ``prefill_worst_arcs`` -- fills the per-(gate, pin) worst-arc-delay
  cache with one batched sweep per delay model;
* ``backward_required_bounds`` -- level-batched reverse scatter-max.

**Byte identity.**  Results are bitwise-equal to the arc-at-a-time
reference passes in :mod:`repro.verify.metamorphic` (built on the
per-net kernels incremental repair uses), not merely close: the
per-record arithmetic (``arrival = arrival_in + delay``) replays the
scalar operation on the same IEEE doubles (the
:class:`~repro.charlib.model.DelayModel` batch-equivalence law makes
``evaluate_many`` rows bitwise-equal to ``evaluate``), and every
reduction is a plain maximum over the identical multiset of values --
``np.maximum.at`` is order-independent because ``max`` over floats is
exact.  ``tests/test_core_tarrays.py`` pins the equivalence over the
ISCAS suite, fuzz netlists and degenerate graphs for both model
families, and ``repro verify --fuzz`` re-checks it on random netlists.

Divergences that are *allowed*: evaluation/cache counters (the batched
path resolves arcs at compile time), log ordering, and which of several
missing arcs raises first under the ``error`` policy (both paths raise
:class:`~repro.core.delaycalc.MissingArcsError`, but the reference pass
discovers missing arcs in gate order while the batched pass discovers
them level by level).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.charlib.lut import LutModel
from repro.charlib.polynomial import PolynomialModel
from repro.charlib.store import BLIND, TimingArc
from repro.core.tgraph import ForwardTiming

if TYPE_CHECKING:  # import cycle: delaycalc owns the lazy TimingArrays
    from repro.charlib.model import DelayModel
    from repro.core.delaycalc import DelayCalculator


class _GenericGroup:
    """Records evaluated through one model's own batch kernel -- the
    fallback for model families without a fused cross-model kernel."""

    __slots__ = ("idx", "model")

    def __init__(self, idx: np.ndarray, model: "DelayModel"):
        self.idx = idx
        self.model = model

    def eval(self, pts: np.ndarray, sel) -> np.ndarray:
        return self.model.evaluate_many(pts)


class _PolyGroup:
    """Records of *different* polynomial models fused into one kernel.

    Models sharing an orders tuple share the scalar evaluator's exact
    term sequence, so their coefficient tensors and normalizations can
    be stacked per record and the whole group evaluated with one pass
    of the term loop -- the per-row operations (affine normalization,
    power ladder, left-associated term products, sequential term
    accumulation) are the same IEEE doubles in the same order as
    ``PolynomialModel.evaluate``, just laid out row-wise.  This is what
    keeps the level batches large: without cross-model fusion a
    cell-diverse circuit degenerates to a handful of records per
    (level, model) and the batched pass loses to the scalar one.
    """

    __slots__ = ("idx", "orders", "coeffs", "centers", "scales")

    def __init__(self, idx, orders, coeffs, centers, scales):
        self.idx = idx
        self.orders = orders
        self.coeffs = coeffs      # (n_records, *(orders + 1))
        self.centers = centers    # (n_records, 4)
        self.scales = scales      # (n_records, 4)

    def eval(self, pts: np.ndarray, sel) -> np.ndarray:
        c = self.coeffs[sel]
        x = (pts - self.centers[sel]) / self.scales[sel]
        ladder = PolynomialModel._power_ladder
        pow0 = ladder(x[:, 0], self.orders[0])
        pow1 = ladder(x[:, 1], self.orders[1])
        pow2 = ladder(x[:, 2], self.orders[2])
        pow3 = ladder(x[:, 3], self.orders[3])
        acc = np.zeros(pts.shape[0])
        for i, p0 in enumerate(pow0):
            for j, p1 in enumerate(pow1):
                for k, p2 in enumerate(pow2):
                    for l, p3 in enumerate(pow3):
                        acc += c[:, i, j, k, l] * p0 * p1 * p2 * p3
        return acc


class _LutGroup:
    """Records of different LUT models (same axes) fused into one
    bilinear kernel with per-record tables and derating constants --
    the LUT counterpart of :class:`_PolyGroup`, replaying
    ``LutModel.evaluate`` elementwise."""

    __slots__ = ("idx", "t_axis", "f_axis", "tables",
                 "ref_temp", "ref_vdd", "k_temp", "k_vdd")

    def __init__(self, idx, t_axis, f_axis, tables,
                 ref_temp, ref_vdd, k_temp, k_vdd):
        self.idx = idx
        self.t_axis = t_axis
        self.f_axis = f_axis
        self.tables = tables      # (n_records, len(t_axis), len(f_axis))
        self.ref_temp = ref_temp
        self.ref_vdd = ref_vdd
        self.k_temp = k_temp
        self.k_vdd = k_vdd

    def eval(self, pts: np.ndarray, sel) -> np.ndarray:
        tables = self.tables[sel]
        fo, t_in, temp, vdd = pts.T
        i = np.clip(np.searchsorted(self.t_axis, t_in) - 1, 0,
                    len(self.t_axis) - 2)
        j = np.clip(np.searchsorted(self.f_axis, fo) - 1, 0,
                    len(self.f_axis) - 2)
        ti0, ti1 = self.t_axis[i], self.t_axis[i + 1]
        fj0, fj1 = self.f_axis[j], self.f_axis[j + 1]
        wi = np.clip((t_in - ti0) / (ti1 - ti0), 0.0, 1.0)
        wj = np.clip((fo - fj0) / (fj1 - fj0), 0.0, 1.0)
        r = np.arange(tables.shape[0])
        base = (
            tables[r, i, j] * (1 - wi) * (1 - wj)
            + tables[r, i + 1, j] * wi * (1 - wj)
            + tables[r, i, j + 1] * (1 - wi) * wj
            + tables[r, i + 1, j + 1] * wi * wj
        )
        derate = (1.0 + self.k_temp[sel] * (temp - self.ref_temp[sel])
                  + self.k_vdd[sel] * (vdd - self.ref_vdd[sel]))
        return base * derate


def _fusion_key(model) -> Tuple:
    """Partition key: which records can share one fused kernel call."""
    if isinstance(model, PolynomialModel):
        return ("poly", model.orders)
    if isinstance(model, LutModel):
        return ("lut", model.t_in_axis.tobytes(), model.fo_axis.tobytes())
    return ("generic", id(model))


def _build_groups(pairs: List[Tuple[int, "DelayModel"]]) -> List:
    """Fused evaluation groups for (record, model) pairs, in first-seen
    key order (deterministic; the grouping cannot change results, only
    batch sizes, since max reductions are order-independent)."""
    buckets: Dict[Tuple, Tuple[List[int], List]] = {}
    order: List[Tuple] = []
    for rec, model in pairs:
        key = _fusion_key(model)
        bucket = buckets.get(key)
        if bucket is None:
            bucket = ([], [])
            buckets[key] = bucket
            order.append(key)
        bucket[0].append(rec)
        bucket[1].append(model)
    groups = []
    for key in order:
        recs, models = buckets[key]
        idx = np.asarray(recs, dtype=np.intp)
        if key[0] == "poly":
            groups.append(_PolyGroup(
                idx, key[1],
                np.stack([m.coeffs for m in models]),
                np.asarray([m.norm.centers for m in models]),
                np.asarray([m.norm.scales for m in models]),
            ))
        elif key[0] == "lut":
            first = models[0]
            groups.append(_LutGroup(
                idx, first.t_in_axis, first.fo_axis,
                np.stack([m.table for m in models]),
                np.asarray([m.ref_temp for m in models]),
                np.asarray([m.ref_vdd for m in models]),
                np.asarray([m.k_temp for m in models]),
                np.asarray([m.k_vdd for m in models]),
            ))
        else:
            groups.append(_GenericGroup(idx, models[0]))
    return groups


class _ForwardTables:
    """Flat per-record arrays of the forward traversal structure."""

    __slots__ = (
        "src", "dst", "in_pol", "out_pol", "gate",
        "delay_groups", "slew_groups", "missing_groups", "level_order",
    )

    def __init__(self):
        self.src: np.ndarray = None
        self.dst: np.ndarray = None
        self.in_pol: np.ndarray = None
        self.out_pol: np.ndarray = None
        self.gate: np.ndarray = None
        #: level -> fused evaluation groups (see :func:`_build_groups`).
        self.delay_groups: Dict[int, List] = {}
        self.slew_groups: Dict[int, List] = {}
        #: level -> record index array of unresolvable records, plus the
        #: lookup args needed to re-raise the scalar error lazily.
        self.missing_groups: Dict[int, np.ndarray] = {}
        self.level_order: List[int] = []


class TimingArrays:
    """Level-batched numpy sweeps over one calculator's timing graph.

    Compilation is lazy and piecewise: the forward tables are built on
    the first forward pass, the backward tables on the first
    required-bound pass -- a GBA-only run never pays for the backward
    compile and vice versa.  The tables describe the circuit's cells
    and fanouts at compile time: an edit drops the object
    (:meth:`DelayCalculator.invalidate_gates
    <repro.core.delaycalc.DelayCalculator.invalidate_gates>`); the
    next full sweep recompiles.
    """

    def __init__(self, calc: "DelayCalculator"):
        self.calc = calc
        self.ec = calc.ec
        self.tg = calc.ec.tgraph
        #: Equivalent fanout per gate index, shared by every sweep.
        self.fo = np.asarray(calc.fo, dtype=float)
        self._forward: Optional[_ForwardTables] = None
        #: Lookup args per record (only consulted to re-raise lazily).
        self._record_lookups: List[Tuple] = []
        self._backward: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _resolve_record(self, gate, pin: str, vector_id: str,
                        input_rising: bool, output_rising: bool):
        """Resolve one traversal's arc through the calculator's policy
        and memo, without bumping the per-traversal counters (this is
        compile time, not evaluation time)."""
        calc = self.calc
        lookup_id = BLIND if calc.vector_blind else vector_id
        key = (gate.cell.name, pin, lookup_id, input_rising, output_rising)
        arc = calc._arc_cache.get(key)
        if arc is None:
            arc = calc._lookup_arc(*key)
            calc._arc_cache[key] = arc
        return arc

    def _compile_forward(self) -> _ForwardTables:
        """One record per (fanin arc, sensitization option, input
        polarity), in the scalar pass's iteration order, grouped by
        destination level and model."""
        if self._forward is not None:
            return self._forward
        from repro.core.delaycalc import MissingArcsError

        calc = self.calc
        src: List[int] = []
        dst: List[int] = []
        in_pols: List[int] = []
        out_pols: List[int] = []
        gates: List[int] = []
        levels: List[int] = []
        lookups: List[Tuple] = []
        #: Per-record resolved arcs; None marks an unresolvable record.
        resolved: List[Optional[TimingArc]] = []

        for gate in self.ec.gates:
            out_net = gate.output_net
            level = self.tg.levels[out_net]
            for arc in self.tg.fanin[out_net]:
                for option in gate.options[arc.pin]:
                    vector = option.vector
                    for in_pol in (0, 1):
                        input_rising = in_pol == 0
                        output_rising = input_rising ^ vector.inverting
                        src.append(arc.src_net)
                        dst.append(out_net)
                        in_pols.append(in_pol)
                        out_pols.append(0 if output_rising else 1)
                        gates.append(gate.index)
                        levels.append(level)
                        lookups.append((gate, arc.pin, vector.vector_id,
                                        input_rising, output_rising))
                        try:
                            resolved.append(self._resolve_record(
                                gate, arc.pin, vector.vector_id,
                                input_rising, output_rising,
                            ))
                        except MissingArcsError:
                            # The scalar pass raises only when a
                            # *reachable* polarity traverses the record;
                            # mark it and re-raise lazily in the sweep.
                            resolved.append(None)

        fwd = _ForwardTables()
        fwd.src = np.asarray(src, dtype=np.intp)
        fwd.dst = np.asarray(dst, dtype=np.intp)
        fwd.in_pol = np.asarray(in_pols, dtype=np.intp)
        fwd.out_pol = np.asarray(out_pols, dtype=np.intp)
        fwd.gate = np.asarray(gates, dtype=np.intp)
        self._record_lookups = lookups

        by_level: Dict[int, List[int]] = {}
        for rec, level in enumerate(levels):
            by_level.setdefault(level, []).append(rec)
        fwd.level_order = sorted(by_level)
        for level, recs in by_level.items():
            missing = [r for r in recs if resolved[r] is None]
            if missing:
                fwd.missing_groups[level] = np.asarray(missing, dtype=np.intp)
            present = [r for r in recs if resolved[r] is not None]
            fwd.delay_groups[level] = _build_groups(
                [(r, resolved[r].delay_model) for r in present]
            )
            fwd.slew_groups[level] = _build_groups(
                [(r, resolved[r].slew_model) for r in present]
            )
        self._forward = fwd
        return fwd

    def _points(self, fo: np.ndarray, t_in: np.ndarray) -> np.ndarray:
        pts = np.empty((fo.shape[0], 4))
        pts[:, 0] = fo
        pts[:, 1] = t_in
        pts[:, 2] = self.calc.temp
        pts[:, 3] = self.calc.vdd
        return pts

    # ------------------------------------------------------------------
    # forward pass (GBA semantics)
    # ------------------------------------------------------------------
    def forward_arrivals(self) -> ForwardTiming:
        """Level-batched worst arrival/slew pass, bitwise-equal to
        :func:`~repro.verify.metamorphic.reference_forward` (one
        :meth:`TimingGraph.forward_update_net
        <repro.core.tgraph.TimingGraph.forward_update_net>` per driven
        net in level order).

        Correctness of the batching: a net at level ``L`` only receives
        contributions from records whose destination is that net, all
        of which sit at level ``L``, and every record's source is at a
        strictly lower level -- so after the level-``L`` scatter both
        the arrival and slew slots of every level-``L`` net are final
        before any higher level reads them.  The scatter itself is
        ``np.maximum.at`` (unbuffered), and max over an identical
        multiset of doubles is exact, so record order inside a level
        cannot change a single bit.
        """
        fwd = self._compile_forward()
        calc = self.calc
        n_nets = self.ec.num_nets
        arr = np.full((n_nets, 2), -np.inf)
        slw = np.full((n_nets, 2), -np.inf)
        reach = np.zeros((n_nets, 2), dtype=bool)
        for net in self.ec.input_ids:
            arr[net] = 0.0
            slw[net] = calc.input_slew
            reach[net] = True
        arr_flat = arr.reshape(-1)
        slw_flat = slw.reshape(-1)
        reach_flat = reach.reshape(-1)
        src, dst = fwd.src, fwd.dst
        in_pol, out_pol = fwd.in_pol, fwd.out_pol

        for level in fwd.level_order:
            if level == 0:
                continue
            missing = fwd.missing_groups.get(level)
            if missing is not None:
                active = missing[reach[src[missing], in_pol[missing]]]
                if active.size:
                    # Replay the scalar traversal of the first reachable
                    # missing record: raises the identical
                    # MissingArcsError (message and all).
                    rec = int(active[0])
                    gate, pin, vector_id, input_rising, output_rising = (
                        self._record_lookups[rec]
                    )
                    calc.arc_timing(gate, pin, vector_id, input_rising,
                                    output_rising,
                                    float(slw[src[rec], in_pol[rec]]))
            for group in fwd.delay_groups[level]:
                idx = group.idx
                mask = reach[src[idx], in_pol[idx]]
                if not mask.all():
                    if not mask.any():
                        continue
                    act, sel = idx[mask], mask
                else:
                    act, sel = idx, slice(None)
                s, p = src[act], in_pol[act]
                delay = group.eval(
                    self._points(self.fo[fwd.gate[act]], slw[s, p]), sel
                )
                flat = dst[act] * 2 + out_pol[act]
                np.maximum.at(arr_flat, flat, arr[s, p] + delay)
                reach_flat[flat] = True
            for group in fwd.slew_groups[level]:
                idx = group.idx
                mask = reach[src[idx], in_pol[idx]]
                if not mask.all():
                    if not mask.any():
                        continue
                    act, sel = idx[mask], mask
                else:
                    act, sel = idx, slice(None)
                s, p = src[act], in_pol[act]
                slew = group.eval(
                    self._points(self.fo[fwd.gate[act]], slw[s, p]), sel
                )
                np.maximum.at(slw_flat, dst[act] * 2 + out_pol[act], slew)

        arrivals = [
            [float(arr[n, p]) if reach[n, p] else None for p in (0, 1)]
            for n in range(n_nets)
        ]
        slews = [
            [float(slw[n, p]) if reach[n, p] else None for p in (0, 1)]
            for n in range(n_nets)
        ]
        return ForwardTiming(arrivals=arrivals, slews=slews)

    def slew_peaks(
        self, samples: Sequence[float],
        gate_indices: Optional[Sequence[int]] = None,
    ) -> List[float]:
        """Worst output slew *per gate* over one sample grid, batched
        per model.  Each value is the max over the gate's resolvable
        arcs of ``evaluate_many`` on the grid -- bitwise the per-arc
        sweeps of :func:`~repro.verify.metamorphic.reference_slew_peaks`.
        One fixed-point round of :meth:`DelayCalculator.bound_slews`
        maximizes over all of them; the calculator keeps them as
        per-gate peak tables, so an edit re-sweeps only its dirty
        gates (``gate_indices``)."""
        calc = self.calc
        gates = (self.ec.gates if gate_indices is None
                 else [self.ec.gates[i] for i in gate_indices])
        grid = np.asarray(samples, dtype=float)
        peaks = np.zeros(len(gates))
        fos: Dict[int, List[Tuple[int, float]]] = {}
        model_of: Dict[int, "DelayModel"] = {}
        for slot, gate in enumerate(gates):
            fo = calc.fo[gate.index]
            for arc in calc.gate_arcs(gate):
                token = id(arc.slew_model)
                model_of[token] = arc.slew_model
                fos.setdefault(token, []).append((slot, fo))
        for token, pairs in fos.items():
            sidx = np.asarray([s for s, _ in pairs], dtype=np.intp)
            fo_values = np.asarray([f for _, f in pairs], dtype=float)
            pts = self._points(
                np.repeat(fo_values, grid.size),
                np.tile(grid, fo_values.size),
            )
            vals = model_of[token].evaluate_many(pts)
            p = vals.reshape(len(pairs), grid.size).max(axis=1)
            np.maximum.at(peaks, sidx, p)
        return [float(v) for v in peaks]

    # ------------------------------------------------------------------
    # backward required-time bound
    # ------------------------------------------------------------------
    def prefill_worst_arcs(self) -> None:
        """Fill the calculator's (gate, pin) worst-arc-delay cache with
        one batched sweep per delay model.

        Per entry this computes exactly what
        :meth:`DelayCalculator.worst_arc_delay` computes lazily -- the
        maximum of each pin arc's fitted delay over the bound-slew
        grid, floored at 0.0 -- so the cached floats are bitwise-equal
        and later scalar reads (the search hot loop, the suffix bound)
        see identical values.  Entries already cached are left
        untouched.
        """
        calc = self.calc
        slews = np.asarray(calc.bound_slews(), dtype=float)
        entries: List[Tuple[int, str]] = []
        items: Dict[int, List[Tuple[int, float]]] = {}
        model_of: Dict[int, "DelayModel"] = {}
        for gate in self.ec.gates:
            fo = calc.fo[gate.index]
            for pin in gate.options:
                key = (gate.index, pin)
                if key in calc._worst_arc_cache:
                    continue
                entry = len(entries)
                entries.append(key)
                for arc in calc.pin_arcs(gate, pin):
                    token = id(arc.delay_model)
                    model_of[token] = arc.delay_model
                    items.setdefault(token, []).append((entry, fo))
        if not entries:
            return
        worst = np.zeros(len(entries))
        for token, pairs in items.items():
            eidx = np.asarray([e for e, _ in pairs], dtype=np.intp)
            fo_values = np.asarray([f for _, f in pairs], dtype=float)
            pts = self._points(
                np.repeat(fo_values, slews.size),
                np.tile(slews, fo_values.size),
            )
            vals = model_of[token].evaluate_many(pts)
            peaks = vals.reshape(len(pairs), slews.size).max(axis=1)
            np.maximum.at(worst, eidx, peaks)
        for key, value in zip(entries, worst):
            calc._worst_arc_cache[key] = float(value)

    def _compile_backward(self):
        """Arc-aligned arrays for the reverse scatter-max, grouped by
        destination-net level (descending)."""
        if self._backward is not None:
            return self._backward
        arcs = self.tg.arcs
        src = np.asarray([a.src_net for a in arcs], dtype=np.intp)
        dst = np.asarray([a.dst_net for a in arcs], dtype=np.intp)
        keys = [(a.gate_index, a.pin) for a in arcs]
        levels = np.asarray([self.tg.levels[a.dst_net] for a in arcs],
                            dtype=np.intp)
        order = sorted(set(levels.tolist()), reverse=True)
        groups = [(level, np.nonzero(levels == level)[0]) for level in order]
        self._backward = (src, dst, keys, groups)
        return self._backward

    def backward_required_bounds(self) -> List[float]:
        """Level-batched reverse pass, bitwise-equal to
        :func:`~repro.verify.metamorphic.reference_required_bounds`:
        ``bound[src] = max over outgoing arcs (worst_arc_delay +
        bound[dst])`` with the same worst-arc floats (prefilled above)
        and the same IEEE additions; max is exact, so batching cannot
        change a bit.  Arcs with destination level ``L`` are processed
        only after every arc *leaving* a level-``L`` net (their
        destinations sit strictly above ``L``), so each ``bound[dst]``
        read is final.
        """
        self.prefill_worst_arcs()
        src, dst, keys, groups = self._compile_backward()
        cache = self.calc._worst_arc_cache
        worst = np.asarray([cache[k] for k in keys], dtype=float) \
            if keys else np.zeros(0)
        bounds = np.zeros(self.ec.num_nets)
        for _, idx in groups:
            through = worst[idx] + bounds[dst[idx]]
            np.maximum.at(bounds, src[idx], through)
        return [float(b) for b in bounds]
