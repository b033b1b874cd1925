"""Structure-of-arrays sweeps over the achievable-slew grid.

The forward worst-arrival pass evaluates each traversal once, at the
slew it actually sees, and runs on the per-net plain-float kernel
(:meth:`TimingGraph.forward_arrivals
<repro.core.tgraph.TimingGraph.forward_arrivals>`).  The sweeps here
are different: they evaluate every arc of the circuit over the whole
bound-slew grid (about 20 slews), so one ``evaluate_many`` call per
model does the work of a grid's worth of scalar calls.
:class:`TimingArrays` runs them:

* ``slew_peaks`` -- per-gate worst output slew over one sample grid,
  one batched sweep per slew model (each fixed-point round of
  :meth:`DelayCalculator.bound_slews` maximizes over it);
* ``prefill_worst_arcs`` -- fills the per-(gate, pin) worst-arc-delay
  cache with one batched sweep per delay model;
* ``backward_required_bounds`` -- level-batched reverse scatter-max
  over arc-aligned index arrays.

**Byte identity.**  Results are bitwise-equal to the arc-at-a-time
reference passes in :mod:`repro.verify.metamorphic`, not merely close:
the :class:`~repro.charlib.model.DelayModel` batch-equivalence law
makes every ``evaluate_many`` row bitwise-equal to ``evaluate``, the
per-arc arithmetic (``worst + bound[dst]``) is the same IEEE addition,
and every reduction is a plain maximum over the identical multiset of
values -- ``np.maximum.at`` is order-independent because ``max`` over
floats is exact.  ``tests/test_core_tarrays.py`` pins the equivalence
over the ISCAS suite, fuzz netlists and degenerate graphs for both
model families, and ``repro verify --fuzz`` re-checks it on random
netlists.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # import cycle: delaycalc owns the lazy TimingArrays
    from repro.charlib.model import DelayModel
    from repro.core.delaycalc import DelayCalculator


class TimingArrays:
    """Grid-batched numpy sweeps over one calculator's timing graph.

    The backward index arrays are compiled on the first required-bound
    pass.  They describe only the graph's topology, which a
    pin-compatible cell swap keeps, so the object survives edits: the
    sweeps read fanouts, arcs and worst-arc delays from the calculator,
    whose edit hook (:meth:`DelayCalculator.invalidate_gates
    <repro.core.delaycalc.DelayCalculator.invalidate_gates>`) forgets
    the stale ones.
    """

    def __init__(self, calc: "DelayCalculator"):
        # The calculator owns this object (``calc.tarrays``); a weak
        # back-reference keeps the pair out of a reference cycle, so a
        # finished session is freed when its last reference goes.
        self._calc = weakref.ref(calc)
        self.ec = calc.ec
        self.tg = calc.ec.tgraph
        self._backward: Optional[Tuple] = None

    @property
    def calc(self) -> "DelayCalculator":
        return self._calc()

    def __getstate__(self):
        # A pickled session (the spawn pool's) carries its owner as a
        # plain reference, which pickle's memo resolves to the same
        # calculator on load.
        return {**self.__dict__, "_calc": self.calc}

    def __setstate__(self, state):
        self.__dict__.update(state, _calc=weakref.ref(state["_calc"]))

    def _points(self, fo: np.ndarray, t_in: np.ndarray) -> np.ndarray:
        pts = np.empty((fo.shape[0], 4))
        pts[:, 0] = fo
        pts[:, 1] = t_in
        pts[:, 2] = self.calc.temp
        pts[:, 3] = self.calc.vdd
        return pts

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
