"""The delay-model protocol shared by every characterized library.

A characterized arc carries two models (delay and output slew).  The
STA engines never care which fitting family produced them -- the
polynomial SPDM (:class:`~repro.charlib.polynomial.PolynomialModel`)
and the NLDM lookup table (:class:`~repro.charlib.lut.LutModel`) are
interchangeable behind :class:`DelayModel`:

* ``evaluate(fo, t_in, temp, vdd)`` -- one point, in seconds;
* ``evaluate_many(points)`` -- a batch of ``(fo, t_in, temp, vdd)``
  rows (the grid sweeps of
  :class:`~repro.core.delaycalc.DelayCalculator` evaluate every row of
  one model over a whole slew grid in one call, for families without
  a stacked ``grid_peaks``, below);
* ``to_dict()`` / ``from_dict`` -- JSON persistence, dispatched through
  :data:`MODEL_KINDS`.

**The batch-equivalence law.**  ``evaluate_many`` must be *row
independent* and *bitwise-equal* to the scalar evaluator:
``evaluate_many(points)[i] == evaluate(*points[i])`` exactly, for any
batch composition.  The timing core relies on it to produce
byte-identical arrivals, slews and pruning bounds whether a model is
evaluated one point at a time (the search hot loop, the per-net forward
pass and its incremental repair, the arc-at-a-time reference passes) or
in batches (the grid sweeps, and the reference forward pass in
:mod:`repro.verify.metamorphic`, which checks the per-net pass against
the batch kernel).

Both built-in families keep the law the same way: the scalar side runs
on plain Python floats, the batch side runs numpy elementwise ufuncs,
and IEEE 754 rounds each ``+ - * /`` of two doubles correctly in
either, so the two agree bit for bit as long as they perform the same
operations in the same order.  The scalar polynomial kernel is
generated from the batch loop's term sequence
(:func:`repro.charlib.polynomial._scalar_kernel`, with the
:meth:`~repro.charlib.polynomial.PolynomialModel._power_ladder` rungs);
the LUT pair shares one bracketing, weighting and bilinear expression
tree.  Reassociating either side breaks the law: Horner's rule or a
BLAS ``design @ coeffs`` product is *not* bitwise-equal to sequential
accumulation.  The timing core's identity tests
(``TestBatchEquivalenceLaw``) pin the law on every arc of the built-in
libraries, and show that it catches a reassociated kernel.

A family may also offer the optional classmethod ``grid_peaks(models,
fos, grid, temp, vdd)``, outside the protocol: row ``i`` is the
maximum over ``grid`` of ``models[i]`` at ``fos[i]``, and the law
extends to it, ``grid_peaks(...)[i] == max(models[i].evaluate(fos[i],
t, temp, vdd) for t in grid)`` exactly, for any mix of models of the
family in one call.  The calculator's grid sweeps then evaluate every
(model, fanout) pair of the family in one call instead of one
``evaluate_many`` call per model.
:class:`~repro.charlib.polynomial.PolynomialModel` has it (one pass of
its batch term loop per orders tuple, with per-row coefficients and
normalization); :class:`~repro.charlib.lut.LutModel` and custom kinds
do not, and keep the per-model path.  ``TestBatchEquivalenceLaw`` pins
it too, and shows that it catches a stacked kernel that shares one
normalization across a group or accumulates its terms in another
order.

New model families register their ``kind`` tag in :data:`MODEL_KINDS`
and automatically work everywhere: arc resolution, the arc cache, the
pruning bounds and library persistence all go through this protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class DelayModel(Protocol):
    """What the delay calculator requires of a fitted timing model."""

    def evaluate(self, fo: float, t_in: float, temp: float, vdd: float) -> float:
        """Model value (seconds) at one ``(Fo, t_in, T, VDD)`` point."""
        ...

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Model values for an ``(n, 4)`` array of points."""
        ...

    def to_dict(self) -> Dict:
        """JSON-serializable form carrying a ``kind`` tag."""
        ...


#: kind tag -> deserializer, the single dispatch point for persistence.
MODEL_KINDS: Dict[str, Callable[[Dict], DelayModel]] = {}


def register_model_kind(kind: str, loader: Callable[[Dict], DelayModel]) -> None:
    MODEL_KINDS[kind] = loader


def model_from_dict(data: Dict) -> DelayModel:
    """Reconstruct a model from its :meth:`DelayModel.to_dict` form."""
    try:
        loader = MODEL_KINDS[data["kind"]]
    except KeyError:
        raise ValueError(f"unknown model kind {data['kind']!r}") from None
    return loader(data)


def _register_builtin_kinds() -> None:
    from repro.charlib.lut import LutModel
    from repro.charlib.polynomial import PolynomialModel

    register_model_kind("polynomial", PolynomialModel.from_dict)
    register_model_kind("lut", LutModel.from_dict)


_register_builtin_kinds()
