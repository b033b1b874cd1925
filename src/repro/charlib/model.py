"""The delay-model protocol shared by every characterized library.

A characterized arc carries two models (delay and output slew).  The
STA engines never care which fitting family produced them -- the
polynomial SPDM (:class:`~repro.charlib.polynomial.PolynomialModel`)
and the NLDM lookup table (:class:`~repro.charlib.lut.LutModel`) are
interchangeable behind :class:`DelayModel`:

* ``evaluate(fo, t_in, temp, vdd)`` -- one point, in seconds;
* ``evaluate_many(points)`` -- a batch of ``(fo, t_in, temp, vdd)``
  rows (the bound sweeps in :mod:`repro.core.delaycalc` and the
  structure-of-arrays timing sweeps in :mod:`repro.core.tarrays`
  evaluate whole level/model groups in one call);
* ``to_dict()`` / ``from_dict`` -- JSON persistence, dispatched through
  :data:`MODEL_KINDS`.

**The batch-equivalence law.**  ``evaluate_many`` must be *row
independent* and *bitwise-equal* to the scalar evaluator:
``evaluate_many(points)[i] == evaluate(*points[i])`` exactly, for any
batch composition.  The vectorized timing core relies on it to produce
byte-identical arrivals, slews and pruning bounds whether a model is
evaluated one traversal at a time (the search hot loop, incremental
per-net repair, the reference passes in :mod:`repro.verify.metamorphic`)
or once per (level, model group).  Implementations must therefore
replay the scalar operation sequence elementwise (see
:meth:`PolynomialModel._power_ladder
<repro.charlib.polynomial.PolynomialModel._power_ladder>`) rather than
reassociating the arithmetic (e.g. a BLAS ``design @ coeffs`` product
is *not* bitwise-equal to sequential accumulation).
``tests/test_core_tarrays.py`` pins the law for both built-in
families.

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
