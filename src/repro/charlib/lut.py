"""NLDM-style two-dimensional lookup-table model.

This is the commercial baseline's delay model: a (input slew x output
load) table per timing arc, evaluated with bilinear interpolation and
clamped extrapolation at the table edges, plus linear temperature and
supply derating factors.  Unlike the polynomial model it is
characterized for a *single* sensitization vector per pin, which is
exactly the inaccuracy the paper quantifies in Tables 7-9.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence

import numpy as np


class LutModel:
    """Bilinear-interpolated table ``value(t_in, fo)`` with derating."""

    def __init__(
        self,
        t_in_axis: Sequence[float],
        fo_axis: Sequence[float],
        table: np.ndarray,
        ref_temp: float = 25.0,
        ref_vdd: float = 1.0,
        k_temp: float = 0.0,
        k_vdd: float = 0.0,
    ):
        self.t_in_axis = np.asarray(t_in_axis, dtype=float)
        self.fo_axis = np.asarray(fo_axis, dtype=float)
        self.table = np.asarray(table, dtype=float)
        if self.table.shape != (len(self.t_in_axis), len(self.fo_axis)):
            raise ValueError("table shape does not match axes")
        if np.any(np.diff(self.t_in_axis) <= 0) or np.any(np.diff(self.fo_axis) <= 0):
            raise ValueError("axes must be strictly increasing")
        self.ref_temp = ref_temp
        self.ref_vdd = ref_vdd
        #: Relative derating per Kelvin / per Volt (commercial k-factors).
        self.k_temp = k_temp
        self.k_vdd = k_vdd
        # Plain-float copies for the scalar evaluator, taken once: a
        # model is not mutated after construction.
        self._t_axis = tuple(self.t_in_axis.tolist())
        self._f_axis = tuple(self.fo_axis.tolist())
        self._rows = tuple(tuple(row) for row in self.table.tolist())

    # ------------------------------------------------------------------
    def evaluate(self, fo: float, t_in: float, temp: float, vdd: float) -> float:
        """One point, on plain floats: ``bisect_left`` is
        ``np.searchsorted``'s default side, and the clamped weights
        keep the value inside the table's corners."""
        ts, fs = self._t_axis, self._f_axis
        i = min(max(bisect_left(ts, t_in) - 1, 0), len(ts) - 2)
        j = min(max(bisect_left(fs, fo) - 1, 0), len(fs) - 2)
        wi = min(max((t_in - ts[i]) / (ts[i + 1] - ts[i]), 0.0), 1.0)
        wj = min(max((fo - fs[j]) / (fs[j + 1] - fs[j]), 0.0), 1.0)
        lo, hi = self._rows[i], self._rows[i + 1]
        base = (
            lo[j] * (1 - wi) * (1 - wj)
            + hi[j] * wi * (1 - wj)
            + lo[j + 1] * (1 - wi) * wj
            + hi[j + 1] * wi * wj
        )
        derate = (1.0 + self.k_temp * (temp - self.ref_temp)
                  + self.k_vdd * (vdd - self.ref_vdd))
        return base * derate

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`evaluate` over ``(n, 4)`` rows of
        ``(fo, t_in, temp, vdd)`` -- same variable order as
        :meth:`PolynomialModel.evaluate_many <repro.charlib.polynomial.PolynomialModel.evaluate_many>`.

        Row ``i`` is bitwise-equal to ``evaluate(*points[i])`` (the
        :class:`~repro.charlib.model.DelayModel` batch-equivalence
        law): searchsorted bracketing, clamped weights, the bilinear
        expression tree and the derate factor are the same elementwise
        operations in the same order as the scalar path's plain-float
        ones.
        """
        points = np.asarray(points, dtype=float)
        fo, t_in, temp, vdd = points.T
        i = np.clip(np.searchsorted(self.t_in_axis, t_in) - 1, 0,
                    len(self.t_in_axis) - 2)
        j = np.clip(np.searchsorted(self.fo_axis, fo) - 1, 0,
                    len(self.fo_axis) - 2)
        ti0, ti1 = self.t_in_axis[i], self.t_in_axis[i + 1]
        fj0, fj1 = self.fo_axis[j], self.fo_axis[j + 1]
        wi = np.clip((t_in - ti0) / (ti1 - ti0), 0.0, 1.0)
        wj = np.clip((fo - fj0) / (fj1 - fj0), 0.0, 1.0)
        t = self.table
        base = (
            t[i, j] * (1 - wi) * (1 - wj)
            + t[i + 1, j] * wi * (1 - wj)
            + t[i, j + 1] * (1 - wi) * wj
            + t[i + 1, j + 1] * wi * wj
        )
        derate = (1.0 + self.k_temp * (temp - self.ref_temp)
                  + self.k_vdd * (vdd - self.ref_vdd))
        return base * derate

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "kind": "lut",
            "t_in_axis": self.t_in_axis.tolist(),
            "fo_axis": self.fo_axis.tolist(),
            "table": self.table.tolist(),
            "ref_temp": self.ref_temp,
            "ref_vdd": self.ref_vdd,
            "k_temp": self.k_temp,
            "k_vdd": self.k_vdd,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LutModel":
        return cls(
            data["t_in_axis"],
            data["fo_axis"],
            np.asarray(data["table"], dtype=float),
            ref_temp=data["ref_temp"],
            ref_vdd=data["ref_vdd"],
            k_temp=data["k_temp"],
            k_vdd=data["k_vdd"],
        )

    @classmethod
    def from_samples(
        cls,
        samples: List[Dict],
        t_in_axis: Sequence[float],
        fo_axis: Sequence[float],
        value_key: str,
        ref_temp: float,
        ref_vdd: float,
    ) -> "LutModel":
        """Assemble a table from nominal-corner characterization samples.

        Samples must cover the full (t_in x fo) factorial at the
        reference temperature and supply.
        """
        table = np.full((len(t_in_axis), len(fo_axis)), np.nan)
        for s in samples:
            if abs(s["temp"] - ref_temp) > 1e-9 or abs(s["vdd"] - ref_vdd) > 1e-12:
                continue
            try:
                i = list(t_in_axis).index(s["t_in"])
                j = list(fo_axis).index(s["fo"])
            except ValueError:
                continue
            table[i, j] = s[value_key]
        if np.any(np.isnan(table)):
            raise ValueError("incomplete factorial for LUT construction")
        return cls(t_in_axis, fo_axis, table, ref_temp=ref_temp, ref_vdd=ref_vdd)

    def __repr__(self) -> str:
        return f"LutModel({len(self.t_in_axis)}x{len(self.fo_axis)})"
