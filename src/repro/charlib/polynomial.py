"""The analytical polynomial delay model (paper equation (3)).

.. math::

    f(Fo, t_{in}, T, V_{DD}) =
        \\sum_{i=0}^{m}\\sum_{j=0}^{n}\\sum_{k=0}^{o}\\sum_{l=0}^{p}
        P_{ijkl} \\; Fo^i \\; t_{in}^j \\; T^k \\; V_{DD}^l

Variables are affinely normalized before fitting (``t_in`` is ~1e-11 s;
raw powers would make the normal equations hopelessly ill-conditioned).
The normalization is an internal representation detail: evaluation takes
physical units and the model still is a polynomial of exactly the
declared orders in the physical variables.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: Variable order in every sample tuple: (Fo, t_in, T, VDD).
VARIABLES = ("fo", "t_in", "temp", "vdd")

#: Rows x slews per pass of :meth:`PolynomialModel.grid_peaks`: its
#: term loop keeps about five (rows, grid) arrays alive, and this caps
#: each at 64 KB, so a large circuit's sweep (thousands of rows) does
#: not raise peak memory while a small one still runs in one pass.
_STACKED_POINTS = 8192


@dataclass(frozen=True)
class Normalization:
    """Affine map ``x -> (x - center) / scale`` per variable."""

    centers: Tuple[float, float, float, float]
    scales: Tuple[float, float, float, float]

    @classmethod
    def from_points(cls, points: np.ndarray) -> "Normalization":
        centers = points.mean(axis=0)
        spans = points.max(axis=0) - points.min(axis=0)
        scales = np.where(spans > 0, spans / 2.0, np.maximum(np.abs(centers), 1.0))
        return cls(tuple(float(c) for c in centers), tuple(float(s) for s in scales))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return (points - np.asarray(self.centers)) / np.asarray(self.scales)


@functools.cache
def _scalar_kernel(orders: Tuple[int, int, int, int]) -> Callable[..., float]:
    """Compile the plain-float evaluator shared by every model of one
    orders tuple: ``kernel(fo, t_in, temp, vdd, c, centers, scales)``,
    with ``c`` the coefficients flattened in C order.

    The generated straight-line code replays the batch term loop
    (:meth:`PolynomialModel._term_sum`) on Python floats: the affine
    normalization, the :meth:`~PolynomialModel._power_ladder` rungs, the
    left-to-right term products ``c * p0 * p1 * p2 * p3`` and the
    accumulation from ``0.0`` in C order.  Both leave out the ladder's
    rung 0: multiplying by exactly ``1.0`` changes no bit, so a term
    keeps just its nonzero powers and a zero-order variable is never
    normalized.  For orders ``(1, 2, 0, 0)`` the body reads::

        c0, c1, c2, c3, c4, c5, = c
        x0_1 = (fo - centers[0]) / scales[0]
        x1_1 = (t_in - centers[1]) / scales[1]
        x1_2 = x1_1 * x1_1
        acc = 0.0
        acc += c0
        acc += c1 * x1_1
        ...
        acc += c5 * x0_1 * x1_2
        return acc
    """
    terms = list(itertools.product(*(range(o + 1) for o in orders)))
    body = [", ".join(f"c{n}" for n in range(len(terms))) + ", = c"]
    for v, name in enumerate(("fo", "t_in", "temp", "vdd")):
        if orders[v]:
            body.append(f"x{v}_1 = ({name} - centers[{v}]) / scales[{v}]")
        for p in range(2, orders[v] + 1):
            body.append(f"x{v}_{p} = x{v}_{p - 1} * x{v}_1")
    body.append("acc = 0.0")
    for n, term in enumerate(terms):
        powers = [f"x{v}_{p}" for v, p in enumerate(term) if p]
        body.append("acc += " + " * ".join([f"c{n}"] + powers))
    body.append("return acc")
    source = "def kernel(fo, t_in, temp, vdd, c, centers, scales):\n" + "".join(
        f"    {line}\n" for line in body)
    namespace: Dict = {}
    exec(compile(source, f"<polynomial kernel {orders}>", "exec"), namespace)
    return namespace["kernel"]


class PolynomialModel:
    """A fitted polynomial ``f(Fo, t_in, T, VDD)`` returning seconds."""

    def __init__(
        self,
        orders: Tuple[int, int, int, int],
        coeffs: np.ndarray,
        norm: Normalization,
    ):
        self.orders = tuple(orders)
        self.coeffs = coeffs
        self.norm = norm
        self._kernel = _scalar_kernel(self.orders)

    @property
    def coeffs(self) -> np.ndarray:
        """Coefficient tensor ``P[i, j, k, l]`` of shape ``orders + 1``."""
        return self._coeffs

    @coeffs.setter
    def coeffs(self, value: np.ndarray) -> None:
        # Every assignment re-flattens the scalar kernel's coefficients,
        # ``model.coeffs *= k`` included (it assigns the scaled array
        # back), so evaluate() always reads the tensor evaluate_many()
        # reads.  An element write into the array must likewise be
        # assigned back.
        value = np.asarray(value, dtype=float)
        expected = tuple(o + 1 for o in self.orders)
        if value.shape != expected:
            raise ValueError(f"coeff shape {value.shape} != orders+1 {expected}")
        self._coeffs = value
        self._flat = tuple(value.reshape(-1).tolist())

    def __reduce__(self):
        # Pickle and deepcopy rebuild the compiled kernel from the orders.
        return (type(self), (self.orders, self._coeffs, self.norm))

    # ------------------------------------------------------------------
    @staticmethod
    def design_matrix(points: np.ndarray, orders: Sequence[int]) -> np.ndarray:
        """Rows of monomials ``x0^i * x1^j * x2^k * x3^l`` for each point."""
        n_pts = points.shape[0]
        powers = []
        for v, order in enumerate(orders):
            col = points[:, v]
            powers.append(np.vander(col, order + 1, increasing=True))
        cols = []
        for i in range(orders[0] + 1):
            for j in range(orders[1] + 1):
                for k in range(orders[2] + 1):
                    for l in range(orders[3] + 1):
                        cols.append(
                            powers[0][:, i]
                            * powers[1][:, j]
                            * powers[2][:, k]
                            * powers[3][:, l]
                        )
        return np.column_stack(cols) if cols else np.ones((n_pts, 1))

    @classmethod
    def fit(
        cls,
        points: np.ndarray,
        values: np.ndarray,
        orders: Tuple[int, int, int, int],
        norm: Normalization = None,
    ) -> "PolynomialModel":
        """Least-squares fit on (n_pts, 4) sample points."""
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if norm is None:
            norm = Normalization.from_points(points)
        design = cls.design_matrix(norm.apply(points), orders)
        solution, *_ = np.linalg.lstsq(design, values, rcond=None)
        shape = tuple(o + 1 for o in orders)
        return cls(orders, solution.reshape(shape), norm)

    # ------------------------------------------------------------------
    @staticmethod
    def _power_ladder(x, order: int) -> List:
        """``[1.0, x, x*x, ...]`` by repeated multiplication, on an
        array of normalized points (the batch term loop,
        :meth:`_term_sum`).

        The scalar kernel (:func:`_scalar_kernel`) builds the same rungs
        on plain floats.  Repeated IEEE multiplication is one correctly
        rounded operation per rung either way, which is what makes
        ``evaluate_many(batch)[i]`` bitwise-equal to
        ``evaluate(*batch[i])``; ``x ** n`` would not be, because the
        scalar and array integer powers run different pow routines
        that can disagree in the last ulp.
        """
        powers = [1.0]
        for _ in range(order):
            powers.append(powers[-1] * x)
        return powers

    def evaluate(self, fo: float, t_in: float, temp: float, vdd: float) -> float:
        """One point, on plain floats (see :func:`_scalar_kernel`)."""
        norm = self.norm
        return self._kernel(fo, t_in, temp, vdd, self._flat,
                            norm.centers, norm.scales)

    @staticmethod
    def _term_sum(orders: Tuple[int, int, int, int], coeffs: Sequence,
                  xs: Sequence, shape: Tuple[int, ...]) -> np.ndarray:
        """The batch term loop: ``sum_n coeffs[n] * x0^i * x1^j * x2^k
        * x3^l`` over the terms of ``orders`` in C order, accumulated
        from zeros of ``shape``.

        ``xs`` holds the normalized variables (``None`` for a
        zero-order one) and ``coeffs[n]`` term ``n``'s coefficient;
        any operands that broadcast to ``shape`` will do, so one model
        over a column of points (:meth:`evaluate_many`) and many
        models stacked over a slew grid (:meth:`grid_peaks`) run the
        same loop.  Each term multiplies its coefficient by its
        nonzero :meth:`_power_ladder` rungs left to right and adds
        into the accumulator: the operation sequence the scalar kernel
        (:func:`_scalar_kernel`) replays, which also drops only the
        rung-0 factors of exactly ``1.0``.
        """
        ladders = [PolynomialModel._power_ladder(x, order)
                   for x, order in zip(xs, orders)]
        acc = np.zeros(shape)
        for n, term in enumerate(
                itertools.product(*(range(o + 1) for o in orders))):
            value = coeffs[n]
            for ladder, power in zip(ladders, term):
                if power:
                    value = value * ladder[power]
            acc += value
        return acc

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Batch :meth:`evaluate` over ``(n, 4)`` rows.

        Row ``i`` of the result is bitwise-equal to
        ``evaluate(*points[i])``: the term loop (:meth:`_term_sum`)
        replays the scalar evaluator's exact operation sequence
        (normalization, power ladder, term product order, term
        accumulation order) elementwise across rows (see
        :class:`repro.charlib.model.DelayModel`).
        """
        points = np.asarray(points, dtype=float)
        norm = self.norm
        xs = [(points[:, v] - norm.centers[v]) / norm.scales[v]
              if order else None for v, order in enumerate(self.orders)]
        return self._term_sum(self.orders, self._flat, xs,
                              (points.shape[0],))

    @classmethod
    def grid_peaks(cls, models: Sequence["PolynomialModel"],
                   fos: Sequence[float], grid: Sequence[float],
                   temp: float, vdd: float) -> np.ndarray:
        """Row ``i``: the maximum over ``grid`` of ``models[i]`` at
        ``(fos[i], t_in, temp, vdd)``, bitwise ``max(models[i].evaluate(
        fos[i], t_in, temp, vdd) for t_in in grid)``.

        Rows whose models share an orders tuple run one pass of the
        term loop (:meth:`_term_sum`) on a rows x grid layout, split
        into passes of at most :data:`_STACKED_POINTS` values: each
        row gathers its model's coefficients and normalization (read
        from the flattened coefficients at call time, so a ``coeffs``
        assignment reaches them); the fo, temperature and supply terms
        are ``(rows, 1)`` columns and only the slew terms are ``(rows,
        grid)``, so nothing is copied per slew.
        """
        grid = np.asarray(grid, dtype=float)
        fos = np.asarray(fos, dtype=float)
        # orders -> (model id -> member index, its distinct models,
        # its rows, each row's member index)
        groups: Dict[Tuple[int, ...],
                     Tuple[Dict[int, int], List, List[int], List[int]]] = {}
        for row, model in enumerate(models):
            group = groups.get(model.orders)
            if group is None:
                group = groups[model.orders] = ({}, [], [], [])
            distinct, members, rows, which = group
            index = distinct.get(id(model))
            if index is None:
                index = distinct[id(model)] = len(members)
                members.append(model)
            rows.append(row)
            which.append(index)
        peaks = np.empty(len(fos))
        step = max(1, _STACKED_POINTS // grid.size)
        for orders, (_, members, rows, which) in groups.items():
            tables = np.array([model._flat + model.norm.centers
                               + model.norm.scales for model in members])
            n_terms = tables.shape[1] - 8
            for start in range(0, len(rows), step):
                batch = rows[start:start + step]
                table = tables[which[start:start + step]]
                centers, scales = table[:, n_terms:n_terms + 4], table[:, -4:]
                variables = (fos[batch, None], grid, temp, vdd)
                xs = [(variables[v] - centers[:, v, None]) / scales[:, v, None]
                      if order else None for v, order in enumerate(orders)]
                coeffs = table[:, :n_terms, None].transpose(1, 0, 2)
                values = cls._term_sum(orders, coeffs, xs,
                                       (len(batch), grid.size))
                peaks[batch] = values.max(axis=1)
        return peaks

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return int(np.prod([o + 1 for o in self.orders]))

    def to_dict(self) -> Dict:
        return {
            "kind": "polynomial",
            "orders": list(self.orders),
            "coeffs": self.coeffs.reshape(-1).tolist(),
            "centers": list(self.norm.centers),
            "scales": list(self.norm.scales),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PolynomialModel":
        orders = tuple(data["orders"])
        shape = tuple(o + 1 for o in orders)
        coeffs = np.asarray(data["coeffs"], dtype=float).reshape(shape)
        norm = Normalization(tuple(data["centers"]), tuple(data["scales"]))
        return cls(orders, coeffs, norm)

    def __repr__(self) -> str:
        return f"PolynomialModel(orders={self.orders}, params={self.num_parameters})"
