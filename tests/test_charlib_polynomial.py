"""Unit tests for the polynomial delay model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.charlib.polynomial import Normalization, PolynomialModel


def grid_points():
    fo = [0.5, 1, 2, 4]
    tin = [1e-11, 4e-11, 1.2e-10]
    return np.array([[f, t, 25.0, 1.1] for f in fo for t in tin])


class TestNormalization:
    def test_centers_and_scales(self):
        pts = grid_points()
        norm = Normalization.from_points(pts)
        mapped = norm.apply(pts)
        # Center is the mean and scale the half-span, so values stay O(1)
        # (within [-2, 2]) even for skewed grids -- what conditioning needs.
        assert mapped.min() >= -2.0 - 1e-9
        assert mapped.max() <= 2.0 + 1e-9

    def test_constant_column_safe(self):
        pts = grid_points()  # temp and vdd constant
        norm = Normalization.from_points(pts)
        mapped = norm.apply(pts)
        assert np.all(np.isfinite(mapped))


class TestFit:
    def test_exact_recovery_of_polynomial(self):
        """Fitting data generated by a polynomial recovers it exactly."""
        pts = grid_points()
        truth = (
            5e-12
            + 3e-12 * pts[:, 0]
            + 2e-1 * pts[:, 1]
            + 1e-12 * pts[:, 0] * pts[:, 1] * 1e11
        )
        model = PolynomialModel.fit(pts, truth, orders=(1, 1, 0, 0))
        predicted = model.evaluate_many(pts)
        assert np.allclose(predicted, truth, rtol=1e-9)

    def test_evaluate_matches_evaluate_many(self):
        pts = grid_points()
        values = 1e-11 + 1e-12 * pts[:, 0] + 0.1 * pts[:, 1]
        model = PolynomialModel.fit(pts, values, orders=(2, 1, 0, 0))
        for row in pts[:5]:
            single = model.evaluate(*row)
            assert single == model.evaluate_many(row[None, :])[0]

    def test_num_parameters(self):
        pts = grid_points()
        model = PolynomialModel.fit(pts, pts[:, 0], orders=(2, 1, 0, 0))
        assert model.num_parameters == 6

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="coeff shape"):
            PolynomialModel(
                (1, 1, 0, 0), np.zeros((3, 2, 1, 1)),
                Normalization((0, 0, 0, 0), (1, 1, 1, 1)),
            )


class TestSerialization:
    def test_roundtrip(self):
        pts = grid_points()
        values = 1e-11 + 2e-12 * pts[:, 0] ** 2 + 0.05 * pts[:, 1]
        model = PolynomialModel.fit(pts, values, orders=(2, 1, 0, 0))
        again = PolynomialModel.from_dict(model.to_dict())
        assert again.orders == model.orders
        for row in pts[:4]:
            assert again.evaluate(*row) == pytest.approx(model.evaluate(*row))

    def test_dict_kind(self):
        pts = grid_points()
        model = PolynomialModel.fit(pts, pts[:, 0], orders=(1, 0, 0, 0))
        assert model.to_dict()["kind"] == "polynomial"


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(0.5, 8.0),
                st.floats(1e-11, 3e-10),
            ),
            min_size=8,
            max_size=20,
            unique=True,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_linear_fit_reproduces_linear_data(self, samples):
        pts = np.array([[f, t, 25.0, 1.2] for f, t in samples])
        values = 7e-12 + 1.5e-12 * pts[:, 0] + 0.2 * pts[:, 1]
        model = PolynomialModel.fit(pts, values, orders=(1, 1, 0, 0))
        assert np.allclose(model.evaluate_many(pts), values, rtol=1e-6, atol=1e-16)
