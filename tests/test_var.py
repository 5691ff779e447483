"""Multi-series autoregression: per-equation least squares and forecasts."""

import numpy as np
import pytest

from mobagg.forecast import CollinearInputs, VarModel, fit_var, forecast_var
from mobagg.forecast.var import lagged_design


def var1_sample(A, n, seed, const=None):
    k = A.shape[0]
    rng = np.random.default_rng(seed)
    c = np.zeros(k) if const is None else np.asarray(const, dtype=float)
    y = np.zeros((n + 1, k))
    e = rng.normal(0, 1, size=(n + 1, k))
    for t in range(1, n + 1):
        y[t] = c + A @ y[t - 1] + e[t]
    return y[1:]


class TestLaggedDesign:
    def test_hand_layout(self):
        data = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
        resp, X = lagged_design(data, 2)
        assert resp.shape == (2, 2) and X.shape == (2, 5)
        # row for t=2: [1, y_1, y_0]
        assert np.array_equal(X[0], [1.0, 2.0, 20.0, 1.0, 10.0])
        assert np.array_equal(resp[0], [3.0, 30.0])


class TestFitVar:
    def test_recovers_constructed_dependence(self):
        A = np.array([[0.5, 0.2], [0.1, 0.4]])
        y = var1_sample(A, 2000, seed=11)
        model = fit_var(y, 1)
        assert model.k == 2 and model.p == 1
        assert np.max(np.abs(model.coef[0] - A)) < 0.1

    def test_matches_direct_least_squares(self):
        A = np.array([[0.3, -0.2], [0.25, 0.5]])
        y = var1_sample(A, 500, seed=13, const=[1.0, -2.0])
        model = fit_var(y, 2)

        resp, X = lagged_design(y, 2)
        B, *_ = np.linalg.lstsq(X, resp, rcond=None)
        assert np.allclose(model.const, B[0], atol=1e-10)
        assert np.allclose(model.coef[0], B[1:3].T, atol=1e-10)
        assert np.allclose(model.coef[1], B[3:5].T, atol=1e-10)

    def test_white_noise_coefficients_near_zero(self):
        rng = np.random.default_rng(29)
        a, b = rng.normal(0, 1, 1500), rng.normal(0, 1, 1500)
        model = fit_var(np.column_stack([a, b]), 1)
        assert np.max(np.abs(model.coef[0])) < 0.1

    def test_single_series_rejected(self):
        with pytest.raises(ValueError):
            fit_var(np.ones((100, 1)), 1)

    def test_collinear_inputs_rejected(self):
        rng = np.random.default_rng(37)
        a = rng.normal(0, 1, 200)
        with pytest.raises(CollinearInputs):
            fit_var(np.column_stack([a, 2.0 * a]), 1)

    def test_too_short(self):
        # VAR(1) over 2 series estimates 3 parameters per equation
        with pytest.raises(ValueError):
            fit_var(np.column_stack([np.arange(29.0), np.arange(29.0) ** 2]), 1)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            fit_var(np.column_stack([np.ones(100), np.zeros(100)]), 0)


class TestForecastVar:
    def model(self):
        return VarModel(
            k=2,
            p=1,
            const=np.array([1.0, 0.0]),
            coef=np.array([[[0.5, 0.2], [0.0, 0.4]]]),
        )

    def test_hand_arithmetic(self):
        pred = forecast_var(self.model(), np.array([[2.0, 10.0], [0.0, 0.0]]))
        # [1 + 0.5*2 + 0.2*10, 0 + 0.4*10]
        assert pred.shape == (1, 2)
        assert np.allclose(pred, [[4.0, 4.0]])

    def test_uses_trailing_rows_only(self):
        # each row's forecast reads only the p rows before it
        data = np.array([[99.0, 99.0], [2.0, 10.0], [0.0, 0.0]])
        assert np.allclose(forecast_var(self.model(), data)[1], [4.0, 4.0])

    def test_two_lag_arithmetic(self):
        model = VarModel(
            k=2,
            p=2,
            const=np.zeros(2),
            coef=np.array([
                [[0.5, 0.0], [0.0, 0.5]],
                [[0.25, 0.0], [0.0, -0.25]],
            ]),
        )
        data = np.array([[4.0, 8.0], [2.0, 2.0], [0.0, 0.0]])
        # lag1 row [2,2], lag2 row [4,8]
        assert np.allclose(forecast_var(model, data), [[2.0, -1.0]])

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            forecast_var(self.model(), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            forecast_var(self.model(), np.zeros((1, 2)))

    def test_one_step_consistency_with_fit_residuals(self):
        A = np.array([[0.5, 0.2], [0.1, 0.4]])
        y = var1_sample(A, 300, seed=41)
        model = fit_var(y, 1)
        pred = forecast_var(model, y)
        resp, X = lagged_design(y, 1)
        B = np.vstack([model.const, model.coef[0].T])
        # prediction + residual reproduces the observation
        assert np.allclose(pred + (resp - X @ B), y[1:], atol=1e-8)

    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(43)
        y = rng.normal(0, 1, size=(200, 3)).cumsum(axis=0) * 0.1 + rng.normal(0, 1, (200, 3))
        model = fit_var(y, 3)
        reference = []
        for t in range(model.p, len(y)):
            value = model.const.copy()
            for i in range(1, model.p + 1):
                value += model.coef[i - 1] @ y[t - i]
            reference.append(value)
        assert np.allclose(forecast_var(model, y), reference, rtol=0, atol=1e-9)
