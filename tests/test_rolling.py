"""Rolling day-by-day forecasting, error calibration, and VAR enhancement."""

from dataclasses import fields, is_dataclass
from itertools import count

import numpy as np
import pytest

import mobagg.forecast.rolling as rolling_mod
from mobagg.forecast import FitError, enhanced_forecast, rolling_scan, select_order
from mobagg.harness.pipeline import analyze_rois
from mobagg.timeseries import (
    EPOCHS_PER_DAY,
    EpochSpec,
    RoiTimeSeries,
    deseasonalize,
    seasonal_profile,
)

from synth_series import correlated_pair, seasonal_series


@pytest.fixture(scope="module")
def noisy_fixture():
    rng = np.random.default_rng(0)
    series = seasonal_series(0, 4, rng, phi=0.6, sigma=6.0)
    return series, seasonal_profile(series)


def same(a, b):
    """Field-by-field equality of nested dataclasses, tuples and arrays."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def reference_one_step(model, history, innovations):
    """The ARMA one-step mean from trailing values and innovations."""
    value = model.const
    for i in range(1, model.p + 1):
        value += model.ar[i - 1] * history[-i]
    for j in range(1, model.q + 1):
        value += model.ma[j - 1] * innovations[-j]
    return float(value)


def reference_scan(series, profile, start_day, n_days, orders, train_days=5):
    """Rolling forecasts slot by slot: (predictions, residuals) as arrays.

    Each day refits through ``rolling_mod.fit_arma``, then forecasts a slot,
    appends its true value and innovation, and forecasts the next.
    """
    epd = EPOCHS_PER_DAY
    d = series.values if profile is None else deseasonalize(series, profile).values
    seasonal = series.values - d
    predictions, residuals = [], []
    for day in range(start_day, start_day + n_days):
        window = d[(day - train_days) * epd : day * epd]
        try:
            model = rolling_mod.fit_arma(window, *orders)
        except FitError:
            model = None
        history = list(window)
        innovations = [] if model is None else list(model.residuals)
        for t in range(day * epd, (day + 1) * epd):
            if model is None:
                d_hat = 0.0 if profile is not None else float(window.mean())
            else:
                d_hat = reference_one_step(model, history, innovations)
            predictions.append(d_hat + seasonal[t])
            residuals.append(d[t] - d_hat)
            history.append(d[t])
            innovations.append(d[t] - d_hat)
    return np.asarray(predictions), np.asarray(residuals)


class TestRollingForecast:
    def test_noise_free_series_is_predicted_exactly(self):
        series = seasonal_series(0, 4, np.random.default_rng(0), phi=0.6, sigma=0.0)
        profile = seasonal_profile(series)
        result = rolling_scan(series, profile, 25, 1)
        assert result.errors.mean == 0.0
        assert result.orders == (0, 0)
        assert result.fallback_epochs == ()

    def test_one_finite_prediction_per_slot(self, noisy_fixture):
        series, profile = noisy_fixture
        result = rolling_scan(series, profile, 25, 1, (1, 0))
        assert result.predictions.shape == (24,)
        assert np.isfinite(result.predictions).all()
        assert np.array_equal(result.epoch_indices, np.arange(600, 624))
        assert np.allclose(result.residuals, result.actuals - result.predictions)

    def test_deseasonalizing_beats_raw_forecasting(self, noisy_fixture):
        series, profile = noisy_fixture
        des = rolling_scan(series, profile, 25, 1, (1, 0))
        raw = rolling_scan(series, None, 25, 1, (1, 0))
        assert des.errors.mean == pytest.approx(4.804698, abs=1e-6)  # frozen
        assert raw.errors.mean == pytest.approx(30.322704, abs=1e-6)
        assert des.errors.mean < raw.errors.mean

    def test_scan_concatenates_days(self, noisy_fixture):
        series, profile = noisy_fixture
        scan = rolling_scan(series, profile, start_day=20, n_days=3, orders=(1, 0))
        assert scan.predictions.shape == (72,)
        one = rolling_scan(series, profile, 20, 1, (1, 0))
        assert np.allclose(scan.predictions[:24], one.predictions)
        assert len(scan.models) == 3
        assert scan.days(21, 1).models == (scan.models[1],)
        assert scan.models[0].aic == one.models[0].aic

    @pytest.mark.parametrize("raw", [False, True], ids=["deseasonalized", "raw"])
    def test_selected_orders_keep_the_winning_fit(self, noisy_fixture, monkeypatch, raw):
        # AIC picks the orders on day 20's window, and its winner serves day 20
        series, profile = noisy_fixture
        profile = None if raw else profile
        d = series.values if raw else deseasonalize(series, profile).values
        given = rolling_scan(series, profile, 20, 3, select_order(d[15 * 24 : 20 * 24]))
        fit, calls = rolling_mod.fit_arma, []

        def counting(window, p, q):
            calls.append((p, q))
            return fit(window, p, q)

        monkeypatch.setattr(rolling_mod, "fit_arma", counting)
        selected = rolling_scan(series, profile, 20, 3)
        assert calls == [given.orders] * (3 - 1)
        assert same(selected, given)  # the models' coefficients and nfev too

    def test_insufficient_history_rejected(self, noisy_fixture):
        series, profile = noisy_fixture
        with pytest.raises(ValueError):
            rolling_scan(series, profile, 3, 1, (1, 0), train_days=5)

    def test_scan_past_series_end_rejected(self, noisy_fixture):
        series, profile = noisy_fixture
        with pytest.raises(ValueError):
            rolling_scan(series, profile, start_day=27, n_days=2, orders=(1, 0))

    @pytest.mark.parametrize(
        "orders, train_days",
        [((-1, 0), 5), ((0, -1), 5), ((9, 9), 5), ((1, 1), 1), ((6, 6), 5)],
        ids=["negative-p", "negative-q", "9,9", "1,1-one-day", "6,6"],
    )
    def test_unfittable_orders_rejected(self, noisy_fixture, orders, train_days):
        # 10·(p+q+1) observations must fit in train_days·24 slots; such
        # orders used to turn every day into a seasonal-mean fallback
        series, profile = noisy_fixture
        with pytest.raises(ValueError, match="ARMA"):
            rolling_scan(series, profile, 20, 3, train_days=train_days, orders=orders)

    def test_largest_fittable_orders_run(self, noisy_fixture):
        # 10·(1+0+1) = 20 of 24 slots, 10·(5+6+1) = 120 of 120
        series, profile = noisy_fixture
        assert rolling_scan(series, profile, 20, 1, train_days=1, orders=(1, 0)).orders == (1, 0)
        assert len(rolling_scan(series, profile, 20, 1, orders=(5, 6)).predictions) == 24

    def test_fit_failure_falls_back_to_seasonal_mean(self, noisy_fixture, monkeypatch):
        series, profile = noisy_fixture

        def broken(*a, **k):
            raise FitError("forced")

        monkeypatch.setattr(rolling_mod, "fit_arma", broken)
        result = rolling_scan(series, profile, 25, 1, (1, 0))
        assert result.fallback_epochs == tuple(range(600, 624))
        assert result.models == (None,)
        slots = [series.epochs.slot_of(t) for t in range(600, 624)]
        seasonal = [profile.means[wd, hr] for wd, hr in slots]
        assert np.allclose(result.predictions, seasonal)

    def test_raw_fallback_uses_window_mean(self, noisy_fixture, monkeypatch):
        series, _ = noisy_fixture

        def broken(*a, **k):
            raise FitError("forced")

        monkeypatch.setattr(rolling_mod, "fit_arma", broken)
        result = rolling_scan(series, None, 25, 1, (1, 0))
        window_mean = series.values[480:600].mean()
        assert np.allclose(result.predictions, window_mean)


class TestOnePassScan:
    """A day's one-step forecasts of its frozen model are y_t - eps_t."""

    @pytest.mark.parametrize("orders, raw, fallback", [
        ((2, 1), False, False),
        ((0, 2), False, False),
        ((1, 0), False, False),
        ((1, 1), True, False),
        ((1, 1), False, True),
        ((2, 0), True, True),
    ], ids=["arma21", "arma02", "ar1", "raw", "fallback", "raw-fallback"])
    def test_matches_the_slot_by_slot_recursion(
        self, noisy_fixture, monkeypatch, orders, raw, fallback,
    ):
        series, profile = noisy_fixture
        profile = None if raw else profile
        if fallback:
            fit, calls = rolling_mod.fit_arma, count()

            def flaky(window, p, q):
                # both scans fit days 20, 21 and 22 in order; day 21 fails
                if next(calls) % 3 == 1:
                    raise FitError("forced")
                return fit(window, p, q)

            monkeypatch.setattr(rolling_mod, "fit_arma", flaky)
        scan = rolling_scan(series, profile, 20, 3, orders)
        predictions, residuals = reference_scan(series, profile, 20, 3, orders)
        assert np.allclose(scan.predictions, predictions, rtol=0, atol=1e-9)
        assert np.allclose(scan.residuals, residuals, rtol=0, atol=1e-9)
        if fallback:
            assert scan.fallback_epochs == tuple(range(504, 528))
            assert scan.models[1] is None
        else:
            assert scan.fallback_epochs == ()


class TestCalibrateResiduals:
    """The out-of-sample errors of the week before a scan, which size its band."""

    def test_frozen_values(self, noisy_fixture):
        series, profile = noisy_fixture
        week = rolling_scan(series, profile, 5, 7, (1, 0), train_days=5).residuals
        mu, sigma = float(week.mean()), float(week.std())
        assert mu == pytest.approx(-0.5113, abs=1e-4)
        assert sigma == pytest.approx(5.5472, abs=1e-4)
        # the scale lands near the generator's innovation sigma of 6
        assert 4.0 < sigma < 7.5

    def test_window_must_fit(self, noisy_fixture):
        series, _ = noisy_fixture
        # 11 - 7 = day 4 leaves less than train_days of history
        with pytest.raises(ValueError):
            analyze_rois([series], 11, 1, train_days=5, calibration_days=7, orders=(1, 0))
        with pytest.raises(ValueError):
            analyze_rois([series], 12, 1, calibration_days=0, orders=(1, 0))


class TestEnhancedForecast:
    def test_leading_helper_improves_anomaly_day(self):
        events = {600 + h: 30.0 for h in (8, 9, 10, 17, 18, 19)}
        target, helper = correlated_pair(4, np.random.default_rng(0), lead=1,
                                         coupling=0.9, events=events)
        profile = seasonal_profile(target)
        d_target = deseasonalize(target, profile)
        d_helper = deseasonalize(helper, seasonal_profile(helper))
        orders = select_order(d_target.values[480:600], 3, 2)
        baseline = rolling_scan(target, profile, 25, 1, train_days=5, orders=orders)
        result = enhanced_forecast(baseline, d_target, [d_helper], train_days=5)
        assert not result.fell_back
        assert result.improvement == pytest.approx(0.755561, abs=1e-6)  # frozen
        assert result.errors.mean < result.baseline.errors.mean

    def test_duplicate_helper_falls_back(self, noisy_fixture):
        series, profile = noisy_fixture
        d = deseasonalize(series, profile)
        clone = RoiTimeSeries(9, d.values, series.epochs, kind="deseasonalized")
        baseline = rolling_scan(series, profile, 25, 1, orders=(1, 0))
        result = enhanced_forecast(baseline, d, [clone])
        assert result.fell_back
        assert result.improvement == 0.0
        assert np.array_equal(result.predictions, result.baseline.predictions)

    def test_var_order_defaults_to_clamped_ar_order(self, noisy_fixture):
        series, profile = noisy_fixture
        rng = np.random.default_rng(1)
        helper = RoiTimeSeries(7, rng.normal(0, 6, len(series)), series.epochs,
                               kind="deseasonalized")
        d = deseasonalize(series, profile)
        no_ar = enhanced_forecast(rolling_scan(series, profile, 25, 1, orders=(0, 1)),
                                  d, [helper])
        assert no_ar.var_order == 1

    def test_baseline_must_be_one_day_of_the_target(self, noisy_fixture):
        series, profile = noisy_fixture
        d = deseasonalize(series, profile)
        helper = RoiTimeSeries(7, np.zeros(len(series)), series.epochs, kind="deseasonalized")
        two_days = rolling_scan(series, profile, 24, 2, orders=(1, 0))
        with pytest.raises(ValueError, match="exactly one day"):
            enhanced_forecast(two_days, d, [helper])
        other = RoiTimeSeries(3, d.values, series.epochs, kind="deseasonalized")
        with pytest.raises(ValueError, match="ROI"):
            enhanced_forecast(two_days.days(25, 1), other, [helper])
        with pytest.raises(ValueError, match="history"):
            enhanced_forecast(two_days.days(25, 1), d, [helper], train_days=26)

    def test_needs_a_helper(self, noisy_fixture):
        series, profile = noisy_fixture
        baseline = rolling_scan(series, profile, 25, 1, orders=(1, 0))
        with pytest.raises(ValueError):
            enhanced_forecast(baseline, deseasonalize(series, profile), [])

    def test_helper_length_must_match(self, noisy_fixture):
        series, profile = noisy_fixture
        epochs = EpochSpec(series.epochs.start, len(series) - 24)
        short = RoiTimeSeries(7, np.zeros(len(series) - 24), epochs, kind="deseasonalized")
        baseline = rolling_scan(series, profile, 25, 1, orders=(1, 0))
        with pytest.raises(ValueError):
            enhanced_forecast(baseline, deseasonalize(series, profile), [short])

    def test_noise_helpers_are_no_better_than_baseline(self):
        # 20-seed Monte-Carlo, frozen mean improvement +0.052; pure-noise
        # helpers must stay inside a +-0.10 band around zero
        improvements = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            target = seasonal_series(0, 4, rng, phi=0.6, sigma=6.0)
            n = len(target)
            profile = seasonal_profile(target)
            helpers = [
                RoiTimeSeries(7, rng.normal(0, 6, n), target.epochs, kind="deseasonalized"),
                RoiTimeSeries(8, rng.normal(0, 6, n), target.epochs, kind="deseasonalized"),
            ]
            d = deseasonalize(target, profile)
            orders = select_order(d.values[480:600], 3, 2)
            baseline = rolling_scan(target, profile, 25, 1, train_days=5, orders=orders)
            result = enhanced_forecast(baseline, d, helpers, train_days=5)
            improvements.append(result.improvement)
        mean_improvement = float(np.mean(improvements))
        assert mean_improvement == pytest.approx(0.051981, abs=1e-6)  # frozen
        assert abs(mean_improvement) < 0.10
