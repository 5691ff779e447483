"""Rolling day-by-day forecasting, error calibration, and VAR enhancement."""

import numpy as np
import pytest

import mobagg.forecast.rolling as rolling_mod
from mobagg.forecast import FitError, enhanced_forecast, rolling_scan, select_order
from mobagg.harness.pipeline import aic_orders, analyze_roi
from mobagg.harness.synth import correlated_pair, seasonal_series
from mobagg.timeseries import EpochSpec, RoiTimeSeries, deseasonalize, seasonal_profile


@pytest.fixture(scope="module")
def noisy_fixture():
    rng = np.random.default_rng(0)
    series = seasonal_series(0, 4, rng, phi=0.6, sigma=6.0)
    return series, seasonal_profile(series)


class TestRollingForecast:
    def test_noise_free_series_is_predicted_exactly(self):
        series = seasonal_series(0, 4, np.random.default_rng(0), phi=0.6, sigma=0.0)
        profile = seasonal_profile(series)
        orders = aic_orders(deseasonalize(series, profile).values, 25)
        result = rolling_scan(series, profile, 25, 1, orders)
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
            analyze_roi(series, 11, 1, train_days=5, calibration_days=7, orders=(1, 0))
        with pytest.raises(ValueError):
            analyze_roi(series, 12, 1, calibration_days=0, orders=(1, 0))


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
