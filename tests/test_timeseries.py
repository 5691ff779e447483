"""Epoch grids, weekly profiles, error summaries, and the stationarity test."""

from collections import defaultdict
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from mobagg.timeseries import (
    AlignmentError,
    EpochSpec,
    RoiTimeSeries,
    adf_stationary,
    deseasonalize,
    forecast_errors,
    seasonal_profile,
    truncate_to_whole_weeks,
)

MONDAY = datetime(2016, 2, 1)  # a Monday, so slot (0, 0) is epoch 0


def hourly(values, roi_id=0, kind="raw", start=MONDAY):
    values = np.asarray(values, dtype=np.float64)
    return RoiTimeSeries(roi_id, values, EpochSpec(start, len(values)), kind=kind)


class TestEpochSpec:
    spec = EpochSpec(MONDAY, 48)

    def test_timestamp_and_index_inverse(self):
        for i in (0, 1, 47):
            assert self.spec.index_of(self.spec.timestamp_of(i)) == i

    def test_mid_epoch_maps_down(self):
        assert self.spec.index_of(MONDAY + timedelta(minutes=59)) == 0

    def test_outside_range_is_none(self):
        assert self.spec.index_of(MONDAY - timedelta(seconds=1)) is None
        assert self.spec.index_of(MONDAY + timedelta(hours=48)) is None

    def test_weekday_hour_slots(self):
        assert self.spec.slot_of(0) == (0, 0)
        assert self.spec.slot_of(25) == (1, 1)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            EpochSpec(MONDAY, 0)

    def test_rejects_start_with_utc_offset(self):
        with pytest.raises(ValueError, match="UTC offset"):
            EpochSpec(MONDAY.replace(tzinfo=timezone.utc), 48)


class TestRoiTimeSeries:
    def test_raw_counts_cannot_be_negative(self):
        with pytest.raises(ValueError):
            hourly([1.0, -2.0, 3.0])

    def test_deseasonalized_may_be_negative(self):
        s = hourly([1.0, -2.0, 3.0], kind="deseasonalized")
        assert s.values[1] == -2.0

    def test_values_are_frozen(self):
        s = hourly([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_length_must_match_epochs(self):
        with pytest.raises(ValueError):
            RoiTimeSeries(0, np.zeros(3), EpochSpec(MONDAY, 4))


class TestSeasonalProfile:
    def test_constant_series(self):
        profile = seasonal_profile(hourly(np.full(336, 5.0)))
        assert profile.weeks_used == 2
        assert np.all(profile.means == 5.0)

    def test_slot_average_across_weeks(self):
        values = np.zeros(336)
        values[0] = 10.0    # Monday 00:00, week 1
        values[168] = 20.0  # Monday 00:00, week 2
        profile = seasonal_profile(hourly(values))
        assert profile.means[0, 0] == 15.0
        assert profile.means[0, 1] == 0.0
        assert profile.means[6, 23] == 0.0

    def test_matches_groupby_oracle(self):
        rng = np.random.default_rng(17)
        series = hourly(rng.integers(0, 50, size=3 * 168).astype(float))
        profile = seasonal_profile(series)

        bucket = defaultdict(list)
        for i, v in enumerate(series.values):
            bucket[series.epochs.slot_of(i)].append(v)
        for (wd, hr), vals in bucket.items():
            assert profile.means[wd, hr] == pytest.approx(np.mean(vals), abs=1e-12)

    def test_partial_week_cut_with_warning(self):
        series = hourly(np.ones(336 + 3))
        with pytest.warns(UserWarning):
            profile = seasonal_profile(series)
        assert profile.weeks_used == 2



class TestDeseasonalize:
    def test_periodic_series_vanishes(self):
        week = np.arange(168, dtype=float)
        series = hourly(np.tile(week, 2))
        profile = seasonal_profile(series)
        flat = deseasonalize(series, profile)
        assert flat.kind == "deseasonalized"
        assert np.allclose(flat.values, 0.0)

    def test_residual_profile_is_zero(self):
        rng = np.random.default_rng(29)
        series = hourly(rng.uniform(0, 100, size=2 * 168))
        profile = seasonal_profile(series)
        flat = deseasonalize(series, profile)
        again = seasonal_profile(flat)
        assert np.max(np.abs(again.means)) < 1e-9



class TestForecastErrors:
    def test_hand_values(self):
        errs = forecast_errors([100.0], [80.0])
        assert errs.absolute[0] == 20.0
        assert errs.mean == 20.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            forecast_errors([1.0, 2.0], [1.0])



class TestStationarity:
    def test_white_noise_is_stationary(self):
        hits = 0
        for s in range(100):
            rng = np.random.default_rng(2000 + s)
            if adf_stationary(rng.normal(0, 1, 500)).stationary:
                hits += 1
        assert hits == 100

    def test_random_walk_is_not(self):
        hits = 0
        for s in range(100):
            rng = np.random.default_rng(3000 + s)
            walk = np.cumsum(rng.normal(0, 1, 500))
            if not adf_stationary(walk).stationary:
                hits += 1
        assert hits >= 90

    def test_constant_series_convention(self):
        result = adf_stationary(np.full(100, 7.0))
        assert result.stationary and result.statistic == float("-inf")

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            adf_stationary(np.zeros(29))



class TestTruncate:
    def test_exact_weeks_untouched(self):
        series = hourly(np.ones(336))
        assert truncate_to_whole_weeks(series) is series

    def test_partial_tail_cut_with_warning(self):
        series = hourly(np.ones(336 + 5))
        with pytest.warns(UserWarning):
            cut = truncate_to_whole_weeks(series)
        assert len(cut) == 336

    def test_under_one_week_fails(self):
        with pytest.raises(AlignmentError):
            truncate_to_whole_weeks(hourly(np.ones(100)))
