"""Control-band anomaly flagging and deviation ranking."""

import numpy as np
import pytest

from mobagg.forecast import AnomalyEvent, detect_anomalies, rank_anomalies
from mobagg.forecast.anomaly import thresholds


class TestThresholds:
    def test_band_arithmetic(self):
        assert thresholds(10.0, 2.0) == (16.0, 4.0)


class TestDetectAnomalies:
    def test_residuals_at_mean_are_quiet(self):
        assert detect_anomalies(np.full(100, 5.0), mu=5.0, sigma=1.0) == []

    def test_single_upper_excursion(self):
        residuals = np.zeros(10)
        residuals[4] = 3.5
        (event,) = detect_anomalies(residuals, mu=0.0, sigma=1.0)
        assert event.epoch_index == 4
        assert event.side == "upper"
        assert event.residual == 3.5
        assert event.magnitude == pytest.approx(0.5)
        assert (event.lambda1, event.lambda2) == (3.0, -3.0)

    def test_single_lower_excursion(self):
        residuals = np.zeros(10)
        residuals[7] = -4.0
        (event,) = detect_anomalies(residuals, mu=0.0, sigma=1.0)
        assert event.side == "lower"
        assert event.magnitude == pytest.approx(1.0)

    def test_boundary_is_inclusive(self):
        # exactly lambda1 does not flag; the band is closed
        assert detect_anomalies([3.0, -3.0], mu=0.0, sigma=1.0) == []

    def test_epoch_offset_maps_to_global_indices(self):
        residuals = np.zeros(5)
        residuals[2] = 9.0
        (event,) = detect_anomalies(residuals, 0.0, 1.0, epoch_offset=288)
        assert event.epoch_index == 290

    def test_roi_tagging(self):
        (event,) = detect_anomalies([10.0], 0.0, 1.0, roi_id=42)
        assert event.roi_id == 42

    def test_false_positive_rate_matches_normal_tail(self):
        # frozen draw: 34 of 10^4 standard-normal residuals escape +-3
        rng = np.random.default_rng(77)
        events = detect_anomalies(rng.normal(0, 1, 10_000), mu=0.0, sigma=1.0)
        rate = len(events) / 10_000
        assert rate == pytest.approx(0.0034, abs=1e-12)
        assert 0.0007 < rate < 0.0047  # ~2*Phi(-3) = 0.0027

    def test_invariant_under_joint_shift(self):
        rng = np.random.default_rng(78)
        residuals = rng.normal(0, 2, 500)
        base = detect_anomalies(residuals, mu=0.0, sigma=2.0)
        shifted = detect_anomalies(residuals + 13.0, mu=13.0, sigma=2.0)
        assert len(base) == len(shifted)
        for a, b in zip(base, shifted):
            assert a.epoch_index == b.epoch_index and a.side == b.side
            assert b.residual == pytest.approx(a.residual + 13.0, abs=1e-9)
            assert b.magnitude == pytest.approx(a.magnitude, abs=1e-9)

    def test_zero_sigma_flags_any_deviation(self):
        events = detect_anomalies([5.0, 5.0 + 1e-9, 4.0], mu=5.0, sigma=0.0)
        assert [(e.epoch_index, e.side) for e in events] == [(1, "upper"), (2, "lower")]

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            detect_anomalies([0.0], mu=0.0, sigma=-1.0)


def burst(n, magnitudes):
    events = []
    for i, m in enumerate(magnitudes):
        events.append(
            AnomalyEvent(roi_id=0, epoch_index=i,
                         residual=m, side="upper", magnitude=m,
                         lambda1=0.0, lambda2=0.0)
        )
    assert len(events) == n
    return events


class TestRankAnomalies:
    def test_ninety_from_896(self):
        rng = np.random.default_rng(81)
        events = burst(896, rng.uniform(0.1, 50.0, 896))
        assert len(rank_anomalies(events, keep_fraction=0.10)) == 90

    def test_ceiling_rule_keeps_37_of_366(self):
        rng = np.random.default_rng(82)
        events = burst(366, rng.uniform(0.1, 50.0, 366))
        assert len(rank_anomalies(events, keep_fraction=0.10)) == 37

    def test_empty_input(self):
        assert rank_anomalies([], keep_fraction=0.10) == []

    def test_orders_by_magnitude(self):
        events = burst(4, [1.0, 9.0, 3.0, 7.0])
        kept = rank_anomalies(events, keep_fraction=0.5)
        assert [e.magnitude for e in kept] == [9.0, 7.0]

    def test_ties_break_on_epoch_then_roi(self):
        tied = [
            AnomalyEvent(5, 3, 2.0, "upper", 2.0, 0.0, 0.0),
            AnomalyEvent(1, 3, 2.0, "upper", 2.0, 0.0, 0.0),
            AnomalyEvent(0, 9, 2.0, "upper", 2.0, 0.0, 0.0),
        ]
        kept = rank_anomalies(tied, keep_fraction=1.0)
        assert [(e.epoch_index, e.roi_id) for e in kept] == [(3, 1), (3, 5), (9, 0)]

    def test_smaller_fraction_is_prefix_of_larger(self):
        rng = np.random.default_rng(83)
        events = burst(200, rng.uniform(0.0, 10.0, 200))
        small = rank_anomalies(events, keep_fraction=0.1)
        large = rank_anomalies(events, keep_fraction=0.3)
        assert large[: len(small)] == small

    def test_fraction_validation(self):
        events = burst(3, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            rank_anomalies(events, keep_fraction=0.0)
        with pytest.raises(ValueError):
            rank_anomalies(events, keep_fraction=1.5)
