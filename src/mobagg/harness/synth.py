"""Synthetic fixtures: seasonal count series with controllable dynamics.

Generated series follow the same shape the analytics expect from real
deployments: a weekly (weekday, hour) pattern plus AR(1) noise around it.
Impulse injections go into the AR innovations, so a synthetic incident
perturbs the dynamics for a few hours the way a real crowd event would,
rather than teleporting a single sample.
"""

from __future__ import annotations

from datetime import datetime
from typing import Mapping, Sequence

import numpy as np

from ..ingest import SeriesSet
from ..timeseries import EpochSpec, HOURS_PER_WEEK, RoiTimeSeries

#: Monday 00:00 anchor so epoch 0 opens a week.
DEFAULT_START = datetime(2016, 2, 1)


def commuter_pattern(base: float = 120.0, peak: float = 180.0) -> np.ndarray:
    """A plausible (7, 24) weekly mean table with two weekday rush peaks."""
    hours = np.arange(24)
    morning = np.exp(-0.5 * ((hours - 8.0) / 1.6) ** 2)
    evening = np.exp(-0.5 * ((hours - 18.0) / 2.0) ** 2)
    night = np.exp(-0.5 * ((hours - 3.0) / 2.5) ** 2)
    day_shape = base + peak * (morning + 0.9 * evening) - 0.6 * base * night
    pattern = np.tile(day_shape, (7, 1))
    pattern[5] = 0.55 * (base + 0.5 * peak * np.exp(-0.5 * ((hours - 14.0) / 3.0) ** 2))
    pattern[6] = pattern[5] * 0.9
    return np.maximum(pattern, 5.0)


def ar1_noise(
    n: int,
    phi: float,
    sigma: float,
    rng: np.random.Generator,
    impulses: Mapping[int, float] | None = None,
) -> np.ndarray:
    """AR(1) path x_t = phi * x_{t-1} + eps_t with optional innovation bumps."""
    eps = rng.normal(0.0, sigma, size=n)
    if impulses:
        for t, magnitude in impulses.items():
            if not (0 <= t < n):
                raise ValueError(f"impulse epoch {t} outside [0, {n})")
            eps[t] += magnitude
    x = np.empty(n)
    prev = 0.0
    for t in range(n):
        prev = phi * prev + eps[t]
        x[t] = prev
    return x


def seasonal_series(
    roi_id: int,
    weeks: int,
    rng: np.random.Generator,
    phi: float = 0.6,
    sigma: float = 10.0,
    impulses: Mapping[int, float] | None = None,
) -> RoiTimeSeries:
    """Commuter pattern plus AR(1) noise, floored at zero counts."""
    if weeks < 1:
        raise ValueError("weeks must be >= 1")
    n = weeks * HOURS_PER_WEEK
    slots = np.arange(n) % HOURS_PER_WEEK
    values = commuter_pattern().reshape(-1)[slots] + ar1_noise(n, phi, sigma, rng, impulses)
    epochs = EpochSpec(start=DEFAULT_START, n_epochs=n)
    return RoiTimeSeries(roi_id, np.maximum(values, 0.0), epochs)


def correlated_pair(
    weeks: int,
    rng: np.random.Generator,
    lead: int = 1,
    coupling: float = 0.9,
    events: Mapping[int, float] | None = None,
) -> tuple[RoiTimeSeries, RoiTimeSeries]:
    """(target, helper) where the helper leads the target by ``lead`` epochs.

    The helper's de-seasonalized dynamics are AR(1) with phi 0.5 and
    sigma 6. The target's are coupling * helper_{t-lead} plus its own AR(1)
    term with phi 0.4 and sigma 3, so events planted in the helper (via
    ``events`` innovations) hit the target ``lead`` epochs later.
    """
    if lead < 0:
        raise ValueError("lead must be >= 0")
    n = weeks * HOURS_PER_WEEK
    helper_d = ar1_noise(n, 0.5, 6.0, rng, events)
    own = ar1_noise(n, 0.4, 3.0, rng)
    shifted = np.zeros(n)
    if lead:
        shifted[lead:] = helper_d[:-lead]
    else:
        shifted = helper_d.copy()
    target_d = coupling * shifted + own

    pattern_t = commuter_pattern()
    pattern_h = commuter_pattern(base=90.0, peak=140.0)
    slots = np.arange(n) % HOURS_PER_WEEK
    epochs = EpochSpec(start=DEFAULT_START, n_epochs=n)
    target = RoiTimeSeries(0, np.maximum(pattern_t.reshape(-1)[slots] + target_d, 0.0), epochs)
    helper = RoiTimeSeries(1, np.maximum(pattern_h.reshape(-1)[slots] + helper_d, 0.0), epochs)
    return target, helper


def synthetic_counts(
    n_rois: int,
    weeks: int,
    rng: np.random.Generator,
    max_count: int = 30,
) -> SeriesSet:
    """Integer ground-truth counts for a small simulated city.

    Each ROI gets its own scaled weekly pattern plus AR(1) noise, rounded
    and clamped to [0, max_count] so presence vectors can realize them.
    """
    if n_rois < 1:
        raise ValueError("n_rois must be >= 1")
    n = weeks * HOURS_PER_WEEK
    slots = np.arange(n) % HOURS_PER_WEEK
    counts = np.empty((n_rois, n), dtype=np.int64)
    for roi in range(n_rois):
        scale = max_count * rng.uniform(0.45, 0.9)
        pattern = commuter_pattern(base=0.45 * scale, peak=0.55 * scale)
        values = pattern.reshape(-1)[slots] + ar1_noise(n, 0.5, 0.06 * scale, rng)
        counts[roi] = np.clip(np.round(values), 0, max_count).astype(np.int64)
    epochs = EpochSpec(start=DEFAULT_START, n_epochs=n)
    return SeriesSet(counts, epochs)
