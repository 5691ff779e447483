"""Seasonal test series: the commuter pattern plus AR(1) noise.

Built from the package's synthetic fixtures (``mobagg.harness.synth``) for
the analytics tests: one ROI's series, and a (target, helper) pair where the
helper leads the target.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from mobagg.harness.synth import DEFAULT_START, ar1_noise, commuter_pattern
from mobagg.timeseries import HOURS_PER_WEEK, EpochSpec, RoiTimeSeries


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
