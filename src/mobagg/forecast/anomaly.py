"""Three-sigma residual thresholding and anomaly ranking.

The control band is fixed at ``N_SIGMAS`` = 3 standard deviations of the
out-of-sample residuals around their mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

N_SIGMAS = 3.0


@dataclass(frozen=True)
class AnomalyEvent:
    """One epoch whose forecast residual escaped the control band."""

    roi_id: int
    epoch_index: int
    residual: float
    side: str             # "upper" (above lambda1) or "lower" (below lambda2)
    magnitude: float      # distance past the violated threshold
    lambda1: float
    lambda2: float


def thresholds(mu: float, sigma: float) -> tuple[float, float]:
    """(lambda1, lambda2) = mu +- 3 * sigma."""
    return mu + N_SIGMAS * sigma, mu - N_SIGMAS * sigma


def detect_anomalies(
    residuals: Sequence[float] | np.ndarray,
    mu: float,
    sigma: float,
    roi_id: int = -1,
    epoch_offset: int = 0,
) -> list[AnomalyEvent]:
    """Flag residuals outside [mu - 3*sigma, mu + 3*sigma].

    ``epoch_offset`` maps local positions back to global epoch indices.
    With sigma = 0 the band is the single point mu, so any deviation flags;
    that degenerate case is intentional, not an error.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    lam1, lam2 = thresholds(mu, sigma)
    events: list[AnomalyEvent] = []
    for t, value in enumerate(np.asarray(residuals, dtype=np.float64)):
        e = float(value)
        if e > lam1:
            side, magnitude = "upper", e - lam1
        elif e < lam2:
            side, magnitude = "lower", lam2 - e
        else:
            continue
        events.append(
            AnomalyEvent(
                roi_id=roi_id,
                epoch_index=epoch_offset + t,
                residual=e,
                side=side,
                magnitude=magnitude,
                lambda1=lam1,
                lambda2=lam2,
            )
        )
    return events


def rank_anomalies(
    events: Sequence[AnomalyEvent],
    keep_fraction: float = 0.10,
) -> list[AnomalyEvent]:
    """Keep the ceil(keep_fraction * n) largest-deviation events.

    Ties break toward the earlier epoch, then the smaller ROI id, so the
    ranking is deterministic.
    """
    if not (0.0 < keep_fraction <= 1.0):
        raise ValueError("keep_fraction must be in (0, 1]")
    if not events:
        return []
    n_keep = math.ceil(keep_fraction * len(events))
    ordered = sorted(events, key=lambda e: (-e.magnitude, e.epoch_index, e.roi_id))
    return ordered[:n_keep]
