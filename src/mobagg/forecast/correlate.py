"""Spearman rank correlation and lagged search for related ROIs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.stats import rankdata

from ..timeseries import RoiTimeSeries


def average_ranks(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    return rankdata(np.asarray(values, dtype=np.float64), method="average")


def spearman(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Spearman's rho, the Pearson correlation of the average ranks.

    NaN when either input has zero rank variance or holds a NaN.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if xa.size < 2:
        raise ValueError("need at least 2 observations")
    rx = average_ranks(xa)
    ry = average_ranks(ya)
    if not (np.ptp(rx) > 0.0 and np.ptp(ry) > 0.0):
        return float("nan")
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    rho = float(cx @ cy) / float(np.sqrt((cx @ cx) * (cy @ cy)))
    return float(min(1.0, max(-1.0, rho)))


@dataclass(frozen=True)
class CorrelationResult:
    """Best lag alignment of one candidate against the target.

    Positive ``lag`` means the candidate leads: its value at t - lag pairs
    with the target's value at t.
    """

    target_roi: int
    candidate_roi: int
    lag: int
    rho: float


def _lagged_pair(target: np.ndarray, candidate: np.ndarray, lag: int) -> tuple[np.ndarray, np.ndarray]:
    if lag > 0:
        return target[lag:], candidate[:-lag]
    if lag < 0:
        return target[:lag], candidate[-lag:]
    return target, candidate


def correlated_rois(
    target: RoiTimeSeries,
    candidates: Sequence[RoiTimeSeries],
    max_lag_epochs: int = 1,
    top_k: int = 10,
) -> list[CorrelationResult]:
    """Rank candidates by their strongest |rho| within the lag window.

    For each candidate the lag in [-max_lag_epochs, +max_lag_epochs] with the
    largest |rho| is kept (first such lag wins exact ties). Candidates whose
    correlation is undefined everywhere, or that are the target itself, are
    skipped. Results sort by |rho| descending, candidate id ascending.
    """
    if max_lag_epochs < 0:
        raise ValueError("max_lag_epochs must be >= 0")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    tv = target.values
    results: list[CorrelationResult] = []
    for cand in candidates:
        if cand.roi_id == target.roi_id:
            continue
        cv = cand.values
        if cv.size != tv.size:
            raise ValueError(
                f"candidate {cand.roi_id} has length {cv.size}, target has {tv.size}"
            )
        best: tuple[float, int] | None = None
        for lag in range(-max_lag_epochs, max_lag_epochs + 1):
            a, b = _lagged_pair(tv, cv, lag)
            if a.size < 3:
                continue
            rho = spearman(a, b)
            if np.isnan(rho):
                continue
            if best is None or abs(rho) > best[0]:
                best = (abs(rho), lag)
                best_rho = rho
        if best is not None:
            results.append(
                CorrelationResult(
                    target_roi=target.roi_id,
                    candidate_roi=cand.roi_id,
                    lag=best[1],
                    rho=best_rho,
                )
            )
    results.sort(key=lambda r: (-abs(r.rho), r.candidate_roi))
    return results[:top_k]
