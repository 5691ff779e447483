"""Per-ROI time series, weekly seasonal profiles, and stationarity checks.

A series is a fixed-length vector of values over uniform epochs. The weekly
profile holds the per-(weekday, hour) mean over aligned weeks; subtracting
it gives the de-seasonalized series the forecasting layer works on, and
adding it back turns a de-seasonalized prediction into a count forecast.

Epochs are one hour (``EPOCH_SECONDS``) on naive wall-clock time, a decision
made here and nowhere else: ``EpochSpec`` refuses a start with a UTC offset,
a day is ``EPOCHS_PER_DAY`` = 24 slots and a week ``HOURS_PER_WEEK`` = 168. The
stationarity check is an augmented Dickey-Fuller test at 95% confidence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Sequence, Tuple

import numpy as np

EPOCH_SECONDS = 3600
EPOCHS_PER_DAY = 24
HOURS_PER_WEEK = 7 * EPOCHS_PER_DAY
_HOUR = timedelta(seconds=EPOCH_SECONDS)


class AlignmentError(ValueError):
    """Raised when a series is too short for the weekly grid."""


@dataclass(frozen=True)
class EpochSpec:
    """Hourly epoch grid: ``n_epochs`` one-hour slots from ``start``.

    Timestamps are naive wall clock; epoch i covers
    [start + i hours, start + (i+1) hours).
    """

    start: datetime
    n_epochs: int

    def __post_init__(self) -> None:
        if self.start.tzinfo is not None:
            raise ValueError(
                f"epoch start {self.start.isoformat()} carries a UTC offset; "
                "epochs are naive wall-clock hours"
            )
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")

    def timestamp_of(self, index: int) -> datetime:
        return self.start + index * _HOUR

    def index_of(self, ts: datetime) -> int | None:
        """Epoch containing ``ts``, or None when it falls outside the grid."""
        if ts < self.start:
            return None
        idx = (ts - self.start) // _HOUR
        return idx if idx < self.n_epochs else None

    def slot_of(self, index: int) -> Tuple[int, int]:
        """(weekday, hour) of epoch ``index``; weekday 0 is Monday."""
        ts = self.timestamp_of(index)
        return ts.weekday(), ts.hour


@dataclass(frozen=True)
class RoiTimeSeries:
    """Values of one region of interest over an epoch grid.

    ``kind`` tags what the numbers mean: "raw" observed counts (non-negative)
    or "deseasonalized" residuals around the weekly profile.
    """

    roi_id: int
    values: np.ndarray
    epochs: EpochSpec
    kind: str = "raw"

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("series values must be one-dimensional")
        if arr.size != self.epochs.n_epochs:
            raise ValueError(
                f"series length {arr.size} != n_epochs {self.epochs.n_epochs}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("series values must be finite")
        if self.kind == "raw" and arr.min(initial=0.0) < 0:
            raise ValueError("raw counts cannot be negative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def slot_index(self) -> np.ndarray:
        """weekday*24 + hour per epoch."""
        wd, hr = self.epochs.slot_of(0)
        first = wd * EPOCHS_PER_DAY + hr
        return (first + np.arange(len(self))) % HOURS_PER_WEEK


@dataclass(frozen=True)
class SeasonalProfile:
    """Mean value per (weekday, hour) slot, averaged over aligned weeks."""

    means: np.ndarray  # shape (7, 24)
    weeks_used: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.means, dtype=np.float64)
        if arr.shape != (7, EPOCHS_PER_DAY):
            raise ValueError(f"profile must be 7x24, got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "means", arr)


def truncate_to_whole_weeks(series: RoiTimeSeries) -> RoiTimeSeries:
    """Drop a trailing partial week, warning when anything is cut."""
    whole = (len(series) // HOURS_PER_WEEK) * HOURS_PER_WEEK
    if whole == len(series):
        return series
    if whole == 0:
        raise AlignmentError("series is shorter than one week")
    warnings.warn(
        f"truncating series {series.roi_id} from {len(series)} to {whole} epochs "
        "(whole weeks required)",
        stacklevel=2,
    )
    epochs = EpochSpec(series.epochs.start, whole)
    return RoiTimeSeries(series.roi_id, series.values[:whole], epochs, series.kind)


def seasonal_profile(series: RoiTimeSeries) -> SeasonalProfile:
    """Average each weekly slot over the series' whole weeks.

    A partial trailing week is cut with a warning, and a series shorter than
    one week raises ``AlignmentError`` (``truncate_to_whole_weeks``).
    """
    series = truncate_to_whole_weeks(series)
    weeks = len(series) // HOURS_PER_WEEK
    slots = series.slot_index()
    sums = np.bincount(slots, weights=series.values, minlength=HOURS_PER_WEEK)
    means = (sums / weeks).reshape(7, EPOCHS_PER_DAY)
    return SeasonalProfile(means=means, weeks_used=weeks)


def deseasonalize(series: RoiTimeSeries, profile: SeasonalProfile) -> RoiTimeSeries:
    """Subtract the slot mean from every epoch."""
    flat = profile.means.reshape(-1)
    values = series.values - flat[series.slot_index()]
    return RoiTimeSeries(series.roi_id, values, series.epochs, kind="deseasonalized")


@dataclass(frozen=True)
class ForecastErrors:
    """Absolute errors of a prediction against observations, and their mean."""

    absolute: np.ndarray
    mean: float


def forecast_errors(
    actual: Sequence[float] | np.ndarray,
    predicted: Sequence[float] | np.ndarray,
) -> ForecastErrors:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("actual and predicted must be equal-length non-empty vectors")
    absolute = np.abs(a - p)
    return ForecastErrors(absolute=absolute, mean=float(absolute.mean()))


# --- stationarity ---

@dataclass(frozen=True)
class AdfResult:
    stationary: bool
    statistic: float
    lag: int
    critical_value: float
    n_obs: int


# 95% critical values of the unit-root t-statistic for the constant,
# no-trend regression, by sample size. Chosen row: largest tabulated size <= n.
_ADF_CRITICAL_95 = (
    (25, -3.00), (50, -2.93), (100, -2.89), (250, -2.88), (500, -2.87), (math.inf, -2.86),
)


def _critical_value(n: int) -> float:
    value = _ADF_CRITICAL_95[0][1]
    for size, cv in _ADF_CRITICAL_95:
        if n >= size:
            value = cv
    return value


def adf_stationary(values: Sequence[float] | np.ndarray) -> AdfResult:
    """Augmented Dickey-Fuller test with a constant and automatic lag, at 95%.

    Regresses the first difference on the lagged level, floor((n-1)^(1/3))
    lagged differences, and an intercept; the series is called stationary
    when the t-statistic on the lagged level is below the critical value.
    A constant series is stationary by convention (statistic -inf).
    """
    y = np.asarray(values, dtype=np.float64)
    n = y.size
    if n < 30:
        raise ValueError(f"stationarity test needs >= 30 observations, got {n}")
    cv = _critical_value(n)
    if np.ptp(y) == 0.0:
        return AdfResult(True, float("-inf"), 0, cv, n)

    lag = int(math.floor((n - 1) ** (1.0 / 3.0)))
    dy = np.diff(y)
    rows = np.arange(lag, dy.size)
    X = np.empty((rows.size, 2 + lag))
    X[:, 0] = 1.0
    X[:, 1] = y[rows]  # level lagged one epoch behind the response diff
    for i in range(1, lag + 1):
        X[:, 1 + i] = dy[rows - i]
    resp = dy[rows]

    coef, _, rank, _ = np.linalg.lstsq(X, resp, rcond=None)
    if rank < X.shape[1]:
        # Degenerate regressors (near-constant series, duplicated lags).
        return AdfResult(True, float("-inf"), lag, cv, n)
    resid = resp - X @ coef
    dof = rows.size - X.shape[1]
    if dof <= 0:
        raise ValueError("not enough observations for the chosen lag order")
    sigma2 = float(resid @ resid) / dof
    xtx_inv = np.linalg.inv(X.T @ X)
    se = math.sqrt(sigma2 * xtx_inv[1, 1])
    stat = float(coef[1] / se) if se > 0 else float("-inf")
    return AdfResult(stat < cv, stat, lag, cv, n)
