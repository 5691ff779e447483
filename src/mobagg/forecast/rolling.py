"""Rolling one-step-ahead forecasts over a de-seasonalized window.

The forecaster works a day (``EPOCHS_PER_DAY`` hourly slots) at a time: it
refits on the trailing training window at the day boundary and freezes that
fit for the day, learning each slot's true value before the next. A frozen
model's one-step forecast of y_t is y_t - eps_t, where eps is its innovation
recursion carried on through the day (Box & Jenkins, ch. 5), so one
``css_innovations`` pass scores the whole day. Predictions are re-seasonalized
before scoring, so errors are in observed-count units.
Each day depends only on its own training window, so any run of days can be
taken out of a longer scan (``RollingForecast.days``) unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np

from ..timeseries import (
    EPOCHS_PER_DAY,
    ForecastErrors,
    RoiTimeSeries,
    SeasonalProfile,
    deseasonalize,
    forecast_errors,
)
from .arma import ArmaModel, FitError, _select_model, css_innovations, fit_arma


@dataclass(frozen=True)
class RollingForecast:
    """One-step predictions over consecutive scanned days for one ROI.

    ``residuals`` are signed (actual - predicted) and out-of-sample, which
    is what anomaly thresholds need, see ``harness.pipeline.analyze_rois``.
    ``models`` holds each scanned day's fitted model, None where the fit
    failed; ``fallback_epochs`` lists the slots of those days.
    """

    roi_id: int
    epoch_indices: np.ndarray
    actuals: np.ndarray
    predictions: np.ndarray
    residuals: np.ndarray
    errors: ForecastErrors
    orders: Tuple[int, int]
    fallback_epochs: Tuple[int, ...]
    models: Tuple[ArmaModel | None, ...]

    def days(self, first_day: int, n_days: int) -> RollingForecast:
        """The slots of ``n_days`` days from ``first_day``, as if scanned alone."""
        lo, hi = first_day * EPOCHS_PER_DAY, (first_day + n_days) * EPOCHS_PER_DAY
        i0 = lo - int(self.epoch_indices[0])
        if n_days < 1 or i0 < 0 or i0 + hi - lo > len(self.epoch_indices):
            raise ValueError(f"days {first_day}..{first_day + n_days - 1} are outside the scan")
        window = slice(i0, i0 + hi - lo)
        day0 = i0 // EPOCHS_PER_DAY
        actuals = self.actuals[window]
        predictions = self.predictions[window]
        return replace(
            self,
            epoch_indices=self.epoch_indices[window],
            actuals=actuals,
            predictions=predictions,
            residuals=self.residuals[window],
            errors=forecast_errors(actuals, predictions),
            fallback_epochs=tuple(t for t in self.fallback_epochs if lo <= t < hi),
            models=self.models[day0 : day0 + n_days],
        )


def scan_windows(series: RoiTimeSeries, profile: SeasonalProfile | None, start_day: int,
                 n_days: int, orders: Tuple[int, int] | None,
                 train_days: int = 5) -> list[np.ndarray]:
    """Each scanned day's training window; ``ValueError`` for a scan ``rolling_scan`` refuses."""
    epd = EPOCHS_PER_DAY
    if train_days < 1 or n_days < 1:
        raise ValueError("train_days and n_days must be >= 1")
    if start_day < train_days:
        raise ValueError(
            f"day {start_day} has only {start_day} days of history, need {train_days}"
        )
    scan_end = (start_day + n_days) * epd
    if scan_end > len(series):
        raise ValueError(f"scan ends at epoch {scan_end}, series has {len(series)}")
    d = series.values if profile is None else deseasonalize(series, profile).values
    p, q = orders or (0, 0)  # None: AIC selects orders, and those always fit
    # checked here: fit_day takes fit_arma's ValueError for a failed fit
    if p < 0 or q < 0 or 10 * (p + q + 1) > train_days * epd:
        raise ValueError(f"ARMA({p},{q}) cannot fit a {train_days * epd}-slot training window")
    return [d[(day - train_days) * epd : day * epd] for day in range(start_day, start_day + n_days)]


def fit_day(window: np.ndarray, orders: Tuple[int, int]) -> ArmaModel | None:
    """One scanned day's fit on its training window; None where the fit fails."""
    try:
        return fit_arma(window, *orders)
    except (FitError, ValueError, np.linalg.LinAlgError):
        return None


def assemble_scan(series: RoiTimeSeries, profile: SeasonalProfile | None, start_day: int,
                  orders: Tuple[int, int], models: Sequence[ArmaModel | None],
                  train_days: int = 5) -> RollingForecast:
    """The scan of days ``start_day`` on, from ``fit_day``'s model for each day.

    A failed fit (None) falls back to the seasonal mean (zero de-seasonalized,
    the window mean raw), and its slots are flagged."""
    epd = EPOCHS_PER_DAY
    d = series.values if profile is None else deseasonalize(series, profile).values
    d_hat = np.empty((len(models), epd))
    fallback: list[int] = []
    for k, model in enumerate(models):
        w0, w1 = (start_day + k - train_days) * epd, (start_day + k) * epd
        if model is None:
            d_hat[k] = 0.0 if profile is not None else float(d[w0:w1].mean())
            fallback.extend(range(w1, w1 + epd))
        else:
            eps = css_innovations(d[w0 : w1 + epd], model.const, model.ar, model.ma)
            d_hat[k] = d[w1 : w1 + epd] - eps[-epd:]

    idx = np.arange(start_day * epd, (start_day + len(models)) * epd)
    actuals = series.values[idx]
    d_hat = d_hat.ravel()
    preds = d_hat + (series.values - d)[idx]
    return RollingForecast(
        roi_id=series.roi_id,
        epoch_indices=idx,
        actuals=actuals,
        predictions=preds,
        residuals=d[idx] - d_hat,
        errors=forecast_errors(actuals, preds),
        orders=tuple(orders),
        fallback_epochs=tuple(fallback),
        models=tuple(models),
    )


def rolling_scan(
    series: RoiTimeSeries,
    profile: SeasonalProfile | None,
    start_day: int,
    n_days: int,
    orders: Tuple[int, int] | None = None,
    train_days: int = 5,
) -> RollingForecast:
    """Scan ``n_days`` consecutive days starting at ``start_day``.

    With a profile the model runs on de-seasonalized values and predictions
    are re-seasonalized; without one it runs on the raw series (the black-box
    baseline). Every day is fitted at ``orders`` (``fit_day``); orders no
    training window can fit raise ``ValueError``. With no ``orders``, AIC
    picks them on ``start_day``'s training window by ``select_order``'s rule,
    and the winning fit serves that day. A day whose fit fails falls back to
    the seasonal mean, see ``assemble_scan``.
    """
    windows = scan_windows(series, profile, start_day, n_days, orders, train_days)
    if orders is None:
        orders, winner = _select_model(windows[0])
        models = [winner, *(fit_day(window, orders) for window in windows[1:])]
    else:
        models = [fit_day(window, orders) for window in windows]
    return assemble_scan(series, profile, start_day, orders, models, train_days)
