"""Rolling one-step-ahead forecasts over a de-seasonalized window.

The forecaster works a day (``EPOCHS_PER_DAY`` hourly slots) at a time:
refit on the trailing training window at the day boundary, then walk the
day's slots predicting one step ahead and feeding the true observation back
in before the next slot. Predictions are re-seasonalized before scoring, so
errors are in observed-count units.
Each day depends only on its own training window, so any run of days can be
taken out of a longer scan (``RollingForecast.days``) unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from ..timeseries import (
    EPOCHS_PER_DAY,
    ForecastErrors,
    RoiTimeSeries,
    SeasonalProfile,
    deseasonalize,
    forecast_errors,
)
from .arma import ArmaModel, FitError, fit_arma, forecast_one


@dataclass(frozen=True)
class RollingForecast:
    """One-step predictions over consecutive scanned days for one ROI.

    ``residuals`` are signed (actual - predicted) and out-of-sample, which
    is what anomaly thresholds need, see ``harness.pipeline.analyze_roi``.
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


def rolling_scan(
    series: RoiTimeSeries,
    profile: SeasonalProfile | None,
    start_day: int,
    n_days: int,
    orders: Tuple[int, int],
    train_days: int = 5,
) -> RollingForecast:
    """Scan ``n_days`` consecutive days starting at ``start_day``.

    With a profile the model runs on de-seasonalized values and predictions
    are re-seasonalized; without one it runs on the raw series (the black-box
    baseline). Every day is fitted at ``orders``; orders no training window
    can fit raise ``ValueError``. A day whose fit fails falls back to the
    seasonal mean (zero in de-seasonalized space, the window mean in raw
    space) and its slots are flagged rather than raised.
    """
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

    if profile is not None:
        d = deseasonalize(series, profile).values
    else:
        d = series.values
    seasonal = series.values - d

    p, q = orders
    # checked once: the day loop below takes fit_arma's ValueError for a failed fit
    if p < 0 or q < 0 or 10 * (p + q + 1) > train_days * epd:
        raise ValueError(f"ARMA({p},{q}) cannot fit a {train_days * epd}-slot training window")

    predictions: list[float] = []
    residuals: list[float] = []
    fallback: list[int] = []
    models: list[ArmaModel | None] = []

    for day in range(start_day, start_day + n_days):
        w0 = (day - train_days) * epd
        w1 = day * epd
        window = d[w0:w1]
        try:
            model = fit_arma(window, p, q)
        except (FitError, ValueError, np.linalg.LinAlgError):
            model = None
        models.append(model)

        history = list(window)
        innovations = list(model.residuals) if model is not None else []
        for t in range(w1, w1 + epd):
            if model is None:
                d_hat = 0.0 if profile is not None else float(window.mean())
                fallback.append(t)
            else:
                d_hat = forecast_one(model, history, innovations)
            predictions.append(d_hat + seasonal[t])
            d_true = float(d[t])
            residuals.append(d_true - d_hat)
            history.append(d_true)
            innovations.append(d_true - d_hat if model is not None else 0.0)

    idx = np.arange(start_day * epd, scan_end)
    actuals = series.values[idx]
    preds = np.asarray(predictions)
    return RollingForecast(
        roi_id=series.roi_id,
        epoch_indices=idx,
        actuals=actuals,
        predictions=preds,
        residuals=np.asarray(residuals),
        errors=forecast_errors(actuals, preds),
        orders=(p, q),
        fallback_epochs=tuple(fallback),
        models=tuple(models),
    )
