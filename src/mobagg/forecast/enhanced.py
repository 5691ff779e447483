"""Forecasts enhanced with correlated helper series through a VAR model.

The VAR forecasts one day of ``EPOCHS_PER_DAY`` hourly slots, and its order
is the baseline's AR order clamped to [1, 3].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..timeseries import EPOCHS_PER_DAY, ForecastErrors, RoiTimeSeries, forecast_errors
from .rolling import RollingForecast
from .var import CollinearInputs, fit_var, forecast_var


@dataclass(frozen=True)
class EnhancedForecast:
    """VAR predictions for one test day, scored against the local baseline.

    The day's slots and actuals are the baseline's. ``improvement`` is
    1 - (VAR MAE / baseline MAE); a failed VAR fit falls back to the
    baseline predictions with improvement 0 and ``fell_back`` set, never an
    exception.
    """

    roi_id: int
    predictions: np.ndarray
    errors: ForecastErrors
    baseline: RollingForecast
    improvement: float
    fell_back: bool
    var_order: int


def enhanced_forecast(
    baseline: RollingForecast,
    target: RoiTimeSeries,
    helpers: Sequence[RoiTimeSeries],
    train_days: int = 5,
) -> EnhancedForecast:
    """One-step VAR forecasts of the baseline's day helped by peers.

    ``baseline`` is the target's one-day slice of its rolling scan; the test
    day, actuals and orders come from it. ``target`` is the series that scan
    modelled (de-seasonalized, or raw without a profile) and ``helpers`` are
    de-seasonalized peers of its length. The VAR rolls through the day like
    the scalar forecaster (truth fed back each slot, fit frozen at the day
    boundary) and gets the baseline's seasonal offset back. The VAR order
    is the baseline's AR order clamped to [1, 3].
    """
    if not helpers:
        raise ValueError("enhanced forecast needs at least one helper series")
    epd = EPOCHS_PER_DAY
    idx = baseline.epoch_indices
    if len(idx) != epd or idx[0] % epd:
        raise ValueError(f"the baseline must cover exactly one day, it has {len(idx)} slots")
    if baseline.roi_id != target.roi_id:
        raise ValueError(f"baseline is for ROI {baseline.roi_id}, target is {target.roi_id}")
    w1 = int(idx[0])
    w0 = w1 - train_days * epd
    if w0 < 0:
        raise ValueError(f"the test day has less than {train_days} days of history")
    seasonal = baseline.actuals - target.values[idx]

    columns = [target.values]
    for h in helpers:
        if len(h) != len(target):
            raise ValueError(
                f"helper {h.roi_id} has length {len(h)}, target has {len(target)}"
            )
        columns.append(h.values)
    data = np.column_stack(columns)

    p_var = max(1, min(3, baseline.orders[0]))

    try:
        model = fit_var([data[w0:w1, j] for j in range(data.shape[1])], p_var)
        history = list(data[w0:w1])
        preds = np.empty(epd)
        for slot, t in enumerate(range(w1, w1 + epd)):
            step = forecast_var(model, np.asarray(history[-model.p :]))
            preds[slot] = step[0] + seasonal[slot]
            history.append(data[t])
    except (CollinearInputs, ValueError, np.linalg.LinAlgError):
        return EnhancedForecast(
            roi_id=target.roi_id,
            predictions=baseline.predictions.copy(),
            errors=baseline.errors,
            baseline=baseline,
            improvement=0.0,
            fell_back=True,
            var_order=p_var,
        )

    errors = forecast_errors(baseline.actuals, preds)
    base_mae = baseline.errors.mean
    improvement = 1.0 - errors.mean / base_mae if base_mae > 0 else 0.0
    return EnhancedForecast(
        roi_id=target.roi_id,
        predictions=preds,
        errors=errors,
        baseline=baseline,
        improvement=float(improvement),
        fell_back=False,
        var_order=p_var,
    )
