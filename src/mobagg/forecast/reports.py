"""Report files emitted by the forecasting pipeline."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

from ..timeseries import EPOCHS_PER_DAY
from .anomaly import AnomalyEvent
from .arma import ArmaModel
from .enhanced import EnhancedForecast


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def write_forecast_report(
    path: str | Path,
    rows: Iterable[tuple[int, int, float, float]],
) -> Path:
    """Rows of (roi_id, epoch, actual, predicted); the percentage column is
    left empty where the actual count is zero."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["roi_id", "epoch", "actual", "predicted", "abs_err", "pct_err"])
        for roi_id, epoch, actual, predicted in rows:
            abs_err = abs(actual - predicted)
            pct = _fmt(100.0 * abs_err / abs(actual)) if actual != 0 else ""
            writer.writerow([roi_id, epoch, _fmt(actual), _fmt(predicted), _fmt(abs_err), pct])
    return path


def write_anomaly_report(path: str | Path, ranked: Sequence[AnomalyEvent]) -> Path:
    """Ranked events, rank 1 being the largest deviation.

    The ``direction`` column holds the constant "combined".
    """
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["roi_id", "epoch", "direction", "side", "residual",
             "lambda1", "lambda2", "magnitude", "rank"]
        )
        for rank, event in enumerate(ranked, start=1):
            writer.writerow(
                [
                    event.roi_id,
                    event.epoch_index,
                    "combined",
                    event.side,
                    _fmt(event.residual),
                    _fmt(event.lambda1),
                    _fmt(event.lambda2),
                    _fmt(event.magnitude),
                    rank,
                ]
            )
    return path


def write_enhancement_report(
    path: str | Path,
    enhancement: EnhancedForecast | None,
    helper_ids: tuple[int, ...],
) -> Path:
    """One row for the enhanced forecast, or the header alone without one."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["target_roi", "helpers", "test_day", "var_order",
             "baseline_mae", "enhanced_mae", "improvement", "fell_back"]
        )
        if enhancement is not None:
            writer.writerow([
                enhancement.roi_id,
                ";".join(str(h) for h in helper_ids),
                int(enhancement.baseline.epoch_indices[0]) // EPOCHS_PER_DAY,
                enhancement.var_order,
                _fmt(enhancement.baseline.errors.mean),
                _fmt(enhancement.errors.mean),
                _fmt(enhancement.improvement),
                int(enhancement.fell_back),
            ])
    return path


def write_model_dump(path: str | Path, model: ArmaModel) -> Path:
    """Fitted-model record: orders, coefficients, residual summary."""
    path = Path(path)
    tail = model.residuals[model.p :]
    payload = {
        "p": model.p,
        "q": model.q,
        "const": model.const,
        "ar": [float(v) for v in model.ar],
        "ma": [float(v) for v in model.ma],
        "sigma2": model.sigma2,
        "aic": model.aic,
        "loglik": model.loglik,
        "n_obs": model.n_obs,
        "residual_mean": float(tail.mean()) if tail.size else 0.0,
        "residual_std": float(tail.std()) if tail.size else 0.0,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
