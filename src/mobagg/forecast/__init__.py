"""Forecasting, anomaly detection, and cross-ROI correlation."""

from .anomaly import AnomalyEvent, detect_anomalies, rank_anomalies, thresholds
from .arma import ArmaModel, FitError, css_innovations, fit_arma, forecast_one, select_order
from .correlate import CorrelationResult, average_ranks, correlated_rois, spearman
from .enhanced import EnhancedForecast, enhanced_forecast
from .reports import (
    write_anomaly_report,
    write_enhancement_report,
    write_forecast_report,
    write_model_dump,
)
from .rolling import RollingForecast, rolling_scan
from .var import CollinearInputs, VarModel, fit_var, forecast_var, lagged_design

__all__ = [
    "AnomalyEvent",
    "ArmaModel",
    "CollinearInputs",
    "CorrelationResult",
    "EnhancedForecast",
    "FitError",
    "RollingForecast",
    "VarModel",
    "average_ranks",
    "correlated_rois",
    "css_innovations",
    "detect_anomalies",
    "enhanced_forecast",
    "fit_arma",
    "fit_var",
    "forecast_one",
    "forecast_var",
    "lagged_design",
    "rank_anomalies",
    "rolling_scan",
    "select_order",
    "spearman",
    "thresholds",
    "write_anomaly_report",
    "write_enhancement_report",
    "write_forecast_report",
    "write_model_dump",
]
