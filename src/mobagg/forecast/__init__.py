"""Forecasting, anomaly detection, and cross-ROI correlation."""

from .anomaly import AnomalyEvent, detect_anomalies, rank_anomalies, thresholds
from .arma import ArmaModel, FitError, css_innovations, fit_arma, select_order
from .correlate import CorrelationResult, average_ranks, correlated_rois, spearman
from .enhanced import EnhancedForecast, enhanced_forecast
from .reports import (
    write_anomaly_report,
    write_enhancement_report,
    write_forecast_report,
    write_model_dump,
)
from .rolling import RollingForecast, assemble_scan, fit_day, rolling_scan, scan_windows
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
    "assemble_scan",
    "average_ranks",
    "correlated_rois",
    "css_innovations",
    "detect_anomalies",
    "enhanced_forecast",
    "fit_arma",
    "fit_day",
    "fit_var",
    "forecast_var",
    "lagged_design",
    "rank_anomalies",
    "rolling_scan",
    "scan_windows",
    "select_order",
    "spearman",
    "thresholds",
    "write_anomaly_report",
    "write_enhancement_report",
    "write_forecast_report",
    "write_model_dump",
]
