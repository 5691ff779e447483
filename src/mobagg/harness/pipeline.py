"""End-to-end wiring: protocol rounds feed the analytics, nothing else does.

The pipeline has a hard seam down the middle. ``collect_aggregate_series``
touches per-user data and runs one aggregation round per epoch;
``analyze_aggregates`` takes only the recovered count matrix. Analytics can
never see an individual vector because no interface carries one across the
seam.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..forecast import (
    AnomalyEvent,
    EnhancedForecast,
    RollingForecast,
    calibrate_residuals,
    correlated_rois,
    detect_anomalies,
    enhanced_forecast,
    rank_anomalies,
    rolling_forecast,
    rolling_scan,
    select_order,
    write_anomaly_report,
    write_forecast_report,
)
from ..ingest import SeriesSet
from ..timeseries import (
    RoiTimeSeries,
    SeasonalProfile,
    adf_stationary,
    deseasonalize,
    seasonal_profile,
)
from .simulate import RoundReport, SimConfig, setup_users, simulate_round, synthesize_users
from .synth import synthetic_counts
from .transport import InProcessTransport

EPOCHS_PER_DAY = 24


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one collection-plus-analytics run."""

    sim: SimConfig
    weeks: int = 4
    train_days: int = 5
    calibration_days: int = 7          # out-of-sample window sizing the 3-sigma band
    test_day: int | None = None        # default: the last day
    scan_start_day: int = 12           # first day of the anomaly scan
    keep_fraction: float = 0.10
    top_k: int = 2
    max_lag: int = 1
    arma_orders: tuple[int, int] | None = None
    # order-selection budget when arma_orders is None; hourly count series
    # rarely justify more structure, and the full grid is slow at scale
    max_p: int = 3
    max_q: int = 2

    def __post_init__(self) -> None:
        if self.weeks < 1:
            raise ValueError("weeks must be >= 1")
        if self.calibration_days < 1:
            raise ValueError("calibration_days must be >= 1")
        if self.scan_start_day < self.train_days + self.calibration_days:
            raise ValueError(
                "scan_start_day needs train_days + calibration_days of history before it"
            )


@dataclass(frozen=True)
class PipelineResult:
    aggregates: SeriesSet
    round_reports: tuple[RoundReport, ...]
    stationary: dict[int, bool]
    forecasts: dict[int, RollingForecast]
    scans: dict[int, RollingForecast]
    anomalies: tuple[AnomalyEvent, ...]
    enhancement: EnhancedForecast | None
    helper_ids: tuple[int, ...]
    paths: dict[str, Path] = field(default_factory=dict)


# --- collection side: the only code that handles per-user vectors ---

def collect_aggregate_series(
    targets: SeriesSet,
    sim: SimConfig,
    rng: random.Random,
    transport: InProcessTransport | None = None,
) -> tuple[SeriesSet, tuple[RoundReport, ...]]:
    """Run one aggregation round per epoch and return the recovered counts.

    ``targets`` is the ground truth each epoch's user population realizes;
    with no dropouts the recovered counts equal it exactly, with dropouts
    they cover online users only.
    """
    if targets.n_rois != sim.plain_length():
        raise ValueError(
            f"targets have {targets.n_rois} ROIs, config vectors carry {sim.plain_length()}"
        )
    keys = setup_users(sim.n_users, rng)
    n_epochs = targets.epochs.n_epochs
    counts = np.zeros((targets.n_rois, n_epochs), dtype=np.int64)
    reports: list[RoundReport] = []
    for epoch in range(n_epochs):
        presence = synthesize_users(targets.counts[:, epoch], sim.n_users, rng)
        outcome = simulate_round(sim, presence, keys, epoch, rng, transport)
        counts[:, epoch] = outcome.values
        reports.append(outcome.report)
    return SeriesSet(counts, targets.epochs), tuple(reports)


# --- analytics side: sees the aggregate matrix and nothing upstream of it ---

def analyze_aggregates(
    aggregates: SeriesSet,
    config: PipelineConfig,
    out_dir: str | Path,
) -> PipelineResult:
    """Profile, scan, rank, and enhance; emits the three report CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_days = aggregates.epochs.n_epochs // EPOCHS_PER_DAY
    test_day = config.test_day if config.test_day is not None else n_days - 1
    if not (config.train_days <= test_day < n_days):
        raise ValueError(f"test day {test_day} is outside the usable range")

    series: dict[int, RoiTimeSeries] = {}
    profiles: dict[int, SeasonalProfile] = {}
    deseasonalized: dict[int, RoiTimeSeries] = {}
    stationary: dict[int, bool] = {}
    orders: dict[int, tuple[int, int]] = {}
    w0 = (config.scan_start_day - config.train_days) * EPOCHS_PER_DAY
    w1 = config.scan_start_day * EPOCHS_PER_DAY
    for roi in range(aggregates.n_rois):
        s = aggregates.series(roi)
        prof = seasonal_profile(s, truncate=True)
        series[roi] = s
        profiles[roi] = prof
        deseasonalized[roi] = deseasonalize(s, prof)
        stationary[roi] = adf_stationary(deseasonalized[roi]).stationary
        # one selection per ROI, frozen for the scan and the test day
        orders[roi] = config.arma_orders or select_order(
            deseasonalized[roi].values[w0:w1], config.max_p, config.max_q
        )

    forecasts: dict[int, RollingForecast] = {}
    forecast_rows: list[tuple[int, int, float, float]] = []
    for roi in range(aggregates.n_rois):
        fc = rolling_forecast(
            series[roi], profiles[roi], test_day,
            train_days=config.train_days, orders=orders[roi],
        )
        forecasts[roi] = fc
        forecast_rows.extend(
            (roi, int(e), float(a), float(p))
            for e, a, p in zip(fc.epoch_indices, fc.actuals, fc.predictions)
        )

    scans: dict[int, RollingForecast] = {}
    events: list[AnomalyEvent] = []
    scan_days = n_days - config.scan_start_day
    for roi in range(aggregates.n_rois):
        mu, sigma = calibrate_residuals(
            series[roi], profiles[roi], config.scan_start_day,
            train_days=config.train_days,
            calibration_days=config.calibration_days,
            orders=orders[roi],
        )
        scan = rolling_scan(
            series[roi], profiles[roi], config.scan_start_day, scan_days,
            train_days=config.train_days, orders=orders[roi],
        )
        scans[roi] = scan
        if np.isfinite(sigma) and sigma > 0:
            events.extend(
                detect_anomalies(
                    scan.residuals, mu, sigma,
                    roi_id=roi, epoch_offset=int(scan.epoch_indices[0]),
                )
            )
    ranked = tuple(rank_anomalies(events, config.keep_fraction)) if events else ()

    enhancement: EnhancedForecast | None = None
    helper_ids: tuple[int, ...] = ()
    if ranked and aggregates.n_rois >= 2:
        top = ranked[0]
        anomaly_day = top.epoch_index // EPOCHS_PER_DAY
        candidates = [deseasonalized[r] for r in sorted(deseasonalized) if r != top.roi_id]
        matches = correlated_rois(
            deseasonalized[top.roi_id], candidates,
            max_lag_epochs=config.max_lag, top_k=config.top_k,
        )
        helper_ids = tuple(m.candidate_roi for m in matches)
        if helper_ids:
            enhancement = enhanced_forecast(
                series[top.roi_id],
                [deseasonalized[h] for h in helper_ids],
                profiles[top.roi_id],
                anomaly_day,
                train_days=config.train_days,
                arma_orders=orders[top.roi_id],
            )

    paths = {
        "forecast": write_forecast_report(out / "forecast.csv", forecast_rows),
        "anomalies": write_anomaly_report(out / "anomalies.csv", ranked),
        "enhancement": write_enhancement_report(
            out / "enhancement.csv", enhancement, helper_ids
        ),
    }
    return PipelineResult(
        aggregates=aggregates,
        round_reports=(),
        stationary=stationary,
        forecasts=forecasts,
        scans=scans,
        anomalies=ranked,
        enhancement=enhancement,
        helper_ids=helper_ids,
        paths=paths,
    )


def write_enhancement_report(
    path: Path,
    enhancement: EnhancedForecast | None,
    helper_ids: tuple[int, ...],
) -> Path:
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
                int(enhancement.epoch_indices[0]) // EPOCHS_PER_DAY,
                enhancement.var_order,
                "%.10g" % enhancement.baseline.errors.mean,
                "%.10g" % enhancement.errors.mean,
                "%.10g" % enhancement.improvement,
                int(enhancement.fell_back),
            ])
    return path


def run_pipeline(
    config: PipelineConfig,
    out_dir: str | Path,
    targets: SeriesSet | None = None,
) -> PipelineResult:
    """Collect aggregates through the protocol, then analyze them.

    ``targets`` defaults to a synthetic city sized so every count is
    realizable by the configured population.
    """
    rng = random.Random(config.sim.seed)
    if targets is None:
        np_rng = np.random.default_rng(config.sim.seed)
        targets = synthetic_counts(
            config.sim.plain_length(), config.weeks, np_rng,
            max_count=min(30, config.sim.n_users),
        )
    aggregates, reports = collect_aggregate_series(targets, config.sim, rng)
    result = analyze_aggregates(aggregates, config, out_dir)
    return replace(result, round_reports=reports)
