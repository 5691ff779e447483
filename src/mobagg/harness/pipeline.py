"""End-to-end wiring: protocol rounds feed the analytics, nothing else does.

The pipeline has a hard seam down the middle. ``collect_aggregate_series``
touches per-user data and runs one aggregation round per epoch;
``analyze_aggregates`` takes only the recovered count matrix. Analytics can
never see an individual vector because no interface carries one across the
seam.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from ..forecast import (
    AnomalyEvent,
    EnhancedForecast,
    RollingForecast,
    correlated_rois,
    detect_anomalies,
    enhanced_forecast,
    rank_anomalies,
    rolling_scan,
    select_order,
    write_anomaly_report,
    write_enhancement_report,
    write_forecast_report,
)
from ..ingest import SeriesSet
from ..timeseries import (
    EPOCHS_PER_DAY,
    RoiTimeSeries,
    SeasonalProfile,
    adf_stationary,
    deseasonalize,
    seasonal_profile,
)
from .simulate import RoundReport, SimConfig, setup_users, simulate_round, synthesize_users
from .synth import synthetic_counts
from .transport import InProcessTransport


def _check_scan_window(scan_start_day: int, train_days: int, calibration_days: int) -> None:
    if calibration_days < 1:
        raise ValueError("calibration_days must be >= 1")
    if scan_start_day < train_days + calibration_days:
        raise ValueError(
            "scan_start_day needs train_days + calibration_days of history before it"
        )


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one collection-plus-analytics run."""

    sim: SimConfig
    weeks: int = 4
    train_days: int = 5
    calibration_days: int = 7          # out-of-sample window sizing the 3-sigma band
    scan_start_day: int = 12           # first day of the anomaly scan
    keep_fraction: float = 0.10
    top_k: int = 2
    max_lag: int = 1
    arma_orders: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.weeks < 1:
            raise ValueError("weeks must be >= 1")
        _check_scan_window(self.scan_start_day, self.train_days, self.calibration_days)


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
    they cover online users only. One call is one key set: its cohort gets
    fresh keys, so every round of the call meets the same groups, and each
    member exchanges with each group peer once, in the first round it submits.
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

@dataclass(frozen=True)
class RoiAnalysis:
    """One ROI's profile, rolling scan and 3-sigma events.

    ``scan`` runs from the first calibration day through the last scanned
    day; (mu, sigma) come from its calibration slots, ``events`` from the rest.
    ``seconds`` is the wall time of the ``analyze_roi`` call that built it,
    measured in the process that ran it.
    """

    profile: SeasonalProfile
    deseasonalized: RoiTimeSeries
    scan: RollingForecast
    mu: float
    sigma: float
    events: tuple[AnomalyEvent, ...]
    seconds: float = field(compare=False)


def aic_orders(values: np.ndarray, day: int, train_days: int = 5) -> tuple[int, int]:
    """The ARMA orders for a scan from ``day`` when none are given.

    This is the one order-selection rule of the analytics: AIC over
    ``select_order``'s default grid, ARMA(<=3, <=2), on the ``train_days``
    training window before ``day``. ``values`` are what the scan fits:
    de-seasonalized counts, or raw ones for a black-box forecast.
    """
    lo, hi = (day - train_days) * EPOCHS_PER_DAY, day * EPOCHS_PER_DAY
    if lo < 0 or hi > len(values):
        raise ValueError(f"the {train_days}-day window before day {day} is outside the series")
    return select_order(values[lo:hi])


def analyze_roi(
    series: RoiTimeSeries,
    start_day: int,
    n_days: int,
    train_days: int = 5,
    calibration_days: int = 7,
    orders: tuple[int, int] | None = None,
) -> RoiAnalysis:
    """Scan ``n_days`` days from ``start_day`` against a calibrated band.

    The band's (mu, sigma) come from the ``calibration_days`` before
    ``start_day``, scanned by the same rolling forecaster. Thresholds must
    come from out-of-sample errors: in-sample innovations understate the
    error scale (fitted parameters absorb part of it, and so does an
    estimated seasonal profile), which makes a 3-sigma band fire far too
    often. Orders default to ``aic_orders`` at ``start_day`` and stay frozen
    for every day of the one rolling scan. Reads nothing but its arguments,
    so ``analyze_rois`` can run it in a worker process; ``seconds`` on the
    result times this call there.
    """
    t0 = time.perf_counter()
    _check_scan_window(start_day, train_days, calibration_days)
    if n_days < 1:
        raise ValueError("the anomaly scan needs at least one day")
    profile = seasonal_profile(series, truncate=True)
    deseasonalized = deseasonalize(series, profile)
    if orders is None:
        orders = aic_orders(deseasonalized.values, start_day, train_days)
    scan = rolling_scan(
        series, profile, start_day - calibration_days, calibration_days + n_days,
        orders, train_days=train_days,
    )
    split = calibration_days * EPOCHS_PER_DAY
    calibration = scan.residuals[:split]
    mu, sigma = float(calibration.mean()), float(calibration.std())
    events: tuple[AnomalyEvent, ...] = ()
    if np.isfinite(sigma) and sigma > 0:
        events = tuple(
            detect_anomalies(
                scan.residuals[split:], mu, sigma,
                roi_id=series.roi_id, epoch_offset=int(scan.epoch_indices[split]),
            )
        )
    return RoiAnalysis(
        profile, deseasonalized, scan, mu, sigma, events, time.perf_counter() - t0,
    )


def _worker_count(n_rois: int) -> int:
    """One worker per CPU this process may run on, at most one per ROI.

    1, the in-process loop, where ``fork`` or ``os.sched_getaffinity`` is
    missing, or while other threads run: a forked child holds only the
    calling thread, and a lock another thread held stays held in it.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(len(os.sched_getaffinity(0)), n_rois)


def analyze_rois(
    series: Sequence[RoiTimeSeries],
    start_day: int,
    n_days: int,
    train_days: int = 5,
    calibration_days: int = 7,
    orders: tuple[int, int] | None = None,
) -> list[RoiAnalysis]:
    """``analyze_roi`` over every series, in order, one worker per CPU.

    ROIs are independent, so forked workers each take whole ROIs and every
    fit stays bit for bit what the in-process loop computes. The pool lives
    for this call only. Where ``_worker_count`` gives one worker, the same
    map runs in-process. A worker's exception reaches the caller with its
    type and message.
    """
    _check_scan_window(start_day, train_days, calibration_days)
    if n_days < 1:
        raise ValueError("the anomaly scan needs at least one day")
    analyze = partial(
        analyze_roi, start_day=start_day, n_days=n_days,
        train_days=train_days, calibration_days=calibration_days, orders=orders,
    )
    workers = _worker_count(len(series))
    if workers <= 1:
        return [analyze(s) for s in series]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(analyze, series))


def enhance_roi(
    deseasonalized: Sequence[RoiTimeSeries],
    baseline: RollingForecast,
    train_days: int = 5,
    top_k: int = 2,
    max_lag: int = 1,
) -> tuple[EnhancedForecast | None, tuple[int, ...]]:
    """VAR forecast of the baseline's day helped by the best-correlated ROIs.

    ``deseasonalized`` holds every ROI's series, the target's too;
    ``baseline`` is the target's one-day slice of a rolling scan, so that
    day is not fitted again. (None, ()) when no ROI correlates.
    """
    by_id = {s.roi_id: s for s in deseasonalized}
    target = by_id[baseline.roi_id]
    matches = correlated_rois(target, deseasonalized, max_lag_epochs=max_lag, top_k=top_k)
    helper_ids = tuple(m.candidate_roi for m in matches)
    if not helper_ids:
        return None, ()
    enhancement = enhanced_forecast(
        baseline, target, [by_id[h] for h in helper_ids], train_days=train_days,
    )
    return enhancement, helper_ids


def analyze_aggregates(
    aggregates: SeriesSet,
    config: PipelineConfig,
    out_dir: str | Path,
) -> PipelineResult:
    """Analyze every ROI, rank, and enhance; emits the three report CSVs.

    The per-ROI scans run through ``analyze_rois``, one worker process per
    available CPU; the reports are byte-identical to an in-process run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_days = aggregates.epochs.n_epochs // EPOCHS_PER_DAY
    scan_days = n_days - config.scan_start_day
    analyses = analyze_rois(
        [aggregates.series(roi) for roi in range(aggregates.n_rois)],
        config.scan_start_day, scan_days,
        train_days=config.train_days,
        calibration_days=config.calibration_days,
        orders=config.arma_orders,
    )
    stationary = {r: adf_stationary(a.deseasonalized).stationary for r, a in enumerate(analyses)}
    scans = {r: a.scan.days(config.scan_start_day, scan_days) for r, a in enumerate(analyses)}
    # the forecast report covers the last day, where every scan ends
    forecasts = {r: a.scan.days(n_days - 1, 1) for r, a in enumerate(analyses)}
    forecast_rows = [
        (roi, int(e), float(a), float(p))
        for roi, fc in forecasts.items()
        for e, a, p in zip(fc.epoch_indices, fc.actuals, fc.predictions)
    ]
    events = [e for a in analyses for e in a.events]
    ranked = tuple(rank_anomalies(events, config.keep_fraction)) if events else ()

    enhancement: EnhancedForecast | None = None
    helper_ids: tuple[int, ...] = ()
    if ranked:
        top = ranked[0]
        enhancement, helper_ids = enhance_roi(
            [a.deseasonalized for a in analyses],
            analyses[top.roi_id].scan.days(top.epoch_index // EPOCHS_PER_DAY, 1),
            train_days=config.train_days, top_k=config.top_k, max_lag=config.max_lag,
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
