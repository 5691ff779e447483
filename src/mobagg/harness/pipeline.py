"""End-to-end wiring: protocol rounds feed the analytics, nothing else does.

The pipeline has a hard seam down the middle. ``collect_aggregate_series``
touches per-user data and runs one aggregation round per epoch;
``analyze_aggregates`` takes only the recovered count matrix. Analytics can
never see an individual vector because no interface carries one across the
seam.

The seam is also an import boundary: importing this module loads the
protocol and NumPy but not ``mobagg.forecast``, and so not SciPy, which only
the analytics use. The forecast names in ``_ANALYTICS`` bind as globals of
this module on first analytics use, through ``_analytics()`` at the top of
each analytics entry point, or on first attribute access through the module
``__getattr__``. They are globals, not local imports, because callers look
them up here: the benchmark's tracer wraps them on this module. The analytics
call all but two of them; ``rolling_scan`` and ``select_order``, like the
imported ``adf_stationary``, stay bound only for the tracer, whose wrap
points must exist. ``analyze_rois`` binds the names before it forks, so the
workers inherit SciPy instead of each importing it again.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..ingest import SeriesSet
from ..timeseries import (
    EPOCHS_PER_DAY,
    RoiTimeSeries,
    adf_stationary,  # not called: a tracer wrap point, see the module docstring
    deseasonalize,
    seasonal_profile,
)
from .simulate import RoundReport, SimConfig, setup_users, simulate_round, synthesize_users
from .synth import synthetic_counts
from .transport import InProcessTransport

if TYPE_CHECKING:
    from ..forecast import AnomalyEvent, EnhancedForecast, RollingForecast

_ANALYTICS = (
    "_select_model",   # forecast.arma's; the others are mobagg.forecast's
    "assemble_scan",
    "correlated_rois",
    "detect_anomalies",
    "enhanced_forecast",
    "fit_day",
    "rank_anomalies",
    "rolling_scan",
    "scan_windows",
    "select_order",
    "write_anomaly_report",
    "write_enhancement_report",
    "write_forecast_report",
)


def _analytics() -> None:
    """Bind the ``_ANALYTICS`` names from ``mobagg.forecast``, once.

    A name already bound stays as it is, so a wrapper set on this module
    before the first analytics call is not replaced.
    """
    if all(name in globals() for name in _ANALYTICS):
        return
    from .. import forecast

    for name in _ANALYTICS:
        globals().setdefault(name, getattr(forecast.arma if name[0] == "_" else forecast, name))


def __getattr__(name: str):
    # PEP 562: only the late names; any other miss stays an AttributeError,
    # so ``from`` imports probing ``__path__`` do not load SciPy
    if name not in _ANALYTICS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _analytics()
    return globals()[name]


def _check_scan_window(scan_start_day: int, train_days: int, calibration_days: int) -> None:
    if train_days < 1:
        raise ValueError("train_days must be >= 1")
    if calibration_days < 1:
        raise ValueError("calibration_days must be >= 1")
    if scan_start_day < train_days + calibration_days:
        raise ValueError(
            "scan_start_day needs train_days + calibration_days of history before it"
        )


def _check_keep_fraction(keep_fraction: float) -> None:
    # rank_anomalies' check, made before any collect round or fit
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")


def _check_helper_search(top_k: int, max_lag: int) -> None:
    # correlated_rois' checks, made before any collect round or fit
    if max_lag < 0:
        raise ValueError("max_lag_epochs must be >= 0")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")


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
        _check_keep_fraction(self.keep_fraction)
        _check_helper_search(self.top_k, self.max_lag)


@dataclass(frozen=True)
class PipelineResult:
    aggregates: SeriesSet
    round_reports: tuple[RoundReport, ...]
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
    """One ROI's de-seasonalized series, rolling scan and 3-sigma events.

    ``scan`` runs from the first calibration day through the last scanned
    day; (mu, sigma) come from its calibration slots, ``events`` from the rest.
    ``seconds`` sums the wall times of the ROI's fit tasks, its order
    selection and its day fits, each measured in the process that ran it.
    """

    deseasonalized: RoiTimeSeries
    scan: RollingForecast
    mu: float
    sigma: float
    events: tuple[AnomalyEvent, ...]
    seconds: float = field(compare=False)


def _run(fn: Callable, *args: object) -> Future:
    """The in-process path's ``submit``: run the task now, return it finished."""
    task: Future = Future()
    try:
        task.set_result(fn(*args))
    except Exception as exc:
        task.set_exception(exc)
    return task


def _timed(fn: Callable, *args: object) -> tuple[object, float]:
    """``fn(*args)`` and its seconds, measured in the process that ran it."""
    t0 = time.perf_counter()
    return fn(*args), time.perf_counter() - t0


def _scan_rois(submit: Callable[..., Future], series: Sequence[RoiTimeSeries], start_day: int,
               n_days: int, train_days: int, calibration_days: int,
               orders: tuple[int, int] | None) -> list[RoiAnalysis]:
    """``analyze_rois``' scans, each fit a task handed to ``submit``.

    A task, a ROI's order selection or one day's fit, carries only its window
    and orders. Day fits follow their ROI's selection, whose winner serves the
    day it trained for. The failed task of lowest (ROI, day) raises, selection first.
    """
    first, end = start_day - calibration_days, start_day + n_days
    prepared = []
    for s in series:
        profile = seasonal_profile(s)
        windows = scan_windows(s, profile, first, end - first, orders, train_days)
        prepared.append((deseasonalize(s, profile), profile, windows))
    tasks: dict[tuple[int, int], Future] = {}   # (ROI, day) -> its fit; day -1: the selection

    def submit_days(r: int, fitted: tuple[int, int]) -> None:
        for day, window in enumerate(prepared[r][2], first):
            if orders is not None or day != start_day:
                tasks[r, day] = submit(_timed, fit_day, window, fitted)

    for r, (_, _, windows) in enumerate(prepared):
        if orders is None:
            tasks[r, -1] = submit(_timed, _select_model, windows[start_day - first])
        else:
            submit_days(r, orders)
    selections = {tasks[r, -1]: r for r in range(len(series)) if orders is None}
    for task in as_completed(selections):   # days queue behind the other selections
        if task.exception() is None:
            submit_days(selections[task], task.result()[0][0])
    results = {key: task.result() for key, task in sorted(tasks.items())}

    analyses = []
    split = calibration_days * EPOCHS_PER_DAY
    for r, s in enumerate(series):
        deseasonalized, profile, _ = prepared[r]
        fitted, seconds = orders, 0.0
        if orders is None:
            (fitted, winner), seconds = results[r, -1]
            results[r, start_day] = winner, 0.0
        models, times = zip(*(results[r, day] for day in range(first, end)))
        scan = assemble_scan(s, profile, first, fitted, models, train_days)
        calibration = scan.residuals[:split]
        mu, sigma = float(calibration.mean()), float(calibration.std())
        events: tuple[AnomalyEvent, ...] = ()
        if np.isfinite(sigma) and sigma > 0:
            events = tuple(
                detect_anomalies(
                    scan.residuals[split:], mu, sigma,
                    roi_id=s.roi_id, epoch_offset=int(scan.epoch_indices[split]),
                )
            )
        analyses.append(RoiAnalysis(deseasonalized, scan, mu, sigma, events, seconds + sum(times)))
    return analyses


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
    """Scan ``n_days`` days from ``start_day`` for every series, in order.

    Each series' band (mu, sigma) comes from the ``calibration_days`` before
    ``start_day``, scanned by the same rolling forecaster. Thresholds must
    come from out-of-sample errors: in-sample innovations understate the
    error scale (fitted parameters absorb part of it, and so does an
    estimated seasonal profile), which makes a 3-sigma band fire far too
    often. Without ``orders``, AIC picks each series' orders on
    ``start_day``'s training window, and they stay frozen for every day of
    its one rolling scan.

    Forked workers take fit tasks, not whole ROIs (``_scan_rois``): the dear
    selections start first and the short day fits fill in behind them. Every
    fit is bit for bit the in-process one. The pool lives for this call only;
    where ``_worker_count`` gives one worker, the tasks run in-process.
    """
    _analytics()
    _check_scan_window(start_day, train_days, calibration_days)
    if n_days < 1:
        raise ValueError("the anomaly scan needs at least one day")
    scan = partial(_scan_rois, series=series, start_day=start_day, n_days=n_days,
                   train_days=train_days, calibration_days=calibration_days, orders=orders)
    workers = _worker_count(len(series))
    if workers <= 1:
        return scan(_run)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return scan(pool.submit)


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
    _analytics()
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

    The per-ROI scans run through ``analyze_rois``, their fits spread over
    the CPUs; the reports are byte-identical to an in-process run.
    """
    _analytics()
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
