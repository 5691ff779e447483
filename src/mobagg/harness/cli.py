"""Command line front end.

    mobagg ingest     CSV of trips or GPS fixes -> per-ROI count series
    mobagg forecast   count series -> one-day forecast report + model dump
    mobagg anomalies  count series -> ranked anomaly report
    mobagg enhance    count series -> helper-assisted forecast report
    mobagg simulate   run aggregation rounds, report exact overhead
    mobagg sketch-bench  sketch sizing table, optional empirical error

Global flags (before the subcommand): --seed, --config <json>, --out <dir>,
--strict. Values in the config JSON are defaults; explicit flags win.
Exit codes: 0 ok, 1 validation or input error, 2 protocol oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from datetime import datetime
from pathlib import Path
from typing import Sequence

import numpy as np

from .. import sketch as cms
from ..ingest import (
    GridSpec,
    ParseFailure,
    grid_series,
    parse_gps,
    parse_trips,
    read_series_csv,
    station_series,
    write_series_csv,
)
from ..timeseries import EPOCHS_PER_DAY, EpochSpec, deseasonalize, seasonal_profile
from .reports import (
    format_overhead_table,
    overhead_report,
    write_overhead_csv,
    write_round_reports,
)
from .simulate import MODES, OracleMismatch, SimConfig, setup_users, simulate_round
from .transport import InProcessTransport, TcpLoopbackTransport

_SF = GridSpec.san_francisco()


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _orders(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    try:
        p, q = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError("--orders must be p,q") from None
    return p, q


def _orders_help(day: str) -> str:
    return (
        "p,q (default: AIC over ARMA(<=3, <=2) on the --train-days window "
        f"before the {day})"
    )


# --- subcommand bodies ---

def cmd_ingest(args: argparse.Namespace) -> int:
    epochs = EpochSpec(start=datetime.fromisoformat(args.start), n_epochs=args.epochs)
    if args.kind == "station":
        if args.n_stations is None:
            raise ValueError("station ingest needs --n-stations")
        if args.n_stations < 1:
            raise ValueError(f"--n-stations must be at least 1, got {args.n_stations}")
        excluded = [m for m in (args.exclude_modes or "").split(",") if m]
        result = parse_trips(args.input, strict=args.strict, exclude_modes=excluded)
        stations = station_series(result.records, epochs, args.n_stations)
        out = _out_dir(args)
        write_series_csv(stations.tap_in, out / "station_in.csv")
        write_series_csv(stations.tap_out, out / "station_out.csv")
        write_series_csv(stations.combined(), out / "station_total.csv")
        print(
            f"{len(result.records)} trips ({len(result.errors)} bad rows), "
            f"{stations.dropped} events outside range -> {out}"
        )
    else:
        grid = GridSpec(
            origin_lat=args.grid_origin_lat,
            origin_lon=args.grid_origin_lon,
            rows=args.grid_rows,
            cols=args.grid_cols,
            cell_height_deg=args.cell_height_deg,
            cell_width_deg=args.cell_width_deg,
        )
        result = parse_gps(args.input, strict=args.strict)
        cells = grid_series(result.records, grid, epochs)
        out = _out_dir(args)
        write_series_csv(cells, out / "grid_cells.csv", grid=grid)
        print(
            f"{len(result.records)} fixes ({len(result.errors)} bad rows), "
            f"{cells.dropped} outside range -> {out}"
        )
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    from ..forecast import FitError, rolling_scan, write_forecast_report, write_model_dump

    series_set = read_series_csv(args.series)
    series = series_set.series(args.roi)
    profile = None if args.raw else seasonal_profile(series)
    n_days = series_set.epochs.n_epochs // EPOCHS_PER_DAY
    test_day = args.test_day if args.test_day is not None else n_days - 1
    fc = rolling_scan(series, profile, test_day, 1, _orders(args.orders),
                      train_days=args.train_days)
    (model,) = fc.models
    if model is None:
        raise FitError("ARMA(%d,%d) could not be fitted for day %d" % (*fc.orders, test_day))
    rows = [
        (args.roi, int(e), float(a), float(p))
        for e, a, p in zip(fc.epoch_indices, fc.actuals, fc.predictions)
    ]
    out = _out_dir(args)
    write_forecast_report(out / "forecast.csv", rows)
    write_model_dump(out / "model.json", model)
    print(
        f"roi {args.roi} day {test_day}: orders {fc.orders}, "
        f"MAE {fc.errors.mean:.4f} -> {out}"
    )
    return 0


def cmd_anomalies(args: argparse.Namespace) -> int:
    from ..forecast import rank_anomalies, write_anomaly_report
    from .pipeline import _check_keep_fraction, analyze_rois

    _check_keep_fraction(args.keep_fraction)
    series_set = read_series_csv(args.series)
    n_days = series_set.epochs.n_epochs // EPOCHS_PER_DAY
    days = args.days if args.days is not None else n_days - args.start_day
    rois = range(series_set.n_rois) if args.roi is None else [args.roi]
    analyses = analyze_rois(
        [series_set.series(roi) for roi in rois], args.start_day, days,
        train_days=args.train_days,
        calibration_days=args.calibration_days,
        orders=_orders(args.orders),
    )
    events = [e for a in analyses for e in a.events]
    ranked = rank_anomalies(events, args.keep_fraction) if events else []
    out = _out_dir(args)
    write_anomaly_report(out / "anomalies.csv", ranked)
    print(f"{len(events)} flagged slots, kept {len(ranked)} -> {out}")
    return 0


def cmd_enhance(args: argparse.Namespace) -> int:
    from ..forecast import rolling_scan, write_enhancement_report
    from .pipeline import _check_helper_search, enhance_roi

    _check_helper_search(args.top_k, args.max_lag)
    series_set = read_series_csv(args.series)
    if series_set.n_rois < 2:
        raise ValueError("enhancement needs at least two ROIs in the series file")
    target = series_set.series(args.target)
    every = [series_set.series(r) for r in range(series_set.n_rois)]
    profiles = [seasonal_profile(s) for s in every]
    d_all = [deseasonalize(s, p) for s, p in zip(every, profiles)]
    n_days = series_set.epochs.n_epochs // EPOCHS_PER_DAY
    test_day = args.test_day if args.test_day is not None else n_days - 1
    baseline = rolling_scan(target, profiles[args.target], test_day, 1, _orders(args.orders),
                            train_days=args.train_days)
    enh, helper_ids = enhance_roi(
        d_all, baseline, train_days=args.train_days, top_k=args.top_k, max_lag=args.max_lag,
    )
    if enh is None:
        raise ValueError("no usable helper series (all correlations undefined)")
    out = _out_dir(args)
    write_enhancement_report(out / "enhancement.csv", enh, helper_ids)
    print(
        f"roi {args.target} day {test_day}: helpers {list(helper_ids)}, "
        f"improvement {enh.improvement:+.1%}"
        + (" (fell back)" if enh.fell_back else "")
        + f" -> {out}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.rounds < 1:
        raise ValueError(f"--rounds must be at least 1, got {args.rounds}")
    config = SimConfig(
        n_users=args.users,
        group_size=args.group_size,
        threshold=args.threshold,
        mode=args.mode,
        dropout_rate=args.dropout,
        n_stations=args.n_stations,
        grid_rows=args.grid_rows,
        grid_cols=args.grid_cols,
        sketch_epsilon=args.epsilon,
        sketch_delta=args.delta,
        seed=args.seed,
    )
    out = _out_dir(args)  # after the config, so a refused run leaves no directory
    rng = random.Random(args.seed)
    keys = setup_users(config.n_users, rng)
    transport = (
        TcpLoopbackTransport() if args.transport == "tcp" else InProcessTransport()
    )
    plain_len = config.plain_length()
    reports = []
    try:
        for round_id in range(args.rounds):
            vectors = np.random.default_rng(rng.getrandbits(64)).integers(
                0, 4, (config.n_users, plain_len)
            )
            outcome = simulate_round(config, vectors, keys, round_id, rng, transport)
            reports.append(outcome.report)
    finally:
        transport.close()
    write_round_reports(out / "rounds.csv", reports)
    rows = overhead_report(reports)
    write_overhead_csv(out / "overhead.csv", rows)
    print(format_overhead_table(rows))
    print(f"-> {out}")
    return 0


def cmd_sketch_bench(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.items < 0:
        raise ValueError(f"--items must be >= 0, got {args.items}")
    print(
        f"{'input_size':>12}{'depth':>7}{'width':>7}{'counters':>10}"
        f"{'bytes':>10}{'KB':>9}{'KiB':>9}"
        + (f"{'max_over':>10}{'in_bound':>9}" if args.items else "")
    )
    rng = random.Random(args.seed)
    for size in sizes:
        params = cms.make_params(size, args.epsilon, args.delta)
        payload = 4 * params.table_size
        line = (
            f"{size:>12}{params.depth:>7}{params.width:>7}{params.table_size:>10}"
            f"{payload:>10}{payload / 1e3:>9.2f}{payload / 1024:>9.2f}"
        )
        if args.items:
            seeds = cms.draw_seeds(params.depth, rng)
            truth: dict[int, int] = {}
            for _ in range(args.items):
                key = rng.randrange(size)
                amount = rng.randrange(1, 10)
                truth[key] = truth.get(key, 0) + amount
            # only the drawn keys are hashed: the key space may be 10**9 wide
            keys = np.fromiter(truth.keys(), dtype=np.int64, count=len(truth))
            counts = np.fromiter(truth.values(), dtype=np.int64, count=len(truth))
            grid = cms.encode_keys(keys, counts, params, seeds)
            overs = cms.estimate_keys(grid, keys, params, seeds) - counts
            in_bound = np.count_nonzero(overs <= args.epsilon * counts.sum()) / overs.size
            line += f"{overs.max():>10}{in_bound:>9.3f}"
        print(line)
    return 0


# --- parser ---

def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """Build the CLI parser; ``defaults`` (from --config) seed every level.

    Subparsers parse into a fresh namespace, so config defaults must be
    installed on each of them, not just the root; explicit flags still win.
    """
    parser = argparse.ArgumentParser(prog="mobagg", description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--config", type=str, default=None, help="JSON file of defaults")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument("--strict", action="store_true", help="fail on first bad input row")
    sub = parser.add_subparsers(dest="command", required=True)
    children: list[argparse.ArgumentParser] = []

    p = sub.add_parser("ingest", help="parse raw CSV into count series")
    children.append(p)
    p.add_argument("--kind", choices=("station", "grid"), required=True)
    p.add_argument("--input", required=True, help="trip or GPS CSV")
    p.add_argument("--start", required=True, help="first epoch start, ISO timestamp")
    p.add_argument("--epochs", type=int, required=True, help="number of hourly epochs")
    p.add_argument("--n-stations", type=int, default=None)
    p.add_argument("--exclude-modes", type=str, default="", help="comma list, e.g. bus,tram")
    p.add_argument("--grid-rows", type=int, default=_SF.rows)
    p.add_argument("--grid-cols", type=int, default=_SF.cols)
    p.add_argument("--grid-origin-lat", type=float, default=_SF.origin_lat)
    p.add_argument("--grid-origin-lon", type=float, default=_SF.origin_lon)
    p.add_argument("--cell-height-deg", type=float, default=_SF.cell_height_deg)
    p.add_argument("--cell-width-deg", type=float, default=_SF.cell_width_deg)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("forecast", help="one-day rolling forecast for one ROI")
    children.append(p)
    p.add_argument("--series", required=True, help="count series CSV (with .meta.json)")
    p.add_argument("--roi", type=int, required=True)
    p.add_argument("--test-day", type=int, default=None)
    p.add_argument("--train-days", type=int, default=5)
    p.add_argument("--orders", type=str, default=None, help=_orders_help("test day"))
    p.add_argument("--raw", action="store_true", help="skip the seasonal profile")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("anomalies", help="scan for 3-sigma residuals and rank them")
    children.append(p)
    p.add_argument("--series", required=True)
    p.add_argument("--roi", type=int, default=None, help="default: all ROIs")
    p.add_argument("--start-day", type=int, default=12)
    p.add_argument("--days", type=int, default=None, help="default: through the end")
    p.add_argument("--train-days", type=int, default=5)
    p.add_argument("--calibration-days", type=int, default=7)
    p.add_argument("--keep-fraction", type=float, default=0.10)
    p.add_argument("--orders", type=str, default=None, help=_orders_help("--start-day"))
    p.set_defaults(func=cmd_anomalies)

    p = sub.add_parser("enhance", help="helper-assisted forecast for one ROI")
    children.append(p)
    p.add_argument("--series", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--test-day", type=int, default=None)
    p.add_argument("--train-days", type=int, default=5)
    p.add_argument("--top-k", type=int, default=2)
    p.add_argument("--max-lag", type=int, default=1)
    p.add_argument("--orders", type=str, default=None, help=_orders_help("test day"))
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("simulate", help="run aggregation rounds and report overhead")
    children.append(p)
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--group-size", type=int, default=50)
    p.add_argument("--threshold", type=int, default=2)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--mode", choices=MODES, default="station")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--n-stations", type=int, default=582)
    p.add_argument("--grid-rows", type=int, default=100)
    p.add_argument("--grid-cols", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--transport", choices=("memory", "tcp"), default="memory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sketch-bench", help="sketch sizing table")
    children.append(p)
    p.add_argument("--sizes", type=str, default="10000,1000000", help="comma list")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--items", type=int, default=0, help="empirical updates per size (0: skip)")
    p.set_defaults(func=cmd_sketch_bench)

    if defaults:
        parser.set_defaults(**defaults)
        for child in children:
            child.set_defaults(**defaults)
    return parser


def _input_errors() -> tuple[type[Exception], ...]:
    """What ``main`` reports as exit code 1.

    ``FitError`` joins once the analytics loaded ``forecast.arma``, the only
    code that raises it, so the protocol commands never import it.
    """
    errors = (ValueError, FileNotFoundError, ParseFailure)
    arma = sys.modules.get("mobagg.forecast.arma")
    return errors if arma is None else (*errors, arma.FitError)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # config JSON supplies defaults; anything passed explicitly still wins
    config_path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    try:
        defaults = (
            json.loads(Path(config_path).read_text()) if config_path is not None else None
        )
        if defaults is not None and not isinstance(defaults, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
        parser = build_parser(defaults)
        args = parser.parse_args(argv)
        return args.func(args)
    except OracleMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _input_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for oracle
        # mismatches here, so fold usage problems into the validation code
        return 0 if exc.code in (0, None) else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
