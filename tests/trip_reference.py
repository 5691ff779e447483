"""The per-row trip parser and binner, written out a second time for the tests.

``parse_trips`` reads a trip CSV one ``csv.DictReader`` row at a time into a
list of ``TripRecord``; ``station_series`` bins such records one endpoint at
a time with ``EpochSpec.index_of``. The columnar reader and binner in
``mobagg.ingest`` must accept the same rows, report the same errors at the
same lines and count the same taps as these.
"""

from __future__ import annotations

import csv
from datetime import datetime

import numpy as np

from mobagg.ingest import (
    TRIP_FIELDS,
    ParseFailure,
    ParseResult,
    RowError,
    SeriesSet,
    StationSeries,
    TripRecord,
)


def parse_trips(source, strict=False, exclude_modes=()):
    excluded = {m.strip().lower() for m in exclude_modes}
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise ParseFailure(0, "empty input")
    missing = [c for c in TRIP_FIELDS if c not in reader.fieldnames]
    if missing:
        raise ParseFailure(1, f"missing columns: {', '.join(missing)}")
    result = ParseResult(records=[])
    for row in reader:
        line = reader.line_num
        try:
            rec = _build(row, excluded)
        except (ValueError, KeyError, TypeError) as exc:
            if strict:
                raise ParseFailure(line, str(exc)) from exc
            result.errors.append(RowError(line, str(exc)))
            continue
        if rec is not None:
            result.records.append(rec)
    return result


def _build(row, excluded):
    mode = row.get("mode")
    if mode is not None:
        mode = mode.strip() or None
    if mode is not None and mode.lower() in excluded:
        return None
    return TripRecord(
        card_id=_nonempty(row["card_id"], "card_id"),
        start_time=_minute_time(row["start_time"], "start_time"),
        start_station=_station(row["start_station"], "start_station"),
        end_time=_minute_time(row["end_time"], "end_time"),
        end_station=_station(row["end_station"], "end_station"),
        mode=mode,
    )


def _nonempty(raw, name):
    if raw is None or not raw.strip():
        raise ValueError(f"{name} is empty")
    return raw.strip()


def _minute_time(raw, name):
    try:
        ts = datetime.fromisoformat(_nonempty(raw, name))
    except ValueError:
        raise ValueError(f"{name} is not an ISO-8601 timestamp: {raw!r}") from None
    if ts.tzinfo is not None:
        raise ValueError(
            f"{name} {raw!r} carries a UTC offset; timestamps are naive wall-clock"
        )
    return ts


def _station(raw, name):
    try:
        value = int(_nonempty(raw, name))
    except ValueError:
        raise ValueError(f"{name} is not an integer: {raw!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def station_series(trips, epochs, n_stations):
    tap_in = np.zeros((n_stations, epochs.n_epochs), dtype=np.int64)
    tap_out = np.zeros((n_stations, epochs.n_epochs), dtype=np.int64)
    dropped_in = dropped_out = 0
    for trip in trips:
        t_start = epochs.index_of(trip.start_time)
        if t_start is None or trip.start_station >= n_stations:
            dropped_in += 1
        else:
            tap_in[trip.start_station, t_start] += 1
        t_end = epochs.index_of(trip.end_time)
        if t_end is None or trip.end_station >= n_stations:
            dropped_out += 1
        else:
            tap_out[trip.end_station, t_end] += 1
    return StationSeries(
        tap_in=SeriesSet(tap_in, epochs, dropped_in),
        tap_out=SeriesSet(tap_out, epochs, dropped_out),
    )
