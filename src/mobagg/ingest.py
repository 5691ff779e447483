"""Loaders that turn raw mobility records into per-ROI count series.

Two record shapes are supported: station trips (smart-card taps with a start
and end station) and GPS points (vehicle positions snapped to a rectangular
grid). Both reduce to integer count matrices over a shared hourly epoch grid
(``timeseries.EpochSpec``). Trip timestamps are naive wall clock, and one
that carries a UTC offset is a bad row; GPS unix times are read as UTC, so a
file bins the same on every host. Row parsing is lenient by default: bad rows
are collected with their line numbers instead of aborting the file. A file
named by path is read as UTF-8, with or without a leading byte-order mark.

Trips are parsed as columns into a ``Trips`` table. A row in canonical form
is converted with array operations: it has the header's field count, a
non-blank card id, timestamps written exactly ``YYYY-MM-DDTHH:MM`` or
``YYYY-MM-DDTHH:MM:SS`` in ASCII digits that name a real instant, stations of
1 to 18 ASCII digits, an end no earlier than its start and a mode that is not
excluded. Every other row takes the per-row path, in file order, through the
same checks that build a ``TripRecord`` one row at a time, so both paths
accept the same rows and report the same errors at the same lines.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import chain, compress, islice
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .timeseries import EPOCH_SECONDS, EpochSpec, RoiTimeSeries

#: Cell id for coordinates outside the grid; a value, not an error.
OUT_OF_GRID = -1

_UNIX_EPOCH = datetime(1970, 1, 1)

TRIP_FIELDS = ("card_id", "start_time", "start_station", "end_time", "end_station")
GPS_FIELDS = ("cab_id", "lat", "lon", "unix_time")


class ParseFailure(ValueError):
    """Raised in strict mode (or for unusable files) with the offending line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


@dataclass(frozen=True)
class RowError:
    line: int
    message: str


@dataclass(frozen=True)
class TripRecord:
    """One smart-card journey between two stations."""

    card_id: str
    start_time: datetime
    start_station: int
    end_time: datetime
    end_station: int
    mode: str | None = None

    def __post_init__(self) -> None:
        if self.end_time < self.start_time:
            raise ValueError("trip ends before it starts")


@dataclass(frozen=True, eq=False)
class Trips:
    """Trips as columns, in file order; indexing and iteration yield ``TripRecord`` rows.

    Times are naive ``datetime64[us]``. Station columns are ``int64``; one
    that holds an id past int64, which the per-row path accepts and no
    station grid reaches, is an object column of Python ints.
    """

    card_id: tuple[str, ...]
    start_time: np.ndarray
    start_station: np.ndarray
    end_time: np.ndarray
    end_station: np.ndarray
    mode: tuple[str | None, ...]

    def __post_init__(self) -> None:
        for name in ("start_time", "start_station", "end_time", "end_station"):
            getattr(self, name).flags.writeable = False

    @classmethod
    def from_records(cls, records: Iterable[TripRecord]) -> "Trips":
        rows = list(records)
        starts = [r.start_time for r in rows]
        ends = [r.end_time for r in rows]
        if any(ts.tzinfo is not None for ts in starts + ends):
            raise ValueError("trip timestamps must be naive wall clock")
        return cls(
            card_id=tuple(r.card_id for r in rows),
            start_time=np.array(starts, dtype="M8[us]"),
            start_station=_ids([r.start_station for r in rows]),
            end_time=np.array(ends, dtype="M8[us]"),
            end_station=_ids([r.end_station for r in rows]),
            mode=tuple(r.mode for r in rows),
        )

    def __len__(self) -> int:
        return len(self.card_id)

    def __getitem__(self, i: int) -> TripRecord:
        return TripRecord(
            card_id=self.card_id[i],
            start_time=self.start_time[i].item(),
            start_station=int(self.start_station[i]),
            end_time=self.end_time[i].item(),
            end_station=int(self.end_station[i]),
            mode=self.mode[i],
        )

    def __iter__(self) -> Iterator[TripRecord]:
        return map(self.__getitem__, range(len(self)))


def _ids(values: Sequence[int]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True)
class GpsPoint:
    """One vehicle position sample."""

    cab_id: str
    latitude: float
    longitude: float
    timestamp: int  # unix seconds

    def __post_init__(self) -> None:
        if not (-90.0 <= self.latitude <= 90.0):
            raise ValueError(f"latitude {self.latitude} outside [-90, 90]")
        if not (-180.0 <= self.longitude <= 180.0):
            raise ValueError(f"longitude {self.longitude} outside [-180, 180]")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid over a bounding box, row-major cell ids.

    Cells are half-open in both axes: a point on the max edge is outside.
    """

    origin_lat: float
    origin_lon: float
    rows: int
    cols: int
    cell_height_deg: float
    cell_width_deg: float

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and column")
        if self.cell_height_deg <= 0 or self.cell_width_deg <= 0:
            raise ValueError("cell dimensions must be positive")

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @classmethod
    def san_francisco(cls) -> "GridSpec":
        """100x100 grid over the San Francisco cab service area.

        Cell size approximates 0.19 mi (north-south) by 0.14 mi (east-west)
        at the city's latitude: 1 deg latitude ~ 69 mi, 1 deg longitude
        ~ 69 * cos(37.75 deg) mi.
        """
        lat_deg = 0.19 / 69.0
        lon_deg = 0.14 / (69.172 * math.cos(math.radians(37.75)))
        return cls(
            origin_lat=37.60,
            origin_lon=-122.52,
            rows=100,
            cols=100,
            cell_height_deg=lat_deg,
            cell_width_deg=lon_deg,
        )


def cell_of(point: GpsPoint, grid: GridSpec) -> int:
    """Row-major cell id of ``point`` or OUT_OF_GRID."""
    row = math.floor((point.latitude - grid.origin_lat) / grid.cell_height_deg)
    col = math.floor((point.longitude - grid.origin_lon) / grid.cell_width_deg)
    if not (0 <= row < grid.rows and 0 <= col < grid.cols):
        return OUT_OF_GRID
    return row * grid.cols + col


# --- CSV parsing ---

@dataclass
class ParseResult:
    """Parsed records plus per-row errors (lenient mode keeps going).

    ``records`` is a ``Trips`` table for trips and a list of ``GpsPoint``
    for GPS fixes.
    """

    records: Sequence
    errors: list[RowError] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _reader(source: str | Path | IO[str] | Iterable[str]):
    if isinstance(source, (str, Path)):
        return open(source, "r", newline="", encoding="utf-8-sig"), True
    return source, False


def _check_header(fieldnames: Sequence[str] | None, required: Sequence[str]) -> None:
    if fieldnames is None:
        raise ParseFailure(0, "empty input")
    missing = [c for c in required if c not in fieldnames]
    if missing:
        raise ParseFailure(1, f"missing columns: {', '.join(missing)}")


def _build_rows(numbered, build, strict):
    """Apply ``build`` to each ``(line, row)`` in order.

    A row that ``build`` refuses is a ``RowError`` (in strict mode, the first
    one raises ``ParseFailure``) and a row it returns None for is skipped.
    Returns the ``(position, record)`` pairs of the rows built, position
    counting the rows of ``numbered``, and the errors.
    """
    built, errors = [], []
    for position, (line, row) in enumerate(numbered):
        try:
            rec = build(row)
        except (ValueError, KeyError, TypeError) as exc:
            if strict:
                raise ParseFailure(line, str(exc)) from exc
            errors.append(RowError(line, str(exc)))
            continue
        if rec is not None:
            built.append((position, rec))
    return built, errors


def _parse_rows(source, required, build, strict):
    stream, owned = _reader(source)
    try:
        reader = csv.DictReader(stream)
        _check_header(reader.fieldnames, required)
        built, errors = _build_rows(((reader.line_num, row) for row in reader), build, strict)
        return ParseResult([rec for _, rec in built], errors)
    finally:
        if owned:
            stream.close()


def parse_gps(
    source: str | Path | IO[str] | Iterable[str],
    strict: bool = False,
) -> ParseResult:
    """Parse a GPS CSV (cab_id,lat,lon,unix_time)."""

    def build(row):
        return GpsPoint(
            cab_id=_nonempty(row["cab_id"], "cab_id"),
            latitude=_number(row["lat"], "lat"),
            longitude=_number(row["lon"], "lon"),
            timestamp=_intval(row["unix_time"], "unix_time"),
        )

    return _parse_rows(source, GPS_FIELDS, build, strict)


def parse_trips(
    source: str | Path | IO[str] | Iterable[str],
    strict: bool = False,
    exclude_modes: Sequence[str] = (),
) -> ParseResult:
    """Parse a trip CSV (card_id,start_time,start_station,end_time,end_station).

    A ``mode`` column is honored when present; rows whose mode appears in
    ``exclude_modes`` are silently skipped (not errors). Rows in canonical
    form (see the module docstring) are converted as columns and every other
    row one at a time; ``records`` is a ``Trips`` table in file order, and a
    row's line is the physical line it ends on, as ``csv.DictReader`` counts.
    """
    excluded = {m.strip().lower() for m in exclude_modes}
    stream, owned = _reader(source)
    try:
        reader = csv.reader(stream)
        header = next(reader, None)
        _check_header(header, TRIP_FIELDS)
        tables, errors = [], []
        while True:
            rows, lines, unread = [], [], None
            try:
                for row in islice(reader, _CHUNK_ROWS):
                    rows.append(row)
                    lines.append(reader.line_num)
            except Exception as exc:  # raised after the rows before it, as a row-at-a-time read would
                unread = exc
            table, chunk_errors = _trip_chunk(header, rows, lines, excluded, strict)
            tables.append(table)
            errors += chunk_errors
            if unread is not None:
                raise unread
            if len(rows) < _CHUNK_ROWS:
                break
    finally:
        if owned:
            stream.close()
    return ParseResult(_concat(tables), errors)


#: csv rows converted at a time. A parse holds only this many as Python lists,
#: and they mostly die before the garbage collector moves them to its oldest
#: generation, whose collections scan the whole heap: 8,192-row chunks spent
#: about a quarter of the parse there.
_CHUNK_ROWS = 2048


def _trip_chunk(
    header: list[str], rows: list[list[str]], lines: list[int], excluded: set[str], strict: bool
) -> tuple[Trips, list[RowError]]:
    """The trips of a run of csv rows, with the line each ends on, and their row errors."""
    fast, skipped, table = _canonical_trips(header, rows, excluded)
    slow = np.flatnonzero(~(fast | skipped))
    built, errors = _build_rows(
        ((lines[i], _row_dict(header, rows[i])) for i in slow.tolist()),
        lambda row: _trip(row, excluded),
        strict,
    )
    if built:
        rows_of = np.concatenate([np.flatnonzero(fast), slow[[pos for pos, _ in built]]])
        table = _concat(
            [table, Trips.from_records(rec for _, rec in built)], np.argsort(rows_of).tolist()
        )
    return table, errors


def _trip(row: dict, excluded: set[str]) -> TripRecord | None:
    """One trip from a row mapping, or None when its mode is excluded."""
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


def _row_dict(header: list[str], row: list[str]) -> dict:
    """The mapping ``csv.DictReader`` makes of a row: a short row's missing fields are None."""
    return dict(zip(header, row + [None] * (len(header) - len(row))))


def _concat(tables: list[Trips], order: list[int] | None = None) -> Trips:
    """The rows of ``tables`` one after another, or picked in ``order`` from that sequence."""

    def column(name: str) -> np.ndarray:
        joined = np.concatenate([getattr(t, name) for t in tables])
        return joined if order is None else joined[order]

    def labels(name: str) -> tuple:
        joined = tuple(chain.from_iterable(getattr(t, name) for t in tables))
        return joined if order is None else tuple(map(joined.__getitem__, order))

    return Trips(
        card_id=labels("card_id"),
        start_time=column("start_time"),
        start_station=column("start_station"),
        end_time=column("end_time"),
        end_station=column("end_station"),
        mode=labels("mode"),
    )


def _canonical_trips(
    header: list[str], rows: list[list[str]], excluded: set[str]
) -> tuple[np.ndarray, np.ndarray, Trips]:
    """Mark the rows in canonical form and convert them as columns.

    Returns the mask of canonical rows; the mask of rows that yield neither
    a trip nor an error unread, which are blank rows (``csv.DictReader``
    skips them) and rows of the header's field count whose mode is excluded
    (``_trip`` skips them); and the canonical rows as a ``Trips`` table.
    """
    width = len(header)
    lengths = _lengths(rows)
    if not (lengths == width).all():  # stand blanks in for the other rows; none is canonical
        blank = [""] * width
        rows = [row if len(row) == width else blank for row in rows]
    # a repeated column name reads its last column, as csv.DictReader's dicts do
    at = {name: i for i, name in enumerate(header)}

    def column(name: str) -> list[str]:
        return list(map(itemgetter(at[name]), rows))

    cards = list(map(str.strip, column("card_id")))
    starts, ok = _iso_minutes(column("start_time"))
    ends, ends_ok = _iso_minutes(column("end_time"))
    start_ids, start_ids_ok = _station_ids(column("start_station"))
    end_ids, end_ids_ok = _station_ids(column("end_station"))
    if "mode" in at:
        modes = [m.strip() or None for m in column("mode")]
        dropped = np.fromiter(
            (m is not None and m.lower() in excluded for m in modes), bool, len(modes)
        )
    else:
        modes = [None] * len(rows)
        dropped = np.zeros(len(rows), dtype=bool)
    ok &= ends_ok & start_ids_ok & end_ids_ok & (ends >= starts) & ~dropped
    ok &= np.fromiter(map(bool, cards), bool, len(cards))
    keep = ok.tolist()
    return ok, (lengths == 0) | dropped, Trips(
        card_id=tuple(compress(cards, keep)),
        start_time=starts[ok].view("M8[us]"),
        start_station=start_ids[ok],
        end_time=ends[ok].view("M8[us]"),
        end_station=end_ids[ok],
        mode=tuple(compress(modes, keep)),
    )


def _lengths(items: list) -> np.ndarray:
    return np.fromiter(map(len, items), np.int64, len(items))


def _code_points(texts: list[str], width: int) -> np.ndarray:
    """Each text's code points, cut or zero-padded to ``width`` columns."""
    return np.array(texts, dtype=f"U{width}").view(np.uint32).reshape(len(texts), width)


def _digits_value(digit: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Decimal value of columns ``lo:hi`` of a matrix of digit values."""
    value = np.zeros(len(digit), dtype=np.int64)
    for pos in range(lo, hi):
        value = value * 10 + digit[:, pos]
    return value


def _iso_minutes(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds since 1970 of texts in canonical timestamp form, and their mask.

    The mask holds the texts written exactly ``YYYY-MM-DDTHH:MM`` or
    ``YYYY-MM-DDTHH:MM:SS`` in ASCII digits that name a real instant, as
    ``datetime.fromisoformat`` reads them; the value of any other is
    meaningless. No sign, offset or fraction passes, whatever NumPy's own
    datetime parser would accept.
    """
    lengths, codes = _lengths(texts), _code_points(texts, 19)
    digit = codes - ord("0")  # uint32: a code point below '0' wraps past 9
    is_digit = digit < 10
    with_seconds = lengths == 19
    ok = (lengths == 16) | with_seconds
    for pos, char in ((4, "-"), (7, "-"), (10, "T"), (13, ":")):
        ok &= codes[:, pos] == ord(char)
    ok &= is_digit[:, [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15]].all(axis=1)
    ok &= ~with_seconds | ((codes[:, 16] == ord(":")) & is_digit[:, 17] & is_digit[:, 18])
    year, month, day = (_digits_value(digit, 0, 4), _digits_value(digit, 5, 7),
                        _digits_value(digit, 8, 10))
    hour, minute = _digits_value(digit, 11, 13), _digits_value(digit, 14, 16)
    second = np.where(with_seconds, _digits_value(digit, 17, 19), 0)
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (hour < 24) & (minute < 60) & (second < 60)
    months = np.where(ok, (year - 1970) * 12 + month - 1, 0)
    first_day = months.astype("M8[M]").astype("M8[D]").astype(np.int64)
    month_days = (months + 1).astype("M8[M]").astype("M8[D]").astype(np.int64) - first_day
    ok &= (day >= 1) & (day <= month_days)
    days = first_day + day - 1
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000, ok


def _station_ids(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Value of each text of 1 to 18 ASCII digits (10**18 - 1 fits int64), and their mask."""
    lengths = _lengths(texts)
    ok = (lengths >= 1) & (lengths <= 18)
    width = int(lengths[ok].max(initial=1))
    codes = _code_points(texts, width)
    digit = codes - ord("0")
    inside = np.arange(width) < lengths[:, None]
    ok &= ((digit < 10) | ~inside).all(axis=1)
    value = np.zeros(len(texts), dtype=np.int64)
    for pos in range(width):
        value = np.where(inside[:, pos], value * 10 + digit[:, pos], value)
    return value, ok


def _nonempty(raw: str | None, name: str) -> str:
    if raw is None or not raw.strip():
        raise ValueError(f"{name} is empty")
    return raw.strip()


def _minute_time(raw: str | None, name: str) -> datetime:
    try:
        ts = datetime.fromisoformat(_nonempty(raw, name))
    except ValueError:
        raise ValueError(f"{name} is not an ISO-8601 timestamp: {raw!r}") from None
    if ts.tzinfo is not None:
        raise ValueError(
            f"{name} {raw!r} carries a UTC offset; timestamps are naive wall-clock"
        )
    return ts


def _station(raw: str | None, name: str) -> int:
    value = _intval(raw, name)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def _intval(raw: str | None, name: str) -> int:
    try:
        return int(_nonempty(raw, name))
    except ValueError:
        raise ValueError(f"{name} is not an integer: {raw!r}") from None


def _number(raw: str | None, name: str) -> float:
    try:
        return float(_nonempty(raw, name))
    except ValueError:
        raise ValueError(f"{name} is not a number: {raw!r}") from None


# --- series construction ---

@dataclass(frozen=True)
class SeriesSet:
    """Integer count matrix (n_rois x n_epochs) over one epoch grid.

    ``dropped`` counts the events that fell outside the grid or epoch range
    while building the set.
    """

    counts: np.ndarray
    epochs: EpochSpec
    dropped: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != self.epochs.n_epochs:
            raise ValueError(
                f"counts must be (n_rois, {self.epochs.n_epochs}), got {arr.shape}"
            )
        if arr.min(initial=0) < 0:
            raise ValueError("counts cannot be negative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @property
    def n_rois(self) -> int:
        return self.counts.shape[0]

    def series(self, roi_id: int) -> RoiTimeSeries:
        if not 0 <= roi_id < self.n_rois:
            raise ValueError(f"roi {roi_id} outside [0, {self.n_rois})")
        return RoiTimeSeries(roi_id, self.counts[roi_id].astype(np.float64), self.epochs)

    def add(self, other: "SeriesSet") -> "SeriesSet":
        """Elementwise sum (e.g. entries + exits combined)."""
        if self.epochs != other.epochs or self.counts.shape != other.counts.shape:
            raise ValueError("series sets are not aligned")
        return SeriesSet(self.counts + other.counts, self.epochs, self.dropped + other.dropped)


@dataclass(frozen=True)
class StationSeries:
    """Tap-in and tap-out counts per station."""

    tap_in: SeriesSet
    tap_out: SeriesSet

    @property
    def dropped(self) -> int:
        return self.tap_in.dropped + self.tap_out.dropped

    def combined(self) -> SeriesSet:
        return self.tap_in.add(self.tap_out)


def station_series(
    trips: Trips | Iterable[TripRecord],
    epochs: EpochSpec,
    n_stations: int,
) -> StationSeries:
    """Count tap-ins (trip starts) and tap-outs (trip ends) per station.

    Each endpoint is binned into its own epoch independently; endpoints
    outside the epoch range or with station ids outside [0, n_stations) are
    dropped and counted, never raised. Records other than a ``Trips`` table
    are first gathered into one.
    """
    if n_stations < 1:
        raise ValueError("n_stations must be >= 1")
    if not isinstance(trips, Trips):
        trips = Trips.from_records(trips)
    origin = np.datetime64(epochs.start, "us")
    hour = np.timedelta64(EPOCH_SECONDS, "s")

    def taps(times: np.ndarray, stations: np.ndarray) -> SeriesSet:
        offset = times - origin
        epoch = offset // hour
        inside = (offset >= np.timedelta64(0)) & (epoch < epochs.n_epochs)
        inside &= (stations >= 0) & (stations < n_stations)
        cells = stations[inside].astype(np.int64) * epochs.n_epochs + epoch[inside]
        counts = np.bincount(cells, minlength=n_stations * epochs.n_epochs)
        dropped = len(times) - int(np.count_nonzero(inside))
        return SeriesSet(counts.reshape(n_stations, epochs.n_epochs), epochs, dropped)

    return StationSeries(
        tap_in=taps(trips.start_time, trips.start_station),
        tap_out=taps(trips.end_time, trips.end_station),
    )


def grid_series(
    points: Iterable[GpsPoint],
    grid: GridSpec,
    epochs: EpochSpec,
) -> SeriesSet:
    """Distinct-vehicle presence counts per grid cell and epoch.

    A vehicle contributes at most 1 to a (cell, epoch) pair no matter how
    many of its samples land there. Unix times are read as UTC. Points
    outside the grid or the epoch range are dropped and counted.
    """
    counts = np.zeros((grid.n_cells, epochs.n_epochs), dtype=np.int64)
    seen: set[tuple[str, int, int]] = set()
    dropped = 0
    for point in points:
        cell = cell_of(point, grid)
        try:
            epoch = epochs.index_of(_UNIX_EPOCH + timedelta(seconds=point.timestamp))
        except OverflowError:  # past datetime's years 1-9999, so outside any grid
            epoch = None
        if cell == OUT_OF_GRID or epoch is None:
            dropped += 1
            continue
        key = (point.cab_id, cell, epoch)
        if key in seen:
            continue
        seen.add(key)
        counts[cell, epoch] += 1
    return SeriesSet(counts, epochs, dropped)


# --- series round trip ---

def _sidecar(csv_path: Path) -> Path:
    return csv_path.with_suffix(csv_path.suffix + ".meta.json")


def write_series_csv(
    series_set: SeriesSet,
    csv_path: str | Path,
    grid: GridSpec | None = None,
) -> Path:
    """Write nonzero counts as ``roi_id,epoch_index,count`` plus a JSON sidecar.

    The sidecar sits next to the CSV, at the CSV's path plus ``.meta.json``.
    """
    csv_path = Path(csv_path)
    sidecar = _sidecar(csv_path)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["roi_id", "epoch_index", "count"])
    rois, slots = np.nonzero(series_set.counts)
    for roi, slot in zip(rois.tolist(), slots.tolist()):
        writer.writerow([roi, slot, int(series_set.counts[roi, slot])])
    csv_path.write_text(buf.getvalue())

    meta = {
        "epochs": {
            "start": series_set.epochs.start.isoformat(),
            "epoch_seconds": EPOCH_SECONDS,
            "n_epochs": series_set.epochs.n_epochs,
        },
        "n_rois": series_set.n_rois,
        "dropped": series_set.dropped,
        "grid": None
        if grid is None
        else {
            "origin_lat": grid.origin_lat,
            "origin_lon": grid.origin_lon,
            "rows": grid.rows,
            "cols": grid.cols,
            "cell_height_deg": grid.cell_height_deg,
            "cell_width_deg": grid.cell_width_deg,
        },
    }
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return sidecar


def read_series_csv(csv_path: str | Path) -> SeriesSet:
    """Inverse of write_series_csv; round-trips counts bit-exactly.

    A missing sidecar field, an ``epoch_seconds`` other than 3600, or a CSV
    row that is not three integers inside the sidecar's shape, has a negative
    count or repeats a cell raises ``ValueError`` (naming the sidecar or the
    row's line). The sidecar's ``grid`` is not read back.
    """
    csv_path = Path(csv_path)
    sidecar = _sidecar(csv_path)
    meta = json.loads(sidecar.read_text())
    try:
        epoch_seconds = int(meta["epochs"]["epoch_seconds"])
        epochs = EpochSpec(
            start=datetime.fromisoformat(meta["epochs"]["start"]),
            n_epochs=int(meta["epochs"]["n_epochs"]),
        )
        n_rois = int(meta["n_rois"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{sidecar}: missing or malformed field {exc}") from None
    if epoch_seconds != EPOCH_SECONDS:
        raise ValueError(
            f"{sidecar}: epoch_seconds is {epoch_seconds}; epochs are {EPOCH_SECONDS} s"
        )
    counts = np.zeros((n_rois, epochs.n_epochs), dtype=np.int64)
    seen = np.zeros(counts.shape, dtype=bool)
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{csv_path} line {reader.line_num}"
            try:
                roi, epoch, count = (int(row[k]) for k in ("roi_id", "epoch_index", "count"))
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"{where}: needs integer roi_id, epoch_index, count") from None
            if not (0 <= roi < n_rois and 0 <= epoch < epochs.n_epochs):
                raise ValueError(f"{where}: roi {roi} or epoch {epoch} out of range")
            if count < 0:
                raise ValueError(f"{where}: count {count} is negative")
            if seen[roi, epoch]:
                raise ValueError(f"{where}: roi {roi} epoch {epoch} repeats an earlier row")
            seen[roi, epoch] = True
            counts[roi, epoch] = count
    return SeriesSet(counts, epochs, dropped=int(meta.get("dropped", 0)))
