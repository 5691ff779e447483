"""Loaders that turn raw mobility records into per-ROI count series.

Two record shapes are supported: station trips (smart-card taps with a start
and end station) and GPS points (vehicle positions snapped to a rectangular
grid). Both reduce to integer count matrices over a shared epoch grid. Row
parsing is lenient by default: bad rows are collected with their line numbers
instead of aborting the file.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .timeseries import EpochSpec, RoiTimeSeries

#: Cell id for coordinates outside the grid; a value, not an error.
OUT_OF_GRID = -1

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
        if self.start_station < 0 or self.end_station < 0:
            raise ValueError("station ids must be non-negative")


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
    """Parsed records plus per-row errors (lenient mode keeps going)."""

    records: list
    errors: list[RowError] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _reader(source: str | Path | IO[str] | Iterable[str]):
    if isinstance(source, (str, Path)):
        return open(source, "r", newline=""), True
    return source, False


def _parse_rows(source, required, build, strict):
    stream, owned = _reader(source)
    try:
        reader = csv.DictReader(stream)
        if reader.fieldnames is None:
            raise ParseFailure(0, "empty input")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise ParseFailure(1, f"missing columns: {', '.join(missing)}")
        result = ParseResult(records=[])
        for row in reader:
            line = reader.line_num
            try:
                rec = build(row)
            except (ValueError, KeyError, TypeError) as exc:
                if strict:
                    raise ParseFailure(line, str(exc)) from exc
                result.errors.append(RowError(line, str(exc)))
                continue
            if rec is not None:
                result.records.append(rec)
        return result
    finally:
        if owned:
            stream.close()


def parse_trips(
    source: str | Path | IO[str] | Iterable[str],
    strict: bool = False,
    exclude_modes: Sequence[str] = (),
) -> ParseResult:
    """Parse a trip CSV (card_id,start_time,start_station,end_time,end_station).

    A ``mode`` column is honored when present; rows whose mode appears in
    ``exclude_modes`` are silently skipped (not errors).
    """
    excluded = {m.strip().lower() for m in exclude_modes}

    def build(row):
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

    return _parse_rows(source, TRIP_FIELDS, build, strict)


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


def _nonempty(raw: str | None, name: str) -> str:
    if raw is None or not raw.strip():
        raise ValueError(f"{name} is empty")
    return raw.strip()


def _minute_time(raw: str | None, name: str) -> datetime:
    try:
        return datetime.fromisoformat(_nonempty(raw, name))
    except ValueError:
        raise ValueError(f"{name} is not an ISO-8601 timestamp: {raw!r}") from None


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
    trips: Iterable[TripRecord],
    epochs: EpochSpec,
    n_stations: int,
) -> StationSeries:
    """Count tap-ins (trip starts) and tap-outs (trip ends) per station.

    Each endpoint is binned into its own epoch independently; endpoints
    outside the epoch range or with station ids >= n_stations are dropped
    and counted, never raised.
    """
    if n_stations < 1:
        raise ValueError("n_stations must be >= 1")
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


def grid_series(
    points: Iterable[GpsPoint],
    grid: GridSpec,
    epochs: EpochSpec,
) -> SeriesSet:
    """Distinct-vehicle presence counts per grid cell and epoch.

    A vehicle contributes at most 1 to a (cell, epoch) pair no matter how
    many of its samples land there. Points outside the grid or the epoch
    range are dropped and counted.
    """
    counts = np.zeros((grid.n_cells, epochs.n_epochs), dtype=np.int64)
    seen: set[tuple[str, int, int]] = set()
    dropped = 0
    for point in points:
        cell = cell_of(point, grid)
        epoch = epochs.index_of(datetime.fromtimestamp(point.timestamp))
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
            "epoch_seconds": int(series_set.epochs.epoch_length.total_seconds()),
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


def read_series_csv(csv_path: str | Path) -> tuple[SeriesSet, GridSpec | None]:
    """Inverse of write_series_csv; round-trips counts bit-exactly.

    A missing sidecar field or a CSV row that is not three integers inside
    the sidecar's shape raises ``ValueError`` (naming the row's line).
    """
    csv_path = Path(csv_path)
    sidecar = _sidecar(csv_path)
    meta = json.loads(sidecar.read_text())
    try:
        epochs = EpochSpec(
            start=datetime.fromisoformat(meta["epochs"]["start"]),
            n_epochs=int(meta["epochs"]["n_epochs"]),
            epoch_length=timedelta(seconds=int(meta["epochs"]["epoch_seconds"])),
        )
        n_rois = int(meta["n_rois"])
        grid_meta = meta.get("grid")
        grid = None
        if grid_meta is not None:
            grid = GridSpec(
                origin_lat=float(grid_meta["origin_lat"]),
                origin_lon=float(grid_meta["origin_lon"]),
                rows=int(grid_meta["rows"]),
                cols=int(grid_meta["cols"]),
                cell_height_deg=float(grid_meta["cell_height_deg"]),
                cell_width_deg=float(grid_meta["cell_width_deg"]),
            )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{sidecar}: missing or malformed field {exc}") from None
    counts = np.zeros((n_rois, epochs.n_epochs), dtype=np.int64)
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
            counts[roi, epoch] = count
    return SeriesSet(counts, epochs, dropped=int(meta.get("dropped", 0))), grid
