"""CSV parsing, spatial binning, and count-series construction."""

import io
import random
from collections import defaultdict
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from trip_reference import table

from mobagg.ingest import (
    OUT_OF_GRID,
    GpsPoint,
    GridSpec,
    ParseFailure,
    TripRecord,
    cell_of,
    grid_series,
    parse_gps,
    parse_trips,
    read_series_csv,
    station_series,
    write_series_csv,
)
from mobagg.timeseries import EpochSpec

TRIP_HEADER = "card_id,start_time,start_station,end_time,end_station\n"


def trips_csv(*rows):
    return io.StringIO(TRIP_HEADER + "".join(r + "\n" for r in rows))


class TestParseTrips:
    def test_single_row(self):
        result = parse_trips(trips_csv("c1,2016-02-01T08:00,3,2016-02-01T08:25,7"))
        assert result.ok
        (rec,) = result.records
        assert rec == TripRecord(
            card_id="c1",
            start_time=datetime(2016, 2, 1, 8, 0),
            start_station=3,
            end_time=datetime(2016, 2, 1, 8, 25),
            end_station=7,
        )

    def test_inverted_interval_is_row_error(self):
        result = parse_trips(trips_csv("c1,2016-02-01T09:00,3,2016-02-01T08:00,7"))
        assert not result.ok and not result.records
        assert "ends before" in result.errors[0].message

    def test_lenient_keeps_going(self):
        result = parse_trips(
            trips_csv(
                "c1,2016-02-01T08:00,3,2016-02-01T08:25,7",
                "c2,not-a-time,3,2016-02-01T08:25,7",
                "c3,2016-02-01T10:00,0,2016-02-01T10:10,1",
            )
        )
        assert len(result.records) == 2
        assert [r.card_id for r in result.records] == ["c1", "c3"]
        (err,) = result.errors
        assert err.line == 3  # header is line 1

    def test_strict_raises_with_line(self):
        with pytest.raises(ParseFailure) as info:
            parse_trips(
                trips_csv(
                    "c1,2016-02-01T08:00,3,2016-02-01T08:25,7",
                    "c2,2016-02-01T08:00,-4,2016-02-01T08:25,7",
                ),
                strict=True,
            )
        assert info.value.line == 3

    def test_utc_offset_is_a_row_error(self):
        result = parse_trips(
            trips_csv(
                "c1,2016-02-01T08:00+00:00,3,2016-02-01T08:25,7",
                "c2,2016-02-01T08:00,3,2016-02-01T08:25,7",
            )
        )
        assert [r.card_id for r in result.records] == ["c2"]
        (err,) = result.errors
        assert err.line == 2
        assert err.message == (
            "start_time is not a timestamp YYYY-MM-DDTHH:MM[:SS]: '2016-02-01T08:00+00:00'"
        )
        with pytest.raises(ParseFailure, match="end_time is not a timestamp"):
            parse_trips(trips_csv("c1,2016-02-01T08:00,3,2016-02-01T08:25-05:00,7"), strict=True)

    def test_missing_column_fails_fast(self):
        src = io.StringIO("card_id,start_time\nc1,2016-02-01T08:00\n")
        with pytest.raises(ParseFailure):
            parse_trips(src)

    def test_exclude_modes_skips_silently(self):
        src = io.StringIO(
            TRIP_HEADER.rstrip("\n") + ",mode\n"
            "c1,2016-02-01T08:00,3,2016-02-01T08:25,7,bus\n"
            "c2,2016-02-01T08:00,3,2016-02-01T08:25,7,metro\n"
            "c3,2016-02-01T08:00,3,2016-02-01T08:25,7,Bus\n"
        )
        result = parse_trips(src, exclude_modes=("bus",))
        assert result.ok
        assert [r.card_id for r in result.records] == ["c2"]
        assert result.records[0].mode == "metro"

    def test_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "trips.csv"
        body = TRIP_HEADER + "c\u00e9,2016-02-01T08:00,3,2016-02-01T08:25,7\n"
        path.write_bytes(("\ufeff" + body).encode("utf-8"))
        result = parse_trips(path)
        assert result.ok
        assert [r.card_id for r in result.records] == ["c\u00e9"]


class TestParseGps:
    def test_single_row(self):
        result = parse_gps(io.StringIO("cab_id,lat,lon,unix_time\nv1,37.77,-122.42,1454313600\n"))
        assert result.ok
        assert result.records[0] == GpsPoint("v1", 37.77, -122.42, 1454313600)

    def test_latitude_out_of_range(self):
        result = parse_gps(io.StringIO("cab_id,lat,lon,unix_time\nv1,95.0,-122.42,1454313600\n"))
        assert not result.records
        assert "latitude" in result.errors[0].message

    def test_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "gps.csv"
        path.write_bytes("\ufeffcab_id,lat,lon,unix_time\nv\u00e9,37.77,-122.42,1454313600\n".encode("utf-8"))
        result = parse_gps(path)
        assert result.ok
        assert result.records == [GpsPoint("v\u00e9", 37.77, -122.42, 1454313600)]


class TestCellOf:
    grid = GridSpec(origin_lat=0.0, origin_lon=0.0, rows=4, cols=5,
                    cell_height_deg=1.0, cell_width_deg=1.0)

    def test_row_major_ids(self):
        assert cell_of(GpsPoint("a", 0.0, 0.0, 0), self.grid) == 0
        assert cell_of(GpsPoint("a", 0.0, 1.0, 0), self.grid) == 1
        assert cell_of(GpsPoint("a", 1.0, 0.0, 0), self.grid) == 5
        assert cell_of(GpsPoint("a", 3.5, 4.5, 0), self.grid) == 19

    def test_half_open_edges(self):
        # min edges belong to the cell, max edges fall outside
        assert cell_of(GpsPoint("a", 4.0, 0.0, 0), self.grid) == OUT_OF_GRID
        assert cell_of(GpsPoint("a", 0.0, 5.0, 0), self.grid) == OUT_OF_GRID
        assert cell_of(GpsPoint("a", 3.999, 4.999, 0), self.grid) == 19

    def test_below_origin(self):
        assert cell_of(GpsPoint("a", -0.25, 0.0, 0), self.grid) == OUT_OF_GRID

    def test_city_preset(self):
        sf = GridSpec.san_francisco()
        assert sf.n_cells == 10000
        downtown = cell_of(GpsPoint("c", 37.7749, -122.4194, 0), sf)
        assert 0 <= downtown < sf.n_cells
        assert cell_of(GpsPoint("c", 37.34, -121.89, 0), sf) == OUT_OF_GRID

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.0, 0, 5, 1.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.0, 4, 5, -1.0, 1.0)


def make_trip(card, start_min, s_in, dur_min, s_out, base=datetime(2016, 2, 1)):
    t0 = base + timedelta(minutes=start_min)
    return TripRecord(card, t0, s_in, t0 + timedelta(minutes=dur_min), s_out)


class TestStationSeries:
    epochs = EpochSpec(start=datetime(2016, 2, 1), n_epochs=48)

    def test_single_trip(self):
        result = station_series(table([make_trip("c1", 10, 0, 20, 1)]), self.epochs, n_stations=3)
        assert result.tap_in.counts[0, 0] == 1 and result.tap_in.counts.sum() == 1
        assert result.tap_out.counts[1, 0] == 1 and result.tap_out.counts.sum() == 1
        assert result.dropped == 0

    def test_duplicates_accumulate(self):
        trips = [make_trip("c1", 10, 0, 20, 1), make_trip("c2", 15, 0, 30, 1)]
        result = station_series(table(trips), self.epochs, n_stations=2)
        assert result.tap_in.counts[0, 0] == 2
        assert result.tap_out.counts[1, 0] == 2

    def test_endpoints_bin_independently(self):
        # start in epoch 0, end in epoch 2
        result = station_series(table([make_trip("c1", 50, 0, 80, 1)]), self.epochs, n_stations=2)
        assert result.tap_in.counts[0, 0] == 1
        assert result.tap_out.counts[1, 2] == 1

    def test_out_of_range_dropped_not_raised(self):
        trips = [
            make_trip("c1", 10, 0, 20, 1),
            make_trip("c2", 10, 9, 20, 1),        # start station beyond n_stations
            make_trip("c3", 48 * 60 + 5, 0, 5, 1),  # both endpoints past the grid
        ]
        result = station_series(table(trips), self.epochs, n_stations=3)
        assert result.tap_in.counts.sum() == 1
        assert result.tap_out.counts.sum() == 2
        assert result.dropped == 3

    def test_negative_station_is_dropped(self):
        result = station_series(table([make_trip("c1", 10, -1, 20, 1)]), self.epochs, n_stations=3)
        assert result.tap_in.counts.sum() == 0 and result.tap_in.dropped == 1
        assert result.tap_out.counts[1, 0] == 1

    def test_matches_brute_force_recount(self):
        rng = random.Random(314)
        n_stations = 8
        trips = []
        for i in range(300):
            start = rng.randint(-60, 49 * 60)
            trips.append(
                make_trip(f"c{i}", start, rng.randint(0, 9), rng.randint(0, 90), rng.randint(0, 9))
            )
        result = station_series(table(trips), self.epochs, n_stations)

        expect_in = defaultdict(int)
        expect_out = defaultdict(int)
        dropped = 0
        for t in trips:
            e = self.epochs.index_of(t.start_time)
            if e is None or t.start_station >= n_stations:
                dropped += 1
            else:
                expect_in[(t.start_station, e)] += 1
            e = self.epochs.index_of(t.end_time)
            if e is None or t.end_station >= n_stations:
                dropped += 1
            else:
                expect_out[(t.end_station, e)] += 1

        for (s, e), c in expect_in.items():
            assert result.tap_in.counts[s, e] == c
        assert result.tap_in.counts.sum() == sum(expect_in.values())
        assert result.tap_out.counts.sum() == sum(expect_out.values())
        assert result.dropped == dropped
        # every endpoint is either counted or dropped
        assert result.tap_in.counts.sum() + result.tap_out.counts.sum() + dropped == 2 * len(trips)

    def test_combined_is_elementwise_sum(self):
        result = station_series(table([make_trip("c1", 10, 0, 20, 0)]), self.epochs, n_stations=2)
        combined = result.combined()
        assert np.array_equal(combined.counts, result.tap_in.counts + result.tap_out.counts)


class TestGridSeries:
    grid = GridSpec(origin_lat=0.0, origin_lon=0.0, rows=2, cols=2,
                    cell_height_deg=1.0, cell_width_deg=1.0)

    def setup_method(self):
        self.base_ts = 1454313600  # 2016-02-01 08:00 UTC
        self.epochs = EpochSpec(start=datetime(2016, 2, 1, 8), n_epochs=24)

    def point(self, cab, lat, lon, minute):
        return GpsPoint(cab, lat, lon, self.base_ts + minute * 60)

    def test_presence_not_sample_count(self):
        # five samples of one cab in one cell and hour count once
        points = [self.point("v1", 0.5, 0.5, m) for m in (0, 10, 20, 30, 40)]
        result = grid_series(points, self.grid, self.epochs)
        assert result.counts[0, 0] == 1 and result.counts.sum() == 1

    def test_distinct_vehicles_accumulate(self):
        points = [self.point("v1", 0.5, 0.5, 0), self.point("v2", 0.5, 0.5, 30)]
        result = grid_series(points, self.grid, self.epochs)
        assert result.counts[0, 0] == 2

    def test_same_cab_new_hour_counts_again(self):
        points = [self.point("v1", 0.5, 0.5, 0), self.point("v1", 0.5, 0.5, 70)]
        result = grid_series(points, self.grid, self.epochs)
        assert result.counts[0, 0] == 1 and result.counts[0, 1] == 1

    def test_out_of_grid_dropped(self):
        result = grid_series([self.point("v1", 5.0, 0.5, 0)], self.grid, self.epochs)
        assert result.counts.sum() == 0 and result.dropped == 1

    def test_time_beyond_the_calendar_dropped(self):
        points = [GpsPoint("v1", 0.5, 0.5, t) for t in (10**12, -(10**12), 2**62)]
        result = grid_series(points, self.grid, self.epochs)
        assert result.counts.sum() == 0 and result.dropped == 3

    def test_matches_set_based_oracle(self):
        rng = random.Random(2718)
        points = [
            self.point(
                f"v{rng.randint(0, 5)}",
                rng.uniform(-0.5, 2.5),
                rng.uniform(-0.5, 2.5),
                rng.randint(-30, 25 * 60),
            )
            for _ in range(400)
        ]
        result = grid_series(points, self.grid, self.epochs)

        seen = set()
        dropped = 0
        for p in points:
            cell = cell_of(p, self.grid)
            utc = datetime.fromtimestamp(p.timestamp, timezone.utc).replace(tzinfo=None)
            epoch = self.epochs.index_of(utc)
            if cell == OUT_OF_GRID or epoch is None:
                dropped += 1
            else:
                seen.add((p.cab_id, cell, epoch))
        expected = defaultdict(int)
        for _, cell, epoch in seen:
            expected[(cell, epoch)] += 1

        assert result.dropped == dropped
        assert result.counts.sum() == len(seen)
        for (cell, epoch), c in expected.items():
            assert result.counts[cell, epoch] == c
        # presence in one hour can never exceed the distinct fleet
        assert result.counts.max() <= 6


class TestSeriesCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        epochs = EpochSpec(start=datetime(2016, 2, 1), n_epochs=36)
        counts = rng.integers(0, 7, size=(5, 36))
        counts[2] = 0  # an all-quiet region survives via the sidecar shape
        from mobagg.ingest import SeriesSet

        original = SeriesSet(counts, epochs, dropped=4)
        path = tmp_path / "counts.csv"
        write_series_csv(original, path)
        restored = read_series_csv(path)
        assert np.array_equal(restored.counts, original.counts)
        assert restored.epochs == original.epochs
        assert restored.dropped == 4

    def test_grid_sidecar(self, tmp_path):
        import json

        epochs = EpochSpec(start=datetime(2016, 2, 1), n_epochs=2)
        from mobagg.ingest import SeriesSet

        original = SeriesSet(np.ones((4, 2), dtype=np.int64), epochs)
        path = tmp_path / "grid.csv"
        spec = GridSpec(37.6, -122.52, 2, 2, 0.01, 0.02)
        sidecar = write_series_csv(original, path, grid=spec)
        meta = json.loads(sidecar.read_text())
        assert GridSpec(**meta["grid"]) == spec
        assert meta["epochs"]["epoch_seconds"] == 3600
        assert np.array_equal(read_series_csv(path).counts, original.counts)

    @staticmethod
    def small_pair(tmp_path):
        from mobagg.ingest import SeriesSet

        path = tmp_path / "counts.csv"
        epochs = EpochSpec(start=datetime(2016, 2, 1), n_epochs=3)
        write_series_csv(SeriesSet(np.ones((2, 3), dtype=np.int64), epochs), path)
        return path, path.with_suffix(".csv.meta.json")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("roi_id,epoch_index,count\n0,0,1\n-1,0,5\n", "line 3"),
            ("roi_id,epoch_index,count\n0,-1,7\n", "line 2"),
            ("roi_id,epoch_index,count\n2,0,1\n", "line 2"),
            ("roi_id,epoch_index,count\n0,3,1\n", "line 2"),
            ("roi_id,epoch_index,count\n0,x,1\n", "line 2"),
            ("roi_id,epoch_index,count\n0,1\n", "line 2"),
            ("roi_id,epoch_index\n0,1\n", "line 2"),
        ],
        ids=["negative-roi", "negative-epoch", "roi-too-large", "epoch-too-large",
             "not-an-integer", "short-row", "no-count-column"],
    )
    def test_bad_rows_raise_with_line(self, tmp_path, body, message):
        path, _ = self.small_pair(tmp_path)
        path.write_text(body)
        with pytest.raises(ValueError, match=message):
            read_series_csv(path)

    @pytest.mark.parametrize(
        "drop", [("n_rois",), ("epochs",), ("epochs", "n_epochs"), ("epochs", "start")],
        ids=".".join,
    )
    def test_missing_sidecar_field_raises(self, tmp_path, drop):
        import json

        path, sidecar = self.small_pair(tmp_path)
        meta = json.loads(sidecar.read_text())
        parent = meta
        for key in drop[:-1]:
            parent = parent[key]
        del parent[drop[-1]]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=drop[-1]):
            read_series_csv(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [("epoch_seconds", 1800, "epoch_seconds is 1800"),
         ("start", "2016-02-01T00:00:00+00:00", "carries a UTC offset")],
        ids=["non-hourly", "offset-start"],
    )
    def test_sidecar_epochs_must_be_naive_hours(self, tmp_path, field, value, message):
        import json

        path, sidecar = self.small_pair(tmp_path)
        meta = json.loads(sidecar.read_text())
        meta["epochs"][field] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=message) as info:
            read_series_csv(path)
        assert str(sidecar) in str(info.value)
