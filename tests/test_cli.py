"""End-to-end runs of the mobagg command line through main(argv)."""

import csv
import hashlib
import json
from datetime import datetime

import numpy as np
import pytest
from numpy.random import default_rng

import mobagg.forecast.arma as arma_mod
import mobagg.forecast.rolling as rolling_mod
import mobagg.harness.cli as cli_mod
import mobagg.harness.pipeline as pipeline_mod
from mobagg.forecast import FitError, write_model_dump
from mobagg.harness.cli import main
from mobagg.harness.pipeline import PipelineConfig, analyze_aggregates
from mobagg.harness.simulate import OracleMismatch, SimConfig
from mobagg.ingest import GridSpec, SeriesSet, read_series_csv, write_series_csv
from mobagg.timeseries import EpochSpec, deseasonalize, seasonal_profile

MONDAY = datetime(2016, 2, 1)  # a Monday, so day index == weekday index

TRIP_HEADER = "card_id,start_time,start_station,end_time,end_station\n"
GPS_HEADER = "cab_id,lat,lon,unix_time\n"


def synth_counts(n_rois: int, n_epochs: int, seed: int = 0) -> np.ndarray:
    rng = default_rng(seed)
    hours = np.arange(n_epochs) % 24
    wave = 40.0 + 10.0 * np.sin(2.0 * np.pi * hours / 24.0)
    noise = rng.normal(0.0, 2.0, size=(n_rois, n_epochs))
    return np.rint(wave + noise).clip(min=0).astype(np.int64)


def write_series(dir_path, counts, name="series.csv"):
    counts = np.asarray(counts, dtype=np.int64)
    sset = SeriesSet(counts, EpochSpec(MONDAY, counts.shape[1]))
    path = dir_path / name
    write_series_csv(sset, path)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestIngestCli:
    def trips_file(self, tmp_path, extra_rows=()):
        rows = [
            "c1,2016-02-01T07:10:00,0,2016-02-01T07:40:00,1\n",
            "c2,2016-02-01T08:05:00,2,2016-02-01T08:55:00,0\n",
            "c3,2016-02-01T09:00:00,1,2016-02-01T09:20:00,2\n",
        ]
        path = tmp_path / "trips.csv"
        path.write_text(TRIP_HEADER + "".join(rows) + "".join(extra_rows))
        return path

    def test_station_ingest_writes_three_series_files(self, tmp_path, capsys):
        trips = self.trips_file(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "--out", str(out),
                "ingest", "--kind", "station", "--input", str(trips),
                "--start", "2016-02-01T00:00:00", "--epochs", "24",
                "--n-stations", "3",
            ]
        )
        assert code == 0
        tap_in = read_series_csv(out / "station_in.csv")
        tap_out = read_series_csv(out / "station_out.csv")
        total = read_series_csv(out / "station_total.csv")
        assert tap_in.counts[0, 7] == 1
        assert tap_in.counts[2, 8] == 1
        assert tap_in.counts[1, 9] == 1
        assert tap_out.counts[1, 7] == 1
        assert int(total.counts.sum()) == 6
        assert "3 trips (0 bad rows)" in capsys.readouterr().out

    def test_lenient_ingest_reports_bad_rows_and_succeeds(self, tmp_path, capsys):
        bad = "c4,2016-02-01T10:00:00,1,2016-02-01T09:00:00,2\n"
        trips = self.trips_file(tmp_path, extra_rows=[bad])
        out = tmp_path / "out"
        code = main(
            [
                "--out", str(out),
                "ingest", "--kind", "station", "--input", str(trips),
                "--start", "2016-02-01T00:00:00", "--epochs", "24",
                "--n-stations", "3",
            ]
        )
        assert code == 0
        assert "3 trips (1 bad rows)" in capsys.readouterr().out

    def test_strict_ingest_exits_one_on_bad_row(self, tmp_path, capsys):
        bad = "c4,2016-02-01T10:00:00,1,2016-02-01T09:00:00,2\n"
        trips = self.trips_file(tmp_path, extra_rows=[bad])
        code = main(
            [
                "--strict", "--out", str(tmp_path / "out"),
                "ingest", "--kind", "station", "--input", str(trips),
                "--start", "2016-02-01T00:00:00", "--epochs", "24",
                "--n-stations", "3",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("strict, code", [(False, 0), (True, 1)], ids=["lenient", "strict"])
    def test_utc_offset_trip_is_a_bad_row(self, tmp_path, capsys, strict, code):
        offset = "c4,2016-02-01T08:00+00:00,1,2016-02-01T08:30,2\n"
        trips = self.trips_file(tmp_path, extra_rows=[offset])
        argv = [
            "--out", str(tmp_path / "out"),
            "ingest", "--kind", "station", "--input", str(trips),
            "--start", "2016-02-01T00:00:00", "--epochs", "24", "--n-stations", "3",
        ]
        assert main(["--strict", *argv] if strict else argv) == code
        captured = capsys.readouterr()
        if strict:
            assert "start_time is not a timestamp YYYY-MM-DDTHH:MM[:SS]: '2016-02-01T08:00+00:00'" in captured.err
        else:
            assert "3 trips (1 bad rows)" in captured.out

    def test_start_with_utc_offset_exits_one(self, tmp_path, capsys):
        code = main(
            [
                "--out", str(tmp_path / "out"),
                "ingest", "--kind", "station", "--input", str(self.trips_file(tmp_path)),
                "--start", "2016-02-01T00:00:00+01:00", "--epochs", "24", "--n-stations", "3",
            ]
        )
        assert code == 1
        assert "UTC offset" in capsys.readouterr().err

    def test_station_ingest_requires_station_count(self, tmp_path, capsys):
        trips = self.trips_file(tmp_path)
        code = main(
            [
                "--out", str(tmp_path / "out"),
                "ingest", "--kind", "station", "--input", str(trips),
                "--start", "2016-02-01T00:00:00", "--epochs", "24",
            ]
        )
        assert code == 1
        assert "n-stations" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_station_count_is_checked_before_the_input_is_read(self, tmp_path, capsys, count):
        code = main(
            [
                "--out", str(tmp_path / "out"),
                "ingest", "--kind", "station", "--input", str(tmp_path / "absent.csv"),
                "--start", "2016-02-01T00:00:00", "--epochs", "24", "--n-stations", count,
            ]
        )
        assert code == 1
        assert f"--n-stations must be at least 1, got {count}" in capsys.readouterr().err

    def test_grid_ingest_writes_cells_with_grid_sidecar(self, tmp_path):
        base_ts = 1_000_000_000
        start = datetime(2001, 9, 9, 1, 46, 40)  # base_ts read as UTC
        fixes = [f"cab{i},0.5,{0.5 + i},{base_ts + 60 * i}\n" for i in range(3)]
        gps = tmp_path / "gps.csv"
        gps.write_text(GPS_HEADER + "".join(fixes))
        out = tmp_path / "out"
        code = main(
            [
                "--out", str(out),
                "ingest", "--kind", "grid", "--input", str(gps),
                "--start", start.isoformat(), "--epochs", "2",
                "--grid-origin-lat", "0", "--grid-origin-lon", "0",
                "--grid-rows", "2", "--grid-cols", "4",
                "--cell-height-deg", "1.0", "--cell-width-deg", "1.0",
            ]
        )
        assert code == 0
        cells = read_series_csv(out / "grid_cells.csv")
        meta = json.loads((out / "grid_cells.csv.meta.json").read_text())
        assert GridSpec(**meta["grid"]) == GridSpec(0.0, 0.0, 2, 4, 1.0, 1.0)
        assert cells.counts.shape == (8, 2)
        assert cells.counts[0, 0] == 1
        assert cells.counts[1, 0] == 1
        assert cells.counts[2, 0] == 1
        assert int(cells.counts.sum()) == 3


class TestForecastCli:
    def test_writes_report_and_model_dump(self, tmp_path, capsys):
        # two weeks: a single week would equal its own profile exactly
        series = write_series(tmp_path, synth_counts(1, 336))
        out = tmp_path / "out"
        code = main(
            [
                "--out", str(out),
                "forecast", "--series", str(series), "--roi", "0",
                "--orders", "1,0",
            ]
        )
        assert code == 0
        rows = read_rows(out / "forecast.csv")
        assert rows[0] == ["roi_id", "epoch", "actual", "predicted", "abs_err", "pct_err"]
        assert len(rows) == 25
        assert [int(r[1]) for r in rows[1:]] == list(range(312, 336))
        model = json.loads((out / "model.json").read_text())
        assert (model["p"], model["q"]) == (1, 0)
        assert np.isfinite(model["aic"])
        assert "orders (1, 0)" in capsys.readouterr().out

    def test_non_hourly_sidecar_exits_one(self, tmp_path, capsys):
        series = write_series(tmp_path, synth_counts(1, 336))
        sidecar = tmp_path / "series.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["epochs"]["epoch_seconds"] = 1800
        sidecar.write_text(json.dumps(meta))
        argv = ["--out", str(tmp_path / "out"), "forecast", "--series", str(series), "--roi", "0"]
        code = main(argv)
        assert code == 1
        assert "epoch_seconds is 1800" in capsys.readouterr().err

    def test_fits_the_test_day_once(self, tmp_path, monkeypatch):
        # model.json dumps the scan's own fit of the test day, not a refit
        path = write_series(tmp_path, synth_counts(1, 336))
        fit = arma_mod.fit_arma
        calls = []

        def counted(window, p, q):
            calls.append((p, q))
            return fit(window, p, q)

        for module in (arma_mod, rolling_mod, cli_mod):
            monkeypatch.setattr(module, "fit_arma", counted, raising=False)
        out = tmp_path / "out"
        argv = ["--out", str(out), "forecast", "--series", str(path), "--roi", "0",
                "--orders", "1,0"]
        assert main(argv) == 0
        assert calls == [(1, 0)]
        series = read_series_csv(path).series(0)
        d = deseasonalize(series, seasonal_profile(series)).values
        expected = write_model_dump(tmp_path / "expected.json", fit(d[192:312], 1, 0))
        assert (out / "model.json").read_bytes() == expected.read_bytes()

    def test_failed_fit_exits_one(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise FitError("forced")

        monkeypatch.setattr(rolling_mod, "fit_arma", broken)
        series = write_series(tmp_path, synth_counts(1, 336))
        out = tmp_path / "out"
        argv = ["--out", str(out), "forecast", "--series", str(series), "--roi", "0",
                "--orders", "1,0"]
        assert main(argv) == 1
        assert "ARMA(1,0) could not be fitted for day 13" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_report_matches_the_pipeline_without_orders(self, tmp_path):
        # with the scan starting on the last day, the pipeline picks its
        # orders on the same window as the CLI's test day
        series = write_series(tmp_path, synth_counts(1, 672, seed=6))
        sim = SimConfig(n_users=8, group_size=4, threshold=2, mode="station", n_stations=1)
        config = PipelineConfig(sim=sim, scan_start_day=27)
        result = analyze_aggregates(read_series_csv(series), config, tmp_path / "pipeline")
        out = tmp_path / "cli"
        assert main(["--out", str(out), "forecast", "--series", str(series), "--roi", "0"]) == 0
        assert (out / "forecast.csv").read_bytes() == result.paths["forecast"].read_bytes()

    def test_roi_out_of_range_exits_one(self, tmp_path, capsys):
        series = write_series(tmp_path, synth_counts(1, 168))
        code = main(
            [
                "--out", str(tmp_path / "out"),
                "forecast", "--series", str(series), "--roi", "5",
                "--orders", "1,0",
            ]
        )
        assert code == 1
        assert "roi 5" in capsys.readouterr().err

    def test_missing_series_file_exits_one(self, tmp_path):
        code = main(
            [
                "--out", str(tmp_path / "out"),
                "forecast", "--series", str(tmp_path / "nope.csv"), "--roi", "0",
            ]
        )
        assert code == 1


class TestAnomaliesCli:
    def test_injected_spike_is_ranked_first(self, tmp_path, capsys):
        counts = synth_counts(1, 672, seed=4)
        spike_epoch = 13 * 24 + 8
        counts[0, spike_epoch] += 60
        series = write_series(tmp_path, counts)
        out = tmp_path / "out"
        code = main(
            [
                "--out", str(out),
                "anomalies", "--series", str(series), "--orders", "1,0",
            ]
        )
        assert code == 0
        rows = read_rows(out / "anomalies.csv")
        assert rows[0][:4] == ["roi_id", "epoch", "direction", "side"]
        assert len(rows) >= 2
        top = rows[1]
        assert int(top[0]) == 0
        assert int(top[1]) == spike_epoch
        assert top[3] == "upper"
        assert int(top[-1]) == 1
        assert "flagged slots" in capsys.readouterr().out

    def test_report_matches_the_pipeline(self, tmp_path):
        # the CLI and analyze_aggregates run the same per-ROI path
        counts = synth_counts(2, 672, seed=4)
        counts[1, 14 * 24 + 17] += 50
        series = write_series(tmp_path, counts)
        out = tmp_path / "cli"
        code = main(["--out", str(out), "anomalies", "--series", str(series), "--orders", "1,0"])
        assert code == 0
        sim = SimConfig(n_users=8, group_size=4, threshold=2, mode="station", n_stations=2)
        config = PipelineConfig(sim=sim, arma_orders=(1, 0))
        result = analyze_aggregates(read_series_csv(series), config, tmp_path / "pipeline")
        expected = (out / "anomalies.csv").read_bytes()
        assert result.paths["anomalies"].read_bytes() == expected
        assert len(read_rows(out / "anomalies.csv")) >= 2

    def test_start_day_without_history_exits_one(self, tmp_path, capsys):
        series = write_series(tmp_path, synth_counts(1, 672))
        code = main(
            ["--out", str(tmp_path / "out"), "anomalies", "--series", str(series),
             "--start-day", "3"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "scan_start_day needs train_days + calibration_days of history" in err

    def test_short_training_window_picks_orders_it_can_fit(self, tmp_path, capsys):
        # two training days are 48 slots: too few for ARMA(3,2), enough for smaller orders
        series = write_series(tmp_path, synth_counts(1, 672, seed=4))
        out = tmp_path / "out"
        code = main(["--out", str(out), "anomalies", "--series", str(series),
                     "--train-days", "2"])
        assert code == 0, capsys.readouterr().err
        assert read_rows(out / "anomalies.csv")[0][0] == "roi_id"

    def test_pooled_report_matches_in_process(self, tmp_path, monkeypatch):
        counts = synth_counts(3, 672, seed=4)
        counts[1, 14 * 24 + 17] += 50
        series = write_series(tmp_path, counts)
        reports = []
        for workers in (2, 1):
            monkeypatch.setattr(pipeline_mod, "_worker_count", lambda n, w=workers: min(w, n))
            out = tmp_path / f"workers{workers}"
            argv = ["--out", str(out), "anomalies", "--series", str(series), "--days", "4"]
            assert main(argv) == 0
            reports.append((out / "anomalies.csv").read_bytes())
        assert reports[0] == reports[1]
        assert len(reports[0].splitlines()) >= 2

    @pytest.mark.parametrize("extra, message", [
        (["--start-day", "3"], "scan_start_day needs train_days + calibration_days"),
        (["--days", "0"], "the anomaly scan needs at least one day"),
        (["--orders", "9,9"], "ARMA(9,9) cannot fit a 120-slot training window"),
    ])
    def test_bad_window_exits_one_with_a_pool(self, tmp_path, capsys, monkeypatch, extra, message):
        monkeypatch.setattr(pipeline_mod, "_worker_count", lambda n: min(2, n))
        series = write_series(tmp_path, synth_counts(3, 672))
        code = main(["--out", str(tmp_path / "out"), "anomalies", "--series", str(series), *extra])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("orders, message", [
        ("9,9", "ARMA(9,9) cannot fit a 120-slot training window"),
        ("1", "--orders must be p,q"),
        ("1,2,3", "--orders must be p,q"),
        ("a,b", "--orders must be p,q"),
    ], ids=["9,9", "1", "1,2,3", "a,b"])
    def test_unfittable_orders_exit_one(self, tmp_path, capsys, orders, message):
        series = write_series(tmp_path, synth_counts(1, 672))
        code = main(
            ["--out", str(tmp_path / "out"), "anomalies", "--series", str(series),
             "--orders", orders]
        )
        assert code == 1
        assert message in capsys.readouterr().err

    def test_out_of_range_series_row_exits_one(self, tmp_path, capsys):
        series = write_series(tmp_path, synth_counts(1, 672))
        for row, problem in [("1,0,5", "out of range"), ("0,0,999", "repeats"),
                             ("0,5,-3", "is negative")]:
            series.write_text(f"roi_id,epoch_index,count\n0,0,5\n{row}\n")
            code = main(["--out", str(tmp_path / "out"), "anomalies", "--series", str(series)])
            assert code == 1
            err = capsys.readouterr().err
            assert f"{series} line 3: " in err and problem in err


SIM_3 = SimConfig(n_users=8, group_size=4, threshold=2, mode="station", n_stations=3)


class TestEnhanceCli:
    def two_roi_series(self, tmp_path):
        rng = default_rng(3)
        n = 672
        hours = np.arange(n) % 24
        wave = 40.0 + 10.0 * np.sin(2.0 * np.pi * hours / 24.0)
        bursts = np.zeros(n)
        for day in range(20, 28):
            for hour in (8, 9, 10, 17, 18, 19):
                bursts[day * 24 + hour] = 25.0
        lead = np.roll(bursts, -1)  # helper sees each burst one epoch early
        target = np.rint(wave + bursts + rng.normal(0, 2, n)).clip(min=0)
        helper = np.rint(wave + lead + rng.normal(0, 2, n)).clip(min=0)
        return write_series(tmp_path, np.stack([target, helper]))

    def test_two_roi_report(self, tmp_path, capsys):
        series = self.two_roi_series(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "--out", str(out),
                "enhance", "--series", str(series), "--target", "0",
                "--orders", "1,0",
            ]
        )
        assert code == 0
        rows = read_rows(out / "enhancement.csv")
        assert rows[0][0] == "target_roi"
        assert len(rows) == 2
        assert rows[1][0] == "0"
        assert rows[1][1] == "1"  # the only possible helper
        assert rows[1][7] in ("0", "1")
        assert "helpers [1]" in capsys.readouterr().out

    def check_against_pipeline(self, tmp_path, config, orders_argv):
        # the CLI and analyze_aggregates run the same enhancement path; the
        # CLI targets the pipeline's top anomaly
        counts = synth_counts(3, 672, seed=5)
        counts[1, 16 * 24 + 9] += 50
        series = write_series(tmp_path, counts)
        result = analyze_aggregates(read_series_csv(series), config, tmp_path / "pipeline")
        top = result.anomalies[0]
        assert (top.roi_id, top.epoch_index) == (1, 16 * 24 + 9)
        out = tmp_path / "cli"
        code = main(
            ["--out", str(out), "enhance", "--series", str(series),
             "--target", str(top.roi_id), "--test-day", str(top.epoch_index // 24),
             *orders_argv]
        )
        assert code == 0
        expected = result.paths["enhancement"].read_bytes()
        assert (out / "enhancement.csv").read_bytes() == expected
        assert len(read_rows(out / "enhancement.csv")) == 2

    def test_report_matches_the_pipeline(self, tmp_path):
        config = PipelineConfig(sim=SIM_3, arma_orders=(2, 1))
        self.check_against_pipeline(tmp_path, config, ["--orders", "2,1"])

    def test_report_matches_the_pipeline_without_orders(self, tmp_path):
        # the scan starts on the anomaly's day, so the pipeline picks its
        # orders on the same window as the CLI's test day
        config = PipelineConfig(sim=SIM_3, scan_start_day=16)
        self.check_against_pipeline(tmp_path, config, [])

    def test_no_usable_helper_exits_one(self, tmp_path, capsys):
        counts = synth_counts(2, 672)
        counts[1] = 0  # a constant helper has no defined correlation
        series = write_series(tmp_path, counts)
        code = main(
            ["--out", str(tmp_path / "out"), "enhance", "--series", str(series),
             "--target", "0", "--orders", "1,0"]
        )
        assert code == 1
        assert "no usable helper" in capsys.readouterr().err

    def test_single_roi_exits_one(self, tmp_path, capsys):
        series = write_series(tmp_path, synth_counts(1, 168))
        code = main(
            [
                "--out", str(tmp_path / "out"),
                "enhance", "--series", str(series), "--target", "0",
            ]
        )
        assert code == 1
        assert "two ROIs" in capsys.readouterr().err


class TestSimulateCli:
    def test_memory_transport_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "--seed", "3", "--out", str(out),
                "simulate", "--users", "6", "--group-size", "3",
                "--threshold", "2", "--rounds", "2", "--n-stations", "4",
            ]
        )
        assert code == 0
        overhead = read_rows(out / "overhead.csv")
        assert len(overhead) == 2
        assert overhead[1][0] == "station"
        rounds = read_rows(out / "rounds.csv")
        assert len(rounds) > 1
        assert "station" in capsys.readouterr().out

    def test_same_seed_same_rounds(self, tmp_path):
        argv = ["simulate", "--users", "6", "--group-size", "3", "--threshold", "2",
                "--rounds", "2", "--n-stations", "4", "--dropout", "0.2"]
        for run in ("a", "b"):
            assert main(["--seed", "5", "--out", str(tmp_path / run)] + argv) == 0
        assert (tmp_path / "a" / "rounds.csv").read_bytes() == (
            tmp_path / "b" / "rounds.csv"
        ).read_bytes()

    @pytest.mark.parametrize("argv, digest, recovers", [
        (["--n-stations", "6"],
         "0f4a1e773730d510c1bd87f1c27b17c886276a83de2455c3a1e1fb9457245ae4", False),
        (["--mode", "sketch", "--dropout", "0.1"],
         "b418aed155ccf23e167e64acff5a1611c422ce739ba7215d898747cd5eca3037", True),
    ], ids=["station", "sketch-dropout"])
    def test_rounds_report_is_frozen(self, tmp_path, argv, digest, recovers):
        # The report holds sizes, recoveries and oracle verdicts, never a mask
        # word, so no choice of PRG may move a byte of it. Re-frozen when the
        # groups began to follow the cohort's key set instead of the round:
        # user-id digits in the announcement and upload headers now land in
        # other groups, which moves the per-group byte counts, and at dropout
        # the round rng draws other members offline. Group sizes, payload
        # sizes and verdicts did not move. Re-frozen again when announcements
        # began to carry raw keys in their body instead of hex in the header:
        # each 4-member announcement is 172 bytes shorter, which moves every
        # download count, and since the sketch seeds no longer come from the
        # round rng, the sketch rounds draw other members offline. Re-frozen
        # again when every frame became a fixed little-endian layout: only
        # the upload and download counts moved (a 4-member announcement is
        # 165 bytes, a 12-word ciphertext 61), no member or verdict did.
        code = main(
            ["--seed", "7", "--out", str(tmp_path), "simulate", "--users", "12",
             "--group-size", "4", "--rounds", "2"] + argv
        )
        assert code == 0
        report = tmp_path / "rounds.csv"
        with report.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert any(row["recovery_invoked"] == "1" for row in rows) == recovers
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    def test_tcp_transport_runs(self, tmp_path):
        code = main(
            [
                "--out", str(tmp_path / "out"),
                "simulate", "--users", "4", "--group-size", "2",
                "--threshold", "2", "--rounds", "1", "--n-stations", "2",
                "--transport", "tcp",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("argv, message", [
        (["--rounds", "0"], "--rounds must be at least 1"),
        (["--rounds", "-1"], "--rounds must be at least 1"),
        (["--mode", "od", "--n-stations", "-3"], "n_stations must be at least 1"),
        (["--n-stations", "-3"], "n_stations must be at least 1"),
        (["--mode", "grid", "--grid-rows", "-2", "--grid-cols", "-3"],
         "grid_rows must be at least 1"),
    ], ids=["rounds-0", "rounds-negative", "od-stations", "station-stations", "grid"])
    def test_no_rounds_or_negative_dimensions_exit_one(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        code = main(["--out", str(out), "simulate", "--users", "4", "--group-size", "2"] + argv)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (out / "rounds.csv").exists()

    def test_oversize_vector_exits_one_before_keys_or_plaintexts(self, tmp_path, capsys, monkeypatch):
        def no_keys(*args):
            raise AssertionError("keys were made for a round that cannot run")

        monkeypatch.setattr(cli_mod, "setup_users", no_keys)
        out = tmp_path / "out"
        code = main(["--out", str(out), "simulate", "--mode", "od", "--n-stations", "4100",
                     "--users", "2", "--group-size", "2", "--rounds", "1"])
        assert code == 1
        assert "vector of 16810000 words exceeds the 16777216" in capsys.readouterr().err
        assert not (out / "rounds.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["--mode", "od", "--n-stations", "4100"],
        ["--n-stations", "-3"],
    ], ids=["oversize-vector", "negative-stations"])
    def test_refused_run_creates_no_out_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main(["--out", str(out), "simulate", "--users", "2", "--group-size", "2"] + argv)
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_mismatch_exits_two(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise OracleMismatch("plaintext sums diverged")

        monkeypatch.setattr(cli_mod, "simulate_round", boom)
        code = main(
            [
                "--out", str(tmp_path / "out"),
                "simulate", "--users", "4", "--group-size", "2",
                "--threshold", "2", "--rounds", "1", "--n-stations", "2",
            ]
        )
        assert code == 2
        assert "plaintext sums diverged" in capsys.readouterr().err


class TestSketchBenchCli:
    def test_sizing_table(self, capsys):
        assert main(["sketch-bench"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split()[:3] == ["10000", "14", "272"]
        assert lines[2].split()[:3] == ["1000000", "19", "272"]

    def test_empirical_columns(self, capsys):
        assert main(["sketch-bench", "--sizes", "10000", "--items", "500"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "max_over" in lines[0] and "in_bound" in lines[0]
        fields = lines[1].split()
        assert len(fields) == 9
        assert int(fields[7]) >= 0  # sketches never under-count
        assert 0.0 <= float(fields[8]) <= 1.0

    def test_seeded_table_is_frozen(self, capsys):
        assert main(["--seed", "7", "sketch-bench", "--items", "20000"]) == 0
        assert capsys.readouterr().out == (
            "  input_size  depth  width  counters     bytes       KB      KiB  max_over in_bound\n"
            "       10000     14    272      3808     15232    15.23    14.88       360    1.000\n"
            "     1000000     19    272      5168     20672    20.67    20.19       361    1.000\n"
        )

    def test_billion_key_space(self):
        # only the drawn keys are hashed; a dense vector would need 8 GB
        assert main(["sketch-bench", "--sizes", "1000000000", "--items", "500"]) == 0

    def test_negative_items_exits_one(self, capsys):
        assert main(["sketch-bench", "--sizes", "100", "--items", "-5"]) == 1
        assert "--items" in capsys.readouterr().err


class TestConfigAndUsage:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        series = write_series(tmp_path, synth_counts(1, 168))
        cfg_out = tmp_path / "from_config"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"orders": "2,0", "out": str(cfg_out)}))
        code = main(
            ["--config", str(cfg), "forecast", "--series", str(series), "--roi", "0"]
        )
        assert code == 0
        assert (cfg_out / "forecast.csv").exists()
        assert "orders (2, 0)" in capsys.readouterr().out

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        series = write_series(tmp_path, synth_counts(1, 168))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"orders": "2,0"}))
        out = tmp_path / "explicit"
        code = main(
            [
                "--config", str(cfg), "--out", str(out),
                "forecast", "--series", str(series), "--roi", "0",
                "--orders", "1,0",
            ]
        )
        assert code == 0
        assert "orders (1, 0)" in capsys.readouterr().out

    def test_config_that_is_not_an_object_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["--config", str(cfg), "sketch-bench"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "sketch-bench" in capsys.readouterr().out

    def test_missing_subcommand_exits_one(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_one(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "ingest", "--kind", "station"]) == 1

    @pytest.mark.parametrize("command, message", [
        # one quiet day flags no slot, which let keep_fraction 0 through
        (["anomalies", "--start-day", "13", "--days", "1", "--keep-fraction", "0"],
         "keep_fraction must be in (0, 1]"),
        (["anomalies", "--train-days", "0"], "train_days must be >= 1"),
        (["enhance", "--target", "0", "--top-k", "0"], "top_k must be >= 1"),
        (["enhance", "--target", "0", "--max-lag", "-1"], "max_lag_epochs must be >= 0"),
    ], ids=["keep-fraction", "train-days", "top-k", "max-lag"])
    def test_bad_analytics_setting_exits_one_before_any_fit(
        self, tmp_path, capsys, monkeypatch, command, message,
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the settings were checked")

        monkeypatch.setattr(rolling_mod, "fit_arma", no_fit)
        monkeypatch.setattr(arma_mod, "fit_arma", no_fit)
        series = write_series(tmp_path, synth_counts(2, 672))
        argv = ["--out", str(tmp_path / "out"), command[0], "--series", str(series), *command[1:]]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
