"""The benchmark's workloads.

Each workload is a closed loop: one caller in one process runs rounds or
stages back to back, the next starting when the previous one returned. It
makes its inputs from the seed, warms up once untimed, then runs timed
operations. The oracle checks every operation outside the timed region.

- ``round-sketch``: ``simulate_round`` at the CLI's default deployment,
  sketch mode (200 users in groups of 50, 582 stations sketched at
  epsilon = delta = 0.01 into 12 x 272 words, 10% dropout, in-process
  transport). Wide vectors make pairwise mask expansion most of the work,
  and dropout sends nearly every group through recovery.
- ``collect``: ``collect_aggregate_series`` over consecutive hourly epochs
  of a seeded 10-ROI synthetic city (5 stations in station mode, the same
  cohort, no dropout, frames through one loopback TCP connection pair).
  Vectors are 10 words, so DH exchanges and per-message work dominate and
  sketching and recovery are bypassed.
- ``analyze``: the operator's batch path from a seeded trips CSV (5
  stations, 3 weeks, about 50k trips, planted incidents) through
  ``parse_trips``, ``station_series`` and ``analyze_aggregates`` with the
  default ``PipelineConfig``. ARMA fitting is nearly all of it and the
  protocol is idle.

No workload runs ``od`` mode: with the 4,096-entry mask stream cache,
582-station OD vectors would hold about 5.5 GB.

The package keeps two process-global caches (mask streams and DH
exchanges). The benchmark never reads, clears or sizes them; instead each
run is its own process, every round gets a new round id, and a warm-up
round over the same cohort runs before the timed ones.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time
from pathlib import Path

import numpy as np

import city
import oracle
from mobagg import ingest
from mobagg.harness import pipeline, simulate, synth
from mobagg.harness.transport import InProcessTransport, TcpLoopbackTransport
from mobagg.ingest import SeriesSet
from mobagg.timeseries import EpochSpec

COHORT = {"n_users": 200, "group_size": 50, "threshold": 2}
EPSILON = DELTA = 0.01


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (quantile, value).

    None when that percentile would not lie above the median (20 samples or fewer).
    """
    n = len(values)
    if n <= 20:
        return None
    return (n - 10) / n, sorted(values)[n - 11]


class Workload:
    """One benchmark workload; ``op`` runs one timed operation."""

    name = ""
    op_unit = ""           # what one op_s sample times
    min_ops = 1            # timed operations per untraced run, however long they take
    transport = None       # the instance the tracer wraps, if any

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    @staticmethod
    def program_setup(seed: int) -> object:
        """The program-side set-up that setup_s times after the imports."""
        return None

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self) -> list[float]:
        """Run one timed operation and return its op_s samples."""
        raise NotImplementedError

    def report(self) -> dict[str, tuple[float, str, int, str]]:
        """Per-workload end-to-end figures: name -> (value, unit, samples, note)."""
        raise NotImplementedError

    def op_bytes(self) -> tuple[int, int]:
        """(upload, download) frame bytes of the last operation."""
        return 0, 0

    def close(self) -> None:
        pass


class _Rounds(Workload):
    """Shared accounting for the two protocol workloads."""

    op_unit = "round"

    @staticmethod
    def program_setup(seed: int) -> dict:
        return simulate.setup_users(COHORT["n_users"], random.Random(seed))

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.round_s: list[float] = []
        self.up_per_user: list[float] = []
        self.down_per_user: list[float] = []
        self._last = (0, 0)

    def _account(self, reports: list[simulate.RoundReport]) -> None:
        for r in reports:
            self.up_per_user.append(r.upload_bytes / r.n_users)
            self.down_per_user.append(r.download_bytes / r.n_users)
        self._last = (sum(r.upload_bytes for r in reports), sum(r.download_bytes for r in reports))

    def op_bytes(self) -> tuple[int, int]:
        return self._last

    def report(self):
        n = len(self.round_s)
        m = {
            "round_s": (statistics.median(self.round_s), "s", n, "median"),
            "upload_bytes_per_user": (float(np.mean(self.up_per_user or [0])), "B",
                                      len(self.up_per_user), "mean"),
            "download_bytes_per_user": (float(np.mean(self.down_per_user or [0])), "B",
                                        len(self.down_per_user), "mean"),
            "rounds_failed_share": (self.failed / self.attempted, "ratio", self.attempted, ""),
        }
        q = tail(self.round_s)
        if q is not None:
            m["round_s.tail"] = (q[1], "s", n, f"p{100 * q[0]:.0f}")
        return m


class RoundSketch(_Rounds):
    name = "round-sketch"
    min_ops = 2  # a round outlasts the run budget; two halve the per-round noise

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.config = simulate.SimConfig(
            **COHORT, mode="sketch", dropout_rate=0.1, n_stations=582,
            sketch_epsilon=EPSILON, sketch_delta=DELTA, seed=seed,
        )
        self.inputs = np.random.default_rng(seed)
        self.rng = random.Random(seed)
        self.round_id = int(self.inputs.integers(1, 1 << 40))
        self.transport = InProcessTransport()
        self.keys = self.program_setup(seed)

    def _vectors(self, config: simulate.SimConfig) -> np.ndarray:
        return self.inputs.integers(0, 4, size=(config.n_users, config.plain_length()))

    def _next_round_id(self) -> int:
        self.round_id += 1
        return self.round_id

    def warm_up(self) -> None:
        # Same cohort, keys and dropout but a tiny sketch: the DH exchange
        # cache fills as in a full round, at a small fraction of its cost.
        small = dataclasses.replace(self.config, n_stations=5, sketch_epsilon=0.5, sketch_delta=0.5)
        simulate.simulate_round(small, self._vectors(small), self.keys,
                                self._next_round_id(), self.rng, self.transport)

    def op(self) -> list[float]:
        vectors = self._vectors(self.config)
        round_id = self._next_round_id()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = simulate.simulate_round(self.config, vectors, self.keys, round_id,
                                              self.rng, self.transport)
        except Exception as exc:  # a failed round is counted, the loop goes on
            wall = time.perf_counter() - t0
            self._fail(1, f"round {round_id} raised {exc!r}")
            self.round_s.append(wall)
            return [wall]
        wall = time.perf_counter() - t0
        self.round_s.append(wall)
        problems = oracle.check_sketch_round(vectors, outcome, EPSILON, DELTA)
        if problems:
            self._fail(1, f"round {round_id}: {'; '.join(problems)}")
        self._account([outcome.report])
        return [wall]


class Collect(_Rounds):
    name = "collect"
    WARM_EPOCHS = 2
    BLOCK = 8   # epochs per collect_aggregate_series call

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.config = simulate.SimConfig(**COHORT, mode="station", dropout_rate=0.0,
                                         n_stations=5, seed=seed)
        self.targets = synth.synthetic_counts(
            self.config.plain_length(), 1, np.random.default_rng(seed), max_count=30)
        self.rng = random.Random(seed)
        self.next_epoch = 0
        self.epochs_done = 0
        self.call_s: list[float] = []
        self._times: list[float] = []
        self.transport = TcpLoopbackTransport()
        # time each simulate_round call the pipeline makes
        original = self._original = pipeline.simulate_round
        times = self._times

        def timed_round(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)

        pipeline.simulate_round = timed_round

    def _block(self, n: int) -> SeriesSet:
        a, b = self.next_epoch, self.next_epoch + n
        if b > self.targets.epochs.n_epochs:
            raise RuntimeError("the synthetic city has no epochs left for this run")
        self.next_epoch = b
        epochs = EpochSpec(self.targets.epochs.timestamp_of(a), n)
        return SeriesSet(self.targets.counts[:, a:b], epochs)

    def warm_up(self) -> None:
        pipeline.collect_aggregate_series(self._block(self.WARM_EPOCHS), self.config,
                                          self.rng, self.transport)
        self._times.clear()

    def op(self) -> list[float]:
        block = self._block(self.BLOCK)
        self.attempted += self.BLOCK
        t0 = time.perf_counter()
        try:
            series, reports = pipeline.collect_aggregate_series(
                block, self.config, self.rng, self.transport)
        except Exception as exc:  # the whole call's epochs count as failed
            self._fail(self.BLOCK, f"collect call raised {exc!r}")
            return self._end_call(t0)
        samples = self._end_call(t0)
        self.epochs_done += self.BLOCK
        bad = oracle.check_collect(series.counts, block.counts, reports)
        if bad:
            self._fail(len(bad), f"epochs {bad} of a collect call differ from the targets")
        self._account(reports)
        return samples

    def _end_call(self, t0: float) -> list[float]:
        self.call_s.append(time.perf_counter() - t0)
        samples = list(self._times)
        self._times.clear()
        self.round_s.extend(samples)
        return samples

    def report(self):
        m = super().report()
        m["epochs_per_s"] = (self.epochs_done / sum(self.call_s), "1/s", len(self.call_s),
                             f"{self.BLOCK} epochs per call")
        return m

    def close(self) -> None:
        pipeline.simulate_round = self._original
        self.transport.close()


class Analyze(Workload):
    name = "analyze"
    op_unit = "pass"
    EPOCHS = EpochSpec(city.START, city.HOURS)

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.city = city.build_city(seed, out_dir)
        self.config = pipeline.PipelineConfig(
            sim=simulate.SimConfig(**COHORT, mode="station", n_stations=city.N_STATIONS))
        self.reports_dir = out_dir / "reports"
        self.pass_s: list[float] = []
        self.quality: dict[str, float] = {}
        self.first_reports: dict[str, bytes] | None = None

    def warm_up(self) -> None:
        # Two series at a fixed order: every analytics stage runs once, at a
        # small fraction of a pass.
        parsed = ingest.parse_trips(self.city.trips_path)
        st = ingest.station_series(parsed.records, self.EPOCHS, city.N_STATIONS)
        pair = np.vstack([st.tap_in.counts[city.LEADER], st.tap_out.counts[city.FOLLOWER]])
        config = dataclasses.replace(self.config, arma_orders=(1, 1))
        pipeline.analyze_aggregates(SeriesSet(pair, self.EPOCHS), config, self.out_dir / "warm-up")

    def op(self) -> list[float]:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            parsed = ingest.parse_trips(self.city.trips_path)
            st = ingest.station_series(parsed.records, self.EPOCHS, city.N_STATIONS)
            counts = SeriesSet(np.vstack([st.tap_in.counts, st.tap_out.counts]), self.EPOCHS)
            result = pipeline.analyze_aggregates(counts, self.config, self.reports_dir)
        except Exception as exc:  # a failed pass is counted, the loop goes on
            wall = time.perf_counter() - t0
            self._fail(1, f"analyze pass raised {exc!r}")
            self.pass_s.append(wall)
            return [wall]
        wall = time.perf_counter() - t0
        self.pass_s.append(wall)
        problems = self._check(parsed, st, result)
        if problems:
            self._fail(1, "; ".join(problems))
        return [wall]

    def _check(self, parsed, st, result) -> list[str]:
        problems = []
        if parsed.errors:
            problems.append(f"{len(parsed.errors)} trip rows failed to parse")
        if not (np.array_equal(st.tap_in.counts, self.city.tap_in)
                and np.array_equal(st.tap_out.counts, self.city.tap_out)):
            problems.append("station series differ from the trips written")
        n_rois = 2 * city.N_STATIONS
        problems += oracle.check_reports(result.paths, result, n_rois, pipeline.EPOCHS_PER_DAY)
        contents = {k: Path(p).read_bytes() for k, p in result.paths.items()}
        if self.first_reports is None:
            self.first_reports = contents
        elif contents != self.first_reports:
            problems.append("report bytes changed between passes over the same input")
        if problems:
            return problems
        scanned = sum(len(s.epoch_indices) for s in result.scans.values())
        fallback = sum(len(s.fallback_epochs) for s in result.scans.values())
        self.quality = {
            "forecast_mae": float(np.mean([f.errors.mean for f in result.forecasts.values()])),
            "enhanced_mae": float(result.enhancement.errors.mean),
            "anomaly_recall": city.incidents_found(self.city.incidents, result.anomalies)
            / len(self.city.incidents),
            "fit_fallback_share": fallback / scanned,
        }
        return problems

    def report(self):
        m = {"analyze_s": (statistics.median(self.pass_s), "s", len(self.pass_s), "median")}
        units = {"forecast_mae": "counts", "enhanced_mae": "counts",
                 "anomaly_recall": "ratio", "fit_fallback_share": "ratio"}
        for key, value in self.quality.items():
            m[key] = (value, units[key], 1, "deterministic under the seed")
        return m

    def close(self) -> None:
        self.city.trips_path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (RoundSketch, Collect, Analyze)}
