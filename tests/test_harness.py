"""Round simulation, transports, overhead reports, and the two-sided pipeline."""

import csv
import hashlib
import os
import random
import socket
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mobagg.forecast.arma as arma_mod
import mobagg.forecast.rolling as rolling_mod
import mobagg.harness.pipeline as pipeline_mod
import mobagg.harness.simulate as sim_mod
import mobagg.privagg.masking as masking_mod
from mobagg.forecast import FitError, detect_anomalies, rolling_scan, select_order
from mobagg.harness.pipeline import (
    PipelineConfig,
    analyze_aggregates,
    analyze_rois,
    collect_aggregate_series,
    run_pipeline,
)
from mobagg.harness.reports import (
    format_overhead_table,
    overhead_report,
    write_overhead_csv,
    write_round_reports,
)
from mobagg.harness.simulate import (
    GroupReport,
    OracleMismatch,
    RoundReport,
    SimConfig,
    setup_users,
    simulate_round,
    synthesize_users,
)
from mobagg.harness.synth import synthetic_counts
from mobagg.harness.transport import (
    CHUNK,
    DOWNLOAD,
    UPLOAD,
    InProcessTransport,
    TcpLoopbackTransport,
)
from mobagg.ingest import SeriesSet
from mobagg.privagg import (
    GroupView,
    KeyPair,
    ProtocolError,
    VectorMessage,
    decode_announcement,
    encode_announcement,
    encode_vector_message,
    keygen,
)
from mobagg.timeseries import EpochSpec, deseasonalize, seasonal_profile

import wire_layouts as layouts
from synth_series import seasonal_series


class TestSynthesizeUsers:
    def test_column_sums_hit_targets(self):
        rng = random.Random(1)
        matrix = synthesize_users([3, 0, 10, 7], 10, rng)
        assert matrix.shape == (10, 4)
        assert np.array_equal(matrix.sum(axis=0), [3, 0, 10, 7])
        assert set(np.unique(matrix)) <= {0, 1}

    def test_all_zero_targets(self):
        matrix = synthesize_users([0, 0], 5, random.Random(2))
        assert not matrix.any()

    def test_target_beyond_population_rejected(self):
        with pytest.raises(ValueError):
            synthesize_users([6], 5, random.Random(3))

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            synthesize_users([-1], 5, random.Random(4))


class RecordingTransport(InProcessTransport):
    """Delivers every frame unchanged and decodes each announcement it carries."""

    def __init__(self):
        super().__init__()
        self.views = []

    def deliver(self, blob, direction):
        blob = super().deliver(blob, direction)
        if blob[0] == layouts.KINDS["round"]:
            self.views.append(decode_announcement(blob))
        return blob

    def partitions(self):
        """Each announced round id's groups, as a set of member-id tuples."""
        groups = {}
        for view in self.views:
            groups.setdefault(view.round_id, set()).add(view.member_ids)
        return groups


class TestSimulateRound:
    def run(self, cfg, seed=0, vec_seed=0, transport=None, round_id=0):
        rng = random.Random(seed)
        keys = setup_users(cfg.n_users, rng)
        vecs = np.random.default_rng(vec_seed).integers(
            0, 5, size=(cfg.n_users, cfg.plain_length())
        )
        return simulate_round(cfg, vecs, keys, round_id, rng, transport), vecs

    def test_station_mode_exactness_and_payload(self):
        cfg = SimConfig(n_users=10, group_size=5, threshold=2, mode="station", n_stations=582)
        outcome, vecs = self.run(cfg)
        assert np.array_equal(outcome.values, vecs.sum(axis=0))
        assert outcome.report.verified and not outcome.report.recovery_invoked
        assert all(g.payload_bytes_per_member == 4656 for g in outcome.report.groups)

    def test_report_totals_match_transport_counters(self):
        cfg = SimConfig(n_users=10, group_size=5, threshold=2, mode="station", n_stations=582)
        bus = InProcessTransport()
        outcome, _ = self.run(cfg, transport=bus)
        report = outcome.report
        # each of the 10 members uploads 13 fixed bytes and its 1,164 words
        assert report.upload_bytes == bus.bytes_by_direction[UPLOAD] == 46690  # frozen
        # each of the 10 members downloads its group's announcement: 21 fixed
        # bytes, then the 5 members' ids in 4 bytes and keys in 32 bytes each
        assert report.download_bytes == bus.bytes_by_direction[DOWNLOAD] == 2010

    def test_bytes_match_framing_arithmetic(self):
        # single group of 2, no dropouts: totals recomputable from the wire API
        cfg = SimConfig(n_users=2, group_size=2, threshold=2, mode="station", n_stations=3)
        rng = random.Random(5)
        keys = setup_users(2, rng)
        vecs = np.zeros((2, 6), dtype=np.int64)
        outcome = simulate_round(cfg, vecs, keys, 9, rng)

        view = GroupView(
            round_id=9,
            member_ids=(0, 1),
            public_keys=(keys[0].public_bytes, keys[1].public_bytes),
            vector_length=6,
        )
        expected_down = 2 * len(encode_announcement(view))
        expected_up = sum(
            len(encode_vector_message(VectorMessage(u, 9, np.zeros(6, dtype=np.uint32))))
            for u in (0, 1)
        )
        assert outcome.report.download_bytes == expected_down
        assert outcome.report.upload_bytes == expected_up

    @pytest.mark.parametrize("mode", ["station", "sketch"])
    @pytest.mark.parametrize("round_id", [-1, 2**64])
    def test_round_id_outside_words_rejected(self, mode, round_id):
        # the round id is the nonce of every mask stream and, in a sketch
        # round, seeds the hash rows as 8 bytes
        cfg = SimConfig(n_users=4, group_size=2, threshold=2, mode=mode, n_stations=3)
        with pytest.raises(ProtocolError, match="round_id"):
            self.run(cfg, round_id=round_id)

    def test_sketch_seeds_ignore_earlier_draws(self):
        # the seeds follow the key set and the round id, so however far the
        # round rng has been drawn, a round announces the same seeds
        cfg = SimConfig(n_users=6, group_size=3, threshold=2, mode="sketch",
                        n_stations=10, sketch_epsilon=0.2, sketch_delta=0.2)
        keys = setup_users(6, random.Random(3))
        vecs = np.ones((6, cfg.plain_length()), dtype=np.int64)
        announced = {}
        for skip in (0, 1, 17):
            rng = random.Random(4)
            for _ in range(skip):
                rng.random()
            for round_id in (2, 3):
                bus = RecordingTransport()
                outcome = simulate_round(cfg, vecs, keys, round_id, rng, bus)
                assert {v.sketch_seeds for v in bus.views} == {outcome.sketch_seeds}
                announced.setdefault(round_id, set()).add(outcome.sketch_seeds)
        assert all(len(seeds) == 1 for seeds in announced.values())
        assert announced[2] != announced[3]

    def test_dropouts_recover_online_sum(self):
        cfg = SimConfig(n_users=12, group_size=4, threshold=2, mode="station",
                        n_stations=3, dropout_rate=0.3)
        rng = random.Random(7)
        keys = setup_users(12, rng)
        vecs = np.random.default_rng(1).integers(0, 4, size=(12, 6))
        outcome = simulate_round(cfg, vecs, keys, 5, rng)
        assert outcome.report.recovery_invoked
        assert outcome.report.verified
        online = list(outcome.online_users)
        assert 0 < len(online) < 12
        assert np.array_equal(outcome.values, vecs[online].sum(axis=0))

    def test_warm_point_tables_match_cold_keypairs(self):
        # keypairs kept across rounds reuse their pair points; keypairs rebuilt
        # from the private bytes every round exchange afresh; nothing differs
        cfg = SimConfig(n_users=12, group_size=4, threshold=2, mode="station",
                        n_stations=3, dropout_rate=0.3)
        vecs = np.random.default_rng(2).integers(0, 4, size=(12, 6))
        bus = RecordingTransport()
        runs = []
        for cold in (False, True):
            rng = random.Random(11)
            keys = setup_users(12, rng)
            outcomes = []
            for round_id in range(5):
                if cold:
                    keys = {uid: KeyPair(k.private_bytes) for uid, k in keys.items()}
                outcomes.append(simulate_round(cfg, vecs, keys, round_id, rng, bus))
            runs.append((keys, outcomes))
        (warm_keys, warm), (_, cold) = runs
        assert any(o.report.recovery_invoked for o in warm)
        for a, b in zip(warm, cold):
            assert np.array_equal(a.transported, b.transported)
            assert np.array_equal(a.values, b.values)
            assert a.online_users == b.online_users
            assert a.report.upload_bytes == b.report.upload_bytes
            assert a.report.download_bytes == b.report.download_bytes
        group_of = {uid: group for group in bus.partitions()[0] for uid in group}
        assert all(len(k._pair_keys) <= len(group_of[uid]) - 1 for uid, k in warm_keys.items())

    def test_population_below_threshold_skips(self):
        cfg = SimConfig(n_users=2, group_size=2, threshold=3, mode="station", n_stations=2)
        outcome, _ = self.run(cfg)
        assert outcome.report.skipped
        assert outcome.report.groups == ()
        assert not outcome.values.any()
        assert outcome.online_users == ()

    def test_sketch_mode_overestimates_only(self):
        cfg = SimConfig(n_users=6, group_size=3, threshold=2, mode="sketch",
                        n_stations=10, sketch_epsilon=0.2, sketch_delta=0.2)
        outcome, vecs = self.run(cfg)
        assert outcome.sketch_seeds is not None
        truth = vecs.sum(axis=0)
        assert outcome.values.shape == truth.shape
        assert (outcome.values >= truth).all()

    def test_vector_shape_validated(self):
        cfg = SimConfig(n_users=4, group_size=2, threshold=2, mode="station", n_stations=3)
        rng = random.Random(0)
        keys = setup_users(4, rng)
        with pytest.raises(ValueError):
            simulate_round(cfg, np.zeros((4, 5), dtype=np.int64), keys, 0, rng)

    def test_keys_must_cover_population(self):
        cfg = SimConfig(n_users=4, group_size=2, threshold=2, mode="station", n_stations=3)
        rng = random.Random(0)
        keys = setup_users(3, rng)
        with pytest.raises(ValueError):
            simulate_round(cfg, np.zeros((4, 6), dtype=np.int64), keys, 0, rng)

    def test_oracle_mismatch_is_fatal(self, monkeypatch):
        cfg = SimConfig(n_users=4, group_size=2, threshold=2, mode="station", n_stations=3)

        real_aggregate = sim_mod.aggregate

        def corrupted(ciphertexts, view):
            result = real_aggregate(ciphertexts, view)
            return type(result)(values=result.values + np.uint32(1), missing=result.missing)

        monkeypatch.setattr(sim_mod, "aggregate", corrupted)
        with pytest.raises(OracleMismatch):
            self.run(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_users=1, group_size=2, threshold=2)
        with pytest.raises(ValueError):
            SimConfig(n_users=5, group_size=2, threshold=2, mode="carrier-pigeon")
        with pytest.raises(ValueError):
            SimConfig(n_users=5, group_size=2, threshold=2, dropout_rate=1.0)
        with pytest.raises(ValueError):
            SimConfig(n_users=5, group_size=2, threshold=2, mode="station").plain_length()
        for dims in ({"n_stations": -3}, {"n_stations": 0}, {"grid_rows": -2, "grid_cols": -3},
                     {"grid_rows": 4, "grid_cols": 0}):
            with pytest.raises(ValueError, match="must be at least 1"):
                SimConfig(n_users=5, group_size=2, threshold=2, **dims)

    @pytest.mark.parametrize("dims, length", [
        ({"mode": "od", "n_stations": 4097}, 4097 * 4097),
        ({"mode": "station", "n_stations": (1 << 23) + 1}, (1 << 24) + 2),
        ({"mode": "grid", "grid_rows": 4097, "grid_cols": 4096}, 4097 * 4096),
    ], ids=["od", "station", "grid"])
    def test_vector_past_the_round_limit_is_refused(self, dims, length):
        with pytest.raises(ValueError, match=f"vector of {length} words exceeds the 16777216"):
            SimConfig(n_users=5, group_size=2, threshold=2, **dims)

    def test_largest_vector_a_round_carries_is_accepted(self):
        for dims in ({"mode": "od", "n_stations": 4096}, {"mode": "station", "n_stations": 1 << 23},
                     {"mode": "grid", "grid_rows": 4096, "grid_cols": 4096}):
            cfg = SimConfig(n_users=5, group_size=2, threshold=2, **dims)
            assert cfg.vector_length() == 1 << 24
        sketch = SimConfig(n_users=5, group_size=2, threshold=2, mode="sketch", n_stations=10**6)
        assert sketch.vector_length() < 1 << 24

    def test_od_mode_vector_is_station_squared(self):
        cfg = SimConfig(n_users=4, group_size=2, threshold=2, mode="od", n_stations=7)
        assert cfg.plain_length() == 49


class TestKeyEpochGroups:
    """The partition follows the cohort's key set: every round over one key
    set meets the same groups, so each member exchanges with each peer once."""

    CFG = SimConfig(n_users=12, group_size=4, threshold=2, mode="station",
                    n_stations=3, dropout_rate=0.3)
    VECS = np.random.default_rng(4).integers(0, 4, size=(12, 6))

    def run(self, keys, rounds, seed=3):
        bus, rng = RecordingTransport(), random.Random(seed)
        outcomes = [simulate_round(self.CFG, self.VECS, keys, r, rng, bus) for r in range(rounds)]
        return bus.partitions(), outcomes

    def test_one_key_set_keeps_its_groups(self):
        partitions, outcomes = self.run(setup_users(12, random.Random(1)), 5)
        assert len(partitions) == 5
        first = partitions[0]
        assert all(partition == first for partition in partitions.values())
        assert len(first) == 3
        assert sorted(uid for group in first for uid in group) == list(range(12))
        assert any(o.report.recovery_invoked for o in outcomes)

    def test_rekeyed_member_changes_the_partition(self):
        keys = setup_users(12, random.Random(1))
        before, _ = self.run(keys, 1)
        after, _ = self.run({**keys, 5: keygen(random.Random(99))}, 1)
        assert before[0] != after[0]

    def test_same_seed_same_groups_and_outcomes(self):
        pa, oa = self.run(setup_users(12, random.Random(1)), 3)
        pb, ob = self.run(setup_users(12, random.Random(1)), 3)
        assert pa == pb
        for a, b in zip(oa, ob):
            assert np.array_equal(a.transported, b.transported)
            assert np.array_equal(a.values, b.values)
            assert a.online_users == b.online_users
            assert replace(a.report, duration_s=0.0) == replace(b.report, duration_s=0.0)

    def test_collect_call_exchanges_once_per_peer(self, monkeypatch):
        # the collect benchmark's cohort and call: 200 users in 4 groups of
        # 50 over 8 epochs leave 200 x 49 pair keys, all from the first round
        made = []

        def recording_setup(n_users, rng):
            made.append(setup_users(n_users, rng))
            return made[-1]

        monkeypatch.setattr(pipeline_mod, "setup_users", recording_setup)
        sim = SimConfig(n_users=200, group_size=50, threshold=2, mode="station", n_stations=5)
        targets = synthetic_counts(10, 1, np.random.default_rng(4242), max_count=30)
        block = SeriesSet(targets.counts[:, :8], EpochSpec(targets.epochs.start, 8))
        aggregates, _ = collect_aggregate_series(block, sim, random.Random(4242))
        assert np.array_equal(aggregates.counts, block.counts)
        (keys,) = made
        assert sum(len(k._pair_keys) for k in keys.values()) == 200 * 49 == 9800


class TamperingTransport(InProcessTransport):
    """Counts each frame as sent, then delivers every frame of type ``kind``
    with its fields rewritten by ``edit``, through the tests' own copy of the
    layouts, so the result still reaches the decoder of the member or the
    aggregator."""

    def __init__(self, kind, edit):
        super().__init__()
        self.kind, self.edit = kind, edit

    def deliver(self, blob, direction):
        blob = super().deliver(blob, direction)
        fields = layouts.parse(blob)
        if fields["type"] != self.kind:
            return blob
        return layouts.build(self.edit(fields))


def edit_keys(edit):
    """An announcement edit that rewrites its joined public keys."""
    return lambda fields: {**fields, "keys": edit(fields["keys"])}


class TestHostileRound:
    """A member acts only on the frames it receives, and the aggregator checks
    every upload's fixed fields: a tampered frame fails the round with ProtocolError."""

    # the round of test_dropouts_recover_online_sum, which runs recovery
    STATION = SimConfig(n_users=12, group_size=4, threshold=2, mode="station",
                        n_stations=3, dropout_rate=0.3)
    SKETCH = SimConfig(n_users=6, group_size=3, threshold=2, mode="sketch",
                       n_stations=10, sketch_epsilon=0.2, sketch_delta=0.2)

    def run(self, cfg, bus):
        rng = random.Random(7)
        keys = setup_users(cfg.n_users, rng)
        vecs = np.random.default_rng(1).integers(0, 4, size=(cfg.n_users, cfg.plain_length()))
        return simulate_round(cfg, vecs, keys, 5, rng, bus)

    @pytest.fixture
    def stream_calls(self, monkeypatch):
        # members expand every pair stream through this one keystream helper
        calls = []
        real = masking_mod._stream_blocks
        monkeypatch.setattr(masking_mod, "_stream_blocks", lambda *a: calls.append(a) or real(*a))
        return calls

    @pytest.mark.parametrize("length", [2**32 - 1, 7], ids=["2**32-1", "wrong-length"])
    def test_announced_length_expands_no_mask(self, length, stream_calls):
        bus = TamperingTransport("round", lambda h: {**h, "vector_length": length})
        with pytest.raises(ProtocolError, match="vector_length"):
            self.run(self.STATION, bus)
        assert stream_calls == []

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda b: b[:-1], id="one-byte-short"),
        pytest.param(lambda b: b + b"\0", id="one-byte-long"),
        pytest.param(lambda b: b[:-32], id="one-key-short"),
    ])
    def test_announced_body_that_does_not_fit_expands_no_mask(self, edit, stream_calls):
        with pytest.raises(ProtocolError, match="its counts need"):
            self.run(self.STATION, TamperingTransport("round", edit_keys(edit)))
        assert stream_calls == []

    @pytest.mark.parametrize("cfg", [STATION, SKETCH], ids=["station", "sketch"])
    @pytest.mark.parametrize("count", [-1, 2**32])
    def test_count_outside_words_rejected(self, cfg, count):
        # a sketch would wrap -1 to 2**32 - 1 and 2**32 to 0 without a word
        rng = random.Random(7)
        keys = setup_users(cfg.n_users, rng)
        vecs = np.ones((cfg.n_users, cfg.plain_length()), dtype=np.int64)
        vecs[0, 1] = count
        with pytest.raises(ProtocolError, match=r"lie in \[0, 2\*\*32\)"):
            simulate_round(replace(cfg, dropout_rate=0.0), vecs, keys, 5, rng)

    def test_swapped_member_key(self):
        with pytest.raises(ProtocolError, match="does not match announced key"):
            self.run(self.STATION, TamperingTransport(
                "round", edit_keys(lambda b: b[32:64] + b[:32] + b[64:])))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda s: s[:-1], id="one-row-short"),
        pytest.param(lambda s: s + [[1, 2]], id="one-row-over"),
        pytest.param(lambda s: [[0, s[0][1]]] + s[1:], id="a-zero"),
        pytest.param(lambda s: [[(1 << 61) - 1, 0]] + s[1:], id="a-at-prime"),
        pytest.param(lambda s: [], id="missing"),
    ])
    def test_sketch_seeds_that_do_not_fit(self, edit):
        bus = TamperingTransport("round", lambda h: {**h, "sketch_seeds": edit(h["sketch_seeds"])})
        with pytest.raises(ProtocolError, match="sketch seeds"):
            self.run(self.SKETCH, bus)

    def test_sketch_seeds_in_a_station_round(self):
        bus = TamperingTransport("round", lambda h: {**h, "sketch_seeds": [[1, 2]]})
        with pytest.raises(ProtocolError, match="sketch seeds"):
            self.run(self.STATION, bus)

    def test_recovery_request_for_another_round(self):
        bus = TamperingTransport("recovery_request", lambda h: {**h, "round_id": h["round_id"] + 1})
        with pytest.raises(ProtocolError, match="recovery request for round 6"):
            self.run(self.STATION, bus)

    @pytest.mark.parametrize("kind, edit", [
        pytest.param("ciphertext", lambda h: {**h, "user_id": h["user_id"] + 1}, id="user_id"),
        pytest.param("ciphertext", lambda h: {**h, "round_id": 4}, id="round_id"),
        pytest.param("ciphertext", lambda h: {**h, "type": "recovery_share"}, id="kind"),
        pytest.param("recovery_share", lambda h: {**h, "user_id": h["user_id"] + 1},
                     id="share-user_id"),
    ])
    def test_upload_header_must_match_its_sender(self, kind, edit):
        with pytest.raises(ProtocolError, match="claims user"):
            self.run(self.STATION, TamperingTransport(kind, edit))


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*argv, timeout, env_vars=None):
    """A fresh interpreter with ``src`` on its path and ``env_vars`` set."""
    env = {**os.environ, **(env_vars or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout,
    )


def run_cli(*argv, timeout, env_vars=None):
    return run_python("-m", "mobagg.harness.cli", *argv, timeout=timeout, env_vars=env_vars)


# makes every import of SciPy fail, as on a host without it
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
"""


class TestImportSeam:
    """The protocol side imports no analytics, and the analytics no protocol."""

    def test_simulate_runs_without_scipy(self, tmp_path):
        run_module = "import runpy; runpy.run_module('mobagg.harness.cli', run_name='__main__')"
        result = run_python(
            "-c", NO_SCIPY + run_module,
            "--out", str(tmp_path), "simulate", "--rounds", "1", "--users", "4",
            "--group-size", "2", "--threshold", "2", "--n-stations", "2",
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "rounds.csv").is_file()

    @pytest.mark.parametrize("modules, absent", [
        pytest.param(
            # what perfbench/workloads.py imports of the package
            ["mobagg.ingest", "mobagg.harness.pipeline", "mobagg.harness.simulate",
             "mobagg.harness.synth", "mobagg.harness.transport", "mobagg.timeseries"],
            ["scipy", "mobagg.forecast"],
            id="protocol-side",
        ),
        pytest.param(
            ["mobagg.forecast", "mobagg.timeseries", "mobagg.ingest"],
            ["mobagg.privagg", "mobagg.harness.simulate"],
            id="analytics-side",
        ),
    ])
    def test_imports_stay_on_their_side(self, modules, absent):
        # a from-import, as in ``from name import __doc__``, probes ``__path__``
        code = (
            f"import sys\n"
            f"for name in {modules!r}: __import__(name, fromlist=['__doc__'])\n"
            f"print([name for name in {absent!r} if name in sys.modules])"
        )
        result = run_python("-c", code, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestGpsIngestTimeZone:
    def test_grid_cells_do_not_depend_on_the_host_zone(self, tmp_path):
        # 1454313600 is 2016-02-01 08:00 UTC and 00:00 in Los Angeles
        gps = tmp_path / "gps.csv"
        gps.write_text("cab_id,lat,lon,unix_time\nv1,0.5,0.5,1454313600\n")
        cells = {}
        for zone in ("UTC", "America/Los_Angeles"):
            out = tmp_path / zone.replace("/", "-")
            done = run_cli(
                "--out", str(out), "ingest", "--kind", "grid", "--input", str(gps),
                "--start", "2016-02-01T00:00:00", "--epochs", "24",
                "--grid-origin-lat", "0", "--grid-origin-lon", "0",
                "--grid-rows", "1", "--grid-cols", "1",
                "--cell-height-deg", "1", "--cell-width-deg", "1",
                timeout=60, env_vars={"TZ": zone},
            )
            assert done.returncode == 0, done.stderr
            cells[zone] = (out / "grid_cells.csv").read_bytes()
        assert cells["UTC"] == cells["America/Los_Angeles"]
        assert cells["UTC"].decode().splitlines() == ["roi_id,epoch_index,count", "0,8,1"]


class TestTcpTransport:
    @pytest.mark.parametrize("size", [0, 1, CHUNK - 4, CHUNK, CHUNK + 1])
    def test_round_trip_at_chunk_boundaries(self, size):
        blob = random.Random(size).randbytes(size)
        bus = TcpLoopbackTransport()
        try:
            assert bus.deliver(blob, UPLOAD) == blob
            assert bus.deliver(blob[::-1], DOWNLOAD) == blob[::-1]
        finally:
            bus.close()
        assert bus.bytes_by_direction == {UPLOAD: size, DOWNLOAD: size}

    def test_sixteen_mib_frame_does_not_stall(self):
        blob = np.random.default_rng(16).bytes(16 << 20)
        bus = TcpLoopbackTransport()
        echoed = []
        worker = threading.Thread(
            target=lambda: echoed.append(bus.deliver(blob, DOWNLOAD)), daemon=True
        )
        worker.start()
        worker.join(timeout=30)
        if worker.is_alive():
            # a stuck sendall only wakes once its socket is shut down
            for sock in (bus._client, bus._server):
                sock.shutdown(socket.SHUT_RDWR)
        bus.close()
        assert not worker.is_alive(), "16 MiB delivery still blocked after 30 s"
        assert echoed == [blob]
        assert bus.bytes_by_direction == {UPLOAD: 0, DOWNLOAD: 16 << 20}

    def test_both_sockets_disable_nagle(self):
        bus = TcpLoopbackTransport()
        try:
            for sock in (bus._client, bus._server):
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        finally:
            bus.close()

    def test_od_cli_round_of_five_mb_frames(self, tmp_path):
        argv = ["simulate", "--mode", "od", "--n-stations", "1100", "--users", "4",
                "--group-size", "2", "--rounds", "1", "--transport"]
        runs = {}
        for transport in ("memory", "tcp"):
            out = tmp_path / transport
            done = run_cli("--out", str(out), *argv, transport, timeout=60)
            assert done.returncode == 0, done.stderr
            runs[transport] = (out / "rounds.csv").read_text()
        assert runs["tcp"] == runs["memory"]
        rows = list(csv.DictReader(runs["tcp"].splitlines()))
        assert rows[0]["payload_bytes_per_member"] == str(4 * 1100 * 1100)

    def test_frame_echo(self):
        bus = TcpLoopbackTransport()
        try:
            blob = b"\x00\x01payload" * 100
            assert bus.deliver(blob, UPLOAD) == blob
            assert bus.bytes_by_direction[UPLOAD] == len(blob)
        finally:
            bus.close()

    def test_round_over_tcp_matches_in_process(self):
        # a station round, and a sketch round with dropouts, whose recovery
        # requests and shares cross the socket too
        for cfg, recovers in (
            (SimConfig(n_users=6, group_size=3, threshold=2, mode="station", n_stations=3), False),
            (SimConfig(n_users=12, group_size=4, threshold=2, mode="sketch", n_stations=10,
                       dropout_rate=0.3, sketch_epsilon=0.2, sketch_delta=0.2), True),
        ):
            keys = setup_users(cfg.n_users, random.Random(9))
            vecs = np.random.default_rng(2).integers(0, 4, size=(cfg.n_users, cfg.plain_length()))
            mem_bus = InProcessTransport()
            mem = simulate_round(cfg, vecs, keys, 1, random.Random(4), mem_bus)
            tcp_bus = TcpLoopbackTransport()
            try:
                tcp = simulate_round(cfg, vecs, keys, 1, random.Random(4), tcp_bus)
            finally:
                tcp_bus.close()
            assert tcp.report.recovery_invoked == recovers and tcp.report.verified
            assert np.array_equal(mem.values, tcp.values)
            assert np.array_equal(mem.transported, tcp.transported)
            assert mem_bus.bytes_by_direction == tcp_bus.bytes_by_direction


def report(mode="station", up=1000, down=500, recovered=False, skipped=False, duration=0.25):
    groups = ()
    if not skipped:
        groups = (
            GroupReport(0, 4, 4 if not recovered else 3, 16, up, down, recovered, True),
        )
    return RoundReport(round_id=0, mode=mode, n_users=4, vector_length=4,
                       skipped=skipped, groups=groups, duration_s=duration)


class TestOverheadReport:
    def test_empty(self):
        assert overhead_report([]) == []

    def test_identical_rounds_mean_to_themselves(self):
        rows = overhead_report([report(), report()])
        (row,) = rows
        assert row.rounds == 2 and row.skipped == 0
        assert row.mean_upload_bytes == 1000.0
        assert row.mean_download_bytes == 500.0
        assert row.recovery_rate == 0.0
        assert row.mean_duration_s == 0.25

    def test_unit_conversions(self):
        (row,) = overhead_report([report(up=4_656_000)])
        assert row.mean_upload_kb == pytest.approx(4656.0)
        assert row.mean_upload_kib == pytest.approx(4546.875)

    def test_skipped_rounds_counted_but_not_averaged(self):
        rows = overhead_report([report(up=100), report(skipped=True)])
        (row,) = rows
        assert row.rounds == 1 and row.skipped == 1
        assert row.mean_upload_bytes == 100.0

    def test_recovery_rate_is_a_fraction(self):
        rows = overhead_report([report(recovered=True), report(), report(), report()])
        assert rows[0].recovery_rate == 0.25

    def test_modes_sorted(self):
        rows = overhead_report([report(mode="station"), report(mode="grid")])
        assert [r.mode for r in rows] == ["grid", "station"]

    def test_table_and_csv_outputs(self, tmp_path):
        rows = overhead_report([report(), report(mode="grid", up=2000)])
        table = format_overhead_table(rows)
        assert table.splitlines()[0].startswith("mode")
        assert len(table.splitlines()) == 3

        csv_path = write_overhead_csv(tmp_path / "overhead.csv", rows)
        lines = Path(csv_path).read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "mode"
        assert len(lines) == 3

    def test_round_detail_csv(self, tmp_path):
        path = write_round_reports(tmp_path / "rounds.csv", [report(), report(skipped=True)])
        lines = Path(path).read_text().strip().splitlines()
        assert len(lines) == 3  # header + one group row + one skipped row
        assert lines[2].endswith(",1")


SIM = SimConfig(n_users=8, group_size=4, threshold=2, mode="station", n_stations=2, seed=3)


def spiked_counts() -> SeriesSet:
    """Three ROIs over three weeks with a spike at ROI 1, day 16, 17:00."""
    synth = synthetic_counts(3, 3, np.random.default_rng(3))
    counts = synth.counts.copy()
    counts[1, 16 * 24 + 17] += 25
    return SeriesSet(counts, synth.epochs)


class TestPipeline:
    def test_no_dropout_collection_recovers_targets_exactly(self):
        targets = synthetic_counts(4, 2, np.random.default_rng(3), max_count=8)
        aggregates, reports = collect_aggregate_series(targets, SIM, random.Random(3))
        assert np.array_equal(aggregates.counts, targets.counts)
        assert len(reports) == targets.epochs.n_epochs
        assert all(r.verified for r in reports)

    def test_roi_count_must_match_vector_length(self):
        targets = synthetic_counts(3, 2, np.random.default_rng(3), max_count=8)
        with pytest.raises(ValueError):
            collect_aggregate_series(targets, SIM, random.Random(3))

    def test_end_to_end_runs_are_bit_identical(self, tmp_path):
        config = PipelineConfig(sim=SIM, weeks=2, arma_orders=(1, 0), scan_start_day=12)
        r1 = run_pipeline(config, tmp_path / "a")
        r2 = run_pipeline(config, tmp_path / "b")
        assert np.array_equal(r1.aggregates.counts, r2.aggregates.counts)
        assert r1.anomalies == r2.anomalies
        for key in r1.paths:
            assert Path(r1.paths[key]).read_bytes() == Path(r2.paths[key]).read_bytes()

    def test_analysis_needs_only_the_aggregate_matrix(self, tmp_path):
        # the analytics side reproduces the pipeline output from the captured
        # counts alone, which is the privacy seam working as intended
        config = PipelineConfig(sim=SIM, weeks=2, arma_orders=(1, 0), scan_start_day=12)
        full = run_pipeline(config, tmp_path / "full")
        replay = analyze_aggregates(full.aggregates, config, tmp_path / "replay")
        assert replay.anomalies == full.anomalies
        assert replay.helper_ids == full.helper_ids
        for key in full.paths:
            assert Path(full.paths[key]).read_bytes() == Path(replay.paths[key]).read_bytes()

    def test_default_config_reports_are_frozen(self, tmp_path):
        # Default config: AIC order selection, which picks MA orders for all
        # three ROIs here, so every scanned day runs the simplex search. The
        # hashes were taken while the ARMA objective still called
        # scipy.signal.lfilter.
        result = analyze_aggregates(spiked_counts(), PipelineConfig(sim=SIM), tmp_path)
        assert all(result.scans[roi].orders[1] > 0 for roi in range(3))
        digests = {
            key: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for key, path in result.paths.items()
        }
        assert digests == {
            "forecast": "5432997181e11b6f18b2a8c1ce8b351297968586819fc8895d15f6f3eb0e4e6d",
            "anomalies": "950264b315eae938e9d2fe9ce3caae5fd1b5bc472ea8fabe4a66b3493d2d83a1",
            "enhancement": "131546a9ebc98fd4cda205ca7b4e067da5973580d180688bda89bc43ab7e600b",
        }

    def test_scan_window_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(sim=SIM, scan_start_day=11)  # needs 5 + 7 days before it
        with pytest.raises(ValueError):
            PipelineConfig(sim=SIM, weeks=0)
        # rejected before any collect round, not after the scan
        for field, value, message in [
            ("keep_fraction", 0.0, "keep_fraction must be in"),
            ("keep_fraction", 1.5, "keep_fraction must be in"),
            ("top_k", 0, "top_k must be >= 1"),
            ("max_lag", -1, "max_lag_epochs must be >= 0"),
            ("train_days", 0, "train_days must be >= 1"),
        ]:
            with pytest.raises(ValueError, match=message):
                PipelineConfig(sim=SIM, **{field: value})


def assert_same_scan(a, b):
    assert np.array_equal(a.epoch_indices, b.epoch_indices)
    assert np.array_equal(a.actuals, b.actuals)
    assert np.array_equal(a.predictions, b.predictions)
    assert np.array_equal(a.residuals, b.residuals)
    assert np.array_equal(a.errors.absolute, b.errors.absolute)
    assert a.errors.mean == b.errors.mean
    assert a.orders == b.orders
    assert a.fallback_epochs == b.fallback_epochs
    assert [m and m.aic for m in a.models] == [m and m.aic for m in b.models]


class TestAnalyzeRoi:
    """One contiguous scan per ROI equals the separate reference scans exactly."""

    @pytest.fixture(scope="class")
    def series(self):
        return seasonal_series(0, 4, np.random.default_rng(0), phi=0.6, sigma=6.0)

    def check_against_references(self, series, orders):
        (result,) = analyze_rois([series], 12, 4, train_days=5, calibration_days=7,
                                 orders=orders)
        profile = seasonal_profile(series)
        if orders is None:
            d = deseasonalize(series, profile).values
            orders = select_order(d[7 * 24 : 12 * 24], 3, 2)
        assert result.scan.orders == orders
        week = rolling_scan(series, profile, 5, 7, orders, train_days=5)
        assert_same_scan(result.scan.days(5, 7), week)
        mu, sigma = week.residuals.mean(), week.residuals.std()
        assert result.mu == mu and result.sigma == sigma
        scan = rolling_scan(series, profile, 12, 4, orders, train_days=5)
        assert_same_scan(result.scan.days(12, 4), scan)
        last = rolling_scan(series, profile, 15, 1, orders, train_days=5)
        assert_same_scan(result.scan.days(15, 1), last)
        events = detect_anomalies(scan.residuals, mu, sigma, roi_id=0, epoch_offset=12 * 24)
        assert list(result.events) == events
        return result

    def test_selected_orders_match_separate_calls(self, series):
        result = self.check_against_references(series, None)
        assert np.array_equal(result.scan.epoch_indices, np.arange(5 * 24, 16 * 24))
        with pytest.raises(ValueError):
            result.scan.days(4, 1)
        with pytest.raises(ValueError):
            result.scan.days(15, 2)

    def test_fallback_days_are_sliced_with_their_slots(self, series, monkeypatch):
        d = deseasonalize(series, seasonal_profile(series)).values
        failing = [d[(day - 5) * 24 : day * 24] for day in (9, 13)]  # calibration, scan
        fit = rolling_mod.fit_arma

        def flaky(window, p, q):
            if any(np.array_equal(window, w) for w in failing):
                raise FitError("forced")
            return fit(window, p, q)

        monkeypatch.setattr(rolling_mod, "fit_arma", flaky)
        result = self.check_against_references(series, (1, 0))
        day9, day13 = tuple(range(9 * 24, 10 * 24)), tuple(range(13 * 24, 14 * 24))
        assert result.scan.fallback_epochs == day9 + day13
        assert result.scan.days(12, 4).fallback_epochs == day13
        assert result.scan.days(15, 1).fallback_epochs == ()

    def test_scan_window_needs_history(self, series):
        with pytest.raises(ValueError, match="train_days \\+ calibration_days"):
            analyze_rois([series], 11, 4)
        with pytest.raises(ValueError):
            analyze_rois([series], 12, 0)

    def test_order_window_must_lie_in_the_series(self, series):
        d = series.values
        assert rolling_scan(series, None, 27, 1).orders == select_order(d[22 * 24 : 27 * 24])
        with pytest.raises(ValueError, match="day 4 has only 4 days of history, need 5"):
            rolling_scan(series, None, 4, 1)
        with pytest.raises(ValueError, match="scan ends at epoch 696, series has 672"):
            rolling_scan(series, None, 28, 1)


def two_workers(n_rois):
    return min(2, n_rois)


def one_worker(n_rois):
    return 1


class TestAnalyzeRois:
    """The pooled map over ROIs equals the in-process loop bit for bit."""

    @pytest.fixture(scope="class")
    def counts(self):
        return spiked_counts()

    @pytest.fixture(scope="class")
    def both_paths(self, counts):
        series = [counts.series(r) for r in range(counts.n_rois)]
        runs = []
        for workers in (two_workers, one_worker):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline_mod, "_worker_count", workers)
                runs.append(analyze_rois(series, 12, 9))
        return runs

    def test_every_roi_is_bit_identical(self, both_paths):
        pooled, local = both_paths
        assert [a.scan.roi_id for a in pooled] == [0, 1, 2]
        assert any(a.events for a in pooled)
        for a, b in zip(pooled, local, strict=True):
            assert_same_scan(a.scan, b.scan)
            assert np.array_equal([a.mu, a.sigma], [b.mu, b.sigma])
            assert a.events == b.events
            assert np.array_equal(a.deseasonalized.values, b.deseasonalized.values)
            assert a.seconds > 0 and b.seconds > 0

    def test_reports_are_byte_identical(self, counts, tmp_path, monkeypatch):
        paths = []
        for workers in (two_workers, one_worker):
            monkeypatch.setattr(pipeline_mod, "_worker_count", workers)
            out = tmp_path / workers.__name__
            paths.append(analyze_aggregates(counts, PipelineConfig(sim=SIM), out).paths)
        pooled, local = paths
        for key in ("forecast", "anomalies", "enhancement"):
            assert pooled[key].read_bytes() == local[key].read_bytes()

    def test_worker_error_reaches_the_caller(self, counts, tmp_path, monkeypatch):
        # fork hands the patched fit_arma to the workers; an error that is
        # not a failed fit is raised, not taken as a fallback day
        series = counts.series(1)
        d = deseasonalize(series, seasonal_profile(series)).values
        failing = d[(14 - 5) * 24 : 14 * 24]  # training window of scan day 14
        fit = rolling_mod.fit_arma

        def broken(window, p, q):
            if np.array_equal(window, failing):
                raise ArithmeticError(f"roi 1 failed in process {os.getpid()}")
            return fit(window, p, q)

        monkeypatch.setattr(rolling_mod, "fit_arma", broken)
        monkeypatch.setattr(pipeline_mod, "_worker_count", two_workers)
        config = PipelineConfig(sim=SIM, arma_orders=(1, 0))
        with pytest.raises(ArithmeticError, match="roi 1 failed in process") as info:
            analyze_aggregates(counts, config, tmp_path)
        assert type(info.value) is ArithmeticError
        assert int(str(info.value).split()[-1]) != os.getpid()

    def test_fit_failures_fall_back_through_the_pool(self, counts, monkeypatch):
        # fork hands the patched fit_arma to the workers
        series = [counts.series(r) for r in range(counts.n_rois)]
        d = deseasonalize(series[2], seasonal_profile(series[2])).values
        failing = d[(14 - 5) * 24 : 14 * 24]  # training window of scan day 14
        fit = rolling_mod.fit_arma

        def flaky(window, p, q):
            if np.array_equal(window, failing):
                raise FitError("forced")
            return fit(window, p, q)

        monkeypatch.setattr(rolling_mod, "fit_arma", flaky)
        runs = []
        for workers in (two_workers, one_worker):
            monkeypatch.setattr(pipeline_mod, "_worker_count", workers)
            runs.append(analyze_rois(series, 12, 9, orders=(1, 0)))
        pooled, local = runs
        day14 = tuple(range(14 * 24, 15 * 24))
        assert [a.scan.fallback_epochs for a in pooled] == [(), (), day14]
        for a, b in zip(pooled, local, strict=True):
            assert_same_scan(a.scan, b.scan)

    def test_window_is_checked_before_any_fork(self, counts, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(pipeline_mod, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(pipeline_mod, "_worker_count", two_workers)
        series = [counts.series(r) for r in range(counts.n_rois)]
        with pytest.raises(ValueError, match="train_days \\+ calibration_days"):
            analyze_rois(series, 11, 4)
        with pytest.raises(ValueError, match="at least one day"):
            analyze_rois(series, 12, 0)

    def test_scipy_is_loaded_before_the_fork(self):
        # workers forked before the import would each import SciPy again
        code = """
import sys
import numpy as np
from mobagg.harness import pipeline
from mobagg.harness.synth import synthetic_counts

class Forked(Exception):
    pass

def no_pool(*args, **kwargs):
    raise Forked("scipy.signal" in sys.modules)

pipeline.ProcessPoolExecutor = no_pool
pipeline._worker_count = lambda n: min(2, n)
counts = synthetic_counts(3, 3, np.random.default_rng(3))
print("before", "scipy.signal" in sys.modules)
try:
    pipeline.analyze_rois([counts.series(r) for r in range(3)], 12, 9)
except Forked as fork:
    print("at fork", fork.args[0])
"""
        result = run_python("-c", code, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["before False", "at fork True"]

    def test_one_worker_per_cpu_at_most_one_per_roi(self):
        assert threading.active_count() == 1
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        assert pipeline_mod._worker_count(1) == 1
        assert pipeline_mod._worker_count(1000) == cpus

    def test_no_fork_while_another_thread_runs(self):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,), daemon=True)
        other.start()
        try:
            assert pipeline_mod._worker_count(1000) == 1
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()


def assert_same_fits(pooled, local):
    """Orders, coefficients, evaluations, fallback days and events, ROI by ROI."""
    for a, b in zip(pooled, local, strict=True):
        assert a.scan.orders == b.scan.orders
        assert a.scan.fallback_epochs == b.scan.fallback_epochs
        assert a.events == b.events
        for x, y in zip(a.scan.models, b.scan.models, strict=True):
            assert (x is None) == (y is None)
            if x is not None:
                assert (x.p, x.q, x.const, x.nfev) == (y.p, y.q, y.const, y.nfev)
                assert np.array_equal(x.ar, y.ar) and np.array_equal(x.ma, y.ma)


class TestFitTasks:
    """Fit tasks on a pool give every fit, fallback and error of the in-process path."""

    @pytest.fixture(scope="class")
    def series(self):
        counts = spiked_counts()
        return [counts.series(r) for r in range(counts.n_rois)]

    @staticmethod
    def both_paths(monkeypatch, run):
        outcomes = []
        for workers in (two_workers, one_worker):
            monkeypatch.setattr(pipeline_mod, "_worker_count", workers)
            outcomes.append(run())
        return outcomes

    @staticmethod
    def window(series, day, train_days=5):
        d = deseasonalize(series, seasonal_profile(series)).values
        return d[(day - train_days) * 24 : day * 24]

    @pytest.mark.parametrize("orders", [None, (2, 1)], ids=["selected", "given"])
    def test_every_fit_is_identical(self, series, monkeypatch, orders):
        pooled, local = self.both_paths(
            monkeypatch, lambda: analyze_rois(series, 12, 9, orders=orders))
        assert_same_fits(pooled, local)
        assert not any(a.scan.fallback_epochs for a in pooled)
        assert any(a.events for a in pooled)
        if orders is not None:
            assert {a.scan.orders for a in pooled} == {orders}

    def test_selection_winner_serves_its_own_day(self, series, monkeypatch):
        # scan days 5..20; day 12 trains on the selection window and is not refitted
        calls = []
        fit = rolling_mod.fit_arma

        def counting(window, p, q):
            calls.append((p, q))
            return fit(window, p, q)

        monkeypatch.setattr(rolling_mod, "fit_arma", counting)
        monkeypatch.setattr(pipeline_mod, "_worker_count", one_worker)
        (analysis,) = analyze_rois(series[:1], 12, 9)
        assert len(calls) == 16 - 1
        winner = analysis.scan.models[12 - 5]
        assert (winner.p, winner.q) == analysis.scan.orders == select_order(
            self.window(series[0], 12))
        refit = fit(self.window(series[0], 12), winner.p, winner.q)
        assert (refit.const, refit.nfev) == (winner.const, winner.nfev)
        assert np.array_equal(refit.ar, winner.ar) and np.array_equal(refit.ma, winner.ma)

    def test_failed_day_fit_is_the_same_fallback_day(self, series, monkeypatch):
        failing = self.window(series[1], 15)
        fit = rolling_mod.fit_arma

        def flaky(window, p, q):
            if np.array_equal(window, failing):
                raise FitError("forced")
            return fit(window, p, q)

        monkeypatch.setattr(rolling_mod, "fit_arma", flaky)
        pooled, local = self.both_paths(monkeypatch, lambda: analyze_rois(series, 12, 9))
        assert_same_fits(pooled, local)
        assert [a.scan.fallback_epochs for a in pooled] == [(), tuple(range(15 * 24, 16 * 24)), ()]
        assert pooled[1].scan.models[15 - 5] is None

    def test_failed_selection_raises_the_same_error(self, series, monkeypatch):
        # ROIs 1 and 2 fail their selection; the lower ROI's error is raised
        failing = {1: self.window(series[1], 12), 2: self.window(series[2], 12)}
        fit = arma_mod.fit_arma

        def broken(window, p, q):
            for roi, w in failing.items():
                if np.array_equal(window, w):
                    raise FitError(f"roi {roi} cannot be fitted")
            return fit(window, p, q)

        monkeypatch.setattr(arma_mod, "fit_arma", broken)

        def run():
            with pytest.raises(FitError) as info:
                analyze_rois(series, 12, 9)
            return type(info.value), str(info.value)

        pooled, local = self.both_paths(monkeypatch, run)
        assert pooled == local == (FitError, "no ARMA order could be fitted: roi 1 cannot be fitted")
