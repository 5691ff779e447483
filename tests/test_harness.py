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

import mobagg.forecast.rolling as rolling_mod
import mobagg.harness.pipeline as pipeline_mod
import mobagg.harness.simulate as sim_mod
import mobagg.privagg.masking as masking_mod
from mobagg.forecast import FitError, detect_anomalies, rolling_scan, select_order
from mobagg.harness.pipeline import (
    PipelineConfig,
    aic_orders,
    analyze_aggregates,
    analyze_roi,
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
from mobagg.harness.synth import seasonal_series, synthetic_counts
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
    frame,
    keygen,
    unframe,
)
from mobagg.timeseries import EpochSpec, deseasonalize, seasonal_profile


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
        if unframe(blob)[0]["type"] == "round":
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
        assert report.upload_bytes == bus.bytes_by_direction[UPLOAD] == 47100  # frozen
        assert report.download_bytes == bus.bytes_by_direction[DOWNLOAD] == 4510

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
            public_keys={u: k.public_bytes for u, k in keys.items()},
            vector_length=6,
        )
        expected_down = 2 * len(encode_announcement(view))
        expected_up = sum(
            len(encode_vector_message(VectorMessage(u, 9, np.zeros(6, dtype=np.uint32))))
            for u in (0, 1)
        )
        assert outcome.report.download_bytes == expected_down
        assert outcome.report.upload_bytes == expected_up

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
    with its header rewritten by ``edit``."""

    def __init__(self, kind, edit):
        super().__init__()
        self.kind, self.edit = kind, edit

    def deliver(self, blob, direction):
        blob = super().deliver(blob, direction)
        header, body = unframe(blob)
        if header["type"] != self.kind:
            return blob
        return frame(self.edit(header), body)


def swap_first_two_keys(header):
    a, b = (str(uid) for uid in header["members"][:2])
    keys = header["public_keys"]
    keys[a], keys[b] = keys[b], keys[a]
    return header


class TestHostileRound:
    """A member acts only on the frames it receives, and the aggregator checks
    every upload's header: a tampered frame fails the round with ProtocolError."""

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

    @pytest.mark.parametrize("length", [2**40, 7], ids=["2**40", "wrong-length"])
    def test_announced_length_expands_no_mask(self, length, monkeypatch):
        calls = []
        real = masking_mod.mask_stream
        monkeypatch.setattr(masking_mod, "mask_stream", lambda *a: calls.append(a) or real(*a))
        bus = TamperingTransport("round", lambda h: {**h, "vector_length": length})
        with pytest.raises(ProtocolError, match="vector_length"):
            self.run(self.STATION, bus)
        assert calls == []

    def test_swapped_member_key(self):
        with pytest.raises(ProtocolError, match="does not match announced key"):
            self.run(self.STATION, TamperingTransport("round", swap_first_two_keys))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda s: s[:-1], id="one-row-short"),
        pytest.param(lambda s: s + [[1, 2]], id="one-row-over"),
        pytest.param(lambda s: [[0, s[0][1]]] + s[1:], id="a-zero"),
        pytest.param(lambda s: [[(1 << 61) - 1, 0]] + s[1:], id="a-at-prime"),
        pytest.param(lambda s: [[s[0][0], 2**64]] + s[1:], id="b-beyond-uint64"),
        pytest.param(lambda s: None, id="missing"),
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


def run_cli(*argv, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mobagg.harness.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


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
        cfg = SimConfig(n_users=6, group_size=3, threshold=2, mode="station", n_stations=3)
        keys = setup_users(6, random.Random(9))
        vecs = np.random.default_rng(2).integers(0, 4, size=(6, 6))
        mem_bus = InProcessTransport()
        mem = simulate_round(cfg, vecs, keys, 1, random.Random(4), mem_bus)
        tcp_bus = TcpLoopbackTransport()
        try:
            tcp = simulate_round(cfg, vecs, keys, 1, random.Random(4), tcp_bus)
        finally:
            tcp_bus.close()
        assert np.array_equal(mem.values, tcp.values)
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
        assert r1.stationary == r2.stationary
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
        result = analyze_roi(series, 12, 4, train_days=5, calibration_days=7, orders=orders)
        profile = seasonal_profile(series, truncate=True)
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
        d = deseasonalize(series, seasonal_profile(series, truncate=True)).values
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
            analyze_roi(series, 11, 4)
        with pytest.raises(ValueError):
            analyze_roi(series, 12, 0)

    def test_order_window_must_lie_in_the_series(self, series):
        d = series.values
        assert aic_orders(d, 28) == select_order(d[23 * 24 : 28 * 24], 3, 2)
        with pytest.raises(ValueError, match="5-day window before day 4 is outside"):
            aic_orders(d, 4)
        with pytest.raises(ValueError, match="5-day window before day 29 is outside"):
            aic_orders(d, 29)


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
        scan = pipeline_mod.rolling_scan

        def broken(series, *args, **kwargs):
            if series.roi_id == 1:
                raise ValueError(f"roi 1 failed in process {os.getpid()}")
            return scan(series, *args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "rolling_scan", broken)
        monkeypatch.setattr(pipeline_mod, "_worker_count", two_workers)
        config = PipelineConfig(sim=SIM, arma_orders=(1, 0))
        with pytest.raises(ValueError, match="roi 1 failed in process") as info:
            analyze_aggregates(counts, config, tmp_path)
        assert type(info.value) is ValueError
        assert int(str(info.value).split()[-1]) != os.getpid()

    def test_fit_failures_fall_back_through_the_pool(self, counts, monkeypatch):
        # fork hands the patched fit_arma to the workers
        series = [counts.series(r) for r in range(counts.n_rois)]
        d = deseasonalize(series[2], seasonal_profile(series[2], truncate=True)).values
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
