"""One test per shipped guarantee.

Each test records a human-readable verdict line; the conftest summary hook
prints them all after the run, one [PASS]/[FAIL] line per criterion.
"""

import random
import struct
import time

import numpy as np
import pytest
from numpy.random import default_rng

from mobagg import sketch as cms
from mobagg.forecast import enhanced_forecast, fit_arma, rolling_scan, select_order
from mobagg.forecast.correlate import average_ranks, spearman
from mobagg.forecast.var import fit_var
from mobagg.harness.pipeline import PipelineConfig, aic_orders, analyze_roi, run_pipeline
from mobagg.harness.simulate import SimConfig
from mobagg.harness.synth import correlated_pair, seasonal_series
from mobagg.privagg import (
    GroupView,
    VectorMessage,
    aggregate,
    blinding_factors,
    encode_vector_message,
    encrypt,
    keygen,
    recover_aggregate,
    recovery_share,
)
from mobagg.timeseries import deseasonalize, seasonal_profile

MOD = 1 << 32


def _verdict(record_property, ok: bool, detail: str) -> None:
    record_property("detail", detail)
    assert ok, detail


# --- criteria 1 + 2 share one batch of randomized protocol trials ---

@pytest.fixture(scope="module")
def protocol_trials():
    rng = random.Random(20160823)
    np_rng = default_rng(20160823)
    lengths = (1, 7, 64, 1164, 2048)
    n_trials = 200
    agg_exact = mask_zero = recovery_exact = 0
    start = time.perf_counter()
    for trial in range(n_trials):
        g = rng.randint(2, 50)
        length = lengths[trial % len(lengths)]
        member_ids = tuple(sorted(rng.sample(range(1000), g)))
        keys = {uid: keygen(rng) for uid in member_ids}
        group = GroupView(
            round_id=trial,
            member_ids=member_ids,
            public_keys={uid: kp.public_bytes for uid, kp in keys.items()},
            vector_length=length,
        )
        plain = np_rng.integers(0, MOD, size=(g, length), dtype=np.int64)
        factors = {uid: blinding_factors(keys[uid], uid, group) for uid in member_ids}
        ciphertexts = {
            uid: encrypt(plain[i], factors[uid]) for i, uid in enumerate(member_ids)
        }

        result = aggregate(ciphertexts, group)
        expected = (plain.sum(axis=0, dtype=np.uint64) % MOD).astype(np.uint32)
        agg_exact += result.complete and np.array_equal(result.values, expected)

        mask_sum = np.zeros(length, dtype=np.uint32)
        for uid in member_ids:
            mask_sum += factors[uid]
        mask_zero += not mask_sum.any()

        # knock out a random nonempty strict subset and recover the rest
        n_offline = rng.randint(1, g - 1)
        offline = set(rng.sample(member_ids, n_offline))
        online = [uid for uid in member_ids if uid not in offline]
        shares = {uid: recovery_share(keys[uid], uid, group, online) for uid in online}
        recovered = recover_aggregate(
            {uid: ciphertexts[uid] for uid in online}, shares, group
        )
        rows = [member_ids.index(uid) for uid in online]
        expected_online = (plain[rows].sum(axis=0, dtype=np.uint64) % MOD).astype(np.uint32)
        recovery_exact += np.array_equal(recovered, expected_online)
    elapsed = time.perf_counter() - start
    return {
        "n": n_trials,
        "agg": agg_exact,
        "mask": mask_zero,
        "rec": recovery_exact,
        "elapsed": elapsed,
    }


def test_criterion_01_protocol_exactness(protocol_trials, record_property):
    t = protocol_trials
    ok = t["agg"] == t["n"] and t["rec"] == t["n"] and t["elapsed"] < 60.0
    _verdict(
        record_property, ok,
        f"{t['agg']}/{t['n']} aggregates exact, {t['rec']}/{t['n']} dropout "
        f"recoveries exact, {t['elapsed']:.1f}s < 60s",
    )


def test_criterion_02_mask_cancellation(protocol_trials, record_property):
    t = protocol_trials
    _verdict(
        record_property, t["mask"] == t["n"],
        f"mask streams summed to zero mod 2^32 in {t['mask']}/{t['n']} trials",
    )


def test_criterion_03_sketch_sizing(record_property):
    small = cms.make_params(10_000, 0.01, 0.01)
    large = cms.make_params(1_000_000, 0.01, 0.01)
    ok = (small.depth, small.width) == (14, 272) and (large.depth, large.width) == (19, 272)
    _verdict(
        record_property, ok,
        f"10^4 keys -> ({small.depth}, {small.width}); "
        f"10^6 keys -> ({large.depth}, {large.width})",
    )


def test_criterion_04_sketch_error_bound(record_property):
    # small table (7 x 14) so collisions actually occur
    eps, delta = 0.2, 0.1
    rng = random.Random(20160824)
    params = cms.make_params(50, eps, delta)
    queries = violations = undercounts = 0
    for _ in range(1000):
        sk = cms.CountMinSketch(params, cms.draw_seeds(params.depth, rng))
        truth: dict[int, int] = {}
        for _ in range(60):
            key = rng.randrange(50)
            amount = rng.randint(1, 20)
            sk.update(key, amount)
            truth[key] = truth.get(key, 0) + amount
        total = sum(truth.values())
        for key, count in truth.items():
            est = sk.estimate(key)
            queries += 1
            violations += est > count + eps * total
            undercounts += est < count
    rate = violations / queries
    ok = rate < delta and undercounts == 0
    _verdict(
        record_property, ok,
        f"over-bound rate {rate:.4f} < {delta} across {queries} queries "
        f"(1000 streams); undercounts {undercounts}/100% one-sided",
    )


def _vector_body_bytes(length: int) -> int:
    blob = encode_vector_message(
        VectorMessage(0, 0, np.zeros(length, dtype=np.uint32))
    )
    head_len = struct.unpack_from("<I", blob, 0)[0]
    return struct.unpack_from("<I", blob, 4 + head_len)[0]


def test_criterion_05_message_sizing(record_property):
    station = _vector_body_bytes(2 * 582)   # tap-in and tap-out per station
    grid = _vector_body_bytes(100 * 100)
    ok = (
        station == 4656
        and grid == 40000
        and abs(station / 1024 - 4.54) <= 0.01
        and abs(grid / 1024 - 39.0) <= 0.5
    )
    _verdict(
        record_property, ok,
        f"station body {station} B (~4.54 KiB), grid body {grid} B (~39 KiB)",
    )


def test_criterion_06_forecast_method_ordering(record_property):
    des_maes, raw_maes = [], []
    start = time.perf_counter()
    for seed in range(10):
        series = seasonal_series(0, 4, default_rng(seed), phi=0.6, sigma=6.0)
        profile = seasonal_profile(series, truncate=True)
        d = deseasonalize(series, profile).values
        # each method picks its orders on the 5 training days before day 25
        des = rolling_scan(series, profile, 25, 1, aic_orders(d, 25))
        raw = rolling_scan(series, None, 25, 1, aic_orders(series.values, 25))
        des_maes.append(des.errors.mean)
        raw_maes.append(raw.errors.mean)
    elapsed = time.perf_counter() - start
    ratio = float(np.mean(des_maes) / np.mean(raw_maes))
    ok = ratio <= 0.5 and elapsed < 120.0
    _verdict(
        record_property, ok,
        f"profile-aware MAE / black-box MAE = {ratio:.3f} <= 0.5 "
        f"over 10 seeds ({elapsed:.1f}s < 120s)",
    )


def test_criterion_07_anomaly_recall_and_rate(record_property):
    weeks, start_day, n_days = 6, 12, 30
    scan_lo, scan_hi = start_day * 24, (start_day + n_days) * 24
    recalls, fractions = [], []
    for seed in range(10):
        spike_rng = default_rng(9000 + seed)
        positions: list[int] = []
        while len(positions) < 8:
            cand = int(spike_rng.integers(scan_lo, scan_hi))
            if all(abs(cand - p) >= 4 for p in positions):
                positions.append(cand)
        # 6-sigma innovation bumps: incidents that perturb the dynamics
        series = seasonal_series(
            0, weeks, default_rng(seed), phi=0.6, sigma=6.0,
            impulses={p: 36.0 for p in positions},
        )
        events = analyze_roi(series, start_day, n_days, orders=None).events
        flagged = {e.epoch_index for e in events}
        recalls.append(sum(p in flagged for p in positions) / len(positions))
        fractions.append(len(events) / (n_days * 24))
    recall = float(np.mean(recalls))
    fraction = float(np.mean(fractions))
    ok = recall >= 0.9 and fraction <= 0.02
    _verdict(
        record_property, ok,
        f"recall {recall:.3f} >= 0.9, flagged {100 * fraction:.2f}% <= 2% "
        f"(8 spikes x 10 seeds)",
    )


def test_criterion_08_var_enhancement(record_property):
    events = {600 + h: 30.0 for h in (8, 9, 10, 17, 18, 19)}
    improvements = []
    for seed in range(10):
        target, helper = correlated_pair(
            4, default_rng(seed), lead=1, coupling=0.9, events=events
        )
        profile = seasonal_profile(target, truncate=True)
        d_target = deseasonalize(target, profile)
        d_helper = deseasonalize(helper, seasonal_profile(helper, truncate=True))
        orders = select_order(d_target.values[480:600], 3, 2)
        baseline = rolling_scan(target, profile, 25, 1, orders=orders)
        enh = enhanced_forecast(baseline, d_target, [d_helper])
        improvements.append(enh.improvement)
    mean_improvement = float(np.mean(improvements))
    ok = mean_improvement >= 0.15
    _verdict(
        record_property, ok,
        f"anomaly-day improvement {mean_improvement:+.1%} >= +15% over 10 seeds "
        f"(min {min(improvements):+.1%})",
    )


def test_criterion_09_sketch_protocol_equivalence(record_property):
    # sketches ride the masking protocol without losing a single counter
    rng = random.Random(99)
    params = cms.make_params(200, 0.05, 0.05)
    seeds = cms.draw_seeds(params.depth, rng)
    sketches = []
    for _ in range(5):
        sk = cms.CountMinSketch(params, seeds)
        for _ in range(150):
            sk.update(rng.randrange(200), rng.randint(1, 9))
        sketches.append(sk)
    merged = sketches[0]
    for sk in sketches[1:]:
        merged = merged.merge(sk)

    member_ids = tuple(range(5))
    keys = {uid: keygen(rng) for uid in member_ids}
    group = GroupView(
        round_id=0,
        member_ids=member_ids,
        public_keys={uid: kp.public_bytes for uid, kp in keys.items()},
        vector_length=params.table_size,
        sketch_seeds=seeds,
    )
    ciphertexts = {
        uid: encrypt(
            sketches[uid].flatten().astype(np.int64),
            blinding_factors(keys[uid], uid, group),
        )
        for uid in member_ids
    }
    via_protocol = cms.CountMinSketch.from_flat(
        params, seeds, aggregate(ciphertexts, group).values
    )
    tables_exact = np.array_equal(via_protocol.flatten(), merged.flatten())

    # end-to-end: sketched collection must not move the forecast error
    base = dict(n_users=12, group_size=6, threshold=2, n_stations=3, seed=5)
    results = {}
    for mode in ("station", "sketch"):
        sim = SimConfig(mode=mode, sketch_epsilon=0.01, sketch_delta=0.01, **base)
        config = PipelineConfig(sim=sim, weeks=2, scan_start_day=12, arma_orders=(1, 0))
        results[mode] = run_pipeline(config, f"/tmp/acceptance_pipeline_{mode}")
    raw, sketched = results["station"], results["sketch"]
    aggregates_equal = np.array_equal(raw.aggregates.counts, sketched.aggregates.counts)
    mae_raw = float(np.mean([fc.errors.mean for fc in raw.forecasts.values()]))
    mae_sk = float(np.mean([fc.errors.mean for fc in sketched.forecasts.values()]))
    gap = abs(mae_sk - mae_raw) / mae_raw
    reports_identical = all(
        raw.paths[name].read_bytes() == sketched.paths[name].read_bytes()
        for name in raw.paths
    )
    ok = tables_exact and aggregates_equal and gap <= 0.05 and reports_identical
    _verdict(
        record_property, ok,
        f"protocol-transported tables exact: {tables_exact}; pipeline MAE gap "
        f"{gap:.2e} <= 5%; reports byte-identical: {reports_identical}",
    )


def test_criterion_10_estimator_sanity(record_property):
    # AR(1) coefficient recovery
    rng = default_rng(7)
    eps = rng.normal(0.0, 1.0, 2000)
    y = np.empty(2000)
    prev = 0.0
    for t in range(2000):
        prev = 0.7 * prev + eps[t]
        y[t] = prev
    phi_dev = abs(fit_arma(y, 1, 0).ar[0] - 0.7)

    # rank correlation against the rank-transform oracle
    rng2 = default_rng(8)
    x = rng2.normal(size=300)
    z = 0.5 * x + rng2.normal(size=300)
    oracle = float(np.corrcoef(average_ranks(x), average_ranks(z))[0, 1])
    rho_dev = abs(spearman(x, z) - oracle)

    # VAR(1) coefficient recovery
    A = np.array([[0.5, 0.2], [0.1, 0.4]])
    rng3 = default_rng(11)
    data = np.zeros((2000, 2))
    for t in range(1, 2000):
        data[t] = A @ data[t - 1] + rng3.normal(0.0, 1.0, 2)
    model = fit_var([data[:, 0], data[:, 1]], 1)
    var_dev = float(np.max(np.abs(model.coef[0] - A)))

    ok = phi_dev <= 0.08 and rho_dev <= 1e-12 and var_dev <= 0.1
    _verdict(
        record_property, ok,
        f"AR(1) dev {phi_dev:.4f} <= 0.08; rank-corr dev {rho_dev:.1e} <= 1e-12; "
        f"VAR(1) max dev {var_dev:.4f} <= 0.1",
    )
