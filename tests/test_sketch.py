"""Count-Min sketch: sizing, updates, merge, serialization, error bound."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobagg.sketch import (
    HASH_PRIME,
    CountMinSketch,
    SketchParams,
    SketchParamsError,
    draw_seeds,
    encode_vector,
    estimate_vector,
    make_params,
)


def fresh(params, seed=0):
    return CountMinSketch(params, draw_seeds(params.depth, random.Random(seed)))


class TestMakeParams:
    def test_station_scale(self):
        p = make_params(10_000, 0.01, 0.01)
        assert (p.depth, p.width) == (14, 272)
        assert p.table_size == 3808

    def test_grid_scale(self):
        p = make_params(1_000_000, 0.01, 0.01)
        assert (p.depth, p.width) == (19, 272)
        assert p.table_size == 5168

    def test_tiny(self):
        p = make_params(1, 0.9, 0.9)
        assert (p.depth, p.width) == (1, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(SketchParamsError):
            make_params(0, 0.01, 0.01)
        with pytest.raises(SketchParamsError):
            make_params(10, 0.0, 0.01)
        with pytest.raises(SketchParamsError):
            make_params(10, 0.01, 1.0)


class TestUpdateEstimate:
    def test_single_key(self):
        sk = fresh(make_params(100, 0.1, 0.1))
        sk.update(7, 5)
        assert sk.estimate(7) == 5

    def test_updates_add(self):
        sk = fresh(make_params(100, 0.1, 0.1))
        sk.update(7, 5)
        sk.update(7, 3)
        assert sk.estimate(7) == 8

    def test_unseen_key_collision_free(self):
        sk = fresh(make_params(100, 0.1, 0.1))
        sk.update(7, 5)
        # one occupied column per row; a key missing every one estimates 0
        clear = next(
            k for k in range(100)
            if all(a != b for a, b in zip(sk.columns(k), sk.columns(7)))
        )
        assert sk.estimate(clear) == 0

    def test_key_out_of_range(self):
        sk = fresh(make_params(100, 0.1, 0.1))
        with pytest.raises(SketchParamsError):
            sk.update(100)
        with pytest.raises(SketchParamsError):
            sk.estimate(-1)

    def test_one_sided_on_random_stream(self):
        # exact-counter oracle over a 1000-update stream
        sk = fresh(make_params(50, 0.1, 0.05), seed=3)
        truth = Counter()
        rng = np.random.default_rng(3)
        for _ in range(1000):
            k = int(rng.integers(0, 50))
            a = int(rng.integers(1, 9))
            sk.update(k, a)
            truth[k] += a
        for k in range(50):
            assert sk.estimate(k) >= truth[k]

    def test_counter_wraparound(self):
        p = make_params(1, 0.9, 0.9)
        sk = fresh(p)
        sk.update(0, (1 << 32) - 1)
        sk.update(0, 2)
        assert sk.estimate(0) == 1


class TestMerge:
    def test_zero_sketch_is_identity(self):
        p = make_params(30, 0.2, 0.2)
        seeds = draw_seeds(p.depth, random.Random(4))
        a = CountMinSketch(p, seeds)
        for k in (1, 5, 11):
            a.update(k, k)
        merged = a.merge(CountMinSketch(p, seeds))
        assert np.array_equal(merged.counters, a.counters)

    def test_commutative(self):
        p = make_params(30, 0.2, 0.2)
        seeds = draw_seeds(p.depth, random.Random(4))
        a, b = CountMinSketch(p, seeds), CountMinSketch(p, seeds)
        a.update(3, 7)
        b.update(9, 2)
        assert np.array_equal(a.merge(b).counters, b.merge(a).counters)

    def test_merge_equals_concatenated_stream(self):
        p = make_params(40, 0.1, 0.1)
        seeds = draw_seeds(p.depth, random.Random(5))
        rng = np.random.default_rng(5)
        stream_a = [(int(rng.integers(0, 40)), int(rng.integers(1, 6))) for _ in range(200)]
        stream_b = [(int(rng.integers(0, 40)), int(rng.integers(1, 6))) for _ in range(200)]
        a, b, both = (CountMinSketch(p, seeds) for _ in range(3))
        for k, v in stream_a:
            a.update(k, v)
            both.update(k, v)
        for k, v in stream_b:
            b.update(k, v)
            both.update(k, v)
        merged = a.merge(b)
        assert np.array_equal(merged.counters, both.counters)
        for k in range(40):
            assert merged.estimate(k) == both.estimate(k)

    def test_mismatched_seeds_rejected(self):
        p = make_params(30, 0.2, 0.2)
        a = fresh(p, seed=1)
        b = fresh(p, seed=2)
        with pytest.raises(SketchParamsError):
            a.merge(b)


class TestEncodeVector:
    def test_zero_vector(self):
        p = make_params(20, 0.2, 0.2)
        sk = encode_vector(np.zeros(20, dtype=np.int64), p, draw_seeds(p.depth, random.Random(6)))
        assert not sk.counters.any()

    def test_one_hot(self):
        p = make_params(20, 0.2, 0.2)
        v = np.zeros(20, dtype=np.int64)
        v[13] = 9
        sk = encode_vector(v, p, draw_seeds(p.depth, random.Random(6)))
        assert sk.estimate(13) == 9
        assert sk.counters.sum(axis=1).tolist() == [9] * p.depth

    def test_sparse_vector_light_load(self):
        p = make_params(200, 0.05, 0.05)
        seeds = draw_seeds(p.depth, random.Random(7))
        rng = np.random.default_rng(7)
        v = np.zeros(200, dtype=np.int64)
        v[rng.choice(200, size=8, replace=False)] = rng.integers(1, 30, size=8)
        sk = encode_vector(v, p, seeds)
        # audit collisions: estimates exact wherever no row shares a column
        est = estimate_vector(sk)
        assert (est >= v).all()
        exact = sum(int(est[k]) == int(v[k]) for k in range(200))
        assert exact >= 195

    def test_length_mismatch(self):
        p = make_params(20, 0.2, 0.2)
        with pytest.raises(SketchParamsError):
            encode_vector(np.zeros(19, dtype=np.int64), p, draw_seeds(p.depth, random.Random(6)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_key_path(self, seed):
        # the per-key update/estimate path is the reference; amounts reach
        # past 2**32 and the largest key is always set
        p = make_params(582, 0.01, 0.05)
        seeds = draw_seeds(p.depth, random.Random(seed))
        rng = np.random.default_rng(seed)
        v = np.zeros(582, dtype=np.uint64)
        v[rng.choice(582, size=60, replace=False)] = rng.integers(1, 1 << 40, size=60)
        v[581] = (1 << 32) + 5
        ref = CountMinSketch(p, seeds)
        for key in np.flatnonzero(v):
            ref.update(int(key), int(v[key]))
        sk = encode_vector(v, p, seeds)
        assert np.array_equal(sk.counters, ref.counters)
        assert estimate_vector(sk).tolist() == [ref.estimate(k) for k in range(582)]

    def test_column_table_matches_columns_for_large_keys(self):
        # keys with high bits set exercise every partial product of the
        # 61-bit multiply; the largest key is input_size - 1
        p = make_params(1 << 62, 0.1, 0.1)
        sk = fresh(p, seed=11)
        keys = [0, 1, (1 << 32) - 1, 1 << 32, HASH_PRIME - 1, HASH_PRIME, (1 << 62) - 1]
        keys += random.Random(11).sample(range(1 << 62), 50)
        table = sk.column_table(np.array(keys))
        assert table.T.tolist() == [list(sk.columns(k)) for k in keys]

    def test_column_table_rejects_outside_keys(self):
        sk = fresh(make_params(20, 0.2, 0.2))
        with pytest.raises(SketchParamsError):
            sk.column_table(np.array([3, 20]))
        with pytest.raises(SketchParamsError):
            sk.column_table(np.array([-1]))


class TestLinearity:
    def test_encode_sum_equals_merge(self):
        p = make_params(64, 0.1, 0.1)
        seeds = draw_seeds(p.depth, random.Random(8))
        rng = np.random.default_rng(8)
        u = rng.integers(0, 50, size=64)
        v = rng.integers(0, 50, size=64)
        left = encode_vector(u, p, seeds).merge(encode_vector(v, p, seeds))
        right = encode_vector(u + v, p, seeds)
        assert np.array_equal(left.counters, right.counters)

    @settings(max_examples=25, deadline=None)
    @given(
        u=st.lists(st.integers(0, 1000), min_size=16, max_size=16),
        v=st.lists(st.integers(0, 1000), min_size=16, max_size=16),
    )
    def test_linearity_property(self, u, v):
        p = make_params(16, 0.3, 0.3)
        seeds = draw_seeds(p.depth, random.Random(9))
        ua, va = np.array(u), np.array(v)
        left = encode_vector(ua, p, seeds).merge(encode_vector(va, p, seeds))
        right = encode_vector(ua + va, p, seeds)
        assert np.array_equal(left.counters, right.counters)


class TestSerialization:
    def test_flatten_round_trip(self):
        p = make_params(30, 0.2, 0.2)
        seeds = draw_seeds(p.depth, random.Random(12))
        sk = CountMinSketch(p, seeds)
        sk.update(4, 17)
        flat = sk.flatten()
        assert flat.shape == (p.table_size,)
        back = CountMinSketch.from_flat(p, seeds, flat)
        assert np.array_equal(back.counters, sk.counters)


class TestDeterminism:
    def test_same_seeds_same_stream_identical(self):
        p = make_params(50, 0.1, 0.1)
        seeds = draw_seeds(p.depth, random.Random(13))
        a, b = CountMinSketch(p, seeds), CountMinSketch(p, seeds)
        for sk in (a, b):
            rng = np.random.default_rng(13)
            for _ in range(500):
                sk.update(int(rng.integers(0, 50)), int(rng.integers(1, 10)))
        assert np.array_equal(a.counters, b.counters)

    def test_seed_validation(self):
        p = make_params(10, 0.2, 0.2)
        seeds = list(draw_seeds(p.depth, random.Random(14)))
        seeds[0] = (0, seeds[0][1])  # a = 0 degenerates the hash
        with pytest.raises(SketchParamsError):
            CountMinSketch(p, seeds)
        with pytest.raises(SketchParamsError):
            CountMinSketch(p, [(1, HASH_PRIME)] * p.depth)


class TestErrorBound:
    def test_monte_carlo_bound_and_one_sidedness(self):
        # designed guarantee: with d = ceil(ln(|S|/delta)) rows, the chance
        # that ANY key's estimate exceeds c + eps*||c||_1 is below delta
        params = make_params(50, 0.2, 0.1)
        assert (params.depth, params.width) == (7, 14)
        seed_rng = random.Random(20160824)
        item_rng = np.random.default_rng(20160824)
        bad_streams = 0
        for _ in range(1000):
            sk = CountMinSketch(params, draw_seeds(params.depth, seed_rng))
            true = np.zeros(50, dtype=np.int64)
            n_items = int(item_rng.integers(50, 400))
            keys = item_rng.integers(0, 50, size=n_items)
            amounts = item_rng.integers(1, 20, size=n_items)
            for k, a in zip(keys, amounts):
                sk.update(int(k), int(a))
                true[k] += int(a)
            limit = true + params.epsilon * true.sum()
            est = estimate_vector(sk)
            assert (est >= true).all()  # one-sided, no wraparound here
            if (est > limit).any():
                bad_streams += 1
        assert bad_streams / 1000 < params.delta
