"""Count-Min sketch: sizing, flat grids, addition, error bound."""

import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobagg.sketch as sketch_mod
from mobagg.sketch import (
    HASH_PRIME,
    SketchParamsError,
    column_table,
    draw_seeds,
    encode_keys,
    encode_vector,
    estimate_keys,
    estimate_vector,
    make_params,
)


def ref_columns(params, seeds, key):
    """Reference row hash in Python integers: ((a*key + b) mod p) mod width."""
    return [(a * key + b) % HASH_PRIME % params.width for a, b in seeds]


def ref_grid(params, seeds, counts):
    """Reference flat grid, one key at a time: amounts add mod 2**32."""
    grid = np.zeros((params.depth, params.width), dtype=np.uint64)
    for key, amount in counts.items():
        for row, col in enumerate(ref_columns(params, seeds, key)):
            grid[row, col] = (int(grid[row, col]) + amount) % (1 << 32)
    return grid.astype(np.uint32).reshape(-1)


def ref_estimate(flat, params, seeds, key):
    grid = flat.reshape(params.depth, params.width)
    return int(min(grid[row, col] for row, col in enumerate(ref_columns(params, seeds, key))))


def seeded(params, seed=0):
    return draw_seeds(params.depth, random.Random(seed))


def dense(params, counts):
    """Dense uint64 count vector of a {key: amount} mapping."""
    v = np.zeros(params.input_size, dtype=np.uint64)
    for key, amount in counts.items():
        v[key] += amount
    return v


def _summed(stream):
    """{key: total amount} of a stream of (key, amount) updates."""
    total = Counter()
    for key, amount in stream:
        total[key] += amount
    return total


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
        p = make_params(100, 0.1, 0.1)
        seeds = seeded(p)
        flat = encode_vector(dense(p, {7: 5}), p, seeds)
        assert estimate_vector(flat, p, seeds)[7] == 5

    def test_updates_add(self):
        p = make_params(100, 0.1, 0.1)
        seeds = seeded(p)
        flat = encode_vector(dense(p, {7: 5}), p, seeds) + encode_vector(dense(p, {7: 3}), p, seeds)
        assert estimate_vector(flat, p, seeds)[7] == 8

    def test_unseen_key_collision_free(self):
        p = make_params(100, 0.1, 0.1)
        seeds = seeded(p)
        flat = encode_vector(dense(p, {7: 5}), p, seeds)
        # one occupied column per row; a key missing every one estimates 0
        table = column_table(p, seeds, np.arange(100))
        clear = next(k for k in range(100) if (table[:, k] != table[:, 7]).all())
        assert estimate_vector(flat, p, seeds)[clear] == 0

    def test_key_out_of_range(self):
        p = make_params(100, 0.1, 0.1)
        seeds = seeded(p)
        with pytest.raises(SketchParamsError, match="key 100 outside"):
            column_table(p, seeds, [100])
        with pytest.raises(SketchParamsError, match="key -1 outside"):
            column_table(p, seeds, [-1])

    def test_one_sided_on_random_stream(self):
        # exact-counter oracle over a 1000-update stream
        p = make_params(50, 0.1, 0.05)
        seeds = seeded(p, seed=3)
        rng = np.random.default_rng(3)
        truth = _summed((int(rng.integers(0, 50)), int(rng.integers(1, 9))) for _ in range(1000))
        est = estimate_vector(encode_vector(dense(p, truth), p, seeds), p, seeds)
        for k in range(50):
            assert est[k] >= truth[k]

    def test_counter_wraparound(self):
        p = make_params(1, 0.9, 0.9)
        seeds = seeded(p)
        flat = encode_vector([(1 << 32) - 1], p, seeds) + encode_vector([2], p, seeds)
        assert estimate_vector(flat, p, seeds)[0] == 1


class TestMerge:
    """Grids under one set of seeds merge by uint32 addition."""

    def test_zero_sketch_is_identity(self):
        p = make_params(30, 0.2, 0.2)
        seeds = seeded(p, seed=4)
        a = encode_vector(dense(p, {1: 1, 5: 5, 11: 11}), p, seeds)
        zero = encode_vector(np.zeros(30, dtype=np.int64), p, seeds)
        assert np.array_equal(a + zero, a)

    def test_commutative(self):
        p = make_params(30, 0.2, 0.2)
        seeds = seeded(p, seed=4)
        a = encode_vector(dense(p, {3: 7}), p, seeds)
        b = encode_vector(dense(p, {9: 2}), p, seeds)
        assert np.array_equal(a + b, b + a)

    def test_merge_equals_concatenated_stream(self):
        p = make_params(40, 0.1, 0.1)
        seeds = seeded(p, seed=5)
        rng = np.random.default_rng(5)
        stream_a = [(int(rng.integers(0, 40)), int(rng.integers(1, 6))) for _ in range(200)]
        stream_b = [(int(rng.integers(0, 40)), int(rng.integers(1, 6))) for _ in range(200)]
        a = encode_vector(dense(p, _summed(stream_a)), p, seeds)
        b = encode_vector(dense(p, _summed(stream_b)), p, seeds)
        both = encode_vector(dense(p, _summed(stream_a + stream_b)), p, seeds)
        merged = a + b
        assert merged.dtype == np.uint32
        assert np.array_equal(merged, both)
        assert np.array_equal(estimate_vector(merged, p, seeds), estimate_vector(both, p, seeds))

    def test_mismatched_seeds_do_not_add(self):
        # the grids carry no seeds, so a round announces one set to every member
        p = make_params(30, 0.2, 0.2)
        u, v = dense(p, {3: 7, 8: 1}), dense(p, {9: 2, 8: 4})
        mixed = encode_vector(u, p, seeded(p, seed=1)) + encode_vector(v, p, seeded(p, seed=2))
        assert not np.array_equal(mixed, encode_vector(u + v, p, seeded(p, seed=1)))
        assert not np.array_equal(mixed, encode_vector(u + v, p, seeded(p, seed=2)))


class TestEncodeVector:
    def test_zero_vector(self):
        p = make_params(20, 0.2, 0.2)
        flat = encode_vector(np.zeros(20, dtype=np.int64), p, seeded(p, seed=6))
        assert flat.shape == (p.table_size,) and flat.dtype == np.uint32
        assert not flat.any()

    def test_one_hot(self):
        p = make_params(20, 0.2, 0.2)
        seeds = seeded(p, seed=6)
        flat = encode_vector(dense(p, {13: 9}), p, seeds)
        assert estimate_vector(flat, p, seeds)[13] == 9
        assert flat.reshape(p.depth, p.width).sum(axis=1).tolist() == [9] * p.depth

    def test_sparse_vector_light_load(self):
        p = make_params(200, 0.05, 0.05)
        seeds = seeded(p, seed=7)
        rng = np.random.default_rng(7)
        v = np.zeros(200, dtype=np.int64)
        v[rng.choice(200, size=8, replace=False)] = rng.integers(1, 30, size=8)
        # audit collisions: estimates exact wherever no row shares a column
        est = estimate_vector(encode_vector(v, p, seeds), p, seeds)
        assert (est >= v).all()
        exact = sum(int(est[k]) == int(v[k]) for k in range(200))
        assert exact >= 195

    def test_length_mismatch(self):
        p = make_params(20, 0.2, 0.2)
        seeds = seeded(p, seed=6)
        with pytest.raises(SketchParamsError):
            encode_vector(np.zeros(19, dtype=np.int64), p, seeds)
        with pytest.raises(SketchParamsError):
            estimate_vector(np.zeros(p.table_size - 1, dtype=np.uint32), p, seeds)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_key_path(self, seed):
        # the per-key Python path is the reference; amounts reach past
        # 2**32 and the largest key is always set
        p = make_params(582, 0.01, 0.05)
        seeds = seeded(p, seed=seed)
        rng = np.random.default_rng(seed)
        v = np.zeros(582, dtype=np.uint64)
        v[rng.choice(582, size=60, replace=False)] = rng.integers(1, 1 << 40, size=60)
        v[581] = (1 << 32) + 5
        ref = ref_grid(p, seeds, {int(k): int(v[k]) for k in np.flatnonzero(v)})
        flat = encode_vector(v, p, seeds)
        assert np.array_equal(flat, ref)
        assert estimate_vector(flat, p, seeds).tolist() == [
            ref_estimate(ref, p, seeds, k) for k in range(582)
        ]

    def test_sparse_keys_match_reference_in_a_wide_key_space(self):
        # only the given keys are hashed, so a 2**62-key space needs no dense
        # vector; a repeated key adds, and amounts reach past 2**32
        p = make_params(1 << 62, 0.1, 0.1)
        seeds = seeded(p, seed=12)
        rng = random.Random(12)
        drawn = [(rng.randrange(1 << 62), rng.randrange(1, 1 << 40)) for _ in range(40)]
        drawn += drawn[:5]
        keys = np.array([k for k, _ in drawn], dtype=np.int64)
        flat = encode_keys(keys, np.array([a for _, a in drawn]), p, seeds)
        ref = ref_grid(p, seeds, _summed(drawn))
        assert np.array_equal(flat, ref)
        assert estimate_keys(flat, keys, p, seeds).tolist() == [
            ref_estimate(ref, p, seeds, k) for k in keys.tolist()
        ]

    def test_column_table_matches_columns_for_large_keys(self):
        # keys with high bits set exercise every partial product of the
        # 61-bit multiply; the largest key is input_size - 1
        p = make_params(1 << 62, 0.1, 0.1)
        seeds = seeded(p, seed=11)
        keys = [0, 1, (1 << 32) - 1, 1 << 32, HASH_PRIME - 1, HASH_PRIME, (1 << 62) - 1]
        keys += random.Random(11).sample(range(1 << 62), 50)
        table = column_table(p, seeds, np.array(keys))
        assert table.T.tolist() == [ref_columns(p, seeds, k) for k in keys]

    def test_depth_one_matches_reference(self):
        # a single seed row: the seed column is (1, 1) and the grid one row
        p = replace(make_params(582, 0.01, 0.05), depth=1)
        seeds = seeded(p, seed=12)
        rng = np.random.default_rng(12)
        v = np.zeros(582, dtype=np.uint64)
        v[rng.choice(582, size=60, replace=False)] = rng.integers(1, 1 << 40, size=60)
        ref = ref_grid(p, seeds, {int(k): int(v[k]) for k in np.flatnonzero(v)})
        flat = encode_vector(v, p, seeds)
        assert flat.shape == (p.width,) and np.array_equal(flat, ref)
        assert estimate_vector(flat, p, seeds).tolist() == [
            ref_estimate(ref, p, seeds, k) for k in range(582)
        ]
        wide = replace(make_params(1 << 62, 0.1, 0.1), depth=1)
        wide_seeds = seeded(wide, seed=12)
        keys = [0, (1 << 32) - 1, 1 << 32, HASH_PRIME, (1 << 62) - 1]
        table = column_table(wide, wide_seeds, np.array(keys))
        assert table.T.tolist() == [ref_columns(wide, wide_seeds, k) for k in keys]

    def test_column_table_hashes_every_row_in_one_call(self, monkeypatch):
        calls = []
        real = sketch_mod._row_hash
        monkeypatch.setattr(sketch_mod, "_row_hash", lambda *a: calls.append(a) or real(*a))
        p = make_params(1164, 0.01, 0.01)
        column_table(p, seeded(p), np.arange(1164))
        assert p.depth == 12 and len(calls) == 1

    def test_column_table_rejects_outside_keys(self):
        p = make_params(20, 0.2, 0.2)
        seeds = seeded(p)
        with pytest.raises(SketchParamsError):
            column_table(p, seeds, np.array([3, 20]))
        with pytest.raises(SketchParamsError):
            column_table(p, seeds, np.array([-1]))
        # keys past 2**63 do not fit the row hash's 64-bit arithmetic
        wide = make_params((1 << 63) + 1, 0.2, 0.2)
        with pytest.raises(SketchParamsError, match="too wide"):
            column_table(wide, seeded(wide), [0])


class TestLinearity:
    def test_encode_sum_equals_merge(self):
        p = make_params(64, 0.1, 0.1)
        seeds = seeded(p, seed=8)
        rng = np.random.default_rng(8)
        u = rng.integers(0, 50, size=64)
        v = rng.integers(0, 50, size=64)
        left = encode_vector(u, p, seeds) + encode_vector(v, p, seeds)
        assert np.array_equal(left, encode_vector(u + v, p, seeds))

    @settings(max_examples=25, deadline=None)
    @given(
        u=st.lists(st.integers(0, 1000), min_size=16, max_size=16),
        v=st.lists(st.integers(0, 1000), min_size=16, max_size=16),
    )
    def test_linearity_property(self, u, v):
        p = make_params(16, 0.3, 0.3)
        seeds = seeded(p, seed=9)
        ua, va = np.array(u), np.array(v)
        left = encode_vector(ua, p, seeds) + encode_vector(va, p, seeds)
        assert np.array_equal(left, encode_vector(ua + va, p, seeds))


class TestSerialization:
    def test_flatten_round_trip(self):
        # the flat grid is row-major: row r holds the key's amount at column r
        p = make_params(30, 0.2, 0.2)
        seeds = seeded(p, seed=12)
        flat = encode_vector(dense(p, {4: 17}), p, seeds)
        assert flat.shape == (p.table_size,)
        grid = flat.reshape(p.depth, p.width)
        assert [grid[r, c] for r, c in enumerate(ref_columns(p, seeds, 4))] == [17] * p.depth
        assert estimate_vector(flat.tolist(), p, seeds)[4] == 17


class TestDeterminism:
    def test_same_seeds_same_stream_identical(self):
        p = make_params(50, 0.1, 0.1)
        seeds = seeded(p, seed=13)
        grids = []
        for _ in range(2):
            rng = np.random.default_rng(13)
            stream = [(int(rng.integers(0, 50)), int(rng.integers(1, 10))) for _ in range(500)]
            grids.append(encode_vector(dense(p, _summed(stream)), p, seeds))
        assert np.array_equal(grids[0], grids[1])

    def test_seed_validation(self):
        p = make_params(10, 0.2, 0.2)
        seeds = list(seeded(p, seed=14))
        bad = [
            [(0, seeds[0][1])] + seeds[1:],  # a = 0 degenerates the hash
            [(1, HASH_PRIME)] * p.depth,
            seeds[1:],
        ]
        zero = np.zeros(10, dtype=np.int64)
        for edit in bad:
            # an all-zero vector hashes no key, yet its seeds are still checked
            for call in (
                lambda: column_table(p, edit, []),
                lambda: encode_vector(zero, p, edit),
                lambda: estimate_vector(np.zeros(p.table_size, dtype=np.uint32), p, edit),
            ):
                with pytest.raises(SketchParamsError):
                    call()


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
            seeds = draw_seeds(params.depth, seed_rng)
            true = np.zeros(50, dtype=np.int64)
            n_items = int(item_rng.integers(50, 400))
            keys = item_rng.integers(0, 50, size=n_items)
            amounts = item_rng.integers(1, 20, size=n_items)
            np.add.at(true, keys, amounts)
            limit = true + params.epsilon * true.sum()
            est = estimate_vector(encode_vector(true, params, seeds), params, seeds)
            assert (est >= true).all()  # one-sided, no wraparound here
            if (est > limit).any():
                bad_streams += 1
        assert bad_streams / 1000 < params.delta
