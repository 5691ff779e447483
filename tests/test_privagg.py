"""Pairwise masking protocol: keys, blinding, aggregation, recovery, groups."""

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from hypothesis import given, settings
from hypothesis import strategies as st

import mobagg.privagg.masking as masking_mod
from mobagg.privagg import (
    GroupAssignmentError,
    GroupView,
    MASK_MODULUS,
    ProtocolError,
    aggregate,
    assign_groups,
    blinding_factors,
    encrypt,
    keygen,
    mask_stream,
    recover_aggregate,
    recovery_share,
    shared_point,
)
from mobagg.privagg.masking import MAX_VECTOR_LENGTH


def make_group(n, round_id=0, length=16, seed=0, ids=None):
    rng = random.Random(seed)
    ids = tuple(range(n)) if ids is None else tuple(ids)
    keys = {uid: keygen(rng) for uid in ids}
    group = GroupView(
        round_id=round_id,
        member_ids=ids,
        public_keys={u: k.public_bytes for u, k in keys.items()},
        vector_length=length,
    )
    return keys, group


def derived_key(own, peer_public):
    """The pair's mask key from a fresh exchange: SHA-256(tag || point)."""
    point = shared_point(own, peer_public)
    return hashlib.sha256(masking_mod._PAIR_KEY_TAG + point).digest()


def direct_factors(keys, uid, group):
    """A member's factors summed straight from the sign rule, fresh exchanges."""
    expected = np.zeros(group.vector_length, dtype=np.uint32)
    pos = group.member_ids.index(uid)
    for j, peer in enumerate(group.member_ids):
        if peer == uid:
            continue
        key = derived_key(keys[uid], group.public_keys[peer])
        stream = mask_stream(key, group.round_id, group.vector_length)
        if pos < j:
            expected += stream
        else:
            expected -= stream
    return expected


class TestKeygen:
    def test_distinct_seeds_distinct_keys(self):
        a, b = keygen(1), keygen(2)
        assert a.public_bytes != b.public_bytes

    def test_deterministic_seed(self):
        assert keygen(42).public_bytes == keygen(42).public_bytes

    def test_shared_secret_symmetry(self):
        a, b = keygen(1), keygen(2)
        assert shared_point(a, b.public_bytes) == shared_point(b, a.public_bytes)

    def test_fresh_entropy_without_seed(self):
        assert keygen().public_bytes != keygen().public_bytes

    def test_seeded_pairs_compare_equal(self):
        assert keygen(42) == keygen(42)

    def test_shared_point_known_answer(self):
        expected = "fc7464537c1f439a76e6bcea446208708979e02e4ef8edda569a41f1a962cb45"
        assert shared_point(keygen(1), keygen(2).public_bytes).hex() == expected

    def test_repr_hides_private_key(self):
        key = keygen(1)
        text = repr(key)
        assert repr(key.private_bytes) not in text
        assert key.private_bytes.hex() not in text
        assert "private_bytes" not in text
        assert repr(key.public_bytes) in text


class TestGroupView:
    def test_position_matches_tuple_index(self):
        _, group = make_group(7, ids=(3, 8, 11, 40, 41, 97, 1000))
        for uid in group.member_ids:
            assert group.position_of(uid) == group.member_ids.index(uid)

    def test_non_member_rejected(self):
        _, group = make_group(3)
        with pytest.raises(ProtocolError, match="not a group member"):
            group.position_of(3)

    def test_repr_and_equality_cover_announced_fields_only(self):
        _, group = make_group(3, round_id=5, length=4)
        fields = (
            f"round_id=5, member_ids=(0, 1, 2), public_keys={group.public_keys!r}, "
            "vector_length=4, sketch_seeds=None"
        )
        assert repr(group) == f"GroupView({fields})"
        twin = GroupView(5, (0, 1, 2), dict(group.public_keys), 4)
        assert twin == group
        assert replace(group, round_id=6) != group

    def test_replace_rebuilds_positions(self):
        keys, group = make_group(3, ids=(2, 5, 9))
        keys[1] = keygen(99)
        wider = replace(
            group,
            member_ids=(1, 2, 5, 9),
            public_keys={**group.public_keys, 1: keys[1].public_bytes},
        )
        assert [wider.position_of(u) for u in (1, 2, 5, 9)] == [0, 1, 2, 3]
        assert group.position_of(2) == 0


class TestBlindingFactors:
    def test_singleton_group_zero_factors(self):
        keys, group = make_group(1)
        f = blinding_factors(keys[0], 0, group)
        assert f.dtype == np.uint32 and not f.any()

    def test_pair_cancels(self):
        keys, group = make_group(2)
        k0 = blinding_factors(keys[0], 0, group)
        k1 = blinding_factors(keys[1], 1, group)
        assert not (k0 + k1).any()

    def test_group_of_seven_direct_summation_oracle(self):
        # recompute every member's factors straight from the sign rule
        keys, group = make_group(7, round_id=9, length=64, seed=7)
        for uid in group.member_ids:
            assert np.array_equal(
                blinding_factors(keys[uid], uid, group), direct_factors(keys, uid, group)
            )
        total = np.zeros(64, dtype=np.uint32)
        for uid in group.member_ids:
            total += blinding_factors(keys[uid], uid, group)
        assert not total.any()

    def test_non_member_rejected(self):
        keys, group = make_group(3)
        outsider = keygen(99)
        with pytest.raises(ProtocolError):
            blinding_factors(outsider, 99, group)

    def test_wrong_key_for_member_rejected(self):
        keys, group = make_group(3)
        with pytest.raises(ProtocolError):
            blinding_factors(keys[1], 0, group)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 8), length=st.integers(1, 64), round_id=st.integers(0, 2**32))
    def test_cancellation_property(self, n, length, round_id):
        keys, group = make_group(n, round_id=round_id, length=length, seed=n)
        total = np.zeros(length, dtype=np.uint32)
        for uid in group.member_ids:
            total += blinding_factors(keys[uid], uid, group)
        assert not total.any()

    def test_mask_stream_known_answer(self):
        # ChaCha20(key, nonce = round id as 8-byte LE || 4 zero bytes) from
        # block counter 1, read as little-endian words
        stream = mask_stream(bytes(range(32)), 7, 3264)
        assert stream.dtype == np.uint32 and stream.shape == (3264,)
        assert not stream.flags.writeable
        assert int(stream[0]) == 0x818C789C
        assert int(stream[-1]) == 0x597DACE7

    def test_pair_key_known_answer(self):
        # SHA-256(tag || point) of the point test_shared_point_known_answer pins
        key = masking_mod._pair_key(keygen(1), keygen(2).public_bytes)
        expected = "333760d520cb2385510ddd5c97165e203e566babb78395cbc2be40b12c455042"
        assert key.hex() == expected

    @pytest.mark.parametrize("length", [1, 16, 17, 3264])
    def test_mask_stream_is_raw_chacha20_from_counter_one(self, length):
        key, round_id = bytes(range(32)), 7
        nonce = (1).to_bytes(4, "little") + round_id.to_bytes(8, "little") + bytes(4)
        encryptor = Cipher(algorithms.ChaCha20(key, nonce), mode=None).encryptor()
        expected = np.frombuffer(encryptor.update(bytes(4 * length)), dtype="<u4")
        assert np.array_equal(mask_stream(key, round_id, length), expected)

    @settings(max_examples=30, deadline=None)
    @given(
        key=st.binary(min_size=32, max_size=32),
        round_id=st.integers(0, 2**64 - 1),
        n=st.integers(1, 300),
        data=st.data(),
    )
    def test_shorter_stream_is_prefix(self, key, round_id, n, data):
        m = data.draw(st.integers(1, n))
        assert np.array_equal(mask_stream(key, round_id, n)[:m], mask_stream(key, round_id, m))

    def test_mask_stream_length_bounded(self):
        with pytest.raises(ProtocolError, match="stream length"):
            mask_stream(bytes(32), 0, MAX_VECTOR_LENGTH + 1)

    def test_round_separation(self):
        # same pair, consecutive rounds: not a single mask word survives
        keys, _ = make_group(2, length=2048)
        key = derived_key(keys[0], keys[1].public_bytes)
        s1 = mask_stream(key, 1, 2048)
        s2 = mask_stream(key, 2, 2048)
        assert int((s1 == s2).sum()) == 0


class TestPairPointTable:
    def test_later_round_makes_no_exchange(self, monkeypatch):
        keys, first = make_group(6, round_id=3, length=32, seed=5)
        for uid in first.member_ids:
            blinding_factors(keys[uid], uid, first)
        calls = []

        def counting(own, peer_public):
            calls.append(peer_public)
            return shared_point(own, peer_public)

        monkeypatch.setattr(masking_mod, "shared_point", counting)
        later = GroupView(
            round_id=4,
            member_ids=first.member_ids,
            public_keys=first.public_keys,
            vector_length=32,
        )
        got = {uid: blinding_factors(keys[uid], uid, later) for uid in later.member_ids}
        assert calls == []
        for uid in later.member_ids:
            assert np.array_equal(got[uid], direct_factors(keys, uid, later))

    def test_rekeyed_peer_gets_new_point(self):
        keys, group = make_group(2, round_id=1, length=8, seed=2)
        blinding_factors(keys[0], 0, group)
        fresh = keygen(77)
        rekeyed = GroupView(
            round_id=2,
            member_ids=(0, 1),
            public_keys={0: keys[0].public_bytes, 1: fresh.public_bytes},
            vector_length=8,
        )
        mine = blinding_factors(keys[0], 0, rekeyed)
        expected = mask_stream(derived_key(keys[0], fresh.public_bytes), 2, 8)
        assert np.array_equal(mine, expected)
        assert not (mine + blinding_factors(fresh, 1, rekeyed)).any()
        assert len(keys[0]._pair_keys) == 2

    def test_full_table_leaves_equality_and_hash(self):
        a, b = keygen(42), keygen(42)
        group = GroupView(
            round_id=0,
            member_ids=(0, 1, 2),
            public_keys={0: a.public_bytes, 1: keygen(1).public_bytes, 2: keygen(2).public_bytes},
            vector_length=4,
        )
        blinding_factors(a, 0, group)
        assert len(a._pair_keys) == 2 and not b._pair_keys
        assert a == b and hash(a) == hash(b)

    def test_repr_shows_no_point(self):
        keys, group = make_group(3, seed=4)
        blinding_factors(keys[0], 0, group)
        text = repr(keys[0])
        assert keys[0]._pair_keys
        for key in keys[0]._pair_keys.values():
            assert key.hex() not in text and repr(key) not in text
        assert "_pair_keys" not in text


class TestEncrypt:
    def test_zero_blinding_is_plaintext(self):
        values = np.arange(10, dtype=np.int64)
        ct = encrypt(values, np.zeros(10, dtype=np.uint32))
        assert np.array_equal(ct, values.astype(np.uint32))

    def test_subtracting_factors_inverts(self):
        keys, group = make_group(2, length=10)
        f = blinding_factors(keys[0], 0, group)
        values = np.arange(10, dtype=np.int64) * 7
        assert np.array_equal(encrypt(values, f) - f, values.astype(np.uint32))

    def test_wraparound(self):
        ct = encrypt(np.array([MASK_MODULUS - 1]), np.array([2], dtype=np.uint32))
        assert ct.tolist() == [1]

    def test_length_mismatch(self):
        with pytest.raises(ProtocolError):
            encrypt(np.arange(3), np.zeros(4, dtype=np.uint32))

    def test_range_check(self):
        with pytest.raises(ProtocolError):
            encrypt(np.array([-1]), np.zeros(1, dtype=np.uint32))
        with pytest.raises(ProtocolError):
            encrypt(np.array([MASK_MODULUS]), np.zeros(1, dtype=np.uint32))
        with pytest.raises(ProtocolError):
            encrypt(np.array([0.5]), np.zeros(1, dtype=np.uint32))


class TestAggregate:
    def test_five_users_plaintext_oracle(self):
        keys, group = make_group(5, length=128, seed=11)
        rng = np.random.default_rng(11)
        plain = {u: rng.integers(0, 1 << 32, size=128, dtype=np.uint64).astype(np.int64)
                 for u in group.member_ids}
        cts = {u: encrypt(plain[u], blinding_factors(keys[u], u, group))
               for u in group.member_ids}
        result = aggregate(cts, group)
        expected = sum(v.astype(np.uint64) for v in plain.values()) & 0xFFFFFFFF
        assert np.array_equal(result.values, expected.astype(np.uint32))
        assert result.missing == ()
        assert result.complete

    def test_single_user_group(self):
        keys, group = make_group(1, length=4)
        values = np.array([9, 0, 3, 1])
        cts = {0: encrypt(values, blinding_factors(keys[0], 0, group))}
        assert np.array_equal(aggregate(cts, group).values, values.astype(np.uint32))

    def test_all_zero_inputs(self):
        keys, group = make_group(3, length=6)
        cts = {u: encrypt(np.zeros(6, dtype=np.int64), blinding_factors(keys[u], u, group))
               for u in group.member_ids}
        assert not aggregate(cts, group).values.any()

    def test_missing_members_flagged(self):
        keys, group = make_group(4, length=4)
        cts = {u: encrypt(np.ones(4, dtype=np.int64), blinding_factors(keys[u], u, group))
               for u in (0, 2)}
        result = aggregate(cts, group)
        assert result.missing == (1, 3)
        assert not result.complete


class TestRecovery:
    def run_round(self, n, dropped, length=32, seed=17):
        keys, group = make_group(n, length=length, seed=seed)
        rng = np.random.default_rng(seed)
        plain = {u: rng.integers(0, 1000, size=length).astype(np.int64)
                 for u in group.member_ids}
        cts = {u: encrypt(plain[u], blinding_factors(keys[u], u, group))
               for u in group.member_ids}
        online = [u for u in group.member_ids if u not in dropped]
        shares = {u: recovery_share(keys[u], u, group, online) for u in online}
        recovered = recover_aggregate({u: cts[u] for u in online}, shares, group)
        return keys, group, plain, cts, online, shares, recovered

    def test_ten_users_three_dropped(self):
        _, _, plain, _, online, _, recovered = self.run_round(10, {1, 4, 8})
        expected = sum(plain[u] for u in online).astype(np.uint32)
        assert np.array_equal(recovered, expected)

    def test_all_but_one_dropped(self):
        _, _, plain, _, online, _, recovered = self.run_round(5, {0, 1, 2, 3})
        assert online == [4]
        assert np.array_equal(recovered, plain[4].astype(np.uint32))

    def test_zero_dropped_matches_aggregate(self):
        keys, group, plain, cts, online, shares, recovered = self.run_round(6, set())
        assert all(not s.any() for s in shares.values())  # empty offline sum
        assert np.array_equal(recovered, aggregate(cts, group).values)

    def test_offline_member_cannot_serve(self):
        keys, group = make_group(4)
        with pytest.raises(ProtocolError):
            recovery_share(keys[1], 1, group, online=[0, 2, 3])

    def test_share_sum_equals_residual_mask(self):
        # the masked partial minus the online plaintext sum must equal the
        # summed shares: both are the same signed digest total
        keys, group, plain, cts, online, shares, _ = self.run_round(7, {2, 5})
        partial = aggregate({u: cts[u] for u in online}, group)
        plain_sum = sum(plain[u] for u in online).astype(np.uint32)
        residual = partial.values - plain_sum
        share_sum = np.zeros(group.vector_length, dtype=np.uint32)
        for s in shares.values():
            share_sum += s
        assert np.array_equal(residual, share_sum)

    def test_shares_deterministic(self):
        keys, group = make_group(5, seed=23)
        online = [0, 2, 3]
        a = recovery_share(keys[2], 2, group, online)
        b = recovery_share(keys[2], 2, group, online)
        assert np.array_equal(a, b)

    def test_share_coverage_enforced(self):
        keys, group, plain, cts, online, shares, _ = self.run_round(5, {1})
        shares.pop(online[0])
        with pytest.raises(ProtocolError):
            recover_aggregate({u: cts[u] for u in online}, shares, group)

    def test_recovery_needs_a_ciphertext(self):
        _, group = make_group(3)
        with pytest.raises(ProtocolError):
            recover_aggregate({}, {}, group)

    def test_false_offline_claim_reveals_plaintext(self):
        # The protocol trusts the aggregator's online list (honest-but-curious
        # model). Declaring a submitter offline makes the others' recovery
        # shares sum to minus its whole mask, exposing its vector.
        keys, group = make_group(4, length=32, seed=41)
        secret = np.random.default_rng(41).integers(0, 1 << 32, size=32, dtype=np.uint64)
        ct = encrypt(secret.astype(np.int64), blinding_factors(keys[2], 2, group))
        online = [0, 1, 3]
        leaked = ct.copy()
        for u in online:
            leaked += recovery_share(keys[u], u, group, online)
        assert np.array_equal(leaked, secret.astype(np.uint32))


class TestUniformitySmoke:
    def test_ciphertext_entry_chi_square(self):
        # one member's T=1 ciphertext across 10^4 rounds, 16 buckets from the
        # top 4 bits; frozen statistic 5.398 is far below the 99% cutoff for
        # 15 degrees of freedom (30.578)
        rng = random.Random(5)
        keys, _ = make_group(2, seed=5)
        counts = [0] * 16
        for round_id in range(10_000):
            group = GroupView(
                round_id=round_id,
                member_ids=(0, 1),
                public_keys={u: k.public_bytes for u, k in keys.items()},
                vector_length=1,
            )
            ct = encrypt(np.array([rng.randrange(1 << 32)]),
                         blinding_factors(keys[0], 0, group))
            counts[int(ct[0]) >> 28] += 1
        expected = 10_000 / 16
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 30.578


class TestSketchThroughProtocol:
    def test_aggregated_flat_sketches_equal_merge(self):
        from mobagg.sketch import CountMinSketch, draw_seeds, encode_vector, make_params

        params = make_params(20, 0.2, 0.2)
        seeds = draw_seeds(params.depth, random.Random(31))
        keys, group = make_group(3, length=params.table_size, seed=31)
        rng = np.random.default_rng(31)
        vectors = {u: rng.integers(0, 40, size=20) for u in group.member_ids}
        cts = {}
        for u in group.member_ids:
            flat = encode_vector(vectors[u], params, seeds).flatten()
            cts[u] = encrypt(flat.astype(np.int64), blinding_factors(keys[u], u, group))
        summed = aggregate(cts, group).values
        decoded = CountMinSketch.from_flat(params, seeds, summed)
        merged = encode_vector(sum(vectors.values()), params, seeds)
        assert np.array_equal(decoded.counters, merged.counters)


class TestAssignGroups:
    def test_remainder_absorbed(self):
        groups = assign_groups(list(range(450)), 200, 100, random.Random(0))
        assert sorted(len(g) for g in groups) == [200, 250]
        assert sorted(u for g in groups for u in g) == list(range(450))

    def test_below_threshold_empty(self):
        assert assign_groups(list(range(50)), 200, 100, random.Random(0)) == []

    def test_exact_single_group(self):
        groups = assign_groups(list(range(200)), 200, 100, random.Random(0))
        assert len(groups) == 1 and len(groups[0]) == 200

    def test_members_ascending_within_group(self):
        groups = assign_groups(list(range(57)), 10, 2, random.Random(3))
        for g in groups:
            assert list(g) == sorted(g)
        assert all(len(g) >= 2 for g in groups)

    def test_never_a_singleton(self):
        for seed in range(10):
            groups = assign_groups(list(range(41)), 5, 2, random.Random(seed))
            assert all(2 <= len(g) <= 9 for g in groups)

    def test_invalid_parameters(self):
        with pytest.raises(GroupAssignmentError):
            assign_groups([1, 2, 3], 1, 1, random.Random(0))
        with pytest.raises(GroupAssignmentError):
            assign_groups([1, 1, 2], 2, 1, random.Random(0))
