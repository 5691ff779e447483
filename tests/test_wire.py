"""The four fixed little-endian frame layouts and the round message encodings."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wire_layouts as layouts
from mobagg.harness.simulate import member_recover, member_submit
from mobagg.privagg import (
    GroupView,
    ProtocolError,
    VectorMessage,
    blinding_factors,
    decode_announcement,
    decode_recovery_request,
    decode_vector_message,
    encode_announcement,
    encode_recovery_request,
    encode_vector_message,
    keygen,
    recovery_share,
)
from mobagg.sketch import make_params

_DECODERS = (decode_announcement, decode_vector_message, decode_recovery_request)


def _sample_frames():
    """One frame of each layout: an announcement, a ciphertext, a recovery
    share and a recovery request."""
    rng = random.Random(7)
    keys = {u: keygen(rng) for u in range(3)}
    group = GroupView(
        round_id=5,
        member_ids=(0, 1, 2),
        public_keys=tuple(keys[u].public_bytes for u in range(3)),
        vector_length=4,
        sketch_seeds=((1, 2), (3, 4)),
    )
    return [
        encode_announcement(group),
        encode_vector_message(VectorMessage(1, 5, np.arange(4, dtype=np.uint32))),
        encode_vector_message(VectorMessage(2, 5, np.arange(3, dtype=np.uint32),
                                            kind="recovery_share")),
        encode_recovery_request(5, [0, 2]),
    ]


_SAMPLES = _sample_frames()
_DECODER_OF = dict(zip(_SAMPLES, (decode_announcement, decode_vector_message,
                                  decode_vector_message, decode_recovery_request)))


class TestKnownAnswers:
    """Each layout, byte for byte."""

    def test_announcement(self):
        group = GroupView(
            round_id=0xF000_0000_0000_0007,
            member_ids=(3, 9),
            public_keys=(b"\x11" * 32, b"\x22" * 32),
            vector_length=12,
            sketch_seeds=(((1 << 61) - 2, 7),),
        )
        expected = bytes.fromhex(
            "01"                    # kind: round announcement
            "07000000000000f0"      # round id, high bits set
            "0c000000"              # vector length 12
            "02000000"              # 2 members
            "01000000"              # 1 seed row
            "03000000" "09000000"   # member ids
            "feffffffffffff1f"      # seed a = 2**61 - 2
            "0700000000000000"      # seed b = 7
        ) + b"\x11" * 32 + b"\x22" * 32
        assert encode_announcement(group) == expected
        assert decode_announcement(expected) == group

    def test_ciphertext(self):
        msg = VectorMessage(123, (1 << 63) + 4567, np.array([1, 0xDEADBEEF], dtype=np.uint32))
        expected = bytes.fromhex("02" "7b000000" "d711000000000080" "01000000" "efbeadde")
        assert encode_vector_message(msg) == expected
        back = decode_vector_message(expected)
        assert (back.kind, back.user_id, back.round_id) == ("ciphertext", 123, msg.round_id)
        assert back.entries.tolist() == [1, 0xDEADBEEF]

    def test_recovery_share(self):
        msg = VectorMessage(5, 2, np.array([7], dtype=np.uint32), kind="recovery_share")
        expected = bytes.fromhex("03" "05000000" "0200000000000000" "07000000")
        assert encode_vector_message(msg) == expected
        assert decode_vector_message(expected).kind == "recovery_share"

    def test_recovery_request(self):
        expected = bytes.fromhex("04" "ffffffffffffffff" "01000000" "03000000" "05000000")
        assert encode_recovery_request(2**64 - 1, [5, 1, 3]) == expected
        assert decode_recovery_request(expected) == (2**64 - 1, [1, 3, 5])


class TestFraming:
    """A frame is its fixed fields and its arrays, and nothing else: the
    transport delimits it, so it carries no length of its own."""

    def test_round_trip(self):
        # the tests' own copy of the layouts reads and rebuilds every frame
        for blob in _SAMPLES:
            assert layouts.build(layouts.parse(blob)) == blob

    def test_empty_body(self):
        assert encode_recovery_request(9, []) == bytes.fromhex("04" "0900000000000000")
        assert decode_recovery_request(encode_recovery_request(9, [])) == (9, [])
        empty = encode_vector_message(VectorMessage(1, 9, np.zeros(0, np.uint32)))
        assert decode_vector_message(empty).entries.shape == (0,)

    def test_layout_arithmetic(self):
        # announcement 21 + 36 per member + 16 per seed row; vector 13 + 4 per
        # word; recovery request 9 + 4 per online id
        announcement, ciphertext, share, request = _SAMPLES
        assert len(announcement) == 21 + 36 * 3 + 16 * 2
        assert len(ciphertext) == 13 + 4 * 4
        assert len(share) == 13 + 4 * 3
        assert len(request) == 9 + 4 * 2

    def test_truncations_rejected(self):
        # an announcement's length follows from its counts, so every cut or
        # extension fails; a vector or id list that ends on a whole word is a
        # shorter list, and the aggregator checks its length against the round
        for blob, fixed in zip(_SAMPLES, (None, 13, 13, 9)):
            decode = _DECODER_OF[blob]
            for cut in range(len(blob)):
                if fixed is not None and cut >= fixed and (cut - fixed) % 4 == 0:
                    decode(blob[:cut])
                    continue
                with pytest.raises(ProtocolError):
                    decode(blob[:cut])
            if fixed is None:
                with pytest.raises(ProtocolError):
                    decode(blob + b"!")


class TestVectorMessages:
    def test_payload_is_four_bytes_per_word(self):
        for t in (1, 7, 64, 582, 2048):
            blob = encode_vector_message(VectorMessage(1, 0, np.zeros(t, np.uint32)))
            assert len(blob) == 13 + 4 * t

    def test_round_trip(self):
        entries = np.array([0, 1, 2**32 - 1, 7], dtype=np.uint32)
        msg = VectorMessage(user_id=3, round_id=12, entries=entries, kind="ciphertext")
        back = decode_vector_message(encode_vector_message(msg))
        assert back.user_id == 3 and back.round_id == 12 and back.kind == "ciphertext"
        assert np.array_equal(back.entries, entries)

    def test_body_length_matches_payload_accounting(self):
        entries = np.zeros(582 * 2, dtype=np.uint32)
        words = layouts.parse(encode_vector_message(VectorMessage(1, 0, entries)))["words"]
        assert len(words) == 4 * 582 * 2 == 4656

    def test_recovery_share_kind(self):
        msg = VectorMessage(5, 2, np.arange(3, dtype=np.uint32), kind="recovery_share")
        assert decode_vector_message(encode_vector_message(msg)).kind == "recovery_share"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            encode_vector_message(VectorMessage(1, 0, np.zeros(1, dtype=np.uint32), kind="junk"))

    def test_ragged_body_rejected(self):
        fields = layouts.parse(encode_vector_message(VectorMessage(1, 0, np.zeros(2, np.uint32))))
        bad = layouts.build({**fields, "words": fields["words"][:-1]})
        with pytest.raises(ProtocolError, match="whole 32-bit word"):
            decode_vector_message(bad)


class TestEncoderRanges:
    """A field the layout cannot hold is a ProtocolError at the encoder."""

    @pytest.mark.parametrize("user_id, round_id, entries", [
        (-1, 0, [0]), (2**32, 0, [0]), (1, -1, [0]), (1, 2**64, [0]), (1.5, 0, [0]),
        (1, 0, [-1]), (1, 0, [2**32]),
    ])
    def test_vector_message(self, user_id, round_id, entries):
        with pytest.raises(ProtocolError):
            encode_vector_message(VectorMessage(user_id, round_id, np.array(entries)))

    @pytest.mark.parametrize("round_id, online", [
        (-1, [0]), (2**64, [0]), (0, [-1]), (0, [2**32]),
    ])
    def test_recovery_request(self, round_id, online):
        with pytest.raises(ProtocolError):
            encode_recovery_request(round_id, online)

    @pytest.mark.parametrize("seeds", [((-1, 0),), ((1, 2**64),)])
    def test_announcement_seeds(self, seeds):
        group = GroupView(0, (0,), (b"\x11" * 32,), 1, sketch_seeds=seeds)
        with pytest.raises(ProtocolError, match="out of range"):
            encode_announcement(group)


class TestAnnouncement:
    def make_group(self, n, length, sketch_seeds=None):
        rng = random.Random(99)
        keys = {u: keygen(rng) for u in range(n)}
        return GroupView(
            round_id=4,
            member_ids=tuple(range(n)),
            public_keys=tuple(keys[u].public_bytes for u in range(n)),
            vector_length=length,
            sketch_seeds=sketch_seeds,
        )

    def test_round_trip(self):
        group = self.make_group(5, 64, sketch_seeds=((3, 9), (14, 0)))
        back = decode_announcement(encode_announcement(group))
        assert back == group

    def test_round_trip_without_seeds(self):
        group = self.make_group(3, 7)
        back = decode_announcement(encode_announcement(group))
        assert back.sketch_seeds is None and back == group

    def test_two_hundred_member_size_accounting(self):
        # the 200 ids in 4 bytes each, then the 200 raw keys in member order
        group = self.make_group(200, 1164)
        blob = encode_announcement(group)
        fields = layouts.parse(blob)
        assert fields["keys"] == b"".join(group.public_keys) and len(fields["keys"]) == 32 * 200
        assert fields["members"] == list(range(200))
        assert len(blob) == 21 + 4 * 200 + 32 * 200

    def test_rejects_other_messages(self):
        with pytest.raises(ProtocolError, match="unexpected frame kind 4"):
            decode_announcement(encode_recovery_request(0, [0] * 20))


class TestAnnouncedKeys:
    """The announcement ends in one 32-byte public key per member, in
    member order, and nothing else."""

    def announce(self):
        rng = random.Random(5)
        ids = (1, 10, 12)
        group = GroupView(
            round_id=3,
            member_ids=ids,
            public_keys=tuple(keygen(rng).public_bytes for _ in ids),
            vector_length=4,
        )
        return group, layouts.parse(encode_announcement(group))

    def test_body_keys_decode_in_member_order(self):
        group, fields = self.announce()
        keys = fields["keys"]
        view = decode_announcement(layouts.build(fields))
        assert view.public_keys == tuple(keys[i : i + 32] for i in (0, 32, 64))
        assert view.public_keys == group.public_keys

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda b: b[:-1], id="one-byte-short"),
        pytest.param(lambda b: b + b"\0", id="one-byte-long"),
        pytest.param(lambda b: b[:-32], id="one-key-short"),
        pytest.param(lambda b: b + b[:32], id="one-key-over"),
        pytest.param(lambda b: b"", id="empty"),
    ])
    def test_body_that_does_not_fit_the_members_rejected(self, edit):
        _, fields = self.announce()
        with pytest.raises(ProtocolError, match="its counts need 129"):
            decode_announcement(layouts.build({**fields, "keys": edit(fields["keys"])}))


class TestRecoveryRequest:
    def test_round_trip_sorted(self):
        blob = encode_recovery_request(7, [5, 1, 3])
        assert decode_recovery_request(blob) == (7, [1, 3, 5])

    def test_rejects_vector_message(self):
        blob = encode_vector_message(VectorMessage(1, 0, np.zeros(1, dtype=np.uint32)))
        with pytest.raises(ProtocolError, match="unexpected frame kind 2"):
            decode_recovery_request(blob)


def _sketch_member():
    """User 1 of a three-member sketch round, and valid frames addressed to it."""
    rng = random.Random(8)
    keys = {u: keygen(rng) for u in range(3)}
    params = make_params(5, 0.9, 0.9)  # 2 rows of 4 counters
    group = GroupView(
        round_id=5,
        member_ids=(0, 1, 2),
        public_keys=tuple(keys[u].public_bytes for u in range(3)),
        vector_length=params.table_size,
        sketch_seeds=((1, 2), (3, 4)),
    )
    return keys[1], params, group, [encode_announcement(group), encode_recovery_request(5, [1, 2])]


_MEMBER_KEY, _MEMBER_PARAMS, _MEMBER_VIEW, _MEMBER_FRAMES = _sketch_member()
_MEMBER_FIELDS = layouts.parse(_MEMBER_FRAMES[0])
_MEMBER_STEPS = (
    lambda blob: member_submit(_MEMBER_KEY, 1, np.arange(5), _MEMBER_PARAMS, blob),
    lambda blob: member_recover(_MEMBER_KEY, 1, _MEMBER_VIEW, blob),
)
# the base of each hostile case below: one frame of each layout, as fields
_BASE = {
    decode_vector_message: {"type": "ciphertext", "user_id": 1, "round_id": 0,
                            "words": b"\0" * 8},
    decode_recovery_request: {"type": "recovery_request", "round_id": 0, "online": [0, 2]},
    decode_announcement: {"type": "round", "round_id": 0, "vector_length": 1, "members": [0],
                          "sketch_seeds": [], "keys": b"\x11" * 32},
}

_u32 = st.integers(0, 2**32 - 1)
_u64 = st.integers(0, 2**64 - 1)
_seeds = st.lists(st.lists(_u64, min_size=2, max_size=2), max_size=3)


class TestHostileInput:
    @pytest.mark.parametrize("blob", [
        pytest.param(b"", id="empty"),
        pytest.param(b"\x01", id="kind-only"),
        pytest.param(b"\x09" + bytes(40), id="unknown-kind"),
    ])
    def test_bad_header_rejected(self, blob):
        for decode in _DECODERS:
            with pytest.raises(ProtocolError):
                decode(blob)

    def test_huge_header_length_rejected(self):
        # counts that claim more than the frame holds fail on the length,
        # before any array is read
        fields = {**_BASE[decode_announcement], "member_count": 2**32 - 1, "seed_rows": 2**32 - 1}
        with pytest.raises(ProtocolError, match="its counts need"):
            decode_announcement(layouts.build(fields))

    @pytest.mark.parametrize("header, decode", [
        # a field cut off, another frame's kind, words that do not fill the tail
        ({"cut": 12}, decode_vector_message),
        ({"kind": 4}, decode_vector_message),
        ({"words": b"\0" * 5}, decode_vector_message),
        ({"cut": 8}, decode_recovery_request),
        ({"kind": 2}, decode_recovery_request),
        ({"kind": 0}, decode_recovery_request),
        ({"cut": -1}, decode_recovery_request),
        ({"cut": 20}, decode_announcement),
        ({"kind": 255}, decode_announcement),
        # repeated, absent or unkeyed members; seed rows the frame lacks
        ({"members": [0, 0], "keys": b"\x11" * 64}, decode_announcement),
        ({"members": [], "keys": b""}, decode_announcement),
        ({"members": [0, 1]}, decode_announcement),
        ({"seed_rows": 1}, decode_announcement),
        ({"vector_length": 0}, decode_announcement),
        ({"vector_length": 2**24 + 1}, decode_announcement),
    ])
    def test_missing_or_mistyped_fields_rejected(self, header, decode):
        fields = {**_BASE[decode], **header}
        blob = layouts.build(fields)
        if "cut" in fields:
            blob = blob[: fields["cut"]]
        with pytest.raises(ProtocolError):
            decode(blob)

    def test_od_vector_length_admitted(self):
        # 582 stations squared: the longest vector the pipeline announces
        blob = layouts.build({**_BASE[decode_announcement], "vector_length": 582 * 582})
        assert decode_announcement(blob).vector_length == 338_724

    @pytest.mark.parametrize("mask", [
        pytest.param(lambda own, view: blinding_factors(own, 0, view), id="blinding_factors"),
        pytest.param(lambda own, view: recovery_share(own, 0, view, {0, 2}), id="recovery_share"),
    ])
    def test_low_order_public_key_rejected(self, mask):
        # the all-zero key decodes cleanly, but its exchange with any
        # private key is the all-zero point, which X25519 refuses
        rng = random.Random(3)
        keys = {u: keygen(rng) for u in (0, 2)}
        public = (keys[0].public_bytes, bytes(32), keys[2].public_bytes)
        view = decode_announcement(encode_announcement(GroupView(
            round_id=4, member_ids=(0, 1, 2), public_keys=public, vector_length=3,
        )))
        for _ in range(2):  # a failed exchange is not stored, so it fails again
            with pytest.raises(ProtocolError):
                mask(keys[0], view)
        assert keys[0]._pair_keys == {}

    @settings(max_examples=300, deadline=None)
    @given(blob=st.one_of(
        st.binary(max_size=256),
        # truncations of valid frames
        st.tuples(st.sampled_from(_SAMPLES + _MEMBER_FRAMES),
                  st.integers(0, 2000)).map(lambda fc: fc[0][: fc[1]]),
        # a valid frame under any kind byte
        st.tuples(st.sampled_from(_SAMPLES + _MEMBER_FRAMES),
                  st.integers(0, 255)).map(lambda fk: bytes([fk[1]]) + fk[0][1:]),
        # a valid frame's fixed fields followed by arbitrary bytes
        st.tuples(st.sampled_from([b[:21] for b in _SAMPLES[:1]] + [b[:13] for b in _SAMPLES[1:3]]
                                  + [_SAMPLES[3][:9]]),
                  st.binary(max_size=100)).map(b"".join),
        # announcements whose counts need not fit their length
        st.fixed_dictionaries({
            "type": st.just("round"), "round_id": _u64, "vector_length": _u32,
            "members": st.lists(_u32, max_size=3), "sketch_seeds": _seeds,
            "keys": st.binary(max_size=100),
        }, optional={"member_count": _u32, "seed_rows": _u32}).map(layouts.build),
        # the member's announcement with other seeds, lengths or counts
        st.fixed_dictionaries({}, optional={
            "sketch_seeds": _seeds, "vector_length": st.sampled_from([8, 4, 0, 2**24, 2**32 - 1]),
            "seed_rows": st.integers(0, 3), "member_count": st.integers(0, 4),
        }).map(lambda edit: layouts.build({**_MEMBER_FIELDS, **edit})),
        # the member's valid fields over 0-3 whole keys, its group's or
        # arbitrary ones, and over ragged key bytes
        st.lists(
            st.sampled_from(_MEMBER_VIEW.public_keys) | st.binary(min_size=32, max_size=32),
            max_size=3,
        ).map(b"".join).map(lambda keys: layouts.build({**_MEMBER_FIELDS, "keys": keys})),
        st.binary(max_size=100).map(lambda keys: layouts.build({**_MEMBER_FIELDS, "keys": keys})),
    ))
    def test_arbitrary_bytes_decode_or_raise_protocol_error(self, blob):
        # the decoders, and the member steps that act on what they decode
        for decode in _DECODERS + _MEMBER_STEPS:
            try:
                decode(blob)
            except ProtocolError:
                pass
