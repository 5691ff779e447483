"""Length-prefixed JSON+binary framing and the round message encodings."""

import json
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    frame,
    keygen,
    recovery_share,
    unframe,
)
from mobagg.sketch import make_params


class TestFraming:
    def test_round_trip(self):
        header = {"type": "x", "round_id": 3}
        body = b"\x01\x02\x03"
        assert unframe(frame(header, body)) == (header, body)

    def test_empty_body(self):
        header, body = unframe(frame({"a": 1}))
        assert header == {"a": 1} and body == b""

    def test_layout_arithmetic(self):
        # 4-byte LE header length + header + 4-byte LE body length + body
        header = {"k": "v"}
        body = b"abcdef"
        blob = frame(header, body)
        head_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        assert len(blob) == 4 + len(head_bytes) + 4 + len(body)
        assert struct.unpack_from("<I", blob, 0)[0] == len(head_bytes)
        assert blob[-len(body):] == body

    def test_truncations_rejected(self):
        blob = frame({"a": 1}, b"xyz")
        for cut in (1, 5, len(blob) - 1):
            with pytest.raises(ProtocolError):
                unframe(blob[:cut])
        with pytest.raises(ProtocolError):
            unframe(blob + b"!")


class TestVectorMessages:
    def test_payload_is_four_bytes_per_word(self):
        for t in (1, 7, 64, 582, 2048):
            _, body = unframe(encode_vector_message(VectorMessage(1, 0, np.zeros(t, np.uint32))))
            assert len(body) == 4 * t

    def test_round_trip(self):
        entries = np.array([0, 1, 2**32 - 1, 7], dtype=np.uint32)
        msg = VectorMessage(user_id=3, round_id=12, entries=entries, kind="ciphertext")
        back = decode_vector_message(encode_vector_message(msg))
        assert back.user_id == 3 and back.round_id == 12 and back.kind == "ciphertext"
        assert np.array_equal(back.entries, entries)

    def test_body_length_matches_payload_accounting(self):
        entries = np.zeros(582 * 2, dtype=np.uint32)
        blob = encode_vector_message(VectorMessage(1, 0, entries))
        _, body = unframe(blob)
        assert len(body) == 4 * 582 * 2 == 4656

    def test_recovery_share_kind(self):
        msg = VectorMessage(5, 2, np.arange(3, dtype=np.uint32), kind="recovery_share")
        assert decode_vector_message(encode_vector_message(msg)).kind == "recovery_share"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            encode_vector_message(VectorMessage(1, 0, np.zeros(1, dtype=np.uint32), kind="junk"))

    def test_ragged_body_rejected(self):
        blob = encode_vector_message(VectorMessage(1, 0, np.zeros(2, dtype=np.uint32)))
        header, body = unframe(blob)
        bad = frame({"type": "ciphertext", "user_id": 1, "round_id": 0}, body[:-1])
        with pytest.raises(ProtocolError):
            decode_vector_message(bad)


class TestAnnouncement:
    def make_group(self, n, length, sketch_seeds=None):
        rng = random.Random(99)
        keys = {u: keygen(rng) for u in range(n)}
        return GroupView(
            round_id=4,
            member_ids=tuple(range(n)),
            public_keys={u: k.public_bytes for u, k in keys.items()},
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
        # header carries 200 hex keys (64 chars each) and no body; the frame
        # length follows directly from the serialized JSON
        group = self.make_group(200, 1164)
        blob = encode_announcement(group)
        header, body = unframe(blob)
        assert body == b""
        head_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        assert len(blob) == 4 + len(head_bytes) + 4
        assert len(header["public_keys"]) == 200
        assert all(len(h) == 64 for h in header["public_keys"].values())

    def test_rejects_other_messages(self):
        with pytest.raises(ProtocolError):
            decode_announcement(frame({"type": "recovery_request"}))


class TestRecoveryRequest:
    def test_round_trip_sorted(self):
        blob = encode_recovery_request(7, [5, 1, 3])
        assert decode_recovery_request(blob) == (7, [1, 3, 5])

    def test_rejects_vector_message(self):
        blob = encode_vector_message(VectorMessage(1, 0, np.zeros(1, dtype=np.uint32)))
        with pytest.raises(ProtocolError):
            decode_recovery_request(blob)


def _sample_frames():
    rng = random.Random(7)
    keys = {u: keygen(rng) for u in range(3)}
    group = GroupView(
        round_id=5,
        member_ids=(0, 1, 2),
        public_keys={u: k.public_bytes for u, k in keys.items()},
        vector_length=4,
        sketch_seeds=((1, 2), (3, 4)),
    )
    return [
        encode_announcement(group),
        encode_vector_message(VectorMessage(1, 5, np.arange(4, dtype=np.uint32))),
        encode_recovery_request(5, [0, 2]),
    ]


def _sketch_member():
    """User 1 of a three-member sketch round, and valid frames addressed to it."""
    rng = random.Random(8)
    keys = {u: keygen(rng) for u in range(3)}
    params = make_params(5, 0.9, 0.9)  # 2 rows of 4 counters
    group = GroupView(
        round_id=5,
        member_ids=(0, 1, 2),
        public_keys={u: k.public_bytes for u, k in keys.items()},
        vector_length=params.table_size,
        sketch_seeds=((1, 2), (3, 4)),
    )
    return keys[1], params, group, [encode_announcement(group), encode_recovery_request(5, [1, 2])]


_MEMBER_KEY, _MEMBER_PARAMS, _MEMBER_VIEW, _MEMBER_FRAMES = _sketch_member()


def _reannounce(seeds: object, length: object) -> bytes:
    header, _ = unframe(_MEMBER_FRAMES[0])
    return frame({**header, "sketch_seeds": seeds, "vector_length": length})


_DECODERS = (unframe, decode_announcement, decode_vector_message, decode_recovery_request)
_MEMBER_STEPS = (
    lambda blob: member_submit(_MEMBER_KEY, 1, np.arange(5), _MEMBER_PARAMS, blob),
    lambda blob: member_recover(_MEMBER_KEY, 1, _MEMBER_VIEW, blob),
)


def _raw_frame(head: bytes) -> bytes:
    return struct.pack("<I", len(head)) + head + struct.pack("<I", 0)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
_headers = st.fixed_dictionaries(
    {"type": st.sampled_from(["round", "ciphertext", "recovery_share", "recovery_request"])},
    optional={name: _json for name in (
        "round_id", "user_id", "members", "public_keys", "vector_length", "sketch_seeds", "online",
    )},
)


class TestHostileInput:
    @pytest.mark.parametrize("head", [
        pytest.param(b"\xff\xfe", id="not-utf8"),
        pytest.param(b"{not json", id="not-json"),
        pytest.param(b"[1, 2]", id="json-list"),
        pytest.param(b"[" * 100_000, id="too-deep"),
    ])
    def test_bad_header_rejected(self, head):
        blob = _raw_frame(head)
        for decode in _DECODERS:
            with pytest.raises(ProtocolError):
                decode(blob)

    def test_huge_header_length_rejected(self):
        with pytest.raises(ProtocolError):
            unframe(struct.pack("<I", 2**32 - 1) + b"{}" + struct.pack("<I", 0))

    @pytest.mark.parametrize("header, decode", [
        ({"type": "ciphertext", "round_id": 0}, decode_vector_message),
        ({"type": "ciphertext", "user_id": "1", "round_id": 0}, decode_vector_message),
        ({"type": "ciphertext", "user_id": 1, "round_id": 1.5}, decode_vector_message),
        ({"type": "recovery_request", "round_id": "x", "online": []}, decode_recovery_request),
        ({"type": "recovery_request", "round_id": 0, "online": ["a"]}, decode_recovery_request),
        ({"type": "recovery_request", "round_id": 0, "online": 3}, decode_recovery_request),
        ({"type": "recovery_request", "round_id": 0}, decode_recovery_request),
        ({"type": "round", "members": [0], "public_keys": {"0": "00"},
          "vector_length": 1}, decode_announcement),
        ({"type": "round", "round_id": 0, "members": [0], "public_keys": {"x": "00"},
          "vector_length": 1}, decode_announcement),
        ({"type": "round", "round_id": 0, "members": [0], "public_keys": {"0": "zz"},
          "vector_length": 1}, decode_announcement),
        ({"type": "round", "round_id": 0, "members": [0], "public_keys": [],
          "vector_length": 1}, decode_announcement),
        ({"type": "round", "round_id": 0, "members": [0], "public_keys": {"0": "00"},
          "vector_length": True}, decode_announcement),
        ({"type": "round", "round_id": 0, "members": [0], "public_keys": {"0": "00"},
          "vector_length": 1, "sketch_seeds": [[1]]}, decode_announcement),
        ({"type": "round", "round_id": 0, "members": [0], "public_keys": {"0": "00"},
          "vector_length": 1}, decode_announcement),
        ({"type": "round", "round_id": 0, "members": [0], "public_keys": {"0": "11" * 32},
          "vector_length": 2**40}, decode_announcement),
    ])
    def test_missing_or_mistyped_fields_rejected(self, header, decode):
        with pytest.raises(ProtocolError):
            decode(frame(header))

    def test_od_vector_length_admitted(self):
        # 582 stations squared: the longest vector the pipeline announces
        header = {"type": "round", "round_id": 0, "members": [0],
                  "public_keys": {"0": "11" * 32}, "vector_length": 582 * 582}
        assert decode_announcement(frame(header)).vector_length == 338_724

    @pytest.mark.parametrize("mask", [
        pytest.param(lambda own, view: blinding_factors(own, 0, view), id="blinding_factors"),
        pytest.param(lambda own, view: recovery_share(own, 0, view, {0, 2}), id="recovery_share"),
    ])
    def test_low_order_public_key_rejected(self, mask):
        # the all-zero key decodes cleanly, but its exchange with any
        # private key is the all-zero point, which X25519 refuses
        rng = random.Random(3)
        keys = {u: keygen(rng) for u in (0, 2)}
        public = {0: keys[0].public_bytes, 1: bytes(32), 2: keys[2].public_bytes}
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
        st.binary(max_size=64).map(_raw_frame),
        st.tuples(st.sampled_from(_sample_frames() + _MEMBER_FRAMES),
                  st.integers(0, 2000)).map(lambda fc: fc[0][: fc[1]]),
        _headers.map(frame),
        st.builds(
            _reannounce,
            _json | st.lists(st.lists(st.integers(-2**70, 2**70), max_size=3), max_size=3),
            st.sampled_from([8, 4, 2**24]),
        ),
    ))
    def test_arbitrary_bytes_decode_or_raise_protocol_error(self, blob):
        # the decoders, and the member steps that act on what they decode
        for decode in _DECODERS + _MEMBER_STEPS:
            try:
                decode(blob)
            except ProtocolError:
                pass
