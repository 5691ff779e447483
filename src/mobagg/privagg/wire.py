"""Wire encoding for aggregation rounds.

Every message is a JSON header plus a binary body, each preceded by a
4-byte little-endian length. A round announcement's body is its members'
32-byte public keys, joined in ``members`` order. A ciphertext or recovery
share's body is its vector as packed little-endian 32-bit words, so exactly
4 * vector_length bytes. A recovery request has an empty body. The byte
counts the harness reports come straight from these frames.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .keys import KEY_BYTES
from .masking import GroupView, ProtocolError

_LEN = struct.Struct("<I")


@dataclass(frozen=True)
class VectorMessage:
    """A ciphertext or recovery-share submission from one member."""

    user_id: int
    round_id: int
    entries: np.ndarray
    kind: str = "ciphertext"  # or "recovery_share"


def frame(header: dict, body: bytes = b"") -> bytes:
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return _LEN.pack(len(head)) + head + _LEN.pack(len(body)) + body


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose names are distinct; a repeated name would drop a value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ProtocolError("frame header repeats a name within an object")
    return obj


def unframe(blob: bytes) -> tuple[dict, bytes]:
    if len(blob) < 2 * _LEN.size:
        raise ProtocolError("truncated frame")
    (head_len,) = _LEN.unpack_from(blob, 0)
    head_end = _LEN.size + head_len
    if len(blob) < head_end + _LEN.size:
        raise ProtocolError("truncated frame header")
    try:
        header = json.loads(blob[_LEN.size : head_end].decode(), object_pairs_hook=_object)
    except ProtocolError:
        raise
    except (ValueError, RecursionError):  # bad UTF-8, bad JSON, too deep
        raise ProtocolError("frame header is not JSON") from None
    if not isinstance(header, dict):
        raise ProtocolError("frame header is not a JSON object")
    (body_len,) = _LEN.unpack_from(blob, head_end)
    body_end = head_end + _LEN.size + body_len
    if len(blob) != body_end:
        raise ProtocolError("frame length mismatch")
    return header, blob[head_end + _LEN.size :]


def _int(value: object, name: str) -> int:
    if type(value) is not int:  # also rejects missing fields, bools and floats
        raise ProtocolError(f"{name} must be an integer")
    return value


def _ints(value: object, name: str) -> list[int]:
    if not isinstance(value, list):
        raise ProtocolError(f"{name} must be a list of integers")
    return [_int(v, name) for v in value]


# --- round announcement ---

def encode_announcement(group: GroupView) -> bytes:
    header = {
        "type": "round",
        "round_id": group.round_id,
        "members": list(group.member_ids),
        "vector_length": group.vector_length,
    }
    if group.sketch_seeds is not None:
        header["sketch_seeds"] = [[a, b] for a, b in group.sketch_seeds]
    return frame(header, b"".join(group.public_keys))


def decode_announcement(blob: bytes) -> GroupView:
    header, body = unframe(blob)
    if header.get("type") != "round":
        raise ProtocolError("not a round announcement")
    members = tuple(_ints(header.get("members"), "members"))
    if len(body) != KEY_BYTES * len(members):
        raise ProtocolError(f"announcement body is not {KEY_BYTES} bytes per member")
    seeds = header.get("sketch_seeds")
    if seeds is not None:
        if not isinstance(seeds, list) or not all(isinstance(p, list) and len(p) == 2 for p in seeds):
            raise ProtocolError("sketch_seeds must be a list of integer pairs")
        seeds = tuple((_int(a, "sketch_seeds"), _int(b, "sketch_seeds")) for a, b in seeds)
    return GroupView(
        round_id=_int(header.get("round_id"), "round_id"),
        member_ids=members,
        public_keys=tuple(body[i : i + KEY_BYTES] for i in range(0, len(body), KEY_BYTES)),
        vector_length=_int(header.get("vector_length"), "vector_length"),
        sketch_seeds=seeds,
    )


# --- member submissions ---

def encode_vector_message(msg: VectorMessage) -> bytes:
    if msg.kind not in ("ciphertext", "recovery_share"):
        raise ProtocolError(f"unknown message kind {msg.kind!r}")
    header = {"type": msg.kind, "user_id": msg.user_id, "round_id": msg.round_id}
    body = np.asarray(msg.entries, dtype="<u4").tobytes()
    return frame(header, body)


def decode_vector_message(blob: bytes) -> VectorMessage:
    header, body = unframe(blob)
    kind = header.get("type")
    if kind not in ("ciphertext", "recovery_share"):
        raise ProtocolError(f"unexpected message type {kind!r}")
    if len(body) % 4:
        raise ProtocolError("vector body is not whole 32-bit words")
    return VectorMessage(
        user_id=_int(header.get("user_id"), "user_id"),
        round_id=_int(header.get("round_id"), "round_id"),
        entries=np.frombuffer(body, dtype="<u4").astype(np.uint32),
        kind=kind,
    )


# --- fault recovery ---

def encode_recovery_request(round_id: int, online: list[int]) -> bytes:
    return frame({"type": "recovery_request", "round_id": round_id, "online": sorted(online)})


def decode_recovery_request(blob: bytes) -> tuple[int, list[int]]:
    header, body = unframe(blob)
    if header.get("type") != "recovery_request" or body:
        raise ProtocolError("not a recovery request")
    return _int(header.get("round_id"), "round_id"), _ints(header.get("online"), "online")
