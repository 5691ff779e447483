"""Wire encoding for aggregation rounds.

Every frame is a fixed little-endian layout that starts with one kind byte:

- round announcement (kind 1): round id u64, vector length u32, member
  count n u32, seed rows r u32, then the n member ids as u32, the r sketch
  seeds as u64 pairs and the n members' 32-byte public keys, joined in
  member order. Zero seed rows means the round does not sketch;
- ciphertext (kind 2) and recovery share (kind 3): user id u32, round id
  u64, then the vector as u32 words;
- recovery request (kind 4): round id u64, then the online ids as u32.

The transport delimits each frame, so a frame carries no length of its own:
a decoder checks the frame's exact length against its counts before it reads
an array. A frame can be wrong only in its length, its kind or a field's
range, and each raises ProtocolError; so does an encoder given a field that
its layout cannot hold. The byte counts the harness reports come straight
from these frames.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Container

import numpy as np

from .keys import KEY_BYTES
from .masking import GroupView, ProtocolError, plaintext_words

_KINDS = {"round": 1, "ciphertext": 2, "recovery_share": 3, "recovery_request": 4}
_VECTOR_KINDS = {_KINDS[name]: name for name in ("ciphertext", "recovery_share")}
# the fixed fields of each layout, kind byte first
_ROUND = struct.Struct("<BQIII")
_VECTOR = struct.Struct("<BIQ")
_REQUEST = struct.Struct("<BQ")
_WORD = np.dtype("<u4")


@dataclass(frozen=True)
class VectorMessage:
    """A ciphertext or recovery-share submission from one member."""

    user_id: int
    round_id: int
    entries: np.ndarray
    kind: str = "ciphertext"  # or "recovery_share"


def _pack(fmt: str, *fields: int) -> bytes:
    try:
        return struct.pack(fmt, *fields)
    except struct.error as exc:
        raise ProtocolError(f"frame field out of range: {exc}") from None


def _fixed(layout: struct.Struct, blob: bytes, kinds: Container[int]) -> tuple:
    """The fixed fields of a frame whose kind is in ``kinds``."""
    if len(blob) < layout.size:
        raise ProtocolError(f"frame of {len(blob)} bytes is shorter than its fixed fields")
    fields = layout.unpack_from(blob)
    if fields[0] not in kinds:
        raise ProtocolError(f"unexpected frame kind {fields[0]}")
    return fields


def _words(blob: bytes, offset: int) -> int:
    """How many 32-bit words follow ``offset``; the frame must end on a whole one."""
    count, ragged = divmod(len(blob) - offset, 4)
    if ragged:
        raise ProtocolError("frame does not end on a whole 32-bit word")
    return count


# --- round announcement ---

def encode_announcement(group: GroupView) -> bytes:
    seeds = [word for pair in group.sketch_seeds or () for word in pair]
    n = len(group.member_ids)
    head = _pack(
        f"<BQIII{n}I{len(seeds)}Q", _KINDS["round"], group.round_id, group.vector_length, n,
        len(seeds) // 2, *group.member_ids, *seeds,
    )
    return head + b"".join(group.public_keys)


def decode_announcement(blob: bytes) -> GroupView:
    _, round_id, length, n, rows = _fixed(_ROUND, blob, (_KINDS["round"],))
    keys_at = _ROUND.size + 4 * n + 16 * rows
    need = keys_at + KEY_BYTES * n
    if len(blob) != need:
        raise ProtocolError(f"announcement is {len(blob)} bytes, its counts need {need}")
    seeds = struct.unpack_from(f"<{2 * rows}Q", blob, _ROUND.size + 4 * n)
    return GroupView(
        round_id=round_id,
        member_ids=struct.unpack_from(f"<{n}I", blob, _ROUND.size),
        public_keys=tuple(blob[at : at + KEY_BYTES] for at in range(keys_at, need, KEY_BYTES)),
        vector_length=length,
        sketch_seeds=tuple(zip(seeds[::2], seeds[1::2])) if rows else None,
    )


# --- member submissions ---

def encode_vector_message(msg: VectorMessage) -> bytes:
    if msg.kind not in ("ciphertext", "recovery_share"):
        raise ProtocolError(f"unknown message kind {msg.kind!r}")
    words = np.asarray(msg.entries)
    if words.dtype != _WORD:  # any other array must hold integers in [0, 2**32)
        words = plaintext_words(words).astype(_WORD)
    return _pack(_VECTOR.format, _KINDS[msg.kind], msg.user_id, msg.round_id) + words.tobytes()


def decode_vector_message(blob: bytes) -> VectorMessage:
    kind, user_id, round_id = _fixed(_VECTOR, blob, _VECTOR_KINDS)
    _words(blob, _VECTOR.size)
    return VectorMessage(
        user_id=user_id,
        round_id=round_id,
        entries=np.frombuffer(blob, _WORD, offset=_VECTOR.size).astype(np.uint32),
        kind=_VECTOR_KINDS[kind],
    )


# --- fault recovery ---

def encode_recovery_request(round_id: int, online: list[int]) -> bytes:
    return _pack(f"<BQ{len(online)}I", _KINDS["recovery_request"], round_id, *sorted(online))


def decode_recovery_request(blob: bytes) -> tuple[int, list[int]]:
    _, round_id = _fixed(_REQUEST, blob, (_KINDS["recovery_request"],))
    n = _words(blob, _REQUEST.size)
    return round_id, list(struct.unpack_from(f"<{n}I", blob, _REQUEST.size))
