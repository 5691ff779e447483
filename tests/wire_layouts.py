"""The four frame layouts, written out a second time for the tests.

``parse`` reads any frame into a dict of its fields and ``build`` packs such
a dict back, so a test can edit one field of a frame and still hand the
result to the decoder under test. ``type`` names the layout. ``build`` takes
the kind byte from it unless ``kind`` overrides it, and the counts from the
lists unless ``member_count`` or ``seed_rows`` overrides them.
"""

from __future__ import annotations

import struct

KINDS = {"round": 1, "ciphertext": 2, "recovery_share": 3, "recovery_request": 4}
NAMES = {kind: name for name, kind in KINDS.items()}


def parse(blob: bytes) -> dict:
    kind = NAMES[blob[0]]
    if kind == "round":
        round_id, length, n, rows = struct.unpack_from("<QIII", blob, 1)
        seeds = struct.unpack_from(f"<{2 * rows}Q", blob, 21 + 4 * n)
        return {
            "type": kind,
            "round_id": round_id,
            "vector_length": length,
            "members": list(struct.unpack_from(f"<{n}I", blob, 21)),
            "sketch_seeds": [list(pair) for pair in zip(seeds[::2], seeds[1::2])],
            "keys": blob[21 + 4 * n + 16 * rows :],
        }
    if kind == "recovery_request":
        (round_id,) = struct.unpack_from("<Q", blob, 1)
        online = struct.unpack_from(f"<{(len(blob) - 9) // 4}I", blob, 9)
        return {"type": kind, "round_id": round_id, "online": list(online)}
    user_id, round_id = struct.unpack_from("<IQ", blob, 1)
    return {"type": kind, "user_id": user_id, "round_id": round_id, "words": blob[13:]}


def build(fields: dict) -> bytes:
    kind = fields.get("kind", KINDS[fields["type"]])
    if fields["type"] == "round":
        members, seeds = fields["members"], fields["sketch_seeds"]
        flat = [word for pair in seeds for word in pair]
        return struct.pack(
            f"<BQIII{len(members)}I{len(flat)}Q", kind, fields["round_id"],
            fields["vector_length"], fields.get("member_count", len(members)),
            fields.get("seed_rows", len(seeds)), *members, *flat,
        ) + fields["keys"]
    if fields["type"] == "recovery_request":
        online = fields["online"]
        return struct.pack(f"<BQ{len(online)}I", kind, fields["round_id"], *online)
    return struct.pack("<BIQ", kind, fields["user_id"], fields["round_id"]) + fields["words"]
