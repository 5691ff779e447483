"""End-to-end simulation of aggregation rounds with exact byte accounting.

Members and the aggregator meet only in frames. ``simulate_round`` routes
them: it assigns groups, seeded by SHA-256 over the cohort's public keys in
user-id order, so every round over one key set meets the same groups and a
re-keyed cohort is partitioned afresh (each member then exchanges with each
group peer once per key set). It sends each group's announcement through the
transport, hands every online member the bytes the transport delivered to
it, aggregates the ciphertext frames that come back and, when members drop
out, routes the recovery request and shares the same way. A member step
(``member_submit``, ``member_recover``) holds only its keypair, its own
plaintext and the deployment's sketch sizing; every view, online list and
sketch seed it uses is decoded from the frames it received, so a hostile
frame meets the member's own checks and fails with ``ProtocolError``. Each
group's aggregate is checked against the plaintext oracle every single
round; a mismatch is a fatal protocol bug, not a statistic.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import sketch as cms
from ..privagg import (
    GroupView,
    KeyPair,
    ProtocolError,
    aggregate,
    assign_groups,
    blinding_factors,
    decode_announcement,
    decode_recovery_request,
    decode_vector_message,
    encode_announcement,
    encode_recovery_request,
    encode_vector_message,
    encrypt,
    keygen,
    plaintext_words,
    recover_aggregate,
    recovery_share,
    VectorMessage,
)
from ..privagg.masking import MAX_VECTOR_LENGTH
from .transport import DOWNLOAD, UPLOAD, InProcessTransport

MODES = ("station", "grid", "od", "sketch")


class OracleMismatch(RuntimeError):
    """The protocol aggregate disagreed with the plaintext sum."""


@dataclass(frozen=True)
class SimConfig:
    """Shape of the simulated deployment and of one round's vector."""

    n_users: int
    group_size: int
    threshold: int
    mode: str = "station"
    dropout_rate: float = 0.0
    n_stations: int | None = None
    grid_rows: int | None = None
    grid_cols: int | None = None
    sketch_epsilon: float = 0.01
    sketch_delta: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_users < 2:
            raise ValueError("need at least 2 users")
        # assign_groups' checks, made before any key is drawn
        for name in ("group_size", "threshold"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")
        for name in ("n_stations", "grid_rows", "grid_cols"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        # refused here, before any key or plaintext is made for the round
        dims = (self.grid_rows, self.grid_cols) if self.mode == "grid" else (self.n_stations,)
        if all(dims) and self.vector_length() > MAX_VECTOR_LENGTH:
            raise ValueError(
                f"{self.mode} mode's vector of {self.vector_length()} words exceeds "
                f"the {MAX_VECTOR_LENGTH} a round may carry"
            )

    def plain_length(self) -> int:
        """Length of the per-user plaintext vector (before any sketching)."""
        if self.mode in ("station", "od", "sketch"):
            if not self.n_stations:
                raise ValueError(f"{self.mode} mode needs n_stations")
            if self.mode == "od":
                return self.n_stations * self.n_stations
            return 2 * self.n_stations
        if not (self.grid_rows and self.grid_cols):
            raise ValueError("grid mode needs grid_rows and grid_cols")
        return self.grid_rows * self.grid_cols

    def sketch_params(self) -> cms.SketchParams | None:
        if self.mode != "sketch":
            return None
        return cms.make_params(self.plain_length(), self.sketch_epsilon, self.sketch_delta)

    def vector_length(self) -> int:
        """Length of the transported (possibly sketched) vector."""
        params = self.sketch_params()
        return params.table_size if params else self.plain_length()


@dataclass(frozen=True)
class GroupReport:
    group_index: int
    n_members: int
    n_online: int
    payload_bytes_per_member: int
    upload_bytes: int
    download_bytes: int
    recovery_invoked: bool
    verified: bool


@dataclass(frozen=True)
class RoundReport:
    round_id: int
    mode: str
    n_users: int
    vector_length: int
    skipped: bool
    groups: tuple[GroupReport, ...] = ()
    duration_s: float = 0.0

    @property
    def upload_bytes(self) -> int:
        return sum(g.upload_bytes for g in self.groups)

    @property
    def download_bytes(self) -> int:
        return sum(g.download_bytes for g in self.groups)

    @property
    def recovery_invoked(self) -> bool:
        return any(g.recovery_invoked for g in self.groups)

    @property
    def verified(self) -> bool:
        return all(g.verified for g in self.groups)


@dataclass(frozen=True)
class RoundOutcome:
    """What the aggregator learns from one round."""

    values: np.ndarray            # per-ROI estimates in the plain domain
    transported: np.ndarray       # the aggregated vector as shipped (uint32)
    online_users: tuple[int, ...]
    report: RoundReport
    sketch_seeds: tuple[tuple[int, int], ...] | None = None


def setup_users(n_users: int, rng: random.Random) -> dict[int, KeyPair]:
    """Key setup: user ids 0..n-1 with fresh DH keypairs."""
    return {uid: keygen(rng) for uid in range(n_users)}


def synthesize_users(
    targets: Sequence[int] | np.ndarray,
    n_users: int,
    rng: random.Random,
) -> np.ndarray:
    """0/1 presence matrix (n_users x n_rois) whose column sums hit ``targets``.

    Each ROI's count is assigned to that many distinct users; a user may be
    present in several ROIs at once.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.min(initial=0) < 0:
        raise ValueError("target counts cannot be negative")
    if targets.max(initial=0) > n_users:
        raise ValueError(
            f"target count {int(targets.max())} exceeds population {n_users}"
        )
    matrix = np.zeros((n_users, targets.size), dtype=np.int64)
    for roi, count in enumerate(targets.tolist()):
        if count:
            for uid in rng.sample(range(n_users), count):
                matrix[uid, roi] = 1
    return matrix


def member_submit(
    own: KeyPair,
    own_id: int,
    plain: np.ndarray,
    params: cms.SketchParams | None,
    announcement: bytes,
) -> tuple[GroupView, bytes]:
    """A member's answer to the announcement frame it received: its ciphertext frame.

    The member decodes the announcement, sketches its own plaintext under the
    announced seeds when the deployment sketches (``params``), masks the
    result and encodes it. It also returns the view it decoded, which it keeps
    for a recovery request. A vector length or sketch seeds that do not fit
    the deployment raise ProtocolError before any mask is expanded. A
    plaintext entry outside [0, 2**32) raises ProtocolError with ``encrypt``'s
    message; a sketch round checks it before sketching, which would wrap it.
    """
    view = decode_announcement(announcement)
    expected = params.table_size if params else plain.size
    if view.vector_length != expected:
        raise ProtocolError(
            f"announced vector_length {view.vector_length}, this deployment sends {expected}"
        )
    if params is None:
        if view.sketch_seeds is not None:
            raise ProtocolError("announced sketch seeds, but this deployment does not sketch")
        vector = plain
    else:
        words = plaintext_words(plain)
        try:
            vector = cms.encode_vector(words, params, view.sketch_seeds or ())
        except cms.SketchParamsError as exc:
            raise ProtocolError(f"announced sketch seeds do not fit: {exc}") from None
    entries = encrypt(vector, blinding_factors(own, own_id, view))
    return view, encode_vector_message(VectorMessage(own_id, view.round_id, entries))


def member_recover(own: KeyPair, own_id: int, view: GroupView, request: bytes) -> bytes:
    """A member's answer to the recovery-request frame it received: its share frame.

    The request must name the round of the member's own decoded ``view``; the
    share covers the peers that the decoded online list leaves out.
    """
    round_id, online = decode_recovery_request(request)
    if round_id != view.round_id:
        raise ProtocolError(
            f"recovery request for round {round_id}, but the announcement was round {view.round_id}"
        )
    share = recovery_share(own, own_id, view, online)
    return encode_vector_message(VectorMessage(own_id, round_id, share, kind="recovery_share"))


def _upload_entries(blob: bytes, user_id: int, round_id: int, kind: str) -> np.ndarray:
    """The entries of an upload whose fixed fields name its sender, round and kind."""
    msg = decode_vector_message(blob)
    if (msg.user_id, msg.round_id, msg.kind) != (user_id, round_id, kind):
        raise ProtocolError(
            f"upload from user {user_id} in round {round_id} claims user {msg.user_id}, "
            f"round {msg.round_id}, kind {msg.kind!r}; expected {kind!r}"
        )
    return msg.entries


def simulate_round(
    config: SimConfig,
    user_vectors: np.ndarray,
    keys: dict[int, KeyPair],
    round_id: int,
    rng: random.Random,
    transport: InProcessTransport | None = None,
) -> RoundOutcome:
    """Run one full aggregation round over every user's plaintext vector.

    ``user_vectors`` is (n_users, plain_length) of non-negative counts; each
    member reads only its own row. The returned values cover only the users
    that stayed online; each group's aggregate is verified against the
    plaintext oracle and a disagreement raises OracleMismatch. ``rng`` draws
    only the dropouts. The groups come from ``keys``, and a sketch round's
    seeds from ``keys`` and ``round_id``, so no earlier draw moves them.
    """
    t0 = time.perf_counter()
    bus = transport or InProcessTransport()
    plain_len = config.plain_length()
    if user_vectors.shape != (config.n_users, plain_len):
        raise ValueError(
            f"user_vectors must be ({config.n_users}, {plain_len}), got {user_vectors.shape}"
        )
    if set(keys) != set(range(config.n_users)):
        raise ValueError("keys must cover exactly user ids 0..n_users-1")
    if not (0 <= round_id < 1 << 64):
        raise ProtocolError(f"round_id {round_id} outside [0, 2**64)")

    # The groups follow the cohort's key set, not the round.
    key_set = b"".join(keys[uid].public_bytes for uid in range(config.n_users))
    digest = hashlib.sha256(key_set).digest()
    memberships = assign_groups(
        list(range(config.n_users)), config.group_size, config.threshold, random.Random(digest),
    )
    params = config.sketch_params()
    round_rng = random.Random(hashlib.sha256(digest + round_id.to_bytes(8, "little")).digest())
    seeds = None if params is None else cms.draw_seeds(params.depth, round_rng)
    length = config.vector_length()
    if not memberships:
        report = RoundReport(
            round_id=round_id, mode=config.mode, n_users=config.n_users,
            vector_length=length, skipped=True,
            duration_s=time.perf_counter() - t0,
        )
        return RoundOutcome(
            values=np.zeros(plain_len, dtype=np.int64),
            transported=np.zeros(length, dtype=np.uint32),
            online_users=(),
            report=report,
            sketch_seeds=seeds,
        )

    total = np.zeros(length, dtype=np.uint32)
    online_all: list[int] = []
    group_reports: list[GroupReport] = []
    for g_index, members in enumerate(memberships):
        view = GroupView(
            round_id=round_id,
            member_ids=members,
            public_keys=tuple(keys[uid].public_bytes for uid in members),
            vector_length=length,
            sketch_seeds=seeds,
        )
        announcement = encode_announcement(view)
        received = {uid: bus.deliver(announcement, DOWNLOAD) for uid in members}
        down = sum(len(blob) for blob in received.values())
        up = 0

        # Dropouts happen before submission; at least one member survives.
        online = [uid for uid in members if rng.random() >= config.dropout_rate]
        if not online:
            online = [rng.choice(members)]

        # Each member keeps the view it decoded, for a recovery request.
        member_views: dict[int, GroupView] = {}
        ciphertexts: dict[int, np.ndarray] = {}
        for uid in online:
            member_views[uid], upload = member_submit(
                keys[uid], uid, user_vectors[uid], params, received[uid]
            )
            blob = bus.deliver(upload, UPLOAD)
            up += len(blob)
            ciphertexts[uid] = _upload_entries(blob, uid, round_id, "ciphertext")

        result = aggregate(ciphertexts, view)
        recovery = bool(result.missing)
        if recovery:
            request = encode_recovery_request(round_id, online)
            shares: dict[int, np.ndarray] = {}
            for uid in online:
                delivered = bus.deliver(request, DOWNLOAD)
                down += len(delivered)
                blob = bus.deliver(
                    member_recover(keys[uid], uid, member_views[uid], delivered), UPLOAD
                )
                up += len(blob)
                shares[uid] = _upload_entries(blob, uid, round_id, "recovery_share")
            values = recover_aggregate(ciphertexts, shares, view)
        else:
            values = result.values

        # Count-min sketches are linear mod 2**32: the sketch of the online
        # plaintext sum is the sum of the online members' sketches.
        oracle = np.zeros(plain_len, dtype=np.int64)
        for uid in online:
            oracle += user_vectors[uid]
        if params is not None:
            oracle = cms.encode_vector(oracle, params, seeds)
        verified = bool(np.array_equal(values, oracle.astype(np.uint32)))
        group_reports.append(
            GroupReport(
                group_index=g_index,
                n_members=len(members),
                n_online=len(online),
                payload_bytes_per_member=4 * length,
                upload_bytes=up,
                download_bytes=down,
                recovery_invoked=recovery,
                verified=verified,
            )
        )
        if not verified:
            raise OracleMismatch(
                f"round {round_id} group {g_index}: aggregate != plaintext sum"
            )
        total += values
        online_all.extend(online)

    if params is not None:
        values_plain = cms.estimate_vector(total, params, seeds)
    else:
        values_plain = total.astype(np.int64)

    report = RoundReport(
        round_id=round_id,
        mode=config.mode,
        n_users=config.n_users,
        vector_length=length,
        skipped=False,
        groups=tuple(group_reports),
        duration_s=time.perf_counter() - t0,
    )
    return RoundOutcome(
        values=values_plain,
        transported=total,
        online_users=tuple(sorted(online_all)),
        report=report,
        sketch_seeds=seeds,
    )
