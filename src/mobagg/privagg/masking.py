"""Pairwise additive masking over 32-bit counter vectors.

Every pair of group members shares a DH point. On the pair's first exchange
the member hashes that point into a 32-byte ChaCha20 key (SHA-256 under a
fixed domain tag), and each round one ChaCha20 keystream call (RFC 8439) under
that key, with the round id as nonce, expands it into the pair's stream of
32-bit mask words (the PRG expansion of Bonawitz et al., "Practical Secure
Aggregation for Privacy-Preserving Machine Learning", CCS 2017). A member
derives each pair key once per keypair and every round's mask from (key,
round id), as in the long-term pair keys of Kursawe, Danezis and Kohlweiss,
"Privacy-Friendly Aggregation for the Smart-Grid" (PETS 2011): the keys
live in the ``KeyPair``'s own table, keyed by the peer's announced public
key, so a re-keyed peer gets a fresh exchange. That table holds shared
secrets, as sensitive as the private key, and grows by one key per
distinct peer key the member is announced. Groups last as long as the
cohort's key set, so under the threat model below the table holds at most
the member's group peers. Each member adds the
mask stream toward higher-positioned members and subtracts it toward
lower-positioned ones, so the streams cancel exactly in the group sum:

    sum_i k_i  =  0            (mod 2**32)
    sum_i (S_i + k_i)  =  sum_i S_i   (mod 2**32)

When some members never submit, each surviving member reveals the partial
mask sum it shared with the missing ones (its recovery share), and the
aggregator subtracts those to restore exact cancellation over the survivors.

All vector arithmetic is unsigned 32-bit with wraparound; masks and
ciphertexts are uniform-looking words, and a single ciphertext reveals
nothing about its plaintext without the matching mask stream.

Threat model: the aggregator is honest but curious. It follows the protocol
and, in particular, reports the true online set when it asks for recovery
shares; under that assumption it learns the sum over the online members and
nothing else. The group partition is a public function of the cohort's key
set (``harness.simulate``), so the aggregator sees sums over the same groups
every round of a key set, never sums over reshuffled partitions that it
could difference against each other. An honest-but-curious aggregator
chooses the partition anyway; one that packs a group with members it
controls is a malicious aggregator, outside this model. In a simulated round
members decode every frame themselves (``harness.simulate.member_submit``
and ``member_recover``): the group view, the sketch seeds and the online
list they act on come from the announcement and recovery-request frames
they received, and a frame that does not fit raises ProtocolError. That does not close the false-offline leak: an aggregator
that declares a member offline after receiving its ciphertext collects that
member's whole mask from the others' recovery shares and so learns its
plaintext. Closing that gap needs double masking (Bonawitz et al. 2017),
which this module does not implement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Collection, Mapping, Sequence, Tuple

import numpy as np
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .keys import KEY_BYTES, KeyPair, shared_point

MASK_MODULUS = 1 << 32
# Longest vector a round may announce: 2**24 words (64 MiB per vector), which
# admits the 582**2 = 338,724-word station OD vectors and stops one hostile
# announcement from making every member expand a multi-gigabyte mask stream.
MAX_VECTOR_LENGTH = 1 << 24
# Domain tag of the pair-key hash: an X25519 output is not a uniform 32-byte
# string, so the ChaCha20 key is SHA-256 of this tag and the point, never the
# bare point.
_PAIR_KEY_TAG = b"mobagg privagg pair mask key v1\x00"
# Parsed once: mask_stream runs once per pair and round, often on short vectors.
_MASK_WORD = np.dtype("<u4")


class ProtocolError(ValueError):
    """Raised for malformed protocol inputs (membership, lengths, ranges)."""


@dataclass(frozen=True)
class GroupView:
    """Everything a member learns about its group from the round announcement.

    ``member_ids`` is ascending; a member's position in that tuple is the
    index used by the masking sign rule, looked up in ``_positions``, which is
    built once here and is neither shown by ``repr`` nor compared.
    ``sketch_seeds`` rides along so that sketch-compressed rounds agree on hash
    seeds without extra messages.
    """

    round_id: int
    member_ids: Tuple[int, ...]
    public_keys: Mapping[int, bytes]
    vector_length: int
    sketch_seeds: Tuple[Tuple[int, int], ...] | None = None
    _positions: Mapping[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0 <= self.round_id < 1 << 64):
            raise ProtocolError(f"round_id {self.round_id} outside [0, 2**64)")
        if not (1 <= self.vector_length <= MAX_VECTOR_LENGTH):
            raise ProtocolError(
                f"vector_length {self.vector_length} outside [1, {MAX_VECTOR_LENGTH}]"
            )
        ids = self.member_ids
        if not ids:
            raise ProtocolError("a group needs at least 1 member")
        if list(ids) != sorted(set(ids)):
            raise ProtocolError("member_ids must be strictly ascending")
        for uid in ids:
            if uid not in self.public_keys:
                raise ProtocolError(f"missing public key for member {uid}")
        for uid, key in self.public_keys.items():
            if len(key) != KEY_BYTES:
                raise ProtocolError(f"public key of user {uid} is not {KEY_BYTES} bytes")
        object.__setattr__(self, "_positions", {uid: i for i, uid in enumerate(ids)})

    def position_of(self, user_id: int) -> int:
        try:
            return self._positions[user_id]
        except KeyError:
            raise ProtocolError(f"user {user_id} is not a group member") from None


@dataclass(frozen=True)
class AggregateResult:
    """Summed ciphertexts plus which members never submitted."""

    values: np.ndarray
    missing: Tuple[int, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.missing


# --- mask stream derivation ---

def mask_stream(key: bytes, round_id: int, length: int) -> np.ndarray:
    """The 32-bit mask words one pair key derives for a round.

    The stream is the ChaCha20 keystream (RFC 8439) under the 32-byte
    ``key`` from block counter 1, with the 12-byte nonce round_id as 8-byte
    little-endian followed by 4 zero bytes, read as little-endian 32-bit words.
    It is computed as the ChaCha20-Poly1305 encryption of 4 * length zero
    bytes with the tag dropped: one call, and no cipher object kept per pair.
    The returned array is read-only.
    """
    if not (0 <= round_id < 1 << 64):
        raise ProtocolError(f"round_id {round_id} outside [0, 2**64)")
    if not (1 <= length <= MAX_VECTOR_LENGTH):
        raise ProtocolError(f"stream length {length} outside [1, {MAX_VECTOR_LENGTH}]")
    nonce = round_id.to_bytes(12, "little")
    sealed = ChaCha20Poly1305(key).encrypt(nonce, bytes(4 * length), None)
    return np.frombuffer(sealed, _MASK_WORD, length)


def _pair_key(own: KeyPair, peer_public: bytes) -> bytes:
    """The pair's mask key with ``peer_public``, derived once per keypair.

    The key is SHA-256 over a domain tag and the X25519 point. A failed
    exchange (a low-order peer key yields the all-zero point, which X25519
    refuses) raises ProtocolError and stores nothing.
    """
    key = own._pair_keys.get(peer_public)
    if key is None:
        try:
            point = shared_point(own, peer_public)
        except ValueError as exc:
            raise ProtocolError(f"unusable peer public key: {exc}") from exc
        key = hashlib.sha256(_PAIR_KEY_TAG + point).digest()
        own._pair_keys[peer_public] = key
    return key


def _signed_stream_sum(
    own: KeyPair,
    own_id: int,
    group: GroupView,
    peers: Sequence[int],
) -> np.ndarray:
    """Sum of pair streams toward ``peers``, signed by relative position."""
    pos = group.position_of(own_id)
    total = np.zeros(group.vector_length, dtype=np.uint32)
    for peer in peers:
        peer_pos = group.position_of(peer)
        if peer_pos == pos:
            raise ProtocolError("a member has no pair stream with itself")
        stream = mask_stream(
            _pair_key(own, group.public_keys[peer]),
            group.round_id,
            group.vector_length,
        )
        if pos < peer_pos:
            total += stream
        else:
            total -= stream
    return total


def blinding_factors(own: KeyPair, own_id: int, group: GroupView) -> np.ndarray:
    """The member's full mask vector k_i for this round (all peers)."""
    group.position_of(own_id)  # membership check
    if group.public_keys[own_id] != own.public_bytes:
        raise ProtocolError(f"keypair does not match announced key for user {own_id}")
    peers = [uid for uid in group.member_ids if uid != own_id]
    return _signed_stream_sum(own, own_id, group, peers)


def encrypt(values: Sequence[int] | np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Mask a plaintext count vector: (S + k) mod 2**32."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.shape != factors.shape:
        raise ProtocolError(
            f"plaintext shape {arr.shape} does not match factors {factors.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise ProtocolError("plaintext entries must be integers")
    as64 = arr.astype(np.int64, copy=False)
    if as64.min(initial=0) < 0 or as64.max(initial=0) >= MASK_MODULUS:
        raise ProtocolError("plaintext entries must lie in [0, 2**32)")
    return arr.astype(np.uint32) + factors


def aggregate(
    ciphertexts: Mapping[int, np.ndarray],
    group: GroupView,
) -> AggregateResult:
    """Sum submitted ciphertexts mod 2**32.

    With every member present the masks cancel and the result is the
    plaintext sum. Otherwise the result is still a masked partial and the
    ``missing`` field says whose recovery shares are needed.
    """
    total = np.zeros(group.vector_length, dtype=np.uint32)
    for uid, entries in ciphertexts.items():
        group.position_of(uid)  # membership check
        if entries.shape != (group.vector_length,):
            raise ProtocolError(
                f"ciphertext from {uid} has length {entries.shape}, "
                f"expected {group.vector_length}"
            )
        total += entries.astype(np.uint32, copy=False)
    missing = tuple(uid for uid in group.member_ids if uid not in ciphertexts)
    return AggregateResult(values=total, missing=missing)


def recovery_share(
    own: KeyPair,
    own_id: int,
    group: GroupView,
    online: Collection[int],
) -> np.ndarray:
    """The mask subtotal this member shared with the offline set.

    Only surviving members may respond, and the share covers offline peers
    exclusively, so nothing about online members' masks is revealed.
    """
    online_set = set(online)
    if own_id not in online_set:
        raise ProtocolError(f"user {own_id} is offline and cannot serve recovery")
    for uid in online_set:
        group.position_of(uid)
    offline = [uid for uid in group.member_ids if uid not in online_set]
    if not offline:
        return np.zeros(group.vector_length, dtype=np.uint32)
    return _signed_stream_sum(own, own_id, group, offline)


def recover_aggregate(
    ciphertexts: Mapping[int, np.ndarray],
    shares: Mapping[int, np.ndarray],
    group: GroupView,
) -> np.ndarray:
    """Exact online-subset sum: (sum of ciphertexts - sum of shares) mod 2**32."""
    if not ciphertexts:
        raise ProtocolError("recovery needs at least one online ciphertext")
    if set(ciphertexts) != set(shares):
        raise ProtocolError("recovery shares must cover exactly the online submitters")
    partial = aggregate(ciphertexts, group)
    correction = np.zeros(group.vector_length, dtype=np.uint32)
    for uid, entries in shares.items():
        if entries.shape != (group.vector_length,):
            raise ProtocolError(f"recovery share from {uid} has wrong length")
        correction += entries.astype(np.uint32, copy=False)
    return partial.values - correction
