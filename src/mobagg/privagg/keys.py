"""Diffie-Hellman key material for the pairwise masking scheme.

Keys live on Curve25519: private keys are 32-byte scalars, public keys the
canonical 32-byte point encoding, and the shared point for a pair of users
is the X25519 exchange output, which both sides derive identically.

A pair's point depends only on the two long-term keys, so a member
exchanges once per keypair, hashes the point into the pair's 32-byte mask
key, and derives every round's mask from (key, round id), as in Kursawe,
Danezis and Kohlweiss, "Privacy-Friendly Aggregation for the Smart-Grid"
(PETS 2011). Each ``KeyPair`` keeps those pair keys in its own table, keyed
by the peer's announced public key; ``masking`` fills it on first use. The
table holds shared secrets and is as sensitive as the private key. It grows
by one key per distinct peer key the member is announced. The groups of a
simulated round follow the cohort's key set, so under the honest-but-curious
model the table holds at most the member's group peers.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

KEY_BYTES = 32


class KeyError_(ValueError):
    """Raised for malformed key material."""


@dataclass(frozen=True)
class KeyPair:
    """A user's DH keypair; both halves are raw 32-byte encodings.

    Built from the private half alone: the key is parsed once, here, the
    public half is derived from it, and every exchange reuses the parsed key.
    ``repr`` shows only the public half. ``_pair_keys`` maps a peer's public
    key bytes to the pair's mask key; it is neither shown by ``repr`` nor part
    of equality and hashing.
    """

    private_bytes: bytes = field(repr=False)
    public_bytes: bytes = field(init=False)
    _private_key: X25519PrivateKey = field(init=False, repr=False, compare=False)
    _pair_keys: dict[bytes, bytes] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if len(self.private_bytes) != KEY_BYTES:
            raise KeyError_("private key must be a 32-byte raw encoding")
        sk = X25519PrivateKey.from_private_bytes(self.private_bytes)
        object.__setattr__(self, "_private_key", sk)
        object.__setattr__(self, "public_bytes", sk.public_key().public_bytes_raw())


def keygen(rng: random.Random | int | None = None) -> KeyPair:
    """Generate a keypair, deterministically when ``rng`` is seeded.

    ``rng`` may be a ``random.Random``, an int seed, or None for OS entropy.
    """
    if rng is None:
        priv = secrets.token_bytes(KEY_BYTES)
    else:
        if isinstance(rng, int):
            rng = random.Random(rng)
        priv = rng.randbytes(KEY_BYTES)
    return KeyPair(priv)


def shared_point(own: KeyPair, peer_public: bytes) -> bytes:
    """Canonical encoding of the DH shared point with ``peer_public``."""
    if len(peer_public) != KEY_BYTES:
        raise KeyError_("peer public key must be 32 bytes")
    return own._private_key.exchange(X25519PublicKey.from_public_bytes(peer_public))
