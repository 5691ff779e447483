"""Dropout-tolerant additive-masking aggregation of 32-bit count vectors."""

from .groups import GroupAssignmentError, assign_groups
from .keys import KeyPair, keygen, shared_point
from .masking import (
    MASK_MODULUS,
    AggregateResult,
    GroupView,
    ProtocolError,
    aggregate,
    blinding_factors,
    encrypt,
    mask_stream,
    recover_aggregate,
    recovery_share,
)
from .wire import (
    VectorMessage,
    decode_announcement,
    decode_recovery_request,
    decode_vector_message,
    encode_announcement,
    encode_recovery_request,
    encode_vector_message,
    frame,
    unframe,
)

__all__ = [
    "MASK_MODULUS",
    "AggregateResult",
    "GroupAssignmentError",
    "GroupView",
    "KeyPair",
    "ProtocolError",
    "VectorMessage",
    "aggregate",
    "assign_groups",
    "blinding_factors",
    "decode_announcement",
    "decode_recovery_request",
    "decode_vector_message",
    "encode_announcement",
    "encode_recovery_request",
    "encode_vector_message",
    "encrypt",
    "frame",
    "keygen",
    "mask_stream",
    "recover_aggregate",
    "recovery_share",
    "shared_point",
    "unframe",
]
