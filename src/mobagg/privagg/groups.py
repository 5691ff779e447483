"""Random assignment of a user cohort into aggregation groups.

The caller's ``rng`` alone decides the partition. The simulated rounds seed
it from the cohort's key set, so a partition lasts as long as the keys do:
each member then exchanges with each group peer once per key set.
"""

from __future__ import annotations

import random
from typing import Sequence


class GroupAssignmentError(ValueError):
    pass


def assign_groups(
    user_ids: Sequence[int],
    group_size: int,
    threshold: int,
    rng: random.Random,
) -> list[tuple[int, ...]]:
    """Partition ``user_ids`` into random groups of roughly ``group_size``.

    Full groups take exactly ``group_size`` members; the final group absorbs
    the remainder, so its size lands in [2, 2*group_size - 1] and no group is
    ever a singleton. A cohort below ``threshold`` yields no groups at all
    (the round is skipped). Member ids are sorted ascending inside each group;
    that order defines each member's position in the masking sign rule.
    """
    if group_size < 2:
        raise GroupAssignmentError(f"group_size must be >= 2, got {group_size}")
    if threshold < 2:
        raise GroupAssignmentError(f"threshold must be >= 2, got {threshold}")
    ids = list(user_ids)
    if len(set(ids)) != len(ids):
        raise GroupAssignmentError("duplicate user ids")
    if len(ids) < threshold:
        return []

    rng.shuffle(ids)
    n = len(ids)
    n_full = n // group_size
    if n_full <= 1:
        # Everything fits in one group (possibly oversized by the remainder).
        return [tuple(sorted(ids))]
    groups = [
        ids[k * group_size : (k + 1) * group_size] for k in range(n_full - 1)
    ]
    groups.append(ids[(n_full - 1) * group_size :])
    return [tuple(sorted(g)) for g in groups]
