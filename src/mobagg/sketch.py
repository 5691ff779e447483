"""Count-Min sketch as a flat vector of unsigned 32-bit counters.

The sketch compresses a sparse count vector of known index space into a
``depth x width`` counter grid, kept row-major as ``table_size`` uint32
words: the vector that members mask and the aggregator sums. Estimates are
upper bounds on the true count (never below it, absent counter wraparound).
Two grids built with identical parameters and seeds add word by word, mod
2**32, into the grid of the summed counts; no object is involved, so the
grid ships through the additive-masking aggregation layer as it is.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

# Modulus for the pairwise-independent row hashes. 2**61 - 1 is a Mersenne
# prime, so a*key + b reduces with shifts and masks in uint64 arithmetic.
HASH_PRIME = (1 << 61) - 1
_P = np.uint64(HASH_PRIME)
_LOW29 = np.uint64((1 << 29) - 1)
_LOW32 = np.uint64(0xFFFFFFFF)

Seed = Tuple[int, int]


def _fold(x: np.ndarray) -> np.ndarray:
    """x mod (2**61 - 1) up to one extra p: (x & p) + (x >> 61), as 2**61 = 1 mod p."""
    return (x & _P) + (x >> np.uint64(61))


def _row_hash(a: np.ndarray, b: np.ndarray, k_hi: np.ndarray, k_lo: np.ndarray) -> np.ndarray:
    """(a*k + b) mod (2**61 - 1), exactly, for k = k_hi*2**32 + k_lo < 2**63.

    ``a`` and ``b`` are uint64 arrays that broadcast against the uint64 key
    halves: a (depth, 1) seed column hashes every key in every row in one
    call. Splits a and k into 32-bit halves (Cormode & Muthukrishnan 2005) so
    that every partial product fits in uint64, then folds with 2**61 = 1
    (mod p): 2**64 = 8, and mid*2**32 = (mid >> 29)*2**61 + (mid mod 2**29)*2**32.
    The five terms sum to below 2**64. After the last fold the sum is below
    2*p; where it is below p, subtracting p wraps above it, so the minimum of
    the two is the residue.
    """
    a_hi, a_lo = a >> np.uint64(32), a & _LOW32
    mid = a_hi * k_lo + a_lo * k_hi
    total = (
        _fold(a_lo * k_lo)
        + (mid >> np.uint64(29))
        + ((mid & _LOW29) << np.uint64(32))
        + ((a_hi * k_hi) << np.uint64(3))
        + b
    )
    total = _fold(total)
    return np.minimum(total, total - _P)


class SketchParamsError(ValueError):
    """Raised for invalid sizing inputs or mismatched sketch parameters."""


@dataclass(frozen=True)
class SketchParams:
    """Sizing of a Count-Min grid for a given accuracy target.

    ``epsilon`` bounds the overestimate (relative to the L1 mass of the
    counted vector) and ``delta`` bounds the probability of exceeding that
    bound on any single query.
    """

    input_size: int
    epsilon: float
    delta: float
    depth: int
    width: int

    @property
    def table_size(self) -> int:
        return self.depth * self.width


def make_params(input_size: int, epsilon: float, delta: float) -> SketchParams:
    """Size a sketch: depth = ceil(ln(input_size / delta)), width = ceil(e / epsilon)."""
    if input_size < 1:
        raise SketchParamsError(f"input_size must be >= 1, got {input_size}")
    if not (0.0 < epsilon < 1.0):
        raise SketchParamsError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise SketchParamsError(f"delta must be in (0, 1), got {delta}")
    depth = max(1, math.ceil(math.log(input_size / delta)))
    width = max(1, math.ceil(math.e / epsilon))
    return SketchParams(
        input_size=input_size,
        epsilon=float(epsilon),
        delta=float(delta),
        depth=depth,
        width=width,
    )


def draw_seeds(depth: int, rng: random.Random) -> tuple[Seed, ...]:
    """Draw one (a, b) hash seed pair per row; a is never zero."""
    if depth < 1:
        raise SketchParamsError(f"depth must be >= 1, got {depth}")
    return tuple(
        (rng.randrange(1, HASH_PRIME), rng.randrange(0, HASH_PRIME))
        for _ in range(depth)
    )


def column_table(
    params: SketchParams,
    seeds: Sequence[Seed],
    keys: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Column of every key in every row, shape (depth, len(keys)).

    Row r holds ((a_r*key + b_r) mod p) mod width; one ``_row_hash`` call
    hashes all rows, with the seeds as a (depth, 1) uint64 column. The seeds
    must be ``params.depth`` pairs with 0 < a < p and 0 <= b < p, every key
    must lie in [0, input_size), and input_size may not pass 2**63, the key
    range of ``_row_hash``; anything else raises SketchParamsError.
    """
    if params.input_size > 1 << 63:
        raise SketchParamsError(f"input_size {params.input_size} > 2**63, too wide to hash")
    if len(seeds) != params.depth:
        raise SketchParamsError(f"need {params.depth} seed pairs, got {len(seeds)}")
    for a, b in seeds:
        if not (0 < a < HASH_PRIME):
            raise SketchParamsError(f"row seed a={a} outside [1, p)")
        if not (0 <= b < HASH_PRIME):
            raise SketchParamsError(f"row seed b={b} outside [0, p)")
    keys = np.asarray(keys, dtype=np.int64)
    outside = (keys < 0) | (keys >= params.input_size)
    if outside.any():
        raise SketchParamsError(
            f"key {int(keys[outside][0])} outside [0, {params.input_size})"
        )
    k = keys.astype(np.uint64)
    column = np.array(seeds, dtype=np.uint64)
    hashes = _row_hash(column[:, :1], column[:, 1:], k >> np.uint64(32), k & _LOW32)
    # h - (h // width) * width is h mod width; NumPy divides by a scalar
    # with a precomputed reciprocal, but its remainder divides each word.
    width = np.uint64(params.width)
    return (hashes - hashes // width * width).astype(np.intp)


def _flat_index(params: SketchParams, seeds: Sequence[Seed], keys: np.ndarray) -> np.ndarray:
    """Flat grid index row * width + column of every key in every row, (depth, len(keys))."""
    offsets = np.arange(0, params.table_size, params.width)[:, None]
    return column_table(params, seeds, keys) + offsets


def encode_keys(
    keys: np.ndarray, amounts: np.ndarray, params: SketchParams, seeds: Sequence[Seed]
) -> np.ndarray:
    """The flat grid in which keys[i] adds amounts[i] mod 2**32 to one counter per row.

    Only these keys are hashed, so the key space may be wider than any dense vector.
    """
    amounts = (np.asarray(amounts).astype(np.int64) & 0xFFFFFFFF).astype(np.uint32)
    grid = np.zeros(params.table_size, dtype=np.uint32)
    # One 1-D add.at with the amounts tiled to the index; NumPy 2.4's add.at
    # misreads broadcast amounts under a 2-D index.
    np.add.at(grid, _flat_index(params, seeds, keys).ravel(), np.tile(amounts, params.depth))
    return grid


def estimate_keys(
    flat: np.ndarray, keys: np.ndarray, params: SketchParams, seeds: Sequence[Seed]
) -> np.ndarray:
    """Each key's estimate from a flat grid, as int64: the minimum of its counters."""
    grid = np.asarray(flat, dtype=np.uint32)
    if grid.size != params.table_size:
        raise SketchParamsError(f"flat counter length {grid.size} != {params.table_size}")
    return grid[_flat_index(params, seeds, keys)].min(axis=0).astype(np.int64)


def encode_vector(
    values: Sequence[int] | np.ndarray,
    params: SketchParams,
    seeds: Sequence[Seed],
) -> np.ndarray:
    """The flat grid of a dense count vector: ``table_size`` uint32 words.

    Index i adds values[i] mod 2**32 to one counter per row; counters wrap.
    """
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size != params.input_size:
        raise SketchParamsError(
            f"vector length {arr.size} != input_size {params.input_size}"
        )
    keys = np.flatnonzero(arr)
    return encode_keys(keys, arr[keys], params, seeds)


def estimate_vector(
    flat: Sequence[int] | np.ndarray,
    params: SketchParams,
    seeds: Sequence[Seed],
) -> np.ndarray:
    """Every key's estimate from a flat grid, as int64: the minimum of its counters."""
    return estimate_keys(flat, np.arange(params.input_size), params, seeds)
