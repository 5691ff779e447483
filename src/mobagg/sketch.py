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


def _row_hash(a: int, b: int, k_hi: np.ndarray, k_lo: np.ndarray) -> np.ndarray:
    """(a*k + b) mod (2**61 - 1), exactly, for k = k_hi*2**32 + k_lo < 2**63.

    Splits a and k into 32-bit halves (Cormode & Muthukrishnan 2005) so that
    every partial product fits in uint64, then folds with 2**61 = 1 (mod p):
    2**64 = 8, and mid*2**32 = (mid >> 29)*2**61 + (mid mod 2**29)*2**32.
    The five terms sum to below 2**64.
    """
    a_hi, a_lo = np.uint64(a >> 32), np.uint64(a & 0xFFFFFFFF)
    mid = a_hi * k_lo + a_lo * k_hi
    total = (
        _fold(a_lo * k_lo)
        + (mid >> np.uint64(29))
        + ((mid & _LOW29) << np.uint64(32))
        + ((a_hi * k_hi) << np.uint64(3))
        + np.uint64(b)
    )
    total = _fold(total)
    return np.where(total >= _P, total - _P, total)


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

    Row r holds ((a_r*key + b_r) mod p) mod width. The seeds must be
    ``params.depth`` pairs with 0 < a < p and 0 <= b < p, every key must
    lie in [0, input_size), and input_size may not pass 2**63, the key range
    of ``_row_hash``; anything else raises SketchParamsError.
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
    k_hi, k_lo = k >> np.uint64(32), k & _LOW32
    table = np.empty((params.depth, k.size), dtype=np.intp)
    for row, (a, b) in enumerate(seeds):
        table[row] = _row_hash(int(a), int(b), k_hi, k_lo) % np.uint64(params.width)
    return table


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
    amounts = (arr[keys].astype(np.int64) & 0xFFFFFFFF).astype(np.uint32)
    grid = np.zeros((params.depth, params.width), dtype=np.uint32)
    rows = np.arange(params.depth)[:, None]
    np.add.at(grid, (rows, column_table(params, seeds, keys)), amounts)
    return grid.reshape(-1)


def estimate_vector(
    flat: Sequence[int] | np.ndarray,
    params: SketchParams,
    seeds: Sequence[Seed],
) -> np.ndarray:
    """Every key's estimate from a flat grid, as int64: the minimum of its counters."""
    grid = np.asarray(flat, dtype=np.uint32)
    if grid.size != params.table_size:
        raise SketchParamsError(
            f"flat counter length {grid.size} != {params.table_size}"
        )
    cols = column_table(params, seeds, np.arange(params.input_size))
    rows = np.arange(params.depth)[:, None]
    return grid.reshape(params.depth, params.width)[rows, cols].min(axis=0).astype(np.int64)
