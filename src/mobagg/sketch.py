"""Count-Min sketch with unsigned 32-bit counters.

The sketch compresses a sparse count vector of known index space into a
``depth x width`` counter grid.  Estimates are upper bounds on the true
count (never below it, absent counter wraparound), and two sketches built
with identical parameters and seeds merge by plain counter addition, which
makes the flattened grid safe to ship through the additive-masking
aggregation layer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

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


class CountMinSketch:
    """A Count-Min grid bound to fixed parameters and row seeds.

    Counters are unsigned 32-bit and wrap modulo 2**32 on update and merge.
    A sketch instance is single-writer; concurrent readers are safe once
    updates stop.
    """

    __slots__ = ("params", "seeds", "counters")

    def __init__(
        self,
        params: SketchParams,
        seeds: Sequence[Seed],
        counters: np.ndarray | None = None,
    ) -> None:
        if len(seeds) != params.depth:
            raise SketchParamsError(
                f"need {params.depth} seed pairs, got {len(seeds)}"
            )
        for a, b in seeds:
            if not (0 < a < HASH_PRIME):
                raise SketchParamsError(f"row seed a={a} outside [1, p)")
            if not (0 <= b < HASH_PRIME):
                raise SketchParamsError(f"row seed b={b} outside [0, p)")
        self.params = params
        self.seeds = tuple((int(a), int(b)) for a, b in seeds)
        if counters is None:
            counters = np.zeros((params.depth, params.width), dtype=np.uint32)
        else:
            counters = np.asarray(counters, dtype=np.uint32)
            if counters.shape != (params.depth, params.width):
                raise SketchParamsError(
                    f"counter shape {counters.shape} != "
                    f"({params.depth}, {params.width})"
                )
            counters = counters.copy()
        self.counters = counters

    # --- hashing ---

    def columns(self, key: int) -> tuple[int, ...]:
        """Column index per row for ``key``: ((a*key + b) mod p) mod width."""
        self._check_key(key)
        w = self.params.width
        return tuple((a * key + b) % HASH_PRIME % w for a, b in self.seeds)

    def column_table(self, keys: np.ndarray) -> np.ndarray:
        """Columns of many keys at once, shape (depth, len(keys)).

        Row r of the result holds ``columns(key)[r]`` for every key.
        """
        keys = np.asarray(keys, dtype=np.int64)
        outside = (keys < 0) | (keys >= self.params.input_size)
        if outside.any():
            self._check_key(int(keys[outside][0]))
        k = keys.astype(np.uint64)
        k_hi, k_lo = k >> np.uint64(32), k & _LOW32
        table = np.empty((self.params.depth, k.size), dtype=np.intp)
        for row, (a, b) in enumerate(self.seeds):
            table[row] = _row_hash(a, b, k_hi, k_lo) % np.uint64(self.params.width)
        return table

    def _check_key(self, key: int) -> None:
        if not (0 <= key < self.params.input_size):
            raise SketchParamsError(
                f"key {key} outside [0, {self.params.input_size})"
            )

    # --- updates and queries ---

    def update(self, key: int, amount: int = 1) -> None:
        """Add ``amount`` (mod 2**32) to one counter per row."""
        amt = np.uint32(int(amount) & 0xFFFFFFFF)
        cols = np.fromiter(self.columns(key), dtype=np.intp, count=self.params.depth)
        # array-indexed add wraps mod 2**32 without scalar-overflow noise
        self.counters[np.arange(self.params.depth), cols] += amt

    def estimate(self, key: int) -> int:
        """Point estimate: the minimum counter across rows (>= true count)."""
        return int(min(self.counters[row, col] for row, col in enumerate(self.columns(key))))

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Counter-wise sum; requires identical parameters and seeds."""
        if self.params != other.params or self.seeds != other.seeds:
            raise SketchParamsError("cannot merge sketches with mismatched parameters or seeds")
        return CountMinSketch(self.params, self.seeds, self.counters + other.counters)

    # --- transport ---

    def flatten(self) -> np.ndarray:
        """Row-major counter vector, suitable as a masked-aggregation input."""
        return self.counters.reshape(-1).copy()

    @classmethod
    def from_flat(
        cls,
        params: SketchParams,
        seeds: Sequence[Seed],
        flat: Sequence[int] | np.ndarray,
    ) -> "CountMinSketch":
        arr = np.asarray(flat, dtype=np.uint32)
        if arr.size != params.table_size:
            raise SketchParamsError(
                f"flat counter length {arr.size} != {params.table_size}"
            )
        return cls(params, seeds, arr.reshape(params.depth, params.width))


def encode_vector(
    values: Sequence[int] | np.ndarray,
    params: SketchParams,
    seeds: Sequence[Seed],
) -> CountMinSketch:
    """Sketch a dense count vector; index i is updated by values[i].

    Equal to ``update(i, values[i])`` for every nonzero i: amounts are taken
    mod 2**32 and counters wrap.
    """
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size != params.input_size:
        raise SketchParamsError(
            f"vector length {arr.size} != input_size {params.input_size}"
        )
    sk = CountMinSketch(params, seeds)
    keys = np.flatnonzero(arr)
    amounts = (arr[keys].astype(np.int64) & 0xFFFFFFFF).astype(np.uint32)
    rows = np.arange(params.depth)[:, None]
    np.add.at(sk.counters, (rows, sk.column_table(keys)), amounts)
    return sk


def estimate_vector(sketch: CountMinSketch, keys: Iterable[int] | None = None) -> np.ndarray:
    """Estimates for every key (or the given ones), as int64."""
    keys = np.arange(sketch.params.input_size) if keys is None else np.fromiter(keys, np.int64)
    rows = np.arange(sketch.params.depth)[:, None]
    return sketch.counters[rows, sketch.column_table(keys)].min(axis=0).astype(np.int64)
