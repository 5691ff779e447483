"""Expected results, recomputed from the inputs the benchmark generated.

These checks share no code with the package under test: the count-min
oracle re-derives column hashes from the row seeds the round announced, and
the report checks read the CSV files back with the standard library. Every
function returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

HASH_PRIME = (1 << 61) - 1  # the row-hash modulus of the count-min construction
WORD = 1 << 32


def sketch_shape(keys: int, epsilon: float, delta: float) -> tuple[int, int]:
    """(depth, width) of a count-min grid: ceil(ln(keys/delta)) x ceil(e/epsilon)."""
    return max(1, math.ceil(math.log(keys / delta))), max(1, math.ceil(math.e / epsilon))


def count_min(vector: np.ndarray, seeds, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Counter grid of ``vector`` and the estimate of every key from it."""
    cols = np.array(
        [[(a * k + b) % HASH_PRIME % width for k in range(vector.size)] for a, b in seeds],
        dtype=np.intp,
    )
    grid = np.zeros((len(seeds), width), dtype=np.uint64)
    for row in range(len(seeds)):
        np.add.at(grid[row], cols[row], vector.astype(np.uint64))
    grid %= WORD
    estimates = grid[np.arange(len(seeds))[:, None], cols].min(axis=0)
    return grid.astype(np.uint32), estimates.astype(np.int64)


def check_sketch_round(vectors: np.ndarray, outcome, epsilon: float, delta: float) -> list[str]:
    """The round must return the merged plaintext sketches of its online users."""
    problems = []
    online = list(outcome.online_users)
    n_users, keys = vectors.shape
    if not online or not set(online) <= set(range(n_users)):
        return [f"online users {online[:5]}... are not a non-empty subset of the cohort"]
    depth, width = sketch_shape(keys, epsilon, delta)
    seeds = outcome.sketch_seeds or ()
    if len(seeds) != depth:
        return [f"round announced {len(seeds)} hash rows, expected {depth}"]
    grid, estimates = count_min(vectors[online].sum(axis=0), seeds, width)
    if not np.array_equal(outcome.transported, grid.reshape(-1)):
        problems.append("aggregate sketch differs from the merged plaintext sketches")
    if not np.array_equal(outcome.values, estimates):
        problems.append("per-key estimates differ from the merged plaintext sketch")
    expected_online = sum(g.n_online for g in outcome.report.groups)
    if expected_online != len(online):
        problems.append(f"report counts {expected_online} online users, outcome lists {len(online)}")
    return problems


def check_collect(recovered: np.ndarray, targets: np.ndarray, reports) -> list[int]:
    """Epoch offsets whose recovered counts or round report are wrong."""
    bad = set(np.flatnonzero((recovered != targets).any(axis=0)).tolist())
    for offset, report in enumerate(reports):
        dropped = any(g.n_online != g.n_members for g in report.groups)
        if report.skipped or dropped or not report.verified:
            bad.add(offset)
    return sorted(bad)


def _rows(path: Path, header: list[str]) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != header:
            raise ValueError(f"{path.name}: header {reader.fieldnames}, expected {header}")
        return list(reader)


def check_reports(paths: dict[str, Path], result, n_rois: int, epochs_per_day: int) -> list[str]:
    """All three report files exist, parse and agree with the returned result."""
    try:
        forecast = _rows(paths["forecast"],
                         ["roi_id", "epoch", "actual", "predicted", "abs_err", "pct_err"])
        anomalies = _rows(paths["anomalies"],
                          ["roi_id", "epoch", "direction", "side", "residual",
                           "lambda1", "lambda2", "magnitude", "rank"])
        enhancement = _rows(paths["enhancement"],
                            ["target_roi", "helpers", "test_day", "var_order",
                             "baseline_mae", "enhanced_mae", "improvement", "fell_back"])
    except (OSError, KeyError, ValueError) as exc:
        return [f"report files unreadable: {exc}"]
    problems = []
    if len(forecast) != n_rois * epochs_per_day:
        problems.append(f"forecast.csv has {len(forecast)} rows, expected {n_rois * epochs_per_day}")
    for roi in range(n_rois):
        errs = [float(r["abs_err"]) for r in forecast if int(r["roi_id"]) == roi]
        want = result.forecasts[roi].errors.mean
        if not errs or not math.isclose(sum(errs) / len(errs), want, rel_tol=1e-6, abs_tol=1e-6):
            problems.append(f"forecast.csv MAE for roi {roi} disagrees with the result")
    if [int(r["rank"]) for r in anomalies] != list(range(1, len(result.anomalies) + 1)):
        problems.append("anomalies.csv ranks do not match the ranked events")
    if result.enhancement is None:
        problems.append("the enhancement path did not run")
    elif len(enhancement) != 1 or int(enhancement[0]["target_roi"]) != result.enhancement.roi_id:
        problems.append("enhancement.csv does not hold the one enhanced forecast")
    return problems
