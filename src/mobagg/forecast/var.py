"""Vector autoregression fitted equation-by-equation with least squares.

    y_t = c + A_1 y_{t-1} + ... + A_p y_{t-p} + e_t

where y_t stacks one target series with its correlated helpers. Each row of
(c, A_1..A_p) solves an independent OLS problem over the same lagged design
matrix, which is what makes per-equation fitting equivalent to the joint fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CollinearInputs(ValueError):
    """The lagged design matrix is rank-deficient (collinear inputs)."""


@dataclass(frozen=True)
class VarModel:
    k: int
    p: int
    const: np.ndarray        # (k,)
    coef: np.ndarray         # (p, k, k); coef[i][m, j] = effect of series j at lag i+1 on series m


def lagged_design(data: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Response rows y_t and regressors [1, y_{t-1}, ..., y_{t-p}] for t >= p."""
    n, k = data.shape
    rows = n - p
    X = np.empty((rows, 1 + k * p))
    X[:, 0] = 1.0
    for i in range(1, p + 1):
        X[:, 1 + (i - 1) * k : 1 + i * k] = data[p - i : n - i]
    return data[p:], X


def fit_var(data: np.ndarray, p: int) -> VarModel:
    """Fit VAR(p) over the ``(n, k)`` matrix of two or more aligned series."""
    if p < 1:
        raise ValueError("VAR order must be >= 1")
    data = np.asarray(data, dtype=np.float64)
    n, k = data.shape
    if k < 2:
        raise ValueError("VAR needs at least two series; fit an ARMA model for one")
    if not np.isfinite(data).all():
        raise ValueError("series must be finite")
    need = 10 * (1 + k * p)
    if n < need:
        raise ValueError(f"VAR({p}) over {k} series needs >= {need} observations, got {n}")

    resp, X = lagged_design(data, p)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise CollinearInputs("collinear inputs")
    B, *_ = np.linalg.lstsq(X, resp, rcond=None)

    coef = np.empty((p, k, k))
    for i in range(p):
        # Block rows for lag i+1, transposed so coef[i][m, j] multiplies
        # series j's value at lag i+1 in equation m.
        coef[i] = B[1 + i * k : 1 + (i + 1) * k].T
    return VarModel(k=k, p=p, const=B[0].copy(), coef=coef)


def forecast_var(model: VarModel, data: np.ndarray) -> np.ndarray:
    """One-step conditional means of rows ``p`` onward, each from the ``p`` rows before it.

    With the fit frozen and each true row fed back, the forecast of y_t is
    y_t - e_t, e_t the model's innovation, so one call forecasts a whole day.
    """
    h = np.asarray(data, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != model.k:
        raise ValueError(f"data must be (*, {model.k}), got {h.shape}")
    n = h.shape[0]
    if n <= model.p:
        raise ValueError(f"need more than {model.p} rows, got {n}")
    means = model.const + h[model.p - 1 : n - 1] @ model.coef[0].T
    for i in range(2, model.p + 1):
        means += h[model.p - i : n - i] @ model.coef[i - 1].T
    return means
