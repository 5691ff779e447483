"""Scalar ARMA(p, q) estimation by conditional sum of squares.

The model is

    y_t = c + sum_i phi_i * y_{t-i} + eps_t + sum_j theta_j * eps_{t-j}

conditioned on the first p observations with pre-sample innovations fixed at
zero. Pure AR fits (q = 0) reduce to ordinary least squares on lagged values;
mixed models start from that AR solution and refine all coefficients with a
derivative-free simplex search on the innovation sum of squares.

The search is confined to stationary, invertible coefficients. A candidate is
feasible when every reflection coefficient (partial autocorrelation) of the
AR polynomial, and of the negated MA one, lies strictly inside (-1, 1); the
step-down recursion yields them without root finding, and the criterion is
equivalent to all lag-polynomial roots lying outside the unit circle.

The MA recursion runs through ``scipy.signal._sigtools._linear_filter``, the
C kernel that ``scipy.signal.lfilter`` calls once its array-API wrapper has
normalized the arguments (for a denominator longer than one). On the short
windows fitted here that wrapper costs several times the filter itself, and
the simplex search evaluates the objective thousands of times per fit. The
kernel receives the same float64 arrays ``lfilter`` would hand it, so every
float operation, and with it every fit, is unchanged; a test compares it with
``lfilter`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.optimize import minimize
from scipy.signal._sigtools import _linear_filter

_NUMERATOR = np.ones(1)
_NUMERATOR.flags.writeable = False


class FitError(RuntimeError):
    """Optimizer failed; carries the best model found so far when available."""

    def __init__(self, message: str, model: "ArmaModel | None" = None) -> None:
        super().__init__(message)
        self.model = model


@dataclass(frozen=True)
class ArmaModel:
    """A fitted ARMA model over one training window.

    ``residuals`` are the innovations aligned to the training series; the
    first p entries are zero by the conditioning convention. ``aic`` uses the
    full training length n: n * ln(sigma2) + 2 * (p + q + 1). ``nfev``
    counts the simplex search's objective evaluations; OLS fits leave it 0.
    """

    p: int
    q: int
    const: float
    ar: np.ndarray
    ma: np.ndarray
    sigma2: float
    residuals: np.ndarray
    loglik: float
    aic: float
    n_obs: int
    nfev: int = 0


def _validate_series(y: np.ndarray, p: int, q: int) -> None:
    if p < 0 or q < 0:
        raise ValueError("orders must be non-negative")
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if not np.isfinite(y).all():
        raise ValueError("series must be finite")
    need = 10 * (p + q + 1)
    if y.size < need:
        raise ValueError(
            f"ARMA({p},{q}) needs at least {need} observations, got {y.size}"
        )


def _lag_views(y: np.ndarray, p: int) -> list[np.ndarray]:
    """Views y[p-i : n-i] for i = 1..p: lag i of y, aligned to y[p:]."""
    n = y.size
    return [y[p - i : n - i] for i in range(1, p + 1)]


def _innovations_tail(
    resp: np.ndarray,
    lags: Sequence[np.ndarray],
    const: float,
    ar: Sequence[float],
    den: np.ndarray,
) -> np.ndarray:
    """Innovations eps_p .. eps_{n-1} for given coefficients.

    ``resp`` is y[p:], ``lags`` comes from ``_lag_views`` and ``den`` is the
    MA denominator [1, theta_1, ..., theta_q].
    """
    r = resp - const
    for phi, lag in zip(ar, lags):
        r -= phi * lag
    if den.size > 1:
        # eps_t = r_t - sum_j theta_j eps_{t-j} is an IIR filter with zero
        # initial state, which is exactly the pre-sample-zero convention.
        # This is lfilter([1.0], den, r) without its wrapper.
        r = _linear_filter(_NUMERATOR, den, r, -1)
    return r


def css_innovations(
    y: np.ndarray,
    const: float,
    ar: np.ndarray,
    ma: np.ndarray,
) -> np.ndarray:
    """Innovations for given coefficients; first len(ar) entries are zero."""
    p = ar.size
    eps = np.zeros(y.size)
    eps[p:] = _innovations_tail(
        y[p:], _lag_views(y, p), const, ar, np.concatenate(([1.0], ma))
    )
    return eps


def _reflections_inside(phi: list[float]) -> bool:
    """True when 1 - phi_1 z - ... - phi_k z^k has every root outside |z| = 1.

    Runs the Durbin-Levinson recursion backwards (the step-down recursion):
    at order k the reflection coefficient is a = phi_k, and the order-(k-1)
    coefficients are (phi_j + a * phi_{k-j}) / (1 - a^2). The roots lie
    outside the unit circle exactly when every reflection coefficient lies in
    (-1, 1) (Barndorff-Nielsen & Schou 1973; Monahan 1984). A NaN fails.
    """
    while phi:
        a = phi[-1]
        if not abs(a) < 1.0:
            return False
        scale = 1.0 - a * a
        phi = [(phi[j] + a * phi[-2 - j]) / scale for j in range(len(phi) - 1)]
    return True


def _in_identifiable_region(ar: Sequence[float], ma: Sequence[float]) -> bool:
    """True when the AR polynomial is stationary and the MA one invertible.

    Both conditions require the lag-polynomial roots to lie strictly outside
    the unit circle, which is tested without root finding: every reflection
    coefficient of ``ar``, and of ``-ma``, must lie strictly inside (-1, 1).
    Without this restriction the simplex search can settle on coefficient
    vectors whose in-sample innovations look small but whose forecasts
    explode.
    """
    return _reflections_inside(list(ar)) and _reflections_inside([-t for t in ma])


def _ols_ar(y: np.ndarray, p: int) -> tuple[float, np.ndarray]:
    """Least-squares AR(p) fit: (const, ar coefficients)."""
    X = np.empty((y.size - p, p + 1))
    X[:, 0] = 1.0
    for i, lag in enumerate(_lag_views(y, p), 1):
        X[:, i] = lag
    coef, *_ = np.linalg.lstsq(X, y[p:], rcond=None)
    return float(coef[0]), coef[1:].copy()


def _finish(y: np.ndarray, p: int, q: int, const: float, ar: np.ndarray,
            ma: np.ndarray, nfev: int = 0) -> ArmaModel:
    n = y.size
    eps = css_innovations(y, const, ar, ma)
    n_eff = n - p
    sse = float(eps[p:] @ eps[p:])
    sigma2 = sse / n_eff
    k = p + q + 1
    if sigma2 > 0:
        loglik = -0.5 * n_eff * (math.log(2.0 * math.pi * sigma2) + 1.0)
        aic = n * math.log(sigma2) + 2 * k
    else:
        loglik = float("inf")
        aic = float("-inf")
    return ArmaModel(
        p=p,
        q=q,
        const=const,
        ar=ar.copy(),
        ma=ma.copy(),
        sigma2=sigma2,
        residuals=eps,
        loglik=loglik,
        aic=aic,
        n_obs=n,
        nfev=nfev,
    )


def fit_arma(series: Sequence[float] | np.ndarray, p: int, q: int) -> ArmaModel:
    """Fit ARMA(p, q) by conditional sum of squares."""
    y = np.asarray(getattr(series, "values", series), dtype=np.float64)
    _validate_series(y, p, q)

    const0, ar0 = _ols_ar(y, p)
    if q == 0:
        return _finish(y, p, q, const0, ar0, np.empty(0))

    # Shrink an (unusual) explosive OLS start back inside the feasible set.
    while not _in_identifiable_region(ar0.tolist(), ()):
        ar0 = 0.9 * ar0
    start = np.concatenate(([const0], ar0, np.zeros(q)))

    resp, lags = y[p:], _lag_views(y, p)
    den = np.ones(q + 1)

    def objective(params: np.ndarray) -> float:
        # Only per-evaluation work: one tolist() feeds the feasibility test
        # and the lag loop, and den is refilled in place. The float operations
        # and their order are those of css_innovations, so _finish reproduces
        # the searched SSE exactly.
        v = params.tolist()
        ar, ma = v[1 : 1 + p], v[1 + p :]
        if not _in_identifiable_region(ar, ma):
            return 1e300
        den[1:] = ma
        r = _innovations_tail(resp, lags, v[0], ar, den)
        sse = float(r @ r)
        return sse if math.isfinite(sse) else 1e300

    result = minimize(
        objective,
        start,
        method="Nelder-Mead",
        options={
            "xatol": 1e-6,
            "fatol": 1e-10,
            "maxiter": 800 * start.size,
            "maxfev": 800 * start.size,
        },
    )
    model = _finish(
        y, p, q,
        float(result.x[0]),
        np.asarray(result.x[1 : 1 + p]),
        np.asarray(result.x[1 + p :]),
        nfev=int(result.nfev),
    )
    if not result.success:
        raise FitError(f"simplex search did not converge: {result.message}", model)
    return model


def select_order(
    series: Sequence[float] | np.ndarray,
    max_p: int = 5,
    max_q: int = 5,
) -> Tuple[int, int]:
    """Pick (p, q) over the grid by AIC; ties prefer fewer, then more AR, terms.

    The series must satisfy the fit precondition for the largest candidate.
    Candidates whose fit fails are skipped; if every candidate fails the
    error from the last failure is raised.
    """
    y = np.asarray(getattr(series, "values", series), dtype=np.float64)
    _validate_series(y, max_p, max_q)
    best_key: tuple[float, int, int] | None = None
    best_orders: Tuple[int, int] = (0, 0)
    last_error: Exception | None = None
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            try:
                model = fit_arma(y, p, q)
            except (FitError, ValueError, np.linalg.LinAlgError) as exc:
                last_error = exc
                continue
            key = (model.aic, p + q, p)
            if best_key is None or key < best_key:
                best_key = key
                best_orders = (p, q)
    if best_key is None:
        raise FitError(f"no ARMA order could be fitted: {last_error}")
    return best_orders


def forecast_one(
    model: ArmaModel,
    history: Sequence[float] | np.ndarray,
    residuals: Sequence[float] | np.ndarray | None = None,
) -> float:
    """One-step-ahead conditional mean given trailing history and innovations."""
    h = np.asarray(history, dtype=np.float64)
    if h.size < model.p:
        raise ValueError(f"need at least {model.p} history values, got {h.size}")
    value = model.const
    for i in range(1, model.p + 1):
        value += model.ar[i - 1] * h[-i]
    if model.q:
        if residuals is None:
            raise ValueError("an MA model needs recent residuals")
        r = np.asarray(residuals, dtype=np.float64)
        if r.size < model.q:
            raise ValueError(f"need at least {model.q} residuals, got {r.size}")
        for j in range(1, model.q + 1):
            value += model.ma[j - 1] * r[-j]
    return float(value)
