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

The simplex search is ``_nelder_mead``: the Nelder-Mead (1965) loop of SciPy's
``_minimize_neldermead`` (SciPy 1.17, not adaptive, no bounds), restated on
Python float lists. SciPy's wrapper and array bookkeeping cost more per
evaluation than the objective does, and this loop walks the same path bit
for bit whenever ``np.argsort`` is stable: the same simplex, the same float
operations in the same order, the same branches and budget. Tied simplex
values keep index order. The 1e300 barrier makes ties common, and SciPy
leaves their order to ``np.argsort``, whose SIMD sorts on x86-64 may move
equal values; a stable sort of our own makes every fit the same on every
host. Tests run both searches side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Sequence, Tuple

import numpy as np
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
    for k in range(len(phi) - 1, -1, -1):  # k + 1 is the current order
        a = phi[k]
        if not abs(a) < 1.0:
            return False
        if k:
            scale = 1.0 - a * a
            phi = [(phi[j] + a * phi[k - 1 - j]) / scale for j in range(k)]
    return True


def _in_identifiable_region(ar: Sequence[float], ma: Sequence[float]) -> bool:
    """True when the AR polynomial is stationary and the MA one invertible.

    Both conditions require the lag-polynomial roots to lie strictly outside
    the unit circle, which is tested without root finding: every reflection
    coefficient of ``ar``, and of ``-ma``, must lie strictly inside (-1, 1).
    Without this restriction the simplex search can settle on coefficient
    vectors whose in-sample innovations look small but whose forecasts
    explode. For the orders the analytics fit (p <= 3, q <= 2) the test is
    ``_reflections_inside`` unrolled: the same float operations, no list.
    """
    p, q = len(ar), len(ma)
    if p > 3 or q > 2:
        return _reflections_inside(list(ar)) and _reflections_inside([-t for t in ma])
    if p == 3:
        a = ar[2]
        if not abs(a) < 1.0:
            return False
        scale = 1.0 - a * a
        phi1, phi2 = (ar[0] + a * ar[1]) / scale, (ar[1] + a * ar[0]) / scale
    elif p:
        phi1, phi2 = ar[0], ar[-1]
    if p > 1:
        if not abs(phi2) < 1.0:
            return False
        phi1 = (phi1 + phi2 * phi1) / (1.0 - phi2 * phi2)
    if p and not abs(phi1) < 1.0:
        return False
    if q == 2:
        a, theta = -ma[1], -ma[0]
        if not abs(a) < 1.0:
            return False
        theta = (theta + a * theta) / (1.0 - a * a)
    elif q:
        theta = ma[0]
    return not q or bool(abs(theta) < 1.0)


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


class _BudgetSpent(Exception):
    """Raised in place of an evaluation once ``maxfev`` have been made."""


def _nelder_mead(
    f: Callable[[list[float]], float],
    x0: list[float],
    xatol: float,
    fatol: float,
    maxfev: int,
) -> tuple[list[float], float, int, bool]:
    """Minimize ``f`` by SciPy's Nelder-Mead search, on Python floats.

    Returns ``(x, fun, nfev, success)`` bit for bit as
    ``scipy.optimize.minimize(f, x0, method="Nelder-Mead")`` returns them with
    ``xatol``, ``fatol`` and ``maxiter = maxfev``, as ``_minimize_neldermead``
    runs in SciPy 1.17 without ``adaptive`` or bounds, provided that
    ``np.argsort`` is stable: the same simplex, the same float operations in
    the same order, the same branches and comparisons. Ties among simplex
    values keep index order, on every host. ``f`` gets a list, which
    it must not change, and must not return NaN. The iteration cap is left
    out: every iteration evaluates ``f`` at least once after the N + 1
    initial evaluations, so with ``maxiter = maxfev`` the evaluation cap
    always binds first, and ``success`` is false exactly when it is reached.
    """
    n = len(x0)
    nfev = 0

    def call(x: list[float]) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return f(x)

    sim = [list(x0)]
    for k in range(n):
        vertex = list(x0)
        vertex[k] = 1.05 * vertex[k] if vertex[k] != 0 else 0.00025
        sim.append(vertex)
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _BudgetSpent:
        pass
    while True:
        # A stable sort: tied vertices keep index order. SciPy sorts twice
        # after the initial evaluations, which under a stable sort is once.
        order = sorted(range(n + 1), key=fsim.__getitem__)
        sim = [sim[i] for i in order]
        fsim = [fsim[i] for i in order]
        best, fbest = sim[0], fsim[0]
        if nfev >= maxfev:
            break
        if (all(abs(fbest - v) <= fatol for v in fsim[1:])
                and all(abs(a - b) <= xatol for x in sim[1:] for a, b in zip(x, best))):
            break
        # np.add.reduce over the rows: from +0.0, row by row
        xbar = [reduce(add, column, 0.0) / n for column in zip(*sim[:-1])]
        worst = sim[-1]
        try:
            xr = [2 * b - w for b, w in zip(xbar, worst)]
            fxr = call(xr)
            if fxr < fbest:
                xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
                fxe = call(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                shrink = False
                if fxr < fsim[-1]:
                    xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
                    fxc = call(xc)
                    if fxc <= fxr:
                        sim[-1], fsim[-1] = xc, fxc
                    else:
                        shrink = True
                else:
                    xcc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
                    fxcc = call(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1], fsim[-1] = xcc, fxcc
                    else:
                        shrink = True
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = [a + 0.5 * (v - a) for a, v in zip(best, sim[j])]
                        fsim[j] = call(sim[j])
        except _BudgetSpent:
            pass
    return best, fbest, nfev, nfev < maxfev


def fit_arma(series: Sequence[float] | np.ndarray, p: int, q: int) -> ArmaModel:
    """Fit ARMA(p, q) by conditional sum of squares.

    Mixed models (q > 0) start from the OLS AR fit with zero MA terms and run
    ``_nelder_mead``, SciPy's Nelder-Mead path without SciPy's per-call
    overhead, with ``xatol=1e-6``, ``fatol=1e-10`` and at most 800 evaluations
    per coefficient. Tied simplex values keep index order, so the fit follows
    SciPy's path under a stable ``np.argsort`` bit for bit, on every host.
    Raises ``FitError`` carrying the best model when the budget runs out.
    """
    y = np.asarray(series, dtype=np.float64)
    _validate_series(y, p, q)

    const0, ar0 = _ols_ar(y, p)
    if q == 0:
        return _finish(y, p, q, const0, ar0, np.empty(0))

    # Shrink an (unusual) explosive OLS start back inside the feasible set.
    while not _in_identifiable_region(ar0.tolist(), ()):
        ar0 = 0.9 * ar0
    start = [const0, *ar0.tolist(), *[0.0] * q]

    resp, lags = y[p:], _lag_views(y, p)
    den = np.ones(q + 1)

    def objective(v: list[float]) -> float:
        # Only per-evaluation work: den is refilled in place. The float
        # operations and their order are those of css_innovations, so _finish
        # reproduces the searched SSE exactly.
        ar, ma = v[1 : 1 + p], v[1 + p :]
        if not _in_identifiable_region(ar, ma):
            return 1e300
        den[1:] = ma
        r = _innovations_tail(resp, lags, v[0], ar, den)
        sse = float(r @ r)
        return sse if math.isfinite(sse) else 1e300

    maxfev = 800 * len(start)
    x, _, nfev, converged = _nelder_mead(objective, start, 1e-6, 1e-10, maxfev)
    model = _finish(
        y, p, q, x[0], np.array(x[1 : 1 + p]), np.array(x[1 + p :]), nfev=nfev,
    )
    if not converged:
        raise FitError(
            f"simplex search did not converge within {maxfev} evaluations", model,
        )
    return model


def _select_model(y: np.ndarray, max_p: int = 3, max_q: int = 2) -> tuple[Tuple[int, int], ArmaModel]:
    """``select_order``'s rule on a float64 series: the winning orders and their fit."""
    _validate_series(y, 0, 0)
    best: tuple[tuple[float, int, int], Tuple[int, int], ArmaModel] | None = None
    last_error: Exception | None = None
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            if 10 * (p + q + 1) > y.size:
                continue
            try:
                model = fit_arma(y, p, q)
            except (FitError, ValueError, np.linalg.LinAlgError) as exc:
                last_error = exc
                continue
            key = (model.aic, p + q, p)
            if best is None or key < best[0]:
                best = key, (p, q), model
    if best is None:
        raise FitError(f"no ARMA order could be fitted: {last_error}")
    return best[1:]


def select_order(
    series: Sequence[float] | np.ndarray,
    max_p: int = 3,
    max_q: int = 2,
) -> Tuple[int, int]:
    """Pick (p, q) over the grid by AIC; ties prefer fewer, then more AR, terms.

    The default grid, ARMA(<=3, <=2), is the analytics' one budget: hourly
    count series rarely justify more structure, and a larger grid is slow
    at scale. Candidates the series is too short for (fewer than
    10 * (p + q + 1) observations) are skipped, as are candidates whose fit
    fails; the series must fit ARMA(0, 0), and if every candidate fails the
    error from the last failure is raised.
    """
    if max_p < 0 or max_q < 0:
        raise ValueError("orders must be non-negative")
    return _select_model(np.asarray(series, dtype=np.float64), max_p, max_q)[0]
