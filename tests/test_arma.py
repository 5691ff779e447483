"""ARMA estimation, order selection, and one-step forecasts."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.signal import lfilter

import mobagg.forecast.arma as arma_mod
from mobagg.forecast import ArmaModel, FitError, fit_arma, forecast_one, select_order
from mobagg.forecast.arma import css_innovations


def ar1(phi, n, seed, sigma=1.0):
    rng = np.random.default_rng(seed)
    e = rng.normal(0, sigma, n + 1)
    z = np.zeros(n + 1)
    for t in range(1, n + 1):
        z[t] = phi * z[t - 1] + e[t]
    return z[1:]


class TestInnovations:
    def test_hand_computed_arma11(self):
        # y=[1,2,3], c=0.5, phi=0.5, theta=0.25; eps_1=1.0, eps_2=1.25
        eps = css_innovations(np.array([1.0, 2.0, 3.0]), 0.5, np.array([0.5]), np.array([0.25]))
        assert np.allclose(eps, [0.0, 1.0, 1.25])

    def test_pre_sample_zeros(self):
        y = np.arange(10, dtype=float)
        eps = css_innovations(y, 0.0, np.array([0.3, 0.1]), np.empty(0))
        assert eps[0] == 0.0 and eps[1] == 0.0


def lfilter_innovations(y, const, ar, ma):
    """Reference innovations tail through the public scipy.signal.lfilter."""
    p, n = ar.size, y.size
    r = y[p:] - const
    for i in range(1, p + 1):
        r = r - ar[i - 1] * y[p - i : n - i]
    return lfilter([1.0], np.concatenate(([1.0], ma)), r)


def arma_series(ar, ma, n, seed, mean=5.0, burn=50):
    """Seeded ARMA(len(ar), len(ma)) path with unit-variance innovations."""
    rng = np.random.default_rng(seed)
    e = rng.normal(0.0, 1.0, n + burn)
    y = np.full(n + burn, mean)
    for t in range(n + burn):
        y[t] += e[t]
        for i, phi in enumerate(ar, 1):
            if t >= i:
                y[t] += phi * (y[t - i] - mean)
        for j, theta in enumerate(ma, 1):
            if t >= j:
                y[t] += theta * e[t - j]
    return y[burn:]


class TestKernelMatchesLfilter:
    """The objective calls lfilter's private C kernel; it must match lfilter bit for bit.

    Fails if SciPy renames the kernel or lets it round differently from the
    public function, for any coefficients the simplex search may try.
    """

    @pytest.mark.parametrize("n", [50, 120])
    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", range(1, 6))
    @pytest.mark.parametrize("invertible", [True, False])
    def test_bitwise_equal(self, n, p, q, invertible):
        rng = np.random.default_rng([n, p, q, int(invertible)])
        y = rng.normal(20.0, 4.0, n)
        for _ in range(5):
            roots = rng.uniform(1.2, 4.0, q) * rng.choice([-1.0, 1.0], q)
            if not invertible:
                roots[0] = rng.uniform(0.5, 0.95) * rng.choice([-1.0, 1.0])
            ma = lag_coefficients(roots)
            assert arma_mod._in_identifiable_region(np.empty(0), ma) is invertible
            ar = rng.uniform(-0.6, 0.6, p)
            const = float(rng.normal(0.0, 3.0))
            expected = lfilter_innovations(y, const, ar, ma)
            den = np.concatenate(([1.0], ma))
            # the objective's form: Python-float coefficients, per-fit views
            tail = arma_mod._innovations_tail(
                y[p:], arma_mod._lag_views(y, p), const, ar.tolist(), den
            )
            assert np.array_equal(tail, expected)
            eps = css_innovations(y, const, ar, ma)
            assert np.array_equal(eps[p:], expected)
            assert not eps[:p].any()


def roots_outside_unit_circle(lowest_first):
    """Reference: every root of the lag polynomial lies strictly outside |z| = 1."""
    roots = np.roots(np.asarray(lowest_first, dtype=float)[::-1])
    return not (roots.size and np.abs(roots).min() <= 1.0)


def reference_region(ar, ma):
    return (roots_outside_unit_circle(np.concatenate(([1.0], -ar)))
            and roots_outside_unit_circle(np.concatenate(([1.0], ma))))


def lag_coefficients(roots):
    """c_1..c_k of prod_i (1 - z / r_i), for roots closed under conjugation."""
    return np.poly(1.0 / np.asarray(roots)).real[1:]


class TestIdentifiableRegion:
    @pytest.mark.parametrize("order", range(1, 6))
    def test_random_vectors_match_roots(self, order):
        rng = np.random.default_rng(order)
        for _ in range(2000):
            coef = rng.uniform(-2.0, 2.0, order) * rng.uniform(0.0, 1.0)
            empty = np.empty(0)
            assert arma_mod._in_identifiable_region(coef, empty) == reference_region(coef, empty)
            assert arma_mod._in_identifiable_region(empty, coef) == reference_region(empty, coef)

    @pytest.mark.parametrize("radius, inside", [(1.0 + 1e-3, True), (1.0 - 1e-3, False)])
    def test_root_next_to_unit_circle(self, radius, inside):
        rng = np.random.default_rng(17)
        for order in range(1, 6):
            for _ in range(50):
                angle = rng.uniform(0.0, math.pi)
                near = [radius] if order % 2 else [radius * np.exp(1j * angle),
                                                   radius * np.exp(-1j * angle)]
                far = list(rng.uniform(1.5, 4.0, order - len(near)) * rng.choice([-1, 1]))
                c = lag_coefficients(near + far)
                assert reference_region(-c, np.empty(0)) is inside
                assert arma_mod._in_identifiable_region(-c, np.empty(0)) is inside
                assert arma_mod._in_identifiable_region(np.empty(0), c) is inside

    @pytest.mark.parametrize("ar, ma, inside", [
        ([1.0], [], False),
        ([0.5], [], True),
        ([], [-1.0], False),
    ])
    def test_hand_cases(self, ar, ma, inside):
        assert arma_mod._in_identifiable_region(np.array(ar), np.array(ma)) is inside


class TestFitArma:
    def test_constant_series(self):
        model = fit_arma(np.full(50, 5.0), 0, 0)
        assert model.const == pytest.approx(5.0)
        assert model.sigma2 == pytest.approx(0.0, abs=1e-20)

    def test_ar1_recovers_phi(self):
        # phi=0.7, n=2000; frozen estimate 0.731370
        model = fit_arma(ar1(0.7, 2000, seed=7), 1, 0)
        assert 0.62 <= model.ar[0] <= 0.78
        assert model.ar[0] == pytest.approx(0.731370, abs=1e-6)

    def test_pure_ar_equals_least_squares(self):
        y = ar1(0.7, 2000, seed=7)
        model = fit_arma(y, 1, 0)
        X = np.column_stack([np.ones(y.size - 1), y[:-1]])
        coef, *_ = np.linalg.lstsq(X, y[1:], rcond=None)
        assert model.const == pytest.approx(coef[0], abs=1e-6)
        assert model.ar[0] == pytest.approx(coef[1], abs=1e-6)

    def test_ar2_equals_least_squares(self):
        rng = np.random.default_rng(3)
        e = rng.normal(0, 1, 1000)
        y = np.zeros(1000)
        for t in range(2, 1000):
            y[t] = 0.5 * y[t - 1] - 0.3 * y[t - 2] + e[t]
        model = fit_arma(y, 2, 0)
        X = np.column_stack([np.ones(y.size - 2), y[1:-1], y[:-2]])
        coef, *_ = np.linalg.lstsq(X, y[2:], rcond=None)
        assert np.allclose(model.ar, coef[1:], atol=1e-10)

    def test_ma1_matches_moment_oracle(self):
        # theta=0.5, n=5000; lag-1 autocorrelation r1 = theta/(1+theta^2)
        # inverts to theta = (1 - sqrt(1 - 4 r1^2)) / (2 r1).
        rng = np.random.default_rng(42)
        e = rng.normal(0, 1, 5001)
        y = e[1:] + 0.5 * e[:-1]
        model = fit_arma(y, 0, 1)
        assert 0.4 <= model.ma[0] <= 0.6
        r1 = np.corrcoef(y[:-1], y[1:])[0, 1]
        moment = (1 - math.sqrt(1 - 4 * r1 * r1)) / (2 * r1)
        assert model.ma[0] == pytest.approx(moment, abs=0.02)
        assert model.ma[0] == pytest.approx(0.523422, abs=1e-6)  # frozen

    def test_residual_recursion_is_self_consistent(self):
        y = ar1(0.6, 400, seed=5)
        model = fit_arma(y, 2, 1)
        for t in (10, 100, 399):
            pred = forecast_one(model, y[:t], model.residuals[:t])
            assert pred + model.residuals[t] == pytest.approx(y[t], abs=1e-8)

    def test_aic_formula(self):
        y = ar1(0.5, 300, seed=9)
        model = fit_arma(y, 1, 0)
        k = model.p + model.q + 1
        assert model.aic == pytest.approx(model.n_obs * math.log(model.sigma2) + 2 * k)

    def test_fitted_coefficients_are_identifiable(self):
        # stationarity of the AR polynomial and invertibility of the MA one
        y = ar1(0.8, 600, seed=13)
        model = fit_arma(y, 2, 2)
        for poly in (np.concatenate(([1.0], -model.ar)), np.concatenate(([1.0], model.ma))):
            roots = np.roots(poly[::-1])
            assert np.abs(roots).min() > 1.0

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            fit_arma(np.ones(19), 1, 0)  # needs 10*(1+0+1)=20

    def test_non_finite_series(self):
        y = np.ones(100)
        y[50] = np.nan
        with pytest.raises(ValueError):
            fit_arma(y, 1, 0)

    def test_negative_order(self):
        with pytest.raises(ValueError):
            fit_arma(np.ones(100), -1, 0)

    def test_non_convergence_carries_best_model(self, monkeypatch):
        y = ar1(0.5, 200, seed=21)

        real_nelder_mead = arma_mod._nelder_mead

        def fail(*args):
            x, fun, nfev, _ = real_nelder_mead(*args)
            return x, fun, nfev, False

        monkeypatch.setattr(arma_mod, "_nelder_mead", fail)
        with pytest.raises(FitError) as info:
            fit_arma(y, 1, 1)
        assert isinstance(info.value.model, ArmaModel)
        assert info.value.model.p == 1 and info.value.model.q == 1
        assert info.value.model.nfev > 0


class TestFrozenFits:
    """Exact bits and evaluation counts of three seeded simplex fits.

    Taken while the objective still called ``scipy.signal.lfilter`` (NumPy
    2.4, SciPy 1.17, x86-64). Any change to the float operations of the
    objective or their order moves the search path, and with it these bits
    or ``nfev``. The start comes from ``np.linalg.lstsq`` and the SSE from a
    BLAS dot product, so another BLAS build may round them differently.
    """

    @pytest.mark.parametrize("true_ar, true_ma, seed, const, ar, ma, sigma2, nfev", [
        ((0.5, -0.2, 0.1), (0.4, 0.2), 31, "0x1.64ca07ab66f64p-3",
         ["0x1.9550e4d5a531cp+0", "-0x1.925ca1bd7d554p-1", "0x1.5ca99414766f0p-3"],
         ["-0x1.29aeb6afdc528p-1", "-0x1.aca2929ff4046p-2"], "0x1.9974b484432d8p-1", 1444),
        ((0.6, -0.3), (0.5,), 32, "0x1.c50cac493036ap+1",
         ["0x1.7edd1861c5d5ep-1", "-0x1.c81f35df03a42p-2"],
         ["0x1.d58934b54f106p-2"], "0x1.fbccdc69e71b7p-1", 313),
        ((), (0.6, 0.3), 33, "0x1.3a97f06fb3a70p+2",
         [],
         ["0x1.5cb7af9f67984p-1", "0x1.6ee5c22a40cf7p-2"], "0x1.db422ba18bec9p-1", 249),
    ])
    def test_bits(self, true_ar, true_ma, seed, const, ar, ma, sigma2, nfev):
        y = arma_series(true_ar, true_ma, 120, seed)
        model = fit_arma(y, len(true_ar), len(true_ma))
        assert float(model.const).hex() == const
        assert [float(v).hex() for v in model.ar] == ar
        assert [float(v).hex() for v in model.ma] == ma
        assert float(model.sigma2).hex() == sigma2
        assert model.nfev == nfev

    def test_ols_fit_has_no_evaluations(self):
        assert fit_arma(ar1(0.5, 200, seed=21), 2, 0).nfev == 0


def quadratic(n, seed):
    """A seeded positive-definite quadratic in n variables and a start for it."""
    rng = np.random.default_rng([n, seed])
    m = rng.normal(size=(n, n))
    a = (m @ m.T + n * np.eye(n)).tolist()
    center = rng.normal(size=n).tolist()

    def f(x):
        d = [v - c for v, c in zip(x, center)]
        total = 0.0
        for row, di in zip(a, d):
            for aij, dj in zip(row, d):
                total += aij * di * dj
        return total

    return f, rng.normal(size=n).tolist()


def boxed(n, seed):
    """A distance to a point inside the box |x_i| < 1, and 1e300 outside it.

    The start lies near a corner, so the simplex straddles the wall and its
    values tie at 1e300.
    """
    rng = np.random.default_rng(seed)
    center = rng.uniform(-0.9, 0.9, n).tolist()
    start = (rng.uniform(0.9, 0.99, n) * rng.choice([-1, 1], n)).tolist()

    def f(x):
        if any(abs(v) >= 1.0 for v in x):
            return 1e300
        total = 0.0
        for v, c in zip(x, center):
            total += (v - c) ** 2
        return total

    return f, start


# (n, seed) of boxed searches where ties decide the path: an unstable sort,
# such as np.argsort on AVX2 and AVX-512 hosts, leads these searches elsewhere
PLATEAU_CASES = [(4, 0), (4, 6), (5, 9), (5, 14), (6, 4), (6, 6)]

# NumPy's dispatch targets with unstable sorts; with them off, np.argsort
# runs NumPy's baseline sort
DISPATCH_TARGETS = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def dispatch_on():
    """True when NumPy reports any of ``DISPATCH_TARGETS`` on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return any(__cpu_features__.get(k) for k in DISPATCH_TARGETS.split())


# prints dispatch_on() and the bits of the plateau searches as JSON
PLATEAU_SEARCHES = """
import json, sys
sys.path[:0] = sys.argv[1:]
from test_arma import PLATEAU_CASES, boxed, dispatch_on
from mobagg.forecast.arma import _nelder_mead
searches = []
for n, seed in PLATEAU_CASES:
    x, fun, nfev, success = _nelder_mead(*boxed(n, seed), 1e-6, 1e-10, 800 * n)
    searches.append([[v.hex() for v in x], fun.hex(), nfev, success])
print(json.dumps([dispatch_on(), searches]))
"""


class TestNelderMead:
    """``_nelder_mead`` walks the path of SciPy's Nelder-Mead bit for bit.

    Each search runs under ``fit_arma``'s options beside
    ``scipy.optimize.minimize(method="Nelder-Mead")``; ``x``, ``fun``,
    ``nfev`` and ``success`` must be equal to the bit. SciPy orders the
    simplex with ``np.argsort``, which the reference runs as a stable sort:
    ``_nelder_mead`` keeps tied values in index order.
    """

    @staticmethod
    def assert_same_search(f, x0, maxfev=None):
        maxfev = 800 * len(x0) if maxfev is None else maxfev
        x, fun, nfev, success = arma_mod._nelder_mead(f, list(x0), 1e-6, 1e-10, maxfev)
        with mock.patch.object(np, "argsort", partial(np.argsort, kind="stable")):
            ref = minimize(
                lambda v: f(v.tolist()), np.array(x0, dtype=np.float64), method="Nelder-Mead",
                options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": maxfev, "maxfev": maxfev},
            )
        assert [v.hex() for v in x] == [float(v).hex() for v in ref.x]
        assert float(fun).hex() == float(ref.fun).hex()
        assert (nfev, success) == (ref.nfev, ref.success)
        return nfev

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("seed", range(3))
    def test_quadratic(self, n, seed):
        f, x0 = quadratic(n, seed)
        self.assert_same_search(f, x0)

    # the simplex values tie at 1e300, and only the tie rule picks the path
    @pytest.mark.parametrize("n, seed", PLATEAU_CASES)
    def test_plateau_ties(self, n, seed):
        f, x0 = boxed(n, seed)
        self.assert_same_search(f, x0)

    def test_plateau_ties_ignore_cpu_dispatch(self):
        # the same searches in two fresh interpreters, one with NumPy's
        # AVX2 and AVX-512 targets off
        if not dispatch_on():
            pytest.skip("NumPy reports no AVX2 or AVX-512 dispatch target on")
        here = Path(__file__).resolve().parent
        args = [sys.executable, "-c", PLATEAU_SEARCHES, str(here), str(here.parent / "src")]
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        (on, default), (off, baseline) = (
            json.loads(subprocess.run(
                args, env=e, capture_output=True, text=True, timeout=120, check=True,
            ).stdout)
            for e in (env, {**env, "NPY_DISABLE_CPU_FEATURES": DISPATCH_TARGETS})
        )
        assert (on, off) == (True, False)
        assert baseline == default

    @pytest.mark.parametrize("x0", [
        [0.0, 0.0], [0.0, 1.5, -0.0], [2.0, -0.0, 0.0, -1.0], [0.0] * 6,
    ])
    def test_zero_start_entries(self, x0):
        f, _ = quadratic(len(x0), 7)
        self.assert_same_search(f, x0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_evaluation_budget(self, n):
        f, x0 = quadratic(n, 11)
        for maxfev in (1, n, n + 1, n + 2):
            assert self.assert_same_search(f, x0, maxfev) == maxfev
        g, y0 = boxed(n, 3)
        for maxfev in (1, n, n + 1, n + 2):
            assert self.assert_same_search(g, y0, maxfev) == maxfev

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", [1, 2])
    def test_fit_arma_objectives(self, p, q, monkeypatch):
        searches = []
        real_nelder_mead = arma_mod._nelder_mead

        def spy(f, x0, xatol, fatol, maxfev):
            searches.append((f, list(x0), xatol, fatol, maxfev))
            return real_nelder_mead(f, x0, xatol, fatol, maxfev)

        monkeypatch.setattr(arma_mod, "_nelder_mead", spy)
        y = arma_series((0.5, -0.2, 0.1)[:p], (0.4, 0.2)[:q], 120, 40 + 2 * p + q)
        model = fit_arma(y, p, q)
        (f, x0, xatol, fatol, maxfev), = searches
        assert (xatol, fatol, maxfev) == (1e-6, 1e-10, 800 * (1 + p + q))
        assert self.assert_same_search(f, x0, maxfev) == model.nfev


class TestSelectOrder:
    def test_strong_ar_picks_autoregression(self):
        y = ar1(0.9, 400, seed=100)
        assert select_order(y, 2, 1) == (1, 0)

    def test_white_noise_prefers_empty_model(self):
        # 40-seed Monte-Carlo, frozen: (0,0) is modal at 15/40; AIC's fixed
        # +2-per-parameter penalty admits chance overfits on the other seeds
        picks = []
        for s in range(40):
            rng = np.random.default_rng(1000 + s)
            picks.append(select_order(rng.normal(0, 1, 300), 3, 2))
        counts = Counter(picks)
        assert counts.most_common(1)[0][0] == (0, 0)
        assert counts[(0, 0)] == 15

    def test_tie_breaks_smaller_order_sum_then_smaller_p(self, monkeypatch):
        def stub(series, p, q):
            return SimpleNamespace(aic=5.0 if (p, q) in {(1, 0), (0, 1)} else 10.0)

        monkeypatch.setattr(arma_mod, "fit_arma", stub)
        assert arma_mod.select_order(np.zeros(200), 2, 2) == (0, 1)

    def test_full_tie_returns_empty_model(self, monkeypatch):
        monkeypatch.setattr(arma_mod, "fit_arma", lambda series, p, q: SimpleNamespace(aic=1.0))
        assert arma_mod.select_order(np.zeros(200), 2, 2) == (0, 0)

    def test_all_failures_raise(self, monkeypatch):
        def broken(series, p, q):
            raise FitError("nope")

        monkeypatch.setattr(arma_mod, "fit_arma", broken)
        with pytest.raises(FitError):
            arma_mod.select_order(np.zeros(200), 2, 2)

    def test_short_window_skips_candidates_it_cannot_fit(self, monkeypatch):
        # 48 slots, a two-day window, fit ARMA(p, q) only where p + q <= 3
        tried = []

        def stub(series, p, q):
            tried.append((p, q))
            return SimpleNamespace(aic=-float(p + q))

        monkeypatch.setattr(arma_mod, "fit_arma", stub)
        assert arma_mod.select_order(np.zeros(48), 3, 2) == (1, 2)
        assert tried == [(p, q) for p in range(4) for q in range(3) if p + q <= 3]

    def test_short_window_picks_among_fittable_orders(self):
        p, q = select_order(ar1(0.8, 48, seed=48))
        assert 10 * (p + q + 1) <= 48
        with pytest.raises(ValueError):
            select_order(np.zeros(9))


class TestForecastOne:
    def test_intercept_only(self):
        model = fit_arma(np.full(50, 5.0), 0, 0)
        assert forecast_one(model, []) == pytest.approx(5.0)

    def test_random_walk_step(self):
        model = ArmaModel(p=1, q=0, const=0.0, ar=np.array([1.0]), ma=np.empty(0),
                          sigma2=1.0, residuals=np.zeros(1), loglik=0.0, aic=0.0, n_obs=1)
        assert forecast_one(model, [7.0, 42.0]) == 42.0

    def test_hand_arithmetic_p2_q1(self):
        model = ArmaModel(p=2, q=1, const=1.0, ar=np.array([0.5, -0.25]),
                          ma=np.array([0.3]), sigma2=1.0, residuals=np.zeros(3),
                          loglik=0.0, aic=0.0, n_obs=3)
        # 1 + 0.5*4 - 0.25*2 + 0.3*0.8 = 2.74
        assert forecast_one(model, [9.0, 2.0, 4.0], residuals=[0.1, 0.8]) == pytest.approx(2.74)

    def test_insufficient_history(self):
        model = ArmaModel(p=2, q=0, const=0.0, ar=np.array([0.5, 0.1]), ma=np.empty(0),
                          sigma2=1.0, residuals=np.zeros(2), loglik=0.0, aic=0.0, n_obs=2)
        with pytest.raises(ValueError):
            forecast_one(model, [1.0])

    def test_ma_model_requires_residuals(self):
        model = ArmaModel(p=0, q=1, const=0.0, ar=np.empty(0), ma=np.array([0.5]),
                          sigma2=1.0, residuals=np.zeros(1), loglik=0.0, aic=0.0, n_obs=1)
        with pytest.raises(ValueError):
            forecast_one(model, [1.0])
        with pytest.raises(ValueError):
            forecast_one(model, [1.0], residuals=[])
