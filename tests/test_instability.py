import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.optimize import brentq

from shearstab import instability
from shearstab.errors import (
    ConfigurationError,
    NotUnstableError,
    ResonanceError,
)
from shearstab.instability import (
    _euler_system,
    _gen_eval,
    _gen_tables,
    _riccati_formula,
    _shear_block,
    _toeplitz_conv,
    duhamel_term,
    euler_series,
    hopf_majorant,
    hopf_series,
    ode_bootstrap,
    riccati_exact,
)
from shearstab.profiles import make_profile

COS = {1: 0.5, -1: 0.5}


@pytest.fixture(scope="module")
def scalar_boot():
    t = np.linspace(0.0, 8.0, 161)
    return ode_bootstrap(
        np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.0, 1e-3, 5, t
    )


def _per_pair_reference(A, Q, v0, lam, N, tg):
    """psi_1..psi_N of the bootstrap on tg, unscaled: psi_1 = v0 e^{lam t} and
    the triangular system integrated by DOP853 with one call of Q per pair."""
    d = v0.size

    def ref_rhs(t, y):
        psis = [v0 * np.exp(lam * t)] + [y[d * i:d * i + d] for i in range(N - 1)]
        out = []
        for i in range(2, N + 1):
            f = A @ psis[i - 1]
            for j in range(1, i):
                f = f + Q(psis[j - 1], psis[i - j - 1])
            out.append(f)
        return np.concatenate(out)

    ref = solve_ivp(ref_rhs, (0.0, tg[-1]), np.zeros(d * (N - 1), dtype=complex),
                    method="DOP853", rtol=1e-12, atol=1e-12, t_eval=tg)
    return [v0 * np.exp(lam * tg)[:, None]] + [ref.y[d * i:d * i + d].T for i in range(N - 1)]


class TestOdeBootstrap:
    def test_phi2_closed_form(self, scalar_boot):
        # convolution of e^{t-tau} with e^{2tau} gives eps^2 (e^{2t} - e^t)
        t = scalar_boot.t_grid
        exact = 1e-6 * (np.exp(2 * t) - np.exp(t))
        err = np.abs(scalar_boot.terms[1][:, 0] - exact)
        assert np.max(err / (1.0 + exact)) < 1e-12

    def test_iteration_bound(self, scalar_boot):
        t = scalar_boot.t_grid
        for j, (term, C) in enumerate(zip(scalar_boot.terms, scalar_boot.C), start=1):
            envelope = C * 1e-3**j * np.exp(j * t)
            assert np.all(np.max(np.abs(term), axis=1) <= envelope * (1 + 1e-12))
            assert np.isfinite(C)

    def test_residual_log_slope(self, scalar_boot):
        # dropped interactions have order N+1: slope (N+1) Re(lambda) = 6
        assert scalar_boot.residual_slope == pytest.approx(6.0, rel=0.05)

    def test_duhamel_cross_check(self, scalar_boot):
        # phi_2 built by explicit propagator quadrature matches the
        # triangular-system construction
        A = np.array([[1.0]])
        for t in (1.0, 3.0):
            v = duhamel_term(A, lambda tau: np.array([1e-6 * np.exp(2 * tau)]), t)
            exact = 1e-6 * (np.exp(2 * t) - np.exp(t))
            assert abs(v[0] - exact) < 1e-10 * (1 + exact)

    @pytest.mark.parametrize("A", [np.ones((2, 3)), np.zeros((0, 0))])
    def test_duhamel_needs_square_matrix(self, A):
        # checked before the contour is computed from the eigenvalues of A
        with pytest.raises(ConfigurationError, match="square"):
            duhamel_term(A, lambda t: np.ones(A.shape[1]), 1.0)

    def test_amplitude_floor(self, scalar_boot):
        assert scalar_boot.sigma0 == pytest.approx(0.5 * np.exp(-scalar_boot.sigma))
        assert scalar_boot.T1 == pytest.approx(
            -np.log(1e-3) - scalar_boot.sigma, rel=1e-12
        )
        assert np.isfinite(scalar_boot.escape_time)

    @staticmethod
    def _scalar_runs(epss):
        """(eps, result) of phi' = phi + phi^2 from eps e^t at order 5, each
        on [0, -log(eps) + 4]."""
        runs = []
        for eps in epss:
            tg = np.linspace(0.0, -np.log(eps) + 4.0, 81)
            runs.append((eps, ode_bootstrap(np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.0, eps, 5, tg)))
        return runs

    def test_escape_time_scaling(self):
        # first crossing of sigma0 happens at -log(eps)/Re(lambda) + O(1)
        epss = [1e-3, 1e-4, 1e-5]
        times = [r.escape_time for _, r in self._scalar_runs(epss)]
        slope = np.polyfit(-np.log(epss), times, 1)[0]
        assert slope == pytest.approx(1.0, rel=0.05)

    def test_matrix_direct_oracle(self):
        # a stiff direct integration of the full quadratic ODE stays within
        # twice the accumulated residual bound of the series approximation
        A = np.array([[1.0, 0.3], [0.0, -0.5]])
        tg = np.linspace(0.0, 7.0, 141)
        eps = 1e-3
        r = ode_bootstrap(A, lambda a, b: a * b, np.array([1.0, 0.0]), 1.0, eps, 5, tg)
        window = np.max(np.abs(r.approx), axis=1) <= 0.1
        t_end = tg[window][-1]
        sel = tg <= t_end
        sol = solve_ivp(
            lambda t, y: A @ y + y * y,
            (0.0, t_end),
            eps * np.array([1.0, 0.0]),
            method="Radau",
            rtol=1e-12,
            atol=1e-16,
            t_eval=tg[sel],
        )
        diff = np.max(np.abs(sol.y.T - r.approx[sel]), axis=1)
        mu = r.energy_constant
        damped = np.exp(-mu * tg) * r.residual
        bound = np.exp(mu * tg) * np.concatenate(
            [[0.0], cumulative_trapezoid(damped, tg)]
        )
        mask = bound[sel] > 1e-10  # above the integrators' noise floor
        assert np.any(mask)
        assert np.max(diff[mask] / bound[sel][mask]) <= 2.0

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_escape_time_closed_form(self, eps):
        # phi' = phi + phi^2 from eps e^t: phi_n = eps^n e^t (e^t - 1)^{n-1},
        # so the escape time is the root of sum_{n<=5} phi_n = sigma0
        tg = np.linspace(0.0, -np.log(eps) + 4.0, 81)
        r = ode_bootstrap(
            np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.0, eps, 5, tg
        )

        def excess(t):
            e = np.exp(t)
            return sum(eps**n * e * (e - 1.0) ** (n - 1) for n in range(1, 6)) - r.sigma0

        root = brentq(excess, 0.0, tg[-1], xtol=1e-15, rtol=4 * np.finfo(float).eps)
        assert abs(r.escape_time - root) <= 1e-12

    @pytest.mark.parametrize("n_grid", [2, 5, 81])
    def test_escape_time_on_a_coarse_grid(self, n_grid):
        # the first crossing is searched on the integrator's own steps as
        # well as on t_grid, so a grid of two points finds the same root of
        # the closed form sum_{n<=5} eps^n e^t (e^t - 1)^{n-1} = sigma0
        eps = 1e-5
        tg = np.linspace(0.0, -np.log(eps) + 4.0, n_grid)
        r = ode_bootstrap(np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.0, eps, 5, tg)

        def excess(t):
            e = np.exp(t)
            return sum(eps**n * e * (e - 1.0) ** (n - 1) for n in range(1, 6)) - r.sigma0

        root = brentq(excess, 0.0, tg[-1], xtol=1e-15, rtol=4 * np.finfo(float).eps)
        assert abs(r.escape_time - root) <= 1e-10

    def test_escape_time_on_complex_eigenpair(self):
        # the eigenpair of test_real_bilinear_Q_on_complex_eigenpair on a
        # grid long enough to escape; 5.821525123217629 is the escape time
        # of the 4001-point dense-output search that the search on the
        # integrator's steps and t_grid replaced (the same on grids ending
        # at 8, 9 and 10)
        A = np.array([[1.0, -2.0], [2.0, 1.0]])
        r = ode_bootstrap(A, lambda a, b: a.real * b, np.array([1.0, -1.0j]), 1.0 + 2.0j, 1e-3, 4,
                          np.linspace(0.0, 8.0, 81))
        assert abs(r.escape_time - 5.821525123217629) <= 1e-12

    def test_non_elementwise_Q_matches_per_pair_reference(self, monkeypatch):
        # Q mixes the components, so a Q applied to the wrong axis or to
        # mismatched pairs shows; the reference calls Q once per pair
        A = np.array([[1.0, 0.3], [0.0, -0.5]])
        v0 = np.array([1.0, 0.0])
        eps, N = 1e-3, 4
        tg = np.linspace(0.0, 5.0, 51)
        n_calls = []

        def Q(a, b):
            n_calls.append(1)
            return a[..., ::-1] * b

        nfev = []
        solve_ivp_ = instability.solve_ivp

        def recording(*args, **kwargs):
            sol = solve_ivp_(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(instability, "solve_ivp", recording)
        r = ode_bootstrap(A, Q, v0, 1.0, eps, N, tg)
        # one call per right-hand-side evaluation, one for the residual
        assert len(n_calls) == nfev[0] + 1

        psis = _per_pair_reference(A, lambda a, b: a[..., ::-1] * b, v0, 1.0, N, tg)
        for i in range(N):
            want = eps ** (i + 1) * psis[i]
            scale = np.max(np.abs(want))
            assert np.max(np.abs(r.terms[i] - want)) <= 1e-9 * scale
        residual = np.zeros((tg.size, 2), dtype=complex)
        for j in range(N):
            for k in range(N):
                if j + k >= N - 1:
                    residual += r.terms[j][:, ::-1] * r.terms[k]
        assert np.allclose(r.residual, np.max(np.abs(residual), axis=1), rtol=1e-12, atol=0.0)

    def test_scalar_terms_match_closed_form(self):
        # phi_n = eps^n e^t (e^t - 1)^{n-1}: every order within 1e-11 of its
        # envelope eps^n e^{nt}, so the growth-free chi_n are accurate to 1e-11
        for eps, r in self._scalar_runs([1e-3, 1e-4, 1e-5]):
            e = np.exp(r.t_grid)
            for n, term in enumerate(r.terms, start=1):
                exact = eps**n * e * (e - 1.0) ** (n - 1)
                assert np.max(np.abs(term[:, 0] - exact) / (eps**n * e**n)) <= 1e-11

    def test_growth_free_integration_is_short(self, monkeypatch):
        # with the known growth e^{n t} taken out, the three integrations of
        # the escape-time scaling take at most 6000 right-hand sides in all;
        # following the exponentials took 12831
        nfev = []
        solve_ivp_ = instability.solve_ivp

        def recording(*args, **kwargs):
            sol = solve_ivp_(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(instability, "solve_ivp", recording)
        self._scalar_runs([1e-3, 1e-4, 1e-5])
        assert len(nfev) == 3
        assert sum(nfev) <= 6000

    def test_real_bilinear_Q_on_complex_eigenpair(self):
        # Q(a, b) = Re(a) b is real-bilinear but not complex-bilinear: only
        # the real factors e^{-n Re(lambda) t} pass through it, so a scaling
        # by e^{-n lambda t} would show here against the unscaled per-pair
        # reference
        A = np.array([[1.0, -2.0], [2.0, 1.0]])
        v0 = np.array([1.0, -1.0j])
        lam = 1.0 + 2.0j
        eps, N = 1e-3, 4
        tg = np.linspace(0.0, 5.0, 51)

        def Q(a, b):
            return a.real * b

        r = ode_bootstrap(A, Q, v0, lam, eps, N, tg)
        psis = _per_pair_reference(A, Q, v0, lam, N, tg)
        for i in range(N):
            want = eps ** (i + 1) * psis[i]
            assert np.max(np.abs(r.terms[i] - want)) <= 1e-9 * np.max(np.abs(want))

    def test_bad_eigenpair(self):
        with pytest.raises(ConfigurationError):
            ode_bootstrap(
                np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.5, 1e-3,
                5, np.linspace(0, 5, 11),
            )

    def test_decaying_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ode_bootstrap(
                np.array([[-1.0]]), lambda a, b: a * b, np.array([1.0]), -1.0, 1e-3,
                5, np.linspace(0, 5, 11),
            )

    def test_order_too_small(self):
        with pytest.raises(ConfigurationError):
            ode_bootstrap(
                np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.0, 1e-3,
                1, np.linspace(0, 5, 11),
            )

    def test_end_time_past_overflow_rejected(self):
        # psi_3^2 ~ e^{6 Re(lambda) t} overflows past log(DBL_MAX) / 6 = 118.297
        # at Re(lambda) = 1; the integration used to run into it and print
        # numpy's overflow warnings before failing or returning
        with pytest.raises(ConfigurationError, match=r"t_grid ends at 119, past 118\.297"):
            ode_bootstrap(
                np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.0, 1e-3,
                3, np.linspace(0, 119, 11),
            )


class TestRiccatiExact:
    def test_saturation_limit(self):
        r = riccati_exact(0.1, -1.0, 0.01, 1e6)
        assert r.limit == pytest.approx(0.1)
        assert r.value == pytest.approx(0.1)
        assert not r.blown_up

    def test_no_limit_for_negative_epsilon(self):
        # eps < 0 and alpha < 0: the solution decays to 0, but -eps / alpha
        # = -1 used to be reported as its limit
        r = riccati_exact(-1.0, -1.0, 0.01, 1e6)
        assert r.value == 0.0
        assert r.limit is None and r.t_star is None and not r.blown_up

    def test_linear_case(self):
        r = riccati_exact(0.1, 0.0, 0.01, 3.0)
        assert r.value == pytest.approx(0.01 * np.exp(0.3), rel=1e-14)
        assert r.t_star is None and r.limit is None

    def test_blowup_time(self):
        r = riccati_exact(0.1, 1.0, 0.01, 5.0)
        assert r.t_star == pytest.approx(10.0 * np.log(11.0), rel=1e-14)
        assert not r.blown_up

    def test_blowup_variant(self):
        r = riccati_exact(0.1, 1.0, 0.01, 30.0)
        assert r.blown_up
        assert r.value == np.inf

    def test_negative_epsilon_without_blowup(self):
        # alpha phi0 = 0.01 < -eps = 1: the solution decays, so there is no
        # blow-up time; log1p of -100 used to warn and give a NaN t_star
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = riccati_exact(-1.0, 1.0, 0.01, 5.0)
        e = np.exp(-5.0)
        assert r.t_star is None and not r.blown_up
        assert r.value == pytest.approx(-0.01 * e / (-1.0 - 0.01 * (e - 1.0)), rel=1e-14)

    def test_negative_epsilon_blowup(self):
        # alpha phi0 = 2 > -eps = 1: phi = 2 e^{-t} / (2 e^{-t} - 1) blows up at log 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = riccati_exact(-1.0, 1.0, 2.0, 0.5)
            after = riccati_exact(-1.0, 1.0, 2.0, 1.0)
        assert before.t_star == pytest.approx(np.log(2.0), rel=1e-14)
        assert not before.blown_up
        assert before.value == pytest.approx(2.0 * np.exp(-0.5) / (2.0 * np.exp(-0.5) - 1.0), rel=1e-14)
        assert after.blown_up and after.value == np.inf

    @pytest.mark.parametrize("alpha", [-1.0, 0.7])
    def test_ode_residual(self, alpha):
        # complex-step derivative: the closed form satisfies
        # phi' = eps phi + alpha phi^2 to near machine precision
        eps, phi0 = 0.1, 0.01
        h = 1e-30
        for t in np.linspace(0.5, 12.0, 7):
            phi = _riccati_formula(eps, alpha, phi0, t)
            dphi = np.imag(_riccati_formula(eps, alpha, phi0, t + 1j * h)) / h
            assert abs(dphi - eps * phi - alpha * phi**2) <= 1e-12

    def test_bad_phi0(self):
        with pytest.raises(ConfigurationError):
            riccati_exact(0.1, 1.0, -0.5, 1.0)


class TestHopfSeries:
    def test_u2_closed_form(self):
        s = hopf_series(COS, 1.0, 2)
        # -u1 u1' = cos z sin z, so u2 = (1/2) sin 2z
        assert s.terms[1] == {2: -0.25j, -2: 0.25j}

    def test_zero_input(self):
        s = hopf_series({}, 1.0, 6)
        assert all(not c for c in s.terms)

    def test_recurrence_residuals(self):
        s = hopf_series(COS, 1.0, 20)
        for n in range(2, 21):
            assert s.recurrence_residual(n) <= 1e-10

    def test_sup_ratio_bounds_growth(self):
        s = hopf_series(COS, 1.0, 20)
        R = s.sup_ratio()
        assert 0.0 < R < 2.0
        # the measured bound really dominates the late ratios
        norms = [s.sup_norm(n) for n in range(1, 21)]
        for n in range(5, 20):
            assert norms[n] <= R * norms[n - 1] * (1 + 1e-12)
        # one product for all norms gives the per-term loop's bound, bit for bit
        assert R == max(norms[n] / norms[n - 1] for n in range(5, 20))

    def test_partial_sum_residual_order(self):
        # defect of the order-N sum has leading time order e^{(N+1) alpha t}
        s = hopf_series(COS, 1.0, 8)
        ts = np.linspace(-3.0, -1.5, 7)
        slope = np.polyfit(ts, np.log([s.residual_sup(t) for t in ts]), 1)[0]
        assert slope == pytest.approx(9.0, rel=0.05)

    def test_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            hopf_series(COS, -1.0, 5)

    @pytest.mark.parametrize(
        "u1, alpha, N",
        [({1: 0.3, -1: 0.3, 2: 0.1j, -2: -0.1j}, 0.7, 10), (COS, 1.0, 20)],
    )
    def test_table_matches_dict_recurrence(self, u1, alpha, N):
        s = hopf_series(u1, alpha, N)
        for got, want in zip(s.terms, _dict_hopf_terms(u1, alpha, N)):
            scale = max(abs(v) for v in want.values())
            for m in set(got) | set(want):
                assert abs(got.get(m, 0.0) - want.get(m, 0.0)) <= 1e-14 * scale

    @pytest.mark.parametrize(
        "u1", [{1: 0.5, -1: 0.5, 3: 0.2, -3: 0.2}, {1: 0.3, -1: 0.3, 2: 0.1j, -2: -0.1j}]
    )
    def test_zero_mean_exact(self, u1):
        # u_n, n >= 2, is a z-derivative (of -sum_k u_k u_{n-k} / (2 (n-1) alpha)),
        # so its mean is exactly zero and mode 0 is never in its support
        s = hopf_series(u1, 0.7, 10)
        assert all(0 not in t for t in s.terms[1:])

    @pytest.mark.parametrize("form", [np.array, lambda c: c.tolist(), lambda c: tuple(map(tuple, c))])
    def test_record_reads_the_table_exactly(self, form):
        # the record reads its table as a complex array: the series' own
        # table, as an array, nested lists or nested tuples, is kept bit for bit
        s = hopf_series({1: 0.3, -1: 0.3, 2: 0.1j, -2: -0.1j}, 0.7, 10)
        rebuilt = instability.HopfSeries(s.alpha, form(s.coeffs))
        assert rebuilt.coeffs.dtype == s.coeffs.dtype
        assert np.array_equal(rebuilt.coeffs, s.coeffs)
        assert rebuilt.terms == s.terms

    def test_cos_parity_support(self):
        # u_n of cos z only has modes of the parity of n, exactly
        s = hopf_series(COS, 1.0, 20)
        for n, c in enumerate(s.terms, start=1):
            assert all((m - n) % 2 == 0 for m in c)


def _dict_hopf_terms(u1, alpha, N):
    """The Hopf recurrence on Fourier-coefficient dicts, one scalar product
    at a time: the reference for the coefficient table of ``hopf_series``."""

    def conv_deriv(a, b):  # the coefficients of a d_z b
        out = {}
        for m1, v1 in a.items():
            for m2, v2 in b.items():
                if m2 != 0:
                    out[m1 + m2] = out.get(m1 + m2, 0.0) + v1 * (1j * m2 * v2)
        return out

    terms = [{int(m): complex(v) for m, v in u1.items() if v != 0}]
    for n in range(2, N + 1):
        acc = {}
        for k in range(1, n):
            for m, v in conv_deriv(terms[k - 1], terms[n - k - 1]).items():
                acc[m] = acc.get(m, 0.0) + v
        terms.append({m: -v / ((n - 1) * alpha) for m, v in acc.items() if v != 0})
    return terms


@pytest.fixture(scope="module")
def report():
    series = hopf_series(COS, 1.0, 12)
    rep = hopf_majorant(series, eta0=0.25, t_max=0.05)
    return series, rep


class TestHopfMajorant:
    def test_inequality_residual(self, report):
        _, rep = report
        assert rep["residual_ok"]
        assert rep["max_residual"] <= 1e-10

    def test_ramp_window(self, report):
        series, rep = report
        assert rep["phi_ok"]
        # T_ramp < t_max here, so the ramp is checked at T_c = T_ramp
        assert rep["T_ramp"] < 0.05
        assert rep["phi_min"] == pytest.approx(0.5, abs=1e-12)
        assert rep["T_ramp"] == pytest.approx(
            series.alpha * rep["eta0"] / (6.0 * rep["M0"])
        )

    def test_characteristics_monotone(self, report):
        _, rep = report
        assert len(rep["characteristics"]) == 20
        assert rep["K_monotone_ok"]
        assert rep["K_max_increase"] <= 1e-10 * (1 + rep["M0"])

    def test_characteristics_bounded(self, report):
        _, rep = report
        assert rep["K_bound_ok"]
        assert rep["K_max"] <= rep["M0"] * (1 + 1e-10)

    def test_majorant_dominates_terms(self, report):
        # the t^{k-1} coefficient of G_N majorises sup|u_k|
        series, rep = report
        for k in range(1, series.order + 1):
            assert rep["majorant"][k - 1][0] >= series.sup_norm(k) - 1e-12

    def test_bad_window(self):
        series = hopf_series(COS, 1.0, 6)
        with pytest.raises(ConfigurationError):
            hopf_majorant(series, eta0=-1.0, t_max=0.1)

    def test_M0_closed_form_cos(self, report):
        # every derivative of cos z has sup 1, so Gen(u_1)(eta0) = sum eta0^m/m!
        series, rep = report
        exact = sum(0.25**m / math.factorial(m) for m in range(series.order))
        assert rep["M0"] == pytest.approx(exact, rel=1e-15)

    def test_early_exit_path(self, report):
        # the innermost characteristic leaves through z = 0 before t = T_c;
        # its crossing step is not recorded and the outer ones run to the end
        _, rep = report
        paths = rep["characteristics"]
        assert len(paths[0]) < 401
        assert np.all(paths[0][:, 1] >= 0.0)
        assert len(paths[-1]) == 401
        np.testing.assert_array_equal(paths[0][:, 0], paths[-1][: len(paths[0]), 0])

    def test_K_column_is_the_ramped_majorant(self, report):
        # on each path the K column is G_N(t, phi(t) X) at every recorded
        # point, phi(t) = 1 - 3 M0 t / (alpha eta0), bit for bit the value
        # of one scalar evaluation per point
        series, rep = report
        dphi = -3.0 * rep["M0"] / (series.alpha * rep["eta0"])
        for path in rep["characteristics"]:
            t, x, K = path.T
            ref = [_gen_eval(rep["majorant"], ti, (1.0 + dphi * ti) * xi) for ti, xi in zip(t, x)]
            np.testing.assert_array_equal(K, ref)

    def test_memory_linear_in_points(self):
        # K is read from the march's own first stages, so no evaluation holds
        # all (n_steps + 1) x n_characteristics points times the order at once
        # (an evaluation over all of them after the march peaked at 83.5 MB)
        series = hopf_series(COS, 1.0, 12)
        tracemalloc.start()
        try:
            hopf_majorant(series, 0.25, 0.05, n_characteristics=400, n_steps=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30e6

    def test_fields_match_scalar_double_sum(self, report):
        _, rep = report
        table = rep["majorant"]
        table_t, table_z = _gen_tables(table)
        for t, z in [(0.0, 0.0), (0.0, 0.25), (0.01, 0.1), (0.03, 0.2), (0.05, 0.25)]:
            G, G_t, G_z = _scalar_fields(table, t, z)
            assert _gen_eval(table, t, z) == pytest.approx(G, rel=1e-13)
            assert _gen_eval(table_t, t, z) == pytest.approx(G_t, rel=1e-13)
            assert _gen_eval(table_z, t, z) == pytest.approx(G_z, rel=1e-13)


def _scalar_fields(gens, t, z):
    """G, G_t and G_z of the truncated generator as scalar double sums over
    the terms k and the derivative orders m: the reference for ``_gen_eval``.
    ``gens[k-1]`` lists sup|d^m u_k| by m; zeros beyond m = N-k add nothing."""

    def poly(coef, z):
        return sum(c * z**m / math.factorial(m) for m, c in enumerate(coef))

    N = len(gens)
    G = sum(t ** (k - 1) * poly(gens[k - 1], z) for k in range(1, N + 1))
    G_t = sum((k - 1) * t ** (k - 2) * poly(gens[k - 1], z) for k in range(2, N + 1))
    G_z = sum(t ** (k - 1) * poly(gens[k - 1][1:], z) for k in range(1, N + 1))
    return G, G_t, G_z


@pytest.fixture(scope="module")
def euler_report():
    return euler_series(make_profile("kolmogorov"), N=4, modes=16)


def _euler_flow(system, w0, t_end, event=None):
    """Integrate the truncated system d_t w = -L w + Q(w, w) from the fft
    array w0 with its own blocks and Q: the oracle of the series.  The state
    is w on the system's y-modes; the fft array at t_end is returned, with
    the solve_ivp result."""
    Ng, slots = w0.shape[0], system.slots

    def embed(z):
        w = np.zeros((Ng, Ng), dtype=complex)
        w[:, slots] = z.reshape(Ng, slots.size)
        return w

    def rhs(t, z):
        w = embed(z)
        return (-(system.blocks @ w[:, slots, None])[..., 0] + system.Q(w, w)[:, slots]).ravel()

    events = None
    if event is not None:
        def events(t, z):
            return event(embed(z))
        events.terminal = True
    sol = solve_ivp(rhs, (0.0, t_end), w0[:, slots].ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-16, events=events)
    return embed(sol.y[:, -1]), sol


class TestEulerSeries:
    def test_unstable_eigenvalue(self, euler_report):
        assert euler_report["alpha_eig"].real > 0
        assert abs(euler_report["alpha_eig"].imag) < 1e-10

    def test_truncation_doubling(self):
        rep = euler_series(make_profile("kolmogorov"), N=2, modes=32)
        assert rep["alpha_gap"] <= 1e-6

    def test_eigen_residual(self, euler_report):
        assert euler_report["eigen_residual"] <= 1e-8

    def test_terms_finite(self, euler_report):
        assert len(euler_report["omega_hat"]) == 4
        assert all(np.all(np.isfinite(np.abs(w))) for w in euler_report["omega_hat"])
        assert all(np.isfinite(s) and s > 0 for s in euler_report["sup_norms"])

    def test_partial_sum_stabilises(self, euler_report):
        assert euler_report["partial_sum_change"] < 0.01
        # the stacked transforms give the per-term loop's numbers, bit for bit
        alpha, t, omega = euler_report["alpha_eig"], euler_report["t_check"], euler_report["omega_hat"]
        assert euler_report["sup_norms"] == [float(np.max(np.abs(np.fft.ifft2(w).real))) for w in omega]
        s3, s4 = (np.fft.ifft2(sum(np.exp(n * alpha * t) * w for n, w in enumerate(omega[:k], 1))).real for k in (3, 4))
        assert euler_report["partial_sum_change"] == float(np.max(np.abs(s4 - s3)) / np.max(np.abs(s3)))

    def test_resolvent_ratios_reported(self, euler_report):
        assert len(euler_report["h1_ratios"]) == 3
        assert all(np.isfinite(r) and r > 0 for r in euler_report["h1_ratios"])

    def test_short_wave_stable(self, monkeypatch):
        # cos y is linearly stable to x-wavenumbers above 1
        monkeypatch.setattr(instability, "KX0", 1.5)
        with pytest.raises(NotUnstableError):
            euler_series(make_profile("kolmogorov"), N=2, modes=16)

    def test_non_torus_rejected(self):
        with pytest.raises(ConfigurationError):
            euler_series(make_profile("poiseuille"), N=2, modes=16)

    def test_resonance_names_first_wavenumber(self, euler_report, monkeypatch):
        # make the shifted blocks at kx = 1 and kx = 1.5 singular at order 2
        # (2 alpha + block = diag(0, 1, ..., 1)); the error names n and the
        # first of them in fft order
        alpha = euler_report["alpha_eig"]

        def resonant(U_hat, Upp_hat, kx, m_list):
            out = _shear_block(U_hat, Upp_hat, kx, m_list)
            if np.ndim(kx) == 1:
                rank_deficient = np.diag(np.r_[0.0, np.ones(m_list.size - 1)])
                out[np.isin(kx, (1.0, 1.5))] = rank_deficient - 2 * alpha * np.eye(m_list.size)
            return out

        monkeypatch.setattr(instability, "_shear_block", resonant)
        with pytest.raises(ResonanceError, match=r"order n=2, x-wavenumber 1$"):
            euler_series(make_profile("kolmogorov"), N=4, modes=16)

    def test_resonance_on_exactly_zero_block(self, euler_report, monkeypatch):
        # a block of -2 alpha I makes the shifted block at order 2 exactly
        # zero; that is a resonance, not a numpy LinAlgError
        alpha = euler_report["alpha_eig"]

        def resonant(U_hat, Upp_hat, kx, m_list):
            out = _shear_block(U_hat, Upp_hat, kx, m_list)
            if np.ndim(kx) == 1:
                out[kx == 1.0] = -2 * alpha * np.eye(m_list.size)
            return out

        monkeypatch.setattr(instability, "_shear_block", resonant)
        with pytest.raises(ResonanceError, match=r"order n=2, x-wavenumber 1$"):
            euler_series(make_profile("kolmogorov"), N=4, modes=16)

    def test_terms_vanish_off_paired_modes(self, euler_report):
        # every order lives on the y-modes |m| <= 7 of the one truncated
        # system: the Nyquist column is exactly zero, not rounding-level
        system = _euler_system(make_profile("kolmogorov"), 16)
        np.testing.assert_array_equal(system.m, np.arange(-7, 8))
        off = np.setdiff1d(np.arange(16), system.slots)
        np.testing.assert_array_equal(off, [8])
        for w in euler_report["omega_hat"]:
            assert np.all(w[:, off] == 0)
            assert np.any(w[:, system.slots] != 0)

    def test_partial_sums_converge_to_direct_flow(self):
        # the flow from eps omega_1, integrated to eps e^{alpha T} = 0.01, is
        # approached 10x better by each order of the series, to 1e-8 at
        # order 5 (1.7e-10 measured at 16 modes; a series that mixes two
        # truncations levels off at 9.4e-5 from order 3 on)
        p, eps = make_profile("kolmogorov"), 1e-6
        rep = euler_series(p, N=5, modes=16)
        alpha = rep["alpha_eig"]
        T = np.log(0.01 / eps) / alpha.real
        wT, _ = _euler_flow(_euler_system(p, 16), eps * rep["omega_hat"][0], T)
        flow = np.fft.ifft2(wT).real
        partial = np.cumsum([(eps * np.exp(alpha * T)) ** n * w
                             for n, w in enumerate(rep["omega_hat"], 1)], axis=0)
        errors = [float(np.max(np.abs(np.fft.ifft2(s).real - flow)) / np.max(np.abs(flow)))
                  for s in partial]
        assert all(b <= 0.1 * a for a, b in zip(errors, errors[1:])), errors
        assert errors[-1] <= 1e-8, errors

    def test_escape_time_slope_is_inverse_growth_rate(self):
        # the time for eps omega_1 to reach sup |omega| = 0.1 grows like
        # log(1 / eps) / Re alpha: the paper's log nu^{-1} on the flow itself
        p = make_profile("kolmogorov")
        rep = euler_series(p, N=1, modes=16)
        system = _euler_system(p, 16)
        eps = 10.0 ** -np.arange(4, 9)
        times = []
        for e in eps:
            _, sol = _euler_flow(system, e * rep["omega_hat"][0], 80.0,
                                 event=lambda w: np.max(np.abs(np.fft.ifft2(w).real)) - 0.1)
            times.append(sol.t_events[0][0])
        slope = np.polyfit(np.log(1.0 / eps), times, 1)[0]
        assert abs(slope * rep["alpha_eig"].real - 1.0) <= 0.01, slope

    def test_Q_on_stacked_pairs_matches_each_pair(self, euler_report):
        # Q reads any leading axes: on a stack of pairs it zeroes each pair's
        # psi mode (0, 0), not a row of the first pair, and every product is
        # the single call's, bit for bit; random pairs with a nonzero mean
        # vorticity show the zero mode's handling
        system = _euler_system(make_profile("kolmogorov"), 16)
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 3, 16, 16)) + 1j * rng.standard_normal((2, 3, 16, 16))
        for wu, w in ((a, b), (np.array(euler_report["omega_hat"][:3]), np.array(euler_report["omega_hat"][2::-1]))):
            stacked = system.Q(wu, w)
            for k in range(3):
                np.testing.assert_array_equal(stacked[k], system.Q(wu[k], w[k]))

    def test_stacked_blocks_match_single(self):
        rng = np.random.default_rng(3)
        U_hat, Upp_hat = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
        m = np.fft.fftfreq(16, d=1.0 / 16).astype(int)
        kx = 0.5 * np.array([1, 2, -3, -8])
        stack = _shear_block(U_hat, Upp_hat, kx, m)
        for block, k in zip(stack, kx):
            np.testing.assert_array_equal(block, _shear_block(U_hat, Upp_hat, k, m))


@pytest.mark.parametrize("n", [8, 9])
def test_toeplitz_conv_matches_double_loop(n):
    # m_list spans differences up to 2n - 2: at and beyond Nyquist the
    # matrix entry has no coefficient and stays 0
    rng = np.random.default_rng(n)
    coef = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m_list = np.arange(-(n - 1), n)
    ref = np.zeros((m_list.size, m_list.size), dtype=complex)
    for a, ma in enumerate(m_list):
        for b, mb in enumerate(m_list):
            if -(n // 2) < ma - mb < n // 2:
                ref[a, b] = coef[(ma - mb) % n]
    np.testing.assert_array_equal(_toeplitz_conv(coef, m_list), ref)
