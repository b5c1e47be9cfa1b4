import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, solve_ivp

from shearstab.errors import (
    ConfigurationError,
    InputError,
    NotUnstableError,
    WindowError,
)
from shearstab.instability import (
    _gen_eval,
    _gen_tables,
    _riccati_formula,
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

    def test_amplitude_floor(self, scalar_boot):
        assert scalar_boot.sigma0 == pytest.approx(0.5 * np.exp(-scalar_boot.sigma))
        assert scalar_boot.T1 == pytest.approx(
            -np.log(1e-3) - scalar_boot.sigma, rel=1e-12
        )
        assert np.isfinite(scalar_boot.escape_time)

    def test_escape_time_scaling(self):
        # first crossing of sigma0 happens at -log(eps)/Re(lambda) + O(1)
        epss = [1e-3, 1e-4, 1e-5]
        times = []
        for eps in epss:
            tg = np.linspace(0.0, -np.log(eps) + 4.0, 81)
            r = ode_bootstrap(
                np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.0, eps, 5, tg
            )
            times.append(r.escape_time)
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

    def test_bad_eigenpair(self):
        with pytest.raises(InputError):
            ode_bootstrap(
                np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.5, 1e-3,
                5, np.linspace(0, 5, 11),
            )

    def test_decaying_rate_rejected(self):
        with pytest.raises(InputError):
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


class TestRiccatiExact:
    def test_saturation_limit(self):
        r = riccati_exact(0.1, -1.0, 0.01, 1e6)
        assert r.limit == pytest.approx(0.1)
        assert r.value == pytest.approx(0.1)
        assert not r.blown_up

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
        with pytest.raises(InputError):
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
        R = s.sup_ratio(n_min=5)
        assert 0.0 < R < 2.0
        # the measured bound really dominates the late ratios
        norms = [s.sup_norm(n) for n in range(1, 21)]
        for n in range(5, 20):
            assert norms[n] <= R * norms[n - 1] * (1 + 1e-12)

    def test_partial_sum_residual_order(self):
        # defect of the order-N sum has leading time order e^{(N+1) alpha t}
        s = hopf_series(COS, 1.0, 8)
        ts = np.linspace(-3.0, -1.5, 7)
        slope = np.polyfit(ts, np.log([s.residual_sup(t) for t in ts]), 1)[0]
        assert slope == pytest.approx(9.0, rel=0.05)

    def test_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            hopf_series(COS, -1.0, 5)


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
        assert series.phi_t(rep["T_ramp"]) == pytest.approx(0.5, abs=1e-12)
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
            assert series.majorant[k - 1][0] >= series.sup_norm(k) - 1e-12

    def test_bad_window(self):
        series = hopf_series(COS, 1.0, 6)
        with pytest.raises(WindowError):
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

    def test_fields_match_scalar_double_sum(self, report):
        series, _ = report
        gens = series.majorant
        table, table_t, table_z = _gen_tables(gens)
        for t, z in [(0.0, 0.0), (0.0, 0.25), (0.01, 0.1), (0.03, 0.2), (0.05, 0.25)]:
            G, G_t, G_z = _scalar_fields(gens, t, z)
            assert _gen_eval(table, t, z) == pytest.approx(G, rel=1e-13)
            assert _gen_eval(table_t, t, z) == pytest.approx(G_t, rel=1e-13)
            assert _gen_eval(table_z, t, z) == pytest.approx(G_z, rel=1e-13)


def _scalar_fields(gens, t, z):
    """G, G_t and G_z of the truncated generator as scalar double sums over
    the terms k and the derivative orders m: the reference for ``_gen_eval``."""

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

    def test_resolvent_ratios_reported(self, euler_report):
        assert len(euler_report["h1_ratios"]) == 3
        assert all(np.isfinite(r) and r > 0 for r in euler_report["h1_ratios"])

    def test_short_wave_stable(self):
        # cos y is linearly stable to x-wavenumbers above 1
        with pytest.raises(NotUnstableError):
            euler_series(make_profile("kolmogorov"), N=2, modes=16, kx0=1.5)

    def test_non_torus_rejected(self):
        with pytest.raises(ConfigurationError):
            euler_series(make_profile("poiseuille"), N=2, modes=16)
