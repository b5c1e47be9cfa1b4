import warnings

import numpy as np
import pytest
from scipy.fft import dct
from scipy.optimize import brentq, minimize_scalar

from shearstab import stability
from shearstab.errors import (
    ConfigurationError,
    CriticalLayerError,
    InputError,
    NumericalError,
    WindowError,
)
from shearstab.profiles import CHANNEL, HALF_LINE, ShearProfile, blasius_solve, make_profile
from shearstab.spectral import build_grid
from shearstab.stability import (
    NeutralBranch,
    _pencil,
    _refine_eigenpair,
    _residuals,
    _tail_fractions,
    fit_exponents,
    max_growth_rate,
    neutral_curve,
    os_spectrum,
    rayleigh_resolvent,
    rayleigh_spectrum,
)


@pytest.fixture(scope="module")
def half_grid():
    return build_grid(128, HALF_LINE, map_scale=4.0)


@pytest.fixture(scope="module")
def half_grid_fine():
    return build_grid(256, HALF_LINE, map_scale=4.0)


class TestRayleighSpectrum:
    def test_exponential_stable(self, half_grid):
        # no inflection point: every accepted mode is neutral or damped
        sol = rayleigh_spectrum(make_profile("exponential"), 1.0, half_grid)
        assert all(c.imag <= 1e-6 for c in sol.eigenvalues)

    def test_tanh_unstable_mode(self):
        p = make_profile("tanh", z0=1.0)
        sol = rayleigh_spectrum(p, 0.5, build_grid(192, HALF_LINE, map_scale=4.0))
        unstable = [c for c in sol.eigenvalues if c.imag > 1e-6]
        assert len(unstable) == 1
        # oracle: doubled resolution reproduces the eigenvalue
        sol2 = rayleigh_spectrum(p, 0.5, build_grid(384, HALF_LINE, map_scale=4.0))
        unstable2 = [c for c in sol2.eigenvalues if c.imag > 1e-6]
        assert len(unstable2) == 1
        assert abs(unstable[0] - unstable2[0]) < 1e-6

    def test_tanh_short_wave_stable(self, half_grid, half_grid_fine):
        p = make_profile("tanh", z0=1.0)
        for g in (half_grid, half_grid_fine):
            sol = rayleigh_spectrum(p, 20.0, g)
            assert all(c.imag <= 1e-6 for c in sol.eigenvalues)

    def test_residual_gate(self, half_grid):
        sol = rayleigh_spectrum(make_profile("tanh", z0=1.0), 0.5, half_grid)
        assert all(r <= 1e-6 for r in sol.residuals)

    def test_bad_alpha(self, half_grid):
        with pytest.raises(ConfigurationError):
            rayleigh_spectrum(make_profile("exponential"), -1.0, half_grid)

    def test_domain_mismatch(self, half_grid):
        with pytest.raises(ConfigurationError):
            rayleigh_spectrum(make_profile("poiseuille"), 1.0, half_grid)


class TestNonFiniteParameters:
    """NaN and inf wavenumbers and Reynolds numbers are rejected up front; they
    used to reach the eigensolver and fail there (SVD did not converge)."""

    @pytest.mark.parametrize("alpha, Re", [
        (np.nan, 100.0), (np.inf, 100.0), (1.0, np.nan), (1.0, np.inf),
    ])
    def test_os_spectrum(self, half_grid, alpha, Re):
        with pytest.raises(ConfigurationError, match="finite"):
            os_spectrum(make_profile("tanh", z0=1.0), alpha, Re, half_grid)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_rayleigh_spectrum(self, half_grid, alpha):
        with pytest.raises(ConfigurationError, match="finite"):
            rayleigh_spectrum(make_profile("tanh", z0=1.0), alpha, half_grid)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_rayleigh_resolvent(self, half_grid, alpha):
        with pytest.raises(ConfigurationError, match="finite"):
            rayleigh_resolvent(make_profile("exponential"), alpha, 1.5 + 0.2j,
                               lambda z: np.exp(-z), half_grid)


def _uniform_profile():
    """U == 1, U'' == 0 on the half line (for manufactured resolvent solves)."""
    return ShearProfile(
        "custom",
        HALF_LINE,
        lambda z: np.ones_like(np.asarray(z, dtype=float)),
        lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        lambda z: np.zeros_like(np.asarray(z, dtype=float)),
    )


class TestRayleighResolvent:
    def test_manufactured_solution(self, half_grid):
        # (U - c) == 1: the equation reads (D2 - 1) phi = -2 e^{-z}, phi = z e^{-z}
        p = _uniform_profile()
        phi = rayleigh_resolvent(p, 1.0, 0.0, lambda z: -2.0 * np.exp(-z), half_grid)
        y = half_grid.nodes
        exact = np.where(np.isfinite(y), y * np.exp(-np.where(np.isfinite(y), y, 0.0)), 0.0)
        exact[0] = 0.0
        assert np.max(np.abs(phi - exact)) < 1e-8
        assert abs(phi[-1]) < 1e-12  # phi(0) = 0

    def test_linearity(self, half_grid):
        p = _uniform_profile()
        src = lambda z: -2.0 * np.exp(-z)
        phi1 = rayleigh_resolvent(p, 1.0, 0.0, src, half_grid)
        phi2 = rayleigh_resolvent(p, 1.0, 0.0, lambda z: 2.0 * src(z), half_grid)
        assert np.max(np.abs(phi2 - 2.0 * phi1)) < 1e-12

    def test_critical_layer_error(self, half_grid):
        p = make_profile("exponential")
        z0 = half_grid.nodes[half_grid.N // 2]
        with pytest.raises(CriticalLayerError):
            rayleigh_resolvent(p, 1.0, complex(p.U(z0)), lambda z: np.exp(-z), half_grid)

    def test_conjugation(self, half_grid):
        # real profile: conjugating (c, source) conjugates the response
        p = make_profile("exponential")
        c = 1.5 + 0.2j
        src = lambda z: np.exp(-z) * (1.0 + 0.5j)
        phi = rayleigh_resolvent(p, 1.0, c, src, half_grid)
        phic = rayleigh_resolvent(p, 1.0, np.conj(c), lambda z: np.conj(src(z)), half_grid)
        assert np.max(np.abs(phic - np.conj(phi))) < 1e-10

    def test_domain_mismatch(self):
        # a half-line profile on a channel grid is rejected as rayleigh_spectrum
        # rejects it, not solved on the wrong domain
        with pytest.raises(ConfigurationError, match="domain"):
            rayleigh_resolvent(make_profile("exponential"), 1.0, 0.5 + 0.1j,
                               lambda z: np.exp(-z), build_grid(64, CHANNEL))


@pytest.fixture(scope="module")
def chan():
    return build_grid(128, CHANNEL)


class TestOrrSommerfeld:
    def test_poiseuille_benchmark(self, chan):
        p = make_profile("poiseuille")
        sol = os_spectrum(p, 1.0, 1e4, chan)
        c0 = sol.eigenvalues[0]
        assert c0.real == pytest.approx(0.2375, abs=2e-3)
        assert c0.imag == pytest.approx(0.0037, abs=2e-3)
        # oracle: doubled resolution agrees to 1e-5
        sol2 = os_spectrum(p, 1.0, 1e4, build_grid(256, CHANNEL))
        assert abs(c0 - sol2.eigenvalues[0]) < 1e-5

    def test_low_Re_damped(self, chan):
        sol = os_spectrum(make_profile("poiseuille"), 1.0, 1.0, chan)
        assert all(c.imag < 0 for c in sol.eigenvalues)
        sol2 = os_spectrum(make_profile("poiseuille"), 1.0, 1.0, build_grid(256, CHANNEL))
        assert all(c.imag < 0 for c in sol2.eigenvalues)

    def test_clamped_modes(self, chan):
        sol = os_spectrum(make_profile("poiseuille"), 1.0, 1e4, chan)
        D1 = chan.D1
        for k in range(sol.modes.shape[1]):
            phi = sol.modes[:, k]
            dphi = D1 @ phi
            assert abs(phi[0]) + abs(dphi[0]) <= 1e-10
            assert abs(phi[-1]) + abs(dphi[-1]) <= 1e-10

    def test_resolution_warning(self):
        with pytest.warns(UserWarning, match="resolution guidance"):
            os_spectrum(make_profile("poiseuille"), 1.0, 1e8, build_grid(64, CHANNEL))

    def test_rejected_grid_warns_nothing(self):
        # N = 2 is below the guidance too, but the pencil rejects it first
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigurationError, match="N must be >= 5"):
                os_spectrum(make_profile("poiseuille"), 1.0, 100.0, build_grid(2, CHANNEL))
        assert caught == []

    @pytest.mark.filterwarnings("ignore:N=200 below resolution guidance")
    @pytest.mark.parametrize("N", [200, 320, 480])
    def test_re1e7_mode_kept(self, N):
        # the unstable Poiseuille mode at Re = 1e7, alpha = 0.25 must survive
        # every resolution, not only the N = 200 and 320 that resolve it
        sol = os_spectrum(make_profile("poiseuille"), 0.25, 1e7, build_grid(N, CHANNEL))
        assert abs(sol.eigenvalues[0] - (0.0301697 + 0.00192359j)) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.15, 0.175, 0.2])
    def test_polish_kept_at_roundoff(self, alpha):
        # the three polished Blasius modes are fixed points of the polish:
        # two more Rayleigh-quotient steps move each by less than 1e-10 (an
        # unpolished eigenvalue there is up to about 1e-7 away)
        p = blasius_solve(1e-10)
        grid = build_grid(160, HALF_LINE, map_scale=6.0)
        Re = 400.0
        sol = os_spectrum(p, alpha, Re, grid)
        A, B, _, _ = _pencil(p, alpha, grid, 1.0 / (1j * alpha * Re), "clamped")
        for k in range(3):
            c, _ = _refine_eigenpair(A, B, sol.eigenvalues[k], sol.modes[:, k])
            assert abs(c - sol.eigenvalues[k]) <= 1e-10

    def test_eigensolver_failure_names_condition(self, chan, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(stability.np.linalg, "eig", fail)
        with pytest.raises(NumericalError, match=r"cond\(B_r\)"):
            os_spectrum(make_profile("poiseuille"), 1.0, 1e4, chan)

    def test_gates_match_per_mode_loop(self, chan):
        # the batched residuals and Chebyshev tails against one mode at a time;
        # GEMM and GEMV round differently, so the residuals agree to 1e-10,
        # four orders below RESIDUAL_GATE
        A, B, _, scale = _pencil(make_profile("poiseuille"), 1.0, chan, 1.0 / (1j * 1e4), "clamped")
        cs, V = np.linalg.eig(np.linalg.solve(B + np.eye(chan.n_nodes), A))
        res, tail = _residuals(A, B, cs, V, scale), _tail_fractions(V)
        N = chan.N
        for k in range(0, chan.n_nodes, 7):
            c, phi = cs[k], V[:, k]
            r = np.linalg.norm(A @ phi - c * (B @ phi)) / (np.linalg.norm(phi) * (scale + abs(c)))
            a = np.abs(dct(phi.real, type=1) + 1j * dct(phi.imag, type=1))
            a[[0, -1]] /= 2.0
            assert res[k] == pytest.approx(r, abs=1e-10)
            assert tail[k] == pytest.approx(a[2 * N // 3:].sum() / a.sum(), rel=1e-13)

    def test_orszag_critical_point(self):
        # Orszag (J. Fluid Mech. 50, 1971): Re_c = 5772.22 at alpha_c = 1.02056;
        # Brent's method on Re of the peak growth rate over alpha, at N = 80
        p = make_profile("poiseuille")
        grid = build_grid(80, CHANNEL)

        def peak(Re):
            opt = minimize_scalar(lambda a: -max_growth_rate(p, a, Re, grid),
                                  bounds=(0.9, 1.1), method="bounded",
                                  options={"xatol": 1e-7})
            return -opt.fun, opt.x

        Re_c = brentq(lambda Re: peak(Re)[0], 5000.0, 6500.0, xtol=1e-3)
        assert Re_c == pytest.approx(5772.22, abs=0.6)
        assert peak(Re_c)[1] == pytest.approx(1.02056, abs=1e-4)

    def test_inviscid_limit_tanh(self, half_grid):
        # leading viscous eigenvalue approaches the inviscid one as Re grows
        p = make_profile("tanh", z0=1.0)
        c_ray = max(rayleigh_spectrum(p, 0.5, half_grid).eigenvalues, key=lambda c: c.imag)
        gaps = []
        for Re in (1e3, 1e4, 1e5):
            sol = os_spectrum(p, 0.5, Re, build_grid(192, HALF_LINE, map_scale=4.0))
            gaps.append(abs(sol.eigenvalues[0] - c_ray))
        assert gaps[1] / gaps[0] < 1.0
        assert gaps[2] / gaps[1] < 1.0


@pytest.fixture(scope="module")
def branches():
    p = make_profile("poiseuille")
    return neutral_curve(p, [4000, 6000, 8000, 10000], (0.6, 1.4), N=96)


class TestNeutralCurve:
    def test_first_supercritical(self, branches):
        lower, _ = branches
        assert lower.subcritical_Re, "expected a subcritical Re"
        first = min(re for re, _ in lower.points)
        assert max(lower.subcritical_Re) < first
        assert 5000 <= first <= 6500
        alpha_first = dict(lower.points)[first]
        assert alpha_first == pytest.approx(1.0, abs=0.15)

    def test_subcritical_at_4000(self, branches):
        lower, upper = branches
        assert 4000.0 in lower.subcritical_Re
        assert all(re != 4000.0 for re, _ in lower.points + upper.points)

    def test_band_ordering(self, branches):
        lower, upper = branches
        up = dict(upper.points)
        for re, a_low in lower.points:
            assert a_low < up[re]

    def test_sorted_in_Re(self, branches):
        for br in branches:
            res = [re for re, _ in br.points]
            assert res == sorted(res)

    def test_edges_within_alpha_tol(self, branches):
        # the default alpha_tol is 1e-4; each edge is within half of it of the crossing
        grid = build_grid(96, CHANNEL)
        p = make_profile("poiseuille")
        for br in branches:
            for re, a in br.points:
                below = max_growth_rate(p, a - 0.5e-4, re, grid)
                above = max_growth_rate(p, a + 0.5e-4, re, grid)
                assert (below > 0) != (above > 0), (br.side, re, a)

    def test_window_too_narrow(self):
        p = make_profile("poiseuille")
        with pytest.raises(WindowError):
            neutral_curve(p, [10000], (0.9, 1.05), N=96)

    def test_unsorted_Re_rejected(self):
        with pytest.raises(ConfigurationError):
            neutral_curve(make_profile("poiseuille"), [8000, 6000], (0.6, 1.4), N=32)

    @pytest.mark.parametrize("tol", [0.0, -1e-4, np.nan])
    def test_alpha_tol_checked(self, tol):
        # brentq used to reject xtol = 0 only after the scan, as a ValueError
        with pytest.raises(ConfigurationError, match="alpha_tol must be positive"):
            neutral_curve(make_profile("poiseuille"), [6000], (0.8, 1.2), N=32, alpha_tol=tol)


class TestFitExponents:
    def test_recovers_power_law(self):
        re = np.geomspace(1e4, 1e6, 8)
        br = NeutralBranch([(r, 3.0 * r ** (-1.0 / 7.0)) for r in re], "lower")
        slope, intercept, r2 = fit_exponents(br, (1e4, 1e6))
        assert slope == pytest.approx(-1.0 / 7.0, abs=1e-12)
        assert intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert br.fit["slope"] == pytest.approx(slope)

    def test_insufficient_points(self):
        br = NeutralBranch([(1e4, 0.5), (2e4, 0.4), (4e4, 0.3)], "lower")
        with pytest.raises(InputError):
            fit_exponents(br, (1e3, 1e6))
