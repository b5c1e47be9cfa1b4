import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.fft import dct
from scipy.optimize import brentq, minimize_scalar

from shearstab import stability
from shearstab.errors import (
    ConfigurationError,
    CriticalLayerError,
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

    @pytest.mark.parametrize("N", [128, 160])
    def test_neutral_modes_rank_by_phase_speed(self, N):
        # Poiseuille has no inflection point and its Rayleigh modes are
        # neutral: every accepted Im c is rounding (below 1e-13 at both N), so
        # they rank as Im c = 0 and the order follows Re c, descending
        sol = rayleigh_spectrum(make_profile("poiseuille"), 1.0, build_grid(N, CHANNEL))
        cs = np.array(sol.eigenvalues)
        assert len(cs) >= 5
        assert np.all(np.abs(cs.imag) <= 1e-12)
        assert np.all(np.diff(cs.real) < 0)

    @pytest.mark.parametrize("kind, grid", [
        ("tanh", build_grid(128, HALF_LINE, map_scale=4.0)),
        ("poiseuille", build_grid(128, CHANNEL)),
    ])
    def test_real_pencil(self, kind, grid):
        # the Rayleigh pencil is real, so its eigensolves are; the spectrum
        # is the one a complex cast of the same pencil gives
        p = make_profile(kind, z0=1.0) if kind == "tanh" else make_profile(kind)
        A, B, bc_idx, scale, parities = _pencil(p, 0.5, grid, 0.0)
        assert A.dtype == B.dtype == np.float64
        sol = rayleigh_spectrum(p, 0.5, grid)
        ref = stability._solve_pencil(A.astype(complex), B.astype(complex), bc_idx, scale, parities,
                                      0.5, "inviscid")
        assert len(sol.eigenvalues) == len(ref.eigenvalues) >= 2
        assert np.max(np.abs(np.array(sol.eigenvalues) - ref.eigenvalues)) <= 1e-10
        if kind == "poiseuille":  # neutral modes: a real eigensolve gives Im c = 0 exactly
            assert all(c.imag == 0.0 for c in sol.eigenvalues)

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

    @pytest.mark.parametrize("alpha, Re", [
        (0.05, 5e-324),   # alpha Re underflows to 0: a ZeroDivisionError
        (1e-10, 1e-300),  # eps = 1/(i alpha Re) overflows
        (1.0, 1e-300),    # eps D4 overflows: numpy's SVD did not converge
    ])
    def test_os_spectrum_at_float_limits(self, half_grid, alpha, Re):
        with pytest.raises(ConfigurationError, match="not finite"):
            os_spectrum(make_profile("exponential"), alpha, Re, half_grid)

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
    @pytest.mark.parametrize("kind, alpha, Re, N, leader, tol", [
        # the unstable Poiseuille mode at Re = 1e7, alpha = 0.25 must survive
        # every resolution, not only the N = 200 and 320 that resolve it
        *(pytest.param("poiseuille", 0.25, 1e7, N, 0.0301697 + 0.00192359j, 1e-6, id=f"poiseuille-Re1e7-N{N}")
          for N in (200, 320, 480)),
        # Orszag's leading eigenvalue, polished on the even half-order block
        pytest.param("poiseuille", 1.0, 1e4, 128, 0.23752649 + 0.00373967j, 1e-7, id="poiseuille-Re1e4-N128"),
        # a half-line leader, polished on the one block of the reduced pencil
        # (N = 512 agrees to 4e-11)
        pytest.param("tanh", 0.5, 1e6, 256, 0.67732175212 + 0.10743131916j, 1e-9, id="tanh-Re1e6-N256"),
        # its inviscid limit on the real one-block Rayleigh path (N = 512
        # agrees to 1.4e-11)
        pytest.param("tanh", 0.5, None, 256, 0.67693478362 + 0.10764205527j, 1e-9, id="tanh-rayleigh-N256"),
    ])
    def test_unstable_leader(self, kind, alpha, Re, N, leader, tol):
        # the leader is the one unstable mode, at its reference value; the
        # half-line grid has the CLI's map scale, 4
        p = make_profile(kind, z0=1.0) if kind == "tanh" else make_profile(kind)
        grid = build_grid(N, p.domain, map_scale=4.0)
        sol = os_spectrum(p, alpha, Re, grid) if Re else rayleigh_spectrum(p, alpha, grid)
        assert abs(sol.eigenvalues[0] - leader) <= tol
        assert sum(c.imag > 1e-6 for c in sol.eigenvalues) == 1

    @pytest.mark.parametrize("alpha", [0.15, 0.175, 0.2])
    def test_polish_kept_at_roundoff(self, alpha):
        # the three polished Blasius modes are fixed points of the polish:
        # two more Rayleigh-quotient steps move each by less than 1e-10 (an
        # unpolished eigenvalue there is up to about 1e-7 away)
        p = blasius_solve(1e-10)
        grid = build_grid(160, HALF_LINE, map_scale=6.0)
        Re = 400.0
        sol = os_spectrum(p, alpha, Re, grid)
        A, B, *_ = _pencil(p, alpha, grid, 1.0 / (1j * alpha * Re))
        for k in range(3):
            c, _ = _refine_eigenpair(A, B, sol.eigenvalues[k], sol.modes[:, k])
            assert abs(c - sol.eigenvalues[k]) <= 1e-10

    @pytest.mark.parametrize("alpha, Re, N", [(1.0, 1e4, 160), (0.25, 1e7, 320)])
    def test_polish_kept_at_roundoff_poiseuille(self, alpha, Re, N):
        # the Poiseuille leaders are polished on the even or odd half-order
        # block; on the full pencil they are fixed points of the polish too
        p = make_profile("poiseuille")
        grid = build_grid(N, CHANNEL)
        sol = os_spectrum(p, alpha, Re, grid)
        A, B, *_ = _pencil(p, alpha, grid, 1.0 / (1j * alpha * Re))
        for k in range(3):
            c, _ = _refine_eigenpair(A, B, sol.eigenvalues[k], sol.modes[:, k])
            assert abs(c - sol.eigenvalues[k]) <= 1e-10

    def test_block_polish_matches_full_pencil(self):
        # each leader polished on the reduced block of its parity and lifted
        # back is the pair that the full-pencil polish finds, with a residual
        # at roundoff and, on an even or odd block, the symmetry of its parity
        cases = [
            (make_profile("poiseuille"), 0.25, 1e7, build_grid(320, CHANNEL), 1e-11),
            (make_profile("exponential"), 0.1, 1e6, build_grid(192, HALF_LINE, map_scale=4.0), 1e-10),
            (blasius_solve(1e-10), 0.175, 400.0, build_grid(160, HALF_LINE, map_scale=6.0), 1e-10),
        ]
        for p, alpha, Re, grid, tol in cases:
            A, B, bc_idx, scale, parities = _pencil(p, alpha, grid, 1.0 / (1j * alpha * Re))
            red = stability._Reduction(A, B, bc_idx, parities)
            cs, parity, V = red.eig(alpha, Re, vectors=True)
            smooth = np.flatnonzero(_tail_fractions(V) <= stability.TAIL_GATE)
            for j in smooth[np.argsort(-cs[smooth].imag)][:3]:
                w = V[red.i, j][:len(red.blocks[parity[j]][0])]
                c, _, phi = red.refine(cs[j], w, parity[j])
                c_full, _ = _refine_eigenpair(A, B, cs[j], V[:, j])
                assert abs(c - c_full) <= tol
                assert _residuals(A, B, c, phi[:, None], scale)[0] <= 1e-11
                if parity[j]:
                    assert np.max(np.abs(phi - parity[j] * phi[::-1])) <= 1e-12 * np.max(np.abs(phi))

    def test_eigensolver_failure_names_condition(self, chan, half_grid, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(stability.np.linalg, "eig", fail)
        with pytest.raises(NumericalError, match=r"cond\(B_r\)"):
            os_spectrum(make_profile("poiseuille"), 1.0, 1e4, chan)
        with pytest.raises(NumericalError, match=r"cond\(B_r\)"):
            os_spectrum(make_profile("exponential"), 0.2, 1e4, half_grid)

    def test_gates_match_per_mode_loop(self, chan):
        # the batched residuals and Chebyshev tails against one mode at a time;
        # GEMM and GEMV round differently, so the residuals agree to 1e-10,
        # four orders below RESIDUAL_GATE
        A, B, _, scale, _ = _pencil(make_profile("poiseuille"), 1.0, chan, 1.0 / (1j * 1e4))
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

    @pytest.mark.parametrize("N", [96, 128])
    def test_orszag_critical_point_tight(self, N):
        # Orszag's (Re_c, alpha_c) = (5772.22, 1.02056) is neutral to within
        # the rounding of its quoted digits (-3.0e-9 measured at both N); the
        # growth rate changes sign across Re_c and peaks in alpha there
        # (about 2e-5 at each probe)
        p = make_profile("poiseuille")
        grid = build_grid(N, CHANNEL)
        assert abs(max_growth_rate(p, 1.02056, 5772.22, grid)) <= 1e-8
        assert max_growth_rate(p, 1.02056, 5760.0, grid) < 0.0
        assert max_growth_rate(p, 1.02056, 5785.0, grid) > 0.0
        assert max_growth_rate(p, 1.01, 5772.22, grid) < 0.0
        assert max_growth_rate(p, 1.03, 5772.22, grid) < 0.0

    def test_no_accepted_mode_raises(self, monkeypatch):
        # a gate that rejects every mode left max_growth_rate at -1, an
        # unstable point (Re 6000 > Re_c) read as stable; it now raises,
        # naming the point and the highest rejected candidate
        monkeypatch.setattr(stability, "TAIL_GATE", -1.0)
        p = make_profile("poiseuille")
        grid = build_grid(64, CHANNEL)
        sol = os_spectrum(p, 1.0, 6000.0, grid)
        assert sol.eigenvalues == () and sol.top_rejected[0].imag > 0
        with pytest.raises(NumericalError, match=r"alpha=1\.0, Re=6000\.0, N=64") as err:
            max_growth_rate(p, 1.0, 6000.0, grid)
        assert repr(sol.top_rejected[0]) in str(err.value)

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


class TestReflectionSplit:
    """Poiseuille pencils are symmetric under y -> -y and are solved as an
    even and an odd block; half-line pencils are one block."""

    def test_matches_qz_of_full_pencil(self, chan):
        # oracle: QZ of the full n x n pencil, infinite eigenvalues included,
        # with each row of (A, B) scaled to unit norm (that leaves the
        # eigenvalues as they are, and QZ's backward error then no longer
        # follows the eps D4 rows).  The junction of the Y-shaped spectrum
        # (Im c < -0.28) is ill-conditioned: there the oracle and any solve
        # differ by up to about 1e-7; above it the two spectra agree to 1e-8,
        # each way
        import scipy.linalg

        p = make_profile("poiseuille")
        sol = os_spectrum(p, 1.0, 1e4, chan)
        A, B, *_ = _pencil(p, 1.0, chan, 1.0 / (1j * 1e4))
        r = 1.0 / np.maximum(np.linalg.norm(A, axis=1), np.linalg.norm(B, axis=1))
        qz = scipy.linalg.eig(r[:, None] * A, r[:, None] * B, right=False)
        qz = qz[np.isfinite(qz)]
        cs = np.array(sol.eigenvalues)
        dist = np.abs(cs[:, None] - qz).min(axis=1)
        assert np.all(dist <= 1e-7)
        assert np.all(dist[cs.imag > -0.28] <= 1e-8)
        assert np.all(dist[:3] <= 1e-9)
        upper = qz[qz.imag > -0.28]
        assert len(upper) >= 20
        assert np.all(np.abs(upper[:, None] - cs).min(axis=1) <= 1e-8)

    def test_modes_even_or_odd(self, chan):
        sol = os_spectrum(make_profile("poiseuille"), 1.0, 1e4, chan)
        M = sol.modes
        even = np.max(np.abs(M - M[::-1]), axis=0)
        odd = np.max(np.abs(M + M[::-1]), axis=0)
        assert np.all(np.minimum(even, odd) <= 1e-8)
        # the Tollmien-Schlichting mode: an even stream function
        assert even[0] <= 1e-8

    def test_eig_calls_per_solve(self, chan, half_grid, monkeypatch):
        eig_orders = []
        eig = np.linalg.eig

        def counted(M):
            eig_orders.append(M.shape[0])
            return eig(M)

        monkeypatch.setattr(stability.np.linalg, "eig", counted)
        # N = 128: the clamped rows leave 125 interior unknowns and the
        # Dirichlet rows 127; U = 1 - z^2 + z^3 / 4 is not even
        skewed = ShearProfile("skewed", CHANNEL, lambda z: 1.0 - z**2 + z**3 / 4,
                              lambda z: -2.0 * z + 0.75 * z**2, lambda z: -2.0 + 1.5 * z)
        cases = [
            (lambda: os_spectrum(make_profile("poiseuille"), 1.0, 1e4, chan), [63, 62]),
            (lambda: rayleigh_spectrum(make_profile("poiseuille"), 1.0, chan), [64, 63]),
            (lambda: os_spectrum(skewed, 1.0, 1e4, chan), [125]),
            (lambda: os_spectrum(make_profile("exponential"), 0.2, 1e4, half_grid), [125]),
            (lambda: rayleigh_spectrum(make_profile("tanh", z0=1.0), 0.5, half_grid), [127]),
        ]
        for solve, orders in cases:
            eig_orders.clear()
            solve()
            assert eig_orders == orders


class TestPencil:
    """eps chooses the boundary rows; the pencil is assembled in place."""

    @pytest.mark.parametrize("domain, eps, rows", [
        (CHANNEL, 0.0, [0, 32]),
        (CHANNEL, 1e-4j, [0, 1, 31, 32]),
        (HALF_LINE, 0.0, [0, 32]),
        (HALF_LINE, 1e-4j, [32, 31, 0, 1]),  # the wall is node N, infinity node 0
    ])
    def test_rows_chosen_by_eps(self, domain, eps, rows):
        p = make_profile("poiseuille" if domain == CHANNEL else "exponential")
        A, B, bc_idx, _, _ = _pencil(p, 1.0, build_grid(32, domain), eps)
        assert list(bc_idx) == rows
        assert not B[bc_idx].any() and B[2:-2].any()
        # each row scaled to the operator norm of the interior rows
        norms = np.linalg.norm(A[bc_idx], axis=1)
        assert np.allclose(norms, norms[0], rtol=1e-14)
        assert norms[0] >= np.max(np.abs(A[2:-2]).sum(axis=1)) * (1 - 1e-14)

    def test_underflowing_wall_row_rejected(self):
        # at map_scale 1e300 the wall-derivative row underflows to norm 0;
        # scaling it divided by zero, and the run exited 1
        grid = build_grid(48, HALF_LINE, map_scale=1e300)
        with pytest.raises(ConfigurationError, match="boundary row at node 47 has norm 0"):
            _pencil(make_profile("exponential"), 0.1, grid, 1e-4j)

    def test_peak_memory(self):
        # the pencil used to be built through complex n x n temporaries: a
        # peak of 1.77x the bytes of A and B at N = 480, against 1.50x now
        p, grid = make_profile("poiseuille"), build_grid(480, CHANNEL)
        tracemalloc.start()
        try:
            A, B, *_ = _pencil(p, 0.25, grid, 1.0 / (1j * 0.25 * 1e7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (A.nbytes + B.nbytes)

    def test_solve_peak_memory(self):
        # the tail gate transformed the whole eigenvector block at once, and
        # the lift unfolded each parity's vectors into a copy: a peak of 2.50x
        # the bytes of A and B at N = 480, against 2.28x now
        p, grid = make_profile("poiseuille"), build_grid(480, CHANNEL)
        A, B, *_ = _pencil(p, 0.25, grid, 1.0 / (1j * 0.25 * 1e7))
        os_spectrum(p, 0.25, 1e7, grid)
        tracemalloc.start()
        try:
            os_spectrum(p, 0.25, 1e7, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.35 * (A.nbytes + B.nbytes)


class TestGates:
    """The Chebyshev-tail gate runs first and the residual gate only on the
    modes it passes; the solution records what each gate rejected."""

    @pytest.mark.parametrize("N", [32, 33, 64, 96, 127, 255, 480])
    def test_tail_fractions_match_a_dct(self, N):
        # the DCT-I is taken as the FFT of the even extension; the reference
        # is scipy's, on more columns than one block, complex and real
        rng = np.random.default_rng(N)
        V = rng.standard_normal((N + 1, 2 * stability.TAIL_BLOCK + 5))
        V = V + 1j * rng.standard_normal(V.shape)
        for W in (V, V.real):
            a = np.abs(dct(W, type=1, axis=0))
            a[[0, -1]] /= 2.0
            want = a[2 * N // 3:].sum(axis=0) / a.sum(axis=0)
            assert np.max(np.abs(_tail_fractions(W) - want)) <= 1e-15

    @pytest.mark.parametrize("case", ["poiseuille", "exponential", "blasius", "binding"])
    def test_tail_first_accepts_the_same_set(self, case, monkeypatch):
        # oracle: both gates evaluated on every column of the eigensolve.  The
        # residual gate rejects none of these modes at its bound; "binding"
        # lowers it to 1e-12 so that it rejects some
        if case == "binding":
            monkeypatch.setattr(stability, "RESIDUAL_GATE", 1e-12)
        if case in ("poiseuille", "binding"):
            p, alpha, Re, grid = make_profile("poiseuille"), 1.0, 1e4, build_grid(128, CHANNEL)
        elif case == "exponential":
            p, alpha, Re, grid = make_profile(case), 0.1, 1e6, build_grid(192, HALF_LINE, map_scale=4.0)
        else:
            p, alpha, Re, grid = blasius_solve(1e-10), 0.175, 400.0, build_grid(160, HALF_LINE, map_scale=6.0)
        sol = os_spectrum(p, alpha, Re, grid)
        A, B, bc_idx, scale, parities = _pencil(p, alpha, grid, 1.0 / (1j * alpha * Re))
        cs, _, V = stability._Reduction(A, B, bc_idx, parities).eig(alpha, Re, vectors=True)
        res, tail = _residuals(A, B, cs, V, scale), _tail_fractions(V)
        smooth = tail <= stability.TAIL_GATE
        keep = smooth & (res <= stability.RESIDUAL_GATE)
        assert len(sol.eigenvalues) == np.count_nonzero(keep)
        assert (sol.n_residual_rejected > 0) == (case == "binding")
        assert sol.n_tail_rejected == np.count_nonzero(~smooth)
        assert sol.n_residual_rejected == np.count_nonzero(smooth & ~keep)
        assert sol.n_rejected == len(cs) - len(sol.eigenvalues)
        # the same modes: the polished leaders move by far less than 1e-6
        got = np.array(sol.eigenvalues)
        assert np.all(np.abs(got[:, None] - cs[keep]).min(axis=1) <= 1e-6)
        assert np.all(np.abs(cs[keep][:, None] - got).min(axis=1) <= 1e-6)

    def test_orszag_point_no_residual_rejections(self, chan):
        sol = os_spectrum(make_profile("poiseuille"), 1.0, 1e4, chan)
        assert sol.n_residual_rejected == 0
        assert sol.n_tail_rejected == sol.n_rejected > 0

    @pytest.mark.filterwarnings("ignore:N=512 below resolution guidance")
    def test_records_rejected_centre_mode(self):
        # at Re = 1e9, alpha = 0.21 and N = 512 the physical centre mode
        # 0.99976 - 0.00024i fails the tail gate (tail 1.69e-2; at N = 768 it
        # passes) with a small residual: the highest rejected candidate
        sol = os_spectrum(make_profile("poiseuille"), 0.21, 1e9, build_grid(512, CHANNEL))
        c, tail, res = sol.top_rejected
        assert abs(c - (0.99976 - 0.00024j)) <= 1e-5
        assert tail > stability.TAIL_GATE
        assert res < stability.RESIDUAL_GATE

    def test_top_rejected_is_highest(self, chan):
        p = make_profile("poiseuille")
        sol = os_spectrum(p, 1.0, 1e4, chan)
        A, B, bc_idx, _, parities = _pencil(p, 1.0, chan, 1.0 / (1j * 1e4))
        cs, _, V = stability._Reduction(A, B, bc_idx, parities).eig(1.0, 1e4, vectors=True)
        rejected = cs[_tail_fractions(V) > stability.TAIL_GATE]
        assert sol.top_rejected[0] == rejected[np.argmax(rejected.imag)]

    def test_lu_factorizations_per_solve(self, chan, half_grid, monkeypatch):
        # one factorization per polished pair, of the half-order block for
        # Poiseuille (N = 160: 157 interior unknowns, blocks of 79 and 78)
        import scipy.linalg

        orders = []
        lu_factor = scipy.linalg.lu_factor

        def counted(a, *args, **kwargs):
            orders.append(a.shape[0])
            return lu_factor(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
        sol = os_spectrum(make_profile("poiseuille"), 1.0, 1e4, build_grid(160, CHANNEL))
        assert len(sol.eigenvalues) >= 3
        assert 1 <= len(orders) <= 3 and max(orders) <= 81
        orders.clear()
        # and of the reduced pencil, one block, on the half line (N = 128: 125
        # interior unknowns)
        sol = os_spectrum(make_profile("exponential"), 0.2, 1e4, half_grid)
        assert len(sol.eigenvalues) >= 3
        assert orders == [125, 125, 125]


class TestPolishFallback:
    """A polish whose factorization or solve fails keeps the eigensolver's
    pair, which is already at roundoff, and warns nothing on the way."""

    @staticmethod
    def _case(name):
        if name == "poiseuille":
            return make_profile(name), 1.0, 1e4, build_grid(160, CHANNEL)
        return make_profile(name), 0.1, 1e6, build_grid(192, HALF_LINE, map_scale=4.0)

    @pytest.mark.parametrize("failure", ["lu_factor", "lu_solve"])
    @pytest.mark.parametrize("name", ["poiseuille", "exponential"])
    def test_unpolished_leaders(self, name, failure, monkeypatch):
        import scipy.linalg

        p, alpha, Re, grid = self._case(name)
        polished = os_spectrum(p, alpha, Re, grid)

        def raises(*args, **kwargs):
            raise scipy.linalg.LinAlgError("forced failure")

        def nan_solution(lu, b, *args, **kwargs):
            return np.full(np.shape(b), np.nan, dtype=complex)

        monkeypatch.setattr(scipy.linalg, failure,
                            raises if failure == "lu_factor" else nan_solution)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = os_spectrum(p, alpha, Re, grid)
        assert len(sol.eigenvalues) == len(polished.eigenvalues) >= 3
        lead, ref = np.array(sol.eigenvalues[:3]), np.array(polished.eigenvalues[:3])
        assert np.all(np.abs(lead - ref) <= 1e-9)
        assert max(sol.residuals) <= stability.RESIDUAL_GATE


NEUTRAL_CASES = {
    # the branches fixture, and a half-line case
    "poiseuille": (make_profile("poiseuille"), [4000, 6000, 8000, 10000], (0.6, 1.4),
                   dict(N=96)),
    "exponential": (make_profile("exponential"), [3e4, 1e5, 1e6], (0.015, 0.3),
                    dict(N=64, map_scale=4.0, n_scan=12)),
}


def dense_neutral_curve(profile, Re_list, alpha_window, N, map_scale=2.0, n_scan=16, alpha_tol=1e-4):
    """The reference: the max Im c of a dense ``os_spectrum`` at every scan
    point and every step of Brent's method, on the same scan brackets; a
    point with no accepted mode is stable, read as -1 as in neutral_curve's
    own fallback (``max_growth_rate`` raises there)."""
    grid = build_grid(N, profile.domain, map_scale=map_scale)
    alphas = np.linspace(alpha_window[0], alpha_window[1], n_scan)
    lower, upper = NeutralBranch([], "lower"), NeutralBranch([], "upper")
    for Re in Re_list:
        def growth(a):
            return max((c.imag for c in os_spectrum(profile, a, Re, grid).eigenvalues), default=-1.0)

        g = np.array([growth(a) for a in alphas])
        kpos = np.flatnonzero(g > 0)
        if not len(kpos):
            lower.subcritical_Re.append(Re)
            upper.subcritical_Re.append(Re)
            continue
        assert g[0] <= 0 and g[-1] <= 0

        for br, k in ((lower, kpos[0] - 1), (upper, kpos[-1])):
            br.points.append((Re, brentq(growth, alphas[k], alphas[k + 1], xtol=alpha_tol / 2)))
    return lower, upper


@pytest.fixture(scope="module")
def branches():
    p, Re_list, window, kw = NEUTRAL_CASES["poiseuille"]
    return neutral_curve(p, Re_list, window, **kw)


@pytest.fixture(scope="module")
def dense_branches():
    return {name: dense_neutral_curve(p, Re_list, window, **kw)
            for name, (p, Re_list, window, kw) in NEUTRAL_CASES.items()}


@pytest.mark.filterwarnings("ignore:N=64 below resolution guidance")
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

    @pytest.mark.parametrize("case", list(NEUTRAL_CASES))
    def test_tracked_edges_match_dense(self, case, branches, dense_branches):
        # each edge tracked by inverse iteration lies within alpha_tol / 2 of
        # Brent's method on dense solves, and the same Re are subcritical
        p, Re_list, window, kw = NEUTRAL_CASES[case]
        got = branches if case == "poiseuille" else neutral_curve(p, Re_list, window, **kw)
        for br, ref in zip(got, dense_branches[case]):
            assert br.subcritical_Re == ref.subcritical_Re
            assert [re for re, _ in br.points] == [re for re, _ in ref.points]
            assert len(br.points) >= 2
            for (_, a), (_, a_ref) in zip(br.points, ref.points):
                assert abs(a - a_ref) <= 0.5e-4

    @pytest.mark.parametrize("force", [("CONFIRM_TOL", -1.0), ("TRACK_GATE", 0.0)])
    def test_fallback_is_dense_edge(self, force, dense_branches, monkeypatch):
        # a confirmation that rejects every tracked pair, or a tracking that
        # never converges, leaves Brent's method on dense solves: the
        # dense edges, to the last bits the scan's leader may move them
        p, Re_list, window, kw = NEUTRAL_CASES["exponential"]
        monkeypatch.setattr(stability, *force)
        got = neutral_curve(p, Re_list, window, **kw)
        for br, ref in zip(got, dense_branches["exponential"]):
            assert br.subcritical_Re == ref.subcritical_Re
            assert [re for re, _ in br.points] == [re for re, _ in ref.points]
            for (_, a), (_, a_ref) in zip(br.points, ref.points):
                assert abs(a - a_ref) <= 1e-12

    @pytest.mark.parametrize("case, Re, blocks, edges", [
        ("poiseuille", 4000, 2, 0),     # subcritical: the scan alone
        ("poiseuille", 8000, 2, 2),     # even and odd blocks per solve
        ("exponential", 1e5, 1, 2),
    ])
    def test_eigensolves_per_Re(self, case, Re, blocks, edges, monkeypatch):
        # n_scan eigenvalue-only solves, then one solve with eigenvectors per
        # edge, its confirmation; the tracking itself factors, never eigs
        calls = {"eig": 0, "eigvals": 0}

        def counted(name):
            fn = getattr(np.linalg, name)

            def wrapper(M):
                calls[name] += 1
                return fn(M)
            return wrapper

        for name in calls:
            monkeypatch.setattr(stability.np.linalg, name, counted(name))
        p, _, window, kw = NEUTRAL_CASES[case]
        lower, _ = neutral_curve(p, [Re], window, **kw)
        assert len(lower.points) == edges // 2
        assert calls == {"eigvals": blocks * kw.get("n_scan", 16), "eig": blocks * edges}

    def test_window_too_narrow(self):
        p = make_profile("poiseuille")
        with pytest.raises(WindowError, match="lower end alpha=0.9 and upper end alpha=1.05"):
            neutral_curve(p, [10000], (0.9, 1.05), N=96)

    @pytest.mark.filterwarnings("ignore:N=48 below resolution guidance")
    @pytest.mark.parametrize("args, end", [
        ((make_profile("exponential"), [1e5, 1e6], (0.05, 0.3), 48, 4.0), "lower end alpha=0.05 at Re=1e+06"),
        ((make_profile("poiseuille"), [8000], (0.8, 1.0), 64, 2.0), "upper end alpha=1 at Re=8000"),
    ])
    def test_window_error_names_end(self, args, end):
        # the message names the end the band touches and traces the scan:
        # each alpha with its leader's Im c, or "stable"
        p, Re_list, window, N, map_scale = args
        with pytest.raises(WindowError) as info:
            neutral_curve(p, Re_list, window, N=N, map_scale=map_scale)
        msg = str(info.value)
        assert f"touches the alpha window's {end};" in msg
        trace = msg.split("scan trace (alpha: leader's Im c): ")[1].split(", ")
        assert len(trace) == 16
        assert {t.split(": ", 1)[1].split(" = ")[0] for t in trace} == {"stable", "Im c"}

    def test_unsorted_Re_rejected(self):
        with pytest.raises(ConfigurationError):
            neutral_curve(make_profile("poiseuille"), [8000, 6000], (0.6, 1.4), N=32)

    def test_short_scan_rejected(self):
        # fewer than three scan points cannot bracket a band: they used to
        # record Re = 8000 as subcritical, where three points find its edges
        p = make_profile("poiseuille")
        for n_scan in (0, 1, 2):
            with pytest.raises(ConfigurationError, match="n_scan"):
                neutral_curve(p, [8000], (0.8, 1.2), N=64, n_scan=n_scan)
        lower, _ = neutral_curve(p, [8000], (0.8, 1.2), N=64, n_scan=3)
        assert lower.points[0][1] == pytest.approx(0.855, abs=1e-3)

    def test_alpha_tol_underflow(self):
        # brentq raised its ValueError "xtol too small" after the scan
        with pytest.raises(ConfigurationError, match="alpha_tol = 5e-324 is too small"):
            neutral_curve(make_profile("poiseuille"), [6000], (0.8, 1.2), N=32, alpha_tol=5e-324)

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

    @pytest.mark.parametrize("form", [lambda p: [list(q) for q in p], np.array, tuple])
    def test_points_in_any_nesting(self, form):
        # the points are read as one (n, 2) array: pairs given as lists, one
        # array or a tuple fit to the same bits as the list of tuples
        re = np.geomspace(1e4, 1e6, 8)
        points = [(r, 3.0 * r ** (-1.0 / 7.0)) for r in re]
        want = fit_exponents(NeutralBranch(points, "lower"), (1e4, 1e6))
        assert fit_exponents(NeutralBranch(form(points), "lower"), (1e4, 1e6)) == want

    def test_empty_branch_holds_no_points(self):
        with pytest.raises(ConfigurationError, match=r"holds 0 points of branch"):
            fit_exponents(NeutralBranch([], "lower"), (1e4, 1e6))

    def test_insufficient_points(self):
        br = NeutralBranch([(1e4, 0.5), (2e4, 0.4), (4e4, 0.3)], "lower")
        with pytest.raises(ConfigurationError):
            fit_exponents(br, (1e3, 1e6))

    def test_single_Re_has_no_slope(self):
        # four points at one Re, as neutral_curve gives for a repeated Re,
        # returned a slope and r2 = 0 with numpy's RankWarning
        br = NeutralBranch([(1e5, 0.10), (1e5, 0.12), (1e5, 0.15), (1e5, 0.20)], "lower")
        with pytest.raises(ConfigurationError,
                           match=r"^branch points in Re_window \[10000, 1e\+06\] all have Re = 100000; "
                                 r"a slope needs at least 2 distinct Re$"):
            fit_exponents(br, (1e4, 1e6))
