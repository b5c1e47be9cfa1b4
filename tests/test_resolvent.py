import warnings

import numpy as np
import pytest
import scipy.linalg

from shearstab import instability, resolvent
from shearstab.errors import (
    ConfigurationError,
    ContourCrossesSpectrumError,
    EssentialSpectrumError,
    InputError,
    QuadratureError,
    RegionError,
)
from shearstab.resolvent import (
    _hankel_seeds,
    evans_det,
    evans_locate,
    heat_green,
    parabolic_green,
    semigroup_apply,
)
from shearstab.spectral import refine


def expm_taylor(A, t, squarings=20):
    """Independent scaling-and-squaring matrix exponential (Taylor core)."""
    A = np.asarray(A, dtype=complex)
    B = A * (t / 2.0**squarings)
    n = A.shape[0]
    out = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 25):
        term = term @ B / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


class TestSemigroup:
    def test_rotation(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        v = semigroup_apply(A, np.array([1.0, 0.0]), np.pi / 2)
        assert np.allclose(v, [0.0, -1.0], atol=1e-8)

    def test_diagonal(self):
        A = np.diag([1.0, -2.0])
        v = semigroup_apply(A, np.array([1.0, 1.0]), 1.0)
        assert np.allclose(v, [np.e, np.exp(-2.0)], atol=1e-8)

    def test_t_zero(self):
        # e^{A 0} x0 is x0 itself, returned exactly and without a quadrature
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        x0 = np.array([0.3, -0.7])
        v = semigroup_apply(A, x0, 0.0)
        assert np.array_equal(v, x0)
        assert v is not x0

    @pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
    def test_time_must_be_finite_and_nonnegative(self, t):
        with pytest.raises(ConfigurationError, match="t must be nonnegative and finite"):
            semigroup_apply(-np.eye(2), np.ones(2), t)

    def test_overflowing_time_raises_at_first_pass(self, monkeypatch):
        # e^{lambda t} overflows on every pass; the first pass must stop it
        calls = []
        resolvent_sum = resolvent._resolvent_sum

        def counting(*args):
            calls.append(1)
            return resolvent_sum(*args)

        monkeypatch.setattr(resolvent, "_resolvent_sum", counting)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(QuadratureError, match="not finite at 32 nodes"):
            semigroup_apply(np.diag([1.0, -1.0]), np.ones(2), 1e300)
        assert len(calls) == 1

    def test_random_matches_expm_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            A = rng.standard_normal((4, 4))
            A *= 2.0 / max(1e-9, np.max(np.abs(np.linalg.eigvals(A).real)))
            x0 = rng.standard_normal(4)
            for t in (0.5, 1.0, 2.0):
                v = semigroup_apply(A, x0, t)
                ref = expm_taylor(A, t) @ x0
                assert np.max(np.abs(v - ref)) < 1e-8

    def test_semigroup_property(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4))
        x0 = rng.standard_normal(4)
        v12 = semigroup_apply(A, semigroup_apply(A, x0, 0.7), 0.6)
        v3 = semigroup_apply(A, x0, 1.3)
        assert np.max(np.abs(np.asarray(v12) - np.asarray(v3))) < 1e-7

    def test_growth_bound(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((4, 4))
        P = float(np.max(np.linalg.eigvals(A).real)) + 0.5
        x0 = rng.standard_normal(4)
        n1 = np.linalg.norm(semigroup_apply(A, x0, 1.0))
        C_P = n1 / (np.exp(P) * np.linalg.norm(x0))
        for t in (2.0, 4.0):
            nt = np.linalg.norm(semigroup_apply(A, x0, t))
            assert nt <= 2.0 * max(C_P, 1.0) * np.exp(P * t) * np.linalg.norm(x0)

    def test_contour_through_eigenvalue(self, monkeypatch):
        # B = 0 collapses the vertical segment onto mu = P = 1, an eigenvalue
        # of t A at t = 1
        monkeypatch.setattr(resolvent, "default_contour_for", lambda tA: (1.0, 0.0))
        A = np.diag([1.0, -1.0])
        with pytest.raises(ContourCrossesSpectrumError, match=r"lambda=\(1\+0j\)"):
            semigroup_apply(A, np.array([1.0, 1.0]), 1.0)

    def test_chunked_solve_matches_one_stack(self, monkeypatch):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        x0 = rng.standard_normal(4)
        whole = [semigroup_apply(A, x0, t) for t in (0.0, 1.0)]
        # 7 nodes per stacked solve: every pass spans several chunks
        monkeypatch.setattr(resolvent, "MAX_STACK", 7 * 16)
        for t, ref in zip((0.0, 1.0), whole):
            assert np.max(np.abs(semigroup_apply(A, x0, t) - ref)) < 1e-13

    def test_contour_through_eigenvalue_chunked(self, monkeypatch):
        # the singular node lies in a later chunk; the error must still name it
        monkeypatch.setattr(resolvent, "MAX_STACK", 5 * 4)
        monkeypatch.setattr(resolvent, "default_contour_for", lambda tA: (1.0, 0.0))
        A = np.diag([1.0, -1.0])
        with pytest.raises(ContourCrossesSpectrumError, match=r"lambda=\(1\+0j\)"):
            semigroup_apply(A, np.array([1.0, 1.0]), 1.0)

    @pytest.mark.parametrize("t", [1e-300, 5e-324])
    def test_tiny_time_matches_expm(self, t):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        x0 = rng.standard_normal(4)
        v = semigroup_apply(A, x0, t)
        assert np.max(np.abs(v - scipy.linalg.expm(A * t) @ x0)) <= 1e-12

    @pytest.mark.parametrize("t", [1e-3, 1e-5])
    def test_small_time_settles_in_few_nodes(self, monkeypatch, t):
        # the nodes per segment of every pass, counted; a pass past 256 fails
        # at once rather than after the slow passes beyond it
        resolvent_sum = resolvent._resolvent_sum

        def capped(*args):
            assert args[-1].size // 3 <= 256, f"{args[-1].size // 3} nodes per segment"
            return resolvent_sum(*args)

        monkeypatch.setattr(resolvent, "_resolvent_sum", capped)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        x0 = rng.standard_normal(4)
        v = semigroup_apply(A, x0, t)
        assert np.max(np.abs(v - scipy.linalg.expm(A * t) @ x0)) <= 1e-12

    def test_long_time_seeded_matrices(self):
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((4, 4)) / 2
            x0 = rng.standard_normal(4)
            v = semigroup_apply(A, x0, 10.0)
            worst = max(worst, np.max(np.abs(v - scipy.linalg.expm(A * 10.0) @ x0)))
        assert worst <= 1e-7

    def test_overflowing_t_times_A(self):
        # t A itself overflows: one typed error, with no numpy warning first
        with pytest.raises(QuadratureError, match="t A is not finite"):
            semigroup_apply(np.array([[1e10, 1.0], [0.0, -1.0]]), np.ones(2), 1e300)

    def test_bad_shapes_raise_typed_errors(self):
        with pytest.raises(ConfigurationError, match=r"\(0, 0\)"):
            semigroup_apply(np.zeros((0, 0)), np.zeros(0), 1.0)
        with pytest.raises(ConfigurationError, match=r"\(2, 3\)"):
            semigroup_apply(np.ones((2, 3)), np.ones(3), 1.0)
        with pytest.raises(InputError, match="length 2"):
            semigroup_apply(-np.eye(2), np.ones(3), 1.0)


class TestRefine:
    """The shared loop ``spectral.refine``, with this layer's criteria."""

    def test_never_settles_raises(self):
        calls = []

        def one_pass(n):
            calls.append(n)
            return np.array([1.0 / np.log(n)])

        with pytest.raises(QuadratureError, match="slow pass did not settle in 5 passes"):
            refine(one_pass, 8, resolvent._agree(0.0), "slow pass", 5)
        assert calls == [8, 16, 32, 64, 128]

    def test_returns_first_agreeing_pair(self):
        values = {4: 1.0, 8: 0.5, 16: 0.5 + 1e-13, 32: 7.0}
        calls = []

        def one_pass(n):
            calls.append(n)
            return np.array([values[n]])

        val = refine(one_pass, 4, resolvent._agree(0.0), "table", 10)
        assert calls == [4, 8, 16]
        assert val[0] == values[16]

    def test_non_finite_pass_stops_at_once(self):
        calls = []

        def one_pass(n):
            calls.append(n)
            return np.array([1.0, np.nan])

        with pytest.raises(QuadratureError, match="nan pass is not finite at 8 nodes"):
            refine(one_pass, 8, resolvent._agree(0.0), "nan pass", 10)
        assert calls == [8]

    def test_floor_admits_change(self):
        values = {4: 1.0, 8: 1.0 + 1e-6}
        val = refine(lambda n: np.array([values[n]]), 4, resolvent._agree(1e-5), "floor", 10)
        assert val[0] == values[8]

    def test_entries_settle_one_by_one(self):
        # entry 0 agrees from the second pass on, entry 1 only from the fourth;
        # each keeps the value of the pass that settled it
        values = {1: [1.0, 5.0], 2: [1.5, 3.0], 4: [1.5 + 1e-9, 2.0], 8: [9.0, 2.0 + 1e-9]}

        def one_pass(n):
            return np.array(values[n])

        def per_entry(val, prev):
            return np.abs(val - prev) <= 1e-6 * np.abs(val)

        val = refine(one_pass, 1, per_entry, "rows", 10)
        assert val.tolist() == [values[4][0], values[8][1]]


class TestHeatGreen:
    def test_coincident(self):
        assert heat_green(1.0, 0.0, 0.0, 1.0) == pytest.approx(1.0 / np.sqrt(4 * np.pi), abs=1e-9)

    def test_offset_two(self):
        val = heat_green(1.0, 2.0, 0.0, 1.0)
        assert val == pytest.approx(np.exp(-1.0) / np.sqrt(4 * np.pi), rel=1e-8)

    def test_grid_vs_gaussian(self):
        ts = np.linspace(0.1, 2.0, 21)
        ds = np.linspace(0.0, 4.0, 21)
        worst = 0.0
        for t in ts:
            for d in ds:
                val = heat_green(t, d, 0.0, 1.0)
                exact = np.exp(-d**2 / (4 * t)) / np.sqrt(4 * np.pi * t)
                worst = max(worst, abs(val - exact) / exact)
                assert val <= exact + 1e-9  # Gaussian upper bound
        assert worst < 1e-6

    def test_imag_residue_small(self, monkeypatch):
        # the residue vanishes by symmetry, so the value passes the check ...
        assert heat_green(0.5, 1.0, 0.0, 0.3) == pytest.approx(
            np.exp(-1.0 / 0.6) / np.sqrt(0.6 * np.pi), rel=1e-8)
        # ... and a quadrature that left one would raise
        refine = resolvent.refine
        monkeypatch.setattr(resolvent, "refine", lambda *args: refine(*args) + 1e-6j)
        with pytest.raises(QuadratureError, match="imaginary residue 1.000e-06"):
            heat_green(0.5, 1.0, 0.0, 0.3)

    @pytest.mark.parametrize("t, x, nu, name", [
        (np.nan, 0.0, 1.0, "t"), (np.inf, 0.0, 1.0, "t"), (0.0, 0.0, 1.0, "t"),
        (1.0, 0.0, np.nan, "nu"), (1.0, 0.0, np.inf, "nu"),
        (1.0, np.nan, 1.0, "x - z"), (1.0, np.inf, 1.0, "x - z"),
    ])
    def test_non_finite_input_raises(self, t, x, nu, name):
        # these used to double the nodes to 32768 without two passes agreeing
        with pytest.raises(ConfigurationError, match=f"^{name} must be"):
            heat_green(t, x, 0.0, nu)


class TestDuhamel:
    def test_lives_next_to_the_semigroup(self):
        # instability re-exports it, and both names must be the one function
        assert instability.duhamel_term is resolvent.duhamel_term

    def test_constant_forcing_segments_stay_short(self, monkeypatch):
        # the contour bench's case: each inner semigroup at small t - tau
        # settles on its own contour, within 256 nodes per segment
        segments = []
        resolvent_sum = resolvent._resolvent_sum

        def counting(*args):
            segments.append(args[-1].size // 3)
            return resolvent_sum(*args)

        monkeypatch.setattr(resolvent, "_resolvent_sum", counting)
        A = np.array([[-0.5, 0.4], [0.0, -1.2]])
        b = np.random.default_rng(21).uniform(-1.0, 1.0, 14)[12:]
        t = 1.3
        v = resolvent.duhamel_term(A, lambda tau: b, t)
        exact = (scipy.linalg.expm(A * t) - np.eye(2)) @ np.linalg.solve(A, b)
        assert max(segments) <= 256
        assert np.max(np.abs(v - exact)) <= 1e-12


class TestParabolicGreen:
    def test_constant_coefficient_closed_form(self):
        nu = 1.0
        tau = -2.0j  # lam = i tau = 2
        lam = 1j * tau
        mu = np.sqrt(lam / nu)
        for x, y in [(0.5, -0.3), (-1.0, 1.2), (0.0, 0.0)]:
            g = parabolic_green(lambda s: 0.0, tau, x, y, nu)
            exact = -np.exp(-abs(x - y) * mu) / (2 * np.sqrt(lam * nu))
            assert abs(g - exact) < 1e-8

    def test_free_kernel_is_exact_and_short(self, monkeypatch):
        # for A = 0 the amplitudes phi+- stay 1, so the kernel is the closed
        # form to rounding, in at most 300 right-hand sides per direction
        nfev = []
        solve_ivp = resolvent.solve_ivp

        def recording(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(resolvent, "solve_ivp", recording)
        for tau, nu in [(-2.0j, 1.0), (1.3, 1.0), (2.5 - 0.7j, 0.5)]:
            mu = np.sqrt(1j * tau / nu)
            for x, y in [(0.5, -0.3), (-1.0, 1.2), (0.0, 0.0)]:
                g = parabolic_green(lambda s: 0.0 * s, tau, x, y, nu)
                exact = -np.exp(-abs(x - y) * mu) / (2 * nu * mu)
                assert abs(g - exact) < 1e-13
        assert max(nfev) <= 300

    @pytest.mark.parametrize("lam", [1e4, 1e6])
    def test_large_lambda_does_not_overflow(self, lam):
        # psi+- carry e^{sqrt(lambda) X_FAR}, which overflows at lambda = 1e4:
        # numpy's overflow warnings, then NumericalError; the amplitudes and
        # the cancelled exponentials stay finite
        mu = np.sqrt(lam)
        for x, y in [(0.0, 0.0), (0.004, -0.002), (-0.01, 0.0)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g = parabolic_green(lambda s: 0.0 * s, -1j * lam, x, y, 1.0)
            exact = -np.exp(-abs(x - y) * mu) / (2 * mu)
            assert abs(g - exact) <= 1e-12 * abs(exact)

    def test_derivative_jump(self):
        nu = 0.5
        tau = -1.5j
        y = 0.2
        h = 1e-5
        gp = (parabolic_green(lambda s: 0.0, tau, y + 2 * h, y, nu)
              - parabolic_green(lambda s: 0.0, tau, y + h, y, nu)) / h
        gm = (parabolic_green(lambda s: 0.0, tau, y - h, y, nu)
              - parabolic_green(lambda s: 0.0, tau, y - 2 * h, y, nu)) / h
        assert abs(abs(gp - gm) - 1.0 / nu) < 1e-3 / nu

    def test_symmetry_sech_potential(self):
        nu = 1.0
        tau = -5.0j  # lam = 5, far from the sech^2 eigenvalue at 1
        pot = lambda s: 2 * nu / np.cosh(s) ** 2
        pairs = [(0.3, -0.4), (1.0, 0.2), (-0.7, 0.9)]
        for x, y in pairs:
            g1 = parabolic_green(pot, tau, x, y, nu)
            g2 = parabolic_green(pot, tau, y, x, nu)
            assert np.isfinite(g1.real)
            assert abs(g1 - g2) < 1e-8

    def test_negative_lambda_rejected(self):
        with pytest.raises(EssentialSpectrumError):
            # lam = i tau = -1 (inside the essential spectrum of nu Lap)
            parabolic_green(lambda s: 0.0, 1.0j, 0.0, 0.0, 1.0)

    def test_integrates_to_the_source_point_only(self, monkeypatch):
        spans = []
        solve_ivp = resolvent.solve_ivp

        def recording(fun, t_span, *args, **kwargs):
            spans.append(tuple(t_span))
            return solve_ivp(fun, t_span, *args, **kwargs)

        monkeypatch.setattr(resolvent, "solve_ivp", recording)
        tau, nu = -2.0j, 1.0
        for x, y in [(0.5, -0.3), (-1.0, 1.2)]:
            spans.clear()
            g = parabolic_green(lambda s: 0.0, tau, x, y, nu)
            exact = -np.exp(-abs(x - y) * np.sqrt(2.0)) / (2 * np.sqrt(2.0))
            assert abs(g - exact) < 1e-8
            assert spans == [(15.0, y), (-15.0, y)]


class TestEvansLocate:
    def test_sech_eigenvalue(self):
        nu = 1.0
        pot = lambda s: 2 * nu / np.cosh(s) ** 2
        zeros = evans_locate(pot, (0.5, 1.5, -0.4, 0.4), nu=nu)
        assert len(zeros) == 1
        assert abs(zeros[0] - 1.0) < 1e-6

    def test_distinct_roots_6sech2(self):
        # 6 sech^2 = l(l+1) sech^2 with l = 2 has the eigenvalues 4 and 1;
        # winding number 2 must give both, not one root twice
        pot = lambda s: 6.0 / np.cosh(s) ** 2
        zeros = evans_locate(pot, (0.5, 4.5, -0.4, 0.4), nu=1.0, x_far=10.0, n_per_side=12)
        assert len(zeros) == 2
        low, high = sorted(zeros, key=lambda z: z.real)
        assert abs(low - 1.0) < 1e-6
        assert abs(high - 4.0) < 1e-6

    def test_three_roots_12sech2(self):
        # 12 sech^2 = l(l+1) sech^2 with l = 3 has the eigenvalues 9, 4 and 1
        pot = lambda s: 12.0 / np.cosh(s) ** 2
        zeros = evans_locate(pot, (0.5, 9.5, -0.4, 0.4), nu=1.0, x_far=10.0)
        assert len(zeros) == 3
        assert np.allclose(sorted(zeros, key=lambda z: z.real), [1.0, 4.0, 9.0], rtol=0, atol=1e-6)

    @pytest.mark.parametrize("region", [(1.5, 0.5, -0.4, 0.4), (0.5, 1.5, 0.4, -0.4)])
    def test_reversed_rectangle_raises(self, region, monkeypatch):
        # the rectangle holds the eigenvalue 1, which a negative winding would lose
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking the region")

        monkeypatch.setattr(resolvent, "solve_ivp", no_integration)
        with pytest.raises(ConfigurationError, match=r"region"):
            evans_locate(lambda s: 2.0 / np.cosh(s) ** 2, region, nu=1.0)

    def test_empty_region(self):
        nu = 1.0
        pot = lambda s: 2 * nu / np.cosh(s) ** 2
        zeros = evans_locate(pot, (2.0, 3.0, -0.4, 0.4), nu=nu)
        assert zeros == []

    def test_constant_potential_no_zero(self):
        # essential spectrum shifts to (-inf, a]; right of it there is no
        # discrete spectrum
        zeros = evans_locate(lambda s: 0.0, (0.5, 1.5, -0.4, 0.4), nu=1.0)
        assert zeros == []

    def test_negative_winding_raises_naming_the_rectangle(self):
        # one point per side does not resolve the phase of the determinant,
        # whose winding on this rectangle is 3; the count came out as -1
        pot = lambda s: 12.0 / np.cosh(s) ** 2
        with pytest.raises(RegionError, match=r"negative winding .* region \(0\.5, 9\.5, -0\.4, 0\.4\)"):
            evans_locate(pot, (0.5, 9.5, -0.4, 0.4), nu=1.0, x_far=10.0, n_per_side=1)

    def test_double_zero_raises_naming_the_rectangle(self):
        # the power sums of a double zero at 2 + 0.1i, plus 1e-14 of noise:
        # H0 is singular, and the pencil would give one arbitrary seed
        z = 2.0 + 0.1j
        noise = 1e-14 * np.random.default_rng(4).standard_normal(4)
        s = 2.0 * z ** np.arange(4) + noise
        with pytest.raises(RegionError, match=r"region \(1\.5, 2\.5, -0\.5, 0\.5\)"):
            _hankel_seeds(s, (1.5, 2.5, -0.5, 0.5))

    def test_seeds_of_simple_zeros(self):
        z = np.array([1.0, 4.0 + 0.2j, 9.0])
        s = np.sum(z[:, None] ** np.arange(6), axis=0)
        seeds = _hankel_seeds(s, (0.5, 9.5, -0.4, 0.4))
        assert np.allclose(np.sort_complex(seeds), z, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("lam", [1.0, 2.5 + 0.5j])
    def test_free_determinant_closed_form(self, lam):
        # psi+- = exp(-+mu (x -+ X_FAR)) for A = 0, so the Wronskian at 0 is
        # 2 mu exp(2 mu X_FAR), mu = sqrt(lambda / nu)
        mu = np.sqrt(lam / 0.5)
        exact = 2 * mu * np.exp(2 * mu * resolvent.X_FAR)
        assert evans_det(lambda s: 0.0 * s, lam, 0.5) == pytest.approx(exact, rel=1e-8)

    def test_condition_diagnostic_large_near_eigenvalue(self):
        # ||M^{-1}|| of the 2x2 matching matrix grows near an eigenvalue
        nu = 1.0
        pot = lambda s: 2 * nu / np.cosh(s) ** 2
        M = resolvent._matching_matrices(pot, [1.0 + 1e-4, 2.0], nu, resolvent.X_FAR)
        near, far = np.linalg.norm(np.linalg.inv(M), 2, axis=(1, 2))
        assert near > 10 * far

    @pytest.mark.parametrize("amp, region, n_start, n_final", [
        (2.0, (0.5, 1.5, -0.4, 0.4), 3, 6),
        (6.0, (0.5, 4.5, -0.4, 0.4), 3, 12),
        (12.0, (0.5, 9.5, -0.4, 0.4), 12, 24),
    ])
    def test_doubling_is_a_loop(self, amp, region, n_start, n_final, monkeypatch):
        # a coarse boundary doubles to n_final points per side within one
        # call, and returns the roots of a call started there bit for bit
        pot = lambda s: amp / np.cosh(s) ** 2
        direct = evans_locate(pot, region, nu=1.0, x_far=10.0, n_per_side=n_final)
        entered = []

        def counting(*args, **kwargs):
            entered.append(1)
            return evans_locate(*args, **kwargs)

        monkeypatch.setattr(resolvent, "evans_locate", counting)
        doubled = resolvent.evans_locate(pot, region, nu=1.0, x_far=10.0, n_per_side=n_start)
        assert entered == [1]
        assert doubled == direct
        k = round(np.sqrt(amp + 0.25) - 0.5)
        assert np.allclose(sorted(doubled, key=lambda z: z.real), np.arange(1, k + 1) ** 2, rtol=0, atol=1e-6)


# the two rectangles of the benchmark's Evans tasks
BENCH_RECTANGLES = [(2.0, (0.5, 1.5, -0.4, 0.4)), (6.0, (0.5, 4.5, -0.4, 0.4))]


class TestStackedBoundary:
    @pytest.mark.parametrize("amp, region", BENCH_RECTANGLES)
    def test_matches_per_point_determinants(self, amp, region):
        # solve_ivp's error norm is an RMS over the whole stacked state, so
        # the accuracy of each boundary point is checked one by one
        pot = lambda s: amp / np.cosh(s) ** 2
        pts = resolvent._rect_boundary(region, 12)
        stacked = resolvent._det2(resolvent._matching_matrices(pot, pts, 1.0, 10.0))
        single = np.array([resolvent._det2(resolvent._matching_matrices(pot, lam, 1.0, 10.0))[0]
                           for lam in pts])
        assert np.max(np.abs(stacked - single) / np.abs(single)) <= 1e-9

    def test_one_integration_per_direction(self, monkeypatch):
        calls = []
        solve_ivp = resolvent.solve_ivp

        def counting(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            calls.append(sol.y.shape[0])
            return sol

        monkeypatch.setattr(resolvent, "solve_ivp", counting)
        # no zero inside, so the boundary pass is the only integration
        assert evans_locate(lambda s: 0.0, (0.5, 1.5, -0.4, 0.4), nu=1.0, n_per_side=12) == []
        assert calls == [2 * 48, 2 * 48]

    def test_secant_polishes_all_roots_together(self, monkeypatch):
        calls = []
        solve_ivp = resolvent.solve_ivp

        def counting(*args, **kwargs):
            calls.append(1)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(resolvent, "solve_ivp", counting)
        amp, region = BENCH_RECTANGLES[1]
        zeros = evans_locate(lambda s: amp / np.cosh(s) ** 2, region, nu=1.0, x_far=10.0, n_per_side=12)
        assert len(zeros) == 2
        assert len(calls) <= 20

    def test_boundary_through_zero_raises(self):
        # the left side of the rectangle contains the eigenvalue 1 exactly
        pot = lambda s: 2.0 / np.cosh(s) ** 2
        with pytest.raises(RegionError, match=r"lambda=\(1\+0j\)"):
            evans_locate(pot, (1.0, 1.5, -0.4, 0.4), nu=1.0)

    def test_essential_spectrum_names_lambda(self):
        pot = lambda s: 2.0 / np.cosh(s) ** 2
        with pytest.raises(EssentialSpectrumError, match=r"lambda = \(-0\.5\+0j\)"):
            evans_locate(pot, (-0.5, 1.5, -0.4, 0.4), nu=1.0)
