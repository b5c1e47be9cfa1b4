import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from shearstab import instability, resolvent
from shearstab.errors import (
    ConfigurationError,
    ContourCrossesSpectrumError,
    EssentialSpectrumError,
    NonconvergenceError,
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
        with pytest.raises(ConfigurationError, match="length 2"):
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

    @pytest.mark.parametrize("t, x, z, nu", [
        (1.0, 10.0, 0.0, 1.0), (0.01, 2.0, 0.5, 1.0), (1e-3, 1.0, 0.0, 0.5), (50.0, 0.0, 300.0, 2.0),
        (0.1, 12.0, 0.0, 1.0), (1e3, 1.0, 0.0, 1e-6), (1e-6, 0.0, 1e-3, 1.0),
    ])
    def test_far_tail_matches_gaussian(self, t, x, z, nu):
        # d^2 / (4 nu t) from 0.25 to 500: the truncation at K drops at most
        # e^{-37} of the value, so the kernel holds its relative accuracy
        # deep in the tail with no tail check
        exact = np.exp(-(x - z) ** 2 / (4 * nu * t)) / np.sqrt(4 * np.pi * nu * t)
        assert heat_green(t, x, z, nu) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("t, x, z, nu", [(2.0, -30.0, 5.0, 0.1), (1e-4, 0.5, -0.5, 1e-2)])
    def test_underflowed_tail_is_zero(self, t, x, z, nu):
        # past d^2 / (4 nu t) = 745 the kernel is below the least double
        assert heat_green(t, x, z, nu) == 0.0

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
        # form to rounding, in at most 300 right-hand sides for both
        # directions together
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

    def test_asymmetric_potential_matches_two_direction_reference(self):
        # a symmetric potential would hide a sign or mirror error in the map
        # of either direction onto s in [0, 1]; the reference integrates
        # psi+ from 15 and psi- from -15 in x, one solve_ivp each, and
        # G = -psi+(max) psi-(min) / (nu W)
        pot = lambda s: 2.0 / np.cosh(s - 0.8) ** 2 + 1.5 / np.cosh(2.0 * (s + 1.1)) ** 2
        lam = 5.0  # tau = -5i
        mu = np.sqrt(lam)

        def rhs(x, u):
            return [u[1], (lam - pot(x)) * u[0]]

        plus = solve_ivp(rhs, (15.0, -15.0), [1.0, -mu], method="DOP853", rtol=1e-13, atol=1e-13,
                         dense_output=True).sol
        minus = solve_ivp(rhs, (-15.0, 15.0), [1.0, mu], method="DOP853", rtol=1e-13, atol=1e-13,
                          dense_output=True).sol

        def reference(x, y):
            (pp, dp), (pm, dm) = plus(y), minus(y)
            return -plus(max(x, y))[0] * minus(min(x, y))[0] / (pp * dm - pm * dp)

        # a source point at +-15 leaves one side a span of length zero
        for x, y in [(0.3, -0.6), (-1.4, 0.9), (2.1, 1.7), (2.1, 15.0), (-1.4, -15.0), (15.0, -15.0)]:
            g = parabolic_green(pot, -5.0j, x, y, 1.0)
            assert abs(g - parabolic_green(pot, -5.0j, y, x, 1.0)) <= 1e-10 * abs(g)
            assert abs(g - reference(x, y)) <= 1e-9 * abs(g)
        # the value of the two-integration form this one replaced, to 2.2e-14
        assert abs(parabolic_green(pot, -5.0j, 0.3, -0.6, 1.0) - (-0.04592580560147675)) <= 1e-12

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_amplitudes_hold_beyond_the_span(self, side):
        # past +-X_FAR = 15 the potential is below 1e-10 and G e^{mu |x - y|}
        # holds its x = 15 value; the dense output used to be extrapolated,
        # drifting by 4e-4 at x = 30
        pot = lambda s: 2.0 / np.cosh(s) ** 2
        mu = np.sqrt(-5.0j)
        ref = parabolic_green(pot, -5.0, 15.0 * side, 0.0, 1.0) * np.exp(mu * 15.0)
        for x in (20.0, 30.0, 60.0):
            assert abs(parabolic_green(pot, -5.0, x * side, 0.0, 1.0) * np.exp(mu * x) - ref) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, y", [(1e300, 0.0), (0.0, 1e300), (-1e300, 1e300), (1e300, 1e300)])
    def test_far_points_return_without_overflow(self, x, y):
        # an integration to y = 1e300 overflowed; at x = y the value is the
        # free kernel -1 / (2 sqrt(lambda nu)), lambda = i tau
        pot = lambda s: 2.0 / np.cosh(s) ** 2
        g = parabolic_green(pot, -5.0, x, y, 1.0)
        assert abs(g - (-0.5 / np.sqrt(-5.0j) if x == y else 0.0)) <= 1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(EssentialSpectrumError):
            # lam = i tau = -1 (inside the essential spectrum of nu Lap)
            parabolic_green(lambda s: 0.0, 1.0j, 0.0, 0.0, 1.0)

    def test_integrates_to_the_source_point_only(self, monkeypatch):
        # one integration over s in [0, 1] carries two columns, matched at
        # max(x, y) and min(x, y); each right-hand side calls A once, on the
        # plus side of each column within [its point, 15] (row 0) and on its
        # minus side within [-15, its point] (row 1)
        spans = []
        solve_ivp = resolvent.solve_ivp

        def recording(fun, t_span, *args, **kwargs):
            spans.append(tuple(t_span))
            return solve_ivp(fun, t_span, *args, **kwargs)

        monkeypatch.setattr(resolvent, "solve_ivp", recording)
        tau, nu = -2.0j, 1.0
        for x, y in [(0.5, -0.3), (-1.0, 1.2)]:
            spans.clear()
            where, far = [], []

            def pot(s):
                # the decay check calls A once, on [15, -15], the integration
                # on the two columns' points
                (where if np.ndim(s) == 2 else far).append(s)
                return 0.0 * s

            g = parabolic_green(pot, tau, x, y, nu)
            exact = -np.exp(-abs(x - y) * np.sqrt(2.0)) / (2 * np.sqrt(2.0))
            assert abs(g - exact) < 1e-8
            assert spans == [(0.0, 1.0)]
            assert len(far) == 1 and np.array_equal(far[0], [15.0, -15.0])
            where = np.array(where)
            assert where.shape[0] > 2 and where.shape[1:] == (2, 2)
            plus, minus = where[:, 0], where[:, 1]
            # the map x = +-15 + s (point -+ 15) reaches the point to rounding at s = 1
            points = np.array([max(x, y), min(x, y)])
            assert np.all((points - 1e-12 <= plus) & (plus <= 15.0))
            assert np.all((-15.0 <= minus) & (minus <= points + 1e-12))

    def test_no_call_reads_a_dense_output(self, monkeypatch):
        # every Evans and Green value is read at the ends of its spans
        passed = []
        solve_ivp = resolvent.solve_ivp

        def recording(*args, **kwargs):
            passed.append(kwargs)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(resolvent, "solve_ivp", recording)
        pot = lambda s: 6.0 / np.cosh(s) ** 2
        parabolic_green(pot, -5.0j, 0.3, -0.6, 1.0)
        evans_det(pot, 2.0)
        evans_locate(pot, (0.5, 4.5, -0.4, 0.4), x_far=10.0)
        assert len(passed) > 3
        assert all("dense_output" not in kwargs for kwargs in passed)


class TestEvansLocate:
    def test_shifted_sech_eigenvalue(self):
        # 2 sech^2(x - 0.8) has the eigenvalue 1 of 2 sech^2: off centre, the
        # plus and minus amplitudes differ, so a mirror error would show
        pot = lambda s: 2.0 / np.cosh(s - 0.8) ** 2
        zeros = evans_locate(pot, (0.5, 1.5, -0.4, 0.4))
        assert len(zeros) == 1
        assert abs(zeros[0] - 1.0) <= 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, name", [
        pytest.param(lambda pot: evans_det(pot, 1e300), "lam", id="evans_det-lam1e300"),
        pytest.param(lambda pot: evans_det(pot, 1.2, nu=5e-324), "nu", id="evans_det-nu5e-324"),
        pytest.param(lambda pot: parabolic_green(pot, -1e300j, 0.1, 0.0, 1.0), "lam",
                     id="parabolic_green-tau-1e300j"),
        pytest.param(lambda pot: evans_locate(pot, (0.5, 1.5, -0.4, 0.4), nu=5e-324), "nu",
                     id="evans_locate-nu5e-324"),
        # the free determinant returned 2 mu = 2e150 with no warning
        pytest.param(lambda pot: evans_det(lambda s: 0.0 * s, 1e300), "lam", id="evans_det-free-lam1e300"),
    ])
    def test_huge_spectral_parameter_raises_before_integrating(self, call, name, monkeypatch):
        # |sqrt(lam / nu)| past 1 / (2 x_far eps) puts the amplitudes' layer
        # below the float spacing of the span: numpy's overflow warnings
        # came first, then a failure or a number
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking lam / nu")

        monkeypatch.setattr(resolvent, "solve_ivp", no_integration)
        with pytest.raises(ConfigurationError, match=rf"\b{name}\b"):
            call(lambda s: 2.0 / np.cosh(s) ** 2)

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

    @pytest.mark.parametrize("amp, region, starts, exact", [
        (12.0, (0.5, 9.5, -0.4, 0.4), range(1, 13), [1.0, 4.0, 9.0]),
        (6.0, (0.5, 4.5, -0.4, 0.4), range(1, 13), [1.0, 4.0]),
        (2.0, (1.5, 4.5, -0.4, 0.4), range(1, 5), []),
    ])
    def test_coarse_boundary_counts_every_zero(self, amp, region, starts, exact):
        # a factor e^{2 mu x_far} in the determinant would add the phase
        # 2 Im(mu) x_far, which swamps the winding between coarse boundary
        # points; and a resolved phase alone can still miscount, so a pass
        # is accepted only when two passes agree
        pot = lambda s: amp / np.cosh(s) ** 2
        for n in starts:
            zeros = evans_locate(pot, region, nu=1.0, x_far=10.0, n_per_side=n)
            assert len(zeros) == len(exact), n
            got = sorted(zeros, key=lambda z: z.real)
            assert np.allclose(got, exact, rtol=0, atol=1e-10), n

    def test_negative_winding_raises_naming_the_rectangle(self, monkeypatch):
        # conjugated matching matrices give a determinant that winds -3 on
        # this rectangle on every pass, so two passes agree on a negative count
        solutions = resolvent._decaying_solutions

        def conjugated(*args):
            mu, M = solutions(*args)
            return mu, np.conj(M)

        monkeypatch.setattr(resolvent, "_decaying_solutions", conjugated)
        pot = lambda s: 12.0 / np.cosh(s) ** 2
        with pytest.raises(RegionError, match=r"negative winding -3 on region \(0\.5, 9\.5, -0\.4, 0\.4\)"):
            evans_locate(pot, (0.5, 9.5, -0.4, 0.4), nu=1.0, x_far=10.0)

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

    @pytest.mark.parametrize("region, seeds, what", [
        # two seeds near the zero 1: both secants ended on it, returned as [1, 1]
        ((0.5, 4.5, -0.4, 0.4), [1.05, 0.95], "one zero twice"),
        # a seed near the zero 4 of a rectangle that holds only 1: returned as [4]
        ((0.5, 1.5, -0.4, 0.4), [3.8], "a zero outside it"),
    ])
    def test_wrong_seeds_raise_naming_them(self, region, seeds, what, monkeypatch):
        # 6 sech^2 has the zeros 1 and 4; the secant's zeros must be w
        # distinct points of the rectangle, and the message names the seeds
        # the Hankel pencil gave
        monkeypatch.setattr(resolvent, "_hankel_seeds", lambda s, region: np.array(seeds, dtype=complex))
        shown = re.escape(str([complex(z) for z in seeds]))
        with pytest.raises(RegionError, match=rf"seeds {shown} on region {re.escape(str(region))} returned {what}"):
            evans_locate(lambda s: 6.0 / np.cosh(s) ** 2, region, nu=1.0, x_far=10.0)

    def test_moving_zero_raises_naming_the_rectangle(self, monkeypatch):
        # past the seeds the determinant is e^{2 lambda}, which has no zero:
        # the secant steps settle at -log(2) / 2, and after 60 steps the zero
        # is still moving
        solutions, hankel_seeds = resolvent._decaying_solutions, resolvent._hankel_seeds
        seeded = []

        def seeding(*args):
            seeded.append(1)
            return hankel_seeds(*args)

        def zero_free_after_seeding(A, lam, *args):
            if not seeded:
                return solutions(A, lam, *args)
            return None, np.exp(lam)[:, None, None] * np.array([[1.0, 0.0], [0.0, 1.0]])

        monkeypatch.setattr(resolvent, "_hankel_seeds", seeding)
        monkeypatch.setattr(resolvent, "_decaying_solutions", zero_free_after_seeding)
        with pytest.raises(NonconvergenceError, match=r"region \(0\.5, 1\.5, -0\.4, 0\.4\).*last steps"):
            evans_locate(lambda s: 2.0 / np.cosh(s) ** 2, (0.5, 1.5, -0.4, 0.4), nu=1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [1.0, 2.5 + 0.5j, 1e3, 1e4, 1e6])
    def test_free_determinant_closed_form(self, lam):
        # psi+- = exp(-+mu (x -+ X_FAR)) for A = 0, so the Wronskian at 0 is
        # 2 mu exp(2 mu X_FAR), mu = sqrt(lambda / nu), and the Evans function
        # is that over e^{2 mu X_FAR}: 2 mu, with no overflow at large lambda
        mu = np.sqrt(lam / 0.5)
        assert evans_det(lambda s: 0.0 * s, lam, 0.5) == pytest.approx(2 * mu, rel=1e-12)

    def test_condition_diagnostic_large_near_eigenvalue(self):
        # ||M^{-1}|| of the 2x2 matching matrix grows near an eigenvalue
        nu = 1.0
        pot = lambda s: 2 * nu / np.cosh(s) ** 2
        M = resolvent._decaying_solutions(pot, [1.0 + 1e-4, 2.0], nu, resolvent.X_FAR, 0.0)[1]
        near, far = np.linalg.norm(np.linalg.inv(M), 2, axis=(1, 2))
        assert near > 10 * far

    @pytest.mark.parametrize("amp, region, n_start, n_prev", [
        (6.0, (0.5, 4.5, -0.4, 0.4), 1, 2),
        (12.0, (0.5, 9.5, -0.4, 0.4), 1, 4),
        (12.0, (0.5, 9.5, -0.4, 0.4), 2, 4),
    ])
    def test_doubling_is_a_loop(self, amp, region, n_start, n_prev, monkeypatch):
        # a coarse boundary doubles within one call until the pass at 2 n_prev
        # agrees with the pass at n_prev, and returns the roots of a call
        # started at n_prev bit for bit
        pot = lambda s: amp / np.cosh(s) ** 2
        direct = evans_locate(pot, region, nu=1.0, x_far=10.0, n_per_side=n_prev)
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
        stacked = resolvent._det2(resolvent._decaying_solutions(pot, pts, 1.0, 10.0, 0.0)[1])
        single = np.array([resolvent._det2(resolvent._decaying_solutions(pot, lam, 1.0, 10.0, 0.0)[1])[0]
                           for lam in pts])
        assert np.max(np.abs(stacked - single) / np.abs(single)) <= 1e-9

    def test_one_integration_for_both_directions(self, monkeypatch):
        calls = []
        solve_ivp = resolvent.solve_ivp

        def counting(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            calls.append(sol.y.shape[0])
            return sol

        monkeypatch.setattr(resolvent, "solve_ivp", counting)
        # no zero inside, so the one boundary pass at 12 points per side,
        # which integrates both directions at 24 points per side, is the
        # only integration
        assert evans_locate(lambda s: 0.0, (0.5, 1.5, -0.4, 0.4), nu=1.0, n_per_side=12) == []
        assert calls == [4 * 96]

    @pytest.mark.parametrize("amp, region, integrations",
                             [(*rect, n) for rect, n in zip(BENCH_RECTANGLES, [4, 5])])
    def test_secant_polishes_all_roots_together(self, amp, region, integrations, monkeypatch):
        # one boundary pass, one determinant of both secant starts, and one
        # integration per secant step for all the zeros together
        calls = []
        solve_ivp = resolvent.solve_ivp

        def counting(*args, **kwargs):
            calls.append(1)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(resolvent, "solve_ivp", counting)
        zeros = evans_locate(lambda s: amp / np.cosh(s) ** 2, region, nu=1.0, x_far=10.0, n_per_side=12)
        assert len(zeros) == round(np.sqrt(amp + 0.25) - 0.5)
        assert len(calls) <= integrations

    def test_boundary_through_zero_raises(self):
        # the left side of the rectangle contains the eigenvalue 1 exactly
        pot = lambda s: 2.0 / np.cosh(s) ** 2
        with pytest.raises(RegionError, match=r"lambda=\(1\+0j\)"):
            evans_locate(pot, (1.0, 1.5, -0.4, 0.4), nu=1.0)

    def test_essential_spectrum_names_lambda(self):
        pot = lambda s: 2.0 / np.cosh(s) ** 2
        with pytest.raises(EssentialSpectrumError, match=r"lambda = \(-0\.5\+0j\)"):
            evans_locate(pot, (-0.5, 1.5, -0.4, 0.4), nu=1.0)
