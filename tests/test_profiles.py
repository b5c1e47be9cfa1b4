import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from shearstab import profiles
from shearstab.errors import ConfigurationError
from shearstab.profiles import blasius_solve, inflection_points, make_profile


def centered_diff(f, z, h=1e-5):
    return (f(z + h) - f(z - h)) / (2 * h)


class TestMakeProfile:
    def test_poiseuille_closed_form(self):
        p = make_profile("poiseuille")
        assert p.U(0.0) == pytest.approx(1.0)
        assert p.U(1.0) == pytest.approx(0.0)
        assert p.U(-1.0) == pytest.approx(0.0)
        z = np.linspace(-1, 1, 11)
        assert np.allclose(p.d2U(z), -2.0)

    def test_exponential_closed_form(self):
        p = make_profile("exponential")
        z = np.linspace(0, 10, 101)
        assert np.allclose(p.U(z), 1 - np.exp(-z))
        assert np.all(p.d2U(z) < 0)
        assert p.U(0.0) == pytest.approx(0.0)

    def test_tanh_shifted(self):
        p = make_profile("tanh", z0=1.0)
        assert p.U(0.0) == pytest.approx(0.0, abs=1e-14)
        assert p.d2U(1.0) == pytest.approx(0.0, abs=1e-14)
        assert p.d2U(0.9) * p.d2U(1.1) < 0

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_profile("nosuch")

    def test_missing_param(self):
        with pytest.raises(ConfigurationError):
            make_profile("tanh")

    @pytest.mark.parametrize("z0", [np.nan, np.inf])
    def test_tanh_shift_must_be_finite(self, z0):
        with pytest.raises(ConfigurationError, match="z0 must be finite"):
            make_profile("tanh", z0=z0)

    @pytest.mark.parametrize("kind,params,name", [
        ("poiseuille", {"z0": 1.0}, "z0"),
        ("tanh", {"z0": 1.0, "z1": 2.0}, "z1"),
        ("blasius", {"tolerance": 1e-8}, "tolerance"),
    ])
    def test_parameter_of_another_kind_raises(self, kind, params, name):
        # the parameter used to be ignored without a word
        with pytest.raises(ConfigurationError, match=f"^{name} is not a parameter of the {kind} profile$"):
            make_profile(kind, **params)

    @pytest.mark.parametrize("kind,params", [
        ("poiseuille", {}),
        ("exponential", {}),
        ("tanh", {"z0": 1.0}),
        ("kolmogorov", {}),
    ])
    def test_derivative_consistency(self, kind, params):
        p = make_profile(kind, **params)
        z_lo, z_hi = p.z_range()
        z = np.linspace(z_lo + 0.01, z_hi - 0.01, 1000)
        du = p.dU(z)
        err = np.abs(du - centered_diff(p.U, z))
        assert np.all(err <= 1e-6 * (1 + np.abs(du)))
        d2u = p.d2U(z)
        err2 = np.abs(d2u - centered_diff(p.dU, z))
        assert np.all(err2 <= 1e-6 * (1 + np.abs(d2u)))


@pytest.fixture(scope="module")
def blasius():
    return blasius_solve(tolerance=1e-8)


class TestBlasius:
    def test_wall_shear(self, blasius):
        assert blasius.params["fpp0"] == pytest.approx(0.332057, abs=2e-6)

    def test_wall_shear_reference_value(self, blasius):
        # Boyd's f''(0) (Experimental Math. 8, 1999)
        assert abs(blasius.params["fpp0"] - 0.33205733621519630) <= 1e-12

    def test_one_integration(self, monkeypatch):
        # the scaling f(eta) = a F(a eta) replaces the search: shooting on
        # f''(0) made 10 integrations
        calls = []
        solve_ivp_ = profiles.solve_ivp

        def recording(*args, **kwargs):
            calls.append(args)
            return solve_ivp_(*args, **kwargs)

        monkeypatch.setattr(profiles, "solve_ivp", recording)
        blasius_solve()
        assert len(calls) == 1

    def test_matches_shooting(self, blasius):
        # the old method as oracle: Brent's method on f'(ETA_MAX) - 1 over
        # f''(0), the profile read from the converged shot's dense output
        def shoot(fpp0):
            return scipy.integrate.solve_ivp(lambda eta, f: [f[1], f[2], -0.5 * f[0] * f[2]], (0.0, profiles.ETA_MAX),
                                             [0.0, 0.0, fpp0], method="DOP853", rtol=1e-12, atol=1e-13,
                                             dense_output=True)

        fpp0 = scipy.optimize.brentq(lambda s: shoot(s).y[1][-1] - 1.0, 0.1, 1.0, xtol=1e-14)
        z = np.linspace(0.0, 20.0, 2001)
        f, fp, fpp = shoot(fpp0).sol(np.minimum(z, profiles.ETA_MAX))
        far = z >= profiles.ETA_MAX
        want = (np.where(far, 1.0, fp), np.where(far, 0.0, fpp), np.where(far, 0.0, -0.5 * f * fpp))
        for got, ref in zip((blasius.U(z), blasius.dU(z), blasius.d2U(z)), want):
            assert np.max(np.abs(got - ref)) <= 1e-10

    @pytest.mark.parametrize("eta, tol", [(10.0, 1e-6), (14.9, 1e-12)])
    def test_far_field(self, blasius, eta, tol):
        assert abs(blasius.U(eta) - 1.0) <= tol

    def test_wall_values(self, blasius):
        assert blasius.U(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_monotone(self, blasius):
        eta = np.linspace(0, 10, 500)
        assert np.all(blasius.dU(eta) > 0)
        assert np.all(blasius.dU(np.linspace(0, 14.9, 500)) >= 0)

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, 0.0, -1e-8])
    def test_tolerance_positive_and_finite(self, tolerance):
        # a NaN tolerance used to pass the check, since nan <= 0 is false
        with pytest.raises(ConfigurationError, match="tolerance must be positive and finite"):
            blasius_solve(tolerance)


class TestInflectionPoints:
    def test_poiseuille_empty(self):
        assert inflection_points(make_profile("poiseuille")) == []

    def test_exponential_empty(self):
        assert inflection_points(make_profile("exponential")) == []

    def test_tanh_single(self):
        pts = inflection_points(make_profile("tanh", z0=1.0))
        assert len(pts) == 1
        assert pts[0] == pytest.approx(1.0, abs=1e-9)

    def test_kolmogorov_two(self):
        pts = inflection_points(make_profile("kolmogorov"))
        assert pts == pytest.approx([np.pi / 2, 3 * np.pi / 2], abs=1e-9)

    def test_blasius_none(self, blasius):
        # U'' = -f f''/2 < 0 for eta > 0 and touches zero only at the wall
        assert inflection_points(blasius) == []

    def test_grid_refinement_invariance(self, monkeypatch):
        p = make_profile("tanh", z0=1.0)
        a = inflection_points(p)
        monkeypatch.setattr(profiles, "INFLECTION_SCAN", 2 * profiles.INFLECTION_SCAN)
        b = inflection_points(p)
        assert len(a) == len(b)
        assert all(abs(x - y) <= 1e-8 for x, y in zip(a, b))
