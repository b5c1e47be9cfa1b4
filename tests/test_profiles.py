import numpy as np
import pytest

from shearstab import profiles
from shearstab.errors import ConfigurationError, UnsupportedProfileError
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
        with pytest.raises(UnsupportedProfileError):
            make_profile("nosuch")

    def test_missing_param(self):
        with pytest.raises(ConfigurationError):
            make_profile("tanh")

    @pytest.mark.parametrize("z0", [np.nan, np.inf])
    def test_tanh_shift_must_be_finite(self, z0):
        with pytest.raises(ConfigurationError, match="z0 must be finite"):
            make_profile("tanh", z0=z0)

    def test_custom_needs_table(self):
        z = np.linspace(0, 10, 40)
        with pytest.raises(ConfigurationError, match="table"):
            make_profile("custom", z=z, U=1 - np.exp(-z))

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

    def test_custom_table(self):
        z = np.linspace(0, 10, 400)
        p = make_profile("custom", table=np.c_[z, 1 - np.exp(-z)])
        assert p.lower_accuracy
        zt = np.linspace(0.5, 8, 50)
        assert np.allclose(p.U(zt), 1 - np.exp(-zt), atol=1e-6)


@pytest.fixture(scope="module")
def blasius():
    return blasius_solve(tolerance=1e-8)


class TestBlasius:
    def test_wall_shear(self, blasius):
        assert blasius.params["fpp0"] == pytest.approx(0.332057, abs=2e-6)

    def test_far_field(self, blasius):
        assert abs(blasius.U(10.0) - 1.0) < 1e-6

    def test_wall_values(self, blasius):
        assert blasius.U(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_monotone(self, blasius):
        eta = np.linspace(0, 10, 500)
        assert np.all(blasius.dU(eta) > 0)
        assert np.all(blasius.dU(np.linspace(0, 14.9, 500)) >= 0)


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
