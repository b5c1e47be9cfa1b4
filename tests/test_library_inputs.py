"""Typed errors for invalid arguments of the library functions called directly."""

import numpy as np
import pytest

from shearstab.errors import ConfigurationError
from shearstab.genfunc import BLNormParams, FourierMode, exp, gen_series, laplace_solve_1d, strip_norms
from shearstab.instability import euler_series, hopf_majorant, hopf_series, ode_bootstrap
from shearstab.profiles import make_profile
from shearstab.resolvent import duhamel_term, evans_det, evans_locate, parabolic_green, semigroup_apply
from shearstab.spectral import build_grid


def sech2(x):
    # 2 sech^2: nu * Lap + A has the one eigenvalue 1
    return 2.0 / np.cosh(x) ** 2


RECT = (0.5, 1.5, -0.4, 0.4)
COS = {1: 0.5, -1: 0.5}


@pytest.mark.parametrize("call, name", [
    # returned [0.6445] (x_far -1) or [] (x_far 0) for the eigenvalue 1
    pytest.param(lambda: evans_locate(sech2, RECT, x_far=-1.0), "x_far",
                 id="evans_locate-x_far-1"),
    pytest.param(lambda: evans_locate(sech2, RECT, x_far=0.0), "x_far",
                 id="evans_locate-x_far0"),
    # numpy's ValueError
    pytest.param(lambda: evans_locate(sech2, RECT, n_per_side=0), "n_per_side",
                 id="evans_locate-n_per_side0"),
    # warned at nu 0 or NaN and then failed untyped; nu -1 returned a number
    pytest.param(lambda: evans_det(sech2, 2.0, nu=0.0), "nu",
                 id="evans_det-nu0"),
    pytest.param(lambda: evans_det(sech2, 2.0, nu=np.nan), "nu",
                 id="evans_det-nu_nan"),
    pytest.param(lambda: evans_det(sech2, 2.0, nu=-1.0), "nu",
                 id="evans_det-nu-1"),
    pytest.param(lambda: evans_locate(sech2, RECT, nu=0.0), "nu",
                 id="evans_locate-nu0"),
    pytest.param(lambda: evans_locate(sech2, RECT, nu=np.nan), "nu",
                 id="evans_locate-nu_nan"),
    pytest.param(lambda: parabolic_green(sech2, -5.0j, 0.3, -0.4, 0.0), "nu",
                 id="parabolic_green-nu0"),
    pytest.param(lambda: parabolic_green(sech2, -5.0j, 0.3, -0.4, np.nan), "nu",
                 id="parabolic_green-nu_nan"),
    # scipy's ValueError, and a NaN value
    pytest.param(lambda: evans_det(sech2, complex("nan")), "lam",
                 id="evans_det-lam_nan"),
    pytest.param(lambda: parabolic_green(sech2, -5.0j, np.nan, -0.4, 1.0), "x",
                 id="parabolic_green-x_nan"),
    # ZeroDivisionError before the Green solve's own check
    pytest.param(lambda: laplace_solve_1d(0, lambda y: np.exp(-y), BLNormParams(delta=0.05)), "alpha",
                 id="laplace_solve_1d-alpha0"),
    # returned results
    pytest.param(lambda: strip_norms(lambda z: np.exp(1j * z), rho=0.0), "rho",
                 id="strip_norms-rho0"),
    pytest.param(lambda: strip_norms(lambda z: np.exp(1j * z), rho=-1.0), "rho",
                 id="strip_norms-rho-1"),
    # numpy's LinAlgError from the default contour's eigenvalues
    pytest.param(lambda: semigroup_apply(np.array([[np.nan, 0.0], [0.0, -1.0]]), np.ones(2), 1.0), "A",
                 id="semigroup_apply-A_nan"),
    # named the inner t - tau = -0.9801..., not the t passed
    pytest.param(lambda: duhamel_term(-np.eye(2), lambda tau: np.ones(2), -1.0),
                 r"t must be nonnegative and finite, got -1\.0", id="duhamel_term-t-1"),
    # mode numbers truncated: u1 = {0: 1}, alpha 1 and a solve for alpha = 1
    pytest.param(lambda: hopf_series({0.5: 1, -0.5: 1}, 1.0, 3), "u1",
                 id="hopf_series-u1_half"),
    pytest.param(lambda: FourierMode(1.5, lambda y: exp(-y)), "alpha",
                 id="FourierMode-alpha1.5"),
    pytest.param(lambda: laplace_solve_1d(1.5, lambda y: np.exp(-y), BLNormParams(delta=0.05)), "alpha",
                 id="laplace_solve_1d-alpha1.5"),
    # ZeroDivisionError
    pytest.param(lambda: hopf_majorant(hopf_series(COS, 1.0, 4), 0.25, 0.05, n_characteristics=0),
                 "n_characteristics", id="hopf_majorant-n_characteristics0"),
    pytest.param(lambda: hopf_majorant(hopf_series(COS, 1.0, 4), 0.25, 0.05, n_steps=0), "n_steps",
                 id="hopf_majorant-n_steps0"),
    # non-integer counts: a TypeError from range, linspace or an array shape
    pytest.param(lambda: evans_locate(sech2, RECT, n_per_side=2.5), "n_per_side",
                 id="evans_locate-n_per_side2.5"),
    pytest.param(lambda: ode_bootstrap(np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.0, 1e-3, 2.5,
                                       np.linspace(0.0, 5.0, 11)), "N", id="ode_bootstrap-N2.5"),
    pytest.param(lambda: hopf_series(COS, 1.0, 2.5), "N", id="hopf_series-N2.5"),
    pytest.param(lambda: euler_series(make_profile("kolmogorov"), N=2.5), "N", id="euler_series-N2.5"),
    pytest.param(lambda: build_grid(2.5, "channel"), "N", id="build_grid-N2.5"),
    pytest.param(lambda: hopf_majorant(hopf_series(COS, 1.0, 4), 0.25, 0.05, n_characteristics=2.5),
                 "n_characteristics", id="hopf_majorant-n_characteristics2.5"),
    pytest.param(lambda: hopf_majorant(hopf_series(COS, 1.0, 4), 0.25, 0.05, n_steps=2.5), "n_steps",
                 id="hopf_majorant-n_steps2.5"),
    pytest.param(lambda: laplace_solve_1d(1, lambda y: np.exp(-y), BLNormParams(delta=0.05), refine=0.5),
                 "refine", id="laplace_solve_1d-refine0.5"),
    # 2**-1 is a float grid size
    pytest.param(lambda: laplace_solve_1d(1, lambda y: np.exp(-y), BLNormParams(delta=0.05), refine=-1),
                 "refine", id="laplace_solve_1d-refine-1"),
    pytest.param(lambda: gen_series([FourierMode(1, lambda y: exp(-y))], BLNormParams(delta=0.05), (2.5, 4)),
                 "truncation", id="gen_series-truncation2.5"),
    # truncated to 16 modes, and a result returned
    pytest.param(lambda: euler_series(make_profile("kolmogorov"), N=2, modes=16.5), "modes",
                 id="euler_series-modes16.5"),
])
def test_invalid_argument_is_typed(call, name):
    with pytest.raises(ConfigurationError, match=rf"\b{name}\b"):
        call()


def test_integral_float_mode_numbers_are_accepted():
    # an integral float is its integer: the same mode, series and solve
    assert FourierMode(1.0, lambda y: exp(-y)).alpha == 1
    assert np.array_equal(hopf_series({1.0: 0.5, -1.0: 0.5}, 1.0, 4).coeffs, hopf_series(COS, 1.0, 4).coeffs)
    ref = laplace_solve_1d(1, lambda y: np.exp(-y), BLNormParams(delta=0.05))
    assert laplace_solve_1d(1.0, lambda y: np.exp(-y), BLNormParams(delta=0.05))["norms"] == ref["norms"]
