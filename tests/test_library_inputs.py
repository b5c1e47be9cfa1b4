"""Typed errors for invalid arguments of the library functions called directly."""

import numpy as np
import pytest

from shearstab.errors import ConfigurationError
from shearstab.genfunc import BLNormParams, laplace_solve_1d, strip_norms
from shearstab.resolvent import evans_det, evans_locate, parabolic_green, semigroup_apply


def sech2(x):
    # 2 sech^2: nu * Lap + A has the one eigenvalue 1
    return 2.0 / np.cosh(x) ** 2


RECT = (0.5, 1.5, -0.4, 0.4)


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
])
def test_invalid_argument_is_typed(call, name):
    with pytest.raises(ConfigurationError, match=rf"\b{name}\b"):
        call()
