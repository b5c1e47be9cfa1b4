"""Typed errors for invalid arguments of the library functions called directly."""

import multiprocessing
import re

import numpy as np
import pytest

from shearstab.errors import ConfigurationError
from shearstab.genfunc import (
    BLNormParams,
    FourierMode,
    elliptic_gen_estimate,
    exp,
    gen_series,
    laplace_solve_1d,
    sample_grid,
    strip_norms,
)
from shearstab.instability import euler_series, hopf_majorant, hopf_series, ode_bootstrap
from shearstab.profiles import make_profile
from shearstab.resolvent import duhamel_term, evans_det, evans_locate, parabolic_green, semigroup_apply
from shearstab.spectral import build_grid


def sech2(x):
    # 2 sech^2: nu * Lap + A has the one eigenvalue 1
    return 2.0 / np.cosh(x) ** 2


RECT = (0.5, 1.5, -0.4, 0.4)
COS = {1: 0.5, -1: 0.5}
ELL_MODES = [FourierMode(1, lambda y: exp(-y))]


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
    # numpy's ValueError "Maximum allowed size exceeded"
    pytest.param(lambda: hopf_majorant(hopf_series(COS, 1.0, 4), 0.25, 0.05, n_steps=1e300), "n_steps",
                 id="hopf_majorant-n_steps1e300"),
    pytest.param(lambda: hopf_majorant(hopf_series(COS, 1.0, 4), 0.25, 0.05, n_characteristics=1e300),
                 "n_characteristics", id="hopf_majorant-n_characteristics1e300"),
    # hung forming 2**refine
    pytest.param(lambda: laplace_solve_1d(1, lambda y: np.exp(-y), BLNormParams(delta=0.05), refine=1e300),
                 "refine", id="laplace_solve_1d-refine1e300"),
    # numpy's MemoryError for 1.56 PiB
    pytest.param(lambda: laplace_solve_1d(1, lambda y: np.exp(-y), BLNormParams(delta=0.05), refine=40),
                 "refine", id="laplace_solve_1d-refine40"),
    # a divide-by-zero RuntimeWarning
    pytest.param(lambda: sample_grid(0.05, 200, 0.0), "max_step", id="sample_grid-max_step0"),
    # ignored: the grid without refinement
    pytest.param(lambda: sample_grid(0.05, 200, -1.0), "max_step", id="sample_grid-max_step-1"),
    pytest.param(lambda: sample_grid(0.05, 200, np.nan), "max_step", id="sample_grid-max_step_nan"),
    # numpy's ValueError "Maximum allowed size exceeded"
    pytest.param(lambda: sample_grid(0.05, 200, 1e-300), "max_step", id="sample_grid-max_step1e-300"),
    # IndexError
    pytest.param(lambda: sample_grid(0.05, -1), "n_layer", id="sample_grid-n_layer-1"),
    # a two-point grid
    pytest.param(lambda: sample_grid(0.05, 0), "n_layer", id="sample_grid-n_layer0"),
    pytest.param(lambda: sample_grid(0.05, 1e300), "n_layer", id="sample_grid-n_layer1e300"),
    # a one-point grid
    pytest.param(lambda: sample_grid(np.nan), "delta", id="sample_grid-delta_nan"),
    # ran without end (N) or raised numpy's ValueError (modes 1e300)
    pytest.param(lambda: euler_series(make_profile("kolmogorov"), N=1e300), "N", id="euler_series-N1e300"),
    pytest.param(lambda: euler_series(make_profile("kolmogorov"), N=2, modes=1e300), "modes",
                 id="euler_series-modes1e300"),
    pytest.param(lambda: euler_series(make_profile("kolmogorov"), N=2, modes=100000), "modes",
                 id="euler_series-modes100000"),
    # all C = 0 with finite true (NaN), numbers (-1), a warning (inf)
    pytest.param(lambda: elliptic_gen_estimate(ELL_MODES, BLNormParams(delta=0.05), np.nan), "z2_max",
                 id="elliptic_gen_estimate-z2_max_nan"),
    pytest.param(lambda: elliptic_gen_estimate(ELL_MODES, BLNormParams(delta=0.05), -1.0), "z2_max",
                 id="elliptic_gen_estimate-z2_max-1"),
    pytest.param(lambda: elliptic_gen_estimate(ELL_MODES, BLNormParams(delta=0.05), np.inf), "z2_max",
                 id="elliptic_gen_estimate-z2_max_inf"),
    # TypeError, IndexError, and Jet tables of 1e9 orders
    pytest.param(lambda: elliptic_gen_estimate(ELL_MODES, BLNormParams(delta=0.05), 0.1, truncation=(2.5, 5)),
                 "truncation", id="elliptic_gen_estimate-truncation2.5"),
    pytest.param(lambda: elliptic_gen_estimate(ELL_MODES, BLNormParams(delta=0.05), 0.1, truncation=(2, -1)),
                 "truncation", id="elliptic_gen_estimate-truncation-1"),
    pytest.param(lambda: elliptic_gen_estimate(ELL_MODES, BLNormParams(delta=0.05), 0.1, truncation=(2, 1e9)),
                 "truncation", id="elliptic_gen_estimate-truncation1e9"),
])
def test_invalid_argument_is_typed(call, name):
    # each call runs in a child process that a time limit stops, so a check
    # that hangs or allocates without bound fails here instead of stalling
    raised = raised_within(call, 30)
    assert raised is not None and issubclass(raised[0], ConfigurationError), raised
    assert re.search(rf"\b{name}\b", raised[1]), raised


def raised_within(call, seconds):
    """(type, message) of the exception ``call()`` raised, or None when it
    returned, from a forked child process that is stopped after ``seconds``."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        try:
            call()
        except Exception as exc:
            send.send((type(exc), str(exc)))
        else:
            send.send(None)

    # fork, not spawn: the calls are lambdas, which a spawned child cannot
    # unpickle; the test process runs no other thread (BLAS is pinned to one)
    proc = ctx.Process(target=child)
    proc.start()
    send.close()  # a child that dies without a result ends the wait at once
    try:
        if not recv.poll(seconds):
            pytest.fail(f"no result within {seconds} s")
        return recv.recv()
    finally:
        proc.kill()
        proc.join()


def test_integral_float_mode_numbers_are_accepted():
    # an integral float is its integer: the same mode, series and solve
    assert FourierMode(1.0, lambda y: exp(-y)).alpha == 1
    assert np.array_equal(hopf_series({1.0: 0.5, -1.0: 0.5}, 1.0, 4).coeffs, hopf_series(COS, 1.0, 4).coeffs)
    ref = laplace_solve_1d(1, lambda y: np.exp(-y), BLNormParams(delta=0.05))
    assert laplace_solve_1d(1.0, lambda y: np.exp(-y), BLNormParams(delta=0.05))["norms"] == ref["norms"]
