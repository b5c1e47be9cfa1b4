"""Typed errors for invalid arguments of the library functions called directly."""

import dataclasses
import inspect
import math
import multiprocessing
import re
import signal
import warnings
from collections.abc import Mapping

import numpy as np
import pytest

import shearstab
from shearstab.errors import ConfigurationError, ShearStabError
from shearstab.genfunc import (
    BLNormParams,
    FourierMode,
    GenSeries,
    bl_norm,
    divfree_bilinear,
    elliptic_gen_estimate,
    exp,
    gen_series,
    laplace_solve_1d,
    sample_grid,
    strip_norms,
)
from shearstab.instability import (
    BootstrapResult,
    HopfSeries,
    RiccatiValue,
    euler_series,
    hopf_majorant,
    hopf_series,
    ode_bootstrap,
    riccati_exact,
)
from shearstab.profiles import ShearProfile, blasius_solve, inflection_points, make_profile
from shearstab.resolvent import (
    duhamel_term,
    evans_det,
    evans_locate,
    heat_green,
    parabolic_green,
    semigroup_apply,
)
from shearstab.spectral import SpectralDiscretization, build_grid
from shearstab.stability import (
    EigenSolution,
    NeutralBranch,
    fit_exponents,
    max_growth_rate,
    neutral_curve,
    os_spectrum,
    rayleigh_resolvent,
    rayleigh_spectrum,
)


def sech2(x):
    # 2 sech^2: nu * Lap + A has the one eigenvalue 1
    return 2.0 / np.cosh(x) ** 2


RECT = (0.5, 1.5, -0.4, 0.4)
COS = {1: 0.5, -1: 0.5}
ELL_MODES = [FourierMode(1, lambda y: exp(-y))]
# v = -i (1 - e^{-y}) with u = e^{-y} (ELL_MODES): d_y v = -i alpha u and v(0) = 0
DIV_V_MODES = [FourierMode(1, lambda y: -1j * (1 - exp(-y)))]
# an x-independent g, so that the products stay within truncation (1, 2)
DIV_G_MODES = [FourierMode(0, lambda y: exp(-y))]
PARAMS = BLNormParams(delta=0.05)
POISEUILLE = make_profile("poiseuille")
BRANCH = NeutralBranch([(re, re ** -0.1) for re in np.geomspace(1e4, 1e6, 8)], "lower")
# a valid ode_bootstrap call with growth_rate 1, epsilon 1e-3 and N 3
BOOT = dict(A=np.array([[1.0]]), Q=lambda a, b: a * b, v0=np.array([1.0]), t_grid=np.linspace(0.0, 5.0, 11))


@pytest.mark.parametrize("call, name", [
    # returned [0.6445] (x_far -1) or [] (x_far 0) for the eigenvalue 1
    pytest.param(lambda: evans_locate(sech2, RECT, x_far=-1.0), "x_far",
                 id="evans_locate-x_far-1"),
    pytest.param(lambda: evans_locate(sech2, RECT, x_far=0.0), "x_far",
                 id="evans_locate-x_far0"),
    # spans where the potential has not decayed, |A(x_far)| = 1.57, 0.84,
    # 0.053 and 2: they returned 0.5476, 0.9018, 0.99965 and []
    *[pytest.param(lambda x_far=x_far: evans_locate(sech2, RECT, x_far=x_far), "x_far",
                   id=f"evans_locate-x_far{x_far!r}") for x_far in (0.5, 1.0, 2.5, 5e-324)],
    # evans_det spans +-X_FAR, where this potential is 1e-3
    pytest.param(lambda: evans_det(lambda s: 1e-3 + 0.0 * s, 2.0), "A",
                 id="evans_det-undecayed"),
    # numpy's ValueError
    pytest.param(lambda: evans_locate(sech2, RECT, n_per_side=0), "n_per_side",
                 id="evans_locate-n_per_side0"),
    # warned at nu 0 or NaN and then failed untyped; nu -1 returned a number
    pytest.param(lambda: evans_det(sech2, 2.0, nu=0.0), "nu",
                 id="evans_det-nu0"),
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
    pytest.param(lambda: euler_series(make_profile("kolmogorov"), N=2.5), "N", id="euler_series-N2.5"),
    pytest.param(lambda: hopf_majorant(hopf_series(COS, 1.0, 4), 0.25, 0.05, n_characteristics=2.5),
                 "n_characteristics", id="hopf_majorant-n_characteristics2.5"),
    pytest.param(lambda: hopf_majorant(hopf_series(COS, 1.0, 4), 0.25, 0.05, n_steps=2.5), "n_steps",
                 id="hopf_majorant-n_steps2.5"),
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
    # numpy's TypeError (3.5) or ValueError (1e300) from linspace
    *(pytest.param(lambda n=n: neutral_curve(POISEUILLE, [100.0], (0.8, 1.2), 16, n_scan=n), "n_scan",
                   id=f"neutral_curve-n_scan{n}") for n in (3.5, 1e300)),
    # a RuntimeWarning from linspace, then an error naming alpha
    pytest.param(lambda: neutral_curve(POISEUILLE, [100.0], (0.8, np.inf), 16), "alpha_window",
                 id="neutral_curve-alpha_window_inf"),
    # numpy's ValueError "Maximum allowed size exceeded"
    pytest.param(lambda: build_grid(1e300, "channel"), "N", id="build_grid-N1e300"),
    pytest.param(lambda: hopf_series(COS, 1.0, 1e300), "N", id="hopf_series-N1e300"),
    pytest.param(lambda: neutral_curve(POISEUILLE, [100.0], (0.8, 1.2), 1e300), "N", id="neutral_curve-N1e300"),
    pytest.param(lambda: evans_locate(sech2, RECT, n_per_side=1e300), "n_per_side",
                 id="evans_locate-n_per_side1e300"),
    # passed the eigenpair check, whose comparisons are false, warned, and
    # raised NonconvergenceError
    *(pytest.param(lambda kw=kw: ode_bootstrap(**{**BOOT, "growth_rate": 1.0, "epsilon": 1e-3, "N": 3, **kw}),
                   next(iter(kw)), id=f"ode_bootstrap-{next(iter(kw))}_{tag}")
      for tag, bad in (("nan", np.nan), ("inf", np.inf))
      for kw in ({"A": np.array([[bad]])}, {"v0": np.array([bad])})),
    # "coefficients overflow at order n=2"
    pytest.param(lambda: hopf_series({1: np.nan}, 1.0, 3), "u1", id="hopf_series-u1_nan"),
    # QuadratureError "not finite at 32 nodes"
    pytest.param(lambda: semigroup_apply(-np.eye(2), np.array([np.nan, 1.0]), 1.0), "x0",
                 id="semigroup_apply-x0_nan"),
    # warned, then blamed "lam/nu = (nan+nanj)"
    pytest.param(lambda: evans_locate(sech2, (0.5, np.inf, -0.4, 0.4)), "region", id="evans_locate-region_inf"),
    # named delta, which the call does not pass
    pytest.param(lambda: BLNormParams.from_viscosity(1e-4, 5e-324), "gamma0",
                 id="BLNormParams.from_viscosity-gamma0_5e-324"),
    # named lam/nu, which the call does not pass
    pytest.param(lambda: parabolic_green(sech2, 1e300, 0.3, -0.4, 1.0), "tau", id="parabolic_green-tau1e300"),
    # D(1.5), 9e-13 off the scalar call
    pytest.param(lambda: evans_det(sech2, [1.5, 2.0]), "lam", id="evans_det-lam_list"),
    # numpy's TypeError from a potential that takes only scalars
    pytest.param(lambda: evans_det(lambda s: 2.0 / math.cosh(s) ** 2, 1.2), "A", id="evans_det-A_scalar_only"),
    pytest.param(lambda: parabolic_green(lambda s: 2.0 / math.cosh(s) ** 2, -5.0, 0.3, 0.1, 1.0), "A",
                 id="parabolic_green-A_scalar_only"),
    # NaN norms (nan), and numpy's invalid-value warning (inf)
    pytest.param(lambda: laplace_solve_1d(1, lambda y: np.nan * y, PARAMS), "f", id="laplace_solve_1d-f_nan"),
    pytest.param(lambda: laplace_solve_1d(1, lambda y: np.inf + 0.0 * y, PARAMS), "f", id="laplace_solve_1d-f_inf"),
    # scanned (0.8, 1.0), numpy's ValueError "not enough values to unpack",
    # and a TypeError
    pytest.param(lambda: neutral_curve(POISEUILLE, [100.0], (0.8, 1.0, 1.2), 16), "alpha_window",
                 id="neutral_curve-alpha_window_triple"),
    pytest.param(lambda: evans_locate(sech2, (0.5, 1.5, -0.4)), "region", id="evans_locate-region_triple"),
    pytest.param(lambda: strip_norms(lambda z: np.exp(1j * z), pencil=0.4), "pencil", id="strip_norms-pencil0.4"),
    # numpy's ValueError
    *(pytest.param(lambda kw=kw: parabolic_green(**{**dict(A=sech2, tau=-5.0, x=0.3, y=0.0, nu=1.0), **kw}),
                   next(iter(kw)), id=f"parabolic_green-{next(iter(kw))}_array")
      for kw in ({"tau": np.array([-5.0, -6.0])}, {"x": np.array([0.1, 0.2])}, {"y": np.array([0.1, 0.2])})),
    # returned 0.2148 for a complex position
    pytest.param(lambda: heat_green(1.0, 0.3 + 1j, 0.0, 1.0), "x", id="heat_green-x_complex"),
    # TypeError "'float' object is not subscriptable", a window reported as
    # holding 0 points, and a window read as its first two entries
    *(pytest.param(lambda window=window: fit_exponents(BRANCH, window), "Re_window",
                   id=f"fit_exponents-Re_window{window!r}")
      for window in (0.5, (np.nan, 1e6), (1e5, 1e6, 1e7))),
    # TypeError from isfinite (region), ValueError from a float or complex
    # conversion (u1, Re_list), TypeError from iterating or from dict()
    # (Re_list, u1), and a NaN table accepted (coeffs)
    pytest.param(lambda: evans_locate(sech2, ("a", "b", "c", "d")), "region", id="evans_locate-region_strings"),
    pytest.param(lambda: evans_locate(sech2, [0.5, 1.5, -0.4, None]), "region", id="evans_locate-region_None"),
    *(pytest.param(lambda u1=u1: hopf_series(u1, 1, 3), "u1", id=f"hopf_series-u1{u1!r}")
      for u1 in (None, [1, 2], {1: "abc"})),
    *(pytest.param(lambda Re_list=Re_list: neutral_curve(POISEUILLE, Re_list, (0.8, 1.2), 16), "Re_list",
                   id=f"neutral_curve-Re_list{Re_list!r}") for Re_list in (["abc"], 5000.0)),
    pytest.param(lambda: GenSeries([[np.nan]]), "coeffs", id="GenSeries-coeffs_nan"),
    # blamed x0, which the call does not pass, and numpy's ValueError
    *(pytest.param(lambda value=value: duhamel_term(-np.eye(2), lambda tau: value, 1.0), "forcing",
                   id=f"duhamel_term-forcing_{tag}") for tag, value in (("ones3", np.ones(3)), ("abc", "abc"))),
    # NaN alphas returned (nan, nan, 1.0), an r2 of 1 for no fit, and alpha
    # -1 raised numpy's invalid-value RuntimeWarning from the log
    *(pytest.param(lambda alpha=alpha: fit_exponents(NeutralBranch([(re, alpha) for re, _ in BRANCH.points], "lower"),
                                                     (1e4, 1e6)), "branch", id=f"fit_exponents-branch_alpha{alpha}")
      for alpha in (np.nan, -1.0)),
    # TypeError (None) and ValueError (strings) from unpacking the points
    *(pytest.param(lambda points=points: fit_exponents(NeutralBranch(points, "lower"), (1e4, 1e6)), "branch",
                   id=f"fit_exponents-branch_{tag}") for tag, points in (("None", None), ("strings", ["abc"] * 8))),
    # named refine, which the call does not pass
    pytest.param(lambda: laplace_solve_1d(200000, lambda y: np.exp(-y), PARAMS), "alpha",
                 id="laplace_solve_1d-alpha200000"),
    # AttributeError: a record argument given as its field, its name or its points
    pytest.param(lambda: laplace_solve_1d(1, lambda y: np.exp(-y), 0.05), "params", id="laplace_solve_1d-params_delta"),
    pytest.param(lambda: euler_series("kolmogorov", 2, 8), "profile", id="euler_series-profile_kind"),
    pytest.param(lambda: inflection_points(None), "profile", id="inflection_points-profile_None"),
    pytest.param(lambda: fit_exponents(BRANCH.points, (1e4, 1e6)), "branch", id="fit_exponents-branch_points"),
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


# a valid ode_bootstrap call but for N = 2, below the order that the energy
# constant 20 of diag(1, 20) asks for at growth rate 1
ENERGY_SHORT = dict(A=np.diag([1.0, 20.0]), Q=lambda a, b: a * b, v0=np.array([1.0, 0.0]), growth_rate=1.0,
                    epsilon=1e-3, N=2, t_grid=np.linspace(0.0, 5.0, 11))


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: make_profile("foo"), "kind", id="make_profile-kind"),
    pytest.param(lambda: make_profile("poiseuille", z0=1.0), "z0", id="make_profile-z0_not_taken"),
    pytest.param(lambda: make_profile("tanh"), "z0", id="make_profile-z0_missing"),
    pytest.param(lambda: build_grid(16, "torus"), "domain", id="build_grid-domain"),
    pytest.param(lambda: neutral_curve(make_profile("kolmogorov"), [100.0], (0.5, 1.5), 16), "profile",
                 id="neutral_curve-profile_torus"),
    pytest.param(lambda: euler_series(POISEUILLE, 2, 16), "profile", id="euler_series-profile_channel"),
    pytest.param(lambda: ode_bootstrap(**ENERGY_SHORT), "N", id="ode_bootstrap-N_energy"),
    pytest.param(lambda: FourierMode(1), "expr", id="FourierMode-neither"),
    pytest.param(lambda: FourierMode(1, expr=lambda y: y, derivs=(lambda y: y,)), "expr", id="FourierMode-both"),
    pytest.param(lambda: strip_norms(np.cos), "rho", id="strip_norms-neither"),
    pytest.param(lambda: strip_norms(np.cos, rho=1.0, pencil=(1.0, 1.0)), "rho", id="strip_norms-both"),
    pytest.param(lambda: bl_norm(lambda y: np.exp(-y), 0, PARAMS, flavor="x"), "flavor", id="bl_norm-flavor"),
    pytest.param(lambda: gen_series(ELL_MODES, PARAMS, (2, 2), flavor="x"), "flavor", id="gen_series-flavor"),
])
def test_message_begins_with_the_argument(call, name):
    # the rule of errors.py: a rejected argument's message begins with its
    # name, which the CLI reads to add the flag that set it
    with pytest.raises(ConfigurationError) as info:
        call()
    assert str(info.value).startswith(name + " "), str(info.value)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ode_bootstrap(**{**BOOT, "v0": np.array([0.0])}, growth_rate=1.0, epsilon=1e-3, N=3),
                 r"^v0 must be nonzero$", id="ode_bootstrap-v0_zero"),
    pytest.param(lambda: hopf_series(COS, 1.0, 5).sup_ratio(),
                 r"^the series of order 5 has not enough nonzero terms for a ratio estimate$", id="sup_ratio-order5"),
    pytest.param(lambda: evans_det(lambda s: 2 / math.cosh(s) ** 2, 1.0),
                 r"^A must accept an array of points: A\(\[", id="evans_det-scalar_potential"),
    pytest.param(lambda: neutral_curve(POISEUILLE, [6000.0], (1.2, 0.8), 16),
                 r"^alpha_window must be positive and increasing$", id="neutral_curve-decreasing_window"),
    # a repeated Re was scanned twice and recorded twice on each branch; Re
    # 0 or below failed inside the scan, naming Re
    *(pytest.param(lambda Re_list=Re_list: neutral_curve(POISEUILLE, Re_list, (0.8, 1.2), 16),
                   rf"^Re_list must be positive and strictly increasing, got {re.escape(repr(expected))}$",
                   id=f"neutral_curve-Re_list{Re_list!r}")
      for Re_list, expected in (([8000, 8000], [8000.0, 8000.0]), ([0, 100], [0.0, 100.0]), ([-5], [-5.0]))),
    # sup_norm(0) read the last term's norm, and sup_norm(5) raised IndexError
    *(pytest.param(lambda n=n: hopf_series(COS, 1.0, 4).sup_norm(n), r"^n must be at least 1 and an integer of at most 4",
                   id=f"sup_norm-n{n}") for n in (0, 5)),
    pytest.param(lambda: fit_exponents(NeutralBranch([(re, a, 1.0) for re, a in BRANCH.points], "lower"), (1e4, 1e6)),
                 r"^branch points must be \(Re, alpha\) pairs, got shape \(8, 3\)$",
                 id="fit_exponents-triples"),
    pytest.param(lambda: fit_exponents(NeutralBranch([(re, -a) for re, a in BRANCH.points], "lower"), (1e4, 1e6)),
                 r"^branch points need Re, alpha > 0, got \[10000\.0, -0\.39",
                 id="fit_exponents-negative_alpha"),
])
def test_typed_error_in_process(call, message):
    # paths that the forked calls above do not show to a tracer of this
    # process (the energy check and FourierMode's are in the test before):
    # each raises the documented error with its documented message
    with pytest.raises(ConfigurationError, match=message):
        call()


def test_riccati_infinite_time_is_typed():
    # t = -inf warned and returned NaN, and t = +inf warned where eps < 0
    for t in (-np.inf, np.inf):
        with pytest.raises(ConfigurationError, match=f"^t must be finite, got {t!r}$"):
            riccati_exact(-1.0, 1.0, 0.01, t)


def test_riccati_overflow_is_typed():
    # warned "overflow encountered in exp" and returned inf, not blown up
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=r"^t = 800\.0 is too large: phi\(t\) is not finite there$"):
            riccati_exact(1.0, 0.0, 1.0, 800.0)


def test_overflowing_z2_max_is_reported_not_warned():
    # overflow and invalid-value warnings, then C0..C3 not finite; C3 was
    # 0.0, a finite left side over an overflowed right side
    report = elliptic_gen_estimate(ELL_MODES, PARAMS, 1e300)
    assert report["finite"] is False
    assert all(np.isnan(report[k]) for k in ("C0", "C1", "C2", "C3"))


def test_hopf_series_reads_its_fields():
    # the majorant raised AttributeError for a table that is not an array,
    # a valid nested list included, and ValueError for an even column count
    for coeffs in (None, "abc", [[np.nan, 1.0]], [[1.0, 2.0]]):
        with pytest.raises(ConfigurationError, match="^coeffs must"):
            hopf_majorant(HopfSeries(1.0, coeffs), 0.25, 0.05)
    with pytest.raises(ConfigurationError, match="^alpha must"):
        HopfSeries(0.0, SERIES.coeffs)
    listed = hopf_majorant(HopfSeries(1.0, SERIES.coeffs.tolist()), 0.25, 0.05)
    assert np.array_equal(listed["majorant"], hopf_majorant(SERIES, 0.25, 0.05)["majorant"])


def test_integral_float_mode_numbers_are_accepted():
    # an integral float is its integer: the same mode, series and solve
    assert FourierMode(1.0, lambda y: exp(-y)).alpha == 1
    assert np.array_equal(hopf_series({1.0: 0.5, -1.0: 0.5}, 1.0, 4).coeffs, hopf_series(COS, 1.0, 4).coeffs)
    ref = laplace_solve_1d(1, lambda y: np.exp(-y), BLNormParams(delta=0.05))
    assert laplace_solve_1d(1.0, lambda y: np.exp(-y), BLNormParams(delta=0.05))["norms"] == ref["norms"]


# ---------------------------------------------------------------------------
# The generated library contract: every numeric argument of one valid call
# per public function and constructor, set in turn to each value of its
# sweep.  A value that the parameter's annotation rules out must raise a
# ConfigurationError naming the argument; any other value may return or
# raise a ShearStabError
# ---------------------------------------------------------------------------

# one number's sweep, in the groups an annotation rules out: no finite
# number (None not where it is the default), no integer, and a complex
# number, which an int or a float rules out; -1 and 0 are left to each
# function's own range
NOT_A_NUMBER = [np.nan, np.inf, -np.inf, np.array([1.0, 2.0]), "abc", None]
NOT_AN_INTEGER = [0.5, 2.5, 1e300, 5e-324]
COMPLEX = [1 + 1j]
SWEEP = [*NOT_A_NUMBER, *NOT_AN_INTEGER, *COMPLEX, -1.0, 0.0]
# every array or mapping argument's sweep: None, a string, a NaN entry and
# strings, which no finite array is; one number, no entries and a 1 x 2 nesting
# are left to errors.as_array (one number and the nesting are a valid matrix)
NOT_AN_ARRAY = [None, "abc", [np.nan, 1.0], ["a", "b"]]
ARRAY_SWEEP = [*NOT_AN_ARRAY, 1.0, [], [[1.0, 2.0]]]
# a callable argument's sweep, None and a number, and a mode list's, None, a
# string and a list of a number: no value is a callable or a list of modes
CALLABLE_SWEEP = [None, 1.0]
MODES_SWEEP = [None, "abc", [1.0]]
# the values each kind of parameter rules out
RULED_OUT = {"int": NOT_A_NUMBER + NOT_AN_INTEGER + COMPLEX, "float": NOT_A_NUMBER + COMPLEX,
             "complex": NOT_A_NUMBER, "array": NOT_AN_ARRAY, "callable": CALLABLE_SWEEP}
# records that store their fields as given: their cases need only a typed outcome
EXEMPT = {"BootstrapResult", "EigenSolution", "RiccatiValue", "ShearProfile", "SpectralDiscretization",
          "NeutralBranch"}
GRID = build_grid(24, "channel")
SERIES = hopf_series(COS, 1.0, 4)
# a record argument's sweep, every value ruled out: None, a string, a number
# and a record of another class, the first of RECORDS that is not its own
RECORDS = (PARAMS, SERIES, POISEUILLE, GRID, BRANCH)
RECORD_SWEEP = [None, "abc", 1.0]
# the callable arguments that also take a sympy expression, which a number is
EXPRESSIONS = {("FourierMode", "expr")}

# name -> (callable, keyword arguments of one valid call); every keyword
# whose value is an int, a float or a complex is swept over SWEEP, every
# one whose value is a mapping or a non-empty numeric array, list or tuple
# over ARRAY_SWEEP, every one whose value is a record over RECORD_SWEEP,
# a callable over CALLABLE_SWEEP and a non-empty list of modes over MODES_SWEEP
TEMPLATES = {
    "BLNormParams": (BLNormParams, dict(delta=0.05)),
    "BLNormParams.from_viscosity": (BLNormParams.from_viscosity, dict(nu=1e-4, gamma0=1.0)),
    "FourierMode": (FourierMode, dict(alpha=1, expr=lambda y: exp(-y))),
    "sample_grid": (sample_grid, dict(delta=0.05, n_layer=20, max_step=1.0)),
    "bl_norm": (bl_norm, dict(f=lambda y: np.exp(-y), ell=2, params=PARAMS)),
    "laplace_solve_1d": (laplace_solve_1d, dict(alpha=1, f=lambda y: np.exp(-y), params=PARAMS)),
    "elliptic_gen_estimate": (elliptic_gen_estimate, dict(omega_modes=ELL_MODES, params=PARAMS, z2_max=0.1,
                                                          truncation=(1, 2))),
    "strip_norms": (strip_norms, dict(f=lambda z: np.exp(1j * z), rho=0.5)),
    "strip_norms pencil": (strip_norms, dict(f=lambda z: np.exp(1j * z), pencil=(0.5, 2.0))),
    "GenSeries": (GenSeries, dict(coeffs=np.ones((2, 3)))),
    "gen_series": (gen_series, dict(modes=ELL_MODES, params=PARAMS, truncation=(1, 2))),
    "divfree_bilinear": (divfree_bilinear, dict(u_modes=ELL_MODES, v_modes=DIV_V_MODES, g_modes=DIV_G_MODES,
                                                params=PARAMS, truncation=(1, 2))),
    "BootstrapResult": (BootstrapResult, dict(t_grid=np.zeros(2), terms=(), C=(), sigma=1.0, sigma0=0.1, T1=1.0,
                                              approx=np.zeros(2), residual=np.zeros(2), residual_slope=1.0,
                                              escape_time=1.0, energy_constant=1.0)),
    "HopfSeries": (HopfSeries, dict(alpha=1.0, coeffs=SERIES.coeffs)),
    "RiccatiValue": (RiccatiValue, dict(value=1.0, blown_up=False, t_star=None, limit=None)),
    "ode_bootstrap": (ode_bootstrap, dict(BOOT, growth_rate=1.0, epsilon=1e-3, N=3)),
    "riccati_exact": (riccati_exact, dict(epsilon=0.1, alpha=1.0, phi0=0.01, t=5.0)),
    "hopf_series": (hopf_series, dict(u1=COS, alpha=1.0, N=4)),
    "hopf_majorant": (hopf_majorant, dict(series=SERIES, eta0=0.25, t_max=0.05, n_characteristics=4,
                                          n_steps=20)),
    "euler_series": (euler_series, dict(profile=make_profile("kolmogorov"), N=2, modes=8)),
    "blasius_solve": (blasius_solve, dict(tolerance=1e-8)),
    "make_profile": (make_profile, dict(kind="tanh", z0=1.0)),
    "ShearProfile": (ShearProfile, dict(kind=POISEUILLE.kind, domain=POISEUILLE.domain, U=POISEUILLE.U,
                                        dU=POISEUILLE.dU, d2U=POISEUILLE.d2U, params={})),
    "semigroup_apply": (semigroup_apply, dict(A=-np.eye(2), x0=np.ones(2), t=1.0)),
    "duhamel_term": (duhamel_term, dict(A=-np.eye(2), forcing=lambda tau: np.ones(2), t=1.0)),
    "heat_green": (heat_green, dict(t=1.0, x=0.3, z=0.0, nu=1.0)),
    "parabolic_green": (parabolic_green, dict(A=sech2, tau=-5.0, x=0.3, y=-0.4, nu=1.0)),
    "evans_det": (evans_det, dict(A=sech2, lam=2.0, nu=1.0)),
    "evans_locate": (evans_locate, dict(A=sech2, region=RECT, nu=1.0, x_far=15.0, n_per_side=4)),
    "SpectralDiscretization": (SpectralDiscretization, dict(N=2, domain="channel", nodes=GRID.nodes, D1=GRID.D1,
                                                            D2=GRID.D2, D4=GRID.D4, D1_cheb=GRID.D1_cheb)),
    "build_grid": (build_grid, dict(N=16, domain="channel", map_scale=2.0)),
    "EigenSolution": (EigenSolution, dict(eigenvalues=(), modes=np.zeros((0, 0)), residuals=(),
                                          n_tail_rejected=0, n_residual_rejected=0)),
    "rayleigh_spectrum": (rayleigh_spectrum, dict(profile=POISEUILLE, alpha=1.0, grid=GRID)),
    "rayleigh_resolvent": (rayleigh_resolvent, dict(profile=POISEUILLE, alpha=1.0, c=0.5 + 0.1j,
                                                    source=lambda z: np.exp(-z), grid=GRID)),
    "os_spectrum": (os_spectrum, dict(profile=POISEUILLE, alpha=1.0, Re=100.0, grid=GRID)),
    "max_growth_rate": (max_growth_rate, dict(profile=POISEUILLE, alpha=1.0, Re=100.0, grid=GRID)),
    "neutral_curve": (neutral_curve, dict(profile=POISEUILLE, Re_list=[100.0], alpha_window=(0.8, 1.2), N=16,
                                          map_scale=2.0, n_scan=3, alpha_tol=1e-4)),
    "NeutralBranch": (NeutralBranch, dict(points=BRANCH.points, side="lower", subcritical_Re=[])),
    "fit_exponents": (fit_exponents, dict(branch=BRANCH, Re_window=(1e4, 1e6))),
}


def _is_scalar(value):
    return isinstance(value, (int, float, complex)) and not isinstance(value, bool)


def _is_array(value):
    # an empty list is no evidence of numbers: the subcritical_Re of NeutralBranch
    return isinstance(value, Mapping) or (isinstance(value, (list, tuple, np.ndarray))
                                          and np.size(value) > 0 and np.asarray(value).dtype.kind in "biufc")


def _is_record(value):
    return dataclasses.is_dataclass(value) and not isinstance(value, type)


def _is_modes(value):
    return isinstance(value, list) and len(value) > 0 and all(isinstance(m, FourierMode) for m in value)


def _record_sweep(valid):
    return RECORD_SWEEP + [next(r for r in RECORDS if type(r) is not type(valid))]


def _annotated(param):
    """The first type that a parameter's annotation names: float for float | None."""
    return re.split(r"[\[ |]", str(param.annotation))[0]


def _ruled_out(call, arg, valid):
    """The values of its sweep that the annotation of ``arg`` rules out, by
    the type it names (int, float or complex, or the valid value's type
    where it names none), or those of an array, a mapping or a callable;
    None not where it is the default."""
    param = inspect.signature(call).parameters.get(arg)
    annotation = _annotated(param) if param else ""
    kind = ("array" if _is_array(valid) else "callable" if callable(valid)
            else annotation if annotation in RULED_OUT else type(valid).__name__)
    none_is_default = param is not None and param.default is None
    return [v for v in RULED_OUT[kind] if not (v is None and none_is_default)]


def _contract_cases():
    cases = []
    for name, (call, kwargs) in TEMPLATES.items():
        for arg, valid in kwargs.items():
            if _is_record(valid):
                sweep = ruled_out = _record_sweep(valid)
            elif _is_modes(valid):
                sweep = ruled_out = MODES_SWEEP
            elif _is_scalar(valid) or _is_array(valid) or callable(valid):
                sweep = ARRAY_SWEEP if _is_array(valid) else CALLABLE_SWEEP if callable(valid) else SWEEP
                ruled_out = [v for v in _ruled_out(call, arg, valid)
                             if not ((name, arg) in EXPRESSIONS and _is_scalar(v))]
            else:
                continue
            # a record is shown by its class: its repr holds addresses
            cases += [pytest.param(name, arg, value, name not in EXEMPT and any(value is v for v in ruled_out),
                                   id=f"{name}-{arg}={type(value).__name__ if _is_record(value) else repr(value)}")
                      for value in sweep]
    return cases


def test_templates_cover_the_public_api():
    # every name of shearstab.__all__ with a parameter annotated or defaulted
    # as a number, an array, a sequence or a mapping has a template, and
    # every template's valid call returns
    def numeric(param):
        return (_annotated(param) in ("int", "float", "complex", "np.ndarray", "tuple", "list", "dict", "Sequence", "Mapping")
                or _is_scalar(param.default) or _is_array(param.default))

    public = {name for name in shearstab.__all__
              if any(map(numeric, inspect.signature(getattr(shearstab, name)).parameters.values()))}
    assert public <= set(TEMPLATES)
    # the rule is waived only for records, never for a function
    assert EXEMPT <= set(TEMPLATES)
    assert all(isinstance(TEMPLATES[name][0], type) and dataclasses.is_dataclass(TEMPLATES[name][0])
               for name in EXEMPT)
    for call, kwargs in TEMPLATES.values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(**kwargs)


def _alarm(signum, frame):
    raise TimeoutError("no result within 20 s")


@pytest.mark.parametrize("name, arg, value, ruled_out", _contract_cases())
def test_generated_library_contract(name, arg, value, ruled_out):
    # each case returns or raises a ShearStabError, with no warning but the
    # resolution guidance of os_spectrum; a value the annotation rules out
    # raises a ConfigurationError, and a ConfigurationError names the
    # argument.  A case past its time limit fails through the alarm
    call, kwargs = TEMPLATES[name]
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(20)
    raised = None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                call(**{**kwargs, arg: value})
            except ShearStabError as exc:
                raised = exc
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [str(w.message) for w in caught if "resolution guidance" not in str(w.message)] == []
    if isinstance(raised, ConfigurationError):
        assert re.search(rf"\b{re.escape(arg)}\b", str(raised)), str(raised)
    else:
        assert not ruled_out, f"{value!r} is ruled out for {arg}, got {raised!r}"
