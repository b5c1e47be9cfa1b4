"""Task lists of the four benchmark workloads, each task with its oracle.

A task is a call into the package's public API (``run``) and a check of its
output against a reference that does not come from the code under test
(``check``).  Only ``run`` is timed.  Inputs are drawn from the workload's
seeded generator, so one seed always gives the same inputs.

Workloads and why they were chosen:

* ``spectra``: Orr-Sommerfeld and Rayleigh spectra.  QZ, the spurious-mode
  filters and the eigenpair polish do nearly all the work.  Many small-N
  solves on one grid (``neutral_curve``) sit next to single large-N solves
  that are pure QZ, so a change that helps one and costs the other shows.
* ``contour``: contour quadrature and ODE integration.  Dense solves and
  DOP853/Radau integrations dominate and no QZ runs: the bypass workload
  for every ``stability`` change, and the reverse.
* ``series``: generator-function and instability series.  Python-loop
  majorant evaluation and sympy ``diff``/``lambdify`` dominate.  Some modes
  are fresh seeded expressions in every pass, so the symbolic cost is not
  served from a cache; others repeat, so the caches are used.
* ``cli``: every subcommand at small sizes, each a fresh process.
  Interpreter and package start-up dominate; lazy imports show here only.

Two tasks are known defects of the package and are kept as ordinary tasks:
``os_re1e7_n480`` (the unstable mode is lost at N=480) and
``evans_6sech2`` (a double root is reported in place of {1, 4}).  Their
oracle misses count in the workload's pass share like any other; they are
marked so that the run's ``correct`` flag reports new misses only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import scipy.linalg
import sympy as sp

from shearstab import genfunc, instability, profiles, resolvent, spectral, stability
from shearstab.genfunc import BLNormParams, FourierMode, Y
from shearstab.profiles import CHANNEL, HALF_LINE

WORKLOADS = ("spectra", "contour", "series", "cli")

# Reference values from the literature or from closed forms.
ORSZAG_C = 0.23752649 + 0.00373967j   # Orszag, J. Fluid Mech. 50 (1971): alpha=1, Re=1e4
RE1E7_C = 0.0301697 + 0.00192359j     # alpha=0.25, Re=1e7; N=200 and N=320 agree to 1e-8
BLASIUS_FPP0 = 0.33205734             # Blasius wall shear f''(0) for f''' + f f''/2 = 0
BLASIUS_ALPHA_C = 0.175               # Jordinson (1970): alpha_delta* = 0.3012 at Re_delta* = 519.4,
                                      # in eta units (delta* = 1.7208): alpha = 0.175 at Re = 302
SLOPES = {"poiseuille_lower": -1.0 / 7.0, "poiseuille_upper": -1.0 / 11.0,
          "exponential_lower": -0.25}
SLOPE_TOL = 0.40                      # the acceptance gate of the marginal-branch fits
COS = {1: 0.5, -1: 0.5}


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    tiny: bool = False            # part of the reduced list used by the smoke check
    group: str = ""               # CLI subcommand of the task, if any
    known_defect: bool = False    # misses its oracle at the package's current state


@dataclass
class Context:
    """Seeded inputs and the run-time switches shared by one workload's tasks."""

    seed: int
    ref_scale: float = 1.0        # != 1 makes every reference value wrong (smoke check)
    memo: dict = field(default_factory=dict)
    cli_stats_dir: str | None = None   # set while CLI children are traced

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    def ref(self, value):
        return value * self.ref_scale


@dataclass
class Workload:
    name: str
    warmup: list[Callable[[], Any]]     # one small call of each kind, run during set-up
    tasks: list[Task]


def _agree(a, b):
    """Symmetric relative difference, as the acceptance fits use it."""
    return abs(a - b) / max(abs(a), abs(b))


def _leading(sol):
    return sol.eigenvalues[0] if sol.eigenvalues else complex("nan")


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def spectra(ctx: Context) -> Workload:
    blasius = profiles.blasius_solve(1e-10)
    poiseuille = profiles.make_profile("poiseuille")
    shift = ctx.rng.uniform(-0.01, 0.01)
    band_alphas = np.linspace(0.8, 1.2, 11) + shift

    def os_leading(alpha, Re, N):
        return lambda: _leading(stability.os_spectrum(
            profiles.make_profile("poiseuille"), alpha, Re, spectral.build_grid(N, CHANNEL)))

    def orszag_check(c):
        ctx.memo["c160"] = c
        return abs(c - ctx.ref(ORSZAG_C)) <= 1e-7

    def doubling_check(c):
        return abs(c - ctx.memo.get("c160", np.nan)) <= 1e-5 and abs(c - ctx.ref(ORSZAG_C)) <= 1e-7

    def band_growth(Re):
        def run():
            grid = spectral.build_grid(64, CHANNEL)
            return max(stability.max_growth_rate(poiseuille, a, Re, grid) for a in band_alphas)
        return run

    def neutral(kind, Re_list, window, N, map_scale, n_scan, tol):
        def run():
            prof = profiles.make_profile(kind)
            lower, upper = stability.neutral_curve(prof, Re_list, window, N=N, map_scale=map_scale,
                                                   n_scan=n_scan, alpha_tol=tol)
            window_Re = (Re_list[0], Re_list[-1])
            return (stability.fit_exponents(lower, window_Re)[0],
                    stability.fit_exponents(upper, window_Re)[0] if kind == "poiseuille" else None)
        return run

    def poiseuille_slopes_check(out):
        lo, up = out
        return (_agree(lo, ctx.ref(SLOPES["poiseuille_lower"])) <= SLOPE_TOL
                and _agree(up, ctx.ref(SLOPES["poiseuille_upper"])) <= SLOPE_TOL)

    def blasius_run():
        lower, upper = stability.neutral_curve(blasius, [250.0, 400.0], (0.02, 0.35), N=64,
                                               map_scale=6.0, n_scan=10, alpha_tol=1e-3)
        return lower, upper, float(blasius.dU(np.array(0.0)))

    def blasius_check(out):
        # Re = 250 lies below the critical Re and Re = 400 above it, so only
        # the second is unstable, over a band that contains the critical alpha
        lower, upper, fpp0 = out
        low, up = dict(lower.points), dict(upper.points)
        return (abs(fpp0 - ctx.ref(BLASIUS_FPP0)) <= 1e-6
                and lower.subcritical_Re == [250.0] and 400.0 in low
                and low[400.0] < ctx.ref(BLASIUS_ALPHA_C) < up[400.0])

    def rayleigh_run():
        tanh = profiles.make_profile("tanh", z0=1.0)
        out = []
        for N in (192, 384):
            sol = stability.rayleigh_spectrum(tanh, 0.5, spectral.build_grid(N, HALF_LINE, map_scale=4.0))
            out.append([c for c in sol.eigenvalues if c.imag > 1e-6])
        return out

    def rayleigh_check(out):
        c1, c2 = out
        return len(c1) == 1 and len(c2) == 1 and abs(c1[0] - c2[0]) <= 1e-6

    re1e7_check = lambda c: abs(c - ctx.ref(RE1E7_C)) <= 1e-6  # noqa: E731

    tasks = [
        Task("os_orszag_n160", os_leading(1.0, 1e4, 160), orszag_check, tiny=True),
        Task("os_orszag_n320", os_leading(1.0, 1e4, 320), doubling_check),
        # Orszag's Re_c = 5772 lies between the two
        Task("band_growth_re5000", band_growth(5000.0), lambda g: g <= 0.0),
        Task("band_growth_re6500", band_growth(6500.0), lambda g: g > 0.0),
        Task("neutral_poiseuille", neutral("poiseuille", list(np.geomspace(1e5, 1e6, 4)), (0.25, 1.1),
                                           64, 2.0, 12, 1e-3), poiseuille_slopes_check),
        Task("neutral_exponential", neutral("exponential", list(np.geomspace(1e5, 1e7, 4)), (0.015, 0.30),
                                            64, 4.0, 12, 2e-4),
             lambda out: _agree(out[0], ctx.ref(SLOPES["exponential_lower"])) <= SLOPE_TOL),
        Task("neutral_blasius", blasius_run, blasius_check, tiny=True),
        Task("rayleigh_tanh_doubling", rayleigh_run, rayleigh_check),
        Task("os_re1e7_n200", os_leading(0.25, 1e7, 200), re1e7_check),
        Task("os_re1e7_n320", os_leading(0.25, 1e7, 320), re1e7_check),
        Task("os_re1e7_n480", os_leading(0.25, 1e7, 480), re1e7_check, known_defect=True),
    ]
    warmup = [
        os_leading(1.0, 1e4, 48),
        lambda: stability.rayleigh_spectrum(
            profiles.make_profile("tanh", z0=1.0), 0.5, spectral.build_grid(48, HALF_LINE, map_scale=4.0)),
        lambda: stability.neutral_curve(
            blasius, [400.0], (0.02, 0.35), N=32, map_scale=6.0, n_scan=6, alpha_tol=1e-2),
    ]
    return Workload("spectra", warmup, tasks)


# ---------------------------------------------------------------------------
# contour
# ---------------------------------------------------------------------------

def contour(ctx: Context) -> Workload:
    rng = ctx.rng
    tasks = []
    # the quadrature's node count depends on A, so the matrices are the same
    # for every seed (the first ones of the acceptance check); x0 is seeded
    mat_rng = np.random.default_rng(20)
    for i in range(4):
        A = mat_rng.standard_normal((4, 4))
        A *= 2.0 / max(1e-9, np.max(np.abs(np.linalg.eigvals(A).real)))
        mat_rng.standard_normal(4)
        x0 = rng.standard_normal(4)

        def run(A=A, x0=x0):
            vals = [resolvent.semigroup_apply(A, x0, t) for t in (0.5, 1.0, 2.0)]
            v12 = resolvent.semigroup_apply(A, resolvent.semigroup_apply(A, x0, 0.7), 0.6)
            return vals, v12, resolvent.semigroup_apply(A, x0, 1.3)

        def check(out, A=A, x0=x0):
            vals, v12, v3 = out
            scale = np.linalg.norm(x0)
            exp_err = max(np.max(np.abs(v - scipy.linalg.expm(A * t) @ x0 * ctx.ref(1.0)))
                          for v, t in zip(vals, (0.5, 1.0, 2.0))) / scale
            return exp_err <= 1e-8 and np.max(np.abs(np.asarray(v12) - np.asarray(v3))) / scale <= 1e-7

        tasks.append(Task(f"semigroup_m{i}", run, check, tiny=i == 0))

    heat_pts = [(t, d) for t in rng.uniform(0.1, 2.0, 8) for d in rng.uniform(0.0, 4.0, 8)]

    def heat_check(vals):
        exact = [np.exp(-d**2 / (4 * t)) / np.sqrt(4 * np.pi * t) for t, d in heat_pts]
        return max(abs(v - ctx.ref(e)) / e for v, e in zip(vals, exact)) <= 1e-6

    tasks.append(Task("heat_green_grid", lambda: [resolvent.heat_green(t, d, 0.0, 1.0) for t, d in heat_pts],
                      heat_check, tiny=True))

    # the ODE and quadrature step counts of parabolic_green and duhamel_term
    # depend on their inputs (by up to 1.6x), so these are the same for every seed
    fixed_rng = np.random.default_rng(21)
    para_pts = [(fixed_rng.uniform(0.5, 3.0), fixed_rng.uniform(-1.0, 1.0), fixed_rng.uniform(-1.0, 1.0))
                for _ in range(4)]

    def para_check(vals):
        # constant-coefficient kernel -(1 / 2 sqrt(lambda nu)) exp(-|x-y| sqrt(lambda/nu)), nu = 1
        exact = [-np.exp(-abs(x - y) * np.sqrt(1j * tau)) / (2 * np.sqrt(1j * tau)) for tau, x, y in para_pts]
        return max(abs(v - ctx.ref(e)) / abs(e) for v, e in zip(vals, exact)) <= 1e-6

    tasks.append(Task("parabolic_green_free",
                      lambda: [resolvent.parabolic_green(lambda s: 0.0 * s, tau, x, y, 1.0) for tau, x, y in para_pts],
                      para_check))

    # n_per_side and x_far are below the defaults to keep a pass short; the
    # eigenvalues stay within 2e-12 of the exact ones
    def evans(amp, region):
        return lambda: resolvent.evans_locate(lambda s: amp / np.cosh(s) ** 2, region, nu=1.0,
                                              x_far=10.0, n_per_side=12)

    def roots_check(expected):
        def check(zeros):
            got = sorted(zeros, key=lambda z: z.real)
            want = [ctx.ref(e) for e in expected]
            return len(got) == len(want) and all(abs(g - w) <= 1e-6 for g, w in zip(got, want))
        return check

    # nu * Lap + n(n+1) sech^2 has the eigenvalues k^2, k = n, n-1, ... > 0
    tasks.append(Task("evans_2sech2", evans(2.0, (0.5, 1.5, -0.4, 0.4)), roots_check([1.0])))
    tasks.append(Task("evans_6sech2", evans(6.0, (0.5, 4.5, -0.4, 0.4)), roots_check([1.0, 4.0]), known_defect=True))

    epss = [1e-3, 1e-4, 1e-5]

    def bootstrap_run():
        times = []
        for eps in epss:
            tg = np.linspace(0.0, -np.log(eps) + 4.0, 81)
            r = instability.ode_bootstrap(np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.0, eps, 5, tg)
            times.append(r.escape_time)
        return float(np.polyfit(-np.log(epss), times, 1)[0])

    # escape time grows like log(1/eps) / Re(lambda), Re(lambda) = 1
    tasks.append(Task("bootstrap_escape_slope", bootstrap_run, lambda s: abs(s - ctx.ref(1.0)) <= 0.05))

    A2 = np.array([[-0.5, 0.4], [0.0, -1.2]])
    b2 = fixed_rng.uniform(-1.0, 1.0, 2)
    t2 = 1.3

    def duhamel_check(v):
        exact = (scipy.linalg.expm(A2 * t2) - np.eye(2)) @ scipy.linalg.solve(A2, b2)
        return np.max(np.abs(v - ctx.ref(exact))) <= 1e-8 * (1 + np.max(np.abs(exact)))

    tasks.append(Task("duhamel_constant_forcing", lambda: instability.duhamel_term(A2, lambda tau: b2, t2),
                      duhamel_check))

    warm_A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    warmup = [
        lambda: resolvent.semigroup_apply(warm_A, np.ones(2), 1.0),
        lambda: resolvent.heat_green(1.0, 0.5, 0.0, 1.0),
        lambda: resolvent.evans_det(lambda s: 2.0 / np.cosh(s) ** 2, 1.2 + 0.1j),
        lambda: resolvent.parabolic_green(lambda s: 0.0 * s, 1.0, 0.1, 0.0, 1.0),
        lambda: instability.ode_bootstrap(
            np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.0, 1e-2, 3, np.linspace(0.0, 6.0, 21)),
    ]
    return Workload("contour", warmup, tasks)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def series(ctx: Context) -> Workload:
    rng = ctx.rng
    params = BLNormParams(delta=0.05)
    check_params = BLNormParams.from_viscosity(1e-4, 1.0)

    def corpus_fn():
        a1, a2 = rng.uniform(0.3, 2.0, 2)
        b = rng.uniform(-2.0, 2.0)
        s = rng.uniform(4.0, 12.0)
        c = rng.uniform(1.0, 3.0)
        return lambda z: a1 * np.exp(1j * b * z) * np.exp(-(z**2) / s) + a2 / (z**2 + c**2)

    funcs = [corpus_fn() for _ in range(100)]

    def strip_run():
        return [genfunc.strip_norms(f, rho=0.5, g=funcs[(i + 1) % 100])["product_check"]
                for i, f in enumerate(funcs)]

    def hopf_run():
        s20 = instability.hopf_series(COS, 1.0, 20)
        return s20.terms[1], max(s20.recurrence_residual(n) for n in range(2, 21))

    def hopf_check(out):
        u2, worst = out
        # u2 = (1/2) sin 2z exactly
        return u2 == {2: ctx.ref(-0.25j), -2: ctx.ref(0.25j)} and worst <= 1e-10

    def majorant_run():
        rep = instability.hopf_majorant(instability.hopf_series(COS, 1.0, 12), eta0=0.25, t_max=0.05)
        return rep["max_residual"], rep["K_monotone_ok"]

    kolmogorov = profiles.make_profile("kolmogorov")

    # fresh expressions: new seeded coefficients in every pass, as genfunc-check builds them
    def fresh_gen_run():
        out = []
        for _ in range(5):
            a, b = rng.uniform(0.5, 2.0, 2)
            w = int(rng.integers(1, 4))
            sym = FourierMode(w, expr=sp.Float(a) * sp.exp(-sp.Float(b) * Y))
            out.append((a, b, w, genfunc.gen_series([sym], check_params, (4, 8))))
        return out

    def fresh_gen_check(out):
        # the same coefficients from closed-form derivatives a (-b)^l e^{-b y}
        for a, b, w, G in out:
            derivs = [lambda y, l=l: ctx.ref(a) * (-b) ** l * np.exp(-b * np.asarray(y)) + 0j for l in range(9)]
            ref = genfunc.gen_series([FourierMode(w, derivs=derivs)], check_params, (4, 8)).coeffs
            if np.max(np.abs(G.coeffs - ref)) > 1e-10 * np.max(np.abs(ref)):
                return False
        return True

    def fresh_divfree_run():
        a, b, c, d = rng.uniform(0.5, 2.0, 4)
        u = [FourierMode(1, sp.Float(a) * sp.exp(-sp.Float(b) * Y))]
        v = [FourierMode(1, -sp.I * sp.Float(a / b) * (1 - sp.exp(-sp.Float(b) * Y)))]
        g = [FourierMode(1, sp.Float(c) * sp.exp(-sp.Float(d) * Y**2))]
        return genfunc.divfree_bilinear(u, v, g, params, truncation=(3, 5))

    # repeated expressions: the test-suite modes, whose per-mode caches stay warm
    modes = [FourierMode(1, sp.exp(-Y)), FourierMode(3, sp.exp(-2 * Y))]
    dx_modes = [FourierMode(m.alpha, sp.I * m.alpha * m.expr) for m in modes]
    omega = [FourierMode(1, sp.exp(-Y))]
    u_rep = [FourierMode(1, sp.exp(-Y))]
    v_rep = [FourierMode(1, -sp.I * (1 - sp.exp(-Y)))]
    g_rep = [FourierMode(1, sp.exp(-(Y**2)))]

    def gen_dz1_run():
        G = genfunc.gen_series(modes, params, (4, 6))
        Gx = genfunc.gen_series(dx_modes, params, (4, 6))
        return float(np.max(np.abs(Gx.coeffs - G.dz1().coeffs * ctx.ref(1.0))))

    def doubling(fn, keys, n):
        def run():
            return fn(n), fn(2 * n)

        def check(out):
            r1, r2 = out
            return r1["finite"] and r2["finite"] and max(
                _agree(r1[k], r2[k] * ctx.ref(1.0)) for k in keys) <= 0.10
        return run, check

    ell_run, ell_check = doubling(
        lambda n: genfunc.elliptic_gen_estimate(omega, params, 0.1, truncation=(2, n)), ("C0", "C1"), 5)
    div_run, div_check = doubling(
        lambda n: genfunc.divfree_bilinear(u_rep, v_rep, g_rep, params, truncation=(3, n)),
        ("C_dy", "C_transport"), 2)

    def laplace_run():
        f = lambda y: np.exp(-y)  # noqa: E731
        return [(a, genfunc.laplace_solve_1d(a, f, params, with_bl=False)) for a in range(1, 33)]

    def laplace_check(out):
        # phi'' - a^2 phi = e^{-y}, phi(0) = 0, decaying
        for a, res in out:
            y = res["y"]
            exact = -0.5 * y * np.exp(-y) if a == 1 else (np.exp(-y) - np.exp(-a * y)) / (1 - a**2)
            if np.max(np.abs(res["phi"] - ctx.ref(exact))) > 1e-8 * np.max(np.abs(exact)):
                return False
        return True

    tasks = [
        Task("hopf_series_n20", hopf_run, hopf_check, tiny=True),
        Task("hopf_majorant_n12", majorant_run, lambda out: out[0] <= 1e-10 and out[1]),
        Task("euler_n2_m32", lambda: instability.euler_series(kolmogorov, N=2, modes=32)["alpha_gap"],
             lambda gap: gap <= 1e-6),
        Task("euler_n4_m16", lambda: instability.euler_series(kolmogorov, N=4, modes=16)["partial_sum_change"],
             lambda change: change < 0.01),
        Task("strip_norms_corpus", strip_run,
             lambda pcs: max(pc["lhs"] / pc["rhs"] for pc in pcs) <= ctx.ref(1.0) + 1e-9),
        Task("gen_series_fresh", fresh_gen_run, fresh_gen_check, tiny=True),
        Task("divfree_fresh", fresh_divfree_run,
             lambda r: r["finite"] and r["C_dy"] > 0 and r["C_transport"] > 0),
        Task("gen_series_dz1", gen_dz1_run, lambda err: err <= 1e-12),
        Task("elliptic_doubling", ell_run, ell_check),
        Task("divfree_doubling", div_run, div_check),
        Task("laplace_bundle", laplace_run, laplace_check),
    ]
    warmup = [
        lambda: instability.hopf_majorant(instability.hopf_series(COS, 1.0, 3), eta0=0.25, t_max=0.05,
                                          n_characteristics=2, n_steps=10),
        lambda: instability.euler_series(kolmogorov, N=2, modes=16),
        lambda: genfunc.strip_norms(funcs[0], rho=0.5),
        # the repeated-expression tasks themselves, so that their caches are warm
        gen_dz1_run,
        ell_run,
        div_run,
        lambda: genfunc.laplace_solve_1d(1, lambda y: np.exp(-y), params, with_bl=False),
    ]
    return Workload("series", warmup, tasks)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

TRACECLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracecli.py")


def _csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def cli(ctx: Context) -> Workload:
    seed_arg = str(int(ctx.rng.integers(0, 10_000)))
    dx = float(ctx.rng.uniform(0.0, 2.0))

    def spectrum_check(text):
        row = _csv(text)[0]
        return abs(complex(float(row["c_real"]), float(row["c_imag"])) - ctx.ref(ORSZAG_C)) <= 1e-7

    def neutral_check(text):
        # both Re lie above Orszag's Re_c = 5772, with alpha = 1 inside the band
        rows = _csv(text)
        return len(rows) == 2 and all(
            r["status"] == "unstable" and float(r["alpha_low"]) < ctx.ref(1.0) < float(r["alpha_up"]) for r in rows)

    def resolvent_check(text):
        phi = np.array([complex(*v) for v in json.loads(text)["phi"]])
        scale = np.max(np.abs(phi))
        # Dirichlet rows: phi vanishes at both ends of the grid
        return bool(np.all(np.isfinite(phi)) and scale > 0
                    and max(abs(phi[0]), abs(phi[-1])) <= 1e-10 * ctx.ref(scale))

    def heat_check(text):
        exact = np.exp(-dx**2 / 4.0) / np.sqrt(4.0 * np.pi)
        return abs(float(_csv(text)[0]["value"]) - ctx.ref(exact)) <= 1e-6 * exact

    def all_pass(text):
        rows = _csv(text)
        return len(rows) > 0 and all(r["pass"] == "true" for r in rows)

    def hopf_check(text):
        doc = json.loads(text)
        maj = doc["majorant"]
        # u1 = cos z and u2 = (1/2) sin 2z
        return (maj["residual_ok"] and maj["K_monotone_ok"]
                and abs(doc["sup_norms"][0] - ctx.ref(1.0)) <= 1e-12 and abs(doc["sup_norms"][1] - 0.5) <= 1e-12)

    def bootstrap_check(text):
        vals = {r["quantity"]: float(r["value"]) for r in _csv(text)}
        # residual grows like e^{(N+1) Re(lambda) t}, N = 5, lambda = 1
        return abs(vals["residual_slope"] - ctx.ref(6.0)) <= 0.05 * 6.0

    def euler_check(text):
        vals = {r["quantity"]: float(r["value"]) for r in _csv(text)}
        return vals["alpha_gap"] <= 1e-6

    invocations = [
        ("spectrum", ["spectrum", "--profile", "poiseuille", "--alpha", "1", "--re", "1e4", "--n", "96"],
         spectrum_check),
        ("neutral-curve", ["neutral-curve", "--profile", "poiseuille", "--re", "6000:8000:2",
                           "--alpha", "0.8:1.2", "--n", "64", "--tol", "1e-2"], neutral_check),
        ("resolvent", ["resolvent", "--profile", "exponential", "--alpha", "1", "--c", "1.5+0.2j",
                       "--n", "64", "--format", "json"], resolvent_check),
        ("heat-kernel", ["heat-kernel", "--t", "1", "--nu", "1", "--dx", repr(dx)], heat_check),
        ("semigroup", ["semigroup", "--t", "0.5:2:3", "--seed", seed_arg], all_pass),
        ("genfunc-check", ["genfunc-check", "--seed", seed_arg], all_pass),
        ("instability", ["instability", "--mode", "hopf", "--order", "4", "--format", "json"], hopf_check),
        ("instability", ["instability", "--mode", "bootstrap"], bootstrap_check),
        ("instability", ["instability", "--mode", "euler", "--order", "2", "--n", "32"], euler_check),
    ]

    def invoke(name, args):
        counter = [0]

        def run():
            if ctx.cli_stats_dir is None:
                cmd = [sys.executable, "-m", "shearstab.cli", *args]
            else:
                counter[0] += 1
                cmd = [sys.executable, TRACECLI, os.path.join(ctx.cli_stats_dir, f"{name}-{counter[0]}.json"), *args]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} exited with {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return proc.stdout
        return run

    tasks = []
    for sub, args, check in invocations:
        name = "cli_" + (sub if sub != "instability" else f"instability-{args[2]}")
        tasks.append(Task(name, invoke(name, args), check, tiny=sub in ("heat-kernel", "spectrum"), group=sub))
    warmup = [invoke("warm", ["heat-kernel", "--t", "1"])]
    return Workload("cli", warmup, tasks)


BUILDERS = {"spectra": spectra, "contour": contour, "series": series, "cli": cli}
