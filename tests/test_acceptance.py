"""End-to-end acceptance checks for the toolkit.

Each test covers one acceptance criterion, prints a single PASS/FAIL summary
line with the measured numbers, and enforces its runtime budget.  Slope
agreement for the marginal-branch exponents uses the symmetric relative
difference |a-b|/max(|a|,|b|).
"""

import time

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import cumulative_trapezoid, solve_ivp

from shearstab.genfunc import (
    WITH_BL,
    WITHOUT_BL,
    BLNormParams,
    FourierMode,
    Y,
    bl_norm,
    divfree_bilinear,
    elliptic_gen_estimate,
    gen_series,
    laplace_solve_1d,
    strip_norms,
)
from shearstab.instability import (
    euler_series,
    hopf_majorant,
    hopf_series,
    ode_bootstrap,
)
from shearstab.profiles import CHANNEL, HALF_LINE, blasius_solve, make_profile
from shearstab.resolvent import evans_locate, heat_green, semigroup_apply
from shearstab.spectral import build_grid
from shearstab.stability import (
    NeutralBranch,
    fit_exponents,
    max_growth_rate,
    neutral_curve,
    os_spectrum,
    rayleigh_spectrum,
)

COS = {1: 0.5, -1: 0.5}


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num} {name}: {detail}"


def _agree(a, b):
    """Symmetric relative difference between two nonzero slopes."""
    return abs(a - b) / max(abs(a), abs(b))


def expm_taylor(A, t, squarings=20):
    """Independent scaling-and-squaring matrix exponential (Taylor core)."""
    A = np.asarray(A, dtype=complex)
    B = A * (t / 2.0**squarings)
    out = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for k in range(1, 25):
        term = term @ B / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def test_01_heat_kernel_exactness(capsys):
    t0 = time.time()
    worst_rel = 0.0
    worst_excess = 0.0
    for t in np.linspace(0.1, 2.0, 21):
        for d in np.linspace(0.0, 4.0, 21):
            val = heat_green(t, d, 0.0, 1.0)
            exact = np.exp(-d**2 / (4 * t)) / np.sqrt(4 * np.pi * t)
            worst_rel = max(worst_rel, abs(val - exact) / exact)
            worst_excess = max(worst_excess, val - exact)
    elapsed = time.time() - t0
    ok = worst_rel < 1e-6 and worst_excess <= 1e-9 and elapsed < 10.0
    _report(capsys, 1, "heat-kernel-exactness", ok,
            f"rel err {worst_rel:.2e} <= 1e-6, bound excess {worst_excess:.2e}"
            f" <= 1e-9, {elapsed:.1f}s < 10s")


def test_02_semigroup_oracle_equivalence(capsys):
    t0 = time.time()
    rng = np.random.default_rng(20)
    worst_exp = 0.0
    worst_comp = 0.0
    for _ in range(50):
        A = rng.standard_normal((4, 4))
        A *= 2.0 / max(1e-9, np.max(np.abs(np.linalg.eigvals(A).real)))
        x0 = rng.standard_normal(4)
        for t in (0.5, 1.0, 2.0):
            v = semigroup_apply(A, x0, t)
            ref = expm_taylor(A, t) @ x0
            worst_exp = max(worst_exp, np.max(np.abs(v - ref)) / np.linalg.norm(x0))
        v12 = semigroup_apply(A, semigroup_apply(A, x0, 0.7), 0.6)
        v3 = semigroup_apply(A, x0, 1.3)
        worst_comp = max(
            worst_comp,
            np.max(np.abs(np.asarray(v12) - np.asarray(v3))) / np.linalg.norm(x0),
        )
    elapsed = time.time() - t0
    ok = worst_exp < 1e-8 and worst_comp < 1e-7 and elapsed < 30.0
    _report(capsys, 2, "semigroup-oracle-equivalence", ok,
            f"50 matrices: exp err {worst_exp:.2e} <= 1e-8, composition err"
            f" {worst_comp:.2e} <= 1e-7, {elapsed:.1f}s < 30s")


def test_03_evans_eigenvalue(capsys):
    t0 = time.time()
    nu = 1.0
    zeros = evans_locate(lambda s: 2 * nu / np.cosh(s) ** 2,
                         (0.5, 1.5, -0.4, 0.4), nu=nu)
    elapsed = time.time() - t0
    err = abs(zeros[0] - 1.0) if zeros else np.inf
    ok = len(zeros) == 1 and err < 1e-6 and elapsed < 10.0
    _report(capsys, 3, "evans-eigenvalue", ok,
            f"{len(zeros)} zero(s), |lambda-1| = {err:.2e} <= 1e-6,"
            f" {elapsed:.1f}s < 10s")


def test_04_rayleigh_criterion_consistency(capsys):
    t0 = time.time()
    g = build_grid(128, HALF_LINE, map_scale=4.0)
    sol_exp = rayleigh_spectrum(make_profile("exponential"), 1.0, g)
    max_im = max((c.imag for c in sol_exp.eigenvalues), default=-np.inf)

    p = make_profile("tanh", z0=1.0)
    c1 = [c for c in rayleigh_spectrum(
        p, 0.5, build_grid(192, HALF_LINE, map_scale=4.0)).eigenvalues
        if c.imag > 1e-6]
    c2 = [c for c in rayleigh_spectrum(
        p, 0.5, build_grid(384, HALF_LINE, map_scale=4.0)).eigenvalues
        if c.imag > 1e-6]
    gap = abs(c1[0] - c2[0]) if len(c1) == 1 and len(c2) == 1 else np.inf
    elapsed = time.time() - t0
    ok = max_im <= 1e-6 and gap < 1e-6 and elapsed < 60.0
    _report(capsys, 4, "rayleigh-criterion-consistency", ok,
            f"exponential max Im(c) = {max_im:.2e} <= 1e-6, tanh eigenvalue"
            f" N-doubling gap {gap:.2e} <= 1e-6, {elapsed:.1f}s < 60s")


def test_05_orr_sommerfeld_quantitative(capsys):
    t0 = time.time()
    p = make_profile("poiseuille")
    c160 = os_spectrum(p, 1.0, 1e4, build_grid(160, CHANNEL)).eigenvalues[0]
    c320 = os_spectrum(p, 1.0, 1e4, build_grid(320, CHANNEL)).eigenvalues[0]
    gap = abs(c160 - c320)

    grid = build_grid(128, CHANNEL)
    alphas = np.linspace(0.8, 1.2, 21)

    def band_growth(Re):
        return max(max_growth_rate(p, a, Re, grid) for a in alphas)

    # the first supercritical Re must be bracketed by [5000, 6500]
    lo, hi = 5000.0, 6500.0
    bracketed = band_growth(lo) <= 0.0 < band_growth(hi)
    while hi - lo > 50.0:
        mid = 0.5 * (lo + hi)
        if band_growth(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    Re_c = 0.5 * (lo + hi)
    growths = [max_growth_rate(p, a, Re_c + 100.0, grid) for a in alphas]
    alpha_c = float(alphas[int(np.argmax(growths))])
    elapsed = time.time() - t0
    ok = (gap < 1e-5 and bracketed and 0.9 <= alpha_c <= 1.1
          and elapsed < 600.0)
    _report(capsys, 5, "orr-sommerfeld-quantitative", ok,
            f"N=160 vs N=320 gap {gap:.2e} <= 1e-5, Re_c = {Re_c:.0f} in"
            f" [5000, 6500], crossing alpha = {alpha_c:.3f} in [0.9, 1.1],"
            f" {elapsed:.0f}s < 600s")


def test_06_marginal_branch_exponents(capsys):
    t0 = time.time()
    # plane channel flow over Re in [1e5, 1e6]
    p = make_profile("poiseuille")
    lower, upper = neutral_curve(
        p, list(np.geomspace(1e5, 1e6, 5)), (0.25, 1.1), N=160, n_scan=24
    )
    s_lo = fit_exponents(lower, (1e5, 1e6))[0]
    s_up = fit_exponents(upper, (1e5, 1e6))[0]
    d_lo = _agree(s_lo, -1.0 / 7.0)
    d_up = _agree(s_up, -1.0 / 11.0)

    # exponential boundary layer, lower branch; the asymptotic regime needs
    # Re well above the critical value ~5.4e4, so the fit window is [1e5, 1e7]
    pe = make_profile("exponential")
    lo1, _ = neutral_curve(pe, [1e5, 10**5.5, 1e6], (0.015, 0.30),
                           N=192, map_scale=4.0, n_scan=24)
    lo2, _ = neutral_curve(pe, [10**6.5, 1e7], (0.015, 0.30),
                           N=320, map_scale=4.0, n_scan=24)
    s_bl = fit_exponents(
        NeutralBranch(lo1.points + lo2.points, "lower"), (1e5, 1e7)
    )[0]
    d_bl = _agree(s_bl, -0.25)

    # Blasius upper branch is reported but not gated
    pb = blasius_solve(1e-10)
    _, upb = neutral_curve(pb, list(np.geomspace(2e3, 6.4e4, 4)),
                           (0.008, 0.35), N=160, map_scale=6.0, n_scan=28)
    s_b = fit_exponents(upb, (2e3, 6.4e4))[0]
    elapsed = time.time() - t0
    ok = d_lo <= 0.40 and d_up <= 0.40 and d_bl <= 0.40 and elapsed < 3600.0
    _report(capsys, 6, "marginal-branch-exponents", ok,
            f"poiseuille lower {s_lo:.4f} vs -1/7 ({d_lo:.0%}), upper"
            f" {s_up:.4f} vs -1/11 ({d_up:.0%}), exponential lower {s_bl:.4f}"
            f" vs -1/4 ({d_bl:.0%}), all <= 40%; blasius upper {s_b:.4f}"
            f" vs -1/10 reported only; {elapsed:.0f}s < 3600s")


def test_07_generator_inequality_suite(capsys):
    t0 = time.time()
    # product inequality with C0 = 1 on a 100-function analytic corpus
    rng = np.random.default_rng(42)

    def make(rng):
        a1, a2 = rng.uniform(0.3, 2.0, 2)
        b = rng.uniform(-2.0, 2.0)
        s = rng.uniform(4.0, 12.0)
        c = rng.uniform(1.0, 3.0)
        return lambda z: (a1 * np.exp(1j * b * z) * np.exp(-(z**2) / s)
                          + a2 / (z**2 + c**2))

    funcs = [make(rng) for _ in range(100)]
    worst_ratio = 0.0
    for i, f in enumerate(funcs):
        pc = strip_norms(f, rho=0.5, g=funcs[(i + 1) % 100])["product_check"]
        worst_ratio = max(worst_ratio, pc["lhs"] / pc["rhs"])
    product_ok = worst_ratio <= 1.0 + 1e-9

    # term-wise derivative identity on the series coefficients
    params = BLNormParams(delta=0.05)
    modes = [FourierMode(1, sp.exp(-Y)), FourierMode(3, sp.exp(-2 * Y))]
    dx_modes = [FourierMode(m.alpha, sp.I * m.alpha * m.expr) for m in modes]
    G = gen_series(modes, params, (4, 6), WITH_BL)
    Gx = gen_series(dx_modes, params, (4, 6), WITH_BL)
    dz1_err = float(np.max(np.abs(Gx.coeffs - G.dz1().coeffs)))

    # one-derivative-gain bundle stays uniformly bounded over alpha <= 32
    f = lambda y: np.exp(-y) * np.cos(y)
    norm_f = bl_norm(f, 0, params, WITHOUT_BL)
    ratios = []
    for a in range(1, 33):
        n = laplace_solve_1d(a, f, params, with_bl=False)["norms"]
        ratios.append((n["a2_phi"] + n["a_dphi"] + n["d2phi_plain"]) / norm_f)
    spread = max(ratios) / min(ratios)

    # elliptic and divergence-free constants stable under doubling
    e1 = elliptic_gen_estimate([FourierMode(1, sp.exp(-Y))], params, 0.1,
                               truncation=(2, 5))
    e2 = elliptic_gen_estimate([FourierMode(1, sp.exp(-Y))], params, 0.1,
                               truncation=(2, 10))
    d_ell = max(_agree(e1["C0"], e2["C0"]), _agree(e1["C1"], e2["C1"]))

    u = [FourierMode(1, sp.exp(-Y))]
    v = [FourierMode(1, -sp.I * (1 - sp.exp(-Y)))]
    gm = [FourierMode(1, sp.exp(-(Y**2)))]
    b1 = divfree_bilinear(u, v, gm, params, truncation=(3, 5))
    b2 = divfree_bilinear(u, v, gm, params, truncation=(3, 10))
    d_div = max(_agree(b1["C_dy"], b2["C_dy"]),
                _agree(b1["C_transport"], b2["C_transport"]))

    # grid-refinement stability of the measured layer constant
    pl = BLNormParams(delta=0.01)
    lay = lambda y: np.exp(-y / pl.delta) / pl.delta
    nf = bl_norm(lay, 0, pl)
    cs = []
    for refine in (0, 1):
        res = laplace_solve_1d(1, lay, pl, refine=refine)
        cs.append((res["norms"]["a2_phi"] + res["norms"]["a_dphi"]) / nf)
    d_grid = _agree(cs[0], cs[1])

    elapsed = time.time() - t0
    ok = (product_ok and dz1_err < 1e-12 and spread < 20.0
          and d_ell <= 0.10 and d_div <= 0.10 and d_grid <= 0.10
          and elapsed < 300.0)
    _report(capsys, 7, "generator-inequality-suite", ok,
            f"product worst lhs/rhs {worst_ratio:.6f} <= 1 on 100 pairs, dz1"
            f" err {dz1_err:.1e} <= 1e-12, bundle spread {spread:.2f} < 20,"
            f" doubling drift elliptic {d_ell:.1e} / divfree {d_div:.1e} /"
            f" grid {d_grid:.1e} <= 10%, {elapsed:.0f}s < 300s")


def test_08_hopf_toy_model(capsys):
    t0 = time.time()
    s20 = hopf_series(COS, 1.0, 20)
    u2_ok = s20.terms[1] == {2: -0.25j, -2: 0.25j}  # u2 = (1/2) sin 2z
    worst_rec = max(s20.recurrence_residual(n) for n in range(2, 21))

    series = hopf_series(COS, 1.0, 12)
    rep = hopf_majorant(series, eta0=0.25, t_max=0.05)
    elapsed = time.time() - t0
    ok = (u2_ok and worst_rec <= 1e-10 and rep["max_residual"] <= 1e-10
          and rep["K_monotone_ok"] and elapsed < 60.0)
    _report(capsys, 8, "hopf-toy-model", ok,
            f"u2 exact, recurrence residual {worst_rec:.1e} <= 1e-10 to N=20,"
            f" majorant residual {rep['max_residual']:.1e} <= 1e-10,"
            f" K nonincreasing (max increase {rep['K_max_increase']:.1e}),"
            f" {elapsed:.1f}s < 60s")


def test_09_bootstrap_desk_scale(capsys):
    t0 = time.time()
    A1 = np.array([[1.0]])
    Q = lambda a, b: a * b
    v1 = np.array([1.0])

    epss = [1e-3, 1e-4, 1e-5]
    times = []
    res_slopes = []
    for eps in epss:
        tg = np.linspace(0.0, -np.log(eps) + 4.0, 81)
        r = ode_bootstrap(A1, Q, v1, 1.0, eps, 5, tg)
        times.append(r.escape_time)
        res_slopes.append(r.residual_slope)
    slope = float(np.polyfit(-np.log(epss), times, 1)[0])
    worst_res = max(abs(s - 6.0) / 6.0 for s in res_slopes)

    # direct stiff integration of the full quadratic system stays within
    # twice the accumulated residual bound
    A = np.array([[1.0, 0.3], [0.0, -0.5]])
    tg = np.linspace(0.0, 7.0, 141)
    r = ode_bootstrap(A, Q, np.array([1.0, 0.0]), 1.0, 1e-3, 5, tg)
    window = np.max(np.abs(r.approx), axis=1) <= 0.1
    sel = tg <= tg[window][-1]
    sol = solve_ivp(lambda t, y: A @ y + y * y, (0.0, tg[sel][-1]),
                    1e-3 * np.array([1.0, 0.0]), method="Radau",
                    rtol=1e-12, atol=1e-16, t_eval=tg[sel])
    diff = np.max(np.abs(sol.y.T - r.approx[sel]), axis=1)
    mu = r.energy_constant
    bound = np.exp(mu * tg) * np.concatenate(
        [[0.0], cumulative_trapezoid(np.exp(-mu * tg) * r.residual, tg)]
    )
    mask = bound[sel] > 1e-10
    oracle_ratio = float(np.max(diff[mask] / bound[sel][mask]))
    elapsed = time.time() - t0
    ok = (abs(slope - 1.0) <= 0.05 and worst_res <= 0.05
          and oracle_ratio <= 2.0 and elapsed < 60.0)
    _report(capsys, 9, "bootstrap-desk-scale", ok,
            f"escape-time slope {slope:.3f} within 5% of 1, residual slope"
            f" off by {worst_res:.1%} <= 5% of (N+1)Re(lambda), oracle ratio"
            f" {oracle_ratio:.2f} <= 2, {elapsed:.1f}s < 60s")


def test_10_euler_series(capsys):
    t0 = time.time()
    p = make_profile("kolmogorov")
    rep32 = euler_series(p, N=2, modes=32)
    rep16 = euler_series(p, N=4, modes=16)
    elapsed = time.time() - t0
    ok = (rep32["alpha_gap"] <= 1e-6 and rep16["partial_sum_change"] < 0.01
          and elapsed < 300.0)
    _report(capsys, 10, "euler-series", ok,
            f"eigenvalue truncation-doubling gap {rep32['alpha_gap']:.1e}"
            f" <= 1e-6, partial-sum change {rep16['partial_sum_change']:.1e}"
            f" < 1% at the checkpoint time, {elapsed:.0f}s < 300s")
