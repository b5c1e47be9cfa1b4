"""Boundary-layer norms, generator-function series, and majorant inequalities.

A function f(x, y) on the half plane is represented by its Fourier modes
f_alpha(y).  Its generator series collects the weighted sup norms of all
y-derivatives of all modes,

    G(z1, z2) = sum_{alpha, l} e^{z1 |alpha|} ||d_y^l f_alpha||_l z2^l / l!,

with either the plain weight phi(y)^l = (y/(1+y))^l (flavor ``gen0``) or the
additional boundary-layer damping (1 + e^{-y/delta}/delta)^{-1} (flavor
``gen_delta``).  All series coefficients are nonnegative, so evaluations and
all their partial derivatives are monotone on the positive quadrant; the
majorant inequalities verified here (product, x-derivative identity,
elliptic gain, divergence-free transport) compare such evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np
import sympy as sp

from .errors import ConfigurationError, InputError, QuadratureError, RegionError

Y = sp.Symbol("y", real=True, nonnegative=True)

GEN0 = "gen0"
GEN_DELTA = "gen_delta"
WITH_BL = "with_bl"
WITHOUT_BL = "without_bl"

MAX_ELL = 24


@dataclass(frozen=True)
class BLNormParams:
    """Parameters of the boundary-layer norm family."""

    delta: float
    beta: float = 0.0
    gamma0: float | None = None

    def __post_init__(self):
        if self.delta <= 0:
            raise ConfigurationError("delta must be positive")
        if self.beta < 0:
            raise ConfigurationError("beta must be nonnegative")

    @classmethod
    def from_viscosity(cls, nu: float, gamma0: float, beta: float = 0.0) -> "BLNormParams":
        """delta = gamma0 nu^{1/4} (layer thickness of the viscous problem)."""
        if nu <= 0 or gamma0 <= 0:
            raise ConfigurationError("nu and gamma0 must be positive")
        return cls(delta=gamma0 * nu**0.25, beta=beta, gamma0=gamma0)


def weight_phi(y):
    """The spatial weight phi(y) = y / (1 + y): 0 at the wall, 1 at infinity."""
    y = np.asarray(y, dtype=float)
    return y / (1.0 + y)


def _bl_damping(y, delta):
    return 1.0 / (np.exp(-y / delta) / delta + 1.0)


def sample_grid(delta: float, y_max: float = 40.0, refine: int = 0, max_step: float | None = None) -> np.ndarray:
    """Geometric half-line grid, dense (spacing delta/20) inside the layer."""
    k = 2**refine
    near = np.linspace(0.0, min(10.0 * delta, y_max), 200 * k + 1)
    far = np.geomspace(max(near[-1], 1e-12), y_max, 400 * k + 1)
    y = np.unique(np.concatenate([near, far]))
    if max_step is not None:
        pieces = [y]
        wide = np.flatnonzero(np.diff(y) > max_step)
        for i in wide:
            n_extra = int(np.ceil((y[i + 1] - y[i]) / max_step))
            pieces.append(np.linspace(y[i], y[i + 1], n_extra + 1)[1:-1])
        y = np.unique(np.concatenate(pieces))
    return y


def bl_norm(f, ell: int, params: BLNormParams, flavor: str = WITH_BL) -> float:
    """Weighted sup norm sup_y phi(y)^ell |f(y)| (optionally layer-damped).

    ``f`` is either a callable or a pair (y, values).  A callable is sampled
    on up to eight refining geometric grids; the sup returns as soon as two
    successive grids agree to 1e-6 relative, and QuadratureError is raised
    when no two do.
    """
    if flavor not in (WITH_BL, WITHOUT_BL):
        raise ConfigurationError(f"unknown norm flavor {flavor!r}")
    if ell < 0:
        raise ConfigurationError("ell must be nonnegative")

    def sup_on(y, vals):
        w = weight_phi(y) ** ell if ell else np.ones_like(y)
        if flavor == WITH_BL:
            w = w * _bl_damping(y, params.delta)
        return float(np.max(w * np.abs(vals)))

    if callable(f):
        prev = None
        for refine in range(8):
            y = sample_grid(params.delta, refine=refine)
            cur = sup_on(y, np.asarray(f(y)))
            if prev is not None:
                change = abs(cur - prev)
                # purely relative criterion: refinement decisions are invariant
                # under scaling f, keeping norm identities exactly homogeneous
                if change <= 1e-6 * max(cur, 1e-300):
                    return cur
            prev = cur
        raise QuadratureError(
            "weighted sup did not settle on 8 grids "
            f"(last relative change {change / max(cur, 1e-300):.3e})"
        )
    y, vals = np.asarray(f[0], dtype=float), np.asarray(f[1])
    if y.size == 0:
        raise InputError("empty sample")
    return sup_on(y, vals)


# ---------------------------------------------------------------------------
# Fourier modes with exact y-derivatives
# ---------------------------------------------------------------------------


class FourierMode:
    """One Fourier-in-x mode f_alpha(y), with exact symbolic y-derivatives.

    ``expr`` is a sympy expression in the symbol ``genfunc.Y``; alternatively
    a finite tuple of derivative callables (order 0, 1, ...) may be supplied,
    in which case requesting a higher order raises an input error.
    """

    def __init__(self, alpha: int, expr=None, derivs=None):
        self.alpha = int(alpha)
        if (expr is None) == (derivs is None):
            raise ConfigurationError("provide exactly one of expr / derivs")
        self.expr = sp.sympify(expr) if expr is not None else None
        self._derivs = tuple(derivs) if derivs is not None else None
        self._cache = {}

    def derivative(self, ell: int):
        """Callable evaluating d_y^ell of this mode on arrays."""
        if self._derivs is not None:
            if ell >= len(self._derivs):
                raise InputError(
                    f"derivative order {ell} beyond supplied data ({len(self._derivs)} orders)"
                )
            return self._derivs[ell]
        if ell not in self._cache:
            d = sp.diff(self.expr, Y, ell)
            fn = sp.lambdify(Y, d, "numpy")
            self._cache[ell] = lambda y, _f=fn: np.broadcast_to(
                np.asarray(_f(y), dtype=complex), np.shape(y)
            ).copy() if np.ndim(y) else complex(_f(y))
        return self._cache[ell]

    def scaled(self, factor) -> "FourierMode":
        if self.expr is None:
            raise ConfigurationError("cannot scale a table-backed mode symbolically")
        return FourierMode(self.alpha, factor * self.expr)


def _as_modes(modes) -> list[FourierMode]:
    if isinstance(modes, dict):
        return [m if isinstance(m, FourierMode) else FourierMode(a, m) for a, m in modes.items()]
    return list(modes)


# ---------------------------------------------------------------------------
# Generator series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenSeries:
    """Truncated two-variable generator series with nonnegative coefficients.

    ``coeffs[w, l]`` multiplies e^{z1 w} z2^l / l!; the row index w is the
    x-frequency weight |alpha| (or a sum of such weights after products).
    """

    coeffs: np.ndarray
    flavor: str

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 2:
            raise ConfigurationError("coeffs must be 2-D (weight, derivative order)")
        if np.any(c < 0):
            raise InputError("generator coefficients must be nonnegative")
        object.__setattr__(self, "coeffs", c)

    @property
    def truncation(self) -> tuple[int, int]:
        return (self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1)

    def __call__(self, z1: float, z2: float) -> float:
        w = np.arange(self.coeffs.shape[0])
        ell = np.arange(self.coeffs.shape[1])
        fac = np.cumprod(np.concatenate([[1.0], np.maximum(ell[1:], 1)]))
        return float(np.exp(z1 * w) @ self.coeffs @ (z2**ell / fac))

    def dz1(self) -> "GenSeries":
        """Exact d/dz1: term-wise multiplication by the weight w = |alpha|."""
        w = np.arange(self.coeffs.shape[0], dtype=float)
        return GenSeries(self.coeffs * w[:, None], self.flavor)

    def dz2(self) -> "GenSeries":
        """Exact d/dz2: shift in the derivative order (drops the top order)."""
        return GenSeries(self.coeffs[:, 1:], self.flavor)

    def __add__(self, other: "GenSeries") -> "GenSeries":
        W = max(self.coeffs.shape[0], other.coeffs.shape[0])
        L = max(self.coeffs.shape[1], other.coeffs.shape[1])
        c = np.zeros((W, L))
        c[: self.coeffs.shape[0], : self.coeffs.shape[1]] += self.coeffs
        c[: other.coeffs.shape[0], : other.coeffs.shape[1]] += other.coeffs
        return GenSeries(c, self.flavor if self.flavor == other.flavor else GEN_DELTA)

    def scale(self, s: float) -> "GenSeries":
        return GenSeries(self.coeffs * s, self.flavor)


def gen_series(modes, params: BLNormParams, truncation: tuple[int, int], flavor: str = GEN_DELTA) -> GenSeries:
    """Generator series of a mode family: coefficient (|alpha|, l) accumulates
    the ell-weighted norm of d_y^l f_alpha in the requested flavor."""
    N_alpha, N_ell = truncation
    if N_ell > MAX_ELL:
        raise ConfigurationError(f"N_ell capped at {MAX_ELL}")
    bl_flavor = WITH_BL if flavor == GEN_DELTA else WITHOUT_BL
    coeffs = np.zeros((N_alpha + 1, N_ell + 1))
    for m in _as_modes(modes):
        w = abs(m.alpha)
        if w > N_alpha:
            continue
        for ell in range(N_ell + 1):
            coeffs[w, ell] += bl_norm(m.derivative(ell), ell, params, bl_flavor)
    return GenSeries(coeffs, flavor)


def product_bound(a: GenSeries, b: GenSeries) -> GenSeries:
    """Cauchy-product upper-bound series: its evaluation equals a(z) * b(z)."""
    Wa, La = a.coeffs.shape
    Wb, Lb = b.coeffs.shape
    L = min(La, Lb)
    out = np.zeros((Wa + Wb - 1, L))
    for l in range(L):
        binoms = np.array([comb(l, k) for k in range(l + 1)])
        for k in range(l + 1):
            out[:, l] += binoms[k] * np.convolve(a.coeffs[:, k], b.coeffs[:, l - k])
    return GenSeries(out, GEN_DELTA if GEN_DELTA in (a.flavor, b.flavor) else GEN0)


# ---------------------------------------------------------------------------
# Half-line Helmholtz solves through the explicit Green kernel
# ---------------------------------------------------------------------------


def _greens_solve(alpha: int, f, y: np.ndarray):
    """phi solving d_y^2 phi - alpha^2 phi = f, phi(0) = 0, on the grid y.

    Kernel G(x, y) = -(1/2a)(e^{-a|x-y|} - e^{-a(x+y)}), a = |alpha|,
    evaluated through exponentially weighted running integrals (6-point
    Gauss per cell), which is stable for large alpha.  Returns (phi, dphi).
    """
    a = abs(int(alpha))
    if a == 0:
        raise ConfigurationError("alpha must be a nonzero integer")
    gx, gw = np.polynomial.legendre.leggauss(6)
    left, right = y[:-1], y[1:]
    h = right - left
    # quadrature nodes per cell, flattened
    xq = 0.5 * h[:, None] * (gx[None, :] + 1.0) + left[:, None]
    fq = np.asarray(f(xq.ravel())).reshape(xq.shape)
    wq = 0.5 * h[:, None] * gw[None, :]

    decay = np.exp(-a * h)
    # q1[j] = int_{y_j}^{y_{j+1}} e^{-a (y_{j+1} - x)} f dx
    q1 = np.sum(wq * np.exp(-a * (right[:, None] - xq)) * fq, axis=1)
    # q2[j] = int_{y_j}^{y_{j+1}} e^{-a (x - y_j)} f dx
    q2 = np.sum(wq * np.exp(-a * (xq - left[:, None])) * fq, axis=1)

    n = len(y)
    I1 = np.zeros(n, dtype=q1.dtype)
    I2 = np.zeros(n, dtype=q1.dtype)
    for j in range(n - 1):
        I1[j + 1] = decay[j] * I1[j] + q1[j]
    for j in range(n - 2, -1, -1):
        I2[j] = decay[j] * I2[j + 1] + q2[j]
    I3 = np.exp(-a * y) * I2[0]
    phi = -(I1 + I2 - I3) / (2.0 * a)
    dphi = 0.5 * (I1 - I2 - I3)
    return phi, dphi


def laplace_solve_1d(alpha: int, f, params: BLNormParams, with_bl: bool = True,
                     refine: int = 0) -> dict:
    """Solve d_y^2 phi - alpha^2 phi = f on the half line with phi(0) = 0.

    Returns the solution sampled on a layer-resolving grid together with the
    norm bundle alpha^2 ||phi||, |alpha| ||d_y phi||, and ||d_y^2 phi|| in
    the plain and (when requested) boundary-layer flavors.  Boundary-layer
    estimates require |delta alpha^2| <= 1.
    """
    a = abs(int(alpha))
    if with_bl and abs(params.delta * a**2) > 1.0:
        raise ConfigurationError(
            f"|delta alpha^2| = {params.delta * a**2:.3g} > 1: "
            "boundary-layer estimate outside its admissible range"
        )
    y = sample_grid(params.delta, refine=refine, max_step=min(0.1, 0.5 / a) / 2**refine)
    phi, dphi = _greens_solve(alpha, f, y)
    d2phi = np.asarray(f(y)) + a**2 * phi
    norms = {
        "a2_phi": a**2 * bl_norm((y, phi), 0, params, WITHOUT_BL),
        "a_dphi": a * bl_norm((y, dphi), 0, params, WITHOUT_BL),
        "d2phi_plain": bl_norm((y, d2phi), 0, params, WITHOUT_BL),
    }
    if with_bl:
        norms["d2phi_bl"] = bl_norm((y, d2phi), 0, params, WITH_BL)
    return {"y": y, "phi": phi, "dphi": dphi, "d2phi": d2phi, "norms": norms}


# ---------------------------------------------------------------------------
# Elliptic generator estimate
# ---------------------------------------------------------------------------


def _phi_derivative_table(mode: FourierMode, y, N):
    """d_y^l of phi with Delta_alpha phi = omega, l = 0..N+2, by the ODE
    recurrence d^{l+2} phi = d^l omega + alpha^2 d^l phi."""
    a2 = mode.alpha**2
    phi, dphi = _greens_solve(mode.alpha, lambda x: np.real(mode.derivative(0)(x)), y)
    phi_i, dphi_i = _greens_solve(mode.alpha, lambda x: np.imag(mode.derivative(0)(x)), y)
    table = [phi + 1j * phi_i, dphi + 1j * dphi_i]
    for ell in range(N + 1):
        table.append(np.asarray(mode.derivative(ell)(y)) + a2 * table[ell])
    return table


def _ratio_sup(lhs_vals, rhs_vals):
    out = 0.0
    for l, r in zip(lhs_vals, rhs_vals):
        if r > 1e-14:
            out = max(out, l / r)
        elif l > 1e-12:
            return np.inf
    return out


def elliptic_gen_estimate(omega_modes, params: BLNormParams, z2_max: float, truncation: tuple[int, int] = (4, 10)) -> dict:
    """Measure the constants of the elliptic generator inequalities.

    Solves Delta_alpha phi_alpha = omega_alpha per mode and compares
    Gen_delta(second gradient) + Gen_0(gradient) against Gen_delta(omega),
    per mode and after summation (plain, z1-weighted, z2-differentiated).
    Modes must satisfy |delta alpha^2| <= 1.
    """
    modes = _as_modes(omega_modes)
    for m in modes:
        if abs(params.delta * m.alpha**2) > 1.0:
            raise ConfigurationError(
                f"mode alpha={m.alpha}: |delta alpha^2| = {params.delta * m.alpha**2:.3g} >= 1"
            )
    N_alpha, N_ell = truncation
    y = sample_grid(params.delta, max_step=0.1)
    z2s = np.linspace(z2_max / 8, z2_max, 8)

    lhs = np.zeros((N_alpha + 1, N_ell + 1))      # Gen_delta(grad^2) + Gen_0(grad) per weight
    rhs = np.zeros((N_alpha + 1, N_ell + 1))      # Gen_delta(omega)
    per_mode_C = []
    for m in modes:
        w = abs(m.alpha)
        if w > N_alpha:
            continue
        tab = _phi_derivative_table(m, y, N_ell)
        row_l = np.zeros(N_ell + 1)
        row_r = np.zeros(N_ell + 1)
        for ell in range(N_ell + 1):
            grad2 = (m.alpha**2 * bl_norm((y, tab[ell]), ell, params, WITH_BL)
                     + 2 * abs(m.alpha) * bl_norm((y, tab[ell + 1]), ell, params, WITH_BL)
                     + bl_norm((y, tab[ell + 2]), ell, params, WITH_BL))
            grad = (abs(m.alpha) * bl_norm((y, tab[ell]), ell, params, WITHOUT_BL)
                    + bl_norm((y, tab[ell + 1]), ell, params, WITHOUT_BL))
            row_l[ell] = grad2 + grad
            row_r[ell] = bl_norm((y, np.asarray(m.derivative(ell)(y))), ell, params, WITH_BL)
        lhs[w] += row_l
        rhs[w] += row_r
        sl = GenSeries(row_l[None, :], GEN_DELTA)
        sr = GenSeries(row_r[None, :], GEN_DELTA)
        per_mode_C.append(_ratio_sup([sl(0, z) for z in z2s], [sr(0, z) for z in z2s]))

    L = GenSeries(lhs, GEN_DELTA)
    R = GenSeries(rhs, GEN_DELTA)
    z1s = (0.0, 0.1, 0.2)
    pairs = [(z1, z2) for z1 in z1s for z2 in z2s]
    report = {
        "C0": max(per_mode_C) if per_mode_C else 0.0,
        "C1": _ratio_sup([L(*p) for p in pairs], [R(*p) for p in pairs]),
        "C2": _ratio_sup([L.dz1()(*p) for p in pairs], [R.dz1()(*p) for p in pairs]),
        "C3": _ratio_sup(
            [L.dz2()(*p) for p in pairs],
            [R.dz2()(*p) + R(*p) for p in pairs],
        ),
        "z2_max": z2_max,
        "truncation": (N_alpha, N_ell),
        "n_modes": len(modes),
    }
    report["finite"] = all(np.isfinite(report[k]) for k in ("C0", "C1", "C2", "C3"))
    return report


# ---------------------------------------------------------------------------
# Divergence-free transport estimate
# ---------------------------------------------------------------------------


def _mode_product(f_modes, g_modes, N_alpha):
    """Symbolic Fourier modes of the pointwise product f * g, truncated."""
    out: dict[int, sp.Expr] = {}
    for mf in f_modes:
        for mg in g_modes:
            a = mf.alpha + mg.alpha
            if abs(a) > N_alpha:
                continue
            out[a] = out.get(a, sp.Integer(0)) + mf.expr * mg.expr
    return [FourierMode(a, e) for a, e in out.items()]


def divfree_bilinear(u_modes, v_modes, g_modes, params: BLNormParams,
                     truncation: tuple[int, int] = (4, 8)) -> dict:
    """Measure the transport majorant constants for a divergence-free pair.

    Checks d_y v_alpha = -i alpha u_alpha and v_alpha(0) = 0, then compares
    Gen_delta(v d_y g) against (Gen_0(v) + dz1 Gen_0(u)) dz2 Gen_delta(g),
    and the first-order transport bundle against C B dz1 B + C B dz2 B.
    """
    u_modes, v_modes, g_modes = _as_modes(u_modes), _as_modes(v_modes), _as_modes(g_modes)
    yc = sample_grid(params.delta)
    u_by_alpha = {m.alpha: m for m in u_modes}
    for mv in v_modes:
        dv = np.asarray(mv.derivative(1)(yc))
        mu = u_by_alpha.get(mv.alpha)
        target = -1j * mv.alpha * np.asarray(mu.derivative(0)(yc)) if mu else 0.0
        scale = 1.0 + np.max(np.abs(dv))
        if np.max(np.abs(dv - target)) > 1e-10 * scale:
            raise InputError(f"divergence residual above tolerance for alpha={mv.alpha}")
        if abs(complex(mv.derivative(0)(np.array(0.0)))) > 1e-10:
            raise InputError(f"v_alpha(0) != 0 for alpha={mv.alpha}")

    N_alpha, N_ell = truncation
    dyg = [FourierMode(m.alpha, sp.diff(m.expr, Y)) for m in g_modes]
    dxg = [FourierMode(m.alpha, sp.I * m.alpha * m.expr) for m in g_modes]
    v_dyg = _mode_product(v_modes, dyg, N_alpha)
    u_dxg = _mode_product(u_modes, dxg, N_alpha)
    transport = {}
    for m in v_dyg + u_dxg:
        transport[m.alpha] = transport.get(m.alpha, sp.Integer(0)) + m.expr
    transport = [FourierMode(a, e) for a, e in transport.items()]

    G_vdyg = gen_series(v_dyg, params, truncation, GEN_DELTA)
    G0_u = gen_series(u_modes, params, truncation, GEN0)
    G0_v = gen_series(v_modes, params, truncation, GEN0)
    Gd_g = gen_series(g_modes, params, truncation, GEN_DELTA)
    Gd_t = gen_series(transport, params, truncation, GEN_DELTA)

    zs = [(z1, z2) for z1 in (0.0, 0.25, 0.5) for z2 in (0.1, 0.25, 0.5)]

    lhs_dy = [G_vdyg(*p) for p in zs]
    rhs_dy = [(G0_v(*p) + G0_u.dz1()(*p)) * Gd_g.dz2()(*p) for p in zs]
    C_dy = _ratio_sup(lhs_dy, rhs_dy)

    A_t = Gd_t + Gd_t.dz1() + Gd_t.dz2()
    B = G0_u + G0_v + G0_u.dz1() + Gd_g + Gd_g.dz1() + Gd_g.dz2()
    B_1, B_2 = B.dz1(), B.dz2()
    lhs_t = [A_t(*p) for p in zs]
    rhs_t = [B(*p) * B_1(*p) + B(*p) * B_2(*p) for p in zs]
    C_transport = _ratio_sup(lhs_t, rhs_t)

    return {
        "C_dy": C_dy,
        "C_transport": C_transport,
        "samples": zs,
        "truncation": (N_alpha, N_ell),
        "finite": bool(np.isfinite(C_dy) and np.isfinite(C_transport)),
    }


# ---------------------------------------------------------------------------
# Strip and pencil analytic norms
# ---------------------------------------------------------------------------


def _strip_samples(rho, x_max=20.0, n_x=601, n_y=9):
    x = np.linspace(-x_max, x_max, n_x)
    y = np.linspace(-rho, rho, n_y)
    return (x[:, None] + 1j * y[None, :]).ravel()


def _pencil_samples(sigma, r, x_max=20.0, n_x=601, n_y=9):
    x = np.linspace(1e-6, x_max, n_x)
    ymax = np.minimum(sigma * x, sigma * r)
    t = np.linspace(-1.0, 1.0, n_y)
    return (x[:, None] + 1j * (ymax[:, None] * t[None, :])).ravel()


def _sup_norm(f, z, beta):
    vals = np.asarray(f(z))
    if not np.all(np.isfinite(vals)):
        raise RegionError("function not finite on the sampled domain")
    return float(np.max(np.abs(vals) * np.exp(beta * np.abs(z.real))))


def strip_norms(f, rho: float | None = None, pencil: tuple[float, float] | None = None,
                beta: float = 0.0, g=None) -> dict:
    """Sampled analytic sup norms on a strip or pencil, with Cauchy/product checks.

    On the strip |Im z| <= rho: returns ||f||_rho = sup |f| e^{beta |Re z|},
    the measured constant of ||f'||_{rho/2} <= C/(rho - rho/2) ||f||_rho, and
    the product check ||f g||_rho <= ||f||_rho ||g||_rho (g defaults to f).
    On the pencil |Im z| <= min(sigma Re z, sigma r): the derivative check
    uses the weighted bound ||phi(z) f'||_{sigma'} <= C/(sigma-sigma') ||f||_sigma.
    """
    if (rho is None) == (pencil is None):
        raise ConfigurationError("provide exactly one of rho / pencil")
    if g is None:
        g = f
    h = 1e-6

    def dfdz(z):
        return (np.asarray(f(z + h)) - np.asarray(f(z - h))) / (2 * h)

    if rho is not None:
        z = _strip_samples(rho)
        norm = _sup_norm(f, z, beta)
        rho_p = rho / 2.0
        zp = _strip_samples(rho_p)
        d_norm = _sup_norm(dfdz, zp, beta)
        C_cauchy = d_norm * (rho - rho_p) / norm if norm > 0 else 0.0
        prod = _sup_norm(lambda w: np.asarray(f(w)) * np.asarray(g(w)), z, beta)
        g_norm = _sup_norm(g, z, beta)
        return {
            "norm": norm,
            "derivative_bound_check": {"C": C_cauchy, "rho_inner": rho_p},
            "product_check": {
                "lhs": prod,
                "rhs": norm * g_norm,
                "pass": prod <= norm * g_norm * (1 + 1e-9),
            },
        }

    sigma, r = pencil
    z = _pencil_samples(sigma, r)
    norm = _sup_norm(f, z, beta)
    sig_p = sigma / 2.0
    zp = _pencil_samples(sig_p, r)
    d_norm = _sup_norm(lambda w: (w / (1.0 + w)) * dfdz(w), zp, beta)
    C_weighted = d_norm * (sigma - sig_p) / norm if norm > 0 else 0.0
    prod = _sup_norm(lambda w: np.asarray(f(w)) * np.asarray(g(w)), z, beta)
    g_norm = _sup_norm(g, z, beta)
    return {
        "norm": norm,
        "derivative_bound_check": {"C": C_weighted, "sigma_inner": sig_p},
        "product_check": {
            "lhs": prod,
            "rhs": norm * g_norm,
            "pass": prod <= norm * g_norm * (1 + 1e-9),
        },
    }
