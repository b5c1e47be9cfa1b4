"""Boundary-layer norms, generator-function series, and majorant inequalities.

A function f(x, y) on the half plane is represented by its Fourier modes
f_alpha(y).  Its generator series collects the weighted sup norms of all
y-derivatives of all modes,

    G(z1, z2) = sum_{alpha, l} e^{z1 |alpha|} ||d_y^l f_alpha||_l z2^l / l!,

with either the plain weight phi(y)^l = (y/(1+y))^l (flavor ``gen0``) or the
additional boundary-layer damping (1 + e^{-y/delta}/delta)^{-1} (flavor
``gen_delta``).  Each mode is sampled once per grid as one table of its
derivatives of orders 0..L (``FourierMode.derivatives``), and one weighted-sup
kernel reduces a whole table to its row norms; the series, the elliptic and
the transport estimates are all built from such tables.  All series
coefficients are nonnegative, so evaluations and all their partial
derivatives are monotone on the positive quadrant; the majorant inequalities
verified here (product, x-derivative identity, elliptic gain,
divergence-free transport) compare such evaluations, as array code over the
sample points.

Mode expressions are sympy expressions in the symbol ``Y`` (y, real and
nonnegative).  sympy is imported only by the code that builds or
differentiates such an expression: ``genfunc.Y`` is resolved on access by the
module ``__getattr__``, so importing this module does not load sympy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConfigurationError, InputError, QuadratureError, RegionError

GEN0 = "gen0"
GEN_DELTA = "gen_delta"
WITH_BL = "with_bl"
WITHOUT_BL = "without_bl"

MAX_ELL = 24


def _symbol_y():
    """The sympy symbol y of the mode expressions; sympy caches it, so every
    call returns the same symbol."""
    import sympy as sp

    return sp.Symbol("y", real=True, nonnegative=True)


def __getattr__(name):
    # ``genfunc.Y`` loads sympy only when it is asked for
    if name == "Y":
        return _symbol_y()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class BLNormParams:
    """Parameters of the boundary-layer norm family."""

    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ConfigurationError("delta must be positive")

    @classmethod
    def from_viscosity(cls, nu: float, gamma0: float) -> "BLNormParams":
        """delta = gamma0 nu^{1/4} (layer thickness of the viscous problem)."""
        if nu <= 0 or gamma0 <= 0:
            raise ConfigurationError("nu and gamma0 must be positive")
        return cls(delta=gamma0 * nu**0.25)


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


def _weighted_sup(y, table, ells, params: BLNormParams, flavor: str) -> np.ndarray:
    """Row norms sup_y phi(y)^ells[k] |table[k]| (layer-damped for WITH_BL)."""
    w = weight_phi(y) ** np.asarray(ells)[:, None]
    if flavor == WITH_BL:
        w = w * _bl_damping(y, params.delta)
    return np.max(w * np.abs(table), axis=-1)


def _settled_sup(table_fn, ells, params: BLNormParams, flavor: str) -> np.ndarray:
    """Row norms of the table ``table_fn(y)`` on refining geometric grids.

    Each row returns the value of its own first grid that agrees with the
    previous grid to 1e-6 relative; QuadratureError when a row has not
    settled after eight grids.
    """
    ells = np.asarray(ells)
    out = np.empty(ells.size)
    todo = np.ones(ells.size, dtype=bool)
    prev = None
    for refine in range(8):
        y = sample_grid(params.delta, refine=refine)
        cur = _weighted_sup(y, table_fn(y), ells, params, flavor)
        if prev is not None:
            # purely relative criterion: refinement decisions are invariant
            # under scaling f, keeping norm identities exactly homogeneous
            change = np.abs(cur - prev)
            done = todo & (change <= 1e-6 * np.maximum(cur, 1e-300))
            out[done] = cur[done]
            todo &= ~done
            if not todo.any():
                return out
        prev = cur
    raise QuadratureError(
        "weighted sup did not settle on 8 grids "
        f"(last relative change {np.max(change[todo] / np.maximum(cur[todo], 1e-300)):.3e})"
    )


def bl_norm(f, ell: int, params: BLNormParams, flavor: str = WITH_BL) -> float:
    """Weighted sup norm sup_y phi(y)^ell |f(y)| (optionally layer-damped).

    ``f`` is either a callable or a pair (y, values).  A callable goes
    through the same refinement loop as every series coefficient: it is
    sampled on up to eight refining geometric grids, the sup returns as soon
    as two successive grids agree to 1e-6 relative, and QuadratureError is
    raised when no two do.
    """
    if flavor not in (WITH_BL, WITHOUT_BL):
        raise ConfigurationError(f"unknown norm flavor {flavor!r}")
    if ell < 0:
        raise ConfigurationError("ell must be nonnegative")
    if callable(f):
        return float(_settled_sup(lambda y: np.asarray(f(y))[None], [ell], params, flavor)[0])
    y, vals = np.asarray(f[0], dtype=float), np.asarray(f[1])
    if y.size == 0:
        raise InputError("empty sample")
    return float(_weighted_sup(y, vals[None], [ell], params, flavor)[0])


# ---------------------------------------------------------------------------
# Fourier modes with exact y-derivatives
# ---------------------------------------------------------------------------


class FourierMode:
    """One Fourier-in-x mode f_alpha(y), sampled as a table of its y-derivatives.

    ``expr`` is a sympy expression in the symbol ``genfunc.Y``: each order is
    the derivative of the previous one, and the whole list is compiled by one
    ``lambdify``; both are kept and extended only when a higher order is
    requested.  Alternatively a finite tuple of derivative callables (order
    0, 1, ...) may be supplied, in which case requesting a higher order
    raises an input error.
    """

    def __init__(self, alpha: int, expr=None, derivs=None):
        self.alpha = int(alpha)
        if (expr is None) == (derivs is None):
            raise ConfigurationError("provide exactly one of expr / derivs")
        if expr is not None:
            import sympy as sp

            expr = sp.sympify(expr)
        self.expr = expr
        self._derivs = tuple(derivs) if derivs is not None else None
        self._exprs = [self.expr]
        self._table_fn = None

    def derivatives(self, y, L: int) -> np.ndarray:
        """d_y^l of this mode for l = 0..L on the points y, as one complex
        (L + 1,) + y.shape table."""
        y = np.asarray(y, dtype=float)
        if self._derivs is not None:
            if L >= len(self._derivs):
                raise InputError(
                    f"derivative order {L} beyond supplied data ({len(self._derivs)} orders)"
                )
            vals = [f(y) for f in self._derivs[: L + 1]]
        else:
            if self._table_fn is None or L >= len(self._exprs):
                import sympy as sp

                y_sym = _symbol_y()
                while len(self._exprs) <= L:
                    self._exprs.append(sp.diff(self._exprs[-1], y_sym))
                self._table_fn = sp.lambdify(y_sym, self._exprs, "numpy")
            vals = self._table_fn(y)
        out = np.empty((L + 1,) + y.shape, dtype=complex)
        for ell in range(L + 1):
            out[ell] = vals[ell]
        return out


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

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 2:
            raise ConfigurationError("coeffs must be 2-D (weight, derivative order)")
        if np.any(c < 0):
            raise InputError("generator coefficients must be nonnegative")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, z1, z2):
        """G(z1, z2), broadcast over arrays of points; a float for a scalar point."""
        z1, z2 = np.broadcast_arrays(np.asarray(z1, dtype=float), np.asarray(z2, dtype=float))
        w = np.arange(self.coeffs.shape[0])
        ell = np.arange(self.coeffs.shape[1])
        fac = np.cumprod(np.concatenate([[1.0], np.maximum(ell[1:], 1)]))
        rows = np.sum(np.exp(z1[..., None] * w)[..., None] * self.coeffs, axis=-2)
        vals = np.sum(rows * (z2[..., None] ** ell / fac), axis=-1)
        return float(vals) if vals.ndim == 0 else vals

    def dz1(self) -> "GenSeries":
        """Exact d/dz1: term-wise multiplication by the weight w = |alpha|."""
        w = np.arange(self.coeffs.shape[0], dtype=float)
        return GenSeries(self.coeffs * w[:, None])

    def dz2(self) -> "GenSeries":
        """Exact d/dz2: shift in the derivative order (drops the top order)."""
        return GenSeries(self.coeffs[:, 1:])

    def __add__(self, other: "GenSeries") -> "GenSeries":
        W = max(self.coeffs.shape[0], other.coeffs.shape[0])
        L = max(self.coeffs.shape[1], other.coeffs.shape[1])
        c = np.zeros((W, L))
        c[: self.coeffs.shape[0], : self.coeffs.shape[1]] += self.coeffs
        c[: other.coeffs.shape[0], : other.coeffs.shape[1]] += other.coeffs
        return GenSeries(c)


def gen_series(modes, params: BLNormParams, truncation: tuple[int, int], flavor: str = GEN_DELTA) -> GenSeries:
    """Generator series of a mode family: row |alpha| accumulates the
    ell-weighted norms of the derivative table of f_alpha in the requested
    flavor, one refinement loop per mode."""
    if flavor not in (GEN0, GEN_DELTA):
        raise ConfigurationError(f"unknown series flavor {flavor!r}")
    N_alpha, N_ell = truncation
    if N_ell > MAX_ELL:
        raise ConfigurationError(f"N_ell capped at {MAX_ELL}")
    bl_flavor = WITH_BL if flavor == GEN_DELTA else WITHOUT_BL
    coeffs = np.zeros((N_alpha + 1, N_ell + 1))
    for m in modes:
        w = abs(m.alpha)
        if w > N_alpha:
            continue
        coeffs[w] += _settled_sup(lambda y, m=m: m.derivatives(y, N_ell), np.arange(N_ell + 1),
                                  params, bl_flavor)
    return GenSeries(coeffs)


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
    return GenSeries(out)


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


def _phi_derivative_table(mode: FourierMode, y, omega):
    """d_y^l of phi with Delta_alpha phi = omega, l = 0..N+2, from the
    derivative table ``omega`` (orders 0..N) by the ODE recurrence
    d^{l+2} phi = d^l omega + alpha^2 d^l phi."""
    a2 = mode.alpha**2
    table = np.empty((omega.shape[0] + 2, y.size), dtype=complex)
    table[0], table[1] = _greens_solve(mode.alpha, lambda x: mode.derivatives(x, 0)[0], y)
    for ell in range(omega.shape[0]):
        table[ell + 2] = omega[ell] + a2 * table[ell]
    return table


def _ratio_sup(lhs, rhs) -> float:
    """max lhs / rhs over the points where rhs > 1e-14; inf when lhs > 1e-12
    at a point where rhs is not."""
    lhs, rhs = np.ravel(lhs), np.ravel(rhs)
    pos = rhs > 1e-14
    if np.any(~pos & (lhs > 1e-12)):
        return np.inf
    return float(np.max(lhs[pos] / rhs[pos], initial=0.0))


def elliptic_gen_estimate(omega_modes, params: BLNormParams, z2_max: float, truncation: tuple[int, int] = (4, 10)) -> dict:
    """Measure the constants of the elliptic generator inequalities.

    Solves Delta_alpha phi_alpha = omega_alpha per mode and compares
    Gen_delta(second gradient) + Gen_0(gradient) against Gen_delta(omega),
    per mode and after summation (plain, z1-weighted, z2-differentiated).
    Modes must satisfy |delta alpha^2| <= 1.
    """
    modes = list(omega_modes)
    for m in modes:
        if abs(params.delta * m.alpha**2) > 1.0:
            raise ConfigurationError(
                f"mode alpha={m.alpha}: |delta alpha^2| = {params.delta * m.alpha**2:.3g} >= 1"
            )
    N_alpha, N_ell = truncation
    y = sample_grid(params.delta, max_step=0.1)
    z2s = np.linspace(z2_max / 8, z2_max, 8)
    ells = np.arange(N_ell + 1)

    def sup(rows, flavor):
        return _weighted_sup(y, rows, ells, params, flavor)

    lhs = np.zeros((N_alpha + 1, N_ell + 1))      # Gen_delta(grad^2) + Gen_0(grad) per weight
    rhs = np.zeros((N_alpha + 1, N_ell + 1))      # Gen_delta(omega)
    per_mode_C = []
    for m in modes:
        w = abs(m.alpha)
        if w > N_alpha:
            continue
        omega = m.derivatives(y, N_ell)
        tab = _phi_derivative_table(m, y, omega)
        grad2 = (m.alpha**2 * sup(tab[:-2], WITH_BL)
                 + 2 * abs(m.alpha) * sup(tab[1:-1], WITH_BL)
                 + sup(tab[2:], WITH_BL))
        grad = abs(m.alpha) * sup(tab[:-2], WITHOUT_BL) + sup(tab[1:-1], WITHOUT_BL)
        row_l = grad2 + grad
        row_r = sup(omega, WITH_BL)
        lhs[w] += row_l
        rhs[w] += row_r
        per_mode_C.append(_ratio_sup(GenSeries(row_l[None, :])(0.0, z2s),
                                     GenSeries(row_r[None, :])(0.0, z2s)))

    L = GenSeries(lhs)
    R = GenSeries(rhs)
    z1 = np.repeat((0.0, 0.1, 0.2), z2s.size)
    z2 = np.tile(z2s, 3)
    report = {
        "C0": max(per_mode_C) if per_mode_C else 0.0,
        "C1": _ratio_sup(L(z1, z2), R(z1, z2)),
        "C2": _ratio_sup(L.dz1()(z1, z2), R.dz1()(z1, z2)),
        "C3": _ratio_sup(L.dz2()(z1, z2), R.dz2()(z1, z2) + R(z1, z2)),
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
    import sympy as sp

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
    import sympy as sp

    N_alpha, N_ell = truncation
    yc = sample_grid(params.delta)     # yc[0] = 0 is the wall
    u_by_alpha = {m.alpha: m for m in u_modes}
    # the orders gen_series needs below, so each mode is compiled once
    L = max(N_ell, 1)
    for mv in v_modes:
        v, dv = mv.derivatives(yc, L)[:2]
        mu = u_by_alpha.get(mv.alpha)
        target = -1j * mv.alpha * mu.derivatives(yc, L)[0] if mu else 0.0
        scale = 1.0 + np.max(np.abs(dv))
        if np.max(np.abs(dv - target)) > 1e-10 * scale:
            raise InputError(f"divergence residual above tolerance for alpha={mv.alpha}")
        if abs(v[0]) > 1e-10:
            raise InputError(f"v_alpha(0) != 0 for alpha={mv.alpha}")

    dyg = [FourierMode(m.alpha, sp.diff(m.expr, _symbol_y())) for m in g_modes]
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
    z1, z2 = np.array(zs).T

    C_dy = _ratio_sup(G_vdyg(z1, z2), (G0_v(z1, z2) + G0_u.dz1()(z1, z2)) * Gd_g.dz2()(z1, z2))

    A_t = Gd_t + Gd_t.dz1() + Gd_t.dz2()
    B = G0_u + G0_v + G0_u.dz1() + Gd_g + Gd_g.dz1() + Gd_g.dz2()
    B_z = B(z1, z2)
    C_transport = _ratio_sup(A_t(z1, z2), B_z * B.dz1()(z1, z2) + B_z * B.dz2()(z1, z2))

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
    Both share one path; only the samples, the derivative weight and the
    name of the inner width differ.
    """
    if (rho is None) == (pencil is None):
        raise ConfigurationError("provide exactly one of rho / pencil")
    if g is None:
        g = f
    if rho is not None:
        width, inner_key = rho, "rho_inner"
        samples, weight = _strip_samples, (lambda w: 1.0)
    else:
        (width, r), inner_key = pencil, "sigma_inner"
        samples, weight = (lambda s: _pencil_samples(s, r)), (lambda w: w / (1.0 + w))
    h = 1e-6

    def weighted_dfdz(z):
        return weight(z) * ((np.asarray(f(z + h)) - np.asarray(f(z - h))) / (2 * h))

    z = samples(width)
    norm = _sup_norm(f, z, beta)
    inner = width / 2.0
    d_norm = _sup_norm(weighted_dfdz, samples(inner), beta)
    C = d_norm * (width - inner) / norm if norm > 0 else 0.0
    prod = _sup_norm(lambda w: np.asarray(f(w)) * np.asarray(g(w)), z, beta)
    g_norm = _sup_norm(g, z, beta)
    return {
        "norm": norm,
        "derivative_bound_check": {"C": C, inner_key: inner},
        "product_check": {
            "lhs": prod,
            "rhs": norm * g_norm,
            "pass": prod <= norm * g_norm * (1 + 1e-9),
        },
    }
