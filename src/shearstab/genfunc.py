"""Boundary-layer norms, generator-function series, and majorant inequalities.

A function f(x, y) on the half plane is represented by its Fourier modes
f_alpha(y).  Its generator series collects the weighted sup norms of all
y-derivatives of all modes,

    G(z1, z2) = sum_{alpha, l} e^{z1 |alpha|} ||d_y^l f_alpha||_l z2^l / l!,

with either the plain weight phi(y)^l = (y/(1+y))^l (flavor ``WITHOUT_BL``)
or the additional boundary-layer damping (1 + e^{-y/delta}/delta)^{-1}
(flavor ``WITH_BL``), for a single norm and a series alike.  Each mode is
sampled once per grid as one table of its derivatives of orders 0..L
(``FourierMode.derivatives``), and one weighted-sup kernel reduces a whole
table to its row norms; the series, the elliptic and the transport
estimates are all built from such tables.  A norm of a function or a
series refines its sample grid in the package's one refinement loop,
``spectral.refine``, each row settling on its own.  All series
coefficients are nonnegative, so evaluations and all their partial
derivatives are monotone on the positive quadrant; the majorant inequalities
verified here (product, x-derivative identity, elliptic gain,
divergence-free transport) compare such evaluations, as array code over the
sample points.

The derivative table of a mode is computed by truncated Taylor arithmetic
(``Jet``): the mode is a function of a jet, evaluated on the jet of y
itself, so every order comes from one pass of array arithmetic and no
symbolic derivative is taken.  A mode is given as such a function, built
from ``+ - * /``, integer powers and this module's ``exp``, ``sin`` and
``cos``; as a sympy expression in the symbol ``Y`` (y, real and
nonnegative), which is walked once into such a function, its node types
being Add, Mul, integer Pow, exp, sin, cos and numbers; or as a tuple of
derivative callables, which become the rows of a jet.  Every mode thus has
one jet function, and the products, d_y and d_x of modes that the transport
estimate needs are compositions of these functions.  sympy is imported
only when a sympy expression is passed: ``genfunc.Y`` is resolved on access
by the module ``__getattr__``, so importing this module does not load
sympy, and modes given as functions of a jet never do.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    MAX_POINTS,
    ConfigurationError,
    RegionError,
    as_array,
    as_integer,
    check_finite,
    check_points,
    check_positive,
    check_record,
)
from .spectral import legendre_rule, refine

WITH_BL = "with_bl"
WITHOUT_BL = "without_bl"

MAX_ELL = 24
Y_MAX = 40.0         # far end of the half-line sample grids
GREEN_BLOCK = 30.0   # width in a y of one prefix-sum block of the Green solve


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
        check_positive(delta=self.delta)

    @classmethod
    def from_viscosity(cls, nu: float, gamma0: float) -> "BLNormParams":
        """delta = gamma0 nu^{1/4} (layer thickness of the viscous problem)."""
        check_positive(nu=nu, gamma0=gamma0)
        delta = gamma0 * nu**0.25
        check_positive(**{"gamma0 nu^(1/4)": delta})  # the product may underflow or overflow
        return cls(delta=delta)


def weight_phi(y):
    """The spatial weight phi(y) = y / (1 + y): 0 at the wall, 1 at infinity."""
    y = np.asarray(y, dtype=float)
    return y / (1.0 + y)


def _bl_damping(y, delta):
    return 1.0 / (np.exp(-y / delta) / delta + 1.0)


def sample_grid(delta: float, n_layer: int = 200, max_step: float | None = None) -> np.ndarray:
    """Grid on [0, Y_MAX]: n_layer uniform steps across the layer [0, 10 delta]
    (spacing delta/20 at the default), 2 n_layer geometric steps beyond.

    With ``max_step``, each step of width h > max_step is cut into
    n = ceil(h / max_step) equal steps, the points start + k h / n of
    ``np.linspace(start, stop, n + 1)``, formed for all steps at once by the
    same arithmetic, so they are the linspace points bit for bit.  delta and
    max_step must be positive and finite, n_layer a positive integer, and the
    grid at most MAX_POINTS points (else ConfigurationError); each point
    count is formed in Python and checked before the array it sizes is built.
    """
    check_positive(delta=delta)
    n_layer = as_integer("n_layer", n_layer, 1)
    check_points("n_layer", 3 * n_layer + 2)
    if max_step is not None:
        check_positive(max_step=max_step)
        # steps of at most max_step take at least Y_MAX / max_step points
        check_points("max_step", Y_MAX / max_step)
    near = np.linspace(0.0, min(10.0 * delta, Y_MAX), n_layer + 1)
    far = np.geomspace(max(near[-1], 1e-12), Y_MAX, 2 * n_layer + 1)
    y = np.unique(np.concatenate([near, far]))
    if max_step is None:
        return y
    h = np.diff(y)
    wide = np.flatnonzero(h > max_step)
    n_cut = np.ceil(h[wide] / max_step)
    check_points("max_step", y.size + float(np.sum(n_cut - 1.0)))
    n_inner = n_cut.astype(np.int64) - 1
    # k = 1 .. n - 1 within each cut step
    k = np.arange(1, n_inner.sum() + 1) - np.repeat(np.cumsum(n_inner) - n_inner, n_inner)
    inner = k * np.repeat(h[wide] / n_cut, n_inner) + np.repeat(y[wide], n_inner)
    return np.unique(np.concatenate([y, inner]))


def _check_flavor(flavor: str) -> None:
    if flavor not in (WITH_BL, WITHOUT_BL):
        raise ConfigurationError(f"flavor must be one of {(WITH_BL, WITHOUT_BL)}, got {flavor!r}")


def _weighted_sup(y, table, ells, params: BLNormParams, flavor: str) -> np.ndarray:
    """Row norms sup_y phi(y)^ells[k] |table[k]| (layer-damped for WITH_BL)."""
    w = weight_phi(y) ** np.asarray(ells)[:, None]
    if flavor == WITH_BL:
        w = w * _bl_damping(y, params.delta)
    return np.max(w * np.abs(table), axis=-1)


def _rows_settled(cur, prev):
    # purely relative: refinement decisions are invariant under scaling f,
    # keeping norm identities exactly homogeneous
    return np.abs(cur - prev) <= 1e-6 * np.maximum(cur, 1e-300)


def _refined_sup(table_fn, ells, params: BLNormParams, flavor: str) -> np.ndarray:
    """Row norms of the table ``table_fn(y)`` on grids of 200, 400, ... layer
    steps, each row from its own first grid that agrees with the previous
    one to 1e-6 relative (``refine``, at most eight grids)."""
    def one_pass(n):
        y = sample_grid(params.delta, n)
        return _weighted_sup(y, table_fn(y), ells, params, flavor)

    return refine(one_pass, 200, _rows_settled, "weighted sup", 8)


def bl_norm(f, ell: int, params: BLNormParams, flavor: str = WITH_BL) -> float:
    """Weighted sup norm sup_y phi(y)^ell |f(y)| (optionally layer-damped).

    ``f`` is a callable of y.  It goes through the same refinement loop as
    every series coefficient: it is sampled on up to eight refining grids,
    the sup returns as soon as two successive grids agree to 1e-6 relative,
    and QuadratureError is raised when no two do or a grid's sup is not
    finite.  ell must be a nonnegative integer (else ConfigurationError).
    """
    _check_flavor(flavor)
    ell = as_integer("ell", ell, 0)
    check_record("params", params, BLNormParams)
    return float(_refined_sup(lambda y: np.asarray(f(y))[None], [ell], params, flavor)[0])


# ---------------------------------------------------------------------------
# Truncated Taylor jets
# ---------------------------------------------------------------------------


class Jet:
    """Truncated Taylor series of a function of y, at every sample point.

    ``coeffs[k]`` holds f^(k)(y) / k! for k = 0..L, one row per order over
    the points y.  The arithmetic is truncated Taylor arithmetic (Griewank &
    Walther, Evaluating Derivatives, SIAM 2008, ch. 13): sums row by row,
    products by Cauchy convolution, exp, sin, cos and reciprocals by their
    first-order recurrences.  Row k of a result depends on rows 0..k of its
    operands only, so a lower-order table is a prefix of a higher-order one.
    Plain numbers act as constant jets.

    The rows are rounded like any double-precision sum of products.  Where
    the terms of a high-order row cancel, its error grows with their ratio
    to the result: for e^{-y} sin y that is 2^{l/2}, and order 24 is good to
    5e-13 of its sup, against 4e-16 for e^{-1.7 y^2}.
    """

    # numpy scalars and arrays defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, coeffs):
        self.coeffs = coeffs

    @classmethod
    def variable(cls, y, L: int) -> "Jet":
        """The jet of y itself at the points y, to order L."""
        y = np.asarray(y, dtype=float)
        c = np.zeros((L + 1,) + y.shape)
        c[0] = y
        c[1:2] = 1.0
        return cls(c)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.coeffs + other.coeffs)
        c = self.coeffs.astype(np.result_type(self.coeffs, other))
        c[0] += other
        return Jet(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs * other)
        a, b = self.coeffs, other.coeffs
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
        for j in range(len(a)):
            out[j:] += a[j] * b[: len(a) - j]
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * other.reciprocal() if isinstance(other, Jet) else Jet(self.coeffs / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        n = as_integer("a jet's power", n, -MAX_POINTS)
        if n < 0:
            return (self ** -n).reciprocal()
        out, base = 1.0, self
        while n:
            if n & 1:
                out = base * out
            n >>= 1
            if n:
                base = base * base
        return out

    def reciprocal(self) -> "Jet":
        """1 / f: r_k = -(1 / f_0) sum_{j=1..k} f_j r_{k-j}."""
        a = self.coeffs
        r = np.empty_like(a)
        r[0] = 1.0 / a[0]
        for k in range(1, len(a)):
            r[k] = -r[0] * np.sum(a[1:k + 1] * r[k - 1::-1], axis=0)
        return Jet(r)

    def exp(self) -> "Jet":
        """e^h: k g_k = sum_{j=1..k} j h_j g_{k-j}."""
        h = self.coeffs
        kh = _orders(h) * h
        g = np.empty_like(h)
        g[0] = np.exp(h[0])
        for k in range(1, len(h)):
            g[k] = np.sum(kh[1:k + 1] * g[k - 1::-1], axis=0) / k
        return Jet(g)

    def sincos(self) -> tuple["Jet", "Jet"]:
        """(sin h, cos h) as a pair: k s_k = sum_j j h_j c_{k-j} and
        k c_k = -sum_j j h_j s_{k-j}."""
        h = self.coeffs
        kh = _orders(h) * h
        s, c = np.empty_like(h), np.empty_like(h)
        s[0], c[0] = np.sin(h[0]), np.cos(h[0])
        for k in range(1, len(h)):
            s[k] = np.sum(kh[1:k + 1] * c[k - 1::-1], axis=0) / k
            c[k] = -np.sum(kh[1:k + 1] * s[k - 1::-1], axis=0) / k
        return Jet(s), Jet(c)

    def derivative(self) -> "Jet":
        """d/dy of the series, one order lower: row k is (k + 1) f_{k+1}."""
        c = self.coeffs
        return Jet(c[1:] * _orders(c)[1:])


def _orders(c):
    """The orders 0..L, shaped to broadcast against the rows of ``c``."""
    return np.arange(len(c)).reshape((-1,) + (1,) * (c.ndim - 1))


def exp(x):
    """e^x of a jet (Taylor recurrence) or of numbers (numpy)."""
    return x.exp() if isinstance(x, Jet) else np.exp(x)


def sin(x):
    """sin x of a jet (computed with cos as a pair) or of numbers (numpy)."""
    return x.sincos()[0] if isinstance(x, Jet) else np.sin(x)


def cos(x):
    """cos x of a jet (computed with sin as a pair) or of numbers (numpy)."""
    return x.sincos()[1] if isinstance(x, Jet) else np.cos(x)


def _is_sympy(expr) -> bool:
    sp = sys.modules.get("sympy")
    return sp is not None and isinstance(expr, sp.Basic)


def _jet_function(expr):
    """Walk a sympy expression in ``Y`` once into a function of a jet.

    The node types are Add, Mul, integer Pow, exp, sin, cos and numbers
    (any subexpression free of symbols); any other node raises
    ConfigurationError naming it.
    """
    import sympy as sp

    y = _symbol_y()
    elementary = {sp.exp: exp, sp.sin: sin, sp.cos: cos}

    def walk(e):
        if e == y:
            return lambda t: t
        if not e.free_symbols:
            c = complex(e)
            c = c.real if c.imag == 0 else c
            return lambda t: c
        if e.is_Add or e.is_Mul:
            parts = [walk(a) for a in e.args]
            combine = sum if e.is_Add else math.prod
            return lambda t: combine(f(t) for f in parts)
        if e.is_Pow and e.exp.is_Integer:
            base, n = walk(e.base), int(e.exp)
            return lambda t: base(t) ** n
        if type(e) in elementary:
            fn, arg = elementary[type(e)], walk(e.args[0])
            return lambda t: fn(arg(t))
        raise ConfigurationError(
            f"unsupported node {type(e).__name__} in mode expression: {e} "
            "(jets take Add, Mul, integer Pow, exp, sin, cos and numbers)"
        )

    return walk(expr)


def _supplied_jet_function(derivs):
    """The jet function of derivative callables of orders 0, 1, ...: row k is
    d^k f / k! at the sample points, row 0 of the variable jet of y."""
    def fn(t):
        y, L = t.coeffs[0], len(t.coeffs) - 1
        if L >= len(derivs):
            raise ConfigurationError(f"derivative order {L} beyond supplied data: derivs has {len(derivs)} orders")
        c = np.empty(t.coeffs.shape, dtype=complex)
        for k in range(L + 1):
            c[k] = derivs[k](y) / math.factorial(k)
        return Jet(c)
    return fn


def _dy_function(fn):
    """The jet function of d_y f from that of f: f on the variable jet one
    order higher, differentiated.  Mode functions receive the variable jet
    of y, so its row 0 gives the sample points."""
    def dfn(t):
        val = fn(Jet.variable(t.coeffs[0], len(t.coeffs)))
        return val.derivative() if isinstance(val, Jet) else 0.0
    return dfn


# ---------------------------------------------------------------------------
# Fourier modes with exact y-derivatives
# ---------------------------------------------------------------------------


class FourierMode:
    """One Fourier-in-x mode f_alpha(y), sampled as a table of its y-derivatives.

    ``expr`` is either a sympy expression in the symbol ``genfunc.Y`` or a
    plain function of a jet, such as ``lambda y: 0.4 * genfunc.exp(-1.7 * y**2)``
    built from ``+ - * /``, integer powers and ``genfunc.exp``, ``sin`` and
    ``cos``.  A sympy expression is walked once, here, into such a function;
    its node types are Add, Mul, integer Pow, exp, sin, cos and numbers, and
    any other node raises ConfigurationError.  ``expr`` is kept as given.
    Alternatively a finite tuple ``derivs`` of derivative callables (order
    0, 1, ...) becomes such a function; a higher order raises
    ConfigurationError naming derivs.
    The table of orders 0..L is the function evaluated on the variable jet
    of y (``Jet.variable``), so no symbolic derivative is taken.  ``alpha``
    must be an integer, such as 2 or 2.0 (else ConfigurationError).
    """

    def __init__(self, alpha: int, expr=None, derivs=None):
        self.alpha = as_integer("alpha", alpha, -MAX_POINTS)
        if (expr is None) == (derivs is None):
            raise ConfigurationError("expr or derivs must be given, not both")
        if derivs is not None:
            self._jet_fn = _supplied_jet_function(tuple(derivs))
        elif callable(expr) and not _is_sympy(expr):
            self._jet_fn = expr
        else:
            import sympy as sp

            expr = sp.sympify(expr)
            self._jet_fn = _jet_function(expr)
        self.expr = expr

    def derivatives(self, y, L: int) -> np.ndarray:
        """d_y^l of this mode for l = 0..L on the points y, as one complex
        (L + 1,) + y.shape table."""
        y = np.asarray(y, dtype=float)
        out = np.zeros((L + 1,) + y.shape, dtype=complex)
        val = self._jet_fn(Jet.variable(y, L))
        if isinstance(val, Jet):
            out[:] = val.coeffs * np.cumprod(np.maximum(_orders(val.coeffs), 1), axis=0, dtype=float)
        else:
            out[0] = val
        return out


# ---------------------------------------------------------------------------
# Generator series
# ---------------------------------------------------------------------------


def _gen_eval(table: np.ndarray, t, z) -> np.ndarray:
    """sum_{k,m} table[k, m] t^k z^m / m! at broadcast points (t, z).

    With table[k-1, m] = sup|d^m u_k| this is the truncated generator
    G_N(t, z) of ``instability.hopf_majorant``.  The sum over m runs in
    order of m, so that at t = 0 the value is Gen(u_1)(z) term by term; a
    table of no columns is the empty sum, 0."""
    n_t, n_z = table.shape
    m = np.arange(n_z)
    fact = np.cumprod(np.maximum(m, 1).astype(float))
    a = np.asarray(t, dtype=float)[..., None] ** np.arange(n_t) @ table
    sums = np.cumsum(a * np.asarray(z, dtype=float)[..., None] ** m / fact, axis=-1)
    return sums[..., -1] if n_z else sums.sum(axis=-1)


@dataclass(frozen=True)
class GenSeries:
    """Truncated two-variable generator series with finite, nonnegative coefficients.

    ``coeffs[w, l]`` multiplies e^{z1 w} z2^l / l!; the row index w is the
    x-frequency weight |alpha| (or a sum of such weights after products).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = as_array("coeffs", self.coeffs, 2)
        if np.any(c < 0):
            raise ConfigurationError("coeffs must be nonnegative")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, z1, z2):
        """G(z1, z2) = ``_gen_eval(coeffs, e^{z1}, z2)``, since e^{z1 w} = (e^{z1})^w,
        broadcast over arrays of points; a float for a scalar point."""
        vals = _gen_eval(self.coeffs, np.exp(np.asarray(z1, dtype=float)), z2)
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


def _truncation_orders(truncation) -> tuple[int, int]:
    """(N_alpha, N_ell); ConfigurationError naming truncation unless it is a
    pair of nonnegative integers with N_ell at most MAX_ELL and a table of
    (N_alpha + 1)(N_ell + 1) entries within MAX_POINTS."""
    N_alpha, N_ell = as_array("truncation", truncation, 1, size=2).tolist()
    N_alpha, N_ell = as_integer("truncation orders", N_alpha, 0), as_integer("truncation orders", N_ell, 0, MAX_ELL)
    check_points("truncation", (N_alpha + 1) * (N_ell + 1))
    return N_alpha, N_ell


def gen_series(modes, params: BLNormParams, truncation: tuple[int, int], flavor: str = WITH_BL) -> GenSeries:
    """Generator series of a mode family: row |alpha| accumulates the
    ell-weighted norms of the derivative table of f_alpha in the requested
    flavor, one refinement loop per mode.  The truncation must pass
    ``_truncation_orders``."""
    _check_flavor(flavor)
    N_alpha, N_ell = _truncation_orders(truncation)
    check_record("params", params, BLNormParams)
    coeffs = np.zeros((N_alpha + 1, N_ell + 1))
    for m in modes:
        w = abs(m.alpha)
        if w > N_alpha:
            continue
        coeffs[w] += _refined_sup(lambda y, m=m: m.derivatives(y, N_ell), np.arange(N_ell + 1),
                                  params, flavor)
    return GenSeries(coeffs)


def product_bound(a: GenSeries, b: GenSeries) -> GenSeries:
    """Cauchy-product upper-bound series: its evaluation equals a(z) * b(z)."""
    Wa, La = a.coeffs.shape
    Wb, Lb = b.coeffs.shape
    L = min(La, Lb)
    out = np.zeros((Wa + Wb - 1, L))
    for l in range(L):
        binoms = np.array([math.comb(l, k) for k in range(l + 1)])
        for k in range(l + 1):
            out[:, l] += binoms[k] * np.convolve(a.coeffs[:, k], b.coeffs[:, l - k])
    return GenSeries(out)


# ---------------------------------------------------------------------------
# Half-line Helmholtz solves through the explicit Green kernel
# ---------------------------------------------------------------------------


def _wavenumber(alpha) -> int:
    """|alpha| as an integer; ConfigurationError unless it is a nonzero one."""
    a = abs(as_integer("alpha", alpha, -MAX_POINTS))
    if a == 0:
        raise ConfigurationError("alpha must be a nonzero integer")
    return a


def _block_carries(r, g) -> list:
    """c_0 = 0 and c_{m+1} = r_m c_m + g_m: the running integrals of the
    Green solve at the block boundaries, one entry per block."""
    c = [0.0]
    for rm, gm in zip(r.tolist(), g.tolist()):
        c.append(rm * c[-1] + gm)
    return c


def _greens_solve(alpha: int, f, y: np.ndarray):
    """phi solving d_y^2 phi - alpha^2 phi = f, phi(0) = 0, on the grid y.

    Kernel G(x, y) = -(1/2a)(e^{-a|x-y|} - e^{-a(x+y)}), a = |alpha|,
    evaluated through exponentially weighted running integrals (6-point
    Gauss per cell), which is stable for large alpha.  Returns (phi, dphi).

    The running integrals I1_j = int_0^{y_j} e^{-a (y_j - x)} f dx and
    I2_j = int_{y_j}^{Y_MAX} e^{-a (x - y_j)} f dx are first-order linear
    recurrences, I1_{j+1} = d_j I1_j + q1_j forward and I2_j = d_j I2_{j+1}
    + q2_j backward with d_j = e^{-a (y_{j+1} - y_j)}: scans, evaluated as
    prefix sums (Blelloch, Prefix Sums and Their Applications, CMU-CS-90-190,
    1990).  The grid is cut into blocks where a y crosses a multiple of
    GREEN_BLOCK.  In a block of the points b0..b1, with w = e^{a (y - y_b0)},
    I1_j = (I1_b0 + sum_{b0<=k<j} w_{k+1} q1_k) / w_j, one cumsum; I2 is the
    mirror image, a reversed cumsum with the weights e^{a (y_b1 - y)}
    referenced to the block's end.  One step of the recurrence carries each
    integral across a cut, so the only loop runs over the blocks, at most
    1 + a Y_MAX / GREEN_BLOCK of them.

    The width 30 keeps every weight below e^30 ~ 1e13, so nothing overflows,
    and the rounding it brings, about 30 eps, is that of the per-point loop
    it replaces: against the closed form for f = e^{-y}, phi and dphi are
    within 4.5e-15 of their sup at alpha = 1..32 and 1.4e-15 at alpha = 500
    (the loop: 5.7e-15 and 1.7e-15), where a width of 300 gives 4e-14 and
    2.2e-14.  ConfigurationError naming f unless its samples are finite.
    """
    a = _wavenumber(alpha)
    gx, gw = legendre_rule(6)
    h = np.diff(y)
    # the quadrature nodes of every cell, one row per node, and f times the
    # weights there
    xq = 0.5 * h * (gx[:, None] + 1.0) + y[:-1]
    fq = np.asarray(f(xq.ravel()))
    check_finite(f=fq)
    fq = fq.reshape(xq.shape) * (0.5 * h * gw[:, None])
    # e^{-a (y_{j+1} - x)} at the nodes; the nodes are symmetric about the
    # cell's centre, so the reversed rows are e^{-a (x - y_j)}
    kern = np.exp(-0.5 * a * h * (1.0 - gx[:, None]))
    decay = np.exp(-a * h)
    # q1[j] = int_{y_j}^{y_{j+1}} e^{-a (y_{j+1} - x)} f dx
    q1 = np.sum(kern * fq, axis=0)
    # q2[j] = int_{y_j}^{y_{j+1}} e^{-a (x - y_j)} f dx
    q2 = np.sum(kern[::-1] * fq, axis=0)

    n = len(y)
    b0 = np.r_[0, np.flatnonzero(np.diff(np.floor(a * y / GREEN_BLOCK))) + 1]
    b1 = np.r_[b0[1:], n] - 1                       # each block's last point
    size = b1 - b0 + 1
    w1 = np.exp(a * (y - np.repeat(y[b0], size)))   # e^{a (y - y_b0)}
    w2 = np.exp(a * (np.repeat(y[b1], size) - y))   # e^{a (y_b1 - y)}
    t1, t2 = w1[1:] * q1, w2[:-1] * q2
    # the sums within each block: S1_j over b0 <= k < j, S2_j over j <= k < b1
    S1 = np.zeros(n, dtype=t1.dtype)
    S2 = np.zeros(n, dtype=t2.dtype)
    for i, j in zip(b0, b1):
        np.cumsum(t1[i:j], out=S1[i + 1:j + 1])
        np.cumsum(t2[i:j][::-1], out=S2[i:j][::-1])
    # I1 at each block's start and I2 at each block's end, one recurrence
    # step across each cut
    j = b1[:-1]
    r1, r2 = decay[j] / w1[j], decay[j] / w2[j + 1]
    c1 = _block_carries(r1, r1 * S1[j] + q1[j])
    c2 = _block_carries(r2[::-1], (r2 * S2[j + 1] + q2[j])[::-1])[::-1]
    I1 = (np.repeat(c1, size) + S1) / w1
    I2 = (np.repeat(c2, size) + S2) / w2
    I3 = np.exp(-a * y) * I2[0]
    phi = -(I1 + I2 - I3) / (2.0 * a)
    dphi = 0.5 * (I1 - I2 - I3)
    return phi, dphi


def laplace_solve_1d(alpha: int, f, params: BLNormParams, with_bl: bool = True) -> dict:
    """Solve d_y^2 phi - alpha^2 phi = f on the half line with phi(0) = 0.

    Returns the solution sampled on a layer-resolving grid together with the
    norm bundle alpha^2 ||phi||, |alpha| ||d_y phi||, and ||d_y^2 phi|| in
    the plain and (when requested) boundary-layer flavors.  Boundary-layer
    estimates require |delta alpha^2| <= 1; alpha must be a nonzero integer
    whose grid stays within MAX_POINTS, |alpha| <= 124992 (else
    ConfigurationError, raised before the grid is built).
    """
    a = _wavenumber(alpha)
    step = min(0.1, 0.5 / a)
    check_points("alpha", 600 + Y_MAX / step)  # about the grid's points, 600 + 80 |alpha| from |alpha| = 5
    check_record("params", params, BLNormParams)
    if with_bl and abs(params.delta * a**2) > 1.0:
        raise ConfigurationError(f"|delta alpha^2| = {params.delta * a**2:.3g} > 1: "
                                 "boundary-layer estimate outside its admissible range")
    y = sample_grid(params.delta, 200, max_step=step)
    phi, dphi = _greens_solve(alpha, f, y)
    d2phi = np.asarray(f(y)) + a**2 * phi
    plain = _weighted_sup(y, np.stack([phi, dphi, d2phi]), [0, 0, 0], params, WITHOUT_BL)
    norms = {
        "a2_phi": a**2 * float(plain[0]),
        "a_dphi": a * float(plain[1]),
        "d2phi_plain": float(plain[2]),
    }
    if with_bl:
        norms["d2phi_bl"] = float(_weighted_sup(y, d2phi[None], [0], params, WITH_BL)[0])
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
    at a point where rhs is not; NaN when any sample is not finite, where
    the ratio is not known (a NaN sample fails both comparisons, and an
    overflowed rhs would give the ratio 0)."""
    lhs, rhs = np.ravel(lhs), np.ravel(rhs)
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        return np.nan
    pos = rhs > 1e-14
    if np.any(~pos & (lhs > 1e-12)):
        return np.inf
    return float(np.max(lhs[pos] / rhs[pos], initial=0.0))


def elliptic_gen_estimate(omega_modes, params: BLNormParams, z2_max: float, truncation: tuple[int, int] = (4, 10)) -> dict:
    """Measure the constants of the elliptic generator inequalities.

    Solves Delta_alpha phi_alpha = omega_alpha per mode and compares
    Gen_delta(second gradient) + Gen_0(gradient) against Gen_delta(omega),
    per mode and after summation (plain, z1-weighted, z2-differentiated).
    Modes must satisfy |delta alpha^2| <= 1, z2_max must be positive and
    finite and the truncation must pass ``_truncation_orders``.
    """
    check_positive(z2_max=z2_max)
    N_alpha, N_ell = _truncation_orders(truncation)
    modes = list(omega_modes)
    check_record("params", params, BLNormParams)
    for m in modes:
        if abs(params.delta * m.alpha**2) > 1.0:
            raise ConfigurationError(
                f"mode alpha={m.alpha}: |delta alpha^2| = {params.delta * m.alpha**2:.3g} >= 1"
            )
    y = sample_grid(params.delta, max_step=0.1)
    z2s = np.linspace(z2_max / 8, z2_max, 8)
    ells = np.arange(N_ell + 1)

    def sup(rows, flavor):
        return _weighted_sup(y, rows, ells, params, flavor)

    lhs = np.zeros((N_alpha + 1, N_ell + 1))      # Gen_delta(grad^2) + Gen_0(grad) per weight
    rhs = np.zeros((N_alpha + 1, N_ell + 1))      # Gen_delta(omega)
    rows = []
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
        rows.append((row_l, row_r))

    L = GenSeries(lhs)
    R = GenSeries(rhs)
    z1 = np.repeat((0.0, 0.1, 0.2), z2s.size)
    z2 = np.tile(z2s, 3)
    # series that overflow at z2_max give constants that are not finite, as
    # "finite" reports, and no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        per_mode_C = [_ratio_sup(GenSeries(l[None, :])(0.0, z2s), GenSeries(r[None, :])(0.0, z2s)) for l, r in rows]
        report = {
            "C0": float(np.max(per_mode_C, initial=0.0)),
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


def _mode_products(pairs, N_alpha):
    """Fourier modes of the sum of the pointwise products f * g over the
    (f_modes, g_modes) pairs, truncated to |alpha| <= N_alpha: one pass
    groups the products of the parents' jet functions by output alpha, and
    each mode's jet function sums its group."""
    terms: dict[int, list] = {}
    for f_modes, g_modes in pairs:
        for mf in f_modes:
            for mg in g_modes:
                a = mf.alpha + mg.alpha
                if abs(a) <= N_alpha:
                    terms.setdefault(a, []).append((mf._jet_fn, mg._jet_fn))
    return [FourierMode(a, lambda t, fg=fg: sum(f(t) * g(t) for f, g in fg)) for a, fg in terms.items()]


def divfree_bilinear(u_modes, v_modes, g_modes, params: BLNormParams,
                     truncation: tuple[int, int] = (4, 8)) -> dict:
    """Measure the transport majorant constants for a divergence-free pair.

    Checks d_y v_alpha = -i alpha u_alpha and v_alpha(0) = 0 (else
    ConfigurationError naming v_modes), then compares
    Gen_delta(v d_y g) against (Gen_0(v) + dz1 Gen_0(u)) dz2 Gen_delta(g),
    and the first-order transport bundle against C B dz1 B + C B dz2 B.
    The d_y g, d_x g = i alpha g, product and transport modes are built by
    composing the parents' jet functions.
    """
    N_alpha, N_ell = _truncation_orders(truncation)
    check_record("params", params, BLNormParams)
    yc = sample_grid(params.delta)     # yc[0] = 0 is the wall
    u_by_alpha = {m.alpha: m for m in u_modes}
    for mv in v_modes:
        v, dv = mv.derivatives(yc, 1)
        mu = u_by_alpha.get(mv.alpha)
        target = -1j * mv.alpha * mu.derivatives(yc, 0)[0] if mu else 0.0
        scale = 1.0 + np.max(np.abs(dv))
        if np.max(np.abs(dv - target)) > 1e-10 * scale:
            raise ConfigurationError(f"v_modes and u_modes leave a divergence residual above tolerance "
                                     f"for alpha={mv.alpha}")
        if abs(v[0]) > 1e-10:
            raise ConfigurationError(f"v_modes must vanish at the wall: v_alpha(0) != 0 for alpha={mv.alpha}")

    dyg = [FourierMode(m.alpha, _dy_function(m._jet_fn)) for m in g_modes]
    dxg = [FourierMode(m.alpha, lambda t, f=m._jet_fn, c=1j * m.alpha: c * f(t)) for m in g_modes]
    v_dyg = _mode_products([(v_modes, dyg)], N_alpha)
    transport = _mode_products([(v_modes, dyg), (u_modes, dxg)], N_alpha)

    G_vdyg = gen_series(v_dyg, params, truncation, WITH_BL)
    G0_u = gen_series(u_modes, params, truncation, WITHOUT_BL)
    G0_v = gen_series(v_modes, params, truncation, WITHOUT_BL)
    Gd_g = gen_series(g_modes, params, truncation, WITH_BL)
    Gd_t = gen_series(transport, params, truncation, WITH_BL)

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


def _strip_samples(rho):
    x = np.linspace(-20.0, 20.0, 601)
    y = np.linspace(-rho, rho, 9)
    return (x[:, None] + 1j * y[None, :]).ravel()


def _pencil_samples(sigma, r):
    x = np.linspace(1e-6, 20.0, 601)
    ymax = np.minimum(sigma * x, sigma * r)
    t = np.linspace(-1.0, 1.0, 9)
    return (x[:, None] + 1j * (ymax[:, None] * t[None, :])).ravel()


def _sup_norm(vals):
    if not np.all(np.isfinite(vals)):
        raise RegionError("function not finite on the sampled domain")
    return float(np.max(np.abs(vals)))


def strip_norms(f, rho: float | None = None, pencil: tuple[float, float] | None = None,
                g=None) -> dict:
    """Sampled analytic sup norms on a strip or pencil, with Cauchy/product checks.

    On the strip |Im z| <= rho: returns ||f||_rho = sup |f|, the measured
    constant of ||f'||_{rho/2} <= C/(rho - rho/2) ||f||_rho, and the product
    check ||f g||_rho <= ||f||_rho ||g||_rho (g defaults to f).
    On the pencil |Im z| <= min(sigma Re z, sigma r): the derivative check
    uses the weighted bound ||phi(z) f'||_{sigma'} <= C/(sigma-sigma') ||f||_sigma.
    Both share one path; only the samples, the derivative weight and the
    name of the inner width differ.  rho, or the pair pencil = (sigma, r),
    must be positive and finite (else ConfigurationError).
    """
    if (rho is None) == (pencil is None):
        raise ConfigurationError("rho or pencil must be given, not both")
    if rho is not None:
        check_positive(rho=rho)
        width, inner_key = rho, "rho_inner"
        samples, weight = _strip_samples, (lambda w: 1.0)
    else:
        width, r = as_array("pencil", pencil, 1, size=2).tolist()
        check_positive(sigma=width, r=r)
        inner_key = "sigma_inner"
        samples, weight = (lambda s: _pencil_samples(s, r)), (lambda w: w / (1.0 + w))
    h = 1e-6

    def weighted_dfdz(z):
        return weight(z) * ((np.asarray(f(z + h)) - np.asarray(f(z - h))) / (2 * h))

    # a sample that overflows is reported by _sup_norm, not by numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        z = samples(width)
        f_z = np.asarray(f(z))
        norm = _sup_norm(f_z)
        inner = width / 2.0
        d_norm = _sup_norm(weighted_dfdz(samples(inner)))
        C = d_norm * (width - inner) / norm if norm > 0 else 0.0
        g_z = f_z if g is None else np.asarray(g(z))
        prod = _sup_norm(f_z * g_z)
        g_norm = _sup_norm(g_z)
    return {
        "norm": norm,
        "derivative_bound_check": {"C": C, inner_key: inner},
        "product_check": {
            "lhs": prod,
            "rhs": norm * g_norm,
            "pass": prod <= norm * g_norm * (1 + 1e-9),
        },
    }
