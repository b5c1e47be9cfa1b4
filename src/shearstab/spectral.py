"""Chebyshev-Gauss-Lobatto collocation grids with their domain maps and
operators; the cached Gauss-Legendre rule; the one refine-until-settled loop;
the one scalar root finder.

The channel [-1, 1] uses the identity map; the half line uses the algebraic
map y = L (1 + xi) / (1 - xi), whose chain-rule factors vanish at xi = 1 so
the node at infinity carries zero derivative rows.  A map scale whose
operators overflow is rejected with the grid.  The boundary rows of the
stability pencils belong to ``stability``.  The quadratures of
``semigroup_apply``, ``duhamel_term`` and ``heat_green`` and the weighted
sup norms of ``bl_norm`` and ``gen_series`` refine in ``refine``, given one
pass and the criterion that two passes have settled.  The other sampled
norms of ``genfunc`` do not: ``laplace_solve_1d``, ``elliptic_gen_estimate``
and ``divfree_bilinear`` sample one fixed ``sample_grid``, ``strip_norms``
a fixed 601 x 9 grid.  ``evans_locate`` doubles its boundary in a loop of
its own.
Every bracketed root of the package (neutral-curve edges, inflection
points, the bootstrap's escape time) is found by
``brentq``, scipy's Brent iteration in pure Python, so that the stability
path loads no scipy root finder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, QuadratureError, as_integer, check_points, check_positive
from .profiles import CHANNEL, HALF_LINE

GRID_DOMAINS = (CHANNEL, HALF_LINE)  # the domains of build_grid


def cheb_matrix(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes cos(j pi / N) (descending) and first differentiation matrix.

    Diagonal entries use the negative-sum trick to damp O(N^2) roundoff.
    """
    j = np.arange(N + 1)
    x = np.cos(np.pi * j / N)
    c = np.ones(N + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** j
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D


@dataclass(frozen=True)
class SpectralDiscretization:
    """Collocation nodes, domain map and dense differentiation operators."""

    N: int
    domain: str
    nodes: np.ndarray   # physical coordinates (inf at the mapped endpoint on half_line)
    D1: np.ndarray
    D2: np.ndarray
    D4: np.ndarray
    D1_cheb: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.N + 1


def build_grid(N: int, domain: str, map_scale: float = 2.0) -> SpectralDiscretization:
    """Nodes and D1/D2/D4: the domain chooses only the map from the Chebyshev
    variable xi (its nodes, s = dxi/dy and ds/dxi; the identity on the channel),
    and one chain rule gives D1 = s Dc, D2 = s^2 Dc^2 + s ds Dc and D4 = D2^2.
    N must be an integer of at least 2 whose (N + 1)^2 matrix entries are
    within MAX_POINTS (else ConfigurationError)."""
    N = as_integer("N", N, 2)
    check_points("N", (N + 1) ** 2)
    if domain not in GRID_DOMAINS:
        raise ConfigurationError(f"domain must be one of {GRID_DOMAINS}, got {domain!r}")
    check_positive(map_scale=map_scale)

    xi, Dc = cheb_matrix(N)
    # a scale near the float limits overflows here; checked below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if domain == CHANNEL:
            nodes, s, ds = xi, np.ones(N + 1), np.zeros(N + 1)
        else:
            # y = L(1+xi)/(1-xi)  =>  s = dxi/dy = (1-xi)^2 / (2L), ds/dxi = -(1-xi)/L
            nodes = map_scale * (1.0 + xi) / (1.0 - xi)
            nodes[0] = np.inf
            s, ds = (1.0 - xi) ** 2 / (2.0 * map_scale), -(1.0 - xi) / map_scale
        D1 = s[:, None] * Dc
        D2 = (s**2)[:, None] * (Dc @ Dc) + (s * ds)[:, None] * Dc
        D4 = D2 @ D2
    if not all(np.isfinite(M).all() for M in (D1, D2, D4)):
        raise ConfigurationError(
            f"map_scale = {map_scale!r} is out of range: the mapped operators are not finite")
    return SpectralDiscretization(N, domain, nodes, D1, D2, D4, Dc)


@lru_cache(maxsize=None)
def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], cached read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [a, b]."""
    x, w = legendre_rule(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def refine(one_pass, n0: int, settled, what: str, max_passes: int) -> np.ndarray:
    """Evaluate one_pass(n) for n = n0, 2 n0, ... until every entry has settled.

    ``settled(val, prev)`` returns one bool for the whole value or a mask
    with one entry per value; each entry keeps its value from the first pass
    that settles it.  QuadratureError after max_passes passes, or at once
    for a pass that is not finite, which numpy's overflow and invalid
    warnings, switched off here, would otherwise only announce.
    """
    prev, change, n = None, np.inf, n0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_passes):
            val = np.asarray(one_pass(n))
            if not np.all(np.isfinite(val)):
                raise QuadratureError(f"{what} is not finite at {n} nodes")
            if prev is None:
                out, done = val, np.zeros(val.shape, dtype=bool)
            else:
                now = ~done & settled(val, prev)
                out, done = np.where(now, val, out), done | now
                if done.all():
                    return out
                change = np.max(np.abs(val - prev)[~done])
            prev, n = val, 2 * n
    raise QuadratureError(f"{what} did not settle in {max_passes} passes (last change {change:.3e})")


# the relative tolerance and the step limit of brentq, scipy's defaults
BRENT_RTOL = 4 * math.ulp(1.0)
BRENT_MAXITER = 100


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of the scalar function f in [a, b], where f(a) and f(b) differ
    in sign, by Brent's method (R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4).

    Step for step the iteration of scipy's brentq, so the two return
    the same float: each step takes the inverse-quadratic (or secant) step
    when it is short enough, else bisects, and never steps less than half
    the tolerance xtol + BRENT_RTOL |x|; converged when the bracket is within
    it.  ValueError when f(a) and f(b) have the same sign or f returns NaN;
    RuntimeError after BRENT_MAXITER steps.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x!r} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"f(a) and f(b) must have different signs: f({xpre!r}) = {fpre!r}, "
                         f"f({xcur!r}) = {fcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # xcur is the best estimate, xblk the other end of the bracket
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an infinite step in C arithmetic: it bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge in {BRENT_MAXITER} steps; last x = {xcur!r}")
