"""Chebyshev-Gauss-Lobatto collocation: grids, domain maps, operators, BC rows;
the cached Gauss-Legendre rule; the one refine-until-settled loop.

The channel [-1, 1] uses the identity map; the half line uses the algebraic
map y = L (1 + xi) / (1 - xi), whose chain-rule factors vanish at xi = 1 so
the node at infinity carries zero derivative rows.  Every contour quadrature
of ``resolvent`` and every sampled norm of ``genfunc`` refines in
``refine``, given one pass and the criterion that two passes have settled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, QuadratureError, check_positive
from .profiles import CHANNEL, HALF_LINE

BC_DIRICHLET = "dirichlet"
BC_CLAMPED = "clamped"


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
    map_scale: float
    nodes: np.ndarray   # physical coordinates (inf at the mapped endpoint on half_line)
    D1: np.ndarray
    D2: np.ndarray
    D4: np.ndarray
    D1_cheb: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.N + 1


def build_grid(N: int, domain: str, map_scale: float = 2.0) -> SpectralDiscretization:
    """Build nodes and D1/D2/D4 for the requested domain."""
    if N < 2:
        raise ConfigurationError(f"N must be >= 2, got {N}")
    if domain not in (CHANNEL, HALF_LINE):
        raise ConfigurationError(f"unsupported domain {domain!r}")
    check_positive(map_scale=map_scale)

    xi, Dc = cheb_matrix(N)
    if domain == CHANNEL:
        D1 = Dc
        D2 = Dc @ Dc
        nodes = xi
    else:
        L = map_scale
        with np.errstate(divide="ignore"):
            nodes = L * (1.0 + xi) / (1.0 - xi)
        nodes[0] = np.inf
        # y = L(1+xi)/(1-xi)  =>  dxi/dy = (1-xi)^2 / (2L)
        s = (1.0 - xi) ** 2 / (2.0 * L)
        ds = -(1.0 - xi) / L            # d s / d xi
        D1 = s[:, None] * Dc
        D2 = (s**2)[:, None] * (Dc @ Dc) + (s * ds)[:, None] * Dc
    D4 = D2 @ D2
    return SpectralDiscretization(N, domain, map_scale, nodes, D1, D2, D4, Dc)


def bc_rows(grid: SpectralDiscretization, bc: str) -> list[tuple[int, np.ndarray]]:
    """Constraint rows (row index, row vector) for a boundary-condition spec.

    ``dirichlet``: value = 0 at both ends (the mapped endpoint on the half line).
    ``clamped``:   value and derivative = 0 at the wall; on the half line also
                   value at infinity plus a decay constraint (d/dxi = 0 there).
    """
    n = grid.N
    rows: list[tuple[int, np.ndarray]] = []

    def unit(i):
        e = np.zeros(grid.n_nodes)
        e[i] = 1.0
        return e

    if bc == BC_DIRICHLET:
        rows.append((0, unit(0)))
        rows.append((n, unit(n)))
    elif bc == BC_CLAMPED:
        if grid.domain == CHANNEL:
            rows.append((0, unit(0)))
            rows.append((1, grid.D1[0].copy()))
            rows.append((n - 1, grid.D1[n].copy()))
            rows.append((n, unit(n)))
        else:
            # wall at node n (y=0), infinity at node 0
            rows.append((n, unit(n)))
            rows.append((n - 1, grid.D1[n].copy()))
            rows.append((0, unit(0)))
            rows.append((1, grid.D1_cheb[0].copy()))
    else:
        raise ConfigurationError(f"unknown bc spec {bc!r}")
    if n < len(rows) + 1:
        raise ConfigurationError(
            f"N must be >= {len(rows) + 1} for the {len(rows)} {bc} boundary rows, got {n}")
    return rows


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
