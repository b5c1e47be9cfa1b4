"""Chebyshev-Gauss-Lobatto collocation: grids, domain maps, operators, BC rows.

The channel [-1, 1] uses the identity map; the half line uses the algebraic
map y = L (1 + xi) / (1 - xi), whose chain-rule factors vanish at xi = 1 so
the node at infinity carries zero derivative rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_positive
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
    xi: np.ndarray      # Chebyshev nodes on [-1, 1], descending
    nodes: np.ndarray   # physical coordinates (inf at the mapped endpoint on half_line)
    D1: np.ndarray
    D2: np.ndarray
    D4: np.ndarray
    D1_cheb: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.N + 1

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.nodes)


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
    return SpectralDiscretization(N, domain, map_scale, xi, nodes, D1, D2, D4, Dc)


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

