"""Rayleigh and Orr-Sommerfeld eigenproblems and marginal-stability branches.

Both problems are posed as pencils A phi = c B phi with the boundary rows
written into A (and zeroed in B).  One solve serves both: the boundary
unknowns are eliminated through those rows, and the mass side B is
inverted on the subspace of functions that meet the boundary conditions,
where it is nonsingular.  That leaves one standard eigenproblem of order
n - k (k boundary rows) with no infinite eigenvalues.  A channel profile
with even U (Poiseuille) gives a pencil symmetric under y -> -y; its even
and odd eigenfunctions then solve two problems of half that order (Orszag,
J. Fluid Mech. 50, 1971), which together cost about a quarter of the dense
eigensolve of the whole, and the spectrum is their union; a pencil without
the symmetry is one block, the reduced problem itself.  Spurious
continuous-spectrum modes are filtered on the full pencil by a
Chebyshev-tail smoothness check and, for the modes that pass it, an
operator-scaled residual gate; the solution records how many each gate
rejected and the highest rejected candidate.  Accepted modes rank by Im c,
descending, with an Im c within the rounding floor 1e-12 max(1, |c|)
ranked as 0 and ties broken by Re c, descending, so neutral modes keep one
order whatever their last bits.  The three leading modes are polished by
inverse iteration with a two-sided Rayleigh quotient, one factorization per
mode, on the reduced block of the mode's parity, lifted back, and kept only
if their full-pencil residual stays at roundoff.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    CriticalLayerError,
    InputError,
    NumericalError,
    WindowError,
    check_positive,
)
from .profiles import CHANNEL, ShearProfile
from .spectral import SpectralDiscretization, bc_rows, build_grid

RESIDUAL_GATE = 1e-6
TAIL_GATE = 1e-3
POLISH_FLOOR = 1e-12
POLISH_STEPS = 2     # Rayleigh-quotient inverse-iteration steps per polished pair
RANK_FLOOR = 1e-12   # an Im c within RANK_FLOOR max(1, |c|) ranks as 0

BRANCH_LOWER = "lower"
BRANCH_UPPER = "upper"


@dataclass(frozen=True)
class EigenSolution:
    """Accepted discrete eigenpairs of a stability pencil at one (alpha, Re)."""

    eigenvalues: tuple          # phase speeds c, in the order of _ranking
    modes: np.ndarray           # columns phi, unit max-norm, aligned with eigenvalues
    residuals: tuple            # operator-scaled pencil residuals per pair
    n_tail_rejected: int = 0    # raw eigenvalues dropped by the Chebyshev-tail gate
    n_residual_rejected: int = 0  # smooth ones dropped by the residual gate
    top_rejected: tuple | None = None  # (c, tail, residual) of the highest-Im dropped one

    @property
    def n_rejected(self) -> int:
        """Raw eigenvalues dropped by either gate."""
        return self.n_tail_rejected + self.n_residual_rejected


@dataclass
class NeutralBranch:
    """One side of the marginal-stability curve alpha(Re)."""

    points: list                # (Re, alpha), sorted ascending in Re
    side: str                   # "lower" or "upper"
    subcritical_Re: list = field(default_factory=list)


def _profile_diagonals(profile: ShearProfile, grid: SpectralDiscretization):
    y = grid.nodes
    finite = np.isfinite(y)
    yf = np.where(finite, y, 0.0)
    U = np.where(finite, profile.U(yf), profile.U(np.array(1e12)))
    d2U = np.where(finite, profile.d2U(yf), 0.0)
    return U, d2U


def _refine_eigenpair(A, B, c, phi):
    """Inverse iteration at a fixed shift, with a two-sided Rayleigh quotient.

    The eigensolver's backward error grows with the operator norm and
    pollutes eigenvalues of large ill-conditioned pencils; a couple of
    shift-invert steps with a two-sided Rayleigh quotient restores them to
    the accuracy of the matrix entries.  K = A - c B is factored once, at
    the starting c, and serves every step's solve and adjoint solve: the
    eigensolver's c is off by 1e-10 to 1e-6, far less than the distance to
    the next eigenvalue, so the fixed shift converges in as few steps as a
    refactored one.  Falls back to the last good pair when a solve
    degenerates or the update jumps away from the starting eigenvalue.
    """
    import scipy.linalg

    c0 = c
    K = B * -c
    K += A
    try:
        lu = scipy.linalg.lu_factor(K, overwrite_a=True)
    except (scipy.linalg.LinAlgError, ValueError, FloatingPointError):
        return c, phi
    for _ in range(POLISH_STEPS):
        try:
            x = scipy.linalg.lu_solve(lu, B @ phi)
            norm = np.linalg.norm(x)
            # checked before the division, which would warn on a non-finite x
            if not 0.0 < norm < np.inf:
                break
            v = x / norm
            # the adjoint solve K^H w = B^H v reuses the factorization of K
            w = scipy.linalg.lu_solve(lu, (v.conj() @ B).conj(), trans=2)
        except (scipy.linalg.LinAlgError, ValueError, FloatingPointError):
            break
        if not np.all(np.isfinite(w)):
            break
        den = w.conj() @ (B @ v)
        if abs(den) == 0.0:
            break
        c_new = (w.conj() @ (A @ v)) / den
        if not np.isfinite(c_new) or abs(c_new - c0) > 1e-2 * (1.0 + abs(c0)):
            break
        c, phi = complex(c_new), v
    return c, phi


def _residuals(A, B, c, V, scale):
    """Operator-scaled residuals ||A v - c B v|| / (||v|| (scale + |c|)) per column."""
    R = B @ V
    R *= -c
    R += A @ V
    return np.linalg.norm(R, axis=0) / (np.linalg.norm(V, axis=0) * (scale + np.abs(c)))


def _tail_fractions(V):
    """Fraction of Chebyshev-coefficient mass in the top third, per column."""
    from scipy.fft import dct

    N = V.shape[0] - 1
    a = dct(V, type=1, axis=0)
    a = np.abs(a, out=a).real  # in place: no second array the size of V
    a[[0, -1]] /= 2.0
    total = a.sum(axis=0)
    tail = a[2 * N // 3:].sum(axis=0)
    return np.divide(tail, total, out=np.ones_like(total), where=total > 0)


def _fold(M, parity):
    """The block of M on vectors of one parity under the reversal k -> m-1-k.

    M commutes with the reversal.  Even vectors are [u; u reversed] and odd
    ones [u; -u reversed], with a middle entry between them when m is odd
    (zero in the odd ones); M maps each to one of its own parity.  So the
    leading rows of M, with each mirrored column added (even) or subtracted
    (odd), act on the free entries u (and the middle one).  Parity 0, the
    one block of an M without the symmetry, is M itself.
    """
    if not parity:
        return M
    m = M.shape[0]
    q = m // 2
    h = m - q if parity > 0 else q
    F = M[:h, :h].copy()
    F[:, :q] += parity * M[:h, m - 1:m - 1 - q:-1]
    return F


def _unfold(W, parity, m):
    """The full vectors of length m whose free entries are the rows of W (see _fold)."""
    if not parity:
        return W
    q = m // 2
    V = np.zeros((m, W.shape[1]), dtype=W.dtype)
    V[:W.shape[0]] = W
    V[m - q:] = W[:q][::-1]
    V[m - q:] *= parity
    return V


def _reduced_eig(A, B, bc_idx, alpha, param, mirror):
    """Finite eigenpairs of A phi = c B phi, with the boundary rows bc_idx of A
    the constraints R phi = 0 and those rows of B zero.

    The boundary unknowns are eliminated, phi_b = T phi_i with
    T = -R_bb^{-1} R_bi, which leaves the pencil (A_r, B_r) of order n - k
    on the constrained subspace; the eigenvectors w are lifted back to
    phi = [w; T w], with T w found by solving R_bb phi_b = -R_bi w.  When
    ``mirror`` holds, the pencil and its boundary rows are symmetric under
    j -> n-1-j, so A_r and B_r commute with the reversal of the interior
    unknowns and fold into an even (parity 1) and an odd (parity -1) block
    of half the order; otherwise they are one block of parity 0 (see
    _fold).  Each block (F_A, F_B) is solved as the standard problem
    (F_B^{-1} F_A) u = c u, and the spectrum is the union of the blocks'.

    Returns the eigenvalues, the lifted eigenvectors as columns, the parity
    of each, and ``polish(c, phi, parity)``, which refines one pair by
    ``_refine_eigenpair`` on the block of its parity, from the free entries
    of phi's interior part, and lifts it back.  The blocks live as long as
    ``polish`` does.
    """
    n = A.shape[0]
    b = np.asarray(bc_idx)
    i = np.setdiff1d(np.arange(n), b)
    R_bb, R_bi = A[np.ix_(b, b)], A[np.ix_(b, i)]
    T = -np.linalg.solve(R_bb, R_bi)
    parities = (1, -1) if mirror else (0,)

    def folds(M):  # a mirror pencil's reduced M lives only while it is folded
        M_r = M[np.ix_(i, i)]
        M_r += M[np.ix_(i, b)] @ T
        return [_fold(M_r, s) for s in parities]

    def lift(W, parity, V):
        """Write into the columns of V the full vectors whose free entries are W's."""
        W = _unfold(W, parity, len(i))
        V[i] = W
        # solved, not T @ W: that would leave T's rounding, times the
        # operator-sized constraint rows, in those rows' residual
        V[b] = np.linalg.solve(R_bb, -(R_bi @ W))

    folded = dict(zip(parities, zip(folds(A), folds(B))))
    try:
        parts = [(s, *np.linalg.eig(np.linalg.solve(F_B, F_A))) for s, (F_A, F_B) in folded.items()]
    except np.linalg.LinAlgError as exc:
        # B_r's singular values are its blocks', to the fold's factor sqrt(2)
        sv = np.concatenate([np.linalg.svd(F_B, compute_uv=False) for _, F_B in folded.values()])
        raise NumericalError(
            f"reduced eigensolve failed at alpha={alpha}, parameter={param}; "
            f"cond(B_r)~{sv.max() / sv.min():.2e}"
        ) from exc
    cs = np.concatenate([c for _, c, _ in parts])
    parity = np.concatenate([np.full(len(c), s) for s, c, _ in parts])
    V = np.empty((n, len(cs)), dtype=complex)
    start = 0
    while parts:  # each parity's eigenvectors are dropped once lifted
        s, c, W_s = parts.pop(0)
        lift(W_s, s, V[:, start:start + len(c)])
        start += len(c)

    def polish(c, phi, s):
        F_A, F_B = folded[s]
        c, w = _refine_eigenpair(F_A, F_B, c, phi[i[:F_A.shape[0]]])
        # the boundary entries are solved again, as for every eigenvector
        phi = np.empty(n, dtype=complex)
        lift(w[:, None], s, phi[:, None])
        return c, phi

    return cs, V, parity, polish


def _ranking(cs):
    """The indices that order phase speeds by Im c descending, then Re c
    descending; an Im c within the rounding floor RANK_FLOOR max(1, |c|)
    ranks as 0, so neutral modes keep one order whatever their last bits."""
    cs = np.asarray(cs, dtype=complex)
    im = np.where(np.abs(cs.imag) <= RANK_FLOOR * np.maximum(1.0, np.abs(cs)), 0.0, cs.imag)
    return np.lexsort((-cs.real, -im))


def _solve_pencil(A, B, bc_idx, alpha, param, scale, mirror):
    cs, V, parity, polish = _reduced_eig(A, B, bc_idx, alpha, param, mirror)
    # a mode must pass both gates; the cheap tail gate goes first, and the
    # residual gate sees only the modes that pass it
    tail = _tail_fractions(V)
    smooth = np.flatnonzero(tail <= TAIL_GATE)
    res = _residuals(A, B, cs[smooth], V[:, smooth], scale)
    passed = res <= RESIDUAL_GATE
    order, res = smooth[passed], res[passed]
    rank = _ranking(cs[order])
    order, res = order[rank], res[rank]
    rejected = np.setdiff1d(np.arange(len(cs)), order)
    top_rejected = None
    if len(rejected):
        j = rejected[np.argmax(cs[rejected].imag)]
        top_rejected = (complex(cs[j]), float(tail[j]),
                        float(_residuals(A, B, cs[j], V[:, j:j + 1], scale)[0]))
    accepted = list(zip(cs[order], V[:, order].T, res, parity[order]))
    del V  # the full eigenvector block is not needed by the polish
    # polish the leading (least damped) modes, the ones callers consume, each
    # on the block of its parity; the unpolished pairs are at roundoff
    # already, so the polished pair stays unless its full-pencil residual is
    # worse by more than a rounding floor.  Both residuals of the comparison
    # are taken one column at a time: the batched product rounds differently,
    # by up to 4x at the 1e-11 level
    for k in range(min(3, len(accepted))):
        c, phi, _, s = accepted[k]
        c2, phi2 = polish(c, phi, s)
        r = _residuals(A, B, c, phi[:, None], scale)[0]
        r2 = _residuals(A, B, c2, phi2[:, None], scale)[0]
        if r2 <= min(r + POLISH_FLOOR, RESIDUAL_GATE):
            accepted[k] = (c2, phi2, r2, s)
    del polish  # and with it the folded blocks
    accepted = [accepted[k] for k in _ranking([c for c, *_ in accepted])]
    return EigenSolution(
        eigenvalues=tuple(complex(c) for c, *_ in accepted),
        modes=(np.stack([p / p[np.argmax(np.abs(p))] for _, p, *_ in accepted], axis=1)
               if accepted else np.zeros((A.shape[0], 0), dtype=complex)),
        residuals=tuple(float(r) for _, _, r, _ in accepted),
        n_tail_rejected=len(cs) - len(smooth),
        n_residual_rejected=len(smooth) - len(order),
        top_rejected=top_rejected,
    )


def _install_bc(A, B, grid, bc):
    """Write the constraint rows of ``bc`` into A (zeroing them in B); returns their indices."""
    # constraint rows are scaled up to the operator magnitude: the polish and
    # the residual gate measure errors relative to ||A||, so small rows would
    # be satisfied only loosely
    scale = np.linalg.norm(A, np.inf)
    rows = bc_rows(grid, bc)
    for i, row in rows:
        A[i, :] = row * (scale / np.linalg.norm(row))
        B[i, :] = 0.0
    return [i for i, _ in rows]


def _pencil(profile, alpha, grid, eps, bc):
    """The pencil of (U - c)(D2 - a^2) phi - U'' phi = eps (D2 - a^2)^2 phi.

    eps = 0 is the Rayleigh pencil: the fourth-order term is then not formed.
    ``bc`` names the boundary rows.  Returns (A, B, boundary row indices,
    operator scale ||A|| / ||B||, mirror), where mirror says the pencil is
    symmetric under the reflection y -> -y of the channel nodes j -> N - j:
    U and U'' even to rounding and the boundary rows a set it maps to itself.
    """
    if grid.domain != profile.domain:
        raise ConfigurationError(
            f"grid domain {grid.domain!r} does not match profile domain {profile.domain!r}"
        )
    # a product overflows to inf where alpha**4 would raise OverflowError
    if not np.isfinite(alpha * alpha * alpha * alpha):
        raise ConfigurationError(f"alpha = {alpha!r} is too large: alpha^4 overflows")
    U, d2U = _profile_diagonals(profile, grid)
    ident = np.eye(grid.n_nodes)
    M = grid.D2 - alpha**2 * ident
    A = U[:, None] * M - np.diag(d2U)
    if eps:
        A = A - eps * (grid.D4 - 2.0 * alpha**2 * grid.D2 + alpha**4 * ident)
    A = A.astype(complex)
    B = M.astype(complex)
    bc_idx = _install_bc(A, B, grid, bc)
    scale = np.linalg.norm(A, np.inf) / max(np.linalg.norm(B, np.inf), 1.0)
    mirror = (grid.domain == CHANNEL and {grid.N - j for j in bc_idx} == set(bc_idx)
              and all(np.max(np.abs(f - f[::-1])) <= 1e-13 * max(1.0, np.max(np.abs(f)))
                      for f in (U, d2U)))
    return A, B, bc_idx, scale, mirror


def rayleigh_spectrum(profile: ShearProfile, alpha: float, grid: SpectralDiscretization) -> EigenSolution:
    """Discrete spectrum of (U - c)(D2 - alpha^2) phi = U'' phi.

    Dirichlet/decay conditions at both ends.  Continuous-spectrum artifacts
    (rough modes with c inside range(U)) are rejected by the smoothness gate.
    """
    check_positive(alpha=alpha)
    A, B, bc_idx, scale, mirror = _pencil(profile, alpha, grid, 0.0, "dirichlet")
    return _solve_pencil(A, B, bc_idx, alpha, "inviscid", scale, mirror)


def rayleigh_resolvent(
    profile: ShearProfile,
    alpha: float,
    c: complex,
    source: Callable[[np.ndarray], np.ndarray],
    grid: SpectralDiscretization,
) -> np.ndarray:
    """Solve (U - c)(D2 - alpha^2) phi - U'' phi = source with Dirichlet ends.

    The operator is the Rayleigh pencil A - c B of ``rayleigh_spectrum``,
    so a grid whose domain does not match the profile's is rejected the
    same way.  ``source`` is a callable of z, sampled at the finite nodes.
    Raises a critical-layer error when c comes within 1e-8 of U at a node.
    """
    check_positive(alpha=alpha)
    if not np.isfinite(c):
        raise ConfigurationError(f"c must be finite, got {c!r}")
    A, B, bc_idx, _, _ = _pencil(profile, alpha, grid, 0.0, "dirichlet")
    U, _ = _profile_diagonals(profile, grid)
    finite = np.isfinite(grid.nodes)
    gap = np.min(np.abs(U[finite] - c))
    if gap < 1e-8:
        raise CriticalLayerError(
            f"|U(z) - c| = {gap:.3e} at a collocation node: critical-layer degeneracy"
        )
    rhs = np.where(finite, np.asarray(source(np.where(finite, grid.nodes, 0.0)), dtype=complex), 0.0)
    rhs[bc_idx] = 0.0
    return np.linalg.solve(A - c * B, rhs)


def os_spectrum(
    profile: ShearProfile,
    alpha: float,
    Re: float,
    grid: SpectralDiscretization,
) -> EigenSolution:
    """Viscous spectrum of (U - c)(D2 - a^2) phi - U'' phi = eps (D2 - a^2)^2 phi.

    eps = nu / (i alpha) with nu = 1/Re; clamped/decay boundary conditions.
    Warns when N is below the critical-layer resolution guidance 4 Re^{1/4},
    once the pencil has accepted the grid.
    """
    check_positive(alpha=alpha, Re=Re)
    eps = 1.0 / (1j * alpha * Re)
    A, B, bc_idx, scale, mirror = _pencil(profile, alpha, grid, eps, "clamped")
    n_guide = 4.0 * Re**0.25
    if grid.N < n_guide:
        warnings.warn(
            f"N={grid.N} below resolution guidance {n_guide:.0f} at Re={Re:.3g}",
            stacklevel=2,
        )
    return _solve_pencil(A, B, bc_idx, alpha, Re, scale, mirror)


def max_growth_rate(profile, alpha, Re, grid) -> float:
    """max Im(c) of the viscous spectrum; -1 when no mode passes the filters."""
    sol = os_spectrum(profile, alpha, Re, grid)
    # not the leader's: the ranking counts an Im c at rounding level as 0
    return max((c.imag for c in sol.eigenvalues), default=-1.0)


def neutral_curve(
    profile: ShearProfile,
    Re_list,
    alpha_window,
    N: int,
    map_scale: float = 2.0,
    n_scan: int = 16,
    alpha_tol: float = 1e-4,
) -> tuple[NeutralBranch, NeutralBranch]:
    """Lower/upper marginal branches alpha(Re) where max Im(c) crosses zero.

    Each Re in ``Re_list`` is scanned over ``alpha_window`` at ``n_scan``
    points, at least 3 (a band needs a point inside it and one each side);
    when an unstable band is found, each edge is found by Brent's method on
    the scan bracket around it, to within ``alpha_tol / 2`` of the crossing.
    Re values with no unstable alpha are recorded on the branches as below
    criticality.
    """
    from scipy.optimize import brentq

    Re_list = [float(r) for r in Re_list]
    if sorted(Re_list) != Re_list:
        raise ConfigurationError("Re_list must be sorted ascending")
    a_lo, a_hi = float(alpha_window[0]), float(alpha_window[1])
    if not (0 < a_lo < a_hi):
        raise ConfigurationError("alpha window must be positive and increasing")
    check_positive(alpha_tol=alpha_tol)
    if n_scan < 3:
        raise ConfigurationError(f"n_scan must be at least 3 to bracket a band, got {n_scan}")

    lower = NeutralBranch([], BRANCH_LOWER)
    upper = NeutralBranch([], BRANCH_UPPER)

    grid = build_grid(N, profile.domain, map_scale=map_scale)
    alphas = np.linspace(a_lo, a_hi, n_scan)
    for Re in Re_list:
        g = np.array([max_growth_rate(profile, a, Re, grid) for a in alphas])
        if np.all(g <= 0):
            lower.subcritical_Re.append(Re)
            upper.subcritical_Re.append(Re)
            continue
        if g[0] > 0 or g[-1] > 0:
            raise WindowError(
                f"unstable band touches the alpha window edge at Re={Re:.6g}; "
                f"scan trace: {list(zip(alphas.tolist(), g.tolist()))}"
            )
        kpos = np.flatnonzero(g > 0)
        scanned = dict(zip(alphas.tolist(), g.tolist()))

        def growth(a):
            # brentq starts from both bracket ends, which the scan has evaluated
            return scanned[a] if a in scanned else max_growth_rate(profile, a, Re, grid)

        def edge(k):
            return brentq(growth, alphas[k], alphas[k + 1], xtol=alpha_tol / 2)

        lower.points.append((Re, edge(kpos[0] - 1)))
        upper.points.append((Re, edge(kpos[-1])))
    return lower, upper


def fit_exponents(branch: NeutralBranch, Re_window) -> tuple[float, float, float]:
    """Least-squares slope/intercept of log alpha vs log Re inside a window.

    Returns (slope, intercept, r2).
    """
    r_lo, r_hi = float(Re_window[0]), float(Re_window[1])
    pts = [(re, a) for re, a in branch.points if r_lo <= re <= r_hi]
    if len(pts) < 4:
        raise InputError(
            f"need at least 4 branch points inside Re window [{r_lo:g}, {r_hi:g}], got {len(pts)}"
        )
    x = np.log(np.array([re for re, _ in pts]))
    y = np.log(np.array([a for _, a in pts]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - float(np.sum(resid**2) / ss_tot) if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2
