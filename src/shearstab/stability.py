"""Rayleigh and Orr-Sommerfeld eigenproblems and marginal-stability branches.

Both problems are posed as pencils A phi = c B phi with the boundary rows
written into A (and zeroed in B).  One solve serves both: the boundary
unknowns are eliminated through those rows, and the mass side B is
inverted on the subspace of functions that meet the boundary conditions,
where it is nonsingular.  That leaves one standard eigenproblem of order
n - k (k boundary rows) with no infinite eigenvalues.  Spurious
continuous-spectrum modes are filtered on the full pencil by an
operator-scaled residual gate plus a Chebyshev-tail smoothness check, and
the leading modes are polished by Rayleigh-quotient inverse iteration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    CriticalLayerError,
    InputError,
    NumericalError,
    WindowError,
    check_positive,
)
from .profiles import ShearProfile
from .spectral import SpectralDiscretization, bc_rows, build_grid

RESIDUAL_GATE = 1e-6
TAIL_GATE = 1e-3
POLISH_FLOOR = 1e-12
POLISH_STEPS = 2     # Rayleigh-quotient inverse-iteration steps per polished pair

BRANCH_LOWER = "lower"
BRANCH_UPPER = "upper"


@dataclass(frozen=True)
class EigenSolution:
    """Accepted discrete eigenpairs of a stability pencil at one (alpha, Re)."""

    alpha: float
    viscosity_or_Re: float
    eigenvalues: tuple          # phase speeds c, sorted by Im(c) descending
    modes: np.ndarray           # columns phi, unit max-norm, aligned with eigenvalues
    residuals: tuple            # operator-scaled pencil residuals per pair
    n_rejected: int = 0         # raw eigenvalues dropped by the filters

    def max_growth(self) -> float:
        """Largest Im(c) over accepted modes (-inf when none survive)."""
        if not self.eigenvalues:
            return -np.inf
        return max(c.imag for c in self.eigenvalues)


@dataclass
class NeutralBranch:
    """One side of the marginal-stability curve alpha(Re)."""

    points: list                # (Re, alpha), sorted ascending in Re
    side: str                   # "lower" or "upper"
    fit: dict | None = None     # log-log slope/intercept metadata, set by fit_exponents
    subcritical_Re: list = field(default_factory=list)


def _profile_diagonals(profile: ShearProfile, grid: SpectralDiscretization):
    y = grid.nodes
    finite = np.isfinite(y)
    yf = np.where(finite, y, 0.0)
    U = np.where(finite, profile.U(yf), profile.U(np.array(1e12)))
    d2U = np.where(finite, profile.d2U(yf), 0.0)
    return U, d2U


def _refine_eigenpair(A, B, c, phi):
    """Rayleigh-quotient inverse iteration on the pencil.

    The eigensolver's backward error grows with the operator norm and
    pollutes eigenvalues of large ill-conditioned pencils; a couple of
    shift-invert steps with a two-sided Rayleigh quotient restores them to
    the accuracy of the matrix entries.  Falls back to the input pair when a
    solve degenerates or the update jumps away from the starting eigenvalue.
    """
    import scipy.linalg

    c0 = c
    for _ in range(POLISH_STEPS):
        K = B * -c
        K += A
        try:
            lu = scipy.linalg.lu_factor(K, overwrite_a=True)
            x = scipy.linalg.lu_solve(lu, B @ phi)
            v = x / np.linalg.norm(x)
            # the adjoint solve K^H w = B^H v reuses the factorization of K
            w = scipy.linalg.lu_solve(lu, (v.conj() @ B).conj(), trans=2)
        except (scipy.linalg.LinAlgError, ValueError, FloatingPointError):
            break
        if not np.all(np.isfinite(v)) or not np.all(np.isfinite(w)):
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
    a = np.abs(dct(V, type=1, axis=0))
    a[[0, -1]] /= 2.0
    total = a.sum(axis=0)
    tail = a[2 * N // 3:].sum(axis=0)
    return np.divide(tail, total, out=np.ones_like(total), where=total > 0)


def _reduced_eig(A, B, bc_idx, alpha, param):
    """Finite eigenpairs of A phi = c B phi, with the boundary rows bc_idx of A
    the constraints R phi = 0 and those rows of B zero.

    The boundary unknowns are eliminated, phi_b = T phi_i with
    T = -R_bb^{-1} R_bi, which leaves the standard problem
    (B_r^{-1} A_r) w = c w of order n - k on the constrained subspace; the
    eigenvectors are lifted back to phi = [w; T w].
    """
    n = A.shape[0]
    b = np.asarray(bc_idx)
    i = np.setdiff1d(np.arange(n), b)
    T = -np.linalg.solve(A[np.ix_(b, b)], A[np.ix_(b, i)])

    def reduce(M):
        M_r = M[np.ix_(i, i)]
        M_r += M[np.ix_(i, b)] @ T
        return M_r

    try:
        C = np.linalg.solve(reduce(B), reduce(A))
        cs, W = np.linalg.eig(C)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"reduced eigensolve failed at alpha={alpha}, parameter={param}; "
            f"cond(B_r)~{np.linalg.cond(reduce(B)):.2e}"
        ) from exc
    del C
    V = np.empty((n, W.shape[1]), dtype=complex)
    V[i] = W
    V[b] = T @ W
    return cs, V


def _solve_pencil(A, B, bc_idx, alpha, param, scale):
    cs, V = _reduced_eig(A, B, bc_idx, alpha, param)
    res = _residuals(A, B, cs, V, scale)
    keep = (res <= RESIDUAL_GATE) & (_tail_fractions(V) <= TAIL_GATE)
    n_rejected = int(np.count_nonzero(~keep))
    order = np.flatnonzero(keep)
    order = order[np.argsort(-cs[order].imag, kind="stable")]
    accepted = list(zip(cs[order], V[:, order].T, res[order]))
    del V  # the full eigenvector block is not needed by the polish
    # polish the leading (least damped) modes, the ones callers consume; the
    # unpolished pairs are at roundoff already, so the polished pair stays
    # unless it is worse by more than a rounding floor
    for k in range(min(3, len(accepted))):
        c, phi, r = accepted[k]
        c2, phi2 = _refine_eigenpair(A, B, c, phi)
        r2 = _residuals(A, B, c2, phi2[:, None], scale)[0]
        if r2 <= min(r + POLISH_FLOOR, RESIDUAL_GATE):
            accepted[k] = (c2, phi2, r2)
    accepted.sort(key=lambda t: -t[0].imag)
    eigenvalues = tuple(complex(c) for c, _, _ in accepted)
    modes = (np.stack([p / p[np.argmax(np.abs(p))] for _, p, _ in accepted], axis=1)
             if accepted else np.zeros((A.shape[0], 0), dtype=complex))
    residuals = tuple(float(r) for _, _, r in accepted)
    return eigenvalues, modes, residuals, n_rejected


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
    operator scale ||A|| / ||B||).
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
    return A, B, bc_idx, scale


def rayleigh_spectrum(profile: ShearProfile, alpha: float, grid: SpectralDiscretization) -> EigenSolution:
    """Discrete spectrum of (U - c)(D2 - alpha^2) phi = U'' phi.

    Dirichlet/decay conditions at both ends.  Continuous-spectrum artifacts
    (rough modes with c inside range(U)) are rejected by the smoothness gate.
    """
    check_positive(alpha=alpha)
    A, B, bc_idx, scale = _pencil(profile, alpha, grid, 0.0, "dirichlet")
    return EigenSolution(alpha, np.inf, *_solve_pencil(A, B, bc_idx, alpha, "inviscid", scale))


def rayleigh_resolvent(
    profile: ShearProfile,
    alpha: float,
    c: complex,
    source,
    grid: SpectralDiscretization,
) -> np.ndarray:
    """Solve (U - c)(D2 - alpha^2) phi - U'' phi = source with Dirichlet ends.

    The operator is the Rayleigh pencil A - c B of ``rayleigh_spectrum``,
    so a grid whose domain does not match the profile's is rejected the
    same way.  ``source`` may be a callable of z or an array on the grid
    nodes.
    Raises a critical-layer error when c comes within 1e-8 of U at a node.
    """
    check_positive(alpha=alpha)
    if not np.isfinite(c):
        raise ConfigurationError(f"c must be finite, got {c!r}")
    A, B, bc_idx, _ = _pencil(profile, alpha, grid, 0.0, "dirichlet")
    U, _ = _profile_diagonals(profile, grid)
    finite = np.isfinite(grid.nodes)
    gap = np.min(np.abs(U[finite] - c))
    if gap < 1e-8:
        raise CriticalLayerError(
            f"|U(z) - c| = {gap:.3e} at a collocation node: critical-layer degeneracy"
        )
    if callable(source):
        rhs = np.where(finite, np.asarray(source(np.where(finite, grid.nodes, 0.0)), dtype=complex), 0.0)
    else:
        rhs = np.asarray(source, dtype=complex).copy()
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
    A, B, bc_idx, scale = _pencil(profile, alpha, grid, eps, "clamped")
    n_guide = 4.0 * Re**0.25
    if grid.N < n_guide:
        warnings.warn(
            f"N={grid.N} below resolution guidance {n_guide:.0f} at Re={Re:.3g}",
            stacklevel=2,
        )
    return EigenSolution(alpha, float(Re), *_solve_pencil(A, B, bc_idx, alpha, Re, scale))


def max_growth_rate(profile, alpha, Re, grid) -> float:
    """max Im(c) of the viscous spectrum; -1 when no mode passes the filters."""
    sol = os_spectrum(profile, alpha, Re, grid)
    g = sol.max_growth()
    return g if np.isfinite(g) else -1.0


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
    points; when an unstable band is found, each edge is found by Brent's
    method on the scan bracket around it, to within ``alpha_tol / 2`` of the
    crossing.  Re values with no unstable alpha are recorded on the branches
    as below criticality.
    """
    from scipy.optimize import brentq

    Re_list = [float(r) for r in Re_list]
    if sorted(Re_list) != Re_list:
        raise ConfigurationError("Re_list must be sorted ascending")
    a_lo, a_hi = float(alpha_window[0]), float(alpha_window[1])
    if not (0 < a_lo < a_hi):
        raise ConfigurationError("alpha window must be positive and increasing")
    check_positive(alpha_tol=alpha_tol)

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

    Stores the fit metadata on the branch and returns (slope, intercept, r2).
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
    branch.fit = {
        "slope": float(slope),
        "intercept": float(intercept),
        "r2": r2,
        "Re_window": (r_lo, r_hi),
    }
    return float(slope), float(intercept), r2
