"""Rayleigh and Orr-Sommerfeld eigenproblems and marginal-stability branches.

Both problems are posed as pencils A phi = c B phi, built by one function
from eps, which also chooses the boundary rows: eps = 0 (Rayleigh) takes
value rows at both ends, and eps = nu / (i alpha) (Orr-Sommerfeld) the
clamped rows.  The pencil is assembled in place, with no complex
temporary, and the rows are written into A as one array (and zeroed in
B); the Rayleigh pencil is real, so its eigensolves run in real
arithmetic.  One reduction serves both: the boundary unknowns are
eliminated through those rows, and the mass side B is inverted on the
subspace of functions that meet the boundary conditions, where it is
nonsingular.  That leaves one standard eigenproblem of order n - k (k
boundary rows) with no infinite eigenvalues.  A channel profile with even
U (Poiseuille) gives a pencil symmetric under y -> -y; its even and odd
eigenfunctions then solve two problems of half that order (Orszag,
J. Fluid Mech. 50, 1971), which together cost about a quarter of the dense
eigensolve of the whole, and the spectrum is their union; a pencil without
the symmetry is one block, the reduced problem itself.  The pencil names
its parities, (1, -1) or (0,), and every solve, a spectrum, a scan point
or an edge, goes through the one reduction folded by them.  Spurious
continuous-spectrum modes are filtered on the full pencil by a
Chebyshev-tail smoothness check (the coefficients are a DCT-I, taken as
numpy's FFT of the even extension) and, for the modes that pass it, an
operator-scaled residual gate; the solution records how many each gate
rejected and the highest rejected candidate.  Accepted modes rank by Im c,
descending, with an Im c within the rounding floor 1e-12 max(1, |c|)
ranked as 0 and ties broken by Re c, descending, so neutral modes keep one
order whatever their last bits.  The three leading modes are polished by
inverse iteration with a two-sided Rayleigh quotient, one factorization per
mode, on the reduced block of the mode's parity, lifted back, and kept only
if their full-pencil residual stays at roundoff.

A neutral curve needs less than a spectrum at each alpha.  Its scan asks
only whether an accepted mode is unstable: the blocks' eigenvalues alone,
then an eigenvector by inverse iteration for each candidate with Im c > 0,
through the same gates, until one passes.  Each band edge is Brent's
method on Im c(alpha) of the leader at the bracket's unstable end, tracked
from alpha to alpha by inverse iteration on its parity block, and one
dense solve at the edge confirms that the tracked pair is the accepted
leader there; an edge whose tracking or confirmation fails is found by
Brent's method on dense solves instead; both are ``spectral.brentq``, so
scipy.linalg is the one scipy module this path loads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    CriticalLayerError,
    NumericalError,
    WindowError,
    as_array,
    as_integer,
    check_finite,
    check_positive,
    check_record,
    check_scalar,
)
from .profiles import CHANNEL, ShearProfile
from .spectral import GRID_DOMAINS, SpectralDiscretization, brentq, build_grid

RESIDUAL_GATE = 1e-6
TAIL_GATE = 1e-3
POLISH_FLOOR = 1e-12
POLISH_STEPS = 2     # Rayleigh-quotient inverse-iteration steps per polished pair
RANK_FLOOR = 1e-12   # an Im c within RANK_FLOOR max(1, |c|) ranks as 0
TAIL_BLOCK = 32      # columns per Chebyshev transform of the tail gate
TRACK_GATE = 1e-8    # largest residual of a pair tracked along a neutral-curve edge
TRACK_HALVINGS = 4   # step halvings in a row before a tracked edge falls back
CONFIRM_TOL = 1e-8   # a tracked edge's c against the dense leader there, relative

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
            # a shift that is an eigenvalue to the last bits can leave an x
            # whose norm overflows, as at Re = 1e300
            with np.errstate(over="ignore"):
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
    """Fraction of Chebyshev-coefficient mass in the top third, per column,
    transformed TAIL_BLOCK columns at a time: no copy the size of V.  The
    DCT-I of a block's N + 1 rows is the first N + 1 rows of the FFT of
    its even extension [V; V[N-1], ..., V[1]]."""
    N = V.shape[0] - 1
    tail, total = np.empty((2, V.shape[1]))
    for j in range(0, V.shape[1], TAIL_BLOCK):
        block = V[:, j:j + TAIL_BLOCK]
        a = np.fft.fft(np.concatenate([block, block[-2:0:-1]]), axis=0)[:N + 1]
        a = np.abs(a, out=a).real  # in place: no second array the size of the block
        a[[0, -1]] /= 2.0
        total[j:j + TAIL_BLOCK] = a.sum(axis=0)
        tail[j:j + TAIL_BLOCK] = a[2 * N // 3:].sum(axis=0)
    return np.divide(tail, total, out=np.ones_like(total), where=total > 0)


def _fold(M, parity):
    """The block of M on vectors of one parity under the reversal k -> m-1-k.

    M commutes with the reversal.  Even vectors are [u; u reversed] and odd
    ones [u; -u reversed], with a middle entry between them when m is odd
    (zero in the odd ones); M maps each to one of its own parity.  So the
    leading rows of M, with each reflected column added (even) or subtracted
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


class _Reduction:
    """A pencil A phi = c B phi on the functions that meet its boundary rows,
    folded by parity.

    The rows bc_idx of A are the constraints R phi = 0, and those rows of B
    are zero.  The boundary unknowns are eliminated, phi_b = T phi_i with
    T = -R_bb^{-1} R_bi, which leaves the pencil (A_r, B_r) of order n - k
    on the constrained subspace.  With parities (1, -1) the pencil and its
    boundary rows are symmetric under j -> n-1-j, so A_r and B_r commute
    with the reversal of the interior unknowns and fold into an even and an
    odd block of half the order; parity 0 is one block, (A_r, B_r) itself
    (see _fold).  ``blocks`` maps each parity to its (F_A, F_B).  A
    spectrum, a scan point and a tracked edge all read the flat arrays of
    ``eig`` and refine pairs on their blocks by ``refine``.
    """

    def __init__(self, A, B, bc_idx, parities):
        n = A.shape[0]
        b = np.asarray(bc_idx)
        # the boundary rows are end nodes (_boundary_rows), so the interior
        # unknowns are one slice, and a lift writes them through a view
        i = np.delete(np.arange(n), b)
        i = slice(i[0], i[-1] + 1)
        self.n, self.b, self.i = n, b, i
        self.R_bb, self.R_bi = A[np.ix_(b, b)], A[b, i]
        T = -np.linalg.solve(self.R_bb, self.R_bi)

        def folds(M):  # a symmetric pencil's reduced M lives only while it is folded
            M_r = M[i, i].copy()
            M_r += M[i][:, b] @ T
            return [_fold(M_r, s) for s in parities]

        self.blocks = dict(zip(parities, zip(folds(A), folds(B))))

    def eig(self, alpha, param, vectors):
        """The eigenvalues of the blocks' standard problems (F_B^{-1} F_A) u =
        c u, the parity of each and, with ``vectors``, the full eigenvectors
        as columns (else None; ``eigvals`` alone).  The spectrum is the union
        of the blocks'; each block's vectors are dropped once lifted."""
        eigsolve = np.linalg.eig if vectors else np.linalg.eigvals
        try:
            parts = [eigsolve(np.linalg.solve(F_B, F_A)) for F_A, F_B in self.blocks.values()]
        except np.linalg.LinAlgError as exc:
            # B_r's singular values are its blocks', to the fold's factor sqrt(2)
            sv = np.concatenate([np.linalg.svd(F_B, compute_uv=False) for _, F_B in self.blocks.values()])
            raise NumericalError(
                f"reduced eigensolve failed at alpha={alpha}, parameter={param}; "
                f"cond(B_r)~{sv.max() / sv.min():.2e}"
            ) from exc
        cs = [part[0] if vectors else part for part in parts]
        parity = np.concatenate([np.full(len(c), s) for s, c in zip(self.blocks, cs)])
        V = None
        if vectors:
            V, start = np.empty((self.n, len(parity)), dtype=complex), 0
            for s in self.blocks:
                _, W = parts.pop(0)
                self.lift(W, s, V[:, start:start + W.shape[1]])
                start += W.shape[1]
        return np.concatenate(cs), parity, V

    def lift(self, W, parity, V):
        """Write into the columns of V the full vectors whose free entries are
        W's: the interior unknowns [u; u reversed] (even) or [u; 0; -u
        reversed] (odd) for the rows u of W (see _fold), then the boundary
        unknowns."""
        V_i = V[self.i]
        m, h = V_i.shape[0], W.shape[0]
        V_i[:h] = W
        if parity:
            q = m // 2
            V_i[h:m - q] = 0.0  # the middle entry of an odd vector, if any
            V_i[m - q:] = W[:q][::-1]
            V_i[m - q:] *= parity
        # solved, not T @ W: that would leave T's rounding, times the
        # operator-sized constraint rows, in those rows' residual
        V[self.b] = np.linalg.solve(self.R_bb, -(self.R_bi @ V_i))

    def refine(self, c, w, parity):
        """``_refine_eigenpair`` on the block of ``parity`` from the free
        entries w; returns c, the refined free entries and the full vector."""
        c, w = _refine_eigenpair(*self.blocks[parity], c, w)
        phi = np.empty(self.n, dtype=complex)
        self.lift(w[:, None], parity, phi[:, None])
        return c, w, phi


def _gates(A, B, cs, V, scale):
    """The spurious-mode gates on the eigenpairs (cs, columns of V): the
    cheap Chebyshev-tail gate on every column, then the residual gate on the
    columns that pass it.  Returns the tail fractions, the indices that pass
    the tail gate, the indices that pass both, and the residuals of those."""
    tail = _tail_fractions(V)
    smooth = np.flatnonzero(tail <= TAIL_GATE)
    res = _residuals(A, B, cs[smooth], V[:, smooth], scale)
    passed = res <= RESIDUAL_GATE
    return tail, smooth, smooth[passed], res[passed]


def _ranking(cs):
    """The indices that order phase speeds by Im c descending, then Re c
    descending; an Im c within the rounding floor RANK_FLOOR max(1, |c|)
    ranks as 0, so neutral modes keep one order whatever their last bits."""
    cs = np.asarray(cs, dtype=complex)
    im = np.where(np.abs(cs.imag) <= RANK_FLOOR * np.maximum(1.0, np.abs(cs)), 0.0, cs.imag)
    return np.lexsort((-cs.real, -im))


def _solve_pencil(A, B, bc_idx, scale, parities, alpha, param):
    """The ``EigenSolution`` of a pencil from ``_pencil``."""
    red = _Reduction(A, B, bc_idx, parities)
    cs, parity, V = red.eig(alpha, param, vectors=True)
    tail, smooth, order, res = _gates(A, B, cs, V, scale)
    rank = _ranking(cs[order])
    order, res = order[rank], res[rank]
    rejected = np.setdiff1d(np.arange(len(cs)), order)
    top_rejected = None
    if len(rejected):
        j = rejected[np.argmax(cs[rejected].imag)]
        top_rejected = (complex(cs[j]), float(tail[j]),
                        float(_residuals(A, B, cs[j], V[:, j:j + 1], scale)[0]))
    c_acc, modes = cs[order].astype(complex), V[:, order]
    del V  # the full eigenvector block is not needed by the polish
    # polish the leading (least damped) modes, the ones callers consume, in
    # place, each on the block of its parity from c as the eigensolve gave it;
    # the unpolished pairs are at roundoff already, so the polished pair stays
    # unless its full-pencil residual is worse by more than a rounding floor.
    # Both residuals of the comparison are taken one column at a time: the
    # batched product rounds differently, by up to 4x at the 1e-11 level
    for k in range(min(3, len(order))):
        c, phi, s = cs[order[k]], modes[:, k], parity[order[k]]
        # from the free entries, the leading ones of the interior; the
        # boundary entries are solved again, as for every eigenvector
        c2, _, phi2 = red.refine(c, phi[red.i][:len(red.blocks[s][0])], s)
        r = _residuals(A, B, c, phi[:, None], scale)[0]
        r2 = _residuals(A, B, c2, phi2[:, None], scale)[0]
        if r2 <= min(r + POLISH_FLOOR, RESIDUAL_GATE):
            c_acc[k], modes[:, k], res[k] = c2, phi2, r2
    del red  # and with it the folded blocks
    rank = _ranking(c_acc)
    modes = modes[:, rank]
    modes /= modes[np.argmax(np.abs(modes), axis=0), np.arange(len(rank))]  # unit max-norm columns
    return EigenSolution(
        eigenvalues=tuple(c_acc[rank].tolist()),
        modes=modes,
        residuals=tuple(res[rank].tolist()),
        n_tail_rejected=len(cs) - len(smooth),
        n_residual_rejected=len(smooth) - len(order),
        top_rejected=top_rejected,
    )


def _boundary_rows(grid, clamped):
    """Indices and (k, n+1) rows of the k boundary constraints: unclamped,
    value = 0 at both ends; clamped, value and derivative = 0 at the wall,
    and on the half line value = 0 and decay (d/dxi = 0) at infinity."""
    n = grid.N
    e0, en = np.zeros((2, grid.n_nodes))
    e0[0] = en[n] = 1.0
    if not clamped:
        idx, rows = [0, n], [e0, en]
    elif grid.domain == CHANNEL:
        idx, rows = [0, 1, n - 1, n], [e0, grid.D1[0], grid.D1[n], en]
    else:  # the wall is node n (y = 0), infinity node 0
        idx, rows = [n, n - 1, 0, 1], [en, grid.D1[n], e0, grid.D1_cheb[0]]
    if n <= len(idx):
        raise ConfigurationError(f"N must be >= {len(idx) + 1} for the {len(idx)} "
                                 f"{'clamped' if clamped else 'dirichlet'} boundary rows, got {n}")
    for i, row in zip(idx, rows):
        if not 0.0 < np.linalg.norm(row) < np.inf:  # _pencil divides the row by it
            raise ConfigurationError(f"the boundary row at node {i} has norm {np.linalg.norm(row):.3g}; "
                                     "the grid's operators are out of floating-point range")
    return np.array(idx), np.array(rows)


def _pencil(profile, alpha, grid, eps):
    """The pencil of (U - c)(D2 - a^2) phi - U'' phi = eps (D2 - a^2)^2 phi.

    eps = 0 is the Rayleigh pencil, with unclamped rows and no fourth-order
    term; any other eps takes the clamped rows.  Assembled in place, with
    no complex temporary; the boundary rows are written into A and zeroed
    in B.  Returns (A, B, boundary row indices, operator scale
    ||A|| / ||B||, parities): (1, -1) when the pencil is symmetric under the
    reflection y -> -y of the channel nodes j -> N - j, with U and U'' even
    to rounding and the boundary rows a set it maps to itself, else (0,).
    """
    check_record("profile", profile, ShearProfile)
    check_record("grid", grid, SpectralDiscretization)
    if grid.domain != profile.domain:
        raise ConfigurationError(
            f"grid domain {grid.domain!r} does not match profile domain {profile.domain!r}"
        )
    # a product overflows to inf where alpha**4 would raise OverflowError
    if not np.isfinite(alpha * alpha * alpha * alpha):
        raise ConfigurationError(f"alpha = {alpha!r} is too large: alpha^4 overflows")
    bc_idx, rows = _boundary_rows(grid, eps != 0)
    U, d2U = _profile_diagonals(profile, grid)
    diag = np.diag_indices(grid.n_nodes)
    # the Rayleigh pencil is real, and so are its eigensolves
    B = grid.D2.astype(complex if eps else float)
    B[diag] -= alpha**2
    A = B * U[:, None]
    A[diag] -= d2U
    # an eps that overflows the pencil is rejected on ||A||, which the rows
    # are scaled to: the polish and the residual gate measure errors relative
    # to ||A||, so small rows would be satisfied only loosely
    with np.errstate(over="ignore", invalid="ignore"):
        if eps:  # W = D4 - 2 a^2 D2 + a^4 I, a real temporary
            W = grid.D2 * (2.0 * alpha**2)
            np.subtract(grid.D4, W, out=W)
            W[diag] += alpha**4
            A.real -= eps.real * W
            A.imag -= eps.imag * W
            del W
        scale = np.linalg.norm(A, np.inf)
    if not np.isfinite(scale):
        raise ConfigurationError(f"the pencil at alpha={float(alpha)!r} is not finite: ||A|| = {scale}")
    A[bc_idx] = rows * np.array([[scale / np.linalg.norm(row)] for row in rows])
    B[bc_idx] = 0.0
    scale = np.linalg.norm(A, np.inf) / max(np.linalg.norm(B, np.inf), 1.0)
    symmetric = (grid.domain == CHANNEL and np.array_equal(np.sort(grid.N - bc_idx), np.sort(bc_idx))
                 and all(np.max(np.abs(f - f[::-1])) <= 1e-13 * max(1.0, np.max(np.abs(f)))
                         for f in (U, d2U)))
    return A, B, bc_idx, scale, (1, -1) if symmetric else (0,)


def rayleigh_spectrum(profile: ShearProfile, alpha: float, grid: SpectralDiscretization) -> EigenSolution:
    """Discrete spectrum of (U - c)(D2 - alpha^2) phi = U'' phi.

    Dirichlet/decay conditions at both ends.  Continuous-spectrum artifacts
    (rough modes with c inside range(U)) are rejected by the smoothness gate.
    """
    check_positive(alpha=alpha)
    return _solve_pencil(*_pencil(profile, alpha, grid, 0.0), alpha, "inviscid")


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
    Raises a critical-layer error when c comes within 1e-8 of U at a node,
    and ConfigurationError unless alpha is positive and c one finite number.
    """
    check_positive(alpha=alpha)
    check_scalar(c=c)
    check_finite(c=c)
    A, B, bc_idx, _, _ = _pencil(profile, alpha, grid, 0.0)
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


def _os_pencil(profile, alpha, Re, grid):
    """The Orr-Sommerfeld pencil of ``os_spectrum`` (see ``_pencil``), with
    its checks and its resolution warning."""
    check_positive(alpha=alpha, Re=Re)
    if alpha * Re == 0 or not np.isfinite(1.0 / (alpha * Re)):
        raise ConfigurationError(
            f"eps = 1/(i alpha Re) is not finite at alpha={float(alpha)!r}, Re={float(Re)!r}")
    pencil = _pencil(profile, alpha, grid, 1.0 / (1j * alpha * Re))
    n_guide = 4.0 * Re**0.25
    if grid.N < n_guide:
        warnings.warn(
            f"N={grid.N} below resolution guidance {n_guide:.0f} at Re={Re:.3g}",
            stacklevel=3,
        )
    return pencil


def os_spectrum(
    profile: ShearProfile,
    alpha: float,
    Re: float,
    grid: SpectralDiscretization,
) -> EigenSolution:
    """Viscous spectrum of (U - c)(D2 - a^2) phi - U'' phi = eps (D2 - a^2)^2 phi.

    eps = nu / (i alpha) with nu = 1/Re; clamped/decay boundary conditions.
    Warns when N is below the critical-layer resolution guidance 4 Re^{1/4},
    once the pencil has accepted the grid.  ConfigurationError when eps or
    the pencil is not finite, as at alpha Re near the float limits.
    """
    return _solve_pencil(*_os_pencil(profile, alpha, Re, grid), alpha, Re)


def max_growth_rate(profile: ShearProfile, alpha: float, Re: float, grid: SpectralDiscretization) -> float:
    """max Im(c) of the viscous spectrum; NumericalError, naming the highest
    rejected candidate, when no mode passes the gates."""
    sol = os_spectrum(profile, alpha, Re, grid)
    if not sol.eigenvalues:
        raise NumericalError(f"no mode passes the gates at alpha={float(alpha)!r}, Re={float(Re)!r}, N={grid.N}; "
                             f"the highest rejected candidate (c, tail, residual) is {sol.top_rejected}")
    # not the leader's: the ranking counts an Im c at rounding level as 0
    return max(c.imag for c in sol.eigenvalues)


def _unstable_leader(profile, alpha, Re, grid):
    """The leading accepted mode at one scan point when it is unstable, as
    (c, free entries, parity), else None.

    Only the eigenvalues are computed.  The raw ones with Im c > 0 are the
    candidates, taken in descending Im c: each gets its eigenvector by one
    inverse-iteration factorization on its parity block, from a flat start,
    and goes through the gates of ``_solve_pencil``.  The first that passes
    them with Im c still > 0 leads; with none, the point is stable.
    """
    A, B, bc_idx, scale, parities = _os_pencil(profile, alpha, Re, grid)
    red = _Reduction(A, B, bc_idx, parities)
    cs, parity, _ = red.eig(alpha, Re, vectors=False)
    for k in sorted(np.flatnonzero(cs.imag > 0), key=lambda k: -cs[k].imag):
        s = parity[k]
        c, w, phi = red.refine(cs[k], np.ones(len(red.blocks[s][0])), s)
        _, _, passed, _ = _gates(A, B, np.array([c]), phi[:, None], scale)
        if c.imag > 0 and len(passed):
            return c, w, s
    return None


class _TrackingLost(Exception):
    """A tracked pair could not be advanced, or does not bracket its edge."""


def _tracked_edge(profile, Re, grid, a_stable, a_unstable, leader, beyond, xtol):
    """Brent's method on Im c(alpha) of the leader found at ``a_unstable``,
    tracked to each new alpha: returns the edge and the pair's c there.

    The track holds that pair and, when the scan point ``beyond`` = (alpha,
    leader) past ``a_unstable`` has a leader of the same parity, that one
    too, so that the first step has a secant as well.
    A step starts from the tracked alpha nearest the new one, with c
    predicted by the secant through it and the next nearest, and refines
    the pair by ``_refine_eigenpair`` on its parity block, a second time
    from the refined c when the first leaves a full-pencil residual above
    TRACK_GATE.  When the second does too, the step is halved, at most
    TRACK_HALVINGS times in a row; past that, or when the pair is not
    stable at ``a_stable``, _TrackingLost.
    """
    c_u, w_u, s = leader
    track = {a_unstable: (c_u, w_u)}
    a_beyond, lead_beyond = beyond
    if lead_beyond is not None and lead_beyond[2] == s:
        track[a_beyond] = lead_beyond[:2]

    def advance(a, halvings=0):
        near = sorted(track, key=lambda t: abs(t - a))
        a0, (c0, w0) = near[0], track[near[0]]
        c = c0
        if len(near) > 1:
            a1, c1 = near[1], track[near[1]][0]
            c = c0 + (c0 - c1) * (a - a0) / (a0 - a1)
        # no checks and no resolution warning: the scan at this Re has made them
        A, B, bc_idx, scale, _ = _pencil(profile, a, grid, 1.0 / (1j * a * Re))
        red, w = _Reduction(A, B, bc_idx, (s,)), w0
        for _ in range(2):  # the second refinement is shifted to the first one's c
            c, w, phi = red.refine(c, w, s)
            res = _residuals(A, B, c, phi[:, None], scale)[0]
            if res <= TRACK_GATE:
                break
        if not res <= TRACK_GATE:
            if halvings == TRACK_HALVINGS:
                raise _TrackingLost(f"residual above {TRACK_GATE} at alpha={a}")
            advance(0.5 * (a0 + a), halvings + 1)
            return advance(a, halvings + 1)
        track[a] = (c, w)
        return c

    def c_at(a):
        return track[a][0] if a in track else advance(a)

    if not c_at(a_stable).imag < 0:
        raise _TrackingLost(f"the tracked pair is not stable at alpha={a_stable}")
    edge = brentq(lambda a: c_at(a).imag, *sorted((a_stable, a_unstable)), xtol=xtol)
    return edge, c_at(edge)


def _edge(profile, Re, grid, a_stable, a_unstable, leader, beyond, xtol):
    """The crossing between a stable and an unstable scan alpha: tracked and
    confirmed by one dense solve whose accepted leader must be the tracked
    pair, else Brent's method on the dense solves' max Im c, where a point
    with no accepted mode is stable, as in the scan."""
    try:
        edge, c = _tracked_edge(profile, Re, grid, a_stable, a_unstable, leader, beyond, xtol)
        sol = os_spectrum(profile, edge, Re, grid)
        if sol.eigenvalues and abs(sol.eigenvalues[0] - c) <= CONFIRM_TOL * max(1.0, abs(c)):
            return edge
    except _TrackingLost:
        pass

    def growth(a):
        # the unstable end's leader is the scan's
        if a == a_unstable:
            return leader[0].imag
        return max((c.imag for c in os_spectrum(profile, a, Re, grid).eigenvalues), default=-1.0)

    return brentq(growth, *sorted((a_stable, a_unstable)), xtol=xtol)


def neutral_curve(
    profile: ShearProfile,
    Re_list: Sequence[float],
    alpha_window: tuple[float, float],
    N: int,
    map_scale: float = 2.0,
    n_scan: int = 16,
    alpha_tol: float = 1e-4,
) -> tuple[NeutralBranch, NeutralBranch]:
    """Lower/upper marginal branches alpha(Re) where max Im(c) crosses zero.

    The profile must lie on a domain of ``build_grid``, the channel or the
    half line (else ConfigurationError naming profile).
    Each Re in the ascending list ``Re_list`` is scanned over ``alpha_window``,
    a finite pair, at ``n_scan`` points, an integer of at least 3 (a band
    needs a point inside it and one each side).
    A scan point computes eigenvalues only; the raw ones with Im c > 0 get
    eigenvectors by inverse iteration and go through the gates of
    ``os_spectrum`` in descending Im c, and the first accepted one leads.
    A point with no accepted unstable mode, or no accepted mode at all, is
    stable.  The resolution warning of ``os_spectrum`` is issued as there.

    Each edge of an unstable band is found by Brent's method, to within
    ``alpha_tol / 2`` of the crossing, on Im c(alpha) of the leader at the
    bracket's unstable end.  The pair is advanced to each new alpha by
    inverse iteration on its parity block from a secant prediction of c
    (at the first step, through the next scan leader inside the band when
    it has the same parity), the step halved while its residual stays
    above TRACK_GATE.  One dense ``os_spectrum`` at the converged edge must
    show the tracked pair as its accepted leader.  Where the tracking or
    this confirmation fails, that edge is found by Brent's method on the
    max Im c of dense solves instead, a point where no mode passes the
    gates read as stable.

    Re values with no unstable alpha are recorded on the branches as below
    criticality.  WindowError when a band touches either end of the
    window; its message traces the scan, each alpha with its leader's Im c
    or "stable".
    """
    check_record("profile", profile, ShearProfile)
    if profile.domain not in GRID_DOMAINS:
        raise ConfigurationError(f"profile must be on one of {GRID_DOMAINS}, "
                                 f"got the {profile.kind} profile on the {profile.domain}")
    Re_list = as_array("Re_list", Re_list, 1).tolist()
    if sorted(Re_list) != Re_list:
        raise ConfigurationError("Re_list must be sorted ascending")
    a_lo, a_hi = as_array("alpha_window", alpha_window, 1, size=2).tolist()
    if not (0 < a_lo < a_hi):
        raise ConfigurationError("alpha_window must be positive and increasing")
    check_positive(alpha_tol=alpha_tol)
    if alpha_tol / 2 == 0:
        raise ConfigurationError(f"alpha_tol = {alpha_tol!r} is too small: alpha_tol / 2 underflows to 0")
    n_scan = as_integer("n_scan", n_scan, 3)

    lower = NeutralBranch([], BRANCH_LOWER)
    upper = NeutralBranch([], BRANCH_UPPER)

    grid = build_grid(N, profile.domain, map_scale=map_scale)
    alphas = np.linspace(a_lo, a_hi, n_scan).tolist()
    for Re in Re_list:
        leaders = [_unstable_leader(profile, a, Re, grid) for a in alphas]
        kpos = [k for k, lead in enumerate(leaders) if lead is not None]
        if not kpos:
            lower.subcritical_Re.append(Re)
            upper.subcritical_Re.append(Re)
            continue
        if leaders[0] or leaders[-1]:
            ends = " and ".join(f"{side} end alpha={a:.6g}" for side, a, lead in
                                (("lower", a_lo, leaders[0]), ("upper", a_hi, leaders[-1])) if lead)
            trace = ", ".join(f"{a:.6g}: " + (f"Im c = {lead[0].imag:.3e}" if lead else "stable")
                              for a, lead in zip(alphas, leaders))
            raise WindowError(f"unstable band touches the alpha window's {ends} at Re={Re:.6g}; "
                              f"scan trace (alpha: leader's Im c): {trace}")
        # each edge between the band's end k and the stable point k + step
        for branch, k, step in ((lower, kpos[0], -1), (upper, kpos[-1], 1)):
            branch.points.append((Re, _edge(profile, Re, grid, alphas[k + step], alphas[k], leaders[k],
                                            (alphas[k - step], leaders[k - step]), alpha_tol / 2)))
    return lower, upper


def fit_exponents(branch: NeutralBranch, Re_window: tuple[float, float]) -> tuple[float, float, float]:
    """Least-squares slope/intercept of log alpha vs log Re inside a window.

    Returns (slope, intercept, r2).  ConfigurationError naming branch unless it
    is a NeutralBranch whose points are finite (Re, alpha) pairs, positive
    where fitted and of at least 2 distinct Re there, and naming Re_window
    unless it is a finite pair holding at least 4 of them.
    """
    r_lo, r_hi = as_array("Re_window", Re_window, 1, size=2).tolist()
    check_record("branch", branch, NeutralBranch)
    pts = as_array("branch", branch.points, 2)
    if pts.shape[1] not in (0, 2):  # no points reads as the shape (1, 0)
        raise ConfigurationError(f"branch points must be (Re, alpha) pairs, got shape {pts.shape}")
    pts = pts.reshape(-1, 2)
    pts = pts[(r_lo <= pts[:, 0]) & (pts[:, 0] <= r_hi)]
    if len(pts) < 4:
        raise ConfigurationError(f"Re_window [{r_lo:g}, {r_hi:g}] holds {len(pts)} points of branch; "
                                 "a fit needs at least 4")
    if not np.all(pts > 0):
        raise ConfigurationError(f"branch points need Re, alpha > 0, got {pts[np.min(pts, 1) <= 0][0].tolist()}")
    if np.unique(pts[:, 0]).size < 2:
        raise ConfigurationError(f"branch points in Re_window [{r_lo:g}, {r_hi:g}] all have Re = {pts[0, 0]:g}; "
                                 "a slope needs at least 2 distinct Re")
    x, y = np.log(pts).T
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - float(np.sum(resid**2) / ss_tot) if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2
