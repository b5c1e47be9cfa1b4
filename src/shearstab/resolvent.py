"""Contour-integral semigroups, heat-kernel Green functions, Evans functions.

The semigroup of a matrix is evaluated as (1/2 pi i) * integral over a
contour right of the spectrum of exp(lambda t) (lambda - A)^{-1} x0.  The
contour ``ContourSpec(P, B)`` has three segments: two 45-degree rays joined
by the vertical segment Re lambda = P, |Im lambda| <= B.  The Duhamel
integral of a forcing is a Gauss-Legendre sum of such semigroup values.  The
heat temporal Green function uses the parabola-shaped contour
lambda = nu (a + i k)^2 with a = |x - z| / (2 nu t), on which the integrand
collapses to a Gaussian-damped real integral.

Every quadrature of this layer doubles its Gauss-Legendre nodes in the
one refinement loop, ``spectral.refine``, until two passes agree (``_agree``).
A semigroup pass solves the resolvent systems of all its nodes in stacked
solves of at most MAX_STACK matrix entries each.

The Evans function and the parabolic Green function are built from the
decaying solutions of nu psi'' = (lambda - A(x)) psi, integrated inward from
+-X_FAR.  ``_decaying_solutions`` integrates them for an array of spectral
parameters at once, one ``solve_ivp`` per direction, so that an
``evans_locate`` pass evaluates its whole rectangle boundary in two
integrations, and each step of its secant, which refines all the zeros
inside from their Hankel-eigenvalue seeds together, in two more; a single
determinant is the one-parameter case.  ``evans_locate`` doubles its
boundary in a loop of its own, since its criterion is a resolved phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    ContourCrossesSpectrumError,
    EssentialSpectrumError,
    InputError,
    NumericalError,
    QuadratureError,
    RegionError,
    check_positive,
)
from .profiles import solve_ivp
from .spectral import gauss_nodes, refine

N_NODES = 32         # initial Gauss-Legendre nodes per semigroup segment
TOL = 1e-10          # agreement of two successive passes, relative to 1 + max|value|
MAX_PASSES = 10
MAX_STACK = 2**18    # matrix entries of (lambda - A) solved in one stacked call
X_FAR = 15.0         # ends +-X_FAR of the line for the decaying solutions


@dataclass(frozen=True)
class ContourSpec:
    """Three-segment contour right of the spectrum."""

    P: float              # real offset of the vertical segment
    B: float              # corner height


def default_contour_for(A: np.ndarray) -> ContourSpec:
    """Contour just right of the spectrum of A.

    P is kept tight: the integrand magnitude is e^{P t}, so an oversized P
    amplifies quadrature cancellation error by that factor.
    """
    eig = np.linalg.eigvals(np.atleast_2d(np.asarray(A, dtype=complex)))
    P = float(np.max(eig.real)) + 1.0
    B = float(np.max(np.abs(eig.imag))) + abs(P) + 1.0
    return ContourSpec(P, B)


def _agree(floor):
    """The criterion of ``refine`` that two passes agree as a whole:
    max|val - prev| < TOL (1 + max|val|) + floor."""
    return lambda val, prev: np.max(np.abs(val - prev)) < TOL * (1 + np.max(np.abs(val))) + floor


def _resolvent_sum(A, x0, t, lam, dlam, weights):
    """(1/2 pi i) sum_j w_j e^{lam_j t} dlam_j (lam_j - A)^{-1} x0.

    The systems are solved stacked, at most MAX_STACK matrix entries at a
    time, so memory stays bounded for large A and long contours.
    """
    dim = A.shape[0]
    coef = weights * np.exp(lam * t) * dlam
    # x0 as a (1, dim, 1) matrix: a 1-D right-hand side is a vector against
    # a stack only under NumPy >= 2
    rhs = x0[None, :, None]
    step = max(1, MAX_STACK // dim**2)
    total = np.zeros(dim, dtype=complex)
    for i in range(0, lam.size, step):
        M = lam[i:i + step, None, None] * np.eye(dim) - A
        try:
            R = np.linalg.solve(M, rhs)[..., 0]
        except np.linalg.LinAlgError as exc:
            bad = lam[i + np.argmin(np.abs(np.linalg.det(M)))]
            raise ContourCrossesSpectrumError(f"(lambda - A) singular at lambda={bad}") from exc
        total += coef[i:i + step] @ R
    return total / (2j * np.pi)


def _three_segment_nodes(P, B, ray_len, n):
    """Nodes, dlambda/ds and weights of one pass, n per segment."""
    # Gamma_1: (1+i) R_- + P - iB, from the far end toward the corner
    s1, w1 = gauss_nodes(-ray_len, 0.0, n)
    # Gamma_2: P + i[-B, B]
    s2, w2 = gauss_nodes(-B, B, n)
    # Gamma_3: (-1+i) R_+ + P + iB
    s3, w3 = gauss_nodes(0.0, ray_len, n)
    lam = np.concatenate([(1 + 1j) * s1 + P - 1j * B, P + 1j * s2, (-1 + 1j) * s3 + P + 1j * B])
    dlam = np.repeat([1 + 1j, 1j, -1 + 1j], n)
    return lam, dlam, np.concatenate([w1, w2, w3])


def _square_matrix(A) -> np.ndarray:
    """A as a complex 2-D array; ConfigurationError unless it is non-empty and square."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ConfigurationError(f"A must be a non-empty square matrix, got shape {A.shape}")
    return A


def semigroup_apply(
    A: np.ndarray,
    x0: np.ndarray,
    t: float,
    contour: ContourSpec | None = None,
) -> np.ndarray:
    """Evaluate exp(A t) x0 by resolvent contour quadrature.

    ``contour`` defaults to ``default_contour_for(A)``.  Nodes are doubled
    from 32 per segment until two passes agree to 1e-10 relative, plus the
    cancellation floor below.  At t = 0 the value is x0 itself, returned
    exactly.  A contour through an eigenvalue raises
    ContourCrossesSpectrumError naming the node.  A must be a non-empty
    square matrix (else ConfigurationError), x0 a vector of its order (else
    InputError) and t finite and nonnegative (else ConfigurationError).
    """
    A = _square_matrix(A)
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (A.shape[0],):
        raise InputError(f"x0 must have length {A.shape[0]}, got shape {x0.shape}")
    if not 0 <= t < math.inf:
        raise ConfigurationError(f"t must be nonnegative and finite, got {t!r}")
    if t == 0:
        return x0.copy()
    if contour is None:
        contour = default_contour_for(A)

    # e^{Re lambda t} along the rays decays like e^{(P - s) t}
    ray_len = 40.0 / t + contour.B
    # cancellation floor: the integrand reaches e^{P t}, and summing it to a
    # value of order 1 cannot beat that magnitude times machine epsilon; where
    # e^{P t} overflows, the first pass is not finite and reports it
    with np.errstate(over="ignore", invalid="ignore"):
        floor = 100.0 * np.finfo(float).eps * np.exp(max(contour.P, 0.0) * t) * (1 + np.linalg.norm(x0))

    def segment_pass(n):
        return _resolvent_sum(A, x0, t, *_three_segment_nodes(contour.P, contour.B, ray_len, n))

    return refine(segment_pass, N_NODES, _agree(floor), "three-segment quadrature", MAX_PASSES)


def duhamel_term(
    A: np.ndarray,
    forcing: Callable[[float], np.ndarray],
    t: float,
) -> np.ndarray:
    """Evaluate int_0^t e^{A(t-tau)} forcing(tau) dtau.

    Gauss-Legendre nodes on [0, t] are doubled from 8 to at most 512 until
    two passes agree to 1e-10 relative; each propagator is a
    ``semigroup_apply`` on one contour computed for A.
    """
    A = _square_matrix(A)
    if t == 0.0:
        return np.zeros(A.shape[0], dtype=complex)
    contour = default_contour_for(A)

    def one_pass(n):
        tau, wt = gauss_nodes(0.0, t, n)
        return sum(
            wi * semigroup_apply(A, forcing(ti), t - ti, contour=contour)
            for ti, wi in zip(tau, wt)
        )

    return refine(one_pass, 8, _agree(0.0), "Duhamel quadrature", 7)


def heat_green(t: float, x: float, z: float, nu: float) -> float:
    """Temporal Green function of the heat equation by contour quadrature.

    The contour lambda = nu (a + i k)^2, a = |x-z|/(2 nu t), turns the
    resolvent kernel integral into (1/2 pi) * int exp(nu t (a+ik)^2 - d (a+ik)) dk
    with d = |x - z|, truncated to |k| <= sqrt(37 / (nu t)).  Nodes are
    doubled from 64 until two passes agree to 1e-10 relative.  The truncated
    tail and the imaginary residue, which vanishes by the symmetry k -> -k,
    are checked explicitly (else QuadratureError).  The value matches the
    classical Gaussian kernel.  t and nu must be positive and finite and
    x - z finite (else ConfigurationError).
    """
    check_positive(t=t, nu=nu)
    d = abs(x - z)
    if not math.isfinite(d):
        raise ConfigurationError(f"x - z must be finite, got {x - z!r}")
    a = d / (2.0 * nu * t)
    K = np.sqrt(37.0 / (nu * t))  # e^{-k^2 nu t} < 1e-16 beyond

    def one_pass(n):
        k, w = gauss_nodes(-K, K, n)
        s = a + 1j * k
        integrand = np.exp(nu * t * s**2 - d * s)
        return np.sum(w * integrand) / (2.0 * np.pi)

    val = refine(one_pass, 64, _agree(0.0), "heat-parabola quadrature", MAX_PASSES)
    # explicit tail bound of the integrand
    tail = np.exp(nu * t * (a**2 - K**2) - d * a) / (2.0 * np.pi)
    if tail > 1e-12 * (1 + abs(val)):
        raise QuadratureError(f"tail estimate {tail:.3e} above tolerance")
    if abs(val.imag) > TOL * (1 + abs(val)):
        raise QuadratureError(f"imaginary residue {val.imag:.3e} above tolerance")
    return float(val.real)


# ---------------------------------------------------------------------------
# Parabolic Green function and Evans function for  i tau - nu Lap - A(x)
# ---------------------------------------------------------------------------


def _decaying_solutions(A, lam, nu, x_far, x_match, dense=False):
    """psi+ (decays at +inf) and psi- (decays at -inf) for every spectral
    parameter in the 1-D array lam, by inward integration to x_match.

    Each starts from the constant-coefficient asymptotics exp(-/+ x mu),
    normalized to 1 at its endpoint, and solves nu psi'' = (lam - A) psi.
    All K parameters share one integration per direction: the state is
    (psi, psi') of shape (2, K), flattened, and A(x) is evaluated once per
    right-hand side for all of them.  sol.y[:, -1].reshape(2, K) holds
    (psi, psi') at x_match; with ``dense`` each solution can also be read
    between its starting endpoint and x_match.  EssentialSpectrumError,
    naming the first offending lam, where Re mu vanishes, mu = sqrt(lam / nu).
    """
    mu = np.sqrt(lam / nu + 0j)
    bad = np.flatnonzero(mu.real < 1e-8)
    if bad.size:
        raise EssentialSpectrumError(
            f"Re sqrt(lambda/nu) = {mu.real[bad[0]]:.3e} at lambda = {lam[bad[0]]}: "
            "spectral parameter in the essential spectrum"
        )
    K = lam.size
    lam_nu = lam / nu

    def rhs(x, y):
        out = np.empty_like(y)
        out[:K] = y[K:]
        np.multiply(lam_nu - A(x) / nu, y[:K], out=out[K:])
        return out

    ones = np.ones(K, dtype=complex)
    sol_p = solve_ivp(rhs, (x_far, x_match), np.concatenate([ones, -mu]), method="DOP853",
                      rtol=1e-11, atol=1e-13, dense_output=dense)
    sol_m = solve_ivp(rhs, (-x_far, x_match), np.concatenate([ones, mu]), method="DOP853",
                      rtol=1e-11, atol=1e-13, dense_output=dense)
    if not (sol_p.success and sol_m.success):
        raise NumericalError("decaying-solution integration failed")
    return sol_p, sol_m


def _matching_matrices(A, lam, nu, x_far):
    """M = [[psi+, psi-], [psi+', psi-']] at x = 0 for each lam, shape (K, 2, 2)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    sol_p, sol_m = _decaying_solutions(A, lam, nu, x_far, 0.0)
    cols = [sol.y[:, -1].reshape(2, lam.size) for sol in (sol_p, sol_m)]
    return np.stack(cols, axis=-1).transpose(1, 0, 2)


def _det2(M):
    """Determinants of a stack of 2x2 matrices, entry by entry."""
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def parabolic_green(
    A,
    tau: complex,
    x: float,
    y: float,
    nu: float,
) -> complex:
    """Green function of i tau - nu Lap - A(x) on the line, sign as in the
    constant-coefficient kernel -(1 / 2 sqrt(lambda nu)) exp(-|x-y| sqrt(lambda/nu)),
    lambda = i tau.

    Built from decaying solutions psi+- matched at the source point: the
    value is continuous there and the derivative jumps by 1/nu.  Each is
    integrated from its end of the line to the source point y only, since
    psi+ is read at points >= y and psi- at points <= y.
    """
    if max(np.abs([A(X_FAR), A(-X_FAR)])) > 1e-10:
        raise ConfigurationError(f"potential does not decay below 1e-10 at x = +-{X_FAR}")
    sol_p, sol_m = _decaying_solutions(A, np.array([1j * tau]), nu, X_FAR, y, dense=True)

    pp, dp = sol_p.y[:, -1]
    pm, dm = sol_m.y[:, -1]
    # G = a psi-  (x < y),  b psi+  (x > y); continuity and derivative jump 1/nu
    M = np.array([[pm, -pp], [-dm, dp]])
    try:
        a, b = np.linalg.solve(M, np.array([0.0, 1.0 / nu]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("matching system singular") from exc
    if x < y:
        return complex(a * sol_m.sol(x)[0])
    return complex(b * sol_p.sol(x)[0])


def evans_det(A, lam: complex, nu: float = 1.0) -> complex:
    """det of the jacobian of decaying solutions at the matching point x = 0.

    Zeros in lambda are eigenvalues of nu * Lap + A.  The normalization at
    +-X_FAR is analytic in lambda, so the determinant is analytic right of
    the essential spectrum.  It is the Wronskian of psi+ and psi-, so any
    matching point gives the same value.
    """
    return complex(_det2(_matching_matrices(A, lam, nu, X_FAR))[0])


def _rect_boundary(region, n_per_side):
    """n_per_side points per side, counterclockwise from the corner re_lo + i im_lo."""
    re_lo, re_hi, im_lo, im_hi = region
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo), complex(re_hi, im_hi), complex(re_lo, im_hi)]
    t = np.linspace(0, 1, n_per_side, endpoint=False)
    return np.concatenate([a + (b - a) * t for a, b in zip(corners, corners[1:] + corners[:1])])


def _hankel_seeds(s, region):
    """The w zeros with power sums s_p = sum z_j^p, p < 2w: the eigenvalues
    of the Hankel pencil ([s_{i+j+1}], [s_{i+j}]).  A multiple zero makes
    H0 = [s_{i+j}] singular, so RegionError, naming the rectangle, when
    sigma_min(H0) < 1e-8 sigma_max(H0)."""
    w = s.size // 2
    hankel = np.add.outer(np.arange(w), np.arange(w))
    H0 = s[hankel]
    sv = np.linalg.svd(H0, compute_uv=False)
    if sv[-1] < 1e-8 * sv[0]:
        raise RegionError(
            f"region {region} holds a multiple zero or a cluster of {w} zeros "
            f"(Hankel sigma_min/sigma_max = {sv[-1] / sv[0]:.1e}); split the rectangle"
        )
    return np.linalg.eigvals(np.linalg.solve(H0, s[hankel + 1]))


def evans_locate(
    A,
    region: tuple[float, float, float, float],
    nu: float = 1.0,
    x_far: float = X_FAR,
    n_per_side: int = 24,
) -> list[complex]:
    """Eigenvalues of nu * Lap + A inside a rectangle (re_lo, re_hi, im_lo, im_hi).

    Winding number w of the determinant along the boundary (argument
    principle); the log-derivative moments s_p = sum z_j^p, p < 2w, on the
    same boundary (Delves-Lyness); starting points from the eigenvalues of
    the Hankel pencil ([s_{i+j+1}], [s_{i+j}]); one complex secant that
    refines all w zeros together, each step one stacked integration per
    direction.  The boundary starts at ``n_per_side`` points per side and
    doubles until no step of the determinant's phase exceeds 0.8 pi.  The
    seeds assume simple zeros, as for a real potential: a
    multiple zero makes the Hankel matrix [s_{i+j}] singular, and the
    rectangle then raises RegionError.  A rectangle with re_lo >= re_hi or
    im_lo >= im_hi raises ConfigurationError; a boundary point in the
    essential spectrum raises EssentialSpectrumError and one on a zero
    RegionError, each naming the point.
    """
    re_lo, re_hi, im_lo, im_hi = region
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ConfigurationError(f"region {region} must have re_lo < re_hi and im_lo < im_hi")
    while True:
        pts = _rect_boundary(region, n_per_side)
        M = _matching_matrices(A, pts, nu, x_far)
        vals = _det2(M)
        # |det| over the column norms is the sine of the angle between psi+ and
        # psi-: it vanishes on a zero whatever the scale e^{2 Re(mu) x_far} of |det|
        sines = np.abs(vals) / np.prod(np.linalg.norm(M, axis=1), axis=1)
        if np.min(sines) < 1e-10:
            raise RegionError(
                f"boundary point lambda={pts[np.argmin(sines)]} too close to a zero of the "
                "determinant; perturb the rectangle"
            )
        closed = np.append(vals, vals[0])
        dphi = np.angle(closed[1:] / closed[:-1])
        if np.max(np.abs(dphi)) <= 0.8 * np.pi:
            break
        if n_per_side > 400:
            raise RegionError("winding-number phase tracking failed; perturb the rectangle")
        n_per_side *= 2
    winding = int(round(np.sum(dphi) / (2 * np.pi)))
    if winding == 0:
        return []

    # moments s_p, trapezoid of lam^p * d log det over the boundary; s_0 is w
    closed_pts = np.append(pts, pts[0])
    ratio = np.diff(np.log(np.abs(closed))) + 1j * dphi
    mid = 0.5 * (closed_pts[1:] + closed_pts[:-1])
    s = mid ** np.arange(2 * winding)[:, None] @ ratio / (2j * np.pi)
    s[0] = winding
    z0 = _hankel_seeds(s, region)

    def det(z):
        return _det2(_matching_matrices(A, z, nu, x_far))

    z1 = z0 * (1 + 1e-4) + 1e-6
    f0, f1 = np.split(det(np.concatenate([z0, z1])), 2)
    active = np.ones(winding, dtype=bool)
    for _ in range(60):
        active &= f1 != f0
        if not active.any():
            break
        i = np.flatnonzero(active)
        z0[i], f0[i], z1[i] = z1[i], f1[i], z1[i] - f1[i] * (z1[i] - z0[i]) / (f1[i] - f0[i])
        f1[i] = det(z1[i])
        active[i] = np.abs(z1[i] - z0[i]) >= 1e-10
    return [complex(z) for z in z1]
