"""Contour-integral semigroups, heat-kernel Green functions, Evans functions.

The semigroup of a matrix is evaluated at unit time: with mu = lambda t,
exp(A t) x0 is (1/2 pi i) * integral over a contour right of the spectrum
of t A of exp(mu) (mu - t A)^{-1} x0, so every t meets the same integrand
shape and the contour grows with 1/t, as Bromwich contours do (Talbot,
IMA J. Appl. Math. 23, 1979).  The contour (P, B) = ``default_contour_for(t A)``
has three segments: two 45-degree rays of length 40 + B joined by the
vertical segment Re mu = P, |Im mu| <= B.  The Duhamel integral of a
forcing is a Gauss-Legendre sum of such semigroup values.  The
heat temporal Green function uses the parabola-shaped contour
lambda = nu (a + i k)^2 with a = |x - z| / (2 nu t), on which the integrand
collapses to a Gaussian-damped real integral.

Every quadrature of this layer doubles its Gauss-Legendre nodes in the
one refinement loop, ``spectral.refine``, until two passes agree (``_agree``).
A semigroup pass solves the resolvent systems of all its nodes in stacked
solves of at most MAX_STACK matrix entries each.

The Evans function and the parabolic Green function are built from the
decaying solutions of nu psi'' = (lambda - A(x)) psi from +-X_FAR, through
their growth-free amplitudes phi+- = psi+- e^{+-mu (x -+ X_FAR)}: the known
exponential is applied in closed form (Humpherys & Zumbrun, Physica D 220,
2006); the Evans function, which the Green function divides by, is their
Wronskian over e^{2 mu X_FAR}.  ``_decaying_solutions`` integrates both
amplitudes of every column, a spectral parameter with its matching point,
in one ``solve_ivp`` and reads them at the matching points only: a
determinant is one column, a Green function two, and an ``evans_locate``
boundary pass or secant step one per point, and A is evaluated on arrays
of their points.  A boundary pass integrates 2n points per side and is
accepted when the windings at n and 2n agree with the phase resolved at
2n; else n doubles.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    ContourCrossesSpectrumError,
    EssentialSpectrumError,
    NonconvergenceError,
    NumericalError,
    QuadratureError,
    RegionError,
    as_array,
    as_integer,
    check_finite,
    check_points,
    check_positive,
    check_real,
    check_scalar,
)
from .profiles import solve_ivp
from .spectral import gauss_nodes, refine

N_NODES = 32         # initial Gauss-Legendre nodes per semigroup segment
TOL = 1e-10          # agreement of two successive passes, relative to 1 + max|value|
MAX_PASSES = 10
MAX_STACK = 2**18    # matrix entries of (lambda - A) solved in one stacked call
X_FAR = 15.0         # ends +-X_FAR of the line for the decaying solutions
DECAY_GATE = 1e-6    # largest |A(+-x_far)| of an Evans function; the eigenvalue errs by about 0.13 |A|^2


def default_contour_for(A: np.ndarray) -> tuple[float, float]:
    """Offset P and corner height B of a contour just right of the spectrum of A.

    P is kept tight: the integrand magnitude is e^P, so an oversized P
    amplifies quadrature cancellation error by that factor.
    """
    eig = np.linalg.eigvals(np.atleast_2d(np.asarray(A, dtype=complex)))
    P = float(np.max(eig.real)) + 1.0
    B = float(np.max(np.abs(eig.imag))) + abs(P) + 1.0
    return P, B


def _agree(floor):
    """The criterion of ``refine`` that two passes agree as a whole:
    max|val - prev| < TOL (1 + max|val|) + floor."""
    return lambda val, prev: np.max(np.abs(val - prev)) < TOL * (1 + np.max(np.abs(val))) + floor


def _resolvent_sum(A, x0, lam, dlam, weights):
    """(1/2 pi i) sum_j w_j e^{lam_j} dlam_j (lam_j - A)^{-1} x0.

    The systems are solved stacked, at most MAX_STACK matrix entries at a
    time, so memory stays bounded for large A and long contours.  A
    singular node raises ContourCrossesSpectrumError(node).
    """
    dim = A.shape[0]
    coef = weights * np.exp(lam) * dlam
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
            raise ContourCrossesSpectrumError(lam[i + np.argmin(np.abs(np.linalg.det(M)))]) from exc
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
    """A as a finite, non-empty, square complex matrix, else ConfigurationError."""
    A = as_array("A", A, 2, real=False)
    if A.shape[0] != A.shape[1] or A.size == 0:
        raise ConfigurationError(f"A must be a non-empty square matrix, got shape {A.shape}")
    return A


def _vector_for(A, name, value) -> np.ndarray:
    """``value`` as a finite complex vector of the order of A, else ConfigurationError."""
    v = as_array(name, value, 1, real=False)
    if v.size != A.shape[0]:
        raise ConfigurationError(f"{name} must have length {A.shape[0]}, the order of A, got shape {v.shape}")
    return v


def semigroup_apply(A: np.ndarray, x0: np.ndarray, t: float) -> np.ndarray:
    """Evaluate exp(A t) x0 by resolvent contour quadrature at unit time.

    The integral of exp(mu) (mu - t A)^{-1} x0 on ``default_contour_for(t A)``
    doubles its nodes from 32 per segment until two passes agree to 1e-10
    relative, plus the cancellation floor 100 eps e^{max(P, 0)} (1 + |x0|).
    At t = 0 the value is x0 itself, returned exactly.  A contour through
    an eigenvalue raises ContourCrossesSpectrumError naming lambda = mu / t;
    a t A or a pass that is not finite, QuadratureError.  A must be a
    non-empty square matrix, x0 a vector of its order, A and x0 finite and
    t one finite, nonnegative number (else ConfigurationError).
    """
    A = _square_matrix(A)
    x0 = _vector_for(A, "x0", x0)
    check_real(t=t)
    if not 0 <= t < math.inf:
        raise ConfigurationError(f"t must be nonnegative and finite, got {t!r}")
    if t == 0:
        return x0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        tA = t * A
    if not np.all(np.isfinite(tA)):
        raise QuadratureError(f"t A is not finite at t={t!r}")
    P, B = default_contour_for(tA)
    # cancellation floor: the integrand reaches e^P, and summing it to a value
    # of order 1 cannot beat that magnitude times machine epsilon; where e^P
    # overflows, the first pass is not finite and reports it
    with np.errstate(over="ignore", invalid="ignore"):
        floor = 100.0 * np.finfo(float).eps * np.exp(max(P, 0.0)) * (1 + np.linalg.norm(x0))

    def segment_pass(n):
        # e^{Re mu} along the rays decays like e^{P - s}
        try:
            return _resolvent_sum(tA, x0, *_three_segment_nodes(P, B, 40.0 + B, n))
        except ContourCrossesSpectrumError as exc:
            raise ContourCrossesSpectrumError(f"(lambda - A) singular at lambda={exc.args[0] / t}") from exc

    return refine(segment_pass, N_NODES, _agree(floor), "three-segment quadrature", MAX_PASSES)


def duhamel_term(
    A: np.ndarray,
    forcing: Callable[[float], np.ndarray],
    t: float,
) -> np.ndarray:
    """Evaluate int_0^t e^{A(t-tau)} forcing(tau) dtau.

    Gauss-Legendre nodes on [0, t] are doubled from 8 to at most 512 until
    two passes agree to 1e-10 relative; each propagator is a
    ``semigroup_apply``, on the contour of its own (t - tau) A.  t must be one
    finite, nonnegative number and forcing(tau) a vector of the order of A (else ConfigurationError).
    """
    A = _square_matrix(A)
    check_real(t=t)
    if not 0 <= t < math.inf:
        raise ConfigurationError(f"t must be nonnegative and finite, got {t!r}")
    if t == 0.0:
        return np.zeros(A.shape[0], dtype=complex)

    def one_pass(n):
        tau, wt = gauss_nodes(0.0, t, n)
        values = (_vector_for(A, f"forcing({ti:.6g})", forcing(ti)) for ti in tau)
        return sum(wi * semigroup_apply(A, f, t - ti) for ti, wi, f in zip(tau, wt, values))

    return refine(one_pass, 8, _agree(0.0), "Duhamel quadrature", 7)


def heat_green(t: float, x: float, z: float, nu: float) -> float:
    """Temporal Green function of the heat equation by contour quadrature.

    The contour lambda = nu (a + i k)^2, a = |x-z|/(2 nu t), turns the
    resolvent kernel integral into (1/2 pi) * int exp(nu t (a+ik)^2 - d (a+ik)) dk
    with d = |x - z|, truncated to |k| <= sqrt(37 / (nu t)).  Nodes are
    doubled from 64 until two passes agree to 1e-10 relative.  The truncated
    tail and the imaginary residue, which vanishes by the symmetry k -> -k,
    are checked explicitly (else QuadratureError).  The value matches the
    classical Gaussian kernel.  t, nu, x and z must be one real number each,
    t and nu positive and finite and x - z finite (else ConfigurationError).
    """
    check_positive(t=t, nu=nu)
    check_real(x=x, z=z)
    check_finite(**{"x - z": x - z})
    d = abs(x - z)
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


def _decaying_solutions(A, lam, nu, x_far, x_match, lam_name="lam"):
    """Growth-free amplitudes phi+- of the decaying solutions psi+ (decays at
    +inf) and psi- (decays at -inf), integrated inward from +-x_far to the
    matching points and read there only; returns (mu, M).

    lam is a number or a 1-D array and x_match one point or one per lam: the
    K columns share one integration over s in [0, 1] at
    x+- = +-x_far + s (x_match -+ x_far), and each right-hand side evaluates
    A once, on the array [x+, x-] of shape (2, K) or (2, 1).  With
    mu = sqrt(lam / nu) and psi+- = phi+- exp(-+mu (x -+ x_far)),
    nu psi'' = (lam - A) psi becomes phi+-'' = +-2 mu phi+-' - (A / nu) phi+-
    with phi = 1, phi' = 0 at the far end; for A = 0 the amplitudes stay
    exactly 1.  M = [[phi+, phi-], [phi+' - mu phi+, phi-' + mu phi-]] at
    x_match, shape (K, 2, 2), is (psi+-, psi+-') with e^{mu (x_far -+ x_match)}
    divided out of its columns: det M is the Wronskian over e^{2 mu x_far},
    whatever x_match.  Before any integration: ConfigurationError unless nu
    is positive and finite, and, naming lam (or ``lam_name``) and nu, where
    the layer width 1/|2 mu| lies below the float spacing of a span of
    x_far; EssentialSpectrumError, naming the first offending lam, where
    Re mu vanishes.
    """
    check_positive(nu=nu)
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.sqrt(lam / nu + 0j)
        fine = 2 * np.abs(mu) * x_far * np.finfo(float).eps < 1
    if not np.all(fine):
        raise ConfigurationError(
            f"{lam_name}/nu = {lam[np.argmin(fine)]}/{nu!r} is too large: the amplitudes vary on the "
            f"scale 1/|2 sqrt(lam/nu)|, below the float spacing of x_far = {x_far!r}"
        )
    bad = np.flatnonzero(mu.real < 1e-8)
    if bad.size:
        raise EssentialSpectrumError(
            f"Re sqrt(lambda/nu) = {mu.real[bad[0]]:.3e} at lambda = {lam[bad[0]]}: "
            "spectral parameter in the essential spectrum"
        )
    K = np.broadcast(lam, x_match).size
    x0 = np.array([[x_far], [-x_far]])
    dx, two_mu = x_match - x0, 2 * mu * np.sign(x0)
    dxds = np.concatenate([dx, dx])

    def rhs(s, y):
        phi, dphi = y.reshape(2, 2, K)
        return (dxds * np.concatenate([dphi, two_mu * dphi - A(x0 + s * dx) / nu * phi])).ravel()

    # phi+- start at 1 and stay of order 1, so one tolerance serves as
    # relative and absolute
    sol = solve_ivp(rhs, (0.0, 1.0), np.repeat([1.0 + 0j, 1.0 + 0j, 0j, 0j], K), method="DOP853",
                    rtol=1e-11, atol=1e-11)
    if not sol.success:
        raise NumericalError("decaying-solution integration failed")
    pp, pm, dp, dm = sol.y[:, -1].reshape(4, K)
    M = np.array([[pp, pm], [dp - mu * pp, dm + mu * pm]]).transpose(2, 0, 1)
    return mu, M


def _check_decayed(A, x_far, gate, x_far_is_argument):
    """ConfigurationError naming A unless it takes the array [x_far, -x_far]
    and |A(+-x_far)| <= gate, and naming x_far too where the caller set it:
    the decaying solutions start from the far field of A = 0.  A is
    evaluated once, on that array and with numpy's overflow and invalid
    warnings off, as in the integration."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            far = np.abs(A(np.array([x_far, -x_far])))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"A must accept an array of points: A([{x_far!r}, {-x_far!r}]) raised "
                                     f"{type(exc).__name__}: {exc}") from exc
    if not np.max(far) <= gate:
        short = f"x_far = {x_far!r} is too short: " if x_far_is_argument else ""
        raise ConfigurationError(
            f"{short}A has not decayed below {gate:g} at x = +-{x_far!r} (|A| = {np.max(far):.3e})")


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

    Built from decaying solutions psi+- matched at the source point, where
    the value is continuous and the derivative jumps by 1/nu.  In their
    amplitudes phi+- the exponentials cancel, so a large lambda cannot
    overflow: G = -e^{-mu |x-y|} phi+(hi) phi-(lo) / (nu W) with W the Evans
    function, from one integration of two columns of lambda matched at
    hi = max(x, y) and lo = min(x, y): M_hi[0, 0] M_lo[0, 1] / det M_lo.
    A is evaluated on arrays, at both sides of the two points, so it must
    accept them.  x and y are clamped to +-X_FAR, beyond which A is below
    1e-10 and the amplitudes hold their end values.  ConfigurationError,
    naming tau, x or y, unless each is one finite number, x and y real,
    and naming A unless it takes arrays and has decayed at +-X_FAR.
    """
    check_scalar(tau=tau)
    check_real(x=x, y=y)
    check_finite(tau=tau, x=x, y=y)
    _check_decayed(A, X_FAR, 1e-10, False)
    lo, hi = sorted(min(max(v, -X_FAR), X_FAR) for v in (x, y))
    (mu,), (M_hi, M_lo) = _decaying_solutions(A, 1j * tau, nu, X_FAR, np.array([hi, lo]), "i tau")
    w = _det2(M_lo)
    if w == 0:
        raise NumericalError("matching system singular")
    return complex(-np.exp(-mu * abs(x - y)) * M_hi[0, 0] * M_lo[0, 1] / (nu * w))


def evans_det(A, lam: complex, nu: float = 1.0) -> complex:
    """Evans function D(lambda) = phi+ phi-' - phi- phi+' + 2 mu phi+ phi- of
    the growth-free amplitudes of the decaying solutions, mu = sqrt(lambda / nu).

    Zeros in lambda are eigenvalues of nu * Lap + A.  D is the Wronskian of
    psi+ and psi- with the known factor e^{2 mu X_FAR} divided out: it is
    analytic right of the essential spectrum, the same at every matching
    point, and exactly 2 mu for A = 0, so a large lambda cannot overflow.
    A is evaluated on arrays.  ConfigurationError, naming lam, unless it is
    one finite number, and, naming A, unless A takes arrays and
    |A(+-X_FAR)| <= DECAY_GATE.
    """
    check_scalar(lam=lam)
    check_finite(lam=lam)
    _check_decayed(A, X_FAR, DECAY_GATE, False)
    return complex(_det2(_decaying_solutions(A, lam, nu, X_FAR, 0.0)[1])[0])


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
    refines all w zeros together, each step one stacked integration.  A
    boundary pass at n points per side is one integration of 2n points per
    side, whose even-indexed points are the boundary at n: the pass is
    accepted when no phase step at 2n exceeds 0.8 pi and the windings at n
    and 2n agree, and its 2n points give the moments; otherwise n doubles,
    from ``n_per_side``, until a boundary of more than 400 points per side
    has failed.  The seeds assume simple zeros, as for a real potential: a
    multiple zero makes the Hankel matrix [s_{i+j}] singular, and the
    rectangle then raises RegionError, as do a negative winding number and
    secant zeros that are not w distinct points inside (naming the seeds);
    a zero still moving after 60 secant steps raises NonconvergenceError.
    A region that is not four finite numbers or has re_lo >= re_hi or
    im_lo >= im_hi, a nu or x_far that is not positive and finite, an x_far
    where |A(+-x_far)| > DECAY_GATE (a short span moves the eigenvalues by
    about 0.13 |A(x_far)|^2, or loses them), or an n_per_side that is not
    an integer of at least 1 with 8 n_per_side points within MAX_POINTS
    raises ConfigurationError; a boundary point in the essential
    spectrum raises EssentialSpectrumError and one on a zero RegionError,
    each naming it.
    """
    re_lo, re_hi, im_lo, im_hi = region = tuple(as_array("region", region, 1, size=4).tolist())
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ConfigurationError(f"region {region} must have re_lo < re_hi and im_lo < im_hi")
    check_positive(nu=nu, x_far=x_far)
    _check_decayed(A, x_far, DECAY_GATE, True)
    n_per_side = as_integer("n_per_side", n_per_side, 1)
    # a boundary pass integrates 2 n_per_side points on each of 4 sides
    check_points("n_per_side", 8 * n_per_side)
    while True:
        pts = _rect_boundary(region, 2 * n_per_side)
        M = _decaying_solutions(A, pts, nu, x_far, 0.0)[1]
        vals = _det2(M)
        # |det| over the column norms is the sine of the angle between the
        # amplitude columns: it vanishes on a zero whatever the scale of |det|
        sines = np.abs(vals) / np.prod(np.linalg.norm(M, axis=1), axis=1)
        if np.min(sines) < 1e-10:
            raise RegionError(
                f"boundary point lambda={pts[np.argmin(sines)]} too close to a zero of the "
                "determinant; perturb the rectangle"
            )
        closed = np.append(vals, vals[0])
        dphi = np.angle(closed[1:] / closed[:-1])
        winding = int(round(np.sum(dphi) / (2 * np.pi)))
        # the boundary at n_per_side is every other point of this one
        coarse = closed[::2]
        coarse_winding = round(np.sum(np.angle(coarse[1:] / coarse[:-1])) / (2 * np.pi))
        if np.max(np.abs(dphi)) <= 0.8 * np.pi and winding == coarse_winding:
            break
        if 2 * n_per_side > 400:
            raise RegionError("winding-number phase tracking failed; perturb the rectangle")
        n_per_side *= 2
    if winding < 0:
        # the determinant is analytic: a negative count means the boundary
        # does not resolve its phase
        raise RegionError(
            f"negative winding {winding} on region {region}: the boundary does not resolve "
            "the determinant's phase; raise n_per_side"
        )
    if winding == 0:
        return []

    # moments s_p, trapezoid of lam^p * d log det over the boundary; s_0 is w
    closed_pts = np.append(pts, pts[0])
    ratio = np.diff(np.log(np.abs(closed))) + 1j * dphi
    mid = 0.5 * (closed_pts[1:] + closed_pts[:-1])
    s = mid ** np.arange(2 * winding)[:, None] @ ratio / (2j * np.pi)
    s[0] = winding
    seeds = _hankel_seeds(s, region)

    def det(z):
        return _det2(_decaying_solutions(A, z, nu, x_far, 0.0)[1])

    z0, z1 = seeds.copy(), seeds * (1 + 1e-4) + 1e-6
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
    if active.any():
        raise NonconvergenceError(f"secant on region {region} still moving after 60 steps: last steps "
                                  f"{np.abs(z1 - z0)[active]} at {z1[active]}")
    # two secants that met on one zero, or one that left the rectangle, mean wrong seeds
    twice = np.any(np.abs(z1[:, None] - z1)[np.triu_indices(winding, 1)] < 1e-8)
    if twice or np.any((z1.real < re_lo) | (z1.real > re_hi) | (z1.imag < im_lo) | (z1.imag > im_hi)):
        raise RegionError(f"the secant from the Hankel seeds {[complex(z) for z in seeds]} on region "
                          f"{region} returned {'one zero twice' if twice else 'a zero outside it'}; "
                          "split the rectangle")
    return [complex(z) for z in z1]
