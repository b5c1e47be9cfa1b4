"""Contour-integral semigroups, heat-kernel Green functions, Evans functions.

The semigroup of a matrix is evaluated as (1/2 pi i) * integral over a
contour right of the spectrum of exp(lambda t) (lambda - A)^{-1} x0, with
a three-segment contour (two 45-degree rays joined by a vertical segment).
The heat temporal Green function uses the parabola-shaped contour
lambda = nu (a + i k)^2 with a = |x - z| / (2 nu t), on which the integrand
collapses to a Gaussian-damped real integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    ConfigurationError,
    ContourCrossesSpectrumError,
    EssentialSpectrumError,
    NumericalError,
    QuadratureError,
    RegionError,
)

THREE_SEGMENT = "three_segment"
HEAT_PARABOLA = "heat_parabola"


@dataclass(frozen=True)
class ContourSpec:
    """A parametrized integration contour in the complex spectral plane."""

    kind: str
    P: float = 1.0            # real offset of the vertical segment
    B: float = 10.0           # corner height
    a: float = 0.0            # heat parabola: |x-z| / (2 nu t)
    k_max: float = 10.0       # heat parabola: k truncation
    n_nodes: int = 32         # initial Gauss-Legendre nodes per segment
    tol: float = 1e-10
    max_doublings: int = 10
    params: dict = field(default_factory=dict)


def three_segment_contour(P: float, B: float, **kw) -> ContourSpec:
    return ContourSpec(THREE_SEGMENT, P=P, B=B, **kw)


def default_contour_for(A: np.ndarray, margin: float = 1.0) -> ContourSpec:
    """Contour just right of the spectrum of A.

    P is kept tight: the integrand magnitude is e^{P t}, so an oversized P
    amplifies quadrature cancellation error by that factor.
    """
    eig = np.linalg.eigvals(np.atleast_2d(np.asarray(A, dtype=complex)))
    P = float(np.max(eig.real)) + margin
    B = float(np.max(np.abs(eig.imag))) + abs(P) + margin
    return three_segment_contour(P, B)


def _gauss_nodes(a: float, b: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _resolvent_sum(A, x0, t, lam_nodes, dlam, weights):
    n = A.shape[0]
    ident = np.eye(n)
    acc = np.zeros(n, dtype=complex)
    for lam, dl, w in zip(lam_nodes, dlam, weights):
        try:
            r = np.linalg.solve(lam * ident - A, x0)
        except np.linalg.LinAlgError as exc:
            raise ContourCrossesSpectrumError(f"(lambda - A) singular at lambda={lam}") from exc
        acc += w * np.exp(lam * t) * dl * r
    return acc / (2j * np.pi)


def _three_segment_value(A, x0, t, P, B, ray_len, n):
    """One quadrature pass over the three segments at n nodes each."""
    total = np.zeros(A.shape[0], dtype=complex)
    # Gamma_1: (1+i) R_- + P - iB, from the far end toward the corner
    s, w = _gauss_nodes(-ray_len, 0.0, n)
    lam = (1 + 1j) * s + P - 1j * B
    total += _resolvent_sum(A, x0, t, lam, np.full(n, 1 + 1j), w)
    # Gamma_2: P + i[-B, B]
    s, w = _gauss_nodes(-B, B, n)
    lam = P + 1j * s
    total += _resolvent_sum(A, x0, t, lam, np.full(n, 1j), w)
    # Gamma_3: (-1+i) R_+ + P + iB
    s, w = _gauss_nodes(0.0, ray_len, n)
    lam = (-1 + 1j) * s + P + 1j * B
    total += _resolvent_sum(A, x0, t, lam, np.full(n, -1 + 1j), w)
    return total


def _closed_circle_value(A, x0, t, center, radius, n):
    s, w = _gauss_nodes(0.0, 2.0 * np.pi, n)
    lam = center + radius * np.exp(1j * s)
    dlam = 1j * radius * np.exp(1j * s)
    return _resolvent_sum(A, x0, t, lam, dlam, w)


def semigroup_apply(
    A: np.ndarray,
    x0: np.ndarray,
    t: float,
    contour: ContourSpec | None = None,
) -> np.ndarray:
    """Evaluate exp(A t) x0 by resolvent contour quadrature.

    Node counts are doubled until successive values agree to contour.tol.
    At t = 0 the open rays do not close at infinity, so a closed circle
    enclosing the spectrum is used instead.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    x0 = np.asarray(x0, dtype=complex)
    if t < 0:
        raise ConfigurationError("t must be nonnegative")
    if contour is None:
        contour = default_contour_for(A)
    if contour.kind != THREE_SEGMENT:
        raise ConfigurationError("semigroup_apply expects a three_segment contour")

    if t == 0.0:
        radii = np.sum(np.abs(A), axis=1) - np.abs(np.diag(A))
        radius = float(np.max(np.abs(np.diag(A)) + radii)) + 1.0
        prev = None
        n = contour.n_nodes
        for _ in range(contour.max_doublings):
            val = _closed_circle_value(A, x0, t, 0.0, radius, n)
            if prev is not None and np.max(np.abs(val - prev)) < contour.tol * (1 + np.max(np.abs(val))):
                return val.real if np.isrealobj(x0) and np.max(np.abs(val.imag)) < 1e-8 else val
            prev, n = val, 2 * n
        raise QuadratureError("closed-contour quadrature did not converge at t=0")

    # e^{Re lambda t} along the rays decays like e^{(P - s) t}
    ray_len = 40.0 / t + contour.B
    prev = None
    n = contour.n_nodes
    # cancellation floor: the integrand reaches e^{P t}, and summing it to a
    # value of order 1 cannot beat that magnitude times machine epsilon
    floor = 100.0 * np.finfo(float).eps * np.exp(max(contour.P, 0.0) * t) * (1 + np.linalg.norm(x0))
    for _ in range(contour.max_doublings):
        val = _three_segment_value(A, x0, t, contour.P, contour.B, ray_len, n)
        if prev is not None and np.max(np.abs(val - prev)) < contour.tol * (1 + np.max(np.abs(val))) + floor:
            return val
        prev, n = val, 2 * n
    raise QuadratureError(
        f"three-segment quadrature did not converge (last change "
        f"{np.max(np.abs(val - prev)):.3e})"
    )


def heat_parabola_contour(t: float, dx: float, nu: float, tol: float = 1e-10) -> ContourSpec:
    a = abs(dx) / (2.0 * nu * t)
    k_max = np.sqrt(37.0 / (nu * t))  # e^{-k^2 nu t} < 1e-16 beyond
    return ContourSpec(HEAT_PARABOLA, a=a, k_max=float(k_max), tol=tol)


def heat_green(t: float, x: float, z: float, nu: float, full_output: bool = False):
    """Temporal Green function of the heat equation by contour quadrature.

    The contour lambda = nu (a + i k)^2, a = |x-z|/(2 nu t), turns the
    resolvent kernel integral into (1/2 pi) * int exp(nu t (a+ik)^2 - d (a+ik)) dk
    with d = |x - z|.  The value matches the classical Gaussian kernel.
    """
    if t <= 0 or nu <= 0:
        raise ConfigurationError("t and nu must be positive")
    d = abs(x - z)
    spec = heat_parabola_contour(t, d, nu)
    a, K = spec.a, spec.k_max

    def one_pass(n):
        k, w = _gauss_nodes(-K, K, n)
        s = a + 1j * k
        integrand = np.exp(nu * t * s**2 - d * s)
        return np.sum(w * integrand) / (2.0 * np.pi)

    prev = None
    n = 64
    val = None
    for _ in range(spec.max_doublings):
        val = one_pass(n)
        if prev is not None and abs(val - prev) < spec.tol * (1 + abs(val)):
            break
        prev, n = val, 2 * n
    else:
        raise QuadratureError("heat-parabola quadrature did not converge")
    # explicit tail bound of the integrand
    tail = np.exp(nu * t * (a**2 - K**2) - d * a) / (2.0 * np.pi)
    if tail > 1e-12 * (1 + abs(val)):
        raise QuadratureError(f"tail estimate {tail:.3e} above tolerance")
    if full_output:
        return val.real, val.imag, abs(val - prev)
    return val.real


# ---------------------------------------------------------------------------
# Parabolic Green function and Evans function for  i tau - nu Lap - A(x)
# ---------------------------------------------------------------------------


def _decaying_solutions(A, mu, nu, lam, x_far, dense=True):
    """psi+ (decays at +inf) and psi- (decays at -inf) by inward integration.

    Initialized with the constant-coefficient asymptotics exp(-/+ x mu),
    normalized to 1 at the starting endpoint.  nu psi'' = (lam - A) psi.
    """

    def rhs(x, y):
        return [y[1], (lam - A(x)) / nu * y[0]]

    sol_p = solve_ivp(rhs, (x_far, -x_far), [1.0 + 0j, -mu], method="DOP853",
                      rtol=1e-11, atol=1e-13, dense_output=dense)
    sol_m = solve_ivp(rhs, (-x_far, x_far), [1.0 + 0j, mu], method="DOP853",
                      rtol=1e-11, atol=1e-13, dense_output=dense)
    if not (sol_p.success and sol_m.success):
        raise NumericalError("decaying-solution integration failed")
    return sol_p, sol_m


def _check_decay_parameter(lam, nu):
    mu = np.sqrt(lam / nu + 0j)
    if mu.real < 1e-8:
        raise EssentialSpectrumError(
            f"Re sqrt(lambda/nu) = {mu.real:.3e}: spectral parameter in the essential spectrum"
        )
    return mu


def parabolic_green(
    A,
    tau: complex,
    x: float,
    y: float,
    nu: float,
    x_far: float = 15.0,
) -> complex:
    """Green function of i tau - nu Lap - A(x) on the line, sign as in the
    constant-coefficient kernel -(1 / 2 sqrt(lambda nu)) exp(-|x-y| sqrt(lambda/nu)),
    lambda = i tau.

    Built from decaying solutions psi+- matched at the source point: the
    value is continuous there and the derivative jumps by 1/nu.
    """
    lam = 1j * tau
    mu = _check_decay_parameter(lam, nu)
    if max(np.abs([A(x_far), A(-x_far)])) > 1e-10:
        raise ConfigurationError("potential does not decay below 1e-10 at x_far")
    sol_p, sol_m = _decaying_solutions(A, mu, nu, lam, x_far)

    pp, dp = sol_p.sol(y)
    pm, dm = sol_m.sol(y)
    # G = a psi-  (x < y),  b psi+  (x > y); continuity and derivative jump 1/nu
    M = np.array([[pm, -pp], [-dm, dp]])
    try:
        a, b = np.linalg.solve(M, np.array([0.0, 1.0 / nu]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("matching system singular") from exc
    if x < y:
        val, _ = sol_m.sol(x)
        return complex(a * val)
    val, _ = sol_p.sol(x)
    return complex(b * val)


def evans_det(A, lam: complex, nu: float = 1.0, x_far: float = 15.0, x_match: float = 0.0) -> complex:
    """det of the jacobian of decaying solutions at the matching point.

    Zeros in lambda are eigenvalues of nu * Lap + A.  The normalization at
    +-x_far is analytic in lambda, so the determinant is analytic right of
    the essential spectrum.
    """
    mu = _check_decay_parameter(lam, nu)
    sol_p, sol_m = _decaying_solutions(A, mu, nu, lam, x_far)
    pp, dp = sol_p.sol(x_match)
    pm, dm = sol_m.sol(x_match)
    return complex(pp * dm - pm * dp)


def evans_condition(A, lam: complex, nu: float = 1.0, x_far: float = 15.0) -> float:
    """Diagnostic ||M^{-1}|| of the 2x2 matching matrix (large near eigenvalues)."""
    mu = _check_decay_parameter(lam, nu)
    sol_p, sol_m = _decaying_solutions(A, mu, nu, lam, x_far)
    pp, dp = sol_p.sol(0.0)
    pm, dm = sol_m.sol(0.0)
    M = np.array([[pp, pm], [dp, dm]])
    return float(np.linalg.norm(np.linalg.inv(M), 2))


def _rect_boundary(region, n_per_side):
    re_lo, re_hi, im_lo, im_hi = region
    top = re_lo + (re_hi - re_lo) * np.linspace(0, 1, n_per_side, endpoint=False)
    pts = np.concatenate([
        top + 1j * im_lo,
        re_hi + 1j * (im_lo + (im_hi - im_lo) * np.linspace(0, 1, n_per_side, endpoint=False)),
        re_hi - (re_hi - re_lo) * np.linspace(0, 1, n_per_side, endpoint=False) + 1j * im_hi,
        re_lo + 1j * (im_hi - (im_hi - im_lo) * np.linspace(0, 1, n_per_side, endpoint=False)),
    ])
    return pts


def evans_locate(
    A,
    region: tuple[float, float, float, float],
    nu: float = 1.0,
    x_far: float = 15.0,
    n_per_side: int = 24,
    newton_tol: float = 1e-10,
) -> list[complex]:
    """Eigenvalues of nu * Lap + A inside a rectangle (re_lo, re_hi, im_lo, im_hi).

    Winding number w of the determinant along the boundary (argument
    principle); the zeros' power sums s_p, p <= w, from the log-derivative
    moments on the same boundary; the polynomial with those power sums
    (Newton's identities) for starting points; complex secant refinement of
    each zero.  A multiple zero is returned once per multiplicity.
    """
    pts = _rect_boundary(region, n_per_side)
    vals = np.array([evans_det(A, lam, nu, x_far) for lam in pts])
    if np.min(np.abs(vals)) < 1e-10:
        raise RegionError("boundary too close to a zero of the determinant; perturb the rectangle")

    closed = np.append(vals, vals[0])
    dphi = np.angle(closed[1:] / closed[:-1])
    if np.max(np.abs(dphi)) > 0.8 * np.pi:
        if n_per_side > 400:
            raise RegionError("winding-number phase tracking failed; perturb the rectangle")
        return evans_locate(A, region, nu, x_far, 2 * n_per_side, newton_tol)
    winding = int(round(np.sum(dphi) / (2 * np.pi)))
    if winding == 0:
        return []

    # zeros from the log-derivative moments s_p = sum z_j^p (Delves-Lyness),
    # trapezoid of lam^p * d log det over the boundary, then secant polish
    closed_pts = np.append(pts, pts[0])
    ratio = np.diff(np.log(np.abs(closed))) + 1j * dphi
    mid = 0.5 * (closed_pts[1:] + closed_pts[:-1])
    moments = [np.sum(mid**p * ratio) / (2j * np.pi) for p in range(1, winding + 1)]
    starts = moments  # one zero: s_1 is the zero itself
    if winding > 1:
        # Newton's identities: e_k = (1/k) sum_{i<=k} (-1)^{i-1} e_{k-i} s_i
        e = [1.0 + 0j]
        for k in range(1, winding + 1):
            e.append(sum((-1) ** (i - 1) * e[k - i] * moments[i - 1]
                         for i in range(1, k + 1)) / k)
        starts = np.roots([(-1) ** k * e[k] for k in range(winding + 1)])

    zeros = []
    for z in starts:
        z0 = z
        z1 = z * (1 + 1e-4) + 1e-6
        f0 = evans_det(A, z0, nu, x_far)
        f1 = evans_det(A, z1, nu, x_far)
        for _ in range(60):
            if f1 == f0:
                break
            z2 = z1 - f1 * (z1 - z0) / (f1 - f0)
            z0, f0, z1 = z1, f1, z2
            f1 = evans_det(A, z1, nu, x_far)
            if abs(z1 - z0) < newton_tol:
                break
        zeros.append(complex(z1))
    return zeros
