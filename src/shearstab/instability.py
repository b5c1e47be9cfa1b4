"""Nonlinear-instability constructions at desk scale.

Four related objects are built here, all organised around power series in a
small amplitude epsilon whose terms grow like e^{n lambda t}:

- ``ode_bootstrap``: the approximate solution phi_app = sum phi_i of a
  quadratic ODE  phi' = A phi + Q(phi, phi)  started on an unstable
  eigenvector, with measured iteration constants, an amplitude-floor escape
  time, and the truncation residual.  All terms come from one dense-output
  integration, sampled once per time grid.  ``Q`` acts on the last axis and
  is called on stacked ``(..., d)`` arrays: once per right-hand side for
  every pair (j, k), and once for the whole residual.
- ``riccati_exact``: the closed-form solution of the scalar model
  phi' = eps phi + alpha phi^2, including its blow-up time (alpha > 0) and
  saturation limit -eps/alpha (eps > 0 > alpha).
- ``hopf_series`` / ``hopf_majorant``: the instability series of the scalar
  conservation-type equation  u_t + u u_z = alpha u  built by an exact Fourier
  recurrence on one coefficient table (term x mode, products by
  ``np.convolve``), together with a truncated generator-function majorant
  G_N(t, z) = sum_k Gen(u_k)(z) t^{k-1} verified to satisfy the differential
  inequality  alpha dG/dt - G dG/dz <= 0  and traced along characteristics.
- ``euler_series``: the truncated instability series of the 2D Euler
  equations about a periodic shear flow (Kolmogorov type), with each term
  obtained from one stacked solve over the x-wavenumber blocks of a
  Fourier-Galerkin discretization, its forcing from one call of Q.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import (
    MAX_POINTS,
    ConfigurationError,
    NonconvergenceError,
    NotUnstableError,
    NumericalError,
    ResonanceError,
    WindowError,
    as_array,
    as_integer,
    check_callable,
    check_finite,
    check_points,
    check_positive,
    check_real,
    check_record,
    check_scalar,
)
from .genfunc import _gen_eval
from .profiles import TORUS, ShearProfile, solve_ivp
from .resolvent import _square_matrix, _vector_for, duhamel_term  # noqa: F401  (duhamel_term is re-exported)
from .spectral import brentq

MAJORANT_TOL = 1e-10       # slack of the majorant inequality and of K's monotonicity
KX0 = 0.5                  # x-wavenumber of the unstable Euler mode: the torus is 2 pi / KX0 long


# ----------------------------------------------------------------------------
# ODE bootstrap
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapResult:
    """Approximate solution of phi' = A phi + Q(phi, phi) as a power series.

    ``terms[i]`` holds phi_{i+1} sampled on ``t_grid`` (shape (nt, d));
    ``C[i]`` is the measured constant in |phi_{i+1}| <= C eps^{i+1}
    e^{(i+1) Re(lambda) t}.  ``T1 = -log(eps)/Re(lambda) - sigma`` is the
    escape time predicted by the series, ``sigma0 = e^{-sigma}/2`` the
    amplitude floor it guarantees, and ``escape_time`` the observed first
    crossing of that floor by |phi_app|.
    """

    t_grid: np.ndarray
    terms: tuple[np.ndarray, ...]
    C: tuple[float, ...]
    sigma: float
    sigma0: float
    T1: float
    approx: np.ndarray
    residual: np.ndarray
    residual_slope: float
    escape_time: float
    energy_constant: float


def ode_bootstrap(
    A: np.ndarray,
    Q: Callable[[np.ndarray, np.ndarray], np.ndarray],
    v0: np.ndarray,
    growth_rate: complex,
    epsilon: float,
    N: int,
    t_grid,
) -> BootstrapResult:
    """Build the order-N approximate solution started on an unstable mode.

    phi_1 = eps v0 e^{lambda t}, 0 < eps < 1, and, for 2 <= i <= N,
    phi_i(t) = sum_{j+k=i} int_0^t e^{A(t-tau)} Q(phi_j, phi_k)(tau) dtau.
    The integrals are accumulated by integrating the equivalent triangular
    linear system  phi_i' = A phi_i + sum_{j+k=i} Q(phi_j, phi_k)  at tight
    tolerance in growth-free variables: psi_i = phi_i eps^{-i} removes the
    amplitude, so a single integration serves every epsilon, and
    chi_i = e^{-i Re(lambda) t} psi_i the known growth, so the integrator
    does not follow an exponential:
    chi_i' = (A - i Re(lambda)) chi_i + sum_{j+k=i} Q(chi_j, chi_k),
    chi_1 = v0 e^{i Im(lambda) t}.  The growth is restored in closed form.

    ``Q`` must be real-bilinear, Q(s a, b) = Q(a, s b) = s Q(a, b) for real
    s, which is what lets the real factors e^{-j Re(lambda) t} through it;
    complex bilinearity is not needed (``lambda a, b: a.real * b``
    qualifies).  It acts on the last axis: given two arrays of shape
    (..., d) it returns Q of each pair of rows, of the same shape (an
    elementwise ``lambda a, b: a * b`` qualifies).  Each right-hand-side
    evaluation makes one call on all pairs j + k = i <= N, and the
    truncation residual one call on all pairs j + k > N at all times.

    The escape time is the first crossing of sigma0 by max |phi_app| among
    the integrator's own steps and t_grid, whose values exist without dense
    output, refined by Brent's method on the dense output inside that one
    bracket.  ConfigurationError, naming the argument, unless epsilon is one
    number in (0, 1), N an integer of at least 2, (v0, growth_rate) a finite
    eigenpair of the square A with Re(growth_rate) > 0 and t_grid increasing.
    """
    check_real(epsilon=epsilon)
    check_scalar(growth_rate=growth_rate)
    check_callable(Q=Q)
    # T1 = -log(eps) / Re(lambda) - sigma is an escape time only for eps < 1
    if not (0 < epsilon < 1):
        raise ConfigurationError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    A = _square_matrix(A)
    v0 = _vector_for(A, "v0", v0)
    d = v0.size
    lam = complex(growth_rate)
    check_finite(growth_rate=lam)
    N = as_integer("N", N, 2)
    if lam.real <= 0:
        raise ConfigurationError(f"growth_rate must have positive real part, got {growth_rate!r}")
    scale = np.max(np.abs(v0))
    if scale == 0:
        raise ConfigurationError("v0 must be nonzero")
    v0 = v0 / scale
    pair_res = np.max(np.abs(A @ v0 - lam * v0))
    if pair_res > 1e-10:
        raise ConfigurationError(f"v0 and growth_rate are not an eigenpair of A: residual {pair_res:.3e} > 1e-10")
    # energy growth constant: the largest eigenvalue of the symmetric part
    mu = float(np.max(np.linalg.eigvalsh(0.5 * (A + A.conj().T))))
    if 2 * (N + 1) * lam.real <= mu:
        raise ConfigurationError(f"N = {N} is too small: need 2(N+1) Re(lambda) > energy constant {mu:.3g}")
    t_grid = as_array("t_grid", t_grid, 1)
    if t_grid.size < 2 or np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ConfigurationError("t_grid must be finite, increasing and nonnegative, with at least 2 points")
    t_max = float(t_grid[-1])
    # the truncation residual multiplies psi_N ~ e^{N Re(lambda) t} by itself
    t_limit = np.log(np.finfo(float).max) / (2 * N * lam.real)
    if t_max > t_limit:
        raise ConfigurationError(f"t_grid ends at {t_max:.6g}, past {t_limit:.6g}, where psi_{N}^2 ~ "
                                 "exp(2 N Re(lambda) t) overflows")

    n_extra = N - 1  # orders 2..N are integrated
    # every pair (j, k) with j + k = i as 0-based term indices, grouped by
    # i = 2..N; the pairs of order i start at row starts[i - 2]
    pj = np.concatenate([np.arange(i - 1) for i in range(2, N + 1)])
    pk = np.concatenate([np.arange(i - 2, -1, -1) for i in range(2, N + 1)])
    starts = np.cumsum(np.arange(N - 1))
    # chi_i = e^{-i Re(lambda) t} psi_i: the known growth is taken out
    growth = lam.real * np.arange(1, N + 1)
    AT, shift, w = A.T, growth[1:, None], 1j * lam.imag

    def rhs(t, y):
        rest = y.reshape(n_extra, d)
        chis = np.concatenate([(v0 * cmath.exp(w * t))[None], rest])
        out = np.add.reduceat(np.asarray(Q(chis[pj], chis[pk]), dtype=complex), starts, axis=0)
        out += rest @ AT
        out -= shift * rest
        return out.ravel()

    # |chi_i| <= C_i, the constants of the iteration bound, so one tolerance
    # serves as relative and absolute; 3e-14 keeps the dense output of the
    # scalar chi_5 within 1e-11 of its closed form
    sol = solve_ivp(
        rhs,
        (0.0, t_max),
        np.zeros(n_extra * d, dtype=complex),
        method="DOP853",
        rtol=3e-14,
        atol=3e-14,
        dense_output=True,
    )
    if not sol.success:
        raise NonconvergenceError("bootstrap term integration failed: " + sol.message)

    def chi_on(ts, ys):
        """chi_1..chi_N at the times ts, as an (N, nt, d) array, given the
        integrated chi_2..chi_N there as ys, of shape (n_extra d, nt)."""
        out = np.empty((N, ts.size, d), dtype=complex)
        out[0] = v0 * np.exp(w * ts[:, None])
        out[1:] = ys.reshape(n_extra, d, ts.size).transpose(0, 2, 1)
        return out

    def amp_on(ts, ys):
        """max |phi_app| over the components at the times ts, with ys as in
        ``chi_on``: the chi with their growth and amplitude restored."""
        psis = chi_on(ts, ys) * np.exp(np.outer(growth, ts))[:, :, None]
        return np.max(np.abs(np.sum(eps_pow[:, None, None] * psis, axis=0)), axis=1)

    chis = chi_on(t_grid, sol.sol(t_grid))
    psis = chis * np.exp(np.outer(growth, t_grid))[:, :, None]
    # measured iteration constants: max |chi_i|, epsilon-free
    C = tuple(float(np.max(np.abs(c))) for c in chis)

    # smallest sigma with sum_{i>=2} C_i e^{-i sigma} <= e^{-sigma}/2
    sig_grid = np.linspace(0.0, 60.0, 6001)
    margin = sum(C[i] * np.exp(-(i) * sig_grid) for i in range(1, N))  # e^{sigma}*LHS
    ok = margin <= 0.5
    if not np.any(ok):
        raise NonconvergenceError("no sigma satisfies the amplitude-floor condition")
    sigma = float(sig_grid[np.argmax(ok)])
    sigma0 = 0.5 * np.exp(-sigma)
    T1 = -np.log(epsilon) / lam.real - sigma

    eps_pow = epsilon ** np.arange(1, N + 1)
    phis = eps_pow[:, None, None] * psis
    terms = tuple(phis)
    approx = np.sum(phis, axis=0)

    # truncation residual: the dropped quadratic interactions with j+k > N,
    # all pairs at all times in one call of Q
    rj, rk = np.nonzero(np.add.outer(np.arange(N), np.arange(N)) >= N - 1)
    q = np.asarray(Q(psis[rj], psis[rk]), dtype=complex)
    r = np.sum((eps_pow[rj] * eps_pow[rk])[:, None, None] * q, axis=0)
    residual = np.max(np.abs(r), axis=1)

    amp = np.max(np.abs(approx), axis=1)
    window = (amp <= 0.1) & (residual > 0)
    if np.any(window):
        # the asymptotic order-(N+1) growth sets in once the residual is
        # within a few decades of its window maximum; earlier samples mix
        # lower exponentials and would bias the fitted slope
        window &= residual >= 1e-3 * np.max(residual[window])
    if np.count_nonzero(window) >= 5:
        slope = float(np.polyfit(t_grid[window], np.log(residual[window]), 1)[0])
    else:
        slope = float("nan")

    # observed escape time: first crossing of the amplitude floor sigma0
    # among the times whose values exist already, the integrator's steps
    # (sol.y) and t_grid (amp), then Brent's method on the dense output
    # inside that one bracket
    def excess(t):
        ts = np.array([t])
        return amp_on(ts, sol.sol(ts))[0] - sigma0

    escape = float("nan")
    ts = np.concatenate([sol.t, t_grid])
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    above = np.concatenate([amp_on(sol.t, sol.y), amp])[order] >= sigma0
    if above[0]:
        escape = 0.0
    elif np.any(above):
        b = int(np.argmax(above))
        escape = brentq(excess, ts[b - 1], ts[b], xtol=1e-15)

    return BootstrapResult(
        t_grid=t_grid,
        terms=terms,
        C=C,
        sigma=sigma,
        sigma0=float(sigma0),
        T1=float(T1),
        approx=approx,
        residual=residual,
        residual_slope=slope,
        escape_time=escape,
        energy_constant=mu,
    )


# ----------------------------------------------------------------------------
# Riccati scalar model
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RiccatiValue:
    """Value of the scalar model phi' = eps phi + alpha phi^2 at one time.

    ``blown_up`` marks evaluation at or past the blow-up time; ``t_star`` is
    that time when there is one (alpha phi0 > max(0, -eps)), ``limit`` the
    t -> infinity saturation value -eps/alpha when eps > 0 > alpha (with
    eps < 0 and no blow-up the solution decays to 0, and ``limit`` is None).
    """

    value: float
    blown_up: bool
    t_star: float | None
    limit: float | None


def _riccati_formula(epsilon, alpha, phi0, t):
    """Closed-form solution; accepts complex t (for derivative checks).

    Written as phi0 e^{eps t} / (1 - alpha phi0 t g(eps t)) with
    g(x) = expm1(x) / x, so that it tends to phi0 / (1 - alpha phi0 t) as
    eps -> 0 instead of cancelling; for growing arguments it is rearranged
    with e^{-eps t} so that saturation at large t does not overflow."""
    def g(x):
        return np.expm1(x) / x if x != 0 else 1.0

    if epsilon * np.real(t) > 0:
        x = -epsilon * t
        return phi0 / (np.exp(x) - alpha * phi0 * (t * g(x)))
    x = epsilon * t
    return phi0 * np.exp(x) / (1.0 - alpha * phi0 * (t * g(x)))


def riccati_exact(epsilon: float, alpha: float, phi0: float, t: float) -> RiccatiValue:
    """Exact solution phi(t) = eps phi0 e^{eps t} / (eps - alpha phi0 (e^{eps t}-1));
    ConfigurationError unless each of the four is one real number, phi0 > 0 and
    epsilon != 0, and all four are finite; naming t where phi(t) overflows."""
    check_positive(phi0=phi0)
    check_real(epsilon=epsilon, alpha=alpha, t=t)
    check_finite(epsilon=epsilon, alpha=alpha, t=t)
    if epsilon == 0:
        raise ConfigurationError(f"epsilon must be nonzero, got {epsilon!r}")
    t_star = limit = None
    # phi0 > 0: the solution blows up where alpha phi0 > max(0, -eps), which
    # keeps log1p's argument above -1
    if alpha * phi0 > max(0.0, -epsilon):
        t_star = np.log1p(epsilon / (alpha * phi0)) / epsilon
        if t >= t_star:
            return RiccatiValue(float("inf"), True, float(t_star), None)
    elif alpha < 0 < epsilon:
        limit = -epsilon / alpha
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = _riccati_formula(epsilon, alpha, phi0, t)
    if not np.isfinite(value):
        raise ConfigurationError(f"t = {t!r} is too large: phi(t) is not finite there")
    return RiccatiValue(
        float(value),
        False,
        None if t_star is None else float(t_star),
        None if limit is None else float(limit),
    )


# ----------------------------------------------------------------------------
# Hopf toy model: exact Fourier recurrence and generator majorant
# ----------------------------------------------------------------------------

_Z_GRID = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)


def _transport(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a_i d_z b_i for rows a_i, b_i of coefficient tables on the modes
    -K..K, truncated to those modes."""
    K = a.shape[-1] // 2
    db = 1j * np.arange(-K, K + 1) * b
    return sum(np.convolve(ai, bi) for ai, bi in zip(a, db))[K:3 * K + 1]


@dataclass(frozen=True, eq=False)
class HopfSeries:
    """Instability series u(t, z) = sum_n e^{n alpha t} u_n(z) of
    u_t + u u_z = alpha u.  ``coeffs[n-1, K+m]`` is the coefficient of
    e^{i m z} in u_n on the modes -K..K, K = N max|m| over the modes of u_1,
    which holds every term exactly; ``terms`` gives the nonzero entries of
    each row as a dict; grid values use one exp(i m z) matrix on _Z_GRID, sup
    norms one cached table.  ConfigurationError unless alpha > 0 and coeffs finite."""

    alpha: float
    coeffs: np.ndarray

    def __post_init__(self):
        check_positive(alpha=self.alpha)
        object.__setattr__(self, "coeffs", as_array("coeffs", self.coeffs, 2, real=False))
        if self.coeffs.shape[1] % 2 == 0:
            raise ConfigurationError(f"coeffs must have a column per mode -K..K, got shape {self.coeffs.shape}")

    @property
    def order(self) -> int:
        return self.coeffs.shape[0]

    @property
    def modes(self) -> np.ndarray:
        K = self.coeffs.shape[1] // 2
        return np.arange(-K, K + 1)

    @property
    def terms(self) -> tuple[dict[int, complex], ...]:
        return tuple(
            {int(m): complex(v) for m, v in zip(self.modes, row) if v != 0}
            for row in self.coeffs
        )

    @cached_property
    def _exp_grid(self) -> np.ndarray:
        """exp(i m z) on ``_Z_GRID`` (rows) for the table's modes (columns)."""
        return np.exp(1j * np.outer(_Z_GRID, self.modes))

    @cached_property
    def _sup_table(self) -> np.ndarray:
        """[k-1, m]: sup_z |d^m u_k| for m <= N-k (zero beyond), one product per term; read-only."""
        N = self.order
        ikm = 1j * self.modes[:, None]
        table = np.zeros((N, N))
        for k in range(N):
            dcoef = self.coeffs[k][:, None] * ikm ** np.arange(N - k)
            table[k, :N - k] = np.max(np.abs(self._exp_grid @ dcoef), axis=0)
        table.flags.writeable = False
        return table

    def sup_norm(self, n: int) -> float:
        return float(self._sup_table[as_integer("n", n, 1, self.order) - 1, 0])

    def sup_ratio(self) -> float:
        """Bound R on the sup-norm ratios |u_{n+1}| / |u_n|, n >= 5; the
        series converges for e^{alpha t} < 1/R."""
        norms = self._sup_table[:, 0]
        prev = norms[4:-1]
        ratios = norms[5:][prev > 0] / prev[prev > 0]
        if not ratios.size:
            raise ConfigurationError(f"the series of order {self.order} has not enough nonzero terms "
                                     "for a ratio estimate")
        return float(np.max(ratios))

    def recurrence_residual(self, n: int) -> float:
        """sup |(n-1) alpha u_n + sum_k u_k d_z u_{n-k}| from exact coefficients."""
        c = self.coeffs
        acc = (n - 1) * self.alpha * c[n - 1] + _transport(c[:n - 1], c[n - 2::-1])
        return float(np.sum(np.abs(acc)))

    def residual_sup(self, t: float) -> float:
        """sup_z of the defect of the order-N partial sum in u_t + u u_z = alpha u,
        N = ``order``.

        Only dropped interactions j + k > N survive, so the defect is
        sum_{j,k<=N, j+k>N} e^{(j+k) alpha t} u_j d_z u_k, summed pointwise
        on the grid.
        """
        N = self.order
        jk = np.add.outer(np.arange(1, N + 1), np.arange(1, N + 1))
        w = np.where(jk > N, np.exp(jk * self.alpha * t), 0.0)
        c = self.coeffs
        u = self._exp_grid @ c.T
        du = self._exp_grid @ (1j * self.modes * c).T
        return float(np.max(np.abs(np.einsum("jk,zj,zk->z", w, u, du, optimize=True))))


def hopf_series(u1: Mapping[int, complex], alpha: float, N: int) -> HopfSeries:
    """Solve (n-1) alpha u_n = - sum_{1<=k<=n-1} u_k d_z u_{n-k} exactly.

    ``u1`` maps Fourier mode numbers to coefficients (cos z is {1: 0.5, -1: 0.5});
    a u1 that is not a mapping, a mode number or an N that is not an integer, a
    coefficient that is not one finite number, or a table of N (2 N max|m| + 1)
    entries past MAX_POINTS raises ConfigurationError.  The arithmetic is exact on
    trigonometric polynomials; mode support grows linearly with n, so the
    table on -N max|m|..N max|m| truncates nothing.  A term whose coefficients
    overflow raises NumericalError naming its order.
    """
    check_positive(alpha=alpha)
    N = as_integer("N", N, 1)
    if not isinstance(u1, Mapping):
        raise ConfigurationError(f"u1 must be a mapping of mode numbers to coefficients, got {u1!r}")
    check_scalar(**{f"u1[{m!r}]": v for m, v in u1.items()})
    first = {as_integer("u1 mode number", m, -MAX_POINTS): complex(v) for m, v in u1.items() if v != 0}
    check_finite(u1=list(first.values()))
    K = N * max(map(abs, first), default=0)
    check_points("N", N * (2 * K + 1))
    c = np.zeros((N, 2 * K + 1), dtype=complex)
    for m, v in first.items():
        c[0, K + m] = v
    for n in range(2, N + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            c[n - 1] = -_transport(c[:n - 1], c[n - 2::-1]) / ((n - 1) * alpha)
        if not np.all(np.isfinite(c[n - 1])):
            raise NumericalError(f"hopf series coefficients overflow at order n={n} (alpha={alpha!r})")
        # the transport sum is (1/2) d_z sum_k u_k u_{n-k}: its mean is zero
        c[n - 1, K] = 0.0
    return HopfSeries(alpha=float(alpha), coeffs=c)


def _gen_tables(table: np.ndarray):
    """Coefficient tables of dG_N/dt and dG_N/dz for ``_gen_eval``: the
    t-derivative moves row k of the generator table up by one with the factor
    k-1, the z-derivative every row left by one column, and neither keeps the
    row or column that the shift empties."""
    return np.arange(1, table.shape[0])[:, None] * table[1:], table[:, 1:]


def hopf_majorant(
    series: HopfSeries,
    eta0: float,
    t_max: float,
    n_characteristics: int = 20,
    n_steps: int = 400,
) -> dict:
    """Build and verify the truncated generator majorant of a Hopf series.

    G_N(t, z) = sum_{k<=N} Gen_{N-k}(u_k)(z) t^{k-1}, where Gen_M(u)(z) =
    sum_{m<=M} sup|d^m u| z^m/m!.  All sup norms are maxima over one shared
    z-grid, which makes the differential inequality
    alpha dG/dt - G dG/dz <= 0 hold exactly (to rounding) whenever the
    recurrence residuals vanish.  The report also traces K_N = G_N(t,
    phi(t) X(t)) along characteristics of the ramped field and checks it is
    nonincreasing and bounded by M0 = Gen(u_1)(eta0) on the guaranteed
    window t <= alpha eta0 / (6 M0).

    The truncated generator is the series' cached, read-only N x N table
    table[k-1, m] = sup|d^m u_k| (zero for m > N-k), which ``sup_norm`` and
    ``sup_ratio`` read too, returned as ``report["majorant"]``.  G is the
    contraction t-powers . table . z-powers/m! (``_gen_eval``).  G_t and G_z
    are the same contraction of the table shifted by one row with the
    factor k-1 (t) or by one column (z) (``_gen_tables``).  All
    characteristics advance together as one vector RK4 over all n_steps,
    each independently of the others, K at each point is the value of G
    that the step from it computes first (one more evaluation gives the
    last point), and each path ends before its first step out of the
    window through z = 0 (x < 0).  eta0 and t_max must be
    positive and finite, ``n_characteristics`` and ``n_steps`` positive
    integers, and the (n_steps + 1) x n_characteristics paths at most
    ``errors.MAX_POINTS`` entries (else ConfigurationError, raised before
    they are allocated)."""
    check_positive(eta0=eta0, t_max=t_max)
    n_characteristics = as_integer("n_characteristics", n_characteristics, 1)
    n_steps = as_integer("n_steps", n_steps, 1)
    check_points("n_steps", (n_steps + 1) * n_characteristics)
    check_record("series", series, HopfSeries)
    N = series.order
    alpha = series.alpha

    table = series._sup_table
    table_t, table_z = _gen_tables(table)

    # an overflow is reported by the checks below, not by numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        M0 = float(_gen_eval(table, 0.0, eta0))
        if not np.isfinite(M0) or M0 <= 0:
            raise WindowError("Gen(u_1) is not finite and positive on [0, eta0]")
        tg = np.linspace(0.0, t_max, 33)[:, None]
        zg = np.linspace(0.0, eta0, 33)
        GGz = _gen_eval(table, tg, zg) * _gen_eval(table_z, tg, zg)
        res = alpha * _gen_eval(table_t, tg, zg) - GGz
    if not np.all(np.isfinite(res)):
        raise WindowError("majorant residual alpha G_t - G G_z is not finite on [0, t_max] x [0, eta0]")
    gate = MAJORANT_TOL * (1.0 + np.abs(GGz))
    max_residual = float(np.max(res))
    residual_ok = bool(np.all(res <= gate))

    # ramp and guaranteed window
    T_ramp = alpha * eta0 / (6.0 * M0)
    dphi = -3.0 * M0 / (alpha * eta0)
    if not np.isfinite(dphi):
        raise WindowError(f"the ramp slope 3 M0 / (alpha eta0) is not finite at eta0={eta0!r}")

    def phi(t):
        return 1.0 + dphi * t

    T_c = min(t_max, T_ramp)
    phi_min = phi(T_c)
    phi_ok = bool(phi_min >= 0.5 - 1e-12)

    # characteristics of the ramped field H(t, z) = G(t, phi(t) z):
    # dX/dt = -H/(alpha phi) - X phi'/phi keeps K = H(t, X) nonincreasing.
    def field(t, x):
        """(H(t, x), dX/dt at (t, x))."""
        p = phi(t)
        h = _gen_eval(table, t, p * x)
        return h, -h / (alpha * p) - x * dphi / p

    dt = T_c / n_steps
    times = np.zeros(n_steps + 1)
    X = np.empty((n_steps + 1, n_characteristics))
    K = np.empty_like(X)
    X[0] = np.linspace(eta0 / n_characteristics, eta0, n_characteristics)
    # K at the start of each step is the H of its first stage
    for i in range(n_steps):
        t, x = times[i], X[i]
        K[i], k1 = field(t, x)
        k2 = field(t + 0.5 * dt, x + 0.5 * dt * k1)[1]
        k3 = field(t + 0.5 * dt, x + 0.5 * dt * k2)[1]
        k4 = field(t + dt, x + dt * k3)[1]
        times[i + 1], X[i + 1] = t + dt, x + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    K[-1] = field(times[-1], X[-1])[0]
    # each path ends before its first step out of the window through z = 0
    inside = ~np.logical_or.accumulate(X < 0.0, axis=0)
    paths = [np.column_stack((times[:n], X[:n, j], K[:n, j])) for j, n in enumerate(inside.sum(axis=0))]
    K_max = np.max(K, where=inside, initial=0.0)
    K_max_increase = np.max(np.diff(K, axis=0), where=inside[1:], initial=0.0)

    K_monotone_ok = bool(K_max_increase <= MAJORANT_TOL * (1.0 + M0))
    K_bound_ok = bool(K_max <= M0 * (1.0 + 1e-12) + MAJORANT_TOL)

    return {
        "order": N,
        "M0": M0,
        "eta0": float(eta0),
        "T_ramp": float(T_ramp),
        "max_residual": max_residual,
        "residual_ok": residual_ok,
        "phi_min": float(phi_min),
        "phi_ok": phi_ok,
        "K_max": float(K_max),
        "K_max_increase": float(K_max_increase),
        "K_monotone_ok": K_monotone_ok,
        "K_bound_ok": K_bound_ok,
        "characteristics": paths,
        "majorant": table,
    }


# ----------------------------------------------------------------------------
# Truncated Euler instability series (Fourier-Galerkin)
# ----------------------------------------------------------------------------

def _toeplitz_conv(coef_hat: np.ndarray, m_list: np.ndarray) -> np.ndarray:
    """Matrix of multiplication by a periodic function on Fourier modes m_list.

    coef_hat are fft coefficients (index = mode, modulo length); mode
    differences beyond the Nyquist range carry no coefficient and stay 0."""
    n = len(coef_hat)
    diff = np.subtract.outer(m_list, m_list)
    return np.where(np.abs(diff) < n // 2, coef_hat[diff % n], 0.0)


def _shear_block(U_hat, Upp_hat, kx, m_list: np.ndarray) -> np.ndarray:
    """Fourier-Galerkin block of the vorticity linearization at x-wavenumber kx.

    L w = U d_x w + v d_y Omega_s with Omega_s = -U', v = d_x psi and
    Delta psi = w, which reduces to  L = i kx (C_U + C_{U''} D),
    D = diag(1/(kx^2 + m^2)).  An array of nonzero kx gives the stack of
    their blocks."""
    kx = np.asarray(kx, dtype=float)[..., None, None]
    d = 1.0 / (kx**2 + m_list.astype(float) ** 2)
    return 1j * kx * (_toeplitz_conv(U_hat, m_list) + _toeplitz_conv(Upp_hat, m_list) * d)


def _unstable_eig(block: np.ndarray):
    """Most unstable temporal eigenvalue of d_t w = -L w for one block L."""
    vals, vecs = np.linalg.eig(-block)
    i = int(np.argmax(vals.real))
    return vals[i], vecs[:, i]


class _EulerSystem(NamedTuple):
    """The truncated 2D Euler system  d_t w = -L w + Q(w, w)  for fft arrays
    of w (axis 0 = x, axis 1 = y) that vanish off the y-modes ``m``."""

    m: np.ndarray           # |m| <= (Ng - 1) // 2: every mode has its conjugate
    slots: np.ndarray       # the places of m in an fft row
    kx: np.ndarray          # the x-wavenumber of each fft row
    blocks: np.ndarray      # blocks[p]: L on m at x-wavenumber kx[p] (0 at kx = 0)
    U_hat: np.ndarray       # fft coefficients of U and U''
    Upp_hat: np.ndarray
    Q: Callable


def _euler_system(profile: ShearProfile, Ng: int) -> _EulerSystem:
    """The truncated Euler system about the shear flow (U(y), 0) on the torus
    [0, 2 pi / KX0) x [0, 2 pi) and its Ng x Ng grid, with one stacked
    ``_shear_block`` call for the blocks of L."""
    y = 2.0 * np.pi * np.arange(Ng) / Ng
    U_hat = np.fft.fft(profile.U(y)) / Ng
    Upp_hat = np.fft.fft(profile.d2U(y)) / Ng
    m = np.arange(-((Ng - 1) // 2), (Ng - 1) // 2 + 1)
    p = np.fft.fftfreq(Ng, d=1.0 / Ng).astype(int)
    kx = KX0 * p
    blocks = np.zeros((Ng, m.size, m.size), dtype=complex)
    blocks[kx != 0] = _shear_block(U_hat, Upp_hat, kx[kx != 0], m)

    KX, KY = kx[:, None], p[None, :].astype(float)
    K2 = KX**2 + KY**2
    K2[0, 0] = 1.0  # the zero mode of psi is irrelevant (set to 0 below)
    dealias = (np.abs(p)[:, None] <= Ng // 3) & (np.abs(p)[None, :] <= Ng // 3)

    def Q(wu_hat, w_hat):
        """Q(u, w) = -(u . grad) w, with u = (-psi_y, psi_x) and Delta psi = wu
        (Biot-Savart), evaluated pseudo-spectrally with 2/3 dealiasing, on
        the last two axes: stacked pairs give the stack of their products."""
        psi = -wu_hat / K2
        psi[..., 0, 0] = 0.0
        grads = 1j * np.array([-KY * psi, KX * psi, KX * w_hat, KY * w_hat]) * dealias
        ux, uy, wx, wy = np.fft.ifft2(grads)
        return -np.fft.fft2(ux * wx + uy * wy) * dealias

    return _EulerSystem(m, m % Ng, kx, blocks, U_hat, Upp_hat, Q)


def euler_series(
    profile: ShearProfile,
    N: int = 4,
    modes: int = 16,
) -> dict:
    """Truncated instability series of 2D Euler about a periodic shear flow.

    The series expands one truncated system, ``_euler_system(profile,
    modes)``: the y-modes |m| <= (modes - 1) // 2, each with its conjugate,
    on the torus [0, 2 pi / KX0) x [0, 2 pi).  alpha is the unstable
    eigenvalue of its x-wavenumber-KX0 block (with a doubled y-mode range as
    the truncation oracle); omega_1 is the real part of that mode and higher
    terms solve
        (alpha n + L) omega_n = sum_{j+k=n} Q(u_j, omega_k)
    on the same blocks, so every omega_n is 0 off the system's modes.  Each
    order forms its right side by one call of Q on its stacked pairs, tests
    all shifted blocks for resonance with one stacked SVD and solves them
    with one stacked solve.  N and modes must be integers,
    N >= 1 and modes >= 8, and modes^3 (the blocks) and N (N - 1) / 2
    modes^2 (the pair products) at most MAX_POINTS (else ConfigurationError).
    """
    check_record("profile", profile, ShearProfile)
    if profile.domain != TORUS:
        raise ConfigurationError(f"profile must be periodic (on the torus), "
                                 f"got the {profile.kind} profile on the {profile.domain}")
    N, Ng = as_integer("N", N, 1), as_integer("modes", modes, 8)
    check_points("modes", Ng**3)
    check_points("N", N * (N - 1) // 2 * Ng**2)
    system = _euler_system(profile, Ng)
    blocks, slots = system.blocks, system.slots

    alpha1, vec = _unstable_eig(blocks[1])
    alpha2, _ = _unstable_eig(
        _shear_block(system.U_hat, system.Upp_hat, KX0, np.arange(-(Ng - 2), Ng - 1)))
    if alpha1.real <= 1e-8:
        raise NotUnstableError(
            "no unstable eigenvalue at x-wavenumber %.3g (max growth %.3e)"
            % (KX0, alpha1.real)
        )
    alpha = complex(alpha1)
    alpha_gap = abs(alpha1 - alpha2)

    # omega[n - 1] is omega_n.  omega_1: the p = +1 eigenvector and its
    # conjugate at p = -1 (modes -m), scaled so that the real field's sup is 1
    omega = np.zeros((N, Ng, Ng), dtype=complex)
    w1 = omega[0]
    w1[1, slots], w1[-1, slots[::-1]] = vec, np.conj(vec)
    w1 /= np.max(np.abs(np.fft.ifft2(w1).real))

    # eigen-equation residual of the real mode in both x-wavenumber blocks
    rows = w1[[1, -1]][:, slots]
    residual = alpha * rows + (blocks[[1, -1]] @ rows[..., None])[..., 0]
    eig_residual = float(np.max(np.abs(residual)) / np.max(np.abs(w1)))

    h1_ratios = []
    for n in range(2, N + 1):
        # one call of Q on the pairs (omega_j, omega_{n-j}), summed in order of j
        rhs_hat = system.Q(omega[:n - 1], omega[n - 2::-1]).sum(axis=0)
        lam = alpha * n
        M = lam * np.eye(slots.size) + blocks
        sv_min = np.min(np.linalg.svd(M, compute_uv=False), axis=-1)
        singular = sv_min <= 1e-10 * np.linalg.norm(M, np.inf, axis=(-2, -1))
        if np.any(singular):
            raise ResonanceError(
                "shifted operator singular at order n=%d, x-wavenumber %g"
                % (n, system.kx[np.argmax(singular)])
            )
        # a column right-hand side reads the same under NumPy 1.x and 2.x
        omega[n - 1][:, slots] = np.linalg.solve(M, rhs_hat[:, slots, None])[..., 0]
        nrm_f = np.linalg.norm(rhs_hat)
        h1_ratios.append(float(np.linalg.norm(omega[n - 1]) * abs(lam) / nrm_f) if nrm_f > 0 else 0.0)

    sup_norms = np.max(np.abs(np.fft.ifft2(omega).real), axis=(1, 2)).tolist()

    # partial-sum stabilisation at the amplitude e^{Re(alpha) t} = 0.01: the
    # sums of orders 1..3 and 1..4 of e^{n alpha t} omega_n
    t_check = np.log(0.01) / alpha.real
    partial_change = float("nan")
    if N >= 4:
        terms = np.exp(np.arange(1, 5) * alpha * t_check)[:, None, None] * omega[:4]
        s3, s4 = np.fft.ifft2(np.cumsum(terms, axis=0)[2:]).real
        partial_change = float(np.max(np.abs(s4 - s3)) / np.max(np.abs(s3)))

    return {
        "alpha_eig": alpha,
        "alpha_gap": float(alpha_gap),
        "kx0": float(KX0),
        "modes": Ng,
        "omega_hat": list(omega),
        "sup_norms": sup_norms,
        "h1_ratios": h1_ratios,
        "eigen_residual": eig_residual,
        "partial_sum_change": partial_change,
        "t_check": float(t_check),
    }
