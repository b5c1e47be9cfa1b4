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
  saturation limit (alpha < 0).
- ``hopf_series`` / ``hopf_majorant``: the instability series of the scalar
  conservation-type equation  u_t + u u_z = alpha u  built by an exact Fourier
  recurrence on one coefficient table (term x mode, products by
  ``np.convolve``), together with a truncated generator-function majorant
  G_N(t, z) = sum_k Gen(u_k)(z) t^{k-1} verified to satisfy the differential
  inequality  alpha dG/dt - G dG/dz <= 0  and traced along characteristics.
- ``euler_series``: the truncated instability series of the 2D Euler
  equations about a periodic shear flow (Kolmogorov type), with each term
  obtained from one stacked solve over the x-wavenumber blocks of a
  Fourier-Galerkin discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import (
    ConfigurationError,
    InputError,
    NonconvergenceError,
    NotUnstableError,
    ResonanceError,
    WindowError,
    check_positive,
)
from .profiles import TORUS, ShearProfile, solve_ivp
from .resolvent import duhamel_term  # noqa: F401  (re-exported: phi_i is a Duhamel integral)

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

    epsilon: float
    growth_rate: complex
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

    @property
    def order(self) -> int:
        return len(self.terms)


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

    phi_1 = eps v0 e^{lambda t} and, for 2 <= i <= N,
    phi_i(t) = sum_{j+k=i} int_0^t e^{A(t-tau)} Q(phi_j, phi_k)(tau) dtau.
    The integrals are accumulated by integrating the equivalent triangular
    linear system  phi_i' = A phi_i + sum_{j+k=i} Q(phi_j, phi_k)  at tight
    tolerance; the rescaling psi_i = phi_i eps^{-i} removes the amplitude so
    a single integration serves every epsilon.

    ``Q`` is bilinear and acts on the last axis: given two arrays of shape
    (..., d) it returns Q of each pair of rows, of the same shape (an
    elementwise ``lambda a, b: a * b`` qualifies).  Each right-hand-side
    evaluation makes one call on all pairs j + k = i <= N, and the
    truncation residual one call on all pairs j + k > N at all times.
    """
    from scipy.optimize import brentq

    A = np.atleast_2d(np.asarray(A, dtype=complex))
    v0 = np.atleast_1d(np.asarray(v0, dtype=complex))
    lam = complex(growth_rate)
    d = v0.size
    if A.shape != (d, d):
        raise InputError("A and v0 have incompatible shapes")
    if not (epsilon > 0):
        raise InputError("epsilon must be positive")
    if N < 2:
        raise ConfigurationError("order N must be at least 2")
    if lam.real <= 0:
        raise InputError("the growth rate must have positive real part")
    scale = np.max(np.abs(v0))
    if scale == 0:
        raise InputError("v0 must be nonzero")
    v0 = v0 / scale
    pair_res = np.max(np.abs(A @ v0 - lam * v0))
    if pair_res > 1e-10:
        raise InputError(
            "eigenpair residual %.3e exceeds 1e-10; (v0, growth_rate) is not "
            "an eigenpair of A" % pair_res
        )
    # energy growth constant: the largest eigenvalue of the symmetric part
    mu = float(np.max(np.linalg.eigvalsh(0.5 * (A + A.conj().T))))
    if 2 * (N + 1) * lam.real <= mu:
        raise ConfigurationError(
            "order N too small: need 2(N+1) Re(lambda) > energy constant %.3g" % mu
        )
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid.ndim != 1 or t_grid.size < 2 or not np.all(np.isfinite(t_grid))
            or np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0):
        raise InputError("t_grid must be finite, increasing and nonnegative")
    t_max = float(t_grid[-1])

    def psi1(t):
        return v0 * np.exp(lam * t)

    n_extra = N - 1  # orders 2..N are integrated
    # every pair (j, k) with j + k = i as 0-based term indices, grouped by
    # i = 2..N; the pairs of order i start at row starts[i - 2]
    pj = np.concatenate([np.arange(i - 1) for i in range(2, N + 1)])
    pk = np.concatenate([np.arange(i - 2, -1, -1) for i in range(2, N + 1)])
    starts = np.cumsum(np.arange(N - 1))

    def rhs(t, y):
        psis = np.concatenate([psi1(t)[None], y.reshape(n_extra, d)])
        q = np.asarray(Q(psis[pj], psis[pk]), dtype=complex)
        return (psis[1:] @ A.T + np.add.reduceat(q, starts, axis=0)).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, t_max),
        np.zeros(n_extra * d, dtype=complex),
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
        dense_output=True,
    )
    if not sol.success:
        raise NonconvergenceError("bootstrap term integration failed: " + sol.message)

    def psi_on(ts):
        """psi_1..psi_N at the times ts, as an (N, nt, d) array, from one
        dense-output call."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty((N, ts.size, d), dtype=complex)
        out[0] = psi1(ts[:, None])
        out[1:] = sol.sol(ts).reshape(n_extra, d, ts.size).transpose(0, 2, 1)
        return out

    psis = psi_on(t_grid)

    # measured iteration constants (in psi scale they are epsilon-free)
    decay = np.exp(-lam.real * t_grid)
    C = tuple(
        float(np.max(np.max(np.abs(psis[i]), axis=1) * decay ** (i + 1)))
        for i in range(N)
    )

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
    def amp_on(ts):
        return np.max(np.abs(np.sum(eps_pow[:, None, None] * psi_on(ts), axis=0)), axis=1)

    escape = float("nan")
    ts = np.linspace(0.0, t_max, 4001)
    above = amp_on(ts) >= sigma0
    if above[0]:
        escape = 0.0
    elif np.any(above):
        b = int(np.argmax(above))
        escape = brentq(lambda t: amp_on([t])[0] - sigma0, ts[b - 1], ts[b], xtol=1e-15)

    return BootstrapResult(
        epsilon=float(epsilon),
        growth_rate=lam,
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
    that time when alpha > 0, ``limit`` the t -> infinity saturation value
    when alpha < 0.
    """

    value: float
    blown_up: bool
    t_star: float | None
    limit: float | None


def _riccati_formula(epsilon, alpha, phi0, t):
    """Closed-form solution; accepts complex t (for derivative checks).

    For growing arguments the expression is rearranged with e^{-eps t} so
    that saturation at large t does not overflow."""
    if epsilon * np.real(t) > 0:
        em = np.exp(-epsilon * t)
        return epsilon * phi0 / ((epsilon + alpha * phi0) * em - alpha * phi0)
    e = np.exp(epsilon * t)
    return epsilon * phi0 * e / (epsilon - alpha * phi0 * (e - 1.0))


def riccati_exact(epsilon: float, alpha: float, phi0: float, t: float) -> RiccatiValue:
    """Exact solution phi(t) = eps phi0 e^{eps t} / (eps - alpha phi0 (e^{eps t}-1));
    InputError unless phi0 > 0 and epsilon != 0, all three finite, and t is a number."""
    if not (0 < phi0 < np.inf):
        raise InputError(f"phi0 must be positive and finite, got {phi0!r}")
    if not (np.isfinite(epsilon) and np.isfinite(alpha)) or epsilon == 0:
        raise InputError(f"epsilon must be nonzero and finite, alpha finite; got {epsilon!r}, {alpha!r}")
    if np.isnan(t):
        raise InputError("t must not be NaN")
    t_star = None
    limit = None
    if alpha > 0:
        t_star = np.log1p(epsilon / (alpha * phi0)) / epsilon
        if t >= t_star:
            return RiccatiValue(float("inf"), True, float(t_star), None)
    elif alpha < 0:
        limit = -epsilon / alpha
    if alpha == 0:
        value = phi0 * np.exp(epsilon * t)
    else:
        value = _riccati_formula(epsilon, alpha, phi0, t)
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
    each row as a dict.  Grid values come from one exp(i m z) matrix on the
    shared z-grid, built once per series."""

    alpha: float
    coeffs: np.ndarray

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

    def sup_norm(self, n: int) -> float:
        return float(np.max(np.abs(self._exp_grid @ self.coeffs[n - 1])))

    def sup_ratio(self) -> float:
        """Bound R on the sup-norm ratios |u_{n+1}| / |u_n|, n >= 5; the
        series converges for e^{alpha t} < 1/R."""
        norms = [self.sup_norm(n) for n in range(1, self.order + 1)]
        ratios = [
            norms[n] / norms[n - 1]
            for n in range(5, self.order)
            if norms[n - 1] > 0
        ]
        if not ratios:
            raise InputError("not enough nonzero terms for a ratio estimate")
        return float(max(ratios))

    def recurrence_residual(self, n: int) -> float:
        """sup |(n-1) alpha u_n + sum_k u_k d_z u_{n-k}| from exact coefficients."""
        c = self.coeffs
        acc = (n - 1) * self.alpha * c[n - 1] + _transport(c[:n - 1], c[n - 2::-1])
        return float(np.sum(np.abs(acc)))

    def residual_sup(self, t: float, N: int | None = None) -> float:
        """sup_z of the defect of the order-N partial sum in u_t + u u_z = alpha u.

        Only dropped interactions j + k > N survive, so the defect is
        sum_{j,k<=N, j+k>N} e^{(j+k) alpha t} u_j d_z u_k, summed pointwise
        on the grid.
        """
        N = self.order if N is None else N
        jk = np.add.outer(np.arange(1, N + 1), np.arange(1, N + 1))
        w = np.where(jk > N, np.exp(jk * self.alpha * t), 0.0)
        c = self.coeffs[:N]
        u = self._exp_grid @ c.T
        du = self._exp_grid @ (1j * self.modes * c).T
        return float(np.max(np.abs(np.einsum("jk,zj,zk->z", w, u, du, optimize=True))))


def hopf_series(u1: Mapping[int, complex], alpha: float, N: int) -> HopfSeries:
    """Solve (n-1) alpha u_n = - sum_{1<=k<=n-1} u_k d_z u_{n-k} exactly.

    ``u1`` maps Fourier mode numbers to coefficients (cos z is
    {1: 0.5, -1: 0.5}).  The arithmetic is exact on trigonometric
    polynomials; mode support grows linearly with n, so the table on
    -N max|m|..N max|m| truncates nothing.
    """
    check_positive(alpha=alpha)
    if N < 1:
        raise ConfigurationError("N must be at least 1")
    first = {int(m): complex(v) for m, v in dict(u1).items() if v != 0}
    K = N * max(map(abs, first), default=0)
    c = np.zeros((N, 2 * K + 1), dtype=complex)
    for m, v in first.items():
        c[0, K + m] = v
    for n in range(2, N + 1):
        c[n - 1] = -_transport(c[:n - 1], c[n - 2::-1]) / ((n - 1) * alpha)
        # the transport sum is (1/2) d_z sum_k u_k u_{n-k}: its mean is zero
        c[n - 1, K] = 0.0
    return HopfSeries(alpha=float(alpha), coeffs=c)


def _gen_tables(table: np.ndarray):
    """Coefficient tables of dG_N/dt and dG_N/dz for ``_gen_eval``.

    The t-derivative moves row k of the generator table up by one with the
    factor k-1, the z-derivative moves every row left by one column."""
    N = table.shape[0]
    table_t = np.zeros((N, N))
    table_t[:-1] = np.arange(1, N)[:, None] * table[1:]
    table_z = np.zeros((N, N))
    table_z[:, :-1] = table[:, 1:]
    return table_t, table_z


def _gen_eval(table: np.ndarray, t, z) -> np.ndarray:
    """sum_{k,m} table[k, m] t^k z^m / m! at broadcast points (t, z).

    With table[k-1, m] = sup|d^m u_k| this is the truncated generator
    G_N(t, z).  The sum over m runs in order of m, so that at t = 0 the
    value is Gen(u_1)(z) summed term by term."""
    n_t, n_z = table.shape
    m = np.arange(n_z)
    fact = np.cumprod(np.maximum(m, 1).astype(float))
    a = np.asarray(t, dtype=float)[..., None] ** np.arange(n_t) @ table
    return np.cumsum(a * np.asarray(z, dtype=float)[..., None] ** m / fact, axis=-1)[..., -1]


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

    The truncated generator is stored as one N x N upper-left triangular
    matrix, table[k-1, m] = sup|d^m u_k| (zero for m > N-k), returned as
    ``report["majorant"]``; the series itself is left unchanged.  G is the
    contraction t-powers . table . z-powers/m! (``_gen_eval``).  G_t and G_z
    are the same contraction of the table shifted by one row with the
    factor k-1 (t) or by one column (z) (``_gen_tables``).  All
    characteristics advance together as one vector RK4; each stops on its
    own, without recording the step, as soon as it leaves the window through
    z = 0 (x < 0), while the others go on."""
    if not (eta0 > 0) or not (t_max > 0):
        raise WindowError("eta0 and t_max must be positive")
    N = series.order
    alpha = series.alpha

    # shared-grid derivative sup norms: table[k-1, m] = sup |d^m u_k| for
    # m <= N-k (zero beyond), one product with the series' exp(i m z) matrix
    # per term
    ikm = 1j * series.modes[:, None]
    table = np.zeros((N, N))
    for k in range(N):
        dcoef = series.coeffs[k][:, None] * ikm ** np.arange(N - k)
        table[k, :N - k] = np.max(np.abs(series._exp_grid @ dcoef), axis=0)
    table_t, table_z = _gen_tables(table)

    M0 = float(_gen_eval(table, 0.0, eta0))
    if not np.isfinite(M0) or M0 <= 0:
        raise WindowError("Gen(u_1) is not finite and positive on [0, eta0]")

    tg = np.linspace(0.0, t_max, 33)[:, None]
    zg = np.linspace(0.0, eta0, 33)
    GGz = _gen_eval(table, tg, zg) * _gen_eval(table_z, tg, zg)
    res = alpha * _gen_eval(table_t, tg, zg) - GGz
    gate = MAJORANT_TOL * (1.0 + np.abs(GGz))
    max_residual = float(np.max(res))
    residual_ok = bool(np.all(res <= gate))

    # ramp and guaranteed window
    T_ramp = alpha * eta0 / (6.0 * M0)

    def phi(t):
        return 1.0 - 3.0 * M0 * t / (alpha * eta0)

    dphi = -3.0 * M0 / (alpha * eta0)
    T_c = min(t_max, T_ramp)
    phi_min = phi(T_c)
    phi_ok = bool(phi_min >= 0.5 - 1e-12)

    # characteristics of the ramped field H(t, z) = G(t, phi(t) z):
    # dX/dt = -H/(alpha phi) - X phi'/phi keeps K = H(t, X) nonincreasing.
    def xdot(t, x):
        p = phi(t)
        return -_gen_eval(table, t, p * x) / (alpha * p) - x * dphi / p

    dt = T_c / n_steps
    x = np.linspace(eta0 / n_characteristics, eta0, n_characteristics)
    times = np.zeros(n_steps + 1)
    X = np.empty((n_steps + 1, n_characteristics))
    K = np.empty_like(X)
    X[0], K[0] = x, _gen_eval(table, 0.0, phi(0.0) * x)
    length = np.full(n_characteristics, n_steps + 1)
    alive = np.ones(n_characteristics, dtype=bool)
    t = 0.0
    for i in range(1, n_steps + 1):
        k1 = xdot(t, x)
        k2 = xdot(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = xdot(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = xdot(t + dt, x + dt * k3)
        x_new = x + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        t = t + dt
        left = alive & (x_new < 0.0)  # left the window through z = 0
        length[left] = i
        alive &= ~left
        if not np.any(alive):
            break
        x = np.where(alive, x_new, x)
        times[i], X[i], K[i] = t, x, _gen_eval(table, t, phi(t) * x)

    paths = [
        np.column_stack((times[:n], X[:n, j], K[:n, j]))
        for j, n in enumerate(length)
    ]
    K_max = max([0.0] + [float(np.max(p[:, 2])) for p in paths])
    K_max_increase = max(
        [0.0] + [float(np.max(np.diff(p[:, 2]))) for p in paths if len(p) > 1]
    )

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


def _unstable_eig(U_hat, Upp_hat, kx: float, m_list: np.ndarray):
    """Most unstable temporal eigenvalue of d_t w = -L w on the given modes."""
    L = _shear_block(U_hat, Upp_hat, kx, m_list)
    vals, vecs = np.linalg.eig(-L)
    i = int(np.argmax(vals.real))
    return vals[i], vecs[:, i]


def euler_series(
    profile: ShearProfile,
    N: int = 4,
    modes: int = 16,
) -> dict:
    """Truncated instability series of 2D Euler about a periodic shear flow.

    The base flow (U(y), 0) lives on the torus [0, 2 pi / KX0) x [0, 2 pi).
    The x-wavenumber-KX0 unstable eigenvalue alpha of the vorticity
    linearization is found by a Fourier-Galerkin eigensolve (with a
    doubled-truncation re-solve as oracle); omega_1 is the real part of the
    unstable mode and higher terms solve
        (alpha n + L) omega_n = sum_{j+k=n} Q(u_j, omega_k),
    with u_j recovered from omega_j by the Biot-Savart law and
    Q(u, w) = -(u . grad) w evaluated pseudo-spectrally with 2/3 dealiasing.
    The x-wavenumber blocks of L form one (Ng, Ng, Ng) stack; each order
    tests all shifted blocks for resonance with one stacked SVD and solves
    them with one stacked solve.
    """
    if profile.domain != TORUS:
        raise ConfigurationError("euler_series needs a periodic (torus) profile")
    if N < 1 or modes < 8:
        raise ConfigurationError("need N >= 1 and modes >= 8")
    Ng = int(modes)
    y = 2.0 * np.pi * np.arange(Ng) / Ng
    U_hat = np.fft.fft(profile.U(y)) / Ng
    Upp_hat = np.fft.fft(profile.d2U(y)) / Ng

    # unstable eigenvalue on the grid's symmetric y-mode set (the Nyquist
    # mode is excluded so the conjugate partner of the eigenvector is
    # representable), with a doubled mode range as the truncation oracle
    m_sym = np.arange(-(Ng // 2 - 1), Ng // 2)
    alpha1, vec = _unstable_eig(U_hat, Upp_hat, KX0, m_sym)
    alpha2, _ = _unstable_eig(U_hat, Upp_hat, KX0, np.arange(-(Ng - 2), Ng - 1))
    if alpha1.real <= 1e-8:
        raise NotUnstableError(
            "no unstable eigenvalue at x-wavenumber %.3g (max growth %.3e)"
            % (KX0, alpha1.real)
        )
    alpha = complex(alpha1)
    alpha_gap = abs(alpha1 - alpha2)

    # spectral machinery on the Ng x Ng grid (axis 0 = x, axis 1 = y)
    px = np.fft.fftfreq(Ng, d=1.0 / Ng).astype(int)
    my = np.fft.fftfreq(Ng, d=1.0 / Ng).astype(int)
    KX = KX0 * px[:, None] * np.ones((1, Ng))
    KY = np.ones((Ng, 1)) * my[None, :].astype(float)
    K2 = KX**2 + KY**2
    K2[0, 0] = 1.0  # the zero mode of psi is irrelevant (set to 0 below)
    cutoff = Ng // 3
    dealias = (np.abs(px)[:, None] <= cutoff) & (np.abs(my)[None, :] <= cutoff)

    def velocity(w_hat):
        """Biot-Savart: u = (-psi_y, psi_x) with Delta psi = w."""
        psi = -w_hat / K2
        psi[0, 0] = 0.0
        return -1j * KY * psi, 1j * KX * psi

    def Q(wu_hat, w_hat):
        """Q(u, w) = -(u . grad) w for u derived from vorticity wu_hat."""
        ux, uy = velocity(wu_hat)
        fields = [np.fft.ifft2(h * dealias) for h in
                  (ux, uy, 1j * KX * w_hat, 1j * KY * w_hat)]
        out = -np.fft.fft2(fields[0] * fields[2] + fields[1] * fields[3])
        return out * dealias

    # omega_1: embed the p = +1 eigenvector and its conjugate, then take
    # the real field and normalise its sup to 1
    w1 = np.zeros((Ng, Ng), dtype=complex)
    for c, m in zip(vec, m_sym):
        w1[1, m % Ng] = c
        w1[(-1) % Ng, (-m) % Ng] = np.conj(c)
    field1 = np.fft.ifft2(w1).real
    w1 = np.fft.fft2(field1 / np.max(np.abs(field1)))

    # eigen-equation residual of the real mode, measured in the Galerkin
    # truncation in which it was computed (both x-wavenumber blocks)
    slots = m_sym % Ng
    eig_residual = 0.0
    for p, kx in ((1, KX0), (Ng - 1, -KX0)):
        Lp = _shear_block(U_hat, Upp_hat, kx, m_sym)
        row = w1[p, slots]
        eig_residual = max(
            eig_residual, float(np.max(np.abs(alpha * row + Lp @ row)))
        )
    eig_residual /= float(np.max(np.abs(w1)))

    # the stack of x-wavenumber blocks for the shifted solves (kx = 0: zero)
    kx = KX0 * px
    blocks = np.zeros((Ng, Ng, Ng), dtype=complex)
    blocks[kx != 0] = _shear_block(U_hat, Upp_hat, kx[kx != 0], my)

    omega = [w1]
    h1_ratios = []
    for n in range(2, N + 1):
        rhs_hat = np.zeros((Ng, Ng), dtype=complex)
        for j in range(1, n):
            rhs_hat += Q(omega[j - 1], omega[n - j - 1])
        lam = alpha * n
        M = lam * np.eye(Ng) + blocks
        sv_min = np.min(np.linalg.svd(M, compute_uv=False), axis=-1)
        singular = sv_min <= 1e-10 * np.linalg.norm(M, np.inf, axis=(-2, -1))
        if np.any(singular):
            raise ResonanceError(
                "shifted operator singular at order n=%d, x-wavenumber %g"
                % (n, kx[np.argmax(singular)])
            )
        # a column right-hand side reads the same under NumPy 1.x and 2.x
        w_hat = np.linalg.solve(M, rhs_hat[..., None])[..., 0]
        omega.append(w_hat)
        nrm_f = np.linalg.norm(rhs_hat)
        h1_ratios.append(
            float(np.linalg.norm(w_hat) * abs(lam) / nrm_f) if nrm_f > 0 else 0.0
        )

    sup_norms = [float(np.max(np.abs(np.fft.ifft2(w).real))) for w in omega]

    # partial-sum stabilisation at the amplitude e^{Re(alpha) t} = 0.01
    t_check = np.log(0.01) / alpha.real

    def partial(K):
        acc = np.zeros((Ng, Ng), dtype=complex)
        for n in range(1, K + 1):
            acc += np.exp(n * alpha * t_check) * omega[n - 1]
        return np.fft.ifft2(acc).real

    partial_change = float("nan")
    if N >= 4:
        s3, s4 = partial(3), partial(4)
        partial_change = float(np.max(np.abs(s4 - s3)) / np.max(np.abs(s3)))

    return {
        "alpha_eig": alpha,
        "alpha_gap": float(alpha_gap),
        "kx0": float(KX0),
        "modes": Ng,
        "omega_hat": omega,
        "sup_norms": sup_norms,
        "h1_ratios": h1_ratios,
        "eigen_residual": eig_residual,
        "partial_sum_change": partial_change,
        "t_check": float(t_check),
    }
