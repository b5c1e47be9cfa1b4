"""Shear profiles U(z) with derivatives and inflection-point structure.

Supported kinds:

- ``poiseuille``:  U = 1 - z^2 on the channel [-1, 1]
- ``exponential``: U = 1 - exp(-z) on the half line
- ``tanh``:        U = tanh(z - z0) + tanh(z0) on the half line (U(0) = 0)
- ``kolmogorov``:  U = cos(z) on the torus [0, 2*pi)
- ``blasius``:     U = f'(eta) from the similarity equation, via shooting
- ``custom``:      cubic-spline interpolation of a sampled (z, U) table on
                   the half line

Profiles are immutable after construction and safe to share across sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NonconvergenceError, UnsupportedProfileError

CHANNEL = "channel"
HALF_LINE = "half_line"
TORUS = "torus"

ETA_MAX = 15.0       # far end of the Blasius shooting interval

INFLECTION_SCAN = 2000   # grid points of the U'' sign-change scan

_KINDS = ("poiseuille", "exponential", "tanh", "blasius", "kolmogorov", "custom")


@dataclass(frozen=True)
class ShearProfile:
    """A base flow U(z) with first and second derivatives and domain metadata."""

    kind: str
    domain: str
    U: Callable[[np.ndarray], np.ndarray]
    dU: Callable[[np.ndarray], np.ndarray]
    d2U: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)
    lower_accuracy: bool = False

    def z_range(self) -> tuple[float, float]:
        """Physical scan interval for this profile's domain ([0, 20] on the half line)."""
        if self.domain == CHANNEL:
            return (-1.0, 1.0)
        if self.domain == TORUS:
            return (0.0, 2.0 * np.pi)
        return (0.0, 20.0)


def _vec(f):
    def g(z):
        z = np.asarray(z, dtype=float)
        return f(z)

    return g


def make_profile(kind: str, **params) -> ShearProfile:
    """Build a named shear profile; U, U', U'' are mutually consistent."""
    if kind not in _KINDS:
        raise UnsupportedProfileError(f"unknown profile kind {kind!r}; expected one of {_KINDS}")

    if kind == "poiseuille":
        return ShearProfile(
            kind,
            CHANNEL,
            _vec(lambda z: 1.0 - z**2),
            _vec(lambda z: -2.0 * z),
            _vec(lambda z: -2.0 * np.ones_like(z)),
        )

    if kind == "exponential":
        return ShearProfile(
            kind,
            HALF_LINE,
            _vec(lambda z: 1.0 - np.exp(-z)),
            _vec(lambda z: np.exp(-z)),
            _vec(lambda z: -np.exp(-z)),
        )

    if kind == "tanh":
        if "z0" not in params:
            raise ConfigurationError("tanh profile requires parameter z0")
        z0 = float(params["z0"])
        if not np.isfinite(z0):
            raise ConfigurationError(f"z0 must be finite, got {z0!r}")
        shift = np.tanh(z0)

        def sech2(w):
            # clip before cosh: beyond |w|=30 the value is below 1e-26 anyway
            return 1.0 / np.cosh(np.clip(w, -30.0, 30.0)) ** 2

        return ShearProfile(
            kind,
            HALF_LINE,
            _vec(lambda z: np.tanh(z - z0) + shift),
            _vec(lambda z: sech2(z - z0)),
            _vec(lambda z: -2.0 * np.tanh(z - z0) * sech2(z - z0)),
            params={"z0": z0},
        )

    if kind == "kolmogorov":
        return ShearProfile(
            kind,
            TORUS,
            _vec(np.cos),
            _vec(lambda z: -np.sin(z)),
            _vec(lambda z: -np.cos(z)),
        )

    if kind == "blasius":
        return blasius_solve(tolerance=float(params.get("tolerance", 1e-8)))

    # custom table
    from scipy.interpolate import CubicSpline

    if "table" not in params:
        raise ConfigurationError("custom profile requires a (z, U) table")
    table = np.asarray(params["table"], dtype=float)
    if table.ndim != 2 or table.shape[1] != 2:
        raise ConfigurationError("custom table must be a (n, 2) array of (z, U)")
    z_tab, u_tab = table[np.argsort(table[:, 0])].T
    spl = CubicSpline(z_tab, u_tab)
    d1 = spl.derivative(1)
    d2 = spl.derivative(2)
    z_lo, z_hi = z_tab[0], z_tab[-1]
    u_hi = u_tab[-1]

    def U(z):
        z = np.asarray(z, dtype=float)
        # hold the far-field value beyond the table
        return np.where(z >= z_hi, u_hi, spl(np.clip(z, z_lo, z_hi)))

    def dU(z):
        z = np.asarray(z, dtype=float)
        return np.where(z >= z_hi, 0.0, d1(np.clip(z, z_lo, z_hi)))

    def d2Uf(z):
        z = np.asarray(z, dtype=float)
        return np.where(z >= z_hi, 0.0, d2(np.clip(z, z_lo, z_hi)))

    # U'' of a cubic spline is only piecewise linear
    return ShearProfile("custom", HALF_LINE, U, dU, d2Uf, lower_accuracy=True)


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, with scipy.integrate loaded on the first call."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def _blasius_rhs(eta, f):
    # f = (f, f', f'');  f''' = -f f'' / 2
    return [f[1], f[2], -0.5 * f[0] * f[2]]


def _blasius_shoot(fpp0: float):
    sol = solve_ivp(
        _blasius_rhs,
        (0.0, ETA_MAX),
        [0.0, 0.0, fpp0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-13,
        dense_output=True,
    )
    return sol


def blasius_solve(tolerance: float = 1e-8) -> ShearProfile:
    """Blasius profile U = f'(eta) from f''' + f f''/2 = 0 via shooting on f''(0).

    Brent's method on f''(0) over [0.1, 1] with a high-order ODE integrator;
    converged when |f'(ETA_MAX) - 1| < tolerance.  U holds 1 beyond ETA_MAX.
    """
    from scipy.interpolate import CubicSpline
    from scipy.optimize import brentq

    if tolerance <= 0:
        raise ConfigurationError("tolerance must be positive")

    def miss(fpp0):
        return _blasius_shoot(fpp0).y[1][-1] - 1.0

    lo, hi = 0.1, 1.0
    try:
        fpp0 = brentq(miss, lo, hi, xtol=1e-14)
    except ValueError as exc:  # brentq: no sign change on the bracket
        raise NonconvergenceError(
            f"shooting bracket failed: miss({lo})={miss(lo)}, miss({hi})={miss(hi)}"
        ) from exc
    sol = _blasius_shoot(fpp0)
    if abs(sol.y[1][-1] - 1.0) >= tolerance:
        raise NonconvergenceError(
            f"|f'({ETA_MAX:g})-1|={abs(sol.y[1][-1]-1.0):.3e} above tolerance at f''(0)={fpp0!r}"
        )

    eta = np.linspace(0.0, ETA_MAX, 3001)
    f, fp, fpp = sol.sol(eta)
    spl_fp = CubicSpline(eta, fp)     # U
    spl_fpp = CubicSpline(eta, fpp)   # U'
    spl_f = CubicSpline(eta, f)

    def U(z):
        z = np.asarray(z, dtype=float)
        return np.where(z >= ETA_MAX, 1.0, spl_fp(np.clip(z, 0.0, ETA_MAX)))

    def fpp(zc):
        # f'' > 0 everywhere; clamp sub-roundoff spline wiggle in the far field
        return np.maximum(spl_fpp(zc), 0.0)

    def dU(z):
        z = np.asarray(z, dtype=float)
        return np.where(z >= ETA_MAX, 0.0, fpp(np.clip(z, 0.0, ETA_MAX)))

    def d2U(z):
        # U'' = f''' = -f f''/2, exactly from the similarity equation
        z = np.asarray(z, dtype=float)
        zc = np.clip(z, 0.0, ETA_MAX)
        return np.where(z >= ETA_MAX, 0.0, -0.5 * spl_f(zc) * fpp(zc))

    return ShearProfile(
        "blasius",
        HALF_LINE,
        U,
        dU,
        d2U,
        params={"fpp0": fpp0, "eta_max": ETA_MAX, "tolerance": tolerance},
    )


def inflection_points(profile: ShearProfile) -> list[float]:
    """All z in ``profile.z_range()`` where U'' changes sign, refined by
    Brent's method to 1e-10.

    The brackets are the intervals of an INFLECTION_SCAN-point grid on which
    U'' changes sign; a grid point where U'' is exactly zero counts when its two
    neighbours have opposite signs.  An empty list means the necessary
    inviscid-instability condition fails.
    """
    from scipy.optimize import brentq

    z_lo, z_hi = profile.z_range()
    z = np.linspace(z_lo, z_hi, INFLECTION_SCAN)
    w = profile.d2U(z)
    exact = 1 + np.flatnonzero((w[1:-1] == 0.0) & (w[:-2] * w[2:] < 0))
    refined = [brentq(lambda s: float(profile.d2U(s)), z[i], z[i + 1], xtol=1e-10)
               for i in np.flatnonzero(w[:-1] * w[1:] < 0)]
    return sorted(z[exact].tolist() + refined)
