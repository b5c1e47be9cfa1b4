"""Command-line entry point exposing every solver as a subcommand.

Subcommands: spectrum, neutral-curve, resolvent, heat-kernel, semigroup,
genfunc-check, instability.  Parameters come from flags, optionally seeded
from a flat ``key=value`` config file (flags win).  Sweep parameters accept
the range syntax ``a:b:n`` (inclusive endpoints, n points; prefix ``log:``
for geometric spacing) or a plain value.  Output is a header-first CSV or a
single JSON document, written to ``--out`` or stdout.

Exit codes: 0 success, 2 validation error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np
import sympy as sp
from scipy.linalg import expm

from .errors import ConfigurationError, InputError, ShearStabError
from .genfunc import (
    BLNormParams,
    FourierMode,
    Y,
    gen_series,
    laplace_solve_1d,
    product_bound,
)
from .instability import (
    euler_series,
    hopf_majorant,
    hopf_series,
    ode_bootstrap,
    riccati_exact,
)
from .profiles import make_profile
from .resolvent import heat_green, semigroup_apply
from .spectral import build_grid
from .stability import neutral_curve, os_spectrum, rayleigh_resolvent, rayleigh_spectrum

SUBCOMMANDS = (
    "spectrum",
    "neutral-curve",
    "resolvent",
    "heat-kernel",
    "semigroup",
    "genfunc-check",
    "instability",
)


@dataclass
class RunConfig:
    """A validated run: subcommand plus its resolved parameters."""

    subcommand: str
    params: dict = field(default_factory=dict)
    out: str | None = None
    format: str = "csv"
    seed: int = 0


# ----------------------------------------------------------------------------
# parsing helpers
# ----------------------------------------------------------------------------

def parse_range(text: str) -> np.ndarray:
    """Parse ``a``, ``a:b``, ``a:b:n`` or ``log:a:b:n`` into a grid."""
    s = str(text).strip()
    geometric = s.startswith("log:")
    if geometric:
        s = s[4:]
    parts = s.split(":")
    try:
        if len(parts) == 1:
            vals = np.array([float(parts[0])])
        elif len(parts) == 2:
            a, b = float(parts[0]), float(parts[1])
            vals = np.array([a, b])
        elif len(parts) == 3:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
            if n < 1:
                raise ValueError("need at least one point")
            if geometric:
                if a <= 0 or b <= 0:
                    raise ValueError("log ranges need positive endpoints")
                vals = np.geomspace(a, b, n)
            else:
                vals = np.linspace(a, b, n)
        else:
            raise ValueError("too many ':' separators")
    except ValueError as exc:
        raise InputError(f"bad range {text!r}: {exc}") from None
    if geometric and len(parts) == 2:
        raise InputError(f"bad range {text!r}: log ranges need a point count")
    return vals


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key=value")
                key, val = line.split("=", 1)
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from None
    return out


_FLAG_HELP = {
    "profile": "profile kind (poiseuille, exponential, tanh, kolmogorov, blasius)",
    "n": "resolution (collocation points / Fourier grid size)",
    "map_scale": "half-line map scale L",
    "alpha": "wavenumber value, range, or window",
    "re": "Reynolds number value or range",
    "nu": "viscosity",
    "t": "time value or range",
    "dx": "spatial offset value or range",
    "tol": "tolerance",
    "order": "series / truncation order",
    "c": "complex phase speed, e.g. 0.3+0.1j",
    "mode": "instability mode: bootstrap, riccati, hopf, euler",
    "epsilon": "initial amplitude",
    "phi0": "initial value of the scalar model",
    "eta0": "majorant window size",
    "z0": "tanh profile shift",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shearstab", description="shear-flow stability toolkit"
    )
    sub = parser.add_subparsers(dest="subcommand")
    per_command = {
        "spectrum": ("profile", "n", "map_scale", "alpha", "re", "z0"),
        "neutral-curve": ("profile", "n", "map_scale", "alpha", "re", "tol", "z0"),
        "resolvent": ("profile", "n", "map_scale", "alpha", "c", "z0"),
        "heat-kernel": ("t", "nu", "dx"),
        "semigroup": ("n", "t", "tol"),
        "genfunc-check": ("nu", "order", "tol"),
        "instability": ("mode", "alpha", "epsilon", "phi0", "order", "n", "t", "eta0"),
    }
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        for flag in per_command[name]:
            p.add_argument("--" + flag.replace("_", "-"), help=_FLAG_HELP[flag])
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--seed", help="seed for randomized corpora")
        p.add_argument("--config", help="key=value config file (flags override)")
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    params = {k: v for k, v in vars(args).items() if k not in ("subcommand",)}
    if params.get("config"):
        defaults = _read_config_file(params["config"])
        for key, val in defaults.items():
            if params.get(key) is None and key in params:
                params[key] = val
    params.pop("config", None)
    out = params.pop("out", None)
    fmt = params.pop("format", None) or "csv"
    seed_text = params.pop("seed", None)
    try:
        seed = int(seed_text) if seed_text is not None else 0
    except ValueError:
        raise InputError(f"bad seed {seed_text!r}") from None
    return RunConfig(args.subcommand, params, out, fmt, seed)


def _num(params, key, default):
    """A scalar parameter with a default."""
    val = params.get(key)
    if val is None:
        return default
    try:
        return type(default)(val) if default is not None else float(val)
    except (TypeError, ValueError):
        raise InputError(f"bad value for --{key.replace('_', '-')}: {val!r}") from None


def _grid_param(params, key, default):
    val = params.get(key)
    return parse_range(str(default) if val is None else val)


def _fl(x) -> str:
    return "%.17g" % float(x)


def _emit(cfg: RunConfig, header: list[str], rows: list[list], jdoc: dict) -> None:
    if cfg.format == "json":
        text = json.dumps(jdoc, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(str(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _make_profile(params) -> "object":
    kind = params.get("profile")
    if not kind:
        raise InputError("--profile is required")
    extra = {}
    if params.get("z0") is not None:
        extra["z0"] = float(params["z0"])
    return make_profile(kind, **extra)


# ----------------------------------------------------------------------------
# subcommand runners
# ----------------------------------------------------------------------------

def _run_spectrum(cfg: RunConfig):
    p = cfg.params
    profile = _make_profile(p)
    alphas = _grid_param(p, "alpha", "1.0")
    res = parse_range(p["re"]) if p.get("re") is not None else [None]
    n = _num(p, "n", 128)
    grid = build_grid(n, profile.domain, map_scale=_num(p, "map_scale", 4.0))
    rows, points = [], []
    for a in alphas:
        for re in res:
            if re is None:
                sol = rayleigh_spectrum(profile, float(a), grid)
            else:
                sol = os_spectrum(profile, float(a), float(re), grid)
            re_out = "nan" if re is None else _fl(re)
            for c, r in zip(sol.eigenvalues, sol.residuals):
                rows.append([_fl(a), re_out, _fl(c.real), _fl(c.imag), _fl(r)])
            points.append(
                {
                    "alpha": float(a),
                    "Re": None if re is None else float(re),
                    "eigenvalues": [[c.real, c.imag] for c in sol.eigenvalues],
                    "residuals": [float(r) for r in sol.residuals],
                    "n_rejected": sol.n_rejected,
                }
            )
    header = ["alpha", "Re", "c_real", "c_imag", "residual"]
    jdoc = {"subcommand": "spectrum", "profile": profile.kind, "points": points}
    _emit(cfg, header, rows, jdoc)


def _run_neutral_curve(cfg: RunConfig):
    p = cfg.params
    profile = _make_profile(p)
    if p.get("re") is None:
        raise InputError("--re range is required for neutral-curve")
    res = parse_range(p["re"])
    window_vals = _grid_param(p, "alpha", "0.5:1.5")
    window = (float(np.min(window_vals)), float(np.max(window_vals)))
    n = _num(p, "n", 96)
    tol = _num(p, "tol", 1e-4)
    lower, upper = neutral_curve(
        profile, [float(r) for r in res], window, N=n,
        map_scale=_num(p, "map_scale", 4.0), alpha_tol=tol,
    )
    low, up = dict(lower.points), dict(upper.points)
    rows, points = [], []
    for re in res:
        re = float(re)
        if re in low:
            rows.append([_fl(re), _fl(low[re]), _fl(up[re]), "unstable"])
            points.append(
                {"Re": re, "alpha_low": low[re], "alpha_up": up[re],
                 "status": "unstable"}
            )
        else:
            rows.append([_fl(re), "nan", "nan", "stable"])
            points.append(
                {"Re": re, "alpha_low": None, "alpha_up": None, "status": "stable"}
            )
    header = ["Re", "alpha_low", "alpha_up", "status"]
    jdoc = {"subcommand": "neutral-curve", "profile": profile.kind, "points": points}
    _emit(cfg, header, rows, jdoc)


def _run_resolvent(cfg: RunConfig):
    p = cfg.params
    profile = _make_profile(p)
    alpha = float(_grid_param(p, "alpha", "1.0")[0])
    try:
        c = complex(p.get("c") or "0.5+0.1j")
    except ValueError:
        raise InputError(f"bad phase speed {p.get('c')!r}") from None
    n = _num(p, "n", 128)
    grid = build_grid(n, profile.domain, map_scale=_num(p, "map_scale", 4.0))
    phi = rayleigh_resolvent(profile, alpha, c, lambda z: np.exp(-z), grid)
    rows = []
    for z, v in zip(grid.nodes, phi):
        rows.append([_fl(z) if np.isfinite(z) else "inf", _fl(v.real), _fl(v.imag)])
    jdoc = {
        "subcommand": "resolvent",
        "profile": profile.kind,
        "alpha": alpha,
        "c": [c.real, c.imag],
        "z": [float(z) if np.isfinite(z) else None for z in grid.nodes],
        "phi": [[v.real, v.imag] for v in phi],
    }
    _emit(cfg, ["z", "phi_real", "phi_imag"], rows, jdoc)


def _run_heat_kernel(cfg: RunConfig):
    p = cfg.params
    ts = _grid_param(p, "t", "1.0")
    dxs = _grid_param(p, "dx", "0.0")
    nu = _num(p, "nu", 1.0)
    rows, points = [], []
    for t in ts:
        for dx in dxs:
            val = heat_green(float(t), float(dx), 0.0, nu)
            rows.append([_fl(t), _fl(nu), _fl(dx), _fl(val)])
            points.append({"t": float(t), "nu": nu, "dx": float(dx),
                           "value": float(val)})
    jdoc = {"subcommand": "heat-kernel", "points": points}
    _emit(cfg, ["t", "nu", "dx", "value"], rows, jdoc)


def _run_semigroup(cfg: RunConfig):
    p = cfg.params
    dim = _num(p, "n", 4)
    ts = _grid_param(p, "t", "1.0")
    tol = _num(p, "tol", 1e-8)
    rng = np.random.default_rng(cfg.seed)
    A = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    x0 = rng.standard_normal(dim)
    rows, points = [], []
    for t in ts:
        val = semigroup_apply(A, x0, float(t))
        oracle = expm(A * float(t)) @ x0
        err = float(np.max(np.abs(val - oracle)))
        ok = err <= tol
        rows.append([_fl(t), _fl(err), str(ok).lower()])
        points.append({"t": float(t), "error": err, "pass": ok})
    jdoc = {"subcommand": "semigroup", "seed": cfg.seed, "dim": dim,
            "tol": tol, "points": points}
    _emit(cfg, ["t", "error", "pass"], rows, jdoc)


def _run_genfunc_check(cfg: RunConfig):
    p = cfg.params
    nu = _num(p, "nu", 1e-4)
    order = _num(p, "order", 4)
    tol = _num(p, "tol", 1e-10)
    params = BLNormParams.from_viscosity(nu, 1.0)
    rng = np.random.default_rng(cfg.seed)
    truncation = (order, 2 * order)
    rows, checks = [], []

    def record(name, value, ok):
        rows.append([name, _fl(value), str(bool(ok)).lower()])
        checks.append({"name": name, "value": float(value), "pass": bool(ok)})

    zs = [(0.05, 0.0), (0.1, 0.02), (0.2, 0.05)]
    for case in range(5):
        a1, a2 = rng.uniform(0.5, 2.0, size=2)
        b1, b2 = rng.uniform(0.5, 2.0, size=2)
        w1, w2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        g1 = gen_series(
            [FourierMode(w1, expr=sp.Float(a1) * sp.exp(-sp.Float(b1) * Y))],
            params, truncation,
        )
        g2 = gen_series(
            [FourierMode(w2, expr=sp.Float(a2) * sp.exp(-sp.Float(b2) * Y))],
            params, truncation,
        )
        prod = product_bound(g1, g2)
        # product majorant: equality on the first axis, domination off it
        eq_err = max(
            abs(prod(z1, 0.0) - g1(z1, 0.0) * g2(z1, 0.0))
            / (1.0 + g1(z1, 0.0) * g2(z1, 0.0))
            for z1, _ in zs
        )
        record(f"product_equality_case{case}", eq_err, eq_err <= 1e-12)
        dom = max(
            prod(z1, z2) - g1(z1, z2) * g2(z1, z2) for z1, z2 in zs
        )
        record(f"product_bound_case{case}", dom, dom <= tol)
        # dz1 acts as multiplication by the x-frequency weight
        dz1_err = float(
            np.max(np.abs(
                g1.dz1().coeffs
                - np.arange(g1.coeffs.shape[0])[:, None] * g1.coeffs
            ))
        )
        record(f"dz1_identity_case{case}", dz1_err, dz1_err <= 1e-12)

    # uniformity of the screened-Poisson bundle over the frequency range
    ratios = []
    for alpha in (1, 2, 4, 8, 16, 32):
        sol = laplace_solve_1d(alpha, lambda yv: np.exp(-yv), params, with_bl=False)
        n = sol["norms"]
        ratios.append(n["a2_phi"] + n["a_dphi"] + n["d2phi_plain"])
    spread = max(ratios) / min(ratios)
    record("laplace_bundle_spread", spread, spread < 20.0)

    jdoc = {"subcommand": "genfunc-check", "seed": cfg.seed, "nu": nu,
            "order": order, "checks": checks}
    _emit(cfg, ["check", "value", "pass"], rows, jdoc)


def _run_instability(cfg: RunConfig):
    p = cfg.params
    mode = p.get("mode")
    if mode == "bootstrap":
        eps = _num(p, "epsilon", 1e-3)
        order = _num(p, "order", 5)
        t_max = float(_grid_param(p, "t", _fl(-np.log(eps) + 4.0))[-1])
        t_grid = np.linspace(0.0, t_max, 81)
        r = ode_bootstrap(
            np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.0,
            eps, order, t_grid,
        )
        rows = [
            ["sigma", _fl(r.sigma)],
            ["sigma0", _fl(r.sigma0)],
            ["T1", _fl(r.T1)],
            ["escape_time", _fl(r.escape_time)],
            ["residual_slope", _fl(r.residual_slope)],
        ] + [[f"C_{j + 1}", _fl(c)] for j, c in enumerate(r.C)]
        jdoc = {
            "subcommand": "instability", "mode": "bootstrap", "epsilon": eps,
            "order": order, "sigma": r.sigma, "sigma0": r.sigma0, "T1": r.T1,
            "escape_time": r.escape_time, "residual_slope": r.residual_slope,
            "C": list(r.C),
        }
        _emit(cfg, ["quantity", "value"], rows, jdoc)
    elif mode == "riccati":
        eps = _num(p, "epsilon", 0.1)
        alpha = float(_grid_param(p, "alpha", "1.0")[0])
        phi0 = _num(p, "phi0", 0.01)
        ts = _grid_param(p, "t", "0:20:11")
        rows, points = [], []
        for t in ts:
            r = riccati_exact(eps, alpha, phi0, float(t))
            rows.append([_fl(t), _fl(r.value), str(r.blown_up).lower()])
            points.append({
                "t": float(t),
                "value": r.value if np.isfinite(r.value) else None,
                "blown_up": r.blown_up,
            })
        jdoc = {"subcommand": "instability", "mode": "riccati",
                "epsilon": eps, "alpha": alpha, "phi0": phi0,
                "t_star": riccati_exact(eps, alpha, phi0, 0.0).t_star,
                "points": points}
        _emit(cfg, ["t", "value", "blown_up"], rows, jdoc)
    elif mode == "hopf":
        alpha = float(_grid_param(p, "alpha", "1.0")[0])
        order = _num(p, "order", 12)
        eta0 = _num(p, "eta0", 0.25)
        series = hopf_series({1: 0.5, -1: 0.5}, alpha, order)
        report = hopf_majorant(series, eta0=eta0, t_max=0.05)
        rows = [
            [str(n), _fl(series.sup_norm(n)),
             _fl(series.recurrence_residual(n)) if n >= 2 else "0"]
            for n in range(1, order + 1)
        ]
        jdoc = {
            "subcommand": "instability", "mode": "hopf", "alpha": alpha,
            "order": order,
            "sup_norms": [series.sup_norm(n) for n in range(1, order + 1)],
            "majorant": {
                k: report[k]
                for k in ("M0", "eta0", "T_ramp", "max_residual", "residual_ok",
                          "phi_min", "phi_ok", "K_max", "K_monotone_ok",
                          "K_bound_ok")
            },
        }
        _emit(cfg, ["n", "sup_norm", "recurrence_residual"], rows, jdoc)
    elif mode == "euler":
        order = _num(p, "order", 4)
        modes = _num(p, "n", 16)
        rep = euler_series(make_profile("kolmogorov"), N=order, modes=modes)
        rows = [
            ["alpha_real", _fl(rep["alpha_eig"].real)],
            ["alpha_imag", _fl(rep["alpha_eig"].imag)],
            ["alpha_gap", _fl(rep["alpha_gap"])],
            ["eigen_residual", _fl(rep["eigen_residual"])],
            ["partial_sum_change", _fl(rep["partial_sum_change"])],
        ]
        rows += [[f"sup_norm_{n + 1}", _fl(s)] for n, s in enumerate(rep["sup_norms"])]
        rows += [[f"h1_ratio_{n + 2}", _fl(r)] for n, r in enumerate(rep["h1_ratios"])]
        jdoc = {
            "subcommand": "instability", "mode": "euler", "order": order,
            "modes": modes,
            "alpha_eig": [rep["alpha_eig"].real, rep["alpha_eig"].imag],
            "alpha_gap": rep["alpha_gap"],
            "eigen_residual": rep["eigen_residual"],
            "sup_norms": rep["sup_norms"],
            "h1_ratios": rep["h1_ratios"],
            "partial_sum_change": rep["partial_sum_change"],
        }
        _emit(cfg, ["quantity", "value"], rows, jdoc)
    else:
        raise InputError(
            f"unknown instability mode {mode!r}; expected bootstrap, riccati, "
            "hopf, or euler"
        )


_RUNNERS = {
    "spectrum": _run_spectrum,
    "neutral-curve": _run_neutral_curve,
    "resolvent": _run_resolvent,
    "heat-kernel": _run_heat_kernel,
    "semigroup": _run_semigroup,
    "genfunc-check": _run_genfunc_check,
    "instability": _run_instability,
}


def run(config: RunConfig) -> int:
    """Dispatch a validated config; raises toolkit errors on failure."""
    if config.subcommand not in _RUNNERS:
        raise InputError(f"unknown subcommand {config.subcommand!r}")
    _RUNNERS[config.subcommand](config)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.subcommand:
        parser.print_usage(sys.stderr)
        return 2
    try:
        config = _resolve(args)
        return run(config)
    except (ConfigurationError, InputError) as exc:
        print(f"shearstab: {exc}", file=sys.stderr)
        return 2
    except ShearStabError as exc:
        print(f"shearstab: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
