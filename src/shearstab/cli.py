"""Command-line entry point exposing every solver as a subcommand.

Subcommands: spectrum, neutral-curve, resolvent, heat-kernel, semigroup,
genfunc-check, instability.  ``COMMANDS`` names each with its runner and the
defaults of its flags; ``_FLAGS`` gives each flag its type, so argparse
converts every value, whether it comes from a flag, a default or a flat
``key=value`` config file (keys must be flags of the subcommand; flags win).
Sweep parameters accept the range syntax ``a:b:n`` (inclusive endpoints, n
points; prefix ``log:`` for geometric spacing) or a plain value.  Output is
a header-first CSV or a single JSON document, with non-finite numbers as
``null``, written to ``--out`` or stdout.

Exit codes: 0 success, 2 validation error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConfigurationError, InputError, ShearStabError, check_positive
from .genfunc import (
    BLNormParams,
    FourierMode,
    exp,
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


def seed(text: str) -> int:
    """A nonnegative integer, as numpy's default_rng takes it."""
    value = int(text)
    if value < 0:
        raise ValueError("negative seed")
    return value


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


# flag -> (type, help); argparse applies the type to flags, string defaults
# and config values alike
_FLAGS = {
    "profile": (str, "profile kind (poiseuille, exponential, tanh, kolmogorov, blasius)"),
    "n": (int, "resolution (collocation points / Fourier grid size)"),
    "map_scale": (float, "half-line map scale L"),
    "alpha": (parse_range, "wavenumber value, range, or window"),
    "re": (parse_range, "Reynolds number value or range"),
    "nu": (float, "viscosity"),
    "t": (parse_range, "time value or range"),
    "dx": (parse_range, "spatial offset value or range"),
    "tol": (float, "tolerance"),
    "order": (int, "series / truncation order"),
    "c": (complex, "complex phase speed, e.g. 0.3+0.1j"),
    "mode": (str, "instability mode: bootstrap, riccati, hopf, euler"),
    "epsilon": (float, "initial amplitude"),
    "phi0": (float, "initial value of the scalar model"),
    "eta0": (float, "majorant window size"),
    "z0": (float, "tanh profile shift"),
    "seed": (seed, "seed for randomized corpora (nonnegative)"),
}


FORMATS = ("csv", "json")


def _fl(x) -> str:
    return "%.17g" % float(x)


def _finite(doc):
    """``doc`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(doc, dict):
        return {k: _finite(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(v) for v in doc]
    if isinstance(doc, float) and not np.isfinite(doc):
        return None
    return doc


def _emit(args, header: list[str], rows: list[list], jdoc: dict) -> None:
    if args.format == "json":
        text = json.dumps(_finite(jdoc), indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(str(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _make_profile(args) -> "object":
    if not args.profile:
        raise InputError("--profile is required")
    extra = {} if args.z0 is None else {"z0": args.z0}
    return make_profile(args.profile, **extra)


# ----------------------------------------------------------------------------
# subcommand runners
# ----------------------------------------------------------------------------

def _run_spectrum(args):
    profile = _make_profile(args)
    res = [None] if args.re is None else args.re
    grid = build_grid(args.n, profile.domain, map_scale=args.map_scale)
    rows, points = [], []
    for a in args.alpha:
        for re in res:
            if re is None:
                sol = rayleigh_spectrum(profile, float(a), grid)
            else:
                sol = os_spectrum(profile, float(a), float(re), grid)
            re_out = "nan" if re is None else _fl(re)
            for c, r in zip(sol.eigenvalues, sol.residuals):
                rows.append([_fl(a), re_out, _fl(c.real), _fl(c.imag), _fl(r)])
            points.append({"alpha": float(a), "Re": None if re is None else float(re),
                           "eigenvalues": [[c.real, c.imag] for c in sol.eigenvalues],
                           "residuals": [float(r) for r in sol.residuals],
                           "n_rejected": sol.n_rejected})
    header = ["alpha", "Re", "c_real", "c_imag", "residual"]
    jdoc = {"subcommand": "spectrum", "profile": profile.kind, "points": points}
    _emit(args, header, rows, jdoc)


def _run_neutral_curve(args):
    profile = _make_profile(args)
    if args.re is None:
        raise InputError("--re range is required for neutral-curve")
    window = (float(np.min(args.alpha)), float(np.max(args.alpha)))
    lower, upper = neutral_curve(
        profile, [float(r) for r in args.re], window, N=args.n,
        map_scale=args.map_scale, alpha_tol=args.tol,
    )
    low, up = dict(lower.points), dict(upper.points)
    rows, points = [], []
    for re in map(float, args.re):
        a_low, a_up = low.get(re, np.nan), up.get(re, np.nan)
        status = "unstable" if re in low else "stable"
        rows.append([_fl(re), _fl(a_low), _fl(a_up), status])
        points.append({"Re": re, "alpha_low": a_low, "alpha_up": a_up, "status": status})
    header = ["Re", "alpha_low", "alpha_up", "status"]
    jdoc = {"subcommand": "neutral-curve", "profile": profile.kind, "points": points}
    _emit(args, header, rows, jdoc)


def _run_resolvent(args):
    profile = _make_profile(args)
    alpha, c = float(args.alpha[0]), args.c
    grid = build_grid(args.n, profile.domain, map_scale=args.map_scale)
    phi = rayleigh_resolvent(profile, alpha, c, lambda z: np.exp(-z), grid)
    rows = []
    for z, v in zip(grid.nodes, phi):
        rows.append([_fl(z), _fl(v.real), _fl(v.imag)])
    jdoc = {
        "subcommand": "resolvent",
        "profile": profile.kind,
        "alpha": alpha,
        "c": [c.real, c.imag],
        "z": [float(z) for z in grid.nodes],
        "phi": [[v.real, v.imag] for v in phi],
    }
    _emit(args, ["z", "phi_real", "phi_imag"], rows, jdoc)


def _run_heat_kernel(args):
    rows, points = [], []
    for t in args.t:
        for dx in args.dx:
            val = heat_green(float(t), float(dx), 0.0, args.nu)
            rows.append([_fl(t), _fl(args.nu), _fl(dx), _fl(val)])
            points.append({"t": float(t), "nu": args.nu, "dx": float(dx),
                           "value": float(val)})
    jdoc = {"subcommand": "heat-kernel", "points": points}
    _emit(args, ["t", "nu", "dx", "value"], rows, jdoc)


def _run_semigroup(args):
    dim, tol = args.n, args.tol
    if dim < 1:
        raise InputError(f"--n must be at least 1, got {dim}")
    check_positive(tol=tol)
    from scipy.linalg import expm

    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    x0 = rng.standard_normal(dim)
    rows, points = [], []
    for t in args.t:
        val = semigroup_apply(A, x0, float(t))
        oracle = expm(A * float(t)) @ x0
        err = float(np.max(np.abs(val - oracle)))
        ok = err <= tol
        rows.append([_fl(t), _fl(err), str(ok).lower()])
        points.append({"t": float(t), "error": err, "pass": ok})
    jdoc = {"subcommand": "semigroup", "seed": args.seed, "dim": dim,
            "tol": tol, "points": points}
    _emit(args, ["t", "error", "pass"], rows, jdoc)


def _run_genfunc_check(args):
    nu, order, tol = args.nu, args.order, args.tol
    check_positive(tol=tol)
    params = BLNormParams.from_viscosity(nu, 1.0)
    rng = np.random.default_rng(args.seed)
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
        g1 = gen_series([FourierMode(w1, lambda y: a1 * exp(-b1 * y))], params, truncation)
        g2 = gen_series([FourierMode(w2, lambda y: a2 * exp(-b2 * y))], params, truncation)
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

    jdoc = {"subcommand": "genfunc-check", "seed": args.seed, "nu": nu,
            "order": order, "checks": checks}
    _emit(args, ["check", "value", "pass"], rows, jdoc)


def _run_instability(args):
    # epsilon, order and t have per-mode defaults, so the table leaves them None
    mode, alpha = args.mode, float(args.alpha[0])
    if mode == "bootstrap":
        eps = 1e-3 if args.epsilon is None else args.epsilon
        order = 5 if args.order is None else args.order
        # an epsilon outside (0, 1) gives no valid default grid; ode_bootstrap
        # rejects it before the grid is read
        with np.errstate(divide="ignore", invalid="ignore"):
            t_max = -np.log(eps) + 4.0 if args.t is None else float(args.t[-1])
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
        _emit(args, ["quantity", "value"], rows, jdoc)
    elif mode == "riccati":
        eps = 0.1 if args.epsilon is None else args.epsilon
        ts = np.linspace(0.0, 20.0, 11) if args.t is None else args.t
        rows, points = [], []
        for t in ts:
            r = riccati_exact(eps, alpha, args.phi0, float(t))
            rows.append([_fl(t), _fl(r.value), str(r.blown_up).lower()])
            points.append({"t": float(t), "value": r.value, "blown_up": r.blown_up})
        jdoc = {"subcommand": "instability", "mode": "riccati",
                "epsilon": eps, "alpha": alpha, "phi0": args.phi0,
                "t_star": riccati_exact(eps, alpha, args.phi0, 0.0).t_star,
                "points": points}
        _emit(args, ["t", "value", "blown_up"], rows, jdoc)
    elif mode == "hopf":
        order = 12 if args.order is None else args.order
        series = hopf_series({1: 0.5, -1: 0.5}, alpha, order)
        report = hopf_majorant(series, eta0=args.eta0, t_max=0.05)
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
        _emit(args, ["n", "sup_norm", "recurrence_residual"], rows, jdoc)
    elif mode == "euler":
        order = 4 if args.order is None else args.order
        rep = euler_series(make_profile("kolmogorov"), N=order, modes=args.n)
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
            "modes": args.n,
            "alpha_eig": [rep["alpha_eig"].real, rep["alpha_eig"].imag],
            "alpha_gap": rep["alpha_gap"],
            "eigen_residual": rep["eigen_residual"],
            "sup_norms": rep["sup_norms"],
            "h1_ratios": rep["h1_ratios"],
            "partial_sum_change": rep["partial_sum_change"],
        }
        _emit(args, ["quantity", "value"], rows, jdoc)
    else:
        raise InputError(
            f"unknown instability mode {mode!r}; expected bootstrap, riccati, "
            "hopf, or euler"
        )


# subcommand -> (runner, {flag: default}); flags appear in this order in --help
COMMANDS = {
    "spectrum": (_run_spectrum, {
        "profile": None, "n": 128, "map_scale": 4.0, "alpha": "1.0", "re": None,
        "z0": None}),
    "neutral-curve": (_run_neutral_curve, {
        "profile": None, "n": 96, "map_scale": 4.0, "alpha": "0.5:1.5", "re": None,
        "tol": 1e-4, "z0": None}),
    "resolvent": (_run_resolvent, {
        "profile": None, "n": 128, "map_scale": 4.0, "alpha": "1.0", "c": 0.5 + 0.1j,
        "z0": None}),
    "heat-kernel": (_run_heat_kernel, {"t": "1.0", "nu": 1.0, "dx": "0.0"}),
    "semigroup": (_run_semigroup, {"n": 4, "t": "1.0", "tol": 1e-8, "seed": 0}),
    "genfunc-check": (_run_genfunc_check, {"nu": 1e-4, "order": 4, "tol": 1e-10, "seed": 0}),
    "instability": (_run_instability, {
        "mode": None, "alpha": "1.0", "epsilon": None, "phi0": 0.01, "order": None,
        "n": 16, "t": None, "eta0": 0.25}),
}


def build_parser():
    """The ``shearstab`` parser and its subparsers by name, built from COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="shearstab", description="shear-flow stability toolkit"
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name, (runner, defaults) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, default in defaults.items():
            kind, text = _FLAGS[flag]
            p.add_argument("--" + flag.replace("_", "-"), type=kind, default=default,
                           help=text)
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=FORMATS, default="csv",
                       help="output format")
        p.add_argument("--config", help="key=value config file (flags override)")
        p.set_defaults(run=runner)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    try:
        # parse_range raises InputError, which argparse lets through
        args = parser.parse_args(argv)
        if not args.subcommand:
            parser.print_usage(sys.stderr)
            return 2
        if args.config:
            values = _read_config_file(args.config)
            flags = set(COMMANDS[args.subcommand][1]) | {"out", "format"}
            unknown = sorted(set(values) - flags)
            if unknown:
                raise InputError(
                    f"{args.config}: {unknown[0]!r} is not a flag of {args.subcommand}"
                )
            # config values become string defaults, converted by each flag's type
            subparsers[args.subcommand].set_defaults(**values)
            args = parser.parse_args(argv)
            # argparse checks choices only on the command line, not on defaults
            if args.format not in FORMATS:
                raise InputError(
                    f"{args.config}: format must be one of {FORMATS}, got {args.format!r}"
                )
        args.run(args)
        return 0
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except ShearStabError as exc:
        print(f"shearstab: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigurationError, InputError)) else 3


if __name__ == "__main__":
    sys.exit(main())
