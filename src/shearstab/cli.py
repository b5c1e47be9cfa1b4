"""Command-line entry point exposing every solver as a subcommand.

Subcommands: spectrum, neutral-curve, resolvent, heat-kernel, semigroup,
genfunc-check, instability.  ``COMMANDS`` names each with its runner and the
defaults of its flags, and ``MODES`` does the same for the modes of
``instability``; ``_FLAGS`` gives each flag its type, so argparse converts
every value, whether it comes from a flag, a default or a flat ``key=value``
config file (keys must be flags of the subcommand; flags win).  A flag that
the chosen instability mode does not read is an error, as is ``--map-scale``
on a channel profile, whose grid has no map.  Sweep parameters accept the
range syntax ``a:b:n`` (inclusive endpoints, n points; prefix ``log:`` for
geometric spacing) or a plain value; a flag that reads one value, or a
window of two, rejects any other count.  Each runner returns one record,
a CSV header, its rows and a JSON document, and writes nothing; ``_emit``
alone writes it, as a header-first CSV or as the document with the
``subcommand`` added (the instability dispatcher adds the ``mode``), with
non-finite numbers as ``null``, to ``--out`` or stdout.

The package executes its modules on their first attribute access, so a
subcommand compiles and runs only the solver modules it calls: heat-kernel
never loads stability, and spectrum never loads genfunc.  The runners read
each function from its module at call time, so a function wrapped on its
module (by a tracer) is the one called.

Exit codes: 0 success, 2 a rejected flag, file or argument (ConfigurationError),
3 a failure found by computation (any other ShearStabError).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import genfunc, instability, resolvent, stability
from .errors import ConfigurationError, ShearStabError, as_integer, check_points, check_positive
from .profiles import CHANNEL, make_profile
from .spectral import build_grid


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
        raise ConfigurationError(f"bad range {text!r}: {exc}") from None
    if geometric and len(parts) == 2:
        raise ConfigurationError(f"bad range {text!r}: log ranges need a point count")
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
                    raise ConfigurationError(f"{path}:{lineno}: expected key=value")
                key, val = line.split("=", 1)
                out[key.strip().replace("-", "_")] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    return out


# flag -> (type, help); argparse applies the type to flags, string defaults
# and config values alike
_FLAGS = {
    "profile": (str, "profile kind (poiseuille, exponential, tanh, kolmogorov, blasius)"),
    "n": (int, "resolution (collocation points / Fourier grid size)"),
    "map_scale": (float, "half-line map scale L (default 4; not for channel profiles)"),
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


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _exactly(args, flag: str, count: int) -> list[float]:
    """The values of a range flag that reads exactly ``count`` of them."""
    values = [float(v) for v in getattr(args, flag)]
    if len(values) != count:
        raise ConfigurationError(
            f"{_option(flag)} takes {count} value{'s' if count > 1 else ''}, got {len(values)}"
        )
    return values


FORMATS = ("csv", "json")


def _finite(doc):
    """``doc`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(doc, dict):
        return {k: _finite(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(v) for v in doc]
    if isinstance(doc, float) and not np.isfinite(doc):
        return None
    return doc


def _cell(value) -> str:
    """One CSV cell: a float as %.17g, a boolean as true/false, the rest by str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _table(header: list[str], rows: list[list], **meta):
    """The record whose document carries ``meta`` and the rows as points,
    each row's values under the header's names."""
    return header, rows, {**meta, "points": [dict(zip(header, row)) for row in rows]}


def _quantities(values: dict, **meta):
    """The record of a quantity -> value mapping, with ``meta`` in its
    document; a vector is a {row name: entry} mapping, one row each and a
    list in the document."""
    rows = [[k, v] for name, value in values.items()
            for k, v in (value.items() if isinstance(value, dict) else [(name, value)])]
    doc = {k: list(v.values()) if isinstance(v, dict) else v for k, v in values.items()}
    return ["quantity", "value"], rows, {**meta, **doc}


def _emit(args, header: list[str], rows: list[list], doc: dict) -> None:
    """Write a runner's record as CSV, or as JSON with its subcommand added."""
    if args.format == "json":
        doc = {"subcommand": args.subcommand, **doc}
        text = json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(map(_cell, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _make_profile(args):
    """The profile of --profile and --z0, and the map scale of its grid:
    --map-scale, 4 by default, where the grid is mapped (the half-line)."""
    if not args.profile:
        raise ConfigurationError("--profile is required")
    extra = {} if args.z0 is None else {"z0": args.z0}
    profile = make_profile(args.profile, **extra)
    if args.map_scale is None:
        # a channel grid ignores the scale it is given
        return profile, 4.0
    if profile.domain == CHANNEL:
        raise ConfigurationError(f"--map-scale does not apply to the {profile.kind} profile, "
                                 "whose channel grid has no map")
    return profile, args.map_scale


# ----------------------------------------------------------------------------
# subcommand runners
# ----------------------------------------------------------------------------

def _run_spectrum(args):
    profile, map_scale = _make_profile(args)
    res = [None] if args.re is None else args.re
    grid = build_grid(args.n, profile.domain, map_scale=map_scale)
    rows, points = [], []
    for a in args.alpha:
        for re in res:
            if re is None:
                sol = stability.rayleigh_spectrum(profile, float(a), grid)
            else:
                sol = stability.os_spectrum(profile, float(a), float(re), grid)
            re_out = np.nan if re is None else re
            for c, r in zip(sol.eigenvalues, sol.residuals):
                rows.append([a, re_out, c.real, c.imag, r])
            points.append({"alpha": float(a), "Re": float(re_out),
                           "eigenvalues": [[c.real, c.imag] for c in sol.eigenvalues],
                           "residuals": [float(r) for r in sol.residuals],
                           "n_rejected": sol.n_rejected})
    header = ["alpha", "Re", "c_real", "c_imag", "residual"]
    return header, rows, {"profile": profile.kind, "points": points}


def _run_neutral_curve(args):
    profile, map_scale = _make_profile(args)
    if args.re is None:
        raise ConfigurationError("--re range is required for neutral-curve")
    window = tuple(sorted(_exactly(args, "alpha", 2)))
    lower, upper = stability.neutral_curve(
        profile, [float(r) for r in args.re], window, N=args.n,
        map_scale=map_scale, alpha_tol=args.tol,
    )
    low, up = dict(lower.points), dict(upper.points)
    rows = []
    for re in map(float, args.re):
        status = "unstable" if re in low else "stable"
        rows.append([re, low.get(re, np.nan), up.get(re, np.nan), status])
    return _table(["Re", "alpha_low", "alpha_up", "status"], rows, profile=profile.kind)


def _run_resolvent(args):
    profile, map_scale = _make_profile(args)
    (alpha,) = _exactly(args, "alpha", 1)
    c = args.c
    grid = build_grid(args.n, profile.domain, map_scale=map_scale)
    phi = stability.rayleigh_resolvent(profile, alpha, c, lambda z: np.exp(-z), grid)
    rows = [[z, v.real, v.imag] for z, v in zip(grid.nodes, phi)]
    return ["z", "phi_real", "phi_imag"], rows, {
        "profile": profile.kind,
        "alpha": alpha,
        "c": [c.real, c.imag],
        "z": [float(z) for z in grid.nodes],
        "phi": [[v.real, v.imag] for v in phi],
    }


def _run_heat_kernel(args):
    rows = []
    for t in args.t:
        for dx in args.dx:
            val = resolvent.heat_green(float(t), float(dx), 0.0, args.nu)
            rows.append([float(t), args.nu, float(dx), float(val)])
    return _table(["t", "nu", "dx", "value"], rows)


def _run_semigroup(args):
    dim, tol = as_integer("--n", args.n, 1), args.tol
    check_points("--n", dim * dim)
    check_positive(tol=tol)
    from scipy.linalg import expm

    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    x0 = rng.standard_normal(dim)
    rows = []
    for t in args.t:
        val = resolvent.semigroup_apply(A, x0, float(t))
        oracle = expm(A * float(t)) @ x0
        err = float(np.max(np.abs(val - oracle)))
        rows.append([float(t), err, err <= tol])
    return _table(["t", "error", "pass"], rows, seed=args.seed, dim=dim, tol=tol)


def _run_genfunc_check(args):
    nu, order, tol = args.nu, args.order, args.tol
    check_positive(tol=tol)
    FourierMode, exp, gen_series = genfunc.FourierMode, genfunc.exp, genfunc.gen_series
    params = genfunc.BLNormParams.from_viscosity(nu, 1.0)
    rng = np.random.default_rng(args.seed)
    truncation = (order, 2 * order)
    rows = []

    def record(name, value, ok):
        rows.append([name, float(value), bool(ok)])

    zs = [(0.05, 0.0), (0.1, 0.02), (0.2, 0.05)]
    for case in range(5):
        a1, a2 = rng.uniform(0.5, 2.0, size=2)
        b1, b2 = rng.uniform(0.5, 2.0, size=2)
        w1, w2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        g1 = gen_series([FourierMode(w1, lambda y: a1 * exp(-b1 * y))], params, truncation)
        g2 = gen_series([FourierMode(w2, lambda y: a2 * exp(-b2 * y))], params, truncation)
        prod = genfunc.product_bound(g1, g2)
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
        sol = genfunc.laplace_solve_1d(alpha, lambda yv: np.exp(-yv), params, with_bl=False)
        n = sol["norms"]
        ratios.append(n["a2_phi"] + n["a_dphi"] + n["d2phi_plain"])
    spread = max(ratios) / min(ratios)
    record("laplace_bundle_spread", spread, spread < 20.0)

    return ["check", "value", "pass"], rows, {
        "seed": args.seed, "nu": nu, "order": order,
        "checks": [dict(zip(("name", "value", "pass"), row)) for row in rows]}


# ----------------------------------------------------------------------------
# instability modes
# ----------------------------------------------------------------------------

def _run_bootstrap(args):
    eps, order = args.epsilon, args.order
    # the default grid ends 4 past log(1/epsilon); an epsilon outside (0, 1)
    # gives no valid default grid, and ode_bootstrap rejects it before the
    # grid is read
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max = -np.log(eps) + 4.0 if args.t is None else _exactly(args, "t", 1)[0]
        t_grid = np.linspace(0.0, t_max, 81)
    r = instability.ode_bootstrap(
        np.array([[1.0]]), lambda a, b: a * b, np.array([1.0]), 1.0,
        eps, order, t_grid,
    )
    values = {k: getattr(r, k) for k in ("sigma", "sigma0", "T1", "escape_time", "residual_slope")}
    values["C"] = {f"C_{j}": c for j, c in enumerate(r.C, 1)}
    return _quantities(values, epsilon=eps, order=order)


def _run_riccati(args):
    eps, phi0 = args.epsilon, args.phi0
    (alpha,) = _exactly(args, "alpha", 1)
    values = [instability.riccati_exact(eps, alpha, phi0, float(t)) for t in args.t]
    rows = [[float(t), r.value, r.blown_up] for t, r in zip(args.t, values)]
    # the blow-up time does not depend on t
    return _table(["t", "value", "blown_up"], rows, epsilon=eps, alpha=alpha, phi0=phi0,
                  t_star=values[0].t_star)


def _run_hopf(args):
    order = args.order
    (alpha,) = _exactly(args, "alpha", 1)
    series = instability.hopf_series({1: 0.5, -1: 0.5}, alpha, order)
    report = instability.hopf_majorant(series, eta0=args.eta0, t_max=0.05)
    # the majorant's column m = 0 holds sup|u_n|, n = 1..order
    sup_norms = report["majorant"][:, 0].tolist()
    rows = [[n, s, series.recurrence_residual(n) if n >= 2 else 0.0]
            for n, s in enumerate(sup_norms, 1)]
    return ["n", "sup_norm", "recurrence_residual"], rows, {
        "alpha": alpha, "order": order, "sup_norms": sup_norms,
        "majorant": {
            k: report[k]
            for k in ("M0", "eta0", "T_ramp", "max_residual", "residual_ok",
                      "phi_min", "phi_ok", "K_max", "K_monotone_ok",
                      "K_bound_ok")
        },
    }


def _run_euler(args):
    rep = instability.euler_series(make_profile("kolmogorov"), N=args.order, modes=args.n)
    c = rep["alpha_eig"]
    return _quantities({
        "alpha_eig": {"alpha_real": c.real, "alpha_imag": c.imag},
        **{k: rep[k] for k in ("alpha_gap", "eigen_residual", "partial_sum_change")},
        "sup_norms": {f"sup_norm_{n}": s for n, s in enumerate(rep["sup_norms"], 1)},
        # the first H1 ratio is of order 2
        "h1_ratios": {f"h1_ratio_{n}": r for n, r in enumerate(rep["h1_ratios"], 2)},
    }, order=args.order, modes=args.n)


# instability mode -> (runner, {flag: default}); a mode reads its flags only.
# The bootstrap grid's default end follows epsilon, so its t default is None
MODES = {
    "bootstrap": (_run_bootstrap, {"epsilon": 1e-3, "order": 5, "t": None}),
    "riccati": (_run_riccati, {"epsilon": 0.1, "alpha": "1.0", "phi0": 0.01, "t": "0:20:11"}),
    "hopf": (_run_hopf, {"alpha": "1.0", "order": 12, "eta0": 0.25}),
    "euler": (_run_euler, {"order": 4, "n": 16}),
}


def _run_instability(args):
    """Run the mode's runner on its own flags, each unset one at its MODES
    default, and add the mode to its document; any other flag set is an error."""
    if args.mode not in MODES:
        raise ConfigurationError(
            f"unknown instability mode {args.mode!r}; expected one of {tuple(MODES)}"
        )
    runner, defaults = MODES[args.mode]
    for flag in COMMANDS["instability"][1]:
        if flag not in defaults and flag != "mode" and getattr(args, flag) is not None:
            raise ConfigurationError(f"{_option(flag)} is not a flag of instability --mode {args.mode}")
    for flag, default in defaults.items():
        if getattr(args, flag) is None:
            # a string default goes through the flag's type, as argparse's do
            setattr(args, flag, _FLAGS[flag][0](default) if isinstance(default, str) else default)
    header, rows, doc = runner(args)
    return header, rows, {"mode": args.mode, **doc}


# subcommand -> (runner, {flag: default}); flags appear in this order in --help
COMMANDS = {
    "spectrum": (_run_spectrum, {
        "profile": None, "n": 128, "map_scale": None, "alpha": "1.0", "re": None,
        "z0": None}),
    "neutral-curve": (_run_neutral_curve, {
        "profile": None, "n": 96, "map_scale": None, "alpha": "0.5:1.5", "re": None,
        "tol": 1e-4, "z0": None}),
    "resolvent": (_run_resolvent, {
        "profile": None, "n": 128, "map_scale": None, "alpha": "1.0", "c": 0.5 + 0.1j,
        "z0": None}),
    "heat-kernel": (_run_heat_kernel, {"t": "1.0", "nu": 1.0, "dx": "0.0"}),
    "semigroup": (_run_semigroup, {"n": 4, "t": "1.0", "tol": 1e-8, "seed": 0}),
    "genfunc-check": (_run_genfunc_check, {"nu": 1e-4, "order": 4, "tol": 1e-10, "seed": 0}),
    # every flag of some mode, unset until the mode's defaults fill it
    "instability": (_run_instability, {
        "mode": None, **dict.fromkeys(f for _, flags in MODES.values() for f in flags)}),
}


# subcommand or instability mode -> {library argument: the flag that sets it}
# where the names differ
_RENAMED = {"spectrum": {"N": "n", "Re": "re", "kind": "profile", "domain": "profile"},
            "resolvent": {"N": "n", "kind": "profile", "domain": "profile"}, "heat-kernel": {"x - z": "dx"},
            "neutral-curve": {"N": "n", "Re_list": "re", "alpha_window": "alpha", "alpha_tol": "tol",
                              "kind": "profile"},
            "genfunc-check": {"truncation": "order"}, "bootstrap": {"N": "order", "t_grid": "t"},
            "hopf": {"N": "order"}, "euler": {"N": "order", "modes": "n"}}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are one ConfigurationError line, not a usage block."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser():
    """The ``shearstab`` parser and its subparsers by name, built from COMMANDS."""
    parser = _Parser(prog="shearstab", description="shear-flow stability toolkit")
    sub = parser.add_subparsers(dest="subcommand")
    for name, (runner, defaults) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, default in defaults.items():
            kind, text = _FLAGS[flag]
            p.add_argument(_option(flag), type=kind, default=default, help=text)
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=FORMATS, default="csv",
                       help="output format")
        p.add_argument("--config", help="key=value config file (flags override)")
        p.set_defaults(run=runner)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = None
    try:
        # parse_range raises ConfigurationError, which argparse lets through
        args = parser.parse_args(argv)
        if not args.subcommand:
            parser.print_usage(sys.stderr)
            return 2
        if args.config:
            values = _read_config_file(args.config)
            flags = set(COMMANDS[args.subcommand][1]) | {"out", "format"}
            unknown = sorted(set(values) - flags)
            if unknown:
                raise ConfigurationError(
                    f"{args.config}: {unknown[0]!r} is not a flag of {args.subcommand}"
                )
            # config values become string defaults, converted by each flag's type
            subparsers[args.subcommand].set_defaults(**values)
            args = parser.parse_args(argv)
            # argparse checks choices only on the command line, not on defaults
            if args.format not in FORMATS:
                raise ConfigurationError(
                    f"{args.config}: format must be one of {FORMATS}, got {args.format!r}"
                )
        _emit(args, *args.run(args))
        return 0
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except ShearStabError as exc:
        # a library error begins with the argument it rejects: where a flag
        # of another name set that argument, the line ends with the flag
        renamed = _RENAMED.get(getattr(args, "mode", None) or getattr(args, "subcommand", None), {})
        flag = next((f" ({_option(f)})" for a, f in renamed.items() if str(exc).startswith(a + " ")), "")
        print(f"shearstab: {exc}{flag}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 3


if __name__ == "__main__":
    sys.exit(main())
