"""CLI contracts beyond the output rows: strict JSON, config keys, input limits."""

import json
import os
import subprocess
import sys
import warnings

import pytest

import shearstab

from shearstab.cli import _FLAGS, COMMANDS, MODES, _option, main
from shearstab.profiles import _PARAMS as _PROFILE_KINDS


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as RFC 8259 does."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    @pytest.mark.parametrize("args, key", [
        (["instability", "--mode", "euler", "--order", "2"], "partial_sum_change"),
        (["instability", "--mode", "bootstrap", "--t", "1"], "escape_time"),
    ])
    def test_non_finite_is_null(self, capsys, args, key):
        code, out, _ = run_cli(capsys, args + ["--format", "json"])
        assert code == 0
        assert strict_json(out)[key] is None


# small-size flags of each subcommand and instability mode
_SMALL = {
    "spectrum": ["--profile", "poiseuille", "--n", "32"],
    "neutral-curve": ["--profile", "poiseuille", "--re", "1000", "--n", "32", "--tol", "1e-2"],
    "resolvent": ["--profile", "exponential", "--n", "32"],
    "heat-kernel": [],
    "semigroup": [],
    "genfunc-check": ["--order", "2"],
    "bootstrap": ["--order", "3"],
    "riccati": [],
    "hopf": ["--order", "4"],
    "euler": ["--order", "2", "--n", "16"],
}


def _envelope_cases():
    cases = [([sub], sub, None) for sub in COMMANDS if sub != "instability"]
    cases += [(["instability", "--mode", mode], "instability", mode) for mode in MODES]
    return [pytest.param(args, sub, mode, id=" ".join(args)) for args, sub, mode in cases]


@pytest.mark.parametrize("args, subcommand, mode", _envelope_cases())
def test_json_envelope(capsys, args, subcommand, mode):
    # every document names its subcommand, and an instability document its mode
    code, out, _ = run_cli(capsys, args + _SMALL[mode or subcommand] + ["--format", "json"])
    assert code == 0
    doc = strict_json(out)
    assert doc["subcommand"] == subcommand
    assert doc.get("mode") == mode


class TestConfigKeys:
    @pytest.mark.parametrize("text, key", [
        ("T = 2\n", "'T'"),
        # a flag of another subcommand is no flag of heat-kernel
        ("t = 2\nprofile = tanh\n", "'profile'"),
    ])
    def test_unknown_key_exit_2(self, capsys, tmp_path, text, key):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, ["heat-kernel", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert key in err and str(cfg) in err

    def test_common_keys_and_flag_types(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\nformat = json\nn = 3\n")
        code, out, _ = run_cli(capsys, ["semigroup", "--config", str(cfg)])
        assert code == 0
        doc = strict_json(out)
        assert (doc["seed"], doc["dim"]) == (3, 3)

    def test_config_format_is_checked(self, capsys, tmp_path):
        # argparse checks ``choices`` only on the command line, not on defaults
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        code, out, err = run_cli(capsys, ["heat-kernel", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert "'xml'" in err and str(cfg) in err

    def test_seed_is_not_a_key_of_heat_kernel(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        code, out, err = run_cli(capsys, ["heat-kernel", "--config", str(cfg)])
        assert code == 2
        assert out == "" and "'seed'" in err

    def test_bad_config_value_names_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = abc\n")
        code, _, err = run_cli(capsys, ["semigroup", "--config", str(cfg)])
        assert code == 2
        assert "--n" in err and "'abc'" in err


class TestInputLimits:
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_semigroup_needs_positive_dimension(self, capsys, n):
        code, _, err = run_cli(capsys, ["semigroup", "--n", n])
        assert code == 2
        assert err.startswith("shearstab:") and "--n" in err

    @pytest.mark.parametrize("flag", ["--re", "--alpha"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_spectrum_needs_finite_parameters(self, capsys, flag, value):
        args = ["spectrum", "--profile", "tanh", "--z0", "1", "--n", "32", flag, value]
        code, out, err = run_cli(capsys, args)
        assert code == 2
        assert out == "" and err.startswith("shearstab:")

    @pytest.mark.parametrize("args, name", [
        (["spectrum", "--profile", "poiseuille", "--n", "2", "--re", "100"], "N"),
        (["spectrum", "--profile", "exponential", "--map-scale", "nan", "--n", "32"], "map_scale"),
    ])
    def test_spectrum_grid_checked(self, capsys, args, name):
        # these used to exit 1 with numpy's LinAlgError and a traceback
        code, out, err = run_cli(capsys, args)
        assert code == 2
        assert out == "" and err.startswith(f"shearstab: {name} must be")

    @pytest.mark.parametrize("args, message", [
        (["heat-kernel", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["spectrum", "--profile", "tanh", "--z0", "1", "--n", "32", "--seed", "3"],
         "unrecognized arguments: --seed 3"),
        (["instability", "--mode", "hopf", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["spectrum", "--profile", "poiseuille", "--z0", "1", "--n", "32"],
         "shearstab: z0 is not a parameter of the poiseuille profile"),
    ])
    def test_unread_flag_exit_2(self, capsys, args, message):
        # --seed used to be accepted by every subcommand, and --z0 by every
        # profile, and ignored where nothing reads them, with exit 0
        code, out, err = run_cli(capsys, args)
        assert code == 2
        assert out == "" and message in err

    @pytest.mark.parametrize("sub", ["semigroup", "genfunc-check"])
    def test_negative_seed_exit_2(self, capsys, sub):
        # numpy's default_rng used to raise its ValueError, with exit 1
        code, out, err = run_cli(capsys, [sub, "--seed", "-1"])
        assert code == 2
        assert out == "" and "argument --seed: invalid seed value: '-1'" in err

    @pytest.mark.parametrize("args, code, message", [
        (["instability", "--mode", "bootstrap", "--epsilon", "inf", "--t", "5"], 2, "epsilon must lie in (0, 1)"),
        (["instability", "--mode", "bootstrap", "--epsilon", "1e300", "--t", "5"], 2, "epsilon must lie in (0, 1)"),
        (["instability", "--mode", "bootstrap", "--epsilon", "0"], 2, "epsilon must lie in (0, 1)"),
        (["instability", "--mode", "bootstrap", "--epsilon", "-1"], 2, "epsilon must lie in (0, 1)"),
        (["instability", "--mode", "bootstrap", "--epsilon", "100"], 2, "epsilon must lie in (0, 1)"),
        (["semigroup", "--tol", "nan"], 2, "tol must be positive and finite"),
        (["semigroup", "--tol", "inf"], 2, "tol must be positive and finite"),
        (["semigroup", "--tol", "-1"], 2, "tol must be positive and finite"),
        (["semigroup", "--tol", "0"], 2, "tol must be positive and finite"),
        (["genfunc-check", "--tol", "nan"], 2, "tol must be positive and finite"),
        (["genfunc-check", "--tol", "-1"], 2, "tol must be positive and finite"),
        (["instability", "--mode", "hopf", "--alpha", "1e-300"], 3,
         "hopf series coefficients overflow at order n=3"),
        (["instability", "--mode", "hopf", "--eta0", "1e300"], 3, "Gen(u_1) is not finite"),
        (["instability", "--mode", "hopf", "--eta0", "-1"], 2, "eta0 must be positive and finite"),
        (["instability", "--mode", "hopf", "--alpha", "1e-20"], 3, "majorant residual alpha G_t - G G_z"),
        (["instability", "--mode", "bootstrap", "--t", "1e300"], 2, "t_grid ends at 1e+300, past 70.9783"),
        (["instability", "--mode", "bootstrap", "--t", "100"], 2, "t_grid ends at 100, past 70.9783"),
        # a map scale whose wall-derivative row underflows
        (["neutral-curve", "--profile", "exponential", "--re", "1e5:1e6:2", "--alpha", "0.05:0.3", "--n", "48",
          "--map-scale", "1e300"], 2, "the boundary row at node 47 has norm 0"),
    ])
    def test_one_line_error(self, args, code, message):
        # bootstrap epsilon inf and 1e300 exited 1 with a traceback from
        # brentq, 0 and -1 printed numpy's log warnings first; bootstrap t
        # 1e300 printed 14 lines of numpy overflow warnings before exit 3,
        # and t 100 printed overflow warnings before an exit 0; the tolerances
        # exited 0; the hopf cases printed numpy's overflow warnings before
        # the message, or (alpha 1e-20) before an exit 0 on an overflowed
        # majorant; hopf eta0 -1 exited 3, as if found by computation.  Each
        # runs in a child process that a timeout can stop, so that any
        # warning shows on its stderr
        proc = run_child(args, timeout=30)
        assert proc.returncode == code
        assert proc.stdout == "" and proc.stderr.startswith(f"shearstab: {message}")
        assert proc.stderr.count("\n") == 1

    def test_bootstrap_nan_time_returns(self):
        # this case used to integrate without end, so it runs in a child
        # process that a timeout can stop
        proc = run_child(["instability", "--mode", "bootstrap", "--t", "nan"], timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.startswith("shearstab: t_grid must be finite")

    @pytest.mark.parametrize("args, code, message", [
        (["heat-kernel", "--t", "nan"], 2, "t must be positive and finite"),
        (["heat-kernel", "--t", "inf"], 2, "t must be positive and finite"),
        (["heat-kernel", "--nu", "nan"], 2, "nu must be positive and finite"),
        (["heat-kernel", "--nu", "inf"], 2, "nu must be positive and finite"),
        (["heat-kernel", "--dx", "nan"], 2, "x - z must be finite"),
        (["semigroup", "--t", "nan"], 2, "t must be nonnegative and finite"),
        (["semigroup", "--t", "inf"], 2, "t must be nonnegative and finite"),
        (["semigroup", "--t", "1e300"], 3, "three-segment quadrature is not finite at 32 nodes"),
        (["heat-kernel", "--dx", "1e300"], 3, "heat-parabola quadrature is not finite at 64 nodes"),
    ])
    def test_contour_inputs_return(self, args, code, message):
        # these used to double the quadrature nodes without end, so they run
        # in a child process that a timeout can stop; the overflowing ones
        # also printed numpy's warnings before the one line of the error
        proc = run_child(args, timeout=30)
        assert proc.returncode == code
        assert proc.stdout == "" and proc.stderr.startswith(f"shearstab: {message}")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("args, message", [
        (["spectrum", "--profile", "tanh", "--z0", "1", "--n", "32", "--alpha", "1e300"],
         "alpha = 1e+300 is too large"),
        (["resolvent", "--profile", "exponential", "--n", "32", "--alpha", "1e300"],
         "alpha = 1e+300 is too large"),
        (["resolvent", "--profile", "exponential", "--n", "32", "--c", "inf"], "c must be finite"),
        (["resolvent", "--profile", "exponential", "--n", "32", "--c", "nan+0j"], "c must be finite"),
        (["instability", "--mode", "hopf", "--alpha", "inf"], "alpha must be positive and finite"),
        (["instability", "--mode", "riccati", "--phi0", "inf"], "phi0 must be positive and finite"),
        (["instability", "--mode", "riccati", "--alpha", "nan"], "alpha must be finite, got nan"),
        (["instability", "--mode", "riccati", "--epsilon", "nan"], "epsilon must be finite, got nan"),
        (["instability", "--mode", "riccati", "--t", "nan"], "t must be finite, got nan"),
        (["genfunc-check", "--nu", "nan"], "nu must be positive and finite"),
        (["genfunc-check", "--nu", "inf"], "nu must be positive and finite"),
    ])
    def test_non_finite_or_overflowing_input_exit_2(self, capsys, args, message):
        # these exited 0 with nan or inf rows, exited 1 with an OverflowError
        # traceback, or (genfunc-check --nu nan) refined eight grids to exit 3
        code, out, err = run_cli(capsys, args)
        assert code == 2
        assert out == "" and err.startswith(f"shearstab: {message}")

    @pytest.mark.parametrize("args, message", [
        (["genfunc-check", "--order", "-1"], "truncation orders must be nonnegative"),
        # a 1e5 x 1e5 random matrix, 80 GB: numpy's MemoryError
        (["semigroup", "--n", "100000"], "--n asks for more than 1e+07 points"),
        (["spectrum", "--profile", "tanh", "--z0", "nan", "--n", "32"], "z0 must be finite"),
        (["neutral-curve", "--profile", "poiseuille", "--re", "6000", "--alpha", "0.8:1.2",
          "--n", "32", "--tol", "0"], "alpha_tol must be positive and finite"),
    ])
    def test_rejected_without_traceback(self, capsys, args, message):
        # these used to exit 1 with a traceback from numpy or scipy
        code, out, err = run_cli(capsys, args)
        assert code == 2
        assert out == "" and err.startswith(f"shearstab: {message}")


@pytest.mark.parametrize("args, message, flag", [
    (["instability", "--mode", "euler", "--order", "100000"], "N asks for more than 1e+07 points", "--order"),
    (["instability", "--mode", "euler", "--n", "100000"], "modes asks for more than 1e+07 points", "--n"),
    (["neutral-curve", "--profile", "poiseuille", "--re", "6000", "--alpha", "0.8:1.2", "--n", "32",
      "--tol", "0"], "alpha_tol must be positive and finite", "--tol"),
    (["spectrum", "--profile", "poiseuille", "--n", "1"], "N must be", "--n"),
    (["instability", "--mode", "hopf", "--order", "0"], "N must be", "--order"),
    (["instability", "--mode", "bootstrap", "--order", "1"], "N must be", "--order"),
    (["genfunc-check", "--order", "30"], "truncation orders must be", "--order"),
    # an unknown profile kind, or a profile no grid holds, names the profile flag
    *(([sub, "--profile", "foo"], "kind must be one of ('poiseuille', 'exponential', 'tanh', 'blasius', "
       "'kolmogorov'), got 'foo'", "--profile") for sub in ("spectrum", "neutral-curve", "resolvent")),
    *(([sub, "--profile", "kolmogorov"], "domain must be one of ('channel', 'half_line'), got 'torus'", "--profile")
      for sub in ("spectrum", "resolvent")),
    # the flag has the argument's name: nothing is added
    (["heat-kernel", "--nu", "nan"], "nu must be positive and finite, got nan", None),
    (["neutral-curve", "--profile", "kolmogorov", "--re", "100"],
     "profile must be on one of ('channel', 'half_line'), got the kolmogorov profile on the torus", None),
    # printed 800,inf,false with numpy's overflow warning and exited 0
    (["instability", "--mode", "riccati", "--alpha", "0", "--epsilon", "1", "--t", "800"],
     "t = 800.0 is too large: phi(t) is not finite there", None),
    # a repeated Re printed the same row twice and exited 0
    (["neutral-curve", "--profile", "poiseuille", "--re", "8000:8000:2", "--n", "32"],
     "Re_list must be positive and strictly increasing, got [8000.0, 8000.0]", "--re"),
])
def test_error_names_the_flag_typed(capsys, args, message, flag):
    # the library names its own argument, N or modes; the line ends with
    # the flag that set it where the two names differ
    code, out, err = run_cli(capsys, args)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"shearstab: {message}")
    assert err.endswith(f" ({flag})\n" if flag else f"{message}\n")


def _flags_not_read():
    """(argv, config text or None, flag): runs that set a flag they do not read."""
    cases = [
        (["instability", "--mode", mode, "--" + flag, "1"], None, flag)
        for mode, (_, read) in MODES.items()
        for flag in COMMANDS["instability"][1]
        if flag != "mode" and flag not in read
    ]
    cases.append((["instability", "--mode", "euler"], "phi0 = 1\n", "phi0"))
    cases += [
        ([sub, "--profile", "poiseuille", "--map-scale", "7", "--n", "32"], None, "map-scale")
        for sub, (_, flags) in COMMANDS.items() if "map_scale" in flags
    ]
    # one-value flags given a range, and a window given three values
    cases += [
        (["resolvent", "--profile", "exponential", "--n", "32", "--alpha", "1:2:3"], None, "alpha"),
        (["instability", "--mode", "riccati", "--alpha", "1:2:3"], None, "alpha"),
        (["instability", "--mode", "hopf", "--alpha", "1:2:3"], None, "alpha"),
        (["instability", "--mode", "bootstrap", "--t", "1:2:3"], None, "t"),
        (["neutral-curve", "--profile", "poiseuille", "--re", "7000", "--alpha", "0.8:1.0:3",
          "--n", "32"], None, "alpha"),
    ]
    return [pytest.param(*case, id=" ".join(case[0]) + (" --config " + case[1].strip() if case[1] else ""))
            for case in cases]


@pytest.mark.parametrize("args, config, flag", _flags_not_read())
def test_flag_not_read_exit_2(capsys, tmp_path, args, config, flag):
    # every instability flag used to be accepted under every mode, and
    # --map-scale under channel profiles, and ignored where nothing reads
    # them; a one-value flag kept one value of a range, and the window its
    # min and max.  Each stops before any computation
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        args = args + ["--config", str(cfg)]
    code, out, err = run_cli(capsys, args)
    assert code == 2
    assert out == "" and err.startswith(f"shearstab: --{flag} ")
    assert err.count("\n") == 1


# every numeric flag of every subcommand and instability mode (39 pairs) is
# run at each of these values: 273 cases
_SWEEP = ("nan", "inf", "-1", "0", "1e300", "1e-300", "5e-324")
# the small base of each run; --z0 runs on the tanh profile and every other
# flag on the exponential one, whose half-line grid reads --map-scale
_SWEEP_BASE = {
    "spectrum": {"profile": "exponential", "n": "48"},
    "neutral-curve": {"profile": "exponential", "n": "48", "re": "1e5:1e6:2", "alpha": "0.05:0.3"},
    "resolvent": {"profile": "exponential", "n": "48"},
}
# besides its choices, each name flag is given the empty name and an unknown one
_NAMES = ("", "nosuch")
# config files of heat-kernel, each written by its function at the path given
_CONFIGS = {
    "line without =": lambda path: path.write_text("t 2\n"),
    "empty key": lambda path: path.write_text("= 2\n"),
    "empty value": lambda path: path.write_text("t =\n"),
    "unknown key": lambda path: path.write_text("zzz = 1\n"),
    "config key": lambda path: path.write_text("config = other.cfg\n"),
    "missing path": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "non-UTF-8 bytes": lambda path: path.write_bytes(b"\xff\xfe t = 1\n"),
}


def _argv(head, base):
    return head + [a for k, v in base.items() for a in (_option(k), v)]


def _sweep_cases():
    runs = [(sub, [sub], flags) for sub, (_, flags) in COMMANDS.items() if sub != "instability"]
    runs += [(mode, ["instability", "--mode", mode], flags) for mode, (_, flags) in MODES.items()]
    cases = []
    for name, head, flags in runs:
        for flag in (f for f in flags if _FLAGS[f][0] is not str):
            for value in _SWEEP:
                base = dict(_SWEEP_BASE.get(name, {}))
                if flag == "z0":
                    base["profile"] = "tanh"
                base[flag] = value
                cases.append((_argv(head, base), None))
    # the name flags: every --profile of each subcommand that reads one (21
    # cases) and every --mode of instability (6 cases)
    for sub, base in _SWEEP_BASE.items():
        for kind in (*_PROFILE_KINDS, *_NAMES):
            extra = {"z0": "1"} if kind == "tanh" else {}
            cases.append((_argv([sub], {**base, "profile": kind, **extra}), None))
    cases += [(["instability", "--mode", mode], None) for mode in (*MODES, *_NAMES)]
    # --config: malformed, unreadable and undecodable files (8 cases)
    cases += [(["heat-kernel", "--config"], name) for name in _CONFIGS]
    return [pytest.param(argv, config, id=" ".join(argv) + (f" <{config}>" if config else ""))
            for argv, config in cases]


@pytest.mark.parametrize("argv, config", _sweep_cases())
def test_generated_input_contract(capsys, tmp_path, argv, config):
    # map scales, Reynolds numbers and tolerances at the float limits exited
    # 1 with a traceback; riccati at a tiny epsilon and hopf at a tiny eta0
    # printed numpy's warnings before an exit 0; argparse's rejections
    # printed a usage block of 3-5 lines; a config file of non-UTF-8 bytes
    # exited 1 with a UnicodeDecodeError traceback
    if config is not None:
        cfg = tmp_path / "run.cfg"
        _CONFIGS[config](cfg)
        argv = argv + [str(cfg)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code:
        assert err.startswith("shearstab: ") and err.count("\n") == 1


def run_child(args, timeout):
    """``shearstab.cli`` with ``args`` in a child process, on this package's source."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(shearstab.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "shearstab.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)
