"""CLI contracts beyond the output rows: strict JSON, config keys, input limits."""

import json
import os
import subprocess
import sys

import pytest

import shearstab

from shearstab.cli import main


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
        (["instability", "--mode", "riccati", "--alpha", "nan"], "epsilon must be nonzero and finite, alpha finite"),
        (["instability", "--mode", "riccati", "--epsilon", "nan"], "epsilon must be nonzero and finite, alpha finite"),
        (["instability", "--mode", "riccati", "--t", "nan"], "t must not be NaN"),
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
        (["spectrum", "--profile", "tanh", "--z0", "nan", "--n", "32"], "z0 must be finite"),
        (["neutral-curve", "--profile", "poiseuille", "--re", "6000", "--alpha", "0.8:1.2",
          "--n", "32", "--tol", "0"], "alpha_tol must be positive and finite"),
    ])
    def test_rejected_without_traceback(self, capsys, args, message):
        # these used to exit 1 with a traceback from numpy or scipy
        code, out, err = run_cli(capsys, args)
        assert code == 2
        assert out == "" and err.startswith(f"shearstab: {message}")


def run_child(args, timeout):
    """``shearstab.cli`` with ``args`` in a child process, on this package's source."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(shearstab.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "shearstab.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)
