"""Import footprint: the package and the CLI load numpy and the standard library
only; scipy and sympy are loaded by the code that calls them, and each CLI
subcommand executes only the package modules it runs.

Each check runs in a fresh interpreter, since this test process has loaded
scipy and sympy already.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import shearstab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(shearstab.__file__)))


def _run(code: str):
    """Run ``code`` in a fresh interpreter; return what it prints as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(argv):
    """(exit code, loaded module names) of ``cli.main(argv)``, or of the bare
    import when ``argv`` is None.  The package registers its modules to be
    executed on first use; one counts as loaded once its code has run, when
    its class is no longer that of a registered module before any use."""
    return _run(
        "import contextlib, io, json, sys, types\n"
        "import shearstab\n"
        "lazy = type(vars(shearstab)['stability'])\n"
        "assert lazy is not types.ModuleType, lazy\n"
        "from shearstab import cli\n"
        f"argv = {argv!r}\n"
        "code = None\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "loaded = sorted(n for n, m in sys.modules.items() if type(m) is not lazy)\n"
        "print(json.dumps([code, loaded]))\n"
    )


def _matching(modules, prefixes):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


SOLVERS = ("shearstab.genfunc", "shearstab.instability", "shearstab.resolvent", "shearstab.stability")


def test_cli_import_loads_no_scipy_or_sympy():
    code, modules = _loaded_after(None)
    assert code is None
    assert "numpy" in modules
    assert _matching(modules, ("scipy", "sympy")) == []
    # the CLI's solver modules run on their first attribute access
    assert _matching(modules, SOLVERS) == []
    # the bare import executes none of the package's modules
    assert _matching(_run(
        "import json, sys, types, shearstab\n"
        "print(json.dumps(sorted(n for n, m in sys.modules.items() if type(m) is types.ModuleType)))"
    ), ("shearstab",)) == ["shearstab"]


def test_every_public_name_resolves_on_first_use():
    starred, listed, missing = _run(
        "import json, shearstab\n"
        "names = {}\n"
        "exec('from shearstab import *', names)\n"
        "print(json.dumps([sorted(n for n in names if not n.startswith('__')), sorted(dir(shearstab)),"
        " [n for n in shearstab.__all__ if getattr(shearstab, n).__name__ != n]]))\n"
    )
    assert starred == sorted(shearstab.__all__)
    assert set(shearstab.__all__) <= set(listed)
    assert missing == []


def test_submodules_resolve_after_a_bare_import():
    assert _run(
        "import json, shearstab\n"
        "print(json.dumps([shearstab.stability.os_spectrum.__name__,"
        " shearstab.errors.ConfigurationError.__name__, shearstab.profiles.CHANNEL]))\n"
    ) == ["os_spectrum", "ConfigurationError", "channel"]


# the stability path's DCT is numpy's FFT and its root finder spectral.brentq:
# scipy.fft and scipy.optimize took 0.2 s and 0.4 s of a spectrum and a
# neutral-curve run
STABILITY_PATH = ("sympy", "scipy.fft", "scipy.optimize", "scipy.integrate")


@pytest.mark.parametrize("argv, solvers, present, absent", [
    (["heat-kernel"], {"resolvent"}, (), ("scipy", "sympy")),
    (["semigroup"], {"resolvent"}, ("scipy.linalg",), ("sympy", "scipy.integrate")),
    # the Rayleigh resolvent is a stability pencil
    (["resolvent", "--profile", "exponential", "--n", "32"], {"stability"}, (), STABILITY_PATH),
    # the instability module imports the generator and Duhamel helpers
    (["instability", "--mode", "hopf", "--order", "4"], {"genfunc", "instability", "resolvent"}, (),
     ("scipy", "sympy")),
    # its modes are functions of a jet, not sympy expressions
    (["genfunc-check", "--seed", "11"], {"genfunc"}, (), ("scipy", "sympy")),
    (["spectrum", "--profile", "poiseuille", "--alpha", "1", "--re", "1e4", "--n", "64"], {"stability"},
     ("scipy.linalg",), STABILITY_PATH),
    (["neutral-curve", "--profile", "poiseuille", "--re", "6000:8000:2", "--alpha", "0.8:1.2", "--n", "48",
      "--tol", "1e-2"], {"stability"}, ("scipy.linalg",), STABILITY_PATH),
], ids=["heat-kernel", "semigroup", "resolvent", "instability-hopf", "genfunc-check", "spectrum", "neutral-curve"])
def test_subcommand_footprint(argv, solvers, present, absent):
    # a subcommand executes only the solver modules it calls
    code, modules = _loaded_after(argv)
    assert code == 0
    assert set(_matching(modules, SOLVERS)) == {f"shearstab.{s}" for s in solvers}
    assert set(present) <= set(modules)
    assert _matching(modules, absent) == []


def test_source_names_no_scipy_fft_or_optimize():
    src = pathlib.Path(SRC, "shearstab")
    named = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(r"scipy\.(fft|optimize)\b|from scipy import .*\b(fft|optimize)\b", line)]
    assert named == []


def test_genfunc_Y_is_the_mode_symbol():
    same, real, nonnegative = _run(
        "import json\n"
        "import sympy as sp\n"
        "from shearstab.genfunc import Y\n"
        "print(json.dumps([Y == sp.Symbol('y', real=True, nonnegative=True),"
        " bool(Y.is_real), bool(Y.is_nonnegative)]))\n"
    )
    assert same and real and nonnegative
