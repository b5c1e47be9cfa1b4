"""Import footprint: the package and the CLI load numpy and the standard library
only; scipy and sympy are loaded by the code that calls them.

Each check runs in a fresh interpreter, since this test process has loaded
scipy and sympy already.
"""

import json
import os
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
    import when ``argv`` is None."""
    return _run(
        "import contextlib, io, json, sys\n"
        "from shearstab import cli\n"
        f"argv = {argv!r}\n"
        "code = None\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )


def _matching(modules, prefixes):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_cli_import_loads_no_scipy_or_sympy():
    code, modules = _loaded_after(None)
    assert code is None
    assert "numpy" in modules
    assert _matching(modules, ("scipy", "sympy")) == []


@pytest.mark.parametrize("argv, absent", [
    (["heat-kernel"], ("scipy", "sympy")),
    (["instability", "--mode", "hopf", "--order", "4"], ("scipy", "sympy")),
    # its modes are functions of a jet, not sympy expressions
    (["genfunc-check", "--seed", "11"], ("scipy", "sympy")),
    (["spectrum", "--profile", "poiseuille", "--re", "1e3", "--n", "32"],
     ("sympy", "scipy.integrate")),
])
def test_subcommand_footprint(argv, absent):
    code, modules = _loaded_after(argv)
    assert code == 0
    assert _matching(modules, absent) == []


def test_genfunc_Y_is_the_mode_symbol():
    same, real, nonnegative = _run(
        "import json\n"
        "import sympy as sp\n"
        "from shearstab.genfunc import Y\n"
        "print(json.dumps([Y == sp.Symbol('y', real=True, nonnegative=True),"
        " bool(Y.is_real), bool(Y.is_nonnegative)]))\n"
    )
    assert same and real and nonnegative
