"""The benchmark's tracer patches functions by name: every one must exist.

``perfbench/tracing.py`` wraps the package's public functions (``PUBLIC``)
and the library kernels they call (``KERNELS``, ``solve_ivp`` among them)
by module and attribute name, so a renamed or removed target breaks every
traced benchmark run.  The file is loaded by path and only read: the
tracer is not installed.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _tracing()


@pytest.mark.parametrize("module, name", [(m, n) for m, names in TRACED.PUBLIC.items() for n in names])
def test_public_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"shearstab.{module}"), name))


@pytest.mark.parametrize("module, name", [t for targets in TRACED.KERNELS.values() for t in targets])
def test_kernel_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))
