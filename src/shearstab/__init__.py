"""Spectral stability toolkit for shear flows.

The package's modules are registered when it is imported and executed on
their first attribute access (importlib's LazyLoader), and each public name
is read from its module on first access (PEP 562), so ``import shearstab``
compiles no module and a caller pays only for the modules it uses.  Being
in sys.modules from the start, the modules are found by a tool that wraps
their functions (a tracer), and a name is read from its module at each
access, so a wrapped function is the one returned.
"""

import importlib.util
import sys


def _on_first_use(name):
    """Register the module ``shearstab.<name>``, to be executed on its first
    attribute access, and bind it here; one already imported (as on a
    reload of the package) is bound as it is."""
    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[fullname])
    globals()[name] = sys.modules[fullname]


for _name in ("errors", "genfunc", "instability", "profiles", "resolvent", "spectral", "stability"):
    _on_first_use(_name)
del _name

# the public names, each with the module that defines it
_MODULES = {
    **dict.fromkeys(("BLNormParams", "FourierMode", "GenSeries", "bl_norm", "divfree_bilinear",
                     "elliptic_gen_estimate", "gen_series", "laplace_solve_1d", "strip_norms"), "genfunc"),
    **dict.fromkeys(("BootstrapResult", "HopfSeries", "RiccatiValue", "euler_series", "hopf_majorant",
                     "hopf_series", "ode_bootstrap", "riccati_exact"), "instability"),
    **dict.fromkeys(("ShearProfile", "blasius_solve", "inflection_points", "make_profile"), "profiles"),
    **dict.fromkeys(("evans_det", "evans_locate", "heat_green", "parabolic_green", "semigroup_apply"),
                    "resolvent"),
    **dict.fromkeys(("SpectralDiscretization", "build_grid"), "spectral"),
    **dict.fromkeys(("EigenSolution", "NeutralBranch", "fit_exponents", "max_growth_rate", "neutral_curve",
                     "os_spectrum", "rayleigh_resolvent", "rayleigh_spectrum"), "stability"),
}

__all__ = sorted(_MODULES)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_MODULES[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
