"""Spectral stability toolkit for shear flows."""

from .genfunc import (
    BLNormParams,
    FourierMode,
    GenSeries,
    bl_norm,
    divfree_bilinear,
    elliptic_gen_estimate,
    gen_series,
    laplace_solve_1d,
    strip_norms,
)
from .instability import (
    BootstrapResult,
    HopfSeries,
    RiccatiValue,
    euler_series,
    hopf_majorant,
    hopf_series,
    ode_bootstrap,
    riccati_exact,
)
from .profiles import ShearProfile, blasius_solve, inflection_points, make_profile
from .resolvent import (
    ContourSpec,
    evans_det,
    evans_locate,
    heat_green,
    parabolic_green,
    semigroup_apply,
)
from .spectral import SpectralDiscretization, build_grid
from .stability import (
    EigenSolution,
    NeutralBranch,
    fit_exponents,
    max_growth_rate,
    neutral_curve,
    os_spectrum,
    rayleigh_resolvent,
    rayleigh_spectrum,
)

__all__ = [
    "BLNormParams",
    "BootstrapResult",
    "ContourSpec",
    "EigenSolution",
    "FourierMode",
    "GenSeries",
    "HopfSeries",
    "NeutralBranch",
    "RiccatiValue",
    "ShearProfile",
    "SpectralDiscretization",
    "bl_norm",
    "blasius_solve",
    "build_grid",
    "divfree_bilinear",
    "elliptic_gen_estimate",
    "euler_series",
    "evans_det",
    "evans_locate",
    "fit_exponents",
    "gen_series",
    "heat_green",
    "hopf_majorant",
    "hopf_series",
    "inflection_points",
    "laplace_solve_1d",
    "make_profile",
    "max_growth_rate",
    "neutral_curve",
    "ode_bootstrap",
    "os_spectrum",
    "parabolic_green",
    "rayleigh_resolvent",
    "rayleigh_spectrum",
    "riccati_exact",
    "semigroup_apply",
]

__version__ = "0.1.0"
