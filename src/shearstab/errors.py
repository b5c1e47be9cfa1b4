"""Exception hierarchy shared across the toolkit, and the checks that raise it.

The library checks its arguments with these helpers: counts through
``as_integer`` with their minimum and cap, finite numbers or arrays through
``check_finite``, positive ones through ``check_positive``, and sizes through
``check_points`` before anything is allocated.  Each raises
ConfigurationError with a message that begins with the argument's name.
"""

import math

import numpy as np

MAX_POINTS = 10**7
"""The most points a grid or entries a table may have.  A Green solve on a
grid of this size holds arrays of 6e7 quadrature nodes, 0.5 GB each in
floats; the package's own grids have at most about 1e5 points."""


class ShearStabError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(ShearStabError):
    """Invalid or incomplete parameters (bad N, missing profile param, ...)."""


class UnsupportedProfileError(ConfigurationError):
    """Requested profile kind is not one of the supported ones."""


class NonconvergenceError(ShearStabError):
    """An iterative solve failed to converge; carries last iterate info."""


class NumericalError(ShearStabError):
    """A linear-algebra or eigenvalue backend failed."""


class CriticalLayerError(NumericalError):
    """The phase speed c coincides with U(z) at a node, degenerating the solve."""


class QuadratureError(NumericalError):
    """Contour/kernel quadrature did not reach the requested tolerance."""


class ContourCrossesSpectrumError(NumericalError):
    """A contour node made (lambda - A) singular."""


class EssentialSpectrumError(NumericalError):
    """Spectral parameter sits in (or left of) the essential spectrum."""


class ResonanceError(NumericalError):
    """A shifted linear operator in a series recurrence is (nearly) singular."""


class NotUnstableError(NumericalError):
    """No unstable eigenvalue was found where the construction requires one."""


class RegionError(ShearStabError):
    """Zero-search region boundary passes too close to a root."""


class WindowError(ShearStabError):
    """A scan window is too narrow to bracket the sought feature."""


class InputError(ShearStabError):
    """Malformed numerical input data (empty sample, divergence residual, ...)."""


def as_integer(name, value, minimum, maximum=MAX_POINTS):
    """int(value); ConfigurationError unless value is an integer (1.0 is one)
    from ``minimum`` to ``maximum``, MAX_POINTS unless given (NaN and inf fail)."""
    try:
        if int(value) == value and minimum <= value <= maximum:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    least = "nonnegative" if minimum == 0 else f"at least {minimum:g}"
    raise ConfigurationError(f"{name} must be {least} and an integer of at most {maximum:g}, got {value!r}")


def check_finite(**values):
    """ConfigurationError unless every value is a finite number or array (NaN fails)."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            shown = repr(value) if np.ndim(value) == 0 else "a non-finite entry"
            raise ConfigurationError(f"{name} must be finite, got {shown}")


def check_positive(**params):
    """ConfigurationError unless every value is positive and finite (NaN fails)."""
    for name, value in params.items():
        if not (0 < value < math.inf):
            raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")


def check_points(name, count):
    """ConfigurationError naming ``name`` unless ``count``, the points or
    table entries that argument asks for, is at most MAX_POINTS (NaN fails).
    Called with a count formed in Python, before anything is allocated."""
    if not count <= MAX_POINTS:
        raise ConfigurationError(f"{name} asks for more than {MAX_POINTS:.0e} points, the limit of any grid or table")
