"""Exception hierarchy shared across the toolkit, and the checks that raise it.

A rejected argument is a ConfigurationError whose message begins with the
argument's name; the other classes report failures found by computation.
These helpers decide what a valid argument is: counts through
``as_integer`` with their minimum and cap, arrays through ``as_array``,
finite numbers through ``check_finite``, one number through ``check_scalar``,
one real number through ``check_real``, one positive, finite number through
``check_positive``, sizes through ``check_points`` before anything is allocated,
records (profiles, grids, parameter sets, series, branches) through
``check_record``, lists of objects of one class (the mode lists of
``genfunc``) through ``as_records`` and callables (functions of y or z, forcings, sources,
bilinear forms) through ``check_callable``.
"""

import math
import numbers

import numpy as np

MAX_POINTS = 10**7
"""The most points a grid or entries a table may have.  A Green solve on a
grid of this size holds arrays of 6e7 quadrature nodes, 0.5 GB each in
floats; the package's own grids have at most about 1e5 points."""


class ShearStabError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(ShearStabError):
    """A rejected argument: invalid, missing or out of range, named in the message."""


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
    """A scan window, found by computation, does not bracket the sought feature."""


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


def as_array(name, value, ndim, size=None, real=True):
    """``value`` as a finite float (complex unless ``real``) array of ``ndim`` dimensions and
    ``size`` entries where given; a matrix may be a number or a vector, raised as by
    ``np.atleast_2d``, a list (``ndim`` 1) not one number.  Else ConfigurationError naming ``name``."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError, OverflowError):  # a ragged nesting
        a = None
    if a is None or a.dtype.kind not in ("biuf" if real else "biufc"):
        raise ConfigurationError(f"{name} must be an array of {'real ' if real else ''}numbers, got {value!r:.60}")
    if a.ndim > ndim or (ndim == 1 and a.ndim == 0) or (size is not None and a.size != size):
        shape = f"{ndim}-D array" if size is None else f"{ndim}-D array of length {size}"
        raise ConfigurationError(f"{name} must be a {shape}, got shape {a.shape}")
    a = np.asarray(a.reshape((1,) * (ndim - a.ndim) + a.shape), dtype=float if real else complex)
    check_finite(**{name: a})
    return a


def check_finite(**values):
    """ConfigurationError unless every value is a finite number or array (NaN fails)."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            shown = repr(value) if np.ndim(value) == 0 else "a non-finite entry"
            raise ConfigurationError(f"{name} must be finite, got {shown}")


def check_scalar(**values):
    """ConfigurationError unless every value is one number, not an array, a
    string or None; ``check_finite`` decides whether it is finite."""
    for name, value in values.items():
        if np.ndim(value) != 0:
            raise ConfigurationError(f"{name} must be a number, got shape {np.shape(value)}")
        if not (isinstance(value, numbers.Number) or np.asarray(value).dtype.kind in "biufc"):
            raise ConfigurationError(f"{name} must be a number, got {value!r}")


def check_real(**values):
    """ConfigurationError unless every value is one number, not complex (1+0j fails)."""
    check_scalar(**values)
    for name, value in values.items():
        if np.iscomplexobj(value):
            raise ConfigurationError(f"{name} must be a real number, got {value!r}")


def check_positive(**params):
    """ConfigurationError unless every value is one real number, positive and finite (NaN fails)."""
    check_real(**params)
    for name, value in params.items():
        if not (0 < value < math.inf):
            raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")


def check_points(name, count):
    """ConfigurationError naming ``name`` unless ``count``, the points or
    table entries that argument asks for, is at most MAX_POINTS (NaN fails).
    Called with a count formed in Python, before anything is allocated."""
    if not count <= MAX_POINTS:
        raise ConfigurationError(f"{name} asks for more than {MAX_POINTS:.0e} points, the limit of any grid or table")


def check_record(name, value, cls):
    """ConfigurationError naming ``name`` unless ``value`` is a ``cls``, the
    record whose fields the caller reads."""
    if not isinstance(value, cls):
        raise ConfigurationError(f"{name} must be a {cls.__name__}, got {value!r:.60}")


def as_records(name, value, cls):
    """``value`` as a list of ``cls`` objects; ConfigurationError naming
    ``name`` unless it is an iterable, not a string, of nothing else."""
    try:
        records = None if isinstance(value, str) else list(value)
    except TypeError:
        records = None
    if records is None or not all(isinstance(r, cls) for r in records):
        raise ConfigurationError(f"{name} must be a list of {cls.__name__} objects, got {value!r:.60}")
    return records


def check_callable(**values):
    """ConfigurationError naming the argument unless every value is callable."""
    for name, value in values.items():
        if not callable(value):
            raise ConfigurationError(f"{name} must be a callable, got {value!r:.60}")
