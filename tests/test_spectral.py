import math

import numpy as np
import pytest
import scipy.optimize

from shearstab import spectral
from shearstab.errors import ConfigurationError
from shearstab.profiles import CHANNEL, HALF_LINE, make_profile
from shearstab.spectral import brentq, build_grid
from shearstab.stability import _boundary_rows


class TestBuildGrid:
    def test_small_channel_nodes(self):
        g = build_grid(2, CHANNEL)
        assert np.allclose(g.nodes, [1.0, 0.0, -1.0], atol=1e-15)

    def test_half_line_endpoints(self):
        g = build_grid(8, HALF_LINE, map_scale=2.0)
        assert g.nodes[-1] == pytest.approx(0.0)
        assert np.isinf(g.nodes[0])

    def test_node_count_and_monotone(self):
        g = build_grid(64, CHANNEL)
        assert len(g.nodes) == 65
        assert np.all(np.diff(g.nodes) < 0)

    def test_matrix_entries_checked_before_allocation(self, monkeypatch):
        # (N + 1)^2 = 1.02e7 entries per matrix: numpy used to allocate them
        def no_matrices(n):
            raise AssertionError("built the matrices before checking their size")

        monkeypatch.setattr(spectral, "cheb_matrix", no_matrices)
        with pytest.raises(ConfigurationError, match="^N asks for more than 1e\\+07 points"):
            build_grid(3200, CHANNEL)

    def test_too_small_N(self):
        with pytest.raises(ConfigurationError):
            build_grid(1, CHANNEL)

    def test_bad_map_scale(self):
        with pytest.raises(ConfigurationError):
            build_grid(8, HALF_LINE, map_scale=-1.0)

    @pytest.mark.parametrize("domain", [CHANNEL, HALF_LINE])
    @pytest.mark.parametrize("map_scale", [np.nan, np.inf, 0.0])
    def test_map_scale_positive_and_finite(self, domain, map_scale):
        # a NaN scale used to reach numpy's SVD through the pencil
        with pytest.raises(ConfigurationError, match="map_scale"):
            build_grid(32, domain, map_scale=map_scale)

    @pytest.mark.parametrize("map_scale", [1e-300, 5e-324])
    def test_map_scale_overflowing_operators(self, map_scale):
        # the mapped operators overflowed with numpy's warnings, and the
        # pencil's SVD did not converge (exit 1 from the CLI)
        with pytest.raises(ConfigurationError, match="map_scale = .* is out of range"):
            build_grid(48, HALF_LINE, map_scale=map_scale)


class TestDiffMatrices:
    def test_constant_and_coordinate(self):
        g = build_grid(32, CHANNEL)
        D1 = g.D1
        N = g.N
        assert np.max(np.abs(D1 @ np.ones(N + 1))) <= 1e-12 * N**2
        assert np.max(np.abs(D1 @ g.nodes - 1.0)) <= 1e-10 * N**2

    def test_d2_consistency_channel(self):
        g = build_grid(48, CHANNEL)
        assert np.max(np.abs(g.D2 - g.D1 @ g.D1)) <= 1e-8 * g.N**4

    def test_geometric_convergence_exp(self):
        errs = []
        for N in (8, 16, 32):
            g = build_grid(N, CHANNEL)
            f = np.exp(g.nodes)
            errs.append(np.max(np.abs(g.D2 @ f - f)))
        # geometric decay until the roundoff floor
        assert errs[1] < max(0.2 * errs[0], 1e-9)
        assert errs[2] < max(0.2 * errs[1], 1e-9)

    def test_d1_spectral_accuracy(self):
        g = build_grid(32, CHANNEL)
        f = np.exp(g.nodes)
        assert np.max(np.abs(g.D1 @ f - f)) <= 1e-9

    def test_half_line_exp_decay(self):
        g = build_grid(96, HALF_LINE, map_scale=4.0)
        y = g.nodes
        f = np.exp(-np.where(np.isfinite(y), y, np.inf))
        df = g.D1 @ f
        mask = np.isfinite(y) & (y <= 20.0)
        assert np.max(np.abs(df[mask] + f[mask])) <= 1e-8


class TestBCRows:
    """The boundary rows of the stability pencils, on the grids built here."""

    @pytest.mark.parametrize("domain", [CHANNEL, HALF_LINE])
    @pytest.mark.parametrize("bc, n_rows", [("dirichlet", 2), ("clamped", 4)])
    def test_grid_needs_more_nodes_than_rows(self, domain, bc, n_rows):
        # N = 2 under the clamped rows used to leave a singular pencil
        for N in range(2, n_rows + 1):
            with pytest.raises(ConfigurationError, match=f">= {n_rows + 1} for the {n_rows} {bc}"):
                _boundary_rows(build_grid(N, domain), bc == "clamped")
        idx, rows = _boundary_rows(build_grid(n_rows + 1, domain), bc == "clamped")
        assert len(idx) == n_rows and rows.shape == (n_rows, n_rows + 2)

    def test_clamped_rows(self):
        g = build_grid(16, HALF_LINE, map_scale=2.0)
        idx, rows = _boundary_rows(g, True)
        idx = list(idx)
        assert g.N in idx and g.N - 1 in idx  # value + derivative at the wall
        wall_deriv = rows[idx.index(g.N - 1)]
        assert np.allclose(wall_deriv, g.D1[g.N])


# (f, a, b): smooth, steep, flat, discontinuous and one-sided brackets, with
# a root at an end, and the real U'' of the inflection-point search
BRENT_CASES = {
    "cubic": (lambda x: x**3 - 2 * x - 5, 2.0, 3.0),
    "cubic_wide": (lambda x: x**3 - 2 * x - 5, 0.0, 5.0),
    "cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
    "exp": (lambda x: math.exp(x) - 2.0, -5.0, 5.0),
    "flat": (lambda x: (x - 0.3) ** 9, 0.0, 1.0),
    "step": (lambda x: -1.0 if x < 0.123 else 1.0, 0.0, 1.0),
    "steep": (lambda x: math.tanh(50 * (x - 0.77)), 0.0, 1.0),
    "tiny_values": (lambda x: 1e-300 * (x - 0.5), 0.0, 1.0),
    # divided differences whose product underflows to 0: the step divides by zero and bisects
    "underflowing_step": (lambda x: 1e-200 * (x**3 - 0.1), 0.0, 1.0),
    "numpy_scalar": (lambda x: np.float64(x * x - 0.3), 0.0, 1.0),
    "root_at_a": (lambda x: x, 0.0, 1.0),
    "root_at_b": (lambda x: x, -1.0, 0.0),
    "tanh_d2U": (lambda x: float(make_profile("tanh", z0=1.0).d2U(x)), 0.0, 2.5),
    "kolmogorov_d2U": (lambda x: float(make_profile("kolmogorov").d2U(x)), 1.0, 2.0),
}
# the call sites' xtol: bootstrap escape time, inflection points,
# neutral-curve edges (alpha_tol / 2 at the CLI's and the bench's
# tolerances), and the smallest subnormal; 2e-12 is scipy's default
BRENT_XTOLS = [2e-12, 1e-15, 1e-14, 1e-10, 5e-3, 5e-4, 1e-4, 5e-5, 5e-324]


def _outcome(solver, f, a, b, xtol):
    """The root as a hex string, or the error's type."""
    try:
        return float(solver(f, a, b, xtol=xtol)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


class TestBrentq:
    """Brent's method, step for step scipy's: the same float, or the same
    error, on every case."""

    @pytest.mark.parametrize("name", sorted(BRENT_CASES))
    def test_same_root_as_scipy(self, name):
        f, a, b = BRENT_CASES[name]
        for xtol in BRENT_XTOLS:
            for lo, hi in ((a, b), (b, a)):
                want = _outcome(scipy.optimize.brentq, f, lo, hi, xtol=xtol)
                assert _outcome(brentq, f, lo, hi, xtol=xtol) == want, (xtol, lo, hi)

    def test_root_is_a_float(self):
        # not a numpy scalar, whatever f returns
        assert type(brentq(BRENT_CASES["numpy_scalar"][0], 0.0, 1.0, xtol=2e-12)) is float

    def test_no_sign_change_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=2e-12)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if x > 0.2 else -1.0, 0.0, 1.0, xtol=2e-12)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "BRENT_MAXITER", 3)
        with pytest.raises(RuntimeError, match="did not converge in 3 steps"):
            brentq(lambda x: (x - 0.3) ** 9, 0.0, 1.0, xtol=1e-15)
