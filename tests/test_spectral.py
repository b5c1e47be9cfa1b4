import numpy as np
import pytest

from shearstab import spectral
from shearstab.errors import ConfigurationError
from shearstab.profiles import CHANNEL, HALF_LINE
from shearstab.spectral import build_grid
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
