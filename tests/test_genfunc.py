import math

import numpy as np
import pytest
import sympy as sp

from shearstab import genfunc
from shearstab.errors import ConfigurationError, QuadratureError, RegionError
from shearstab.genfunc import (
    WITH_BL,
    WITHOUT_BL,
    BLNormParams,
    FourierMode,
    GenSeries,
    Y,
    _mode_products,
    _weighted_sup,
    bl_norm,
    divfree_bilinear,
    elliptic_gen_estimate,
    gen_series,
    laplace_solve_1d,
    product_bound,
    sample_grid,
    strip_norms,
    weight_phi,
)


@pytest.fixture(scope="module")
def params():
    return BLNormParams(delta=0.05)


class TestBLNorm:
    def test_layer_profile(self, params):
        d = params.delta
        val = bl_norm(lambda y: np.exp(-y / d) / d, 0, params, WITH_BL)
        assert val == pytest.approx(1.0 / (1.0 + d), rel=1e-9)

    def test_constant_function(self, params):
        val = bl_norm(lambda y: np.ones_like(y), 0, params, WITH_BL)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_norm_orderings_random_corpus(self, params):
        rng = np.random.default_rng(5)
        y = sample_grid(params.delta)
        for _ in range(20):
            a, b, c = rng.uniform(0.2, 3.0, 3)
            vals = a * np.exp(-b * y) * np.cos(c * y)
            for ell in (0, 1, 3):
                n_d, n_d1 = _weighted_sup(y, np.stack([vals, vals]), [ell, ell + 1], params, WITH_BL)
                n_0 = _weighted_sup(y, vals[None], [ell], params, WITHOUT_BL)[0]
                assert n_d <= n_0 + 1e-14
                assert n_d1 <= n_d + 1e-14

    def test_unsettled_sup_raises(self, params):
        # the sup grows with every grid, so no two grids ever agree
        with pytest.raises(QuadratureError, match="did not settle"):
            bl_norm(lambda y: np.full(y.shape, float(y.size)), 0, params, WITH_BL)

    def test_layer_term_settles(self, params):
        # the ell = 4 coefficient of test_scaling_homogeneity's G1 still moves
        # by 2.1e-5 between the 3rd and 4th grids; the norm returns only once
        # two successive grids agree to 1e-6
        mode = FourierMode(1, sp.diff(sp.exp(-(Y**2)), Y))
        f = lambda y: mode.derivatives(y, 4)[4]  # noqa: E731
        grids = []

        def recorded(y):
            grids.append(y)
            return f(y)

        val = bl_norm(recorded, 4, params, WITH_BL)
        prev, last = (_weighted_sup(y, f(y)[None], [4], params, WITH_BL)[0] for y in grids[-2:])
        assert val == last
        assert abs(last - prev) <= 1e-6 * last

    def test_weight_shape(self):
        assert weight_phi(0.0) == 0.0
        y = np.linspace(0, 50, 200)
        w = weight_phi(y)
        assert np.all(np.diff(w) > 0)
        assert np.all(w <= 1.0)

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            BLNormParams(delta=-1.0)

    def test_from_viscosity(self):
        p = BLNormParams.from_viscosity(nu=1e-4, gamma0=2.0)
        assert p.delta == pytest.approx(2.0 * 1e-1)


def _per_order_derivative(expr, ell, y):
    """The per-order sympy path the jets replaced: one sp.diff to order ell
    and one lambdify per order, broadcast to the sample shape."""
    fn = sp.lambdify(Y, sp.diff(expr, Y, ell), "numpy")
    return np.broadcast_to(np.asarray(fn(y), dtype=complex), y.shape)


def _mpmath_table(expr, y, L, dps=60, radius=0.5, nodes=64):
    """d_y^l expr for l = 0..L at the points y, in ``dps``-digit mpmath.

    Cauchy's integral formula by the trapezoidal rule on a circle of radius
    ``radius`` about each point: for a function analytic within distance R
    of [0, y_max] the error is of order (radius / R)^nodes, below 1e-19 for
    R >= 1, and far below 1e-40 for entire functions.
    """
    import mpmath

    with mpmath.workdps(dps):
        fn = sp.lambdify(Y, expr, "mpmath")
        w = [radius * mpmath.expjpi(mpmath.mpf(2 * m) / nodes) for m in range(nodes)]
        inv = [[wm ** -ell for wm in w] for ell in range(L + 1)]
        out = np.empty((L + 1, len(y)), dtype=complex)
        for i, yi in enumerate(y):
            vals = [fn(mpmath.mpf(float(yi)) + wm) for wm in w]
            for ell in range(L + 1):
                c = mpmath.fsum(v * q for v, q in zip(vals, inv[ell])) / nodes
                out[ell, i] = complex(c * math.factorial(ell))
    return out


def _count_symbolic_calls(monkeypatch):
    """Patch sp.diff and sp.lambdify to count their calls; returns the counts."""
    calls = {"diff": 0, "lambdify": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(sp, "diff", counting("diff", sp.diff))
    monkeypatch.setattr(sp, "lambdify", counting("lambdify", sp.lambdify))
    return calls


def _table_cases():
    """(sympy expression, mode) pairs of the derivative-table tests; the
    product's mode comes from _mode_products's jet composition."""
    f06 = sp.Float(0.6) * sp.exp(-(Y**2))
    exprs = [
        sp.Float(1.3) * sp.exp(-sp.Float(0.7) * Y),
        sp.Float(0.4) * sp.exp(-sp.Float(1.7) * Y**2),
        sp.sin(Y) * sp.exp(-Y),
        sp.exp(-Y) * sp.cos(2 * Y) / (1 + Y) ** 2,
        -sp.I * (1 - sp.exp(-Y)),
        sp.Rational(3, 2),
        sp.Integer(0),
    ]
    product = _mode_products([([FourierMode(1, sp.exp(-Y))], [FourierMode(2, f06)])], 4)[0]
    return [(sp.exp(-Y) * f06, product)] + [(e, FourierMode(1, e)) for e in exprs]


class TestDerivativeTable:
    def test_matches_mpmath_reference(self, params):
        # 60-digit reference to order 24, to 1e-13 of each order's sup.  The
        # terms of row l of e^{-y} sin y sum to 2^l / l! for a result of
        # 2^{l/2} / l!, so its orders 21..24 are held to 1e-12 (measured
        # 1.6e-13 and 5.3e-13 at orders 23 and 24)
        y = sample_grid(params.delta)[::50]
        # rows that vanish identically hold the reference's rounding noise,
        # about 10^-60 l! / radius^l
        noise = np.array([1e-50 * math.factorial(ell) * 2.0**ell for ell in range(25)])
        for expr, mode in _table_cases():
            tab = mode.derivatives(y, 24)
            ref = _mpmath_table(expr, y, 24)
            err = np.max(np.abs(tab - ref), axis=1)
            sup = np.max(np.abs(ref), axis=1)
            tol = np.full(25, 1e-13)
            if expr == sp.sin(Y) * sp.exp(-Y):
                tol[21:] = 1e-12
            assert np.all(err <= tol * sup + noise), (expr, err / np.maximum(sup, 1e-300))

    def test_matches_per_order_path(self, params):
        # sympy's diff + lambdify as a second oracle up to order 10
        y = sample_grid(params.delta)
        for expr, mode in _table_cases():
            tab = mode.derivatives(y, 10)
            assert tab.shape == (11, y.size) and tab.dtype == complex
            for ell in range(11):
                ref = _per_order_derivative(expr, ell, y)
                assert np.max(np.abs(tab[ell] - ref)) <= 1e-13 * np.max(np.abs(ref)), (expr, ell)

    def test_callable_matches_sympy(self, params):
        y = sample_grid(params.delta)
        pairs = [
            (lambda t: 0.4 * genfunc.exp(-1.7 * t**2),
             sp.Float(0.4) * sp.exp(-sp.Float(1.7) * Y**2)),
            (lambda t: genfunc.exp(-t) * genfunc.sin(t), sp.sin(Y) * sp.exp(-Y)),
            (lambda t: -1j * (1 - genfunc.exp(-t)), -sp.I * (1 - sp.exp(-Y))),
            (lambda t: (1 + t) ** -2 * genfunc.cos(2 * t), sp.cos(2 * Y) / (1 + Y) ** 2),
        ]
        # the callables take sympy's operand order, so the two agree to rounding
        for fn, expr in pairs:
            a = FourierMode(1, fn).derivatives(y, 24)
            b = FourierMode(1, expr).derivatives(y, 24)
            sup = np.max(np.abs(b), axis=1)
            assert np.all(np.max(np.abs(a - b), axis=1) <= 1e-15 * sup), expr
        mode = FourierMode(1, pairs[0][0])
        assert mode.expr is pairs[0][0]

    def test_jet_operators(self, params):
        # division, subtraction and reflected operators against the sympy walk,
        # whose operand order differs: equal to a few roundings of each row
        y = sample_grid(params.delta)
        pairs = [
            (lambda t: genfunc.cos(2 * t) / (1 + t) ** 2, sp.cos(2 * Y) / (1 + Y) ** 2),
            (lambda t: 3 / (2 + t) - t / 4 + 1, 3 / (2 + Y) - Y / 4 + 1),
            (lambda t: (t - 2) * (t * t - 1) ** 3 / (3 + genfunc.sin(t)),
             (Y - 2) * (Y**2 - 1) ** 3 / (3 + sp.sin(Y))),
        ]
        for fn, expr in pairs:
            a = FourierMode(1, fn).derivatives(y, 24)
            b = FourierMode(1, expr).derivatives(y, 24)
            sup = np.max(np.abs(b), axis=1)
            assert np.all(np.max(np.abs(a - b), axis=1) <= 1e-13 * sup), expr

    def test_no_symbolic_calls(self, monkeypatch):
        calls = _count_symbolic_calls(monkeypatch)
        mode = FourierMode(1, sp.exp(-(Y**2)))
        y = np.linspace(0.0, 3.0, 7)
        low = mode.derivatives(y, 3)
        high = mode.derivatives(y, 10)
        again = mode.derivatives(y, 5)
        assert calls == {"diff": 0, "lambdify": 0}
        # row l depends on rows 0..l only: a lower order is a prefix
        assert np.array_equal(high[:4], low) and np.array_equal(again, high[:6])

    @pytest.mark.parametrize("expr, node", [
        (sp.log(1 + Y), "log"),
        (sp.sqrt(Y), "Pow"),
        (sp.tanh(Y) * sp.exp(-Y), "tanh"),
        (sp.exp(-sp.Symbol("x") * Y), "Symbol"),
    ])
    def test_unsupported_node(self, expr, node):
        with pytest.raises(ConfigurationError, match=node):
            FourierMode(1, expr)

    def test_supplied_derivatives(self):
        mode = FourierMode(2, derivs=(lambda y: np.exp(-y), lambda y: -1.0))
        y = np.linspace(0.0, 1.0, 5)
        tab = mode.derivatives(y, 1)
        assert np.array_equal(tab, np.stack([np.exp(-y), np.full(5, -1.0)]).astype(complex))
        with pytest.raises(ConfigurationError):
            mode.derivatives(y, 2)


class TestGenSeries:
    def test_cos_mode_value(self, params):
        modes = [FourierMode(1, sp.exp(-Y) / 2), FourierMode(-1, sp.exp(-Y) / 2)]
        G = gen_series(modes, params, (2, 4), WITHOUT_BL)
        assert G(0.0, 0.0) == pytest.approx(1.0, rel=1e-9)

    def test_coefficients_nonnegative(self, params):
        G = gen_series([FourierMode(2, sp.sin(Y) * sp.exp(-Y))], params, (3, 6), WITH_BL)
        assert np.all(G.coeffs >= 0)

    def test_row_is_per_order_norm(self, params):
        # every coefficient comes from the first grid on which its own order
        # settles, exactly as a single-order bl_norm would return it (G1 of
        # test_scaling_homogeneity, whose order 4 settles a grid later)
        mode = FourierMode(1, sp.diff(sp.exp(-(Y**2)), Y))
        G = gen_series([mode], params, (3, 6), WITH_BL)
        for ell in range(7):
            single = bl_norm(lambda y: mode.derivatives(y, 6)[ell], ell, params, WITH_BL)
            assert G.coeffs[1, ell] == single

    def test_array_call_matches_scalar(self, params):
        G = gen_series([FourierMode(1, sp.exp(-Y)), FourierMode(2, sp.exp(-(Y**2)))],
                       params, (3, 6), WITH_BL)
        z1, z2 = np.meshgrid([0.0, 0.1, 0.25, 0.5], [0.0, 0.05, 0.3, 0.5, 0.7])
        vals = G(z1, z2)
        assert vals.shape == z1.shape
        for a, b, v in zip(z1.ravel(), z2.ravel(), vals.ravel()):
            scalar = G(float(a), float(b))
            assert isinstance(scalar, float)
            assert scalar == v
        assert np.array_equal(G(0.25, z2[:, 0]), vals[:, 2])

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ConfigurationError):
            GenSeries(np.array([[1.0, -0.5]]))

    def test_monotone_evaluation(self, params):
        G = gen_series([FourierMode(1, sp.exp(-Y**2))], params, (2, 6), WITH_BL)
        zs = [0.0, 0.1, 0.3, 0.5]
        for z2 in zs:
            vals = [G(z1, z2) for z1 in zs]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
        for z1 in zs:
            vals = [G(z1, z2) for z2 in zs]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_mixed_partials_nonnegative(self, params):
        G = gen_series([FourierMode(1, sp.exp(-Y) * sp.cos(Y))], params, (2, 8), WITH_BL)
        for s in (G.dz1(), G.dz2(), G.dz1().dz2(), G.dz2().dz2(), G.dz1().dz1()):
            for z1 in (0.1, 0.3):
                for z2 in (0.1, 0.3):
                    assert s(z1, z2) >= -1e-12

    def test_nan_mode_stops_at_first_grid(self, params, monkeypatch):
        # a table that is not finite cannot settle on any later grid
        grids = []
        sample_grid = genfunc.sample_grid

        def counting(*args, **kwargs):
            grids.append(1)
            return sample_grid(*args, **kwargs)

        monkeypatch.setattr(genfunc, "sample_grid", counting)
        with pytest.raises(QuadratureError, match="weighted sup is not finite at 200 nodes"):
            gen_series([FourierMode(1, lambda y: np.nan * genfunc.exp(-y))], params, (2, 4))
        assert len(grids) == 1

    def test_derivative_order_overflow(self, params):
        mode = FourierMode(1, derivs=(lambda y: np.exp(-y), lambda y: -np.exp(-y)))
        with pytest.raises(ConfigurationError):
            gen_series([mode], params, (1, 4), WITHOUT_BL)

    @pytest.mark.parametrize("truncation", [(-1, 4), (2, -2)])
    def test_negative_truncation_rejected(self, params, truncation):
        with pytest.raises(ConfigurationError, match="truncation orders must be nonnegative"):
            gen_series([FourierMode(1, sp.exp(-Y))], params, truncation)

    def test_empty_table_is_zero(self):
        # dz2 of a one-column series has no columns: its value is the empty
        # sum, 0, where the last of no partial sums was an IndexError
        G = GenSeries(np.ones((3, 1))).dz2()
        assert G.coeffs.shape == (3, 0)
        assert G(0.1, 0.2) == 0.0
        assert np.array_equal(G(np.array([0.0, 0.1]), 0.2), [0.0, 0.0])

    def test_unknown_flavor(self, params):
        # a series takes the flavors of bl_norm, and a typo is still rejected
        with pytest.raises(ConfigurationError, match="gen_detla"):
            gen_series([FourierMode(1, sp.exp(-Y))], params, (2, 4), "gen_detla")


class TestSeriesOps:
    def test_dz1_identity_exact(self, params):
        # series of d_x f equals term-wise dz1 of the series of f
        modes = [FourierMode(1, sp.exp(-Y)), FourierMode(3, sp.exp(-2 * Y))]
        dx_modes = [FourierMode(m.alpha, sp.I * m.alpha * m.expr) for m in modes]
        G = gen_series(modes, params, (4, 6), WITH_BL)
        Gx = gen_series(dx_modes, params, (4, 6), WITH_BL)
        assert np.max(np.abs(Gx.coeffs - G.dz1().coeffs)) < 1e-12

    def test_single_mode_dz1_weight(self, params):
        G = gen_series([FourierMode(1, sp.exp(-Y))], params, (2, 4), WITHOUT_BL)
        assert np.allclose(G.dz1().coeffs[1], G.coeffs[1])
        assert np.allclose(G.dz1().coeffs[0], 0.0)

    def test_unit_element_product(self, params):
        one = GenSeries(np.array([[1.0, 0.0, 0.0, 0.0, 0.0]]))
        G = gen_series([FourierMode(1, sp.exp(-Y))], params, (2, 4), WITH_BL)
        prod = product_bound(one, G)
        assert np.allclose(prod.coeffs[: G.coeffs.shape[0]], G.coeffs)

    def test_series_ops_bundle(self, params):
        a = gen_series([FourierMode(1, sp.exp(-Y))], params, (2, 4), WITHOUT_BL)
        b = gen_series([FourierMode(1, sp.exp(-Y**2))], params, (2, 4), WITH_BL)
        prod = product_bound(a, b)
        # at z2 = 0 only order-0 terms contribute: product is exact there
        for z1 in (0.0, 0.2, 0.5):
            assert prod(z1, 0.0) == pytest.approx(a(z1, 0.0) * b(z1, 0.0), rel=1e-12)
        # truncation only drops nonnegative cross terms
        for z1, z2 in [(0.2, 0.3), (0.5, 0.5)]:
            assert prod(z1, z2) <= a(z1, z2) * b(z1, z2) * (1 + 1e-12)

    def test_product_majorant_random_corpus(self, params):
        # Gen_delta(fg) <= Gen_0(f) Gen_delta(g), with the left side computed
        # independently from the symbolic product modes
        rng = np.random.default_rng(11)
        zs = [(z1, z2) for z1 in (0.0, 0.25, 0.5) for z2 in (0.1, 0.3, 0.5)]
        for _ in range(5):
            af, ag = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            cf, cg = rng.uniform(0.3, 1.5, 2)
            f = FourierMode(af, cf * sp.exp(-Y))
            g = FourierMode(ag, cg * sp.exp(-(Y**2)))
            fg = FourierMode(af + ag, f.expr * g.expr)
            Gf = gen_series([f], params, (6, 6), WITHOUT_BL)
            Gg = gen_series([g], params, (6, 6), WITH_BL)
            Gfg = gen_series([fg], params, (6, 6), WITH_BL)
            for z in zs:
                assert Gfg(*z) <= Gf(*z) * Gg(*z) * (1 + 1e-9)


class TestSampleGrid:
    @staticmethod
    def per_interval_grid(delta, n_layer, max_step):
        # the grid as one np.linspace per step wider than max_step
        near = np.linspace(0.0, min(10.0 * delta, genfunc.Y_MAX), n_layer + 1)
        far = np.geomspace(max(near[-1], 1e-12), genfunc.Y_MAX, 2 * n_layer + 1)
        y = np.unique(np.concatenate([near, far]))
        if max_step is None:
            return y
        pieces = [y]
        for i in np.flatnonzero(np.diff(y) > max_step):
            n = int(np.ceil((y[i + 1] - y[i]) / max_step))
            pieces.append(np.linspace(y[i], y[i + 1], n + 1)[1:-1])
        return np.unique(np.concatenate(pieces))

    @pytest.mark.parametrize("delta", [0.003, 0.01, 0.05, 0.2, 5.0])
    @pytest.mark.parametrize("n_layer", [1, 200, 400, 800])
    @pytest.mark.parametrize("max_step", [None, 7.0, 0.1, 0.0156, 0.0039, 0.001])
    def test_matches_per_interval_linspace(self, delta, n_layer, max_step):
        assert np.array_equal(sample_grid(delta, n_layer, max_step),
                              self.per_interval_grid(delta, n_layer, max_step))


class TestLaplaceSolve:
    def test_manufactured(self, params):
        res = laplace_solve_1d(1, lambda y: -2.0 * np.exp(-y), params)
        y = res["y"]
        assert np.max(np.abs(res["phi"] - y * np.exp(-y))) < 1e-8
        assert np.max(np.abs(res["dphi"] - (1 - y) * np.exp(-y))) < 1e-8

    def test_linearity(self, params):
        res1 = laplace_solve_1d(2, lambda y: np.exp(-y) * np.sin(y), params)
        res2 = laplace_solve_1d(2, lambda y: 2.0 * np.exp(-y) * np.sin(y), params)
        assert np.max(np.abs(res2["phi"] - 2.0 * res1["phi"])) < 1e-12

    def test_layer_source_constant_stable(self):
        # one-derivative gain: |alpha| ||grad phi|| controlled by ||f||_{0,delta}
        p = BLNormParams(delta=0.01)
        d = p.delta
        f = lambda y: np.exp(-y / d) / d
        norm_f = bl_norm(f, 0, p, WITH_BL)
        cs = []
        for refine in (0, 1):
            res = laplace_solve_1d(1, f, p, refine=refine)
            grad = res["norms"]["a2_phi"] + res["norms"]["a_dphi"]
            cs.append(grad / norm_f)
        assert cs[0] == pytest.approx(cs[1], rel=1e-4)

    def test_sup_bundle_uniform_in_alpha(self, params):
        f = lambda y: np.exp(-y) * np.cos(y)
        norm_f = bl_norm(f, 0, params, WITHOUT_BL)
        ratios = []
        for a in range(1, 33):
            res = laplace_solve_1d(a, f, params, with_bl=False)
            n = res["norms"]
            ratios.append((n["a2_phi"] + n["a_dphi"] + n["d2phi_plain"]) / norm_f)
        assert max(ratios) / min(ratios) < 20.0

    def test_bl_condition_enforced(self):
        p = BLNormParams(delta=0.01)
        with pytest.raises(ConfigurationError):
            laplace_solve_1d(11, lambda y: np.exp(-y), p, with_bl=True)  # delta a^2 = 1.21

    @pytest.mark.parametrize("alpha", list(range(1, 33)) + [500])
    def test_exponential_source_closed_form(self, params, alpha):
        # phi'' - a^2 phi = e^{-y}, phi(0) = 0, decaying
        res = laplace_solve_1d(alpha, lambda y: np.exp(-y), params, with_bl=False)
        y, a = res["y"], alpha
        if a == 1:
            phi, dphi = -0.5 * y * np.exp(-y), -0.5 * (1 - y) * np.exp(-y)
        else:
            phi = (np.exp(-y) - np.exp(-a * y)) / (1 - a**2)
            dphi = (a * np.exp(-a * y) - np.exp(-y)) / (1 - a**2)
        assert np.max(np.abs(res["phi"] - phi)) <= 1e-14 * np.max(np.abs(phi))
        assert np.max(np.abs(res["dphi"] - dphi)) <= 1e-14 * np.max(np.abs(dphi))

    @pytest.mark.parametrize("alpha", [1, 2, 10, 32, 500])
    def test_sign_changing_source_closed_form(self, params, alpha):
        # f = e^{-y} sin(10 y) = Im e^{-kappa y}, kappa = 1 - 10i
        kappa = 1 - 10j
        res = laplace_solve_1d(alpha, lambda y: np.exp(-y) * np.sin(10 * y), params, with_bl=False)
        y = res["y"]
        phi = ((np.exp(-kappa * y) - np.exp(-alpha * y)) / (kappa**2 - alpha**2)).imag
        assert np.max(np.abs(res["phi"] - phi)) <= 1e-13 * np.max(np.abs(phi))

    @pytest.mark.parametrize("alpha, step", [(40, 0.5), (300, 0.25), (2000, 0.5), (7, 4.5)])
    def test_blocked_scan_matches_recurrence(self, alpha, step):
        # steps wider than a block (a h up to 1000, where e^{a h} overflows)
        # and blocks of one point: the scan equals the per-point recurrence
        y = np.union1d(np.linspace(0.0, 1.0, 101), np.arange(1.0, genfunc.Y_MAX + step / 2, step))
        f = lambda x: np.exp(-x) * np.cos(3 * x) + 1j * x * np.exp(-2 * x)
        phi, dphi = genfunc._greens_solve(alpha, f, y)
        # the recurrences, from the same cell integrals
        a, h = alpha, np.diff(y)
        gx, gw = genfunc.legendre_rule(6)
        xq = 0.5 * h[:, None] * (gx + 1.0) + y[:-1, None]
        fq = f(xq) * (0.5 * h[:, None] * gw)
        q1 = np.sum(np.exp(-a * (y[1:, None] - xq)) * fq, axis=1)
        q2 = np.sum(np.exp(-a * (xq - y[:-1, None])) * fq, axis=1)
        I1, I2 = np.zeros(y.size, complex), np.zeros(y.size, complex)
        for j in range(y.size - 1):
            I1[j + 1] = np.exp(-a * h[j]) * I1[j] + q1[j]
        for j in range(y.size - 2, -1, -1):
            I2[j] = np.exp(-a * h[j]) * I2[j + 1] + q2[j]
        I3 = np.exp(-a * y) * I2[0]
        ref_phi, ref_dphi = -(I1 + I2 - I3) / (2 * a), 0.5 * (I1 - I2 - I3)
        assert np.all(np.isfinite(phi)) and np.all(np.isfinite(dphi))
        assert np.max(np.abs(phi - ref_phi)) <= 1e-13 * np.max(np.abs(ref_phi))
        assert np.max(np.abs(dphi - ref_dphi)) <= 1e-13 * np.max(np.abs(ref_dphi))

    def test_one_pass_per_block(self, params, monkeypatch):
        # the scan loops over blocks of a y < 30 (43 at alpha = 32), one
        # cumsum per direction each, not over the 2922 grid points
        y = sample_grid(params.delta, 200, max_step=0.5 / 32)
        calls = []
        cumsum = np.cumsum

        def counting(*args, **kwargs):
            calls.append(1)
            return cumsum(*args, **kwargs)

        monkeypatch.setattr(genfunc.np, "cumsum", counting)
        genfunc._greens_solve(32, lambda x: np.exp(-x), y)
        assert y.size == 2922
        assert len(calls) == 2 * 43


class TestEllipticEstimate:
    def test_zero_source(self, params):
        rep = elliptic_gen_estimate([FourierMode(1, sp.Integer(0))], params, 0.1)
        assert rep["C0"] == 0.0
        assert rep["C1"] == 0.0
        assert rep["finite"]

    def test_layer_source_truncation_stable(self):
        p = BLNormParams(delta=0.01)
        d = p.delta
        reps = [
            elliptic_gen_estimate([FourierMode(1, sp.exp(-Y / d) / d)], p, 0.1, truncation=(2, nl))
            for nl in (5, 10)
        ]
        assert all(r["finite"] for r in reps)
        assert reps[1]["C0"] == pytest.approx(reps[0]["C0"], rel=0.2)

    def test_no_derivative_orders(self, params):
        # N_ell = 0 passes _truncation_orders; C3's dz2 series are empty,
        # and this raised an IndexError
        rep = elliptic_gen_estimate([FourierMode(1, sp.exp(-Y))], params, 0.1, truncation=(2, 0))
        assert rep["truncation"] == (2, 0) and rep["finite"]
        assert rep["C3"] == 0.0

    def test_high_mode_rejected(self):
        p = BLNormParams(delta=0.5)
        with pytest.raises(ConfigurationError):
            elliptic_gen_estimate([FourierMode(2, sp.exp(-Y))], p, 0.1)  # delta a^2 = 2


class TestDivFreeBilinear:
    def test_zero_v(self, params):
        rep = divfree_bilinear(
            [FourierMode(0, sp.exp(-Y))],
            [FourierMode(0, sp.Integer(0))],
            [FourierMode(1, sp.exp(-(Y**2)))],
            params,
        )
        assert rep["C_dy"] == 0.0
        assert rep["finite"]

    def test_scaling_homogeneity(self, params):
        u = [FourierMode(1, sp.exp(-Y))]
        v = [FourierMode(1, -sp.I * (1 - sp.exp(-Y)))]
        g1 = [FourierMode(1, sp.exp(-(Y**2)))]
        g2 = [FourierMode(1, 2 * sp.exp(-(Y**2)))]
        G1 = gen_series([FourierMode(m.alpha, sp.diff(m.expr, Y)) for m in g1],
                        params, (3, 6), WITH_BL)
        G2 = gen_series([FourierMode(m.alpha, sp.diff(m.expr, Y)) for m in g2],
                        params, (3, 6), WITH_BL)
        assert np.allclose(G2.coeffs, 2.0 * G1.coeffs, atol=1e-12)
        r1 = divfree_bilinear(u, v, g1, params, truncation=(3, 5))
        r2 = divfree_bilinear(u, v, g2, params, truncation=(3, 5))
        # both sides scale linearly in g, so the measured constant is unchanged
        assert r2["C_dy"] == pytest.approx(r1["C_dy"], rel=1e-6)

    def test_divfree_pair_bounded(self, params):
        u = [FourierMode(1, sp.exp(-Y))]
        v = [FourierMode(1, -sp.I * (1 - sp.exp(-Y)))]
        g = [FourierMode(1, sp.exp(-(Y**2)))]
        r1 = divfree_bilinear(u, v, g, params, truncation=(3, 5))
        r2 = divfree_bilinear(u, v, g, params, truncation=(3, 7))
        assert r1["finite"] and r2["finite"]
        assert r2["C_dy"] == pytest.approx(r1["C_dy"], rel=0.2)
        assert r2["C_transport"] == pytest.approx(r1["C_transport"], rel=0.3)

    def test_no_derivative_orders(self, params):
        # N_ell = 0 raised an IndexError; dz2 of g's series is empty, 0, so
        # C_dy's right side vanishes and its ratio is infinite
        u = [FourierMode(1, sp.exp(-Y))]
        v = [FourierMode(1, -sp.I * (1 - sp.exp(-Y)))]
        g = [FourierMode(1, sp.exp(-(Y**2)))]
        rep = divfree_bilinear(u, v, g, params, truncation=(3, 0))
        assert rep["truncation"] == (3, 0)
        assert rep["C_dy"] == np.inf and np.isfinite(rep["C_transport"])

    def test_fresh_call_makes_no_symbolic_calls(self, params, monkeypatch):
        def modes():
            return ([FourierMode(1, sp.exp(-Y))], [FourierMode(1, -sp.I * (1 - sp.exp(-Y)))],
                    [FourierMode(1, sp.exp(-(Y**2)))])

        before = divfree_bilinear(*modes(), params, truncation=(3, 5))
        calls = _count_symbolic_calls(monkeypatch)
        rep = divfree_bilinear(*modes(), params, truncation=(3, 5))
        assert calls == {"diff": 0, "lambdify": 0}
        assert rep["C_dy"] == before["C_dy"] and rep["C_transport"] == before["C_transport"]

    def test_fresh_calls_keep_memory_flat(self, params):
        # jets keep no state per expression: after two warm-up calls, six
        # fresh seeded calls leave the traced heap within 1 MB (the
        # symbolic path grew the process by about 3 MB per call)
        import gc
        import tracemalloc

        rng = np.random.default_rng(7)

        def fresh_call():
            a, b, c, d = rng.uniform(0.5, 2.0, 4)
            u = [FourierMode(1, sp.Float(a) * sp.exp(-sp.Float(b) * Y))]
            v = [FourierMode(1, -sp.I * sp.Float(a / b) * (1 - sp.exp(-sp.Float(b) * Y)))]
            g = [FourierMode(1, sp.Float(c) * sp.exp(-sp.Float(d) * Y**2))]
            divfree_bilinear(u, v, g, params, truncation=(3, 5))

        for _ in range(2):
            fresh_call()
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(6):
                fresh_call()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown < 1_000_000, grown

    def test_supplied_derivatives_compose(self, params):
        # modes given as derivative tuples are jet functions too, so the
        # products, d_y and d_x of the transport estimate take them
        L = 7
        u = [FourierMode(1, derivs=[lambda y, k=k: (-1) ** k * np.exp(-y) for k in range(L)])]
        v = [FourierMode(1, derivs=[lambda y: -1j * (1 - np.exp(-y))]
                         + [lambda y, k=k: 1j * (-1) ** k * np.exp(-y) for k in range(1, L)])]
        g = [FourierMode(1, derivs=[lambda y, k=k: (-2.0) ** k * np.exp(-2 * y) for k in range(L)])]
        rep = divfree_bilinear(u, v, g, params, truncation=(3, L - 2))
        jets = divfree_bilinear([FourierMode(1, lambda y: genfunc.exp(-y))],
                                [FourierMode(1, lambda y: -1j * (1 - genfunc.exp(-y)))],
                                [FourierMode(1, lambda y: genfunc.exp(-2 * y))],
                                params, truncation=(3, L - 2))
        assert rep["finite"]
        assert rep["C_dy"] == pytest.approx(jets["C_dy"], rel=1e-12)
        assert rep["C_transport"] == pytest.approx(jets["C_transport"], rel=1e-12)
        # d_y g needs one order more than the series: one fewer supplied fails
        with pytest.raises(ConfigurationError, match="beyond supplied data"):
            divfree_bilinear(u, v, g, params, truncation=(3, L - 1))

    def test_divergence_residual_rejected(self, params):
        u = [FourierMode(1, sp.exp(-Y))]
        v_bad = [FourierMode(1, -sp.I * (1 - sp.exp(-2 * Y)))]  # d_y v != -i alpha u
        g = [FourierMode(1, sp.exp(-(Y**2)))]
        with pytest.raises(ConfigurationError):
            divfree_bilinear(u, v_bad, g, params)

    def test_nonzero_wall_value_rejected(self, params):
        u = [FourierMode(0, sp.Integer(0))]
        v_bad = [FourierMode(0, sp.Integer(1))]
        g = [FourierMode(1, sp.exp(-(Y**2)))]
        with pytest.raises(ConfigurationError):
            divfree_bilinear(u, v_bad, g, params)


class TestStripNorms:
    def test_exp_norm(self):
        rep = strip_norms(lambda z: np.exp(1j * z), rho=0.5)
        assert rep["norm"] == pytest.approx(np.exp(0.5), rel=1e-6)

    def test_product_equality_case(self):
        f = lambda z: np.exp(1j * z)
        rep = strip_norms(f, rho=0.5, g=f)
        assert rep["product_check"]["pass"]
        assert rep["product_check"]["lhs"] == pytest.approx(rep["product_check"]["rhs"], rel=1e-6)

    def test_cauchy_corpus(self):
        corpus = [
            lambda z: np.exp(1j * z),
            lambda z: 1.0 / (z**2 + 4.0),
            lambda z: np.sin(z) * np.exp(-(z**2) / 10.0),
        ]
        for f in corpus:
            rep = strip_norms(f, rho=0.5)
            assert rep["derivative_bound_check"]["C"] <= 2.0
            assert rep["product_check"]["pass"]

    def test_pencil_weighted_derivative(self):
        corpus = [
            lambda z: np.exp(1j * z),
            lambda z: 1.0 / (z**2 + 4.0),
            lambda z: np.sin(z) * np.exp(-(z**2) / 10.0),
        ]
        for f in corpus:
            rep = strip_norms(f, pencil=(0.4, 1.0))
            assert np.isfinite(rep["derivative_bound_check"]["C"])
            assert rep["derivative_bound_check"]["C"] <= 2.0
            assert rep["product_check"]["pass"]

    def test_restriction_shrinks_norm(self):
        f = lambda z: np.exp(1j * z)
        n_wide = strip_norms(f, rho=0.5)["norm"]
        n_narrow = strip_norms(f, rho=0.25)["norm"]
        assert n_narrow <= n_wide + 1e-12

    def test_nonfinite_on_domain(self):
        with pytest.raises(RegionError):
            strip_norms(lambda z: np.where(np.abs(z.imag) > 0.3, np.inf, 1.0), rho=0.5)

    def test_bad_domain_spec(self):
        with pytest.raises(ConfigurationError):
            strip_norms(lambda z: z, rho=0.5, pencil=(0.3, 1.0))
