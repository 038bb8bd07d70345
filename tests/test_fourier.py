"""Frequency picture: transform, weighted composition, adjoint, norms."""

import math

import mpmath as mp
import numpy as np
import pytest

import pwlab
from pwlab import AffineSymbol, AliasingError, L2Function, OverflowGuardError
from pwlab.fourier import _grid_exp

from oracles import dense_transform, exp_rounding_bound

SEED = pwlab.DEFAULT_SEED


def unit_smooth(a, half_width, rng):
    f = pwlab.smooth_probe(a, half_width, rng)
    return pwlab.scaled(f, 1.0 / f.norm())


class TestGridAndContainer:
    def test_midpoint_grid(self):
        a, m = 2.0, 8
        t = pwlab.l2_grid(a, m)
        assert t.size == m
        step = 2.0 * a / m
        np.testing.assert_allclose(t, -a + (np.arange(m) + 0.5) * step)
        np.testing.assert_allclose(t, -t[::-1])

    def test_validation(self):
        with pytest.raises(ValueError):
            L2Function(0.0, np.ones(4))
        with pytest.raises(ValueError):
            L2Function(1.0, np.zeros((2, 2)))

    def test_values_must_be_finite(self):
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                L2Function(1.0, [bad, 1, 2, 3, 4, 5, 6, 7])

    def test_inner_needs_matching_grids(self):
        F = L2Function(1.0, np.ones(8))
        with pytest.raises(ValueError):
            F.inner(L2Function(1.0, np.ones(16)))
        with pytest.raises(ValueError):
            F.inner(L2Function(2.0, np.ones(8)))


class TestTransform:
    def test_norm_preserved(self):
        rng = np.random.default_rng(SEED)
        for a in (1.0, math.pi, 2.5):
            f = pwlab.rough_probe(a, 32, rng)
            F = pwlab.to_l2(f, 4096)
            assert abs(F.norm() - f.norm()) < 1e-9 * f.norm()

    def test_inner_products_preserved(self):
        rng = np.random.default_rng(SEED + 1)
        a = 1.5
        f = pwlab.rough_probe(a, 24, rng)
        g = pwlab.rough_probe(a, 24, rng)
        lhs = pwlab.inner_product(f, g)
        rhs = pwlab.to_l2(f, 4096).inner(pwlab.to_l2(g, 4096))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_round_trip_recovers_samples(self):
        rng = np.random.default_rng(SEED + 2)
        f = pwlab.rough_probe(2.0, 20, rng)
        back = pwlab.from_l2(pwlab.to_l2(f, 1024), 20)
        assert np.max(np.abs(back.samples - f.samples)) < 1e-10

    def test_coarse_grid_raises_instead_of_aliasing(self):
        rng = np.random.default_rng(SEED + 4)
        f = pwlab.rough_probe(1.0, 32, rng)
        for m in (32, 64):
            with pytest.raises(pwlab.AliasingError):
                pwlab.to_l2(f, m)
        assert issubclass(pwlab.AliasingError, pwlab.PwLabError)
        assert issubclass(pwlab.AliasingError, ValueError)
        # 2N+1 points are enough for an exact round trip
        back = pwlab.from_l2(pwlab.to_l2(f, 65), 32)
        assert np.max(np.abs(back.samples - f.samples)) < 1e-10

    def test_round_trip_wider_window_pads_with_zeros(self):
        rng = np.random.default_rng(SEED + 3)
        f = pwlab.rough_probe(1.0, 8, rng)
        back = pwlab.from_l2(pwlab.to_l2(f, 512), 12)
        np.testing.assert_allclose(back.samples[4:-4], f.samples, atol=1e-10)
        assert np.max(np.abs(back.samples[:4])) < 1e-10
        assert np.max(np.abs(back.samples[-4:])) < 1e-10

    def test_transform_of_node_function_is_pure_phase(self):
        # node indicator at node j transforms to e^{-i j pi t / a} / sqrt(2a)
        a, j = 1.0, 3
        F = pwlab.to_l2(pwlab.node_function(a, 8, j), 256)
        t = F.grid()
        expected = np.exp(-1j * j * math.pi * t / a) * math.sqrt(math.pi / a) / math.sqrt(2 * a)
        assert np.max(np.abs(F.values - expected)) < 1e-12


class TestWeightedComposition:
    def test_support_is_exact(self):
        rng = np.random.default_rng(SEED + 4)
        a = 1.0
        F = pwlab.to_l2(pwlab.rough_probe(a, 16, rng), 2048)
        for c in (0.5, -0.25):
            out = pwlab.weighted_compose_apply(AffineSymbol(c, 0.3 + 0.2j), F)
            t = out.grid()
            outside = np.abs(t) >= abs(c) * a
            assert np.all(out.values[outside] == 0.0)
            assert np.any(out.values[~outside] != 0.0)

    def test_identity_path_is_pure_weight(self):
        rng = np.random.default_rng(SEED + 5)
        a = 2.0
        F = pwlab.to_l2(pwlab.rough_probe(a, 16, rng), 1024)
        d = 0.4 - 0.7j
        out = pwlab.weighted_compose_apply(AffineSymbol(1.0, d), F)
        # the weight itself is held against mpmath in TestGridExp
        expected = _grid_exp(1j * d, a, F.m_points, 0, F.m_points) * F.values
        assert np.max(np.abs(out.values - expected)) == 0.0

    def test_reflection_path_is_weighted_flip(self):
        rng = np.random.default_rng(SEED + 6)
        a = 1.0
        F = pwlab.to_l2(pwlab.rough_probe(a, 16, rng), 1024)
        d = 1.0 + 0.5j
        out = pwlab.weighted_compose_apply(AffineSymbol(-1.0, d), F)
        t = F.grid()
        expected = np.exp(-1j * d * t) * F.values[::-1]
        assert np.max(np.abs(out.values - expected)) < 1e-14 * np.max(np.abs(F.values))

    def test_commuting_square_single_symbol(self):
        rng = np.random.default_rng(SEED + 7)
        a = 1.0
        phi = AffineSymbol(0.5, 1.0 + 1.0j)
        f = unit_smooth(a, 96, rng)
        path_a = pwlab.to_l2(pwlab.compose_apply(phi, f, grow=True), 4096)
        path_b = pwlab.weighted_compose_apply(phi, pwlab.to_l2(f, 4096))
        diff = L2Function(a, path_a.values - path_b.values).norm()
        assert diff < 1e-9

    def test_adjoint_pairing(self):
        rng = np.random.default_rng(SEED + 8)
        a = 1.0
        m = 32768
        F = pwlab.to_l2(unit_smooth(a, 16, rng), m)
        G = pwlab.to_l2(unit_smooth(a, 16, rng), m)
        for phi in (AffineSymbol(0.5, 0.3 + 0.4j), AffineSymbol(-0.5, 1j), AffineSymbol(1.0, 2.0 - 1j)):
            lhs = pwlab.weighted_compose_apply(phi, F).inner(G)
            rhs = F.inner(pwlab.weighted_compose_adjoint(phi, G))
            assert abs(lhs - rhs) < 1e-6

    def test_adjoint_pairing_at_large_weight_exponent(self):
        # a |Im d| = 100 bounds both weights, though a |Im d|/|c| = 400
        rng = np.random.default_rng(SEED + 11)
        a = 1.0
        m = 32768
        F = pwlab.to_l2(unit_smooth(a, 16, rng), m)
        G = pwlab.to_l2(unit_smooth(a, 16, rng), m)
        for phi in (AffineSymbol(0.25, 100j), AffineSymbol(-0.25, -100j)):
            WF = pwlab.weighted_compose_apply(phi, F)
            WsG = pwlab.weighted_compose_adjoint(phi, G)
            assert np.all(np.isfinite(WF.values)) and np.all(np.isfinite(WsG.values))
            lhs, rhs = WF.inner(G), F.inner(WsG)
            # the two midpoint sums discretize one integral at rates 400 and 100
            # per unit t: the rule's relative error (400 * 2a/M)^2/24 is 2.5e-5
            assert abs(lhs - rhs) < 1e-4 * abs(lhs)

    def test_adjoint_identity_symbol_is_conjugate_weight(self):
        rng = np.random.default_rng(SEED + 9)
        a = 1.0
        F = pwlab.to_l2(pwlab.rough_probe(a, 8, rng), 512)
        d = 0.3 + 0.25j
        out = pwlab.weighted_compose_adjoint(AffineSymbol(1.0, d), F)
        expected = _grid_exp(-1j * np.conj(d), a, F.m_points, 0, F.m_points) * F.values
        assert np.max(np.abs(out.values - expected)) == 0.0

    def test_data_helper(self):
        # the weight and its support live in weighted_compose_apply alone:
        # with F = 1 the output is the weight e^{i d t/c}/|c| on (-|c|a, |c|a)
        phi = AffineSymbol(0.5, 1j)
        F = L2Function(2.0, np.ones(400))
        t = F.grid()
        w = pwlab.weighted_compose_apply(phi, F).values
        inside = np.abs(t) < 1.0
        assert np.all(w[~inside] == 0.0)
        np.testing.assert_allclose(w[inside], np.exp(1j * phi.d * t[inside] / phi.c) / abs(phi.c))

    def test_norm_preserved_under_scaled_composition(self):
        # sqrt|c| C_{cz} is unitary; in frequency terms the weighted operator
        # divides the norm by sqrt|c| exactly
        rng = np.random.default_rng(SEED + 10)
        a = 1.0
        f = unit_smooth(a, 64, rng)
        F = pwlab.to_l2(f, 8192)
        out = pwlab.weighted_compose_apply(AffineSymbol(0.5, 0.0), F)
        assert abs(out.norm() - 1.0 / math.sqrt(0.5)) < 1e-6


class TestGridExp:
    def test_against_mpmath(self):
        # runs at a nonzero offset, so the head starts off t_0; counts around
        # the powers of two that set R; |Re w| a up to 300, the weight guard
        a = 1.3
        ws = (0.7 + 2.1j, -300.0 / a + 40.0j, 300.0 / a - 150.0j)
        with mp.workdps(40):
            for count in (1, 2, 3, 63, 64, 65, 4095, 4096, 4097):
                m, lo = 2 * count + 3, count // 3 + 1
                h = 2 * mp.mpf(a) / m
                for w in ws:
                    # e^{w t_j} by 40-digit steps e^{w h} from t_lo, one point after another
                    z, step, exact = mp.exp(mp.mpc(w) * ((lo + mp.mpf(0.5)) * h - a)), mp.exp(mp.mpc(w) * h), []
                    for _ in range(count):
                        exact.append(complex(z))
                        z *= step
                    exact = np.array(exact)
                    bound = exp_rounding_bound(w, a)
                    for got in (_grid_exp(w, a, m, lo, count), np.exp(w * pwlab.l2_grid(a, m)[lo : lo + count])):
                        assert got.shape == (count,)
                        assert np.max(np.abs(got / exact - 1.0)) <= bound, (count, w)


class TestEdgeSweep:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_or_typed_error(self):
        # both transforms and both weighted compositions at the edge of the
        # parameter space: a |Im d| at 0 and either side of the guard, c from
        # +-1 down to 1e-3 (support runs of no point and of one point), and
        # grids from 2 to 2^16 points; at M = 3, 65 and 4097 the full-grid
        # weights compute products past t = a that _grid_exp cuts off, and
        # none may overflow
        a = 1.3
        rng = np.random.default_rng(SEED + 20)
        runs = set()
        for m in (2, 3, 64, 65, 4097, 1 << 16):
            f = pwlab.rough_probe(a, min(16, (m - 1) // 2), rng)
            F = pwlab.to_l2(f, m)
            assert np.all(np.isfinite(F.values))
            assert np.all(np.isfinite(pwlab.from_l2(F, f.half_width).samples))
            if m < 33:
                with pytest.raises(AliasingError):
                    pwlab.to_l2(pwlab.rough_probe(a, 16, rng), m)
            for exponent in (0.0, 299.99, 300.01):
                for c in (1.0, -1.0, 0.5, -0.5, 0.25, 1e-3):
                    runs.add(int(np.count_nonzero(np.abs(F.grid()) < abs(c) * a)))
                    for sign in (1.0, -1.0):
                        phi = AffineSymbol(c, 0.3 + 1j * sign * exponent / a)
                        for op in (pwlab.weighted_compose_apply, pwlab.weighted_compose_adjoint):
                            if exponent > 300.0:
                                with pytest.raises(OverflowGuardError):
                                    op(phi, F)
                                continue
                            out = op(phi, F)
                            assert np.all(np.isfinite(out.values)), (m, exponent, c, sign, op)
                            back = pwlab.from_l2(out, f.half_width)
                            assert np.all(np.isfinite(back.samples)), (m, exponent, c, sign, op)
        assert {0, 1} <= runs


def _transform_scale(f):
    """sqrt(pi/2)/a sum|v|: the bound on |F| that the off-grid tolerances scale."""
    return math.sqrt(math.pi / 2.0) / f.a * float(np.sum(np.abs(f.samples)))


def _off_grid_errors(c, f, m):
    """Worst errors of apply (times |c|) and adjoint at d = 0 against dense_transform."""
    F = pwlab.to_l2(f, m)
    t = F.grid()
    phi = AffineSymbol(c, 0.0)
    inside = np.abs(t) < abs(c) * f.a
    ref = np.zeros(m, dtype=np.complex128)
    ref[inside] = dense_transform(f.a, f.samples, t[inside] / c)
    applied = abs(c) * pwlab.weighted_compose_apply(phi, F).values
    adjoint = pwlab.weighted_compose_adjoint(phi, F).values
    return (float(np.max(np.abs(applied - ref))),
            float(np.max(np.abs(adjoint - dense_transform(f.a, f.samples, c * t)))))


class TestOffGridValues:
    """F(t/c) and F(c t) off the grid, against the dense defining sum."""

    @pytest.mark.parametrize("m", [65, 512, 4096])
    @pytest.mark.parametrize("c", [0.5, -0.5, 0.25, 0.9, 1.0 / 3.0, -0.3])
    def test_sweep_against_dense_sum(self, c, m):
        rng = np.random.default_rng(SEED + 40)
        for n in (0, 1, 8, 32, m // 4 - 1):
            if n > m // 4 - 1:
                continue
            for probe in (pwlab.rough_probe, pwlab.smooth_probe):
                f = probe(1.3, n, rng)
                tol = 1e-12 * _transform_scale(f)
                err_apply, err_adjoint = _off_grid_errors(c, f, m)
                assert err_apply < tol, (probe.__name__, n, err_apply / tol)
                assert err_adjoint < tol, (probe.__name__, n, err_adjoint / tol)

    def test_small_coefficients_are_kept(self):
        # a trim relative to the largest coefficient would drop all of the 5e-14 tail
        v = np.full(2001, 5e-14, dtype=np.complex128)
        v[1000] = 1.0
        f = pwlab.PwFunction(1.0, v)
        tol = 1e-12 * _transform_scale(f)
        err_apply, err_adjoint = _off_grid_errors(0.5, f, 4096)
        assert err_apply < tol
        assert err_adjoint < tol

    def test_empty_support_is_zero(self):
        # no midpoint lies in (-|c|a, |c|a): no off-grid value is asked for
        F = pwlab.to_l2(pwlab.rough_probe(1.0, 16, np.random.default_rng(SEED + 41)), 4096)
        out = pwlab.weighted_compose_apply(AffineSymbol(1e-4, 0.5), F)
        assert np.all(out.values == 0.0)


class TestMultiplicationNorm:
    """Multiplication by e^{i d t} is C_{z+d}; its norm is spectral_radius_closed at c = 1."""

    def test_closed_value_and_weight_sup(self):
        a = 1.5
        d = 0.3 + 0.8j
        target = math.exp(abs(d.imag) * a)
        phi = AffineSymbol(1.0, d)
        assert abs(pwlab.spectral_radius_closed(phi, a) - target) < 1e-14
        t = np.linspace(-a, a, 20001)
        sup = float(np.max(np.abs(np.exp(1j * d * t))))
        assert sup <= target * (1.0 + 1e-12)
        assert sup > target * (1.0 - 1e-3)
        weight = pwlab.weighted_compose_apply(phi, L2Function(a, np.ones(20000))).values
        assert np.max(np.abs(weight)) <= target * (1.0 + 1e-12)

    def test_real_translation_is_contractive_weight(self):
        assert pwlab.spectral_radius_closed(AffineSymbol(1.0, 5.0), 3.0) == 1.0

    def test_guards(self):
        with pytest.raises(OverflowGuardError):
            pwlab.spectral_radius_closed(AffineSymbol(1.0, 500j), 1.0)
        with pytest.raises(OverflowGuardError):
            pwlab.weighted_compose_apply(
                AffineSymbol(0.5, 400j), L2Function(1.0, np.ones(64))
            )
