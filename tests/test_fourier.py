"""Frequency picture: transform, weighted composition, adjoint, norms."""

import math

import mpmath as mp
import numpy as np
import pytest

import pwlab
from pwlab import AffineSymbol, AliasingError, L2Function, OverflowGuardError
from pwlab import core, fourier
from pwlab.fourier import _coefficients, _grid_exp, _subgrid_length, _subgrid_values, _values_at

from oracles import dense_transform, exp_rounding_bound

SEED = pwlab.DEFAULT_SEED


def unit_smooth(a, half_width, rng):
    f = pwlab.smooth_probe(a, half_width, rng)
    return pwlab.scaled(f, 1.0 / f.norm())


class TestGridAndContainer:
    def test_midpoint_grid(self):
        a, m = 2.0, 8
        t = L2Function(a, np.zeros(m)).grid()
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

    def test_keeps_a_read_only_array_and_copies_others(self):
        # to_l2 and both weighted maps (every route) hand L2Function a read-only array of their
        # own, which is kept; a writeable array or a view is copied, and the checks still run
        F = pwlab.to_l2(pwlab.rough_probe(1.0, 8, np.random.default_rng(SEED + 5)), 64)
        made = [F] + [
            weighted(AffineSymbol(c, 1j), F)
            for weighted in (pwlab.weighted_compose_apply, pwlab.weighted_compose_adjoint)
            for c in (1.0, -1.0, 0.5, 0.9, 1e-3)
        ]
        for G in made:
            assert not G.values.flags.writeable and L2Function(G.a, G.values).values is G.values
        frozen = np.ones(6, dtype=np.complex128)
        frozen.setflags(write=False)
        for given in (np.ones(4, dtype=np.complex128), np.arange(8.0, dtype=np.complex128)[::2],
                      np.ones(5, dtype=np.complex128)[1:], frozen[1:], np.arange(4.0)):
            G = L2Function(1.0, given)
            assert G.values is not given and not G.values.flags.writeable
            assert G.values.tobytes() == given.astype(np.complex128).tobytes()
        for bad in (frozen.reshape(2, 3), np.array([1.0, np.nan], dtype=np.complex128)):
            bad.setflags(write=False)
            with pytest.raises(ValueError):
                L2Function(1.0, bad)

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

    def test_wide_window_raises_instead_of_aliasing(self):
        # M = 64 points hold the frequencies |n| <= 31; a window past them would read
        # n = 64 + k as n = k (-f's samples again at 64..68) or allocate without bound
        f = pwlab.rough_probe(1.0, 4, np.random.default_rng(0))
        F = pwlab.to_l2(f, 64)
        for half_width in (32, 100, 10**12):
            with pytest.raises(AliasingError, match="would alias"):
                pwlab.from_l2(F, half_width)
        back = pwlab.from_l2(F, 31)
        np.testing.assert_allclose(back.samples[27:-27], f.samples, atol=1e-12)
        assert np.max(np.abs(back.samples[:27])) < 1e-12 and np.max(np.abs(back.samples[-27:])) < 1e-12
        for half_width in (-1, 2.5):
            with pytest.raises(ValueError, match="window half width must be an integer >= 0"):
                pwlab.from_l2(F, half_width)

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


def large_weight_pairings(m_points, seed=SEED):
    """The weighted compositions of two unit smooth probes (a = 1, N = 16) on an m_points grid, at large a |Im d|.

    At (0.25, 100i) and (-0.25, -100i) a |Im d| = 100 bounds both weights,
    though a |Im d|/|c| = 400: <WF, G> = <F, W*G> within 1e-4 relative.  At
    (c, 0.3 + 299i) for c in {+-1, 1/2, 1/4}, one below OVERFLOW_EXPONENT, just
    inside the weight guard: within 4x the midpoint rule's relative error
    (a |Im d|/|c| 2a/M)^2/24, as the two midpoint sums discretize one integral
    at rates a |Im d|/|c| and a |Im d| per unit t.  Every composition returns
    finite values, and _grid_exp's weights stay within twice
    oracles.exp_rounding_bound of np.exp.  Returns the largest pairing gap as
    a share of its bound and the largest weight gap as a share of 2x the bound.
    """
    a = 1.0
    rng = np.random.default_rng(seed)
    F, G = (pwlab.to_l2(unit_smooth(a, 16, rng), m_points) for _ in range(2))
    t = F.grid()
    worst = [0.0, 0.0]
    # (symbol, allowed relative gap), None for 4x the rule
    cases = [(AffineSymbol(0.25, 100j), 1e-4), (AffineSymbol(-0.25, -100j), 1e-4)]
    cases += [(AffineSymbol(c, 0.3 + 1j * (pwlab.OVERFLOW_EXPONENT - 1.0) / a), None) for c in (1.0, -1.0, 0.5, 0.25)]
    for phi, allowed in cases:
        WF, WsG = pwlab.weighted_compose_apply(phi, F), pwlab.weighted_compose_adjoint(phi, G)
        assert np.all(np.isfinite(WF.values)) and np.all(np.isfinite(WsG.values)), phi
        lhs, rhs = WF.inner(G), F.inner(WsG)
        allowed = allowed or 4.0 * (a * abs(phi.d.imag) / abs(phi.c) * 2.0 * a / m_points) ** 2 / 24.0
        worst[0] = max(worst[0], abs(lhs - rhs) / (allowed * abs(lhs)))
        run = np.flatnonzero(np.abs(t) < abs(phi.c) * a)
        for w, lo, count in ((1j * phi.d / phi.c, run[0], run.size), (-1j * np.conj(phi.d), 0, m_points)):
            gap = np.max(np.abs(_grid_exp(w, a, m_points, lo, count) / np.exp(w * t[lo : lo + count]) - 1.0))
            worst[1] = max(worst[1], gap / (2.0 * exp_rounding_bound(w, a)))
        assert max(worst) <= 1.0, (phi, worst)
    return worst


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
        large_weight_pairings(32768, SEED + 11)

    def test_adjoint_identity_symbol_is_conjugate_weight(self):
        # c = 1, and the reflection c = -1 with F reversed: the grid maps onto itself, so the
        # output is the conjugate weight times F's values bit for bit, on odd and even grids
        rng = np.random.default_rng(SEED + 9)
        a = 1.0
        d = 0.3 + 0.25j
        for m in (512, 65, 4096):
            F = pwlab.to_l2(pwlab.rough_probe(a, 8, rng), m)
            weight = _grid_exp(-1j * np.conj(d), a, m, 0, m)
            for c, values in ((1.0, F.values), (-1.0, F.values[::-1])):
                out = pwlab.weighted_compose_adjoint(AffineSymbol(c, d), F)
                np.testing.assert_array_equal(out.values, weight * values)

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
                t = -a + (np.arange(lo, lo + count) + 0.5) * (2.0 * a / m)  # the midpoints L2Function.grid forms
                for w in ws:
                    # e^{w t_j} by 40-digit steps e^{w h} from t_lo, one point after another
                    z, step, exact = mp.exp(mp.mpc(w) * ((lo + mp.mpf(0.5)) * h - a)), mp.exp(mp.mpc(w) * h), []
                    for _ in range(count):
                        exact.append(complex(z))
                        z *= step
                    exact = np.array(exact)
                    bound = exp_rounding_bound(w, a)
                    for got in (_grid_exp(w, a, m, lo, count), np.exp(w * t)):
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


def off_grid_values(m_points, seed=SEED):
    """F(t/c) and F(c t) off the grid at d = 0 on m_points points; returns the largest gap as a share of its bound.

    Rough probes at a = 1.3, drawn for N = 64, M/4 - 1, 0, 1 and 32 in turn, those below M/4.
    For |c| = 1/q, q in {2, 4, 8}, with 2q | M the apply reads F(t/c) on its
    support run, the midpoints with |t| < |c| a, from one M/q-point FFT
    (_subgrid_values); on other grids _subgrid_length is None.  Those values,
    and |c| times weighted_compose_apply's run, stay within _values_at's
    chirp-z bound of the chirp-z on the same F: eps times the phase bound, 9 pi
    M/16 for |c| >= 1/4 and pi M/(16|c|) below, times sum|coef|.  At 64 seeded
    spots (or all, on a shorter run) the apply stays within the dense-sum
    tolerance 1e-12 _transform_scale of oracles.dense_transform, and so do the
    chirp-z's own values: the apply's run at c in {0.9, 1/3} and the adjoint's
    whole grid at c in {0.5, -0.3}.
    """
    m = m_points
    eps = np.finfo(float).eps
    rng, spot_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    worst = 0.0
    for n in dict.fromkeys(n for n in (64, m // 4 - 1, 0, 1, 32) if n < m // 4):
        f = pwlab.rough_probe(1.3, n, rng)
        F = pwlab.to_l2(f, m)
        t = F.grid()
        tol = 1e-12 * _transform_scale(f)
        bound = eps * float(np.sum(np.abs(_coefficients(F, m // 4))))
        for c in (0.5, -0.5, 0.25, -0.25, 0.125):
            count = _subgrid_length(c, m)
            if m % int(2 / abs(c)):
                assert count is None, (m, c)
                continue
            lo = (m - count) // 2
            assert count == m * abs(c) and np.all(np.abs(t[lo : lo + count]) < abs(c) * F.a)
            assert abs(t[lo - 1]) > abs(c) * F.a and abs(t[lo + count]) > abs(c) * F.a
            chirp = _values_at(F, t[lo] / c, 2.0 * F.a / (m * c), count)
            phases = 9.0 * math.pi * m / 16.0 if abs(c) >= 0.25 else math.pi * m / (16.0 * abs(c))
            run = abs(c) * pwlab.weighted_compose_apply(AffineSymbol(c, 0.0), F).values[lo : lo + count]
            for values in (_subgrid_values(F, count)[:: 1 if c > 0 else -1], run):
                worst = max(worst, float(np.max(np.abs(values - chirp))) / (phases * bound))
            spots = rng.choice(count, min(64, count), replace=False)
            gap = np.abs(run[spots] - dense_transform(f.a, f.samples, t[lo + spots] / c))
            worst = max(worst, float(np.max(gap)) / tol)
            assert worst <= 1.0, (m, n, c)
        for kind, c in (("apply", 0.9), ("apply", 1.0 / 3.0), ("adjoint", 0.5), ("adjoint", -0.3)):
            phi = AffineSymbol(c, 0.0)
            if kind == "apply":
                run = np.flatnonzero(np.abs(t) < abs(c) * f.a)
                got, points = abs(c) * pwlab.weighted_compose_apply(phi, F).values[run], t[run] / c
            else:
                got, points = pwlab.weighted_compose_adjoint(phi, F).values, c * t
            spots = spot_rng.choice(got.size, min(64, got.size), replace=False)
            gap = np.abs(got[spots] - dense_transform(f.a, f.samples, points[spots]))
            worst = max(worst, float(np.max(gap, initial=0.0)) / tol)
            assert worst <= 1.0, (m, n, kind, c)
    return worst


class TestOffGridValues:
    """F(t/c) and F(c t) off the grid, against the dense defining sum."""

    @pytest.mark.parametrize("m", [65, 512, 4096])
    @pytest.mark.parametrize("c", [0.5, -0.5, 0.25, 0.125, -0.25, 0.9, 1.0 / 3.0, -0.3])
    def test_sweep_against_dense_sum(self, c, m, monkeypatch):
        # M = 65 and 512 on both engines of the chirp-z's convolution, forced by
        # core._DIRECT_TERMS (0: FFT, 2^62: direct sum); at M = 512 the adjoint's
        # 257 x 512 products straddle the fitted bound.  M = 4096 keeps its own
        for terms in (0, 1 << 62) if m < 4096 else (core._DIRECT_TERMS,):
            monkeypatch.setattr(core, "_DIRECT_TERMS", terms)
            rng = np.random.default_rng(SEED + 40)
            for n in (0, 1, 8, 32, m // 4 - 1):
                if n > m // 4 - 1:
                    continue
                for probe in (pwlab.rough_probe, pwlab.smooth_probe):
                    f = probe(1.3, n, rng)
                    tol = 1e-12 * _transform_scale(f)
                    err_apply, err_adjoint = _off_grid_errors(c, f, m)
                    assert err_apply < tol, (terms, probe.__name__, n, err_apply / tol)
                    assert err_adjoint < tol, (terms, probe.__name__, n, err_adjoint / tol)

    @pytest.mark.parametrize("m", [4096, 8192])
    @pytest.mark.parametrize("c", [2.0**-11, -(2.0**-10), 2.0**-6])
    def test_small_slopes_at_exact_points(self, c, m):
        # at |c| <= 2^-10 the float grid point t/c carries t's rounding times
        # 1/|c|, so the oracle reads the exact points q t_j = -a + (i + 1/2) 2a/L
        # of the L = M/q-point midpoint grid that the sub-grid route maps the
        # support run onto (reversed for c < 0); the rest of the grid is zero
        rng = np.random.default_rng(SEED + 44)
        count = int(m * abs(c))
        assert _subgrid_length(c, m) == count
        lo = (m - count) // 2
        for n in (64, 1000):
            f = pwlab.rough_probe(1.3, n, rng)
            exact = -f.a + (np.arange(count) + 0.5) * (2.0 * f.a / count)
            ref = np.zeros(m, dtype=np.complex128)
            ref[lo : lo + count] = dense_transform(f.a, f.samples, math.copysign(1.0, c) * exact)
            applied = abs(c) * pwlab.weighted_compose_apply(AffineSymbol(c, 0.0), pwlab.to_l2(f, m)).values
            assert np.max(np.abs(applied - ref)) < 1e-12 * _transform_scale(f), n

    def test_subgrid_route_within_chirp_bound(self):
        for m in (8, 64, 512, 4096):
            off_grid_values(m, SEED + 42)

    def test_other_slopes_and_grids_keep_the_chirp(self, monkeypatch):
        # the sub-grid needs |c| = 1/q, q a power of two, with 2q | M; every
        # other slope or grid reads _values_at.  At c = 2^-12, M = 4096 (2q does
        # not divide M) the run holds no midpoint and the output is exact zeros
        calls = []
        chirp = fourier._values_at
        monkeypatch.setattr(fourier, "_values_at", lambda *args: calls.append(args) or chirp(*args))
        f = pwlab.rough_probe(1.0, 16, np.random.default_rng(SEED + 43))
        assert _subgrid_length(2.0**-12, 4096) is None
        assert not np.any(pwlab.weighted_compose_apply(AffineSymbol(2.0**-12, 0.3), pwlab.to_l2(f, 4096)).values)
        for c, m in ((0.5, 4096), (-0.25, 64), (2.0**-11, 4096)):
            pwlab.weighted_compose_apply(AffineSymbol(c, 0.3), pwlab.to_l2(f, m))
        assert not calls
        for c, m in ((0.9, 4096), (1.0 / 3.0, 4096), (1e-3, 4096), (0.5, 65), (0.25, 4097), (0.125, 4100)):
            assert _subgrid_length(c, m) is None
            pwlab.weighted_compose_apply(AffineSymbol(c, 0.3), pwlab.to_l2(f, m))
        assert len(calls) == 6

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


class TestFourierTables:
    """core._table's Fourier halves: a grid's twiddles and an apply's weight, cold, warm and past the byte limit."""

    def test_cold_warm_and_per_call_tables_agree(self, monkeypatch):
        # every call runs on an empty cache (cold: the twiddle slices and the weight for the call
        # alone), again (its tables are built again and kept) and a third time on the kept tables
        # (warm); then all of them in turn on one cache, twice, where the tables of the wide grids
        # push each other out, and with every table past the byte limit: all give the same bytes
        rng = np.random.default_rng(SEED + 49)
        calls, keys = [], set()
        for m in (65, 4096, 4097, 8192):
            f = pwlab.rough_probe(1.0, 24, rng)
            F = pwlab.to_l2(f, m)
            calls += [lambda f=f, m=m: pwlab.to_l2(f, m).values, lambda F=F: pwlab.from_l2(F, 24).samples]
            for c in (1.0, -1.0, 0.5, -0.5, 0.25, 0.9, 1 / 3):
                for d in (0j, complex(0.0, -0.0), 0.3, 1.0 - 1j):
                    phi = AffineSymbol(c, d)
                    calls += [lambda phi=phi, F=F: pwlab.weighted_compose_apply(phi, F).values,
                              lambda phi=phi, F=F: pwlab.weighted_compose_adjoint(phi, F).values]
                    keys.add(("apply", core._bits(phi, 1.0), m, core._BLOCK_ENTRIES))
        cold = []
        for call in calls:
            tables = core._Tables()
            monkeypatch.setattr(core, "_TABLES", tables)
            cold.append(call().tobytes())
            assert call().tobytes() == cold[-1] == call().tobytes()
            assert tables.held == sum(size for _, size in tables.values()) <= core._TABLE_BYTES
        tables = core._Tables()
        monkeypatch.setattr(core, "_TABLES", tables)
        assert [call().tobytes() for call in calls] == cold
        # a key for each apply's weight, d = 0j and -0j apart, and for each twiddle slice read: |n| <= N
        # by to_l2 and from_l2, |n| <= M // 4 by the off-grid routes; the adjoint keeps nothing
        assert len(keys) == 4 * 7 * 4 and set(tables) == keys | {
            ("twiddle", m, k, core._BLOCK_ENTRIES) for m in (65, 4096, 4097, 8192) for k in (24, m // 4)}
        assert [call().tobytes() for call in calls] == cold
        assert 0 < tables.held == sum(size for _, size in tables.values()) <= core._TABLE_BYTES
        monkeypatch.setattr(core, "_TABLE_BYTES", 0)
        monkeypatch.setattr(core, "_TABLES", core._Tables())
        assert [call().tobytes() for call in calls] == cold
        assert not core._TABLES

    def test_twiddles_are_one_table_per_slice(self, monkeypatch):
        # a call keys the slice |n| <= k it reads: the slice's first call computes it and leaves a mark,
        # its second computes it again and keeps it, and later calls fetch the kept one.  An entry has
        # the same bits in every slice.  A slice of 2^17 + 1 entries, which _freeze counts past the byte
        # limit, is marked as never kept at its second call and computed at every call, while the 49
        # entries its grid's transforms read are kept.  Its applies' weights, 2 MiB or more, are
        # marked and never kept
        tables = core._Tables()
        monkeypatch.setattr(core, "_TABLES", tables)
        f = pwlab.rough_probe(1.0, 24, np.random.default_rng(SEED + 50))
        for m in (4096, 4097):
            key = ("twiddle", m, 24, core._BLOCK_ENTRIES)
            first = fourier._twiddle(m, 24)
            assert first.size == 49 and tables[key][0] is core._SEEN
            second = fourier._twiddle(m, 24)
            assert tables[key][0] is second is fourier._twiddle(m, 24)
            assert first.tobytes() == second.tobytes()
            assert fourier._twiddle(m, m // 4).tobytes() == fourier._twiddle(m, m // 2)[m // 4 : -(m // 4)].tobytes()
        held, never = dict(tables), set()
        for m in (1 << 17, (1 << 17) + 1):
            wide = [fourier._twiddle(m, m // 2) for _ in range(3)]
            assert len({id(x) for x in wide}) == 3 and len({x.tobytes() for x in wide}) == 1
            for _ in range(3):
                F = pwlab.to_l2(f, m)
                pwlab.from_l2(F, 24)
                pwlab.weighted_compose_apply(AffineSymbol(-1.0, 1j), F)
                pwlab.weighted_compose_adjoint(AffineSymbol(1.0, 1j), F)
            assert tables[("twiddle", m, 24, core._BLOCK_ENTRIES)][0].size == 49
            never |= {("twiddle", m, m // 2, core._BLOCK_ENTRIES),
                      ("apply", core._bits(AffineSymbol(-1.0, 1j), 1.0), m, core._BLOCK_ENTRIES)}
        assert {key: tables[key] for key in held} == held
        assert {key for key, (table, _) in tables.items() if table is core._NEVER} == never
