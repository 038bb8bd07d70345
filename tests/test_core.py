"""Sampling-model core: symbols, kernels, evaluation, products, composition."""

import math

import mpmath as mp
import numpy as np
import pytest

import pwlab
from pwlab import (
    AdmissibilityError,
    AffineSymbol,
    BandwidthMismatchError,
    KernelPoint,
    OverflowGuardError,
    PwFunction,
    PwLabError,
)
from oracles import dense_pairing, direct_eval, fsum_eval, panel_inner_product

SEED = pwlab.DEFAULT_SEED

# 50-digit reference values (hyperbolic closed forms)
KERNEL_1_I_0 = 0.37407815819181338292
KERNEL_NORMSQ_1_I = 0.57723276181314057965
KERNEL_2_W_Z = 0.30037662865531851308 - 0.50733460461894020621j
KERNEL_NORMSQ_2_W = 0.74815631638362676584


class TestAffineSymbol:
    def test_admissibility(self):
        with pytest.raises(AdmissibilityError):
            AffineSymbol(0.0, 0.0)
        with pytest.raises(AdmissibilityError):
            AffineSymbol(1.5, 0.0)
        with pytest.raises(AdmissibilityError):
            AffineSymbol(-1.0001, 0.0)
        with pytest.raises(AdmissibilityError):
            AffineSymbol(0.5 + 0.1j, 0.0)
        with pytest.raises(AdmissibilityError):
            AffineSymbol(math.nan, 0.0)
        # boundary values are admitted
        AffineSymbol(1.0, 1j)
        AffineSymbol(-1.0, 2.0)
        AffineSymbol(1e-9, 0.0)

    def test_call_scalar_and_array(self):
        phi = AffineSymbol(0.5, 1.0 - 2j)
        assert phi(2.0) == 2.0 - 2j
        z = np.array([0.0, 1j, 3.0])
        np.testing.assert_allclose(phi(z), 0.5 * z + (1.0 - 2j))

    def test_iterate_matches_manual_composition(self):
        for c, d in [(0.5, 0.3 + 1j), (-0.5, 2.0), (1.0, 1j), (-1.0, 1.0 + 1j)]:
            phi = AffineSymbol(c, d)
            z = 0.7 - 0.2j
            manual = z
            for n in range(6):
                it = phi.iterate(n)
                assert abs(it(z) - manual) < 1e-12 * max(1.0, abs(manual))
                manual = phi(manual)

    def test_iterate_identity_and_errors(self):
        phi = AffineSymbol(0.5, 1.0)
        assert phi.iterate(0).is_identity
        with pytest.raises(ValueError):
            phi.iterate(-1)

    def test_fixed_point(self):
        phi = AffineSymbol(0.5, 1j)
        alpha = phi.fixed_point()
        assert abs(phi(alpha) - alpha) < 1e-15
        assert abs(alpha - 2j) < 1e-15
        with pytest.raises(ValueError):
            AffineSymbol(1.0, 1j).fixed_point()


class TestGridAndFunction:
    def test_grid_values(self):
        a = 2.0
        x = pwlab.grid(a, 3)
        np.testing.assert_allclose(x, np.arange(-3, 4) * math.pi / a)
        assert x.size == 7

    def test_function_validation(self):
        with pytest.raises(ValueError):
            PwFunction(1.0, np.zeros(4))  # even length
        with pytest.raises(ValueError):
            PwFunction(-1.0, np.zeros(3))
        with pytest.raises(ValueError):
            PwFunction(1.0, np.array([0.0, math.inf, 0.0]))

    def test_samples_are_immutable_copies(self):
        buf = np.ones(5, dtype=complex)
        f = PwFunction(1.0, buf)
        buf[0] = 7.0
        assert f.samples[0] == 1.0
        with pytest.raises(ValueError):
            f.samples[0] = 3.0

    def test_norm_is_parseval_sum(self):
        rng = np.random.default_rng(SEED)
        f = pwlab.rough_probe(2.0, 16, rng)
        expected = math.sqrt(math.pi / 2.0 * float(np.sum(np.abs(f.samples) ** 2)))
        assert abs(f.norm() - expected) < 1e-13 * expected

    def test_is_zero(self):
        assert PwFunction(1.0, np.zeros(3)).is_zero()
        assert not PwFunction(1.0, np.array([0.0, 1e-30, 0.0])).is_zero()


class TestKernels:
    def test_frozen_values(self):
        assert abs(pwlab.kernel_eval(1.0, 1j, 0.0) - KERNEL_1_I_0) < 1e-15
        assert abs(pwlab.kernel_norm_sq(1.0, 1j) - KERNEL_NORMSQ_1_I) < 1e-15
        assert abs(pwlab.kernel_eval(2.0, 0.5 - 0.25j, 1.5 + 1j) - KERNEL_2_W_Z) < 1e-15
        assert abs(pwlab.kernel_norm_sq(2.0, 0.5 - 0.25j) - KERNEL_NORMSQ_2_W) < 1e-15

    def test_values_vs_mpmath(self):
        mp.mp.dps = 50
        rng = np.random.default_rng(SEED + 1)
        for _ in range(20):
            a = float(rng.uniform(0.3, 4.0))
            w = complex(rng.normal(), rng.normal())
            z = complex(rng.normal(), rng.normal())
            u = mp.mpc(z) - mp.conj(mp.mpc(w))
            ref = mp.sin(a * u) / (mp.pi * u) if u != 0 else mp.mpf(a) / mp.pi
            got = pwlab.kernel_eval(a, w, z)
            assert abs(got - complex(ref)) < 1e-13 * max(1.0, abs(complex(ref)))

    def test_norm_sq_is_self_evaluation(self):
        for a, w in [(1.0, 0.5 + 0.7j), (math.pi, 2.0), (2.5, -1j)]:
            self_val = pwlab.kernel_eval(a, w, w)
            assert abs(self_val.imag) < 1e-14
            assert abs(pwlab.kernel_norm_sq(a, w) - self_val.real) < 1e-13

    def test_kernel_point_to_pw_on_lattice_is_node_indicator(self):
        # a node kernel samples to the indicator of its own node
        f = KernelPoint(math.pi, 3.0).to_pw(8)
        expected = np.zeros(17)
        expected[8 + 3] = 1.0
        np.testing.assert_allclose(f.samples, expected, atol=1e-15)

    def test_kernel_norm_guard(self):
        with pytest.raises(OverflowGuardError):
            pwlab.kernel_norm_sq(1.0, 1e9j)


class TestEvaluation:
    def test_interpolates_at_nodes(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(20):
            a = float(rng.uniform(0.5, 4.0))
            f = pwlab.rough_probe(a, int(rng.integers(4, 40)), rng)
            budget = 4.0 * np.finfo(float).eps * float(np.sum(np.abs(f.samples)))
            err = np.max(np.abs(pwlab.pw_eval(f, f.grid()) - f.samples))
            assert err <= budget

    def test_matches_direct_series(self):
        rng = np.random.default_rng(SEED + 3)
        f = pwlab.rough_probe(1.5, 24, rng)
        z = rng.normal(size=64) * 30.0 + 1j * rng.normal(size=64)
        got = pwlab.pw_eval(f, z)
        ref = direct_eval(f.a, f.samples, z)
        scale = float(np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) < 1e-12 * scale

    def test_matches_compensated_summation(self):
        rng = np.random.default_rng(SEED + 4)
        f = pwlab.rough_probe(2.0, 32, rng)
        for z in (0.37, -5.1 + 0.4j, 12.0 - 2j):
            ref = fsum_eval(f.a, f.samples, z)
            assert abs(pwlab.pw_eval(f, z) - ref) < 1e-12 * max(1.0, abs(ref))

    def test_scalar_vs_array_shapes(self):
        f = pwlab.node_function(1.0, 4)
        v = pwlab.pw_eval(f, 0.3)
        assert isinstance(v, complex)
        arr = pwlab.pw_eval(f, np.array([0.3, 0.3]))
        assert arr.shape == (2,)
        assert abs(arr[0] - v) == 0.0
        mat = pwlab.pw_eval(f, np.full((3, 2), 0.3))
        assert mat.shape == (3, 2)

    def test_large_target_block(self):
        # crosses the internal chunk boundary
        f = pwlab.node_function(1.0, 2)
        z = np.linspace(-10, 10, 5000)
        vals = pwlab.pw_eval(f, z)
        ref = direct_eval(f.a, f.samples, z)
        assert np.max(np.abs(vals - ref)) < 1e-13


class TestProducts:
    def test_inner_product_hermitian_and_linear(self):
        rng = np.random.default_rng(SEED + 5)
        f = pwlab.rough_probe(1.0, 12, rng)
        g = pwlab.rough_probe(1.0, 12, rng)
        h = pwlab.rough_probe(1.0, 12, rng)
        ip = pwlab.inner_product
        assert abs(ip(f, g) - np.conj(ip(g, f))) < 1e-13
        lhs = ip(pwlab.lincomb([2.0, 1j], [f, h]), g)
        rhs = 2.0 * ip(f, g) + 1j * ip(h, g)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_inner_product_pads_windows(self):
        f = pwlab.node_function(1.0, 2, 1)
        g = pwlab.node_function(1.0, 7, 1)
        assert abs(pwlab.inner_product(f, g) - math.pi) < 1e-14

    def test_bandwidth_mismatch_raises(self):
        f = pwlab.node_function(1.0, 2)
        g = pwlab.node_function(2.0, 2)
        with pytest.raises(BandwidthMismatchError):
            pwlab.inner_product(f, g)

    def test_inner_product_vs_line_integral(self):
        rng = np.random.default_rng(SEED + 6)
        f = pwlab.smooth_probe(1.0, 32, rng)
        g = pwlab.smooth_probe(1.0, 32, rng)
        ident = AffineSymbol(1.0, 0.0)
        ref = panel_inner_product(1.0, ident, f.samples, ident, g.samples, t_max=400.0,
                                  n_panels=1024)
        got = pwlab.inner_product(f, g)
        assert abs(got - ref) < 1e-8 * max(1.0, abs(ref))

    def test_norm_and_scaled(self):
        rng = np.random.default_rng(SEED + 7)
        f = pwlab.rough_probe(1.0, 8, rng)
        assert abs(pwlab.scaled(f, 2j).norm() - 2.0 * f.norm()) < 1e-13

    def test_lincomb_validation(self):
        f = pwlab.node_function(1.0, 2)
        with pytest.raises(ValueError):
            pwlab.lincomb([1.0], [])
        with pytest.raises(ValueError):
            pwlab.lincomb([1.0, 2.0], [f])
        with pytest.raises(BandwidthMismatchError):
            pwlab.lincomb([1.0, 1.0], [f, pwlab.node_function(2.0, 2)])

    def test_reproducing_identity(self):
        rng = np.random.default_rng(SEED + 8)
        f = pwlab.smooth_probe(1.5, 64, rng)
        for w in (0.6, -17.3, 4.0 + 0.5j):
            assert abs(pwlab.reproduce(f, w) - pwlab.pw_eval(f, w)) < 1e-9


class TestComposition:
    def test_identity_is_exact(self):
        rng = np.random.default_rng(SEED + 9)
        f = pwlab.rough_probe(1.0, 16, rng)
        g = pwlab.compose_apply(AffineSymbol(1.0, 0.0), f)
        np.testing.assert_array_equal(g.samples, f.samples)

    def test_reflection_is_exact_flip(self):
        rng = np.random.default_rng(SEED + 10)
        f = pwlab.rough_probe(1.0, 16, rng)
        g = pwlab.compose_apply(AffineSymbol(-1.0, 0.0), f)
        np.testing.assert_allclose(g.samples, f.samples[::-1], atol=1e-15)

    def test_window_policy(self):
        f = pwlab.node_function(1.0, 16)
        phi = AffineSymbol(0.5, 0.0)
        assert pwlab.compose_apply(phi, f).half_width == 16
        assert pwlab.compose_apply(phi, f, grow=True).half_width == 32
        assert pwlab.compose_apply(phi, f, half_width=7).half_width == 7

    def test_values_match_composition(self):
        rng = np.random.default_rng(SEED + 11)
        f = pwlab.smooth_probe(1.0, 48, rng)
        phi = AffineSymbol(0.5, 0.7 + 0.2j)
        g = pwlab.compose_apply(phi, f, grow=True)
        z = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(
            pwlab.pw_eval(g, z), pwlab.pw_eval(f, phi(z)), atol=1e-10
        )

    def test_adjoint_on_kernel_moves_the_point(self):
        phi = AffineSymbol(0.5, 1j)
        pt = KernelPoint(2.0, 1.0 + 1.0j)
        out = pwlab.adjoint_on_kernel(phi, pt)
        assert out.a == 2.0
        assert out.w == phi(1.0 + 1.0j)


class TestComposedProducts:
    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(SEED + 12)
        a = 1.0
        f = pwlab.smooth_probe(a, 32, rng)
        g = pwlab.smooth_probe(a, 32, rng)
        cases = [
            (AffineSymbol(0.5, 0.3 + 0.2j), AffineSymbol(-1.0, 0.1 - 0.4j)),
            (AffineSymbol(1.0, 1j), AffineSymbol(1.0, 0.0)),
            (AffineSymbol(0.25, 0.0), AffineSymbol(0.5, 1.0)),
        ]
        for phi1, phi2 in cases:
            ref = panel_inner_product(a, phi1, f.samples, phi2, g.samples,
                                      t_max=400.0, n_panels=1024)
            got = pwlab.composed_inner_product(phi1, f, phi2, g)
            assert abs(got - ref) < 1e-9 * max(1.0, abs(ref))

    def test_matches_dense_double_sum(self):
        # both routes against the dense complex-sinc block, over slopes c^j
        # (c in {+-1, +-1/2, 1/4}, j <= 9), real and complex d, equal slopes
        # with different d, and unequal windows N = 0..48; the tolerance is the
        # rounding scale of the sum: pi/(a max|c|) ||v|| ||w|| cosh(r |Im shift|)
        rng = np.random.default_rng(SEED + 15)
        bases = (1.0, -1.0, 0.5, -0.5, 0.25)
        windows = [(0, 0), (0, 48), (48, 1), (48, 48)] + [
            tuple(int(n) for n in rng.integers(0, 49, 2)) for _ in range(296)
        ]
        equal_slopes = 0
        for case, (n1, n2) in enumerate(windows):
            c = bases[case % len(bases)]
            j1 = int(rng.integers(1, 10))
            j2 = j1 if case % 3 == 0 else int(rng.integers(1, 10))
            d1, d2 = (complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2))
            if case % 4 == 1:
                d1, d2 = d1.real, d2.real
            phi1 = AffineSymbol(c, d1).iterate(j1)
            phi2 = AffineSymbol(c, d2).iterate(j2)
            equal_slopes += phi1.c == phi2.c
            a = float(rng.uniform(0.5, 2.0))
            f, g = (PwFunction(a, [1.0, 1j] @ rng.standard_normal((2, 2 * n + 1))) for n in (n1, n2))
            c_min, c_max = sorted((abs(phi1.c), abs(phi2.c)))
            shift = phi1.d / phi1.c - np.conj(phi2.d) / phi2.c
            scale = (math.pi / (a * c_max) * np.linalg.norm(f.samples) * np.linalg.norm(g.samples)
                     * math.cosh(a * c_min * abs(shift.imag)))
            got = pwlab.composed_inner_product(phi1, f, phi2, g)
            ref = dense_pairing(phi1, f, phi2, g)
            assert abs(got - ref) <= 1e-13 * scale, (phi1, phi2, n1, n2)
        assert min(equal_slopes, len(windows) - equal_slopes) >= 100  # both routes covered

    def test_kernel_pairing_closed_form(self):
        # <C_phi k_u, k_v> = k_u(phi(v)) for lattice points u, v (exact windows)
        a = math.pi
        phi = AffineSymbol(0.5, 0.25 + 0.1j)
        ident = AffineSymbol(1.0, 0.0)
        f = KernelPoint(a, 2.0).to_pw(12)
        for v_node in (-3, 0, 5):
            g = KernelPoint(a, float(v_node)).to_pw(12)
            got = pwlab.composed_inner_product(phi, f, ident, g)
            ref = pwlab.kernel_eval(a, 2.0, phi(float(v_node)))
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))

    def test_pure_scaling_is_scaled_isometry(self):
        rng = np.random.default_rng(SEED + 13)
        f = pwlab.rough_probe(1.0, 24, rng)
        for c in (0.5, 0.9, -0.25):
            got = pwlab.composed_norm(AffineSymbol(c, 0.0), f)
            assert abs(got - f.norm() / math.sqrt(abs(c))) < 1e-12 * f.norm()

    def test_identity_pair_reduces_to_inner_product(self):
        rng = np.random.default_rng(SEED + 14)
        f = pwlab.rough_probe(1.0, 10, rng)
        g = pwlab.rough_probe(1.0, 10, rng)
        ident = AffineSymbol(1.0, 0.0)
        assert abs(
            pwlab.composed_inner_product(ident, f, ident, g) - pwlab.inner_product(f, g)
        ) < 1e-12

    def test_bandwidth_mismatch(self):
        f = pwlab.node_function(1.0, 4)
        g = pwlab.node_function(2.0, 4)
        phi = AffineSymbol(0.5, 0.0)
        with pytest.raises(BandwidthMismatchError):
            pwlab.composed_inner_product(phi, f, phi, g)

    def test_overflow_guard(self):
        f = pwlab.node_function(1.0, 4)
        phi_big = AffineSymbol(0.5, 400j)
        with pytest.raises(OverflowGuardError):
            pwlab.composed_inner_product(phi_big, f, AffineSymbol(1.0, 0.0), f)
