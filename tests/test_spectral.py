"""Finite sections, norm estimates, spectra, and operator-theoretic witnesses."""

import math

import mpmath as mp
import numpy as np
import pytest

import pwlab
from pwlab import AffineSymbol, ConvergenceError, OperatorMatrix
from oracles import svd_norm

SEED = pwlab.DEFAULT_SEED


def closed_norm(phi, a):
    return math.exp(abs(phi.d.imag) * a) / math.sqrt(abs(phi.c))


class TestSections:
    def test_identity_section(self):
        T = pwlab.build_matrix(AffineSymbol(1.0, 0.0), 1.3, 20).entries
        assert np.max(np.abs(T - np.eye(41))) < 1e-14

    def test_reflection_section_squares_to_identity(self):
        T = pwlab.build_matrix(AffineSymbol(-1.0, 0.0), 2.0, 40).entries
        assert np.max(np.abs(T @ T - np.eye(81))) < 1e-13

    def test_entries_vs_mpmath(self):
        # halved-lattice section at a=pi: T[n,m] = sinc(pi (n/2 - m))
        T = pwlab.build_matrix(AffineSymbol(0.5, 0.0), math.pi, 16).entries
        mp.mp.dps = 50
        for n, m in [(1, 0), (1, 1), (1, 2), (3, -1), (2, 1), (4, 2), (-5, 3)]:
            u = mp.pi * (mp.mpf(n) / 2 - m)
            ref = float(mp.sin(u) / u) if u != 0 else 1.0
            assert abs(T[16 + n, 16 + m] - ref) < 1e-14

    def test_matrix_validation_and_immutability(self):
        T = pwlab.build_matrix(AffineSymbol(0.5, 0.0), 1.0, 4)
        with pytest.raises(ValueError):
            T.entries[0, 0] = 5.0
        with pytest.raises(ValueError):
            OperatorMatrix(AffineSymbol(0.5, 0.0), 1.0, 4, np.zeros((3, 9)))

    def test_build_guard(self):
        with pytest.raises(pwlab.OverflowGuardError):
            pwlab.build_matrix(AffineSymbol(1.0, 400j), 1.0, 8)


class TestNormEstimate:
    def test_against_lapack_on_sections(self):
        for phi, a in [
            (AffineSymbol(0.5, 0.0), math.pi),
            (AffineSymbol(1.0, 1j), 1.0),
            (AffineSymbol(-0.5, 0.3 + 0.2j), 1.0),
        ]:
            T = pwlab.build_matrix(phi, a, 32)
            est = pwlab.operator_norm_estimate(T, seed=SEED)
            assert abs(est - svd_norm(T.entries)) < 1e-5 * svd_norm(T.entries)

    def test_against_lapack_on_random_matrices(self):
        rng = np.random.default_rng(SEED)
        phi = AffineSymbol(0.5, 0.0)
        for _ in range(5):
            entries = rng.normal(size=(17, 17)) + 1j * rng.normal(size=(17, 17))
            T = OperatorMatrix(phi, 1.0, 8, entries)
            est = pwlab.operator_norm_estimate(T, seed=SEED)
            assert abs(est - svd_norm(entries)) < 1e-8 * svd_norm(entries)

    def test_sections_increase_to_closed_norm(self):
        phi = AffineSymbol(0.5, 0.7)
        a = 1.0
        prev = 0.0
        for n in (16, 32, 64, 128):
            est = pwlab.operator_norm_estimate(pwlab.build_matrix(phi, a, n), seed=SEED)
            assert est >= prev - 1e-5 * max(prev, 1.0)
            assert est <= closed_norm(phi, a) * (1.0 + 1e-9)
            prev = est
        assert prev >= closed_norm(phi, a) * 0.97

    def test_bracket_and_desk_window(self):
        a = 1.0
        for phi in (
            AffineSymbol(0.25, 0.0),
            AffineSymbol(0.5, 1j),
            AffineSymbol(-0.5, 1.0 + 1j),
            AffineSymbol(1.0, 0.5j),
        ):
            lo, hi = pwlab.norm_bounds(phi, a)
            assert abs(lo - 1.0 / math.sqrt(abs(phi.c))) < 1e-14
            assert abs(hi - closed_norm(phi, a)) < 1e-14
            est = pwlab.operator_norm_estimate(pwlab.build_matrix(phi, a, 128), seed=SEED)
            assert est <= hi * (1.0 + 1e-9)
            assert est >= hi * 0.97  # the upper edge is the actual norm

    def test_convergence_error_carries_state(self):
        T = pwlab.build_matrix(AffineSymbol(1.0, 1j), 1.0, 48)
        with pytest.raises(ConvergenceError) as info:
            pwlab.operator_norm_estimate(T, tol=1e-30, max_iterations=4, seed=SEED)
        assert info.value.estimate > 0.0
        assert info.value.residual >= 0.0
        with pytest.raises(ValueError):
            pwlab.operator_norm_estimate(T, max_iterations=2)


class TestSpectralRadius:
    def test_closed_values(self):
        assert pwlab.spectral_radius_closed(AffineSymbol(0.25, 5j), 1.0) == 2.0
        assert abs(
            pwlab.spectral_radius_closed(AffineSymbol(1.0, 2j), 1.5) - math.exp(3.0)
        ) < 1e-12
        assert pwlab.spectral_radius_closed(AffineSymbol(-1.0, 7.0 + 2j), 3.0) == 1.0

    def test_bracket_formulas(self):
        phi = AffineSymbol(0.5, 1j)
        a = 1.0
        for n in (1, 2, 5):
            lo, hi = pwlab.radius_bracket(phi, a, n)
            d_n = phi.iterate(n).d
            assert abs(lo - math.sqrt(2.0)) < 1e-14
            assert abs(hi - math.exp(abs(d_n.imag) * a / n) * math.sqrt(2.0)) < 1e-13
            assert lo <= hi
        # translations have a degenerate bracket: the root-norm is exact
        lo, hi = pwlab.radius_bracket(AffineSymbol(1.0, 1j), 1.0, 4)
        assert lo == hi == math.exp(1.0)

    def test_bracket_overflow_guard(self):
        # the upper edge exponentiates |Im d_n| a / n = 800
        with pytest.raises(pwlab.OverflowGuardError):
            pwlab.radius_bracket(AffineSymbol(1.0, 800j), 1.0, 1)

    def test_root_norm_sequence_in_bracket(self):
        phi = AffineSymbol(0.5, 1j)
        a = 1.0
        s = pwlab.spectral_radius_estimate(phi, a, 96, 6, seed=SEED)
        assert s.shape == (6,)
        for n in range(1, 7):
            lo, hi = pwlab.radius_bracket(phi, a, n)
            assert lo * 0.97 <= s[n - 1] <= hi * 1.03

    def test_root_norms_use_iterate_sections(self):
        # each entry must match the norm of the section of C_{phi^n}, not a
        # power of the n=1 section
        phi = AffineSymbol(0.5, 1.0)
        a = 1.0
        s = pwlab.spectral_radius_estimate(phi, a, 48, 3, seed=SEED)
        for n in (1, 2, 3):
            direct = pwlab.operator_norm_estimate(
                pwlab.build_matrix(phi.iterate(n), a, 48), seed=SEED
            ) ** (1.0 / n)
            assert abs(s[n - 1] - direct) < 1e-9


class TestSpectrumDescriptor:
    def test_reflection_pair(self):
        desc = pwlab.spectrum_closed_form(AffineSymbol(-1.0, 2.0 + 1j), 1.0)
        assert desc.kind == "two-point-set"
        pts = desc.boundary_samples(2)
        assert sorted(np.round(pts.real, 12).tolist()) == [-1.0, 1.0]
        assert desc.contains(1.0) and desc.contains(-1.0)
        assert not desc.contains(0.0) and not desc.contains(1j)
        assert abs(desc.max_boundary_modulus() - 1.0) < 1e-15

    def test_disk(self):
        desc = pwlab.spectrum_closed_form(AffineSymbol(0.25, 1j), 1.0)
        assert desc.kind == "closed-disk"
        assert abs(desc.radius - 2.0) < 1e-14
        assert np.max(np.abs(np.abs(desc.boundary_samples(64)) - 2.0)) < 1e-13
        assert desc.contains(0.0) and desc.contains(1.9j) and desc.contains(2.0)
        assert not desc.contains(2.0001) and not desc.contains(-2.5j)

    def test_arc(self):
        a = 1.0
        d = 0.3 + 0.5j
        desc = pwlab.spectrum_closed_form(AffineSymbol(1.0, d), a)
        assert desc.kind == "exponential-arc"
        samples = desc.boundary_samples(101)
        t = np.linspace(-a, a, 101)
        np.testing.assert_allclose(samples, np.exp(1j * d * t), atol=1e-13)
        assert desc.contains(np.exp(1j * d * 0.7))
        assert desc.contains(np.exp(1j * d * a))  # endpoint included
        assert not desc.contains(np.exp(1j * d * 1.2))  # off the parameter range
        assert not desc.contains(0.0)
        assert abs(desc.max_boundary_modulus(4097) - math.exp(0.5 * a)) < 1e-6

    def test_real_translation_arc_is_unit_circle_arc(self):
        desc = pwlab.spectrum_closed_form(AffineSymbol(1.0, 2.0), 1.0)
        assert desc.kind == "exponential-arc"
        assert abs(desc.max_boundary_modulus() - 1.0) < 1e-14
        assert desc.contains(np.exp(2j))

    def test_max_modulus_matches_closed_radius(self):
        a = 1.0
        for phi in (
            AffineSymbol(-1.0, 3.0 + 2j),
            AffineSymbol(0.5, 1.0 + 1j),
            AffineSymbol(1.0, 1j),
        ):
            desc = pwlab.spectrum_closed_form(phi, a)
            gap = abs(desc.max_boundary_modulus(1025) - pwlab.spectral_radius_closed(phi, a))
            assert gap <= 1e-12


class TestWitnesses:
    def test_compactness_witness_constant(self):
        w = pwlab.compactness_witness(AffineSymbol(0.5, 1j), 1.0, 30)
        assert w.shape == (30,)
        assert np.max(np.abs(w - math.sinh(2.0) / 2.0)) < 1e-12
        w_real = pwlab.compactness_witness(AffineSymbol(-0.5, 4.0), 2.0, 10)
        assert np.max(np.abs(w_real - 1.0)) < 1e-12

    def test_isometry_check_detects_exactness(self):
        dev = pwlab.isometry_check(0.5, math.pi, 10, half_width=32, seed=SEED)
        assert dev < 1e-9

    def test_closed_range_fact(self):
        ok, why = pwlab.closed_range_fact(AffineSymbol(0.5, 1j))
        assert ok and isinstance(why, str) and why
        ok2, why2 = pwlab.closed_range_fact(AffineSymbol(1.0, 2.0))
        assert ok2 and why2

    def test_norm_witness_probe_deterministic(self):
        f1 = pwlab.smooth_probe(1.0, 32, np.random.default_rng(4))
        f2 = pwlab.smooth_probe(1.0, 32, np.random.default_rng(4))
        np.testing.assert_array_equal(f1.samples, f2.samples)
        phi = AffineSymbol(0.5, 1j)
        ratio = pwlab.composed_norm(phi, f1) / f1.norm()
        lo, hi = pwlab.norm_bounds(phi, 1.0)
        assert ratio <= hi * (1.0 + 1e-12)
