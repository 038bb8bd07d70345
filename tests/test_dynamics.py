"""Orbit growth, classification, expansivity, Cesaro means, shadowing."""

import math

import numpy as np
import pytest

import pwlab
from pwlab import AffineSymbol, OverflowGuardError, PwLabError

SEED = pwlab.DEFAULT_SEED


class TestOrbitNorms:
    def test_trace_shape_and_start(self):
        rng = np.random.default_rng(SEED)
        f = pwlab.rough_probe(1.0, 16, rng)
        tr = pwlab.orbit_norms(AffineSymbol(0.5, 1j), 1.0, f, 10)
        assert tr.norms.shape == (11,)
        assert abs(tr.norms[0] - f.norm()) < 1e-14
        assert tr.method == "closed-iterate"

    def test_pure_scaling_growth_is_exact(self):
        rng = np.random.default_rng(SEED + 1)
        f = pwlab.rough_probe(2.0, 24, rng)
        for c in (0.5, 0.25, -0.5):
            tr = pwlab.orbit_norms(AffineSymbol(c, 0.0), 2.0, f, 12)
            expected = f.norm() * np.power(abs(c), -np.arange(13) / 2.0)
            assert np.max(np.abs(tr.norms / expected - 1.0)) < 1e-12

    def test_reflection_orbit_has_period_two(self):
        rng = np.random.default_rng(SEED + 2)
        f = pwlab.rough_probe(1.0, 16, rng)
        tr = pwlab.orbit_norms(AffineSymbol(-1.0, 1.0 + 1.0j), 1.0, f, 9)
        np.testing.assert_allclose(tr.norms[0::2], tr.norms[0], rtol=1e-10)
        np.testing.assert_allclose(tr.norms[1::2], tr.norms[1], rtol=1e-10)

    def test_matches_resampled_route(self):
        rng = np.random.default_rng(SEED + 3)
        f = pwlab.smooth_probe(math.pi, 32, rng, spread=0.125, band=0.9)
        phi = AffineSymbol(0.5, 0.3)
        exact = pwlab.orbit_norms(phi, math.pi, f, 6)
        windowed = pwlab.orbit_norms_resampled(phi, math.pi, f, 6, grow=True)
        assert windowed.method == "resampled"
        for n in range(7):
            rel = abs(windowed.norms[n] / exact.norms[n] - 1.0)
            assert rel < max(n, 1) * 1e-8

    def test_windowed_route_saturates_without_grow(self):
        # fixed-window resampling loses escaping mass; the closed-iterate
        # route must not inherit that defect
        rng = np.random.default_rng(SEED + 4)
        f = pwlab.smooth_probe(1.0, 24, rng)
        phi = AffineSymbol(0.5, 0.0)
        exact = pwlab.orbit_norms(phi, 1.0, f, 12)
        windowed = pwlab.orbit_norms_resampled(phi, 1.0, f, 12, grow=False)
        assert exact.norms[12] > 5.0 * windowed.norms[12]

    def test_translation_root_norm_approaches_edge(self):
        rng = np.random.default_rng(SEED + 5)
        f = pwlab.rough_probe(1.0, 48, rng)
        tr = pwlab.orbit_norms(AffineSymbol(1.0, 1j), 1.0, f, 40)
        root = (tr.norms[40] / f.norm()) ** (1.0 / 40)
        assert abs(root / math.e - 1.0) < 0.08
        # and from below: the orbit norm never exceeds the operator norm power
        bound = np.exp(np.arange(41) * 1.0) * f.norm()
        assert np.all(tr.norms <= bound * (1.0 + 1e-9))

    def test_bandwidth_and_horizon_validation(self):
        f = pwlab.node_function(1.0, 4)
        with pytest.raises(ValueError):
            pwlab.orbit_norms(AffineSymbol(0.5, 0.0), 2.0, f, 5)
        with pytest.raises(ValueError):
            pwlab.orbit_norms(AffineSymbol(0.5, 0.0), 1.0, f, -1)

    def test_overflow_guard(self):
        f = pwlab.node_function(1.0, 4)
        with pytest.raises(OverflowGuardError):
            pwlab.orbit_norms(AffineSymbol(1.0, 30j), 1.0, f, 40)
        # the batched trace skips the per-pairing guard, so the orbit guard
        # must catch both the imaginary drift and the decay of c^n
        with pytest.raises(OverflowGuardError):
            pwlab.orbit_norms(AffineSymbol(0.5, 200j), 1.0, f, 3)
        with pytest.raises(OverflowGuardError):
            pwlab.cesaro_averages(AffineSymbol(1e-3, 0.0), 1.0, f, 100)

    def test_batched_trace_matches_single_pairings(self):
        rng = np.random.default_rng(SEED + 15)
        cases = [(0.5, 0.3 + 0.4j, 24), (-0.5, 1j, 24), (1.0, 0.2j, 48), (-1.0, 1.0 + 0.5j, 0),
                 (0.25, -0.7j, 7), (0.5, 0.0, 16)]
        for c, d, n in cases:
            phi = AffineSymbol(c, d)
            f = pwlab.rough_probe(1.0, n, rng)
            tr = pwlab.orbit_norms(phi, 1.0, f, 12)
            for j in range(13):
                single = pwlab.composed_norm(phi.iterate(j), f)
                assert abs(tr.norms[j] - single) <= 1e-13 * single, (c, d, n, j)


class TestClassify:
    EXPECTED = {
        (1.0, 0.0): dict(normal=True, unitary=True, invertible=True,
                         positively_expansive=False, cesaro_bounded=True),
        (1.0, 2.0): dict(normal=True, unitary=True, invertible=True,
                         positively_expansive=False, cesaro_bounded=True),
        (1.0, 1j): dict(normal=True, unitary=False, invertible=True,
                        positively_expansive=True, cesaro_bounded=False),
        (-1.0, 0.0): dict(normal=True, unitary=False, invertible=True,
                          positively_expansive=False, cesaro_bounded=True),
        (-1.0, 1.0 + 1j): dict(normal=False, unitary=False, invertible=True,
                               positively_expansive=False, cesaro_bounded=True),
        (0.5, 0.7): dict(normal=False, unitary=False, invertible=False,
                         positively_expansive=True, cesaro_bounded=False),
        (-0.25, 1j): dict(normal=False, unitary=False, invertible=False,
                          positively_expansive=True, cesaro_bounded=False),
    }

    def test_flag_table(self):
        for (c, d), expected in self.EXPECTED.items():
            report = pwlab.classify(AffineSymbol(c, d), 1.0)
            flags = report.flags()
            for key, value in expected.items():
                assert flags[key] == value, (c, d, key)
            # universal flags for admissible symbols
            assert flags["compact"] is False
            assert flags["closed_range"] is True
            assert flags["li_yorke"] is False
            assert flags["shadowing"] is False

    def test_justifications_are_self_contained(self):
        report = pwlab.classify(AffineSymbol(-1.0, 1j), 2.0)
        for flag in report.flags():
            text = report.justification(flag)
            assert isinstance(text, str) and len(text) > 10
        with pytest.raises(KeyError):
            report.justification("bounded")

    def test_bandwidth_independence_of_most_flags(self):
        # only norms depend on a; the flag table must not
        for a in (0.5, 1.0, math.pi):
            flags = pwlab.classify(AffineSymbol(0.5, 1j), a).flags()
            assert flags["positively_expansive"] is True
            assert flags["cesaro_bounded"] is False


class TestGrowthConstants:
    def test_second_constant_frozen_case(self):
        # a=pi node seed, c=1/2: delta = |f(0)| / (2 ||k_0||) = 1/2 exactly
        f = pwlab.node_function(math.pi, 8, 0)
        gb = pwlab.growth_constant_second(AffineSymbol(0.5, 0.0), f)
        assert gb.delta == 0.5
        assert gb.onset == 0

    def test_second_constant_bound_holds_on_orbit(self):
        rng = np.random.default_rng(SEED + 6)
        f = pwlab.smooth_probe(1.0, 48, rng)
        f = pwlab.scaled(f, 1.0 / f.norm())
        phi = AffineSymbol(0.5, 0.3 + 0.4j)
        gb = pwlab.growth_constant_second(phi, f, w0=0.0)
        tr = pwlab.orbit_norms(phi, 1.0, f, 30)
        lower = gb.delta * np.power(0.5, -np.arange(31) / 2.0) * f.norm()
        assert np.all(tr.norms[gb.onset:] >= lower[gb.onset:] * (1.0 - 1e-10))

    def test_second_constant_rejections(self):
        f = pwlab.node_function(math.pi, 8, 0)
        with pytest.raises(ValueError):
            pwlab.growth_constant_second(AffineSymbol(1.0, 1j), f)
        # witness point w0 + d/(1-c) = 1 is a node zero of the seed
        with pytest.raises(ValueError):
            pwlab.growth_constant_second(AffineSymbol(0.5, 0.5), f, w0=0.0)

    def test_third_constant_and_envelope(self):
        rng = np.random.default_rng(SEED + 7)
        f = pwlab.rough_probe(1.0, 32, rng)
        F = pwlab.to_l2(f, 4096)
        level = 0.5 * float(np.max(np.abs(F.values)))
        delta = pwlab.growth_constant_third(1.0, f, level)
        assert delta > 0.0
        env = pwlab.translation_growth_envelope(1j, 1.0, f, level, 15)
        assert env.shape == (15,)
        assert np.all(np.diff(env) > 0.0)  # growing translation orbit
        tr = pwlab.orbit_norms(AffineSymbol(1.0, 1j), 1.0, f, 15)
        assert np.all(tr.norms[1:] >= env * (1.0 - 1e-9))

    def test_third_constant_rejections(self):
        rng = np.random.default_rng(SEED + 8)
        f = pwlab.rough_probe(1.0, 16, rng)
        big = 10.0 * float(np.max(np.abs(pwlab.to_l2(f, 4096).values)))
        with pytest.raises(ValueError):
            pwlab.growth_constant_third(1.0, f, big)
        with pytest.raises(ValueError):
            pwlab.growth_constant_third(1.0, f, -1.0)


class TestExpansivity:
    def test_contracting_symbol_certificate(self):
        rng = np.random.default_rng(SEED + 9)
        f = pwlab.rough_probe(1.0, 32, rng)
        cert = pwlab.expansivity_certificate(AffineSymbol(0.5, 0.3), 1.0, f)
        assert cert.expansive is True
        assert cert.delta > 0.0
        assert 1 <= cert.n_star <= cert.cap
        tr = pwlab.orbit_norms(AffineSymbol(0.5, 0.3), 1.0,
                               pwlab.scaled(f, 1.0 / f.norm()), cert.n_star)
        assert tr.norms[cert.n_star] >= 2.0 * (1.0 - 1e-12)

    def test_translation_with_imaginary_part_is_expansive(self):
        rng = np.random.default_rng(SEED + 10)
        f = pwlab.rough_probe(1.0, 32, rng)
        cert = pwlab.expansivity_certificate(AffineSymbol(1.0, 1j), 1.0, f)
        assert cert.expansive is True
        assert cert.n_star is not None and cert.n_star <= cert.cap

    def test_bounded_symbols_report_sup(self):
        rng = np.random.default_rng(SEED + 11)
        f = pwlab.rough_probe(1.0, 32, rng)
        for phi in (AffineSymbol(1.0, 0.5), AffineSymbol(-1.0, 1.0 + 1j)):
            cert = pwlab.expansivity_certificate(phi, 1.0, f, horizon=30)
            assert cert.expansive is False
            assert cert.n_star is None and cert.delta is None
            bound = math.exp(abs(phi.d.imag) * 1.0)
            assert cert.sup_norm <= bound * (1.0 + 1e-9)
            assert cert.horizon == 30

    def test_zero_vector_rejected(self):
        zero = pwlab.PwFunction(1.0, np.zeros(9))
        with pytest.raises(ValueError):
            pwlab.expansivity_certificate(AffineSymbol(0.5, 0.0), 1.0, zero)


class TestCesaro:
    def test_averages_match_manual_cumsum(self):
        rng = np.random.default_rng(SEED + 12)
        f = pwlab.rough_probe(1.0, 16, rng)
        phi = AffineSymbol(-1.0, 1j)
        averages = pwlab.cesaro_averages(phi, 1.0, f, 12)
        norms = pwlab.orbit_norms(phi, 1.0, f, 12).norms
        manual = np.cumsum(norms[1:]) / np.arange(1, 13)
        np.testing.assert_allclose(averages, manual, rtol=1e-13)

    def test_tiny_slope_stays_in_range(self):
        # |c1 c2| = |c|^{2n} reaches 1e-480 here, below the double range, so
        # the pairing may never form it; the averages must stay finite and exact
        rng = np.random.default_rng(SEED + 16)
        f = pwlab.rough_probe(1.0, 24, rng)
        averages = pwlab.cesaro_averages(AffineSymbol(1e-3, 0.0), 1.0, f, 80)
        n = np.arange(1, 81)
        cap = 1e-3 ** (-n / 2.0) * f.norm()  # ||C_phi^n f|| for d = 0
        assert np.all(np.isfinite(averages))
        assert np.all(averages <= cap * (1.0 + 1e-9))
        np.testing.assert_allclose(averages, np.cumsum(cap) / n, rtol=1e-9)

    def test_combined_exponent_guard(self):
        # ||C_{phi^[n]} f||^2 carries n log(1/|c|) + 2 a |Im d_n|: 594 + 200 here,
        # each term in range on its own but their sum past the double range
        rng = np.random.default_rng(SEED + 17)
        f = pwlab.rough_probe(1.0, 24, rng)
        with pytest.raises(OverflowGuardError):
            pwlab.cesaro_averages(AffineSymbol(1e-3, 100j), 1.0, f, 86)
        # a sum of 594 is admitted and stays finite
        averages = pwlab.cesaro_averages(AffineSymbol(1e-3, 100j), 1.0, f, 57)
        assert np.all(np.isfinite(averages))

    def test_bounded_reflection_averages(self):
        rng = np.random.default_rng(SEED + 13)
        f = pwlab.rough_probe(1.0, 16, rng)
        averages = pwlab.cesaro_averages(AffineSymbol(-1.0, 2.0), 1.0, f, 30)
        assert np.max(averages) <= f.norm() * (1.0 + 1e-12)

    def test_lower_envelope_formula_and_witness_blowup(self):
        f = pwlab.node_function(math.pi, 4, 1)  # node kernel at 1
        phi = AffineSymbol(0.5, 0.0)
        env = pwlab.cesaro_lower_envelope(phi, f, 20, w0=1.0)
        averages = pwlab.cesaro_averages(phi, math.pi, f, 20)
        assert env.shape == (20,)
        assert np.all(averages >= env * (1.0 - 1e-10))
        assert averages[-1] > 100.0 * f.norm()
        # the orbit of the node kernel under halving doubles in norm each
        # two steps: ||C^n f|| = 2^{n/2} ||f|| exactly
        tr = pwlab.orbit_norms(phi, math.pi, f, 20)
        expected = np.power(2.0, np.arange(21) / 2.0) * f.norm()
        assert np.max(np.abs(tr.norms / expected - 1.0)) < 1e-10


class TestPseudotrajectory:
    def build(self, delta=0.1, n_max=30):
        f = pwlab.node_function(math.pi, 8, 0)
        return pwlab.build_pseudotrajectory(
            AffineSymbol(0.5, 0.0), math.pi, f, delta, n_max
        )

    def test_defect_is_delta_at_every_step(self):
        P = self.build()
        defects = np.array([P.defect(n) for n in range(P.n_max + 1)])
        assert np.max(np.abs(defects - 0.1)) < 1e-9

    def test_terms_grow_and_value_at_fixed_point_is_linear(self):
        P = self.build()
        f_alpha = pwlab.pw_eval(P.seed, 0.0)
        for n in (1, 5, 17, 30):
            expected = n * P.delta * f_alpha / P.step_norm
            assert abs(P.value_at_fixed_point(n) - expected) < 1e-10 * max(1.0, abs(expected))
        norms = [P.term_norm(n) for n in range(1, P.n_max + 1)]
        assert all(b > a for a, b in zip(norms, norms[1:]))

    def test_term_samples_reproduce_fixed_point_value(self):
        P = self.build(n_max=12)
        g = P.term_samples(7, half_width=256)
        assert abs(pwlab.pw_eval(g, 0.0) - P.value_at_fixed_point(7)) < 1e-8

    def test_zero_term(self):
        P = self.build(n_max=5)
        assert P.term_norm(0) == 0.0
        assert P.value_at_fixed_point(0) == 0.0

    def test_index_validation(self):
        P = self.build(n_max=5)
        with pytest.raises(ValueError):
            P.defect(6)
        with pytest.raises(ValueError):
            P.term_norm(8)

    def test_construction_rejections(self):
        f = pwlab.node_function(math.pi, 8, 0)
        with pytest.raises(ValueError):
            pwlab.build_pseudotrajectory(AffineSymbol(1.0, 1.0), math.pi, f, 0.1, 5)
        with pytest.raises(ValueError):
            pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.0), math.pi, f, 0.0, 5)
        # seed vanishing at the fixed point alpha = 3 (a lattice node)
        with pytest.raises(ValueError):
            pwlab.build_pseudotrajectory(AffineSymbol(0.5, 1.5), math.pi, f, 0.1, 5)


class TestShadowingDivergence:
    def test_zero_candidate_gives_term_norms(self):
        f = pwlab.node_function(math.pi, 8, 0)
        P = pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.0), math.pi, f, 0.1, 15)
        zero = pwlab.PwFunction(math.pi, np.zeros(17))
        D, L = pwlab.shadowing_divergence(P, zero)
        assert D.shape == L.shape == (15,)
        terms = np.array([P.term_norm(n) for n in range(1, 16)])
        np.testing.assert_allclose(D, terms, rtol=1e-10)
        assert np.all(D >= L - 1e-8)

    def test_divergence_beats_lower_bound_for_random_candidates(self):
        f = pwlab.node_function(math.pi, 8, 0)
        P = pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.0), math.pi, f, 0.1, 30)
        rng = np.random.default_rng(SEED + 14)
        for _ in range(3):
            g = pwlab.rough_probe(math.pi, 64, rng)
            g = pwlab.scaled(g, 0.04 / g.norm())
            D, L = pwlab.shadowing_divergence(P, g, 30)
            assert np.all(D >= L - 1e-8)
            assert abs(L[29] / L[14] / 2.0 - 1.0) < 0.05
            assert D[-1] > 1.0  # diverges far beyond any shadowing tolerance

    def test_lower_bound_is_linear_for_zero_candidate(self):
        f = pwlab.node_function(math.pi, 8, 0)
        P = pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.0), math.pi, f, 0.1, 20)
        zero = pwlab.PwFunction(math.pi, np.zeros(17))
        _, L = pwlab.shadowing_divergence(P, zero)
        steps = np.arange(1, 21, dtype=float)
        ratio = L / steps
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12 * abs(ratio[0])

    def test_candidate_validation(self):
        f = pwlab.node_function(math.pi, 8, 0)
        P = pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.0), math.pi, f, 0.1, 5)
        with pytest.raises(ValueError):
            pwlab.shadowing_divergence(P, pwlab.node_function(1.0, 4), 5)
        with pytest.raises(ValueError):
            pwlab.shadowing_divergence(P, pwlab.node_function(math.pi, 4), 9)
