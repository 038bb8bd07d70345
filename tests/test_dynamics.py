"""Orbit growth, classification, expansivity, Cesaro means, shadowing."""

import math
import re

import numpy as np
import pytest

import pwlab
from pwlab import AdmissibilityError, AffineSymbol, BandwidthMismatchError, OverflowGuardError, PwLabError
from pwlab import dynamics
from pwlab.core import _iterate_parts
from pwlab.dynamics import _lower_pairings
from pwlab.verify import _fourier_orbit

from oracles import dense_pairing, full_cross_divergence, gram_form, term_coefficients

SEED = pwlab.DEFAULT_SEED


class TestOrbitNorms:
    def test_trace_shape_and_start(self):
        rng = np.random.default_rng(SEED)
        f = pwlab.rough_probe(1.0, 16, rng)
        tr = pwlab.orbit_norms(AffineSymbol(0.5, 1j), 1.0, f, 10)
        assert tr.norms.shape == (11,)
        assert abs(tr.norms[0] - f.norm()) < 1e-14
        assert tr.method == "closed-iterate"

    def test_outputs_match_symbol_per_iterate(self):
        # orbit_norms and cesaro_averages read (c^n, d_n) without building an
        # AffineSymbol per iterate; the parent's route, symbol by symbol, gives
        # the same bytes
        rng = np.random.default_rng(SEED + 2)
        for c in (1.0, -1.0, 0.5, -0.5, 0.25, 0.9):
            for d in (0.0, 0.7, 1j, 1.0 + 1j, 0.3 - 0.2j):
                phi = AffineSymbol(c, d)
                for a, probe in ((1.0, pwlab.rough_probe), (math.pi, pwlab.smooth_probe)):
                    f, n_max = probe(a, 16, rng), 30
                    its = [phi.iterate(n) for n in range(1, n_max + 1)]
                    shift = np.array([it.d - it.d.conjugate() for it in its])
                    squares = (math.pi / (a * np.abs([it.c for it in its]))) * (
                        pwlab.core._pairings(a, f.samples, f.samples, 1.0, shift).real
                    )
                    norms = np.concatenate(([f.norm()], np.sqrt(np.maximum(squares, 0.0))))
                    assert pwlab.orbit_norms(phi, a, f, n_max).norms.tobytes() == norms.tobytes()
                    averages = np.cumsum(norms[1:]) / np.arange(1, n_max + 1)
                    assert pwlab.cesaro_averages(phi, a, f, n_max).tobytes() == averages.tobytes()

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

    def test_matches_fourier_route(self):
        # real d: weight 1, so the Fourier sum is Parseval on |F|^2, exact to
        # rounding on any grid that holds the samples; complex d: within the
        # Richardson slack C8 and C9 hold the route to
        rng = np.random.default_rng(SEED + 3)
        eps = np.finfo(float).eps
        for c in (1.0, -1.0, 0.5, -0.5, 0.25):
            for a, probe in ((math.pi, pwlab.smooth_probe), (1.0, pwlab.rough_probe)):
                f = probe(a, 32, rng)
                exact = pwlab.orbit_norms(AffineSymbol(c, 0.3), a, f, 30).norms
                for m_points in (65, 4096):
                    tr = pwlab.orbit_norms_fourier(AffineSymbol(c, 0.3), pwlab.to_l2(f, m_points), 30)
                    assert tr.method == "fourier"
                    assert np.max(np.abs(tr.norms / exact - 1.0)) <= 8 * eps, (c, a, m_points)
                phi = AffineSymbol(c, 0.3 + 0.5j)
                norms, slack = _fourier_orbit(phi, f, 30)
                try:
                    exact = pwlab.orbit_norms(phi, a, f, 30).norms
                except OverflowGuardError as err:
                    # the closed route's square at n rounded to <= 0 (c = 1 on
                    # PW_pi): the Fourier route must put the true square under
                    # the rounding bound B_n the error names, and the two routes
                    # still agree before n
                    n = int(re.search(r"at n = (\d+) ", str(err)).group(1))
                    assert norms[n] ** 2 <= float(str(err).rsplit(" ", 1)[1]), (c, a, n)
                    exact = pwlab.orbit_norms(phi, a, f, n - 1).norms
                assert np.all(np.abs(norms[: exact.size] - exact) <= slack[: exact.size]), (c, a)
        # the Richardson step removes the midpoint rule's h^2 error: under a
        # hundredth of the raw M = 4096 gap is left
        f = pwlab.rough_probe(1.0, 64, rng)
        phi = AffineSymbol(1.0, 1j)
        exact = pwlab.orbit_norms(phi, 1.0, f, 40).norms
        raw = pwlab.orbit_norms_fourier(phi, pwlab.to_l2(f, 4096), 40).norms
        norms, _ = _fourier_orbit(phi, f, 40)
        assert np.max(np.abs(norms / exact - 1.0)) < 1e-2 * np.max(np.abs(raw / exact - 1.0))

    def test_windowed_route_saturates_without_grow(self):
        # fixed-window resampling loses escaping mass; the closed-iterate
        # and Fourier routes must not inherit that defect
        rng = np.random.default_rng(SEED + 4)
        f = pwlab.smooth_probe(1.0, 24, rng)
        phi = AffineSymbol(0.5, 0.0)
        exact = pwlab.orbit_norms(phi, 1.0, f, 12)
        windowed = f
        for _ in range(12):
            windowed = pwlab.compose_apply(phi, windowed)
        assert exact.norms[12] > 5.0 * windowed.norm()
        fourier = pwlab.orbit_norms_fourier(phi, pwlab.to_l2(f, 64), 12)
        assert abs(fourier.norms[12] / exact.norms[12] - 1.0) < 1e-14

    def test_translation_root_norm_approaches_edge(self):
        rng = np.random.default_rng(SEED + 5)
        f = pwlab.rough_probe(1.0, 48, rng)
        tr = pwlab.orbit_norms(AffineSymbol(1.0, 1j), 1.0, f, 40)
        root = (tr.norms[40] / f.norm()) ** (1.0 / 40)
        assert abs(root / math.e - 1.0) < 0.08
        # and from below: the orbit norm never exceeds the operator norm power
        bound = np.exp(np.arange(41) * 1.0) * f.norm()
        assert np.all(tr.norms <= bound * (1.0 + 1e-9))

    def test_square_lost_to_rounding_raises(self):
        # c = 1, d = 0.3+0.5i on PW_pi: the pairing's rounding bound B_n grows
        # as e^{2 pi n/2} and passes the true square, which rounds to <= 0 at
        # n = 25; the trace raises there, naming n and B_n, not a silent 0.0
        phi = AffineSymbol(1.0, 0.3 + 0.5j)
        f = pwlab.smooth_probe(math.pi, 32, np.random.default_rng(0))
        with pytest.raises(OverflowGuardError, match=r"at n = 25 .* B_n = eps pi/\(a \|c\^n\|\)"):
            pwlab.orbit_norms(phi, math.pi, f, 30)
        assert np.all(pwlab.orbit_norms(phi, math.pi, f, 24).norms > 0.0)
        # a zero probe keeps its exact zero orbit
        zero = pwlab.PwFunction(math.pi, np.zeros(9))
        assert np.all(pwlab.orbit_norms(phi, math.pi, zero, 30).norms == 0.0)

    def test_bandwidth_and_horizon_validation(self):
        f = pwlab.node_function(1.0, 4)
        phi = AffineSymbol(0.5, 0.0)
        P = pwlab.build_pseudotrajectory(phi, 1.0, f, 0.1, 3)
        for call in (lambda: pwlab.orbit_norms(phi, 2.0, f, 5),
                     lambda: pwlab.build_pseudotrajectory(phi, 2.0, f, 0.1, 3),
                     lambda: pwlab.shadowing_divergence(P, pwlab.node_function(2.0, 4))):
            with pytest.raises(BandwidthMismatchError):
                call()
        with pytest.raises(ValueError):
            pwlab.orbit_norms(AffineSymbol(0.5, 0.0), 1.0, f, -1)
        with pytest.raises(ValueError):
            pwlab.orbit_norms_fourier(AffineSymbol(0.5, 0.0), pwlab.to_l2(f, 64), -1)

    def test_overflow_guard(self):
        f = pwlab.node_function(1.0, 4)
        F = pwlab.to_l2(f, 64)
        # the batched trace skips the per-pairing guard, so the orbit guard
        # must catch both the imaginary drift and the decay of c^n; the
        # Fourier weights carry the same exponent
        for trace in (lambda phi, n: pwlab.orbit_norms(phi, 1.0, f, n),
                      lambda phi, n: pwlab.orbit_norms_fourier(phi, F, n)):
            with pytest.raises(OverflowGuardError):
                trace(AffineSymbol(1.0, 30j), 40)
            with pytest.raises(OverflowGuardError):
                trace(AffineSymbol(0.5, 200j), 3)
            with pytest.raises(OverflowGuardError):
                trace(AffineSymbol(1e-3, 0.0), 100)
        with pytest.raises(OverflowGuardError):
            pwlab.cesaro_averages(AffineSymbol(1e-3, 0.0), 1.0, f, 100)
        # the guard reads the exponents of the iterate table itself: at (0.5,
        # 100i) the orbit reaches 2 a |Im d_n| = 300 at n = 2 and 350 at n = 3
        g = pwlab.rough_probe(1.0, 16, np.random.default_rng(SEED))
        phi = AffineSymbol(0.5, 100j)
        exact = pwlab.orbit_norms(phi, 1.0, g, 2).norms
        norms, slack = _fourier_orbit(phi, g, 2)
        assert np.all(np.isfinite(exact)) and np.all(np.abs(norms - exact) <= slack)
        for trace in (lambda n: pwlab.orbit_norms(phi, 1.0, g, n),
                      lambda n: pwlab.orbit_norms_fourier(phi, pwlab.to_l2(g, 64), n)):
            with pytest.raises(OverflowGuardError, match="350.0 > 300"):
                trace(3)

    def test_horizon_past_range_fails_before_the_table(self, monkeypatch):
        # the row n_max is guarded before the (c^n, d_n) table is built, so a
        # horizon past range raises after one iterate, not n_max + 1 of them
        f = pwlab.node_function(1.0, 4)
        F = pwlab.to_l2(f, 64)
        rows = []

        def one_row(c, d, n):
            rows.append(n)
            assert len(rows) == 1, "the iterate table was built before the horizon was guarded"
            return _iterate_parts(c, d, n)

        monkeypatch.setattr(dynamics, "_iterate_parts", one_row)
        for phi in (AffineSymbol(0.5, 0.0), AffineSymbol(1.0, 1j)):
            for trace in (lambda: pwlab.orbit_norms(phi, 1.0, f, 10**9),
                          lambda: pwlab.orbit_norms_fourier(phi, F, 10**9)):
                rows.clear()
                with pytest.raises(OverflowGuardError, match="squared orbit norm exponent"):
                    trace()

    def test_iterates_past_float_range_are_inadmissible(self):
        # the orbit code builds no AffineSymbol per iterate, yet a d_n past the
        # float range still raises as iterate does, before any pairing
        f = pwlab.node_function(1.0, 4)
        F = pwlab.to_l2(f, 64)
        for phi, n in ((AffineSymbol(1.0, 1e308), 2), (AffineSymbol(1.0, 1e308j), 2),
                       (AffineSymbol(-1.0, 1e308), 1)):
            for call in (
                lambda: phi.iterate(n),
                lambda: pwlab.orbit_norms(phi, 1.0, f, 2),
                lambda: pwlab.orbit_norms_fourier(phi, F, 2),
                lambda: pwlab.cesaro_averages(phi, 1.0, f, 2),
            ):
                with pytest.raises(AdmissibilityError, match="d must be finite"):
                    call()

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
        delta = pwlab.growth_constant_third(F, level)
        assert delta > 0.0
        # the level-set envelope is the Fourier route with |F| cut down to
        # level on A = {|F| >= level} and to 0 off it
        phi = AffineSymbol(1.0, 1j)
        cut = pwlab.L2Function(1.0, np.where(np.abs(F.values) >= level, level, 0.0))
        env = pwlab.orbit_norms_fourier(phi, cut, 15).norms
        assert env.shape == (16,)
        assert abs(env[0] - delta) <= 1e-14 * delta
        assert np.all(np.diff(env) > 0.0)  # growing translation orbit
        tr = pwlab.orbit_norms(phi, 1.0, f, 15)
        assert np.all(tr.norms[1:] >= env[1:] * (1.0 - 1e-9))

    def test_third_constant_rejections(self):
        rng = np.random.default_rng(SEED + 8)
        F = pwlab.to_l2(pwlab.rough_probe(1.0, 16, rng), 4096)
        big = 10.0 * float(np.max(np.abs(F.values)))
        with pytest.raises(ValueError):
            pwlab.growth_constant_third(F, big)
        with pytest.raises(ValueError):
            pwlab.growth_constant_third(F, -1.0)
        # a zero function has an empty level set at every positive level
        with pytest.raises(ValueError, match="level set empty"):
            pwlab.growth_constant_third(pwlab.L2Function(1.0, np.zeros(64)), 1e-300)


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

    def test_range_guard_is_not_swallowed_by_the_witness_scan(self):
        # every witness point w0 + d/(1-c) lies near 400i, past the evaluation range
        phi = AffineSymbol(0.5, 200j)
        f = pwlab.rough_probe(1.0, 16, np.random.default_rng(0))
        with pytest.raises(OverflowGuardError, match="evaluation exponent"):
            pwlab.expansivity_certificate(phi, 1.0, f)
        with pytest.raises(OverflowGuardError):
            pwlab.growth_constant_second(phi, f)
        with pytest.raises(OverflowGuardError):
            pwlab.cesaro_averages(phi, 1.0, f, 10)

    def test_witness_scan_passes_over_zeros_of_f(self):
        # the node seed at a = pi vanishes at every nonzero integer: w0 = 0 and
        # w0 = 1 put w1 = w0 + d/(1-c) on the zeros 1 and 2, w0 = -1 on 0
        f = pwlab.node_function(math.pi, 8, 0)
        phi = AffineSymbol(0.5, 0.5)
        for w0 in (0.0, 1.0):
            with pytest.raises(ValueError, match="vanishes"):
                pwlab.growth_constant_second(phi, f, w0=w0)
        cert = pwlab.expansivity_certificate(phi, math.pi, f)
        assert cert.expansive is True
        assert cert.delta == pwlab.growth_constant_second(phi, f, w0=-1.0).delta
        assert 1 <= cert.n_star <= cert.cap


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

    def test_block_sums_match_the_quadratic_form(self):
        # term_norm and defect against Re(x* gram x) with x the coefficient
        # vector of f_n, and of C_phi f_n - f_{n+1}, written out
        rng = np.random.default_rng(SEED + 20)
        eps = np.finfo(float).eps
        for c in (0.5, -0.5, 0.25, -1.0, 0.9):
            for d in (0.0, 0.3, 0.2 + 0.1j, -0.3 + 0.4j):
                f = pwlab.rough_probe(1.3, 16, rng)
                P = pwlab.build_pseudotrajectory(AffineSymbol(c, d), 1.3, f, 0.1, 20)
                for n in range(P.n_max + 2):
                    ref = math.sqrt(max(gram_form(P, term_coefficients(P, n)), 0.0))
                    assert abs(P.term_norm(n) - ref) <= 8 * eps * ref, (c, d, n)
                for n in range(P.n_max + 1):
                    push = np.zeros(P.n_max + 1, dtype=np.complex128)
                    push[1 : n + 1] = P.coefficient
                    x = push - term_coefficients(P, n + 1)
                    ref = math.sqrt(max(gram_form(P, x), 0.0))
                    assert abs(P.defect(n) - ref) <= 8 * eps * ref, (c, d, n)

    def test_index_validation(self):
        P = self.build(n_max=5)
        with pytest.raises(ValueError):
            P.defect(6)
        with pytest.raises(ValueError):
            P.term_norm(8)
        with pytest.raises(ValueError):
            P.value_at_fixed_point(-1)

    def test_term_samples_rejects_negative_index(self):
        P = self.build(n_max=5)
        with pytest.raises(ValueError, match="term index must be nonnegative"):
            P.term_samples(-1)

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

    def test_divergence_at_real_translation(self):
        # alpha = 0.2 is no node, so f(alpha) and g(alpha) are full cardinal sums
        f = pwlab.node_function(math.pi, 8, 0)
        P = pwlab.build_pseudotrajectory(AffineSymbol(-0.5, 0.3), math.pi, f, 0.1, 20)
        rng = np.random.default_rng(SEED + 15)
        for _ in range(3):
            g = pwlab.rough_probe(math.pi, 32, rng)
            g = pwlab.scaled(g, 0.04 / g.norm())
            D, L = pwlab.shadowing_divergence(P, g, 20)
            assert np.all(D >= L - 1e-8)
            steps = np.diff(L)
            assert steps[0] > 0.0
            assert np.max(np.abs(steps - steps[0])) < 1e-12 * steps[0]

    def test_divergence_at_complex_translation(self):
        # alpha = 0.4 + 0.2i: the lag tables carry one row per Im d_i
        f = pwlab.node_function(math.pi, 8, 0)
        P = pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.2 + 0.1j), math.pi, f, 0.1, 20)
        rng = np.random.default_rng(SEED + 18)
        for _ in range(3):
            g = pwlab.rough_probe(math.pi, 32, rng)
            g = pwlab.scaled(g, 0.04 / g.norm())
            D, L = pwlab.shadowing_divergence(P, g, 20)
            assert np.all(D >= L - 1e-8)
            steps = np.diff(L)
            assert steps[0] > 0.0
            assert np.max(np.abs(steps - steps[0])) < 1e-12 * steps[0]

    def test_matches_full_cross_oracle(self):
        # the one-table divergence against both lag tables and the full cross
        # row: L is bit-identical, D moves in its last digits at most
        rng = np.random.default_rng(SEED + 19)
        for c in (0.5, -0.5, 0.25, -1.0, 0.9):
            for d in (0.0, 0.3, 0.2 + 0.1j, -0.3 + 0.4j):
                # C10's windows 8 / 64 at its n = 30, unequal windows, n_max < P.n_max
                for nf, ng, n, n_max in ((8, 64, 30, 30), (32, 8, 20, 15), (16, 16, 12, 12),
                                         (8, 32, 5, 3)):
                    f = pwlab.rough_probe(1.3, nf, rng)
                    g = pwlab.rough_probe(1.3, ng, rng)
                    g = pwlab.scaled(g, 0.04 / g.norm())
                    P = pwlab.build_pseudotrajectory(AffineSymbol(c, d), 1.3, f, 0.1, n)
                    D, L = pwlab.shadowing_divergence(P, g, n_max)
                    D_ref, L_ref = full_cross_divergence(P, g, n_max)
                    assert np.array_equal(L, L_ref), (c, d, nf, ng, n, n_max)
                    np.testing.assert_allclose(D, D_ref, rtol=1e-13, atol=0.0)

    def test_candidate_validation(self):
        f = pwlab.node_function(math.pi, 8, 0)
        P = pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.0), math.pi, f, 0.1, 5)
        with pytest.raises(ValueError):
            pwlab.shadowing_divergence(P, pwlab.node_function(1.0, 4), 5)
        with pytest.raises(ValueError):
            pwlab.shadowing_divergence(P, pwlab.node_function(math.pi, 4), 9)


class TestSemigroupPairings:
    """The gram and the lower cross table D_n reads, against one composed_inner_product per entry."""

    A = 1.3  # a * alpha is no multiple of pi for any symbol below

    @staticmethod
    def per_pair(phi, g, f, rows, cols):
        its = [phi.iterate(k) for k in range(1, max(rows, cols) + 1)]
        return np.array(
            [[pwlab.composed_inner_product(its[i], g, its[j], f) for j in range(cols)]
             for i in range(rows)]
        )

    def bound(self, phi, g, f, rows, cols):
        # the per-pair rounding scale, with the pairing's own factor e^{a |Im s_ij|}:
        # s_ij = d_j - c^(j-i) conj(d_i) for j >= i, and the swapped pair for i > j
        i = np.arange(1, rows + 1)[:, None]
        j = np.arange(1, cols + 1)
        near, far = np.minimum(i, j), np.maximum(i, j)
        im = np.array([phi.iterate(k).d.imag for k in range(max(rows, cols) + 1)])
        im_s = im[far] + phi.c ** (far - near) * im[near]
        scale = abs(phi.c) ** -near * np.exp(self.A * np.abs(im_s))
        return 1e-13 * scale * math.pi / self.A * np.sum(np.abs(g.samples)) * np.sum(np.abs(f.samples))

    def check_against_per_pair(self, c_values, d_values, rng):
        for c in c_values:
            for d in d_values:
                phi = AffineSymbol(c, d)
                for n in (1, 5, 12):
                    nf, ng = (int(k) for k in rng.choice((0, 1, 8, 32), size=2, replace=False))
                    f = pwlab.rough_probe(self.A, nf, rng)
                    g = pwlab.rough_probe(self.A, ng, rng)
                    P = pwlab.build_pseudotrajectory(phi, self.A, f, 0.1, n)
                    err = np.abs(P.gram - self.per_pair(phi, f, f, n + 1, n + 1))
                    assert np.all(err <= self.bound(phi, f, f, n + 1, n + 1)), (c, d, n)
                    # D_n reads <C_{phi^[n]} g, C_{phi^[j]} f> for j <= n only, diagonal included
                    for rows in {1, n}:
                        cross = _lower_pairings(phi, g, f, rows)
                        below = np.tri(rows, dtype=bool)
                        assert np.all(cross[~below] == 0.0)
                        err = np.abs(cross - self.per_pair(phi, g, f, rows, rows))[below]
                        bound = self.bound(phi, g, f, rows, rows)[below]
                        assert np.all(err <= bound), (c, d, n, rows)

    def test_real_d_matches_per_pair_route(self):
        rng = np.random.default_rng(SEED + 16)
        self.check_against_per_pair((0.5, -0.5, 0.25, -1.0, 0.9), (0.0, 0.3, -0.3, 1.7), rng)

    def test_real_d_matches_dense_pairing(self):
        # real d sums the lag table on the real axis, where composed_inner_product
        # sums too; the dense np.sinc double sum shares no code with that kernel
        rng = np.random.default_rng(SEED + 18)
        n = 12
        for c in (0.5, -0.5, 0.25):
            for d in (0.0, 0.3):
                phi = AffineSymbol(c, d)
                its = [phi.iterate(k) for k in range(1, n + 2)]
                for nf in (8, 32):
                    f = pwlab.rough_probe(self.A, nf, rng)
                    g = pwlab.rough_probe(self.A, 40 - nf, rng)
                    P = pwlab.build_pseudotrajectory(phi, self.A, f, 0.1, n)
                    # the lower triangles, diagonal included: the gram is Hermitian
                    for h, table, rows in ((f, P.gram, n + 1), (g, _lower_pairings(phi, g, f, n), n)):
                        i, j = np.tril_indices(rows)
                        ref = np.array([dense_pairing(its[p], h, its[q], f) for p, q in zip(i, j)])
                        bound = self.bound(phi, h, f, rows, rows)[i, j]
                        assert np.all(np.abs(table[i, j] - ref) <= bound), (c, d, nf, rows)

    def test_complex_d_keeps_per_pair_route(self):
        # complex d goes through the same lag table as real d, with the shift
        # 2i c^k Im d_i; it keeps the per-pair values within the rounding bound
        rng = np.random.default_rng(SEED + 17)
        self.check_against_per_pair((0.5, -0.5, 0.25, -1.0, 0.9), (0.2 + 0.1j, -0.3 + 0.4j, 1j), rng)

    def test_pairing_guard(self):
        # the orbit guard of the public entry points already covers these
        # exponents, so the table is called directly: _cardinal guards the
        # points it sums at
        f = pwlab.node_function(self.A, 4, 0)
        with pytest.raises(OverflowGuardError, match="evaluation exponent a \\|Im z\\| 910.0 > 300"):
            _lower_pairings(AffineSymbol(0.5, 1.0 + 200j), f, f, 3)
        with pytest.raises(OverflowGuardError, match="evaluation range"):
            _lower_pairings(AffineSymbol(0.5, 1e200), f, f, 3)
