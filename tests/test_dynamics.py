"""Orbit growth, classification, expansivity, Cesaro means, shadowing."""

import dataclasses
import math
import re

import numpy as np
import pytest

import pwlab
from pwlab import AdmissibilityError, AffineSymbol, BandwidthMismatchError, OverflowGuardError, PwLabError
from pwlab import dynamics
from pwlab.core import _rounding_bound
from pwlab.dynamics import _lower_pairings
from pwlab.verify import _GRID_C, _GRID_D, _envelope_shortfall, _fourier_orbit

from oracles import dense_pairing, full_cross_divergence, gram_form, term_coefficients

SEED = pwlab.DEFAULT_SEED


def orbit_routes(half_width, seed=SEED):
    """orbit_norms against the Fourier route for n <= 40, on probes of N = half_width; returns the largest gaps.

    For each c in {+-1, +-1/2, 1/4}: a smooth probe at a = pi and a rough one
    at a = 1, drawn in turn from one generator, and the first rough draw of a
    fresh one.  At d = 0.3 the weight is 1, so the Fourier sum is Parseval on
    |F|^2, exact to rounding (8 eps relative) on any grid that holds the
    samples: 2N + 1 and 4096 points.  At d = 0.3 + 0.5i, and at (1, i),
    _fourier_orbit stays within the Richardson slack C8 and C9 hold it to.
    Where the closed route's square at n rounds to <= 0 (c = 1 on PW_pi), the
    Fourier route must put the true square under the rounding bound B_n the
    error names, and the two routes still agree before n.  The gaps are the
    real-d one as a share of 8 eps and the complex-d one as a share of the slack.
    """
    rng = np.random.default_rng(seed)
    first = pwlab.rough_probe(1.0, half_width, np.random.default_rng(seed))
    real = cplx = 0.0
    for c in (1.0, -1.0, 0.5, -0.5, 0.25):
        for f in [pwlab.smooth_probe(math.pi, half_width, rng), pwlab.rough_probe(1.0, half_width, rng), first]:
            exact = pwlab.orbit_norms(AffineSymbol(c, 0.3), f.a, f, 40).norms
            for m_points in (2 * half_width + 1, 4096):
                tr = pwlab.orbit_norms_fourier(AffineSymbol(c, 0.3), pwlab.to_l2(f, m_points), 40)
                real = max(real, float(np.max(np.abs(tr.norms / exact - 1.0))) / (8 * np.finfo(float).eps))
                assert real <= 1.0, (c, f.a, m_points)
            for phi in [AffineSymbol(c, 0.3 + 0.5j)] + [AffineSymbol(1.0, 1j)] * (c == 1.0):
                norms, slack = _fourier_orbit(phi, f, 40)
                horizon = 40
                while True:
                    try:
                        exact = pwlab.orbit_norms(phi, f.a, f, horizon).norms
                        break
                    except OverflowGuardError as err:
                        horizon = int(re.search(r"at n = (\d+) ", str(err)).group(1))
                        assert norms[horizon] ** 2 <= float(str(err).rsplit(" ", 1)[1]), (phi, f.a, horizon)
                        horizon -= 1
                cplx = max(cplx, float(np.max(np.abs(norms[: exact.size] - exact) / slack[: exact.size])))
                assert cplx <= 1.0, (phi, f.a)
    return real, cplx


class TestOrbitNorms:
    def test_trace_shape_and_start(self):
        rng = np.random.default_rng(SEED)
        f = pwlab.rough_probe(1.0, 16, rng)
        tr = pwlab.orbit_norms(AffineSymbol(0.5, 1j), 1.0, f, 10)
        assert tr.norms.shape == (11,)
        assert abs(tr.norms[0] - f.norm()) < 1e-14

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
        orbit_routes(32, SEED + 3)
        # the Richardson step removes the midpoint rule's h^2 error: under a
        # hundredth of the raw M = 4096 gap is left
        f = pwlab.rough_probe(1.0, 64, np.random.default_rng(SEED + 3))
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
        # n = 24; the trace raises there, naming n and B_n, not a silent 0.0.
        # The first lost n is where rounding noise first lands at or below 0:
        # it was n = 25 while the samples' autocorrelation took the FFT, and is
        # n = 24 (exactly 0.0) with the direct sum; B_24 = 2.7e19 is 2.1e3
        # times the true square there, so at both n no digit of it is left
        phi = AffineSymbol(1.0, 0.3 + 0.5j)
        f = pwlab.smooth_probe(math.pi, 32, np.random.default_rng(0))
        with pytest.raises(OverflowGuardError, match=r"at n = 24 .* B_n = eps pi/\(a \|c\^n\|\)"):
            pwlab.orbit_norms(phi, math.pi, f, 30)
        assert np.all(pwlab.orbit_norms(phi, math.pi, f, 23).norms > 0.0)
        # a zero probe keeps its exact zero orbit
        zero = pwlab.PwFunction(math.pi, np.zeros(9))
        assert np.all(pwlab.orbit_norms(phi, math.pi, zero, 30).norms == 0.0)

    def test_bandwidth_and_horizon_validation(self):
        f = pwlab.node_function(1.0, 4)
        phi = AffineSymbol(0.5, 0.0)
        P = pwlab.build_pseudotrajectory(phi, 1.0, f, 0.1, 3)
        # a contracting, a translation and a bounded certificate check the bandwidth up front
        certs = [lambda s=s: pwlab.expansivity_certificate(AffineSymbol(*s), 2.0, f)
                 for s in ((0.5, 0.3), (1.0, 1j), (-1.0, 1.0))]
        for call in [lambda: pwlab.orbit_norms(phi, 2.0, f, 5),
                     lambda: pwlab.build_pseudotrajectory(phi, 2.0, f, 0.1, 3),
                     lambda: pwlab.shadowing_divergence(P, pwlab.node_function(2.0, 4))] + certs:
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
        # horizon past range raises after one iterate, not n_max + 1 of them;
        # inside range the table follows the guarded row, one row per n
        f = pwlab.node_function(1.0, 4)
        F = pwlab.to_l2(f, 64)
        table, rows = dynamics._iterate_table, []

        def counted(c, d, orders):
            rows.append(len(orders))
            return table(c, d, orders)

        monkeypatch.setattr(dynamics, "_iterate_table", counted)
        for phi in (AffineSymbol(0.5, 0.0), AffineSymbol(1.0, 1j)):
            for trace in (lambda: pwlab.orbit_norms(phi, 1.0, f, 10**9),
                          lambda: pwlab.orbit_norms_fourier(phi, F, 10**9)):
                with pytest.raises(OverflowGuardError, match="squared orbit norm exponent"):
                    trace()
                assert rows == [1], "the iterate table was built before the horizon was guarded"
                rows.clear()
            pwlab.orbit_norms(phi, 1.0, f, 10)
            assert rows == [1, 11]
            rows.clear()

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

    def test_fourier_route_of_a_level_set_cut(self):
        # the Fourier route with |F| cut down to level on A = {|F| >= level}
        # and to 0 off it; at n = 0 it is level sqrt(measure(A)), A measured
        # by counting midpoint cells, and the cut orbit stays under the exact one
        rng = np.random.default_rng(SEED + 7)
        f = pwlab.rough_probe(1.0, 32, rng)
        F = pwlab.to_l2(f, 4096)
        level = 0.5 * float(np.max(np.abs(F.values)))
        count = int(np.count_nonzero(np.abs(F.values) >= level))
        delta = level * math.sqrt(count * 2.0 * F.a / F.m_points)
        phi = AffineSymbol(1.0, 1j)
        cut = pwlab.L2Function(1.0, np.where(np.abs(F.values) >= level, level, 0.0))
        env = pwlab.orbit_norms_fourier(phi, cut, 15).norms
        assert env.shape == (16,)
        assert abs(env[0] - delta) <= 1e-14 * delta
        assert np.all(np.diff(env) > 0.0)  # growing translation orbit
        tr = pwlab.orbit_norms(phi, 1.0, f, 15)
        assert np.all(tr.norms[1:] >= env[1:] * (1.0 - 1e-9))


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
            report = pwlab.classify(AffineSymbol(c, d))
            flags = report.flags()
            for key, value in expected.items():
                assert flags[key] == value, (c, d, key)
            # universal flags for admissible symbols
            assert flags["compact"] is False
            assert flags["closed_range"] is True
            assert flags["li_yorke"] is False
            assert flags["shadowing"] is False

    def test_justifications_are_self_contained(self):
        report = pwlab.classify(AffineSymbol(-1.0, 1j))
        texts = dict(report.justifications)
        # a flag added without a reason, a reason without its flag field, or a reason out of the
        # fields' order (classify fills the fields by position) fails here
        bools = [f.name for f in dataclasses.fields(report) if f.type in (bool, "bool")]
        assert list(report.flags()) == list(texts) == bools and len(bools) == 9
        for flag in report.flags():
            text = texts[flag]
            assert isinstance(text, str) and len(text) > 10
        with pytest.raises(KeyError):
            texts["bounded"]

    # one symbol per class: 0 < |c| < 1, c = 1 with real and with complex d, c = -1 with real and with complex d
    CLASSES = [(0.5, 0.7), (1.0, 2.0), (1.0, 1j), (-1.0, 0.0), (-1.0, 1.0 + 1j)]
    # for each class-dependent reason, a phrase per class that the reasons of the other classes lack
    PHRASES = {
        "normal": ("strictly contracts", "c=1 transforms", "c=1 transforms", "self-inverse", "d not real"),
        "unitary": ("exceeds 1", "translation with real d", "exceeds 1", "reflection with real d", "exceeds 1"),
        "invertible": ("0<|c|<1", "|c|=1", "|c|=1", "|c|=1", "|c|=1"),
        "closed_range": ("bounded below", "invertible operators", "invertible operators", "invertible operators",
                         "invertible operators"),
        "positively_expansive": ("orbits grow at rate", "c=1 with real d is unitary", "diverges exponentially",
                                 "period 2", "period 2"),
        "cesaro_bounded": ("grow without bound", "unitary orbit", "grow without bound", "alternate", "alternate"),
    }

    def test_reasons_follow_the_class(self):
        # a reason moved to another class (the real-d unitary reasons of c = 1 and c = -1 swapped,
        # say) fails here, though every flag stays
        reasons = [dict(pwlab.classify(AffineSymbol(c, d)).justifications) for c, d in self.CLASSES]
        for name, phrases in self.PHRASES.items():
            for phrase in phrases:
                for reason, own in zip(reasons, phrases):
                    assert (phrase in reason[name]) == (phrase == own), (name, phrase, reason[name])

    def test_reflection_with_complex_d_is_not_normal_by_its_weights(self):
        # |c| = 1 contracts nothing: C*C and CC* are the multiplications by e^{-2 Im(d) t}
        # and e^{2 Im(d) t}, which the Fourier picture's apply and adjoint norms show
        phi = AffineSymbol(-1.0, 0.3 + 0.5j)
        report = pwlab.classify(phi)
        reason = dict(report.justifications)["normal"]
        assert report.normal is False
        assert "contracts" not in reason
        assert "e^{-2 Im(d) t}" in reason and "e^{2 Im(d) t}" in reason
        F = pwlab.to_l2(pwlab.smooth_probe(1.0, 24, np.random.default_rng(SEED + 41)), 4096)
        t, dt = F.grid(), 2.0 / F.m_points
        mass = np.abs(F.values) ** 2 * dt
        for op, sign in ((pwlab.weighted_compose_apply, -1.0), (pwlab.weighted_compose_adjoint, 1.0)):
            expected = float(np.sum(mass * np.exp(sign * 2.0 * phi.d.imag * t)))
            assert abs(op(phi, F).norm() ** 2 / expected - 1.0) < 1e-12
        assert abs(pwlab.weighted_compose_apply(phi, F).norm() - pwlab.weighted_compose_adjoint(phi, F).norm()) > 1e-3


def _first_doubling(phi, f):
    """Assert that phi's certificate on f (a = 1) reads n_star, within its cap, as the unit orbit's first n at 2."""
    cert = pwlab.expansivity_certificate(phi, 1.0, f)
    norms = pwlab.orbit_norms(phi, 1.0, pwlab.scaled(f, 1.0 / f.norm()), cert.cap).norms
    assert cert.expansive is True and 1 <= cert.n_star <= cert.cap, (phi, cert)
    assert cert.n_star == int(np.flatnonzero(norms >= 2.0)[0]), (phi, cert)


def expansivity_sweep(half_width):
    """The expansivity certificates at a = 1 on probes of N = half_width; returns the largest envelope shortfall.

    On C8's 20-symbol grid with a rough probe: the flag follows classify; an
    expansive orbit first reaches 2 at n_star within the search cap (a norm of
    exactly 2 is decided by rounding, hence the 1e-12 on both sides); a bounded
    sup stays under the exact norm; a contracting symbol's Cesaro means stay on
    or above cesaro_lower_envelope for n <= 40, within C9's rounding band
    (verify._envelope_shortfall).  At c = 1 with |Im d| in {0.01, 0.05}, where
    the cap comes from the favourable Fourier tail wherever the probe's mass
    sits, 20 seeded rough probes double within it, and n_star is the first
    doubling of orbit_norms(cap) (_first_doubling).  The range guard at (0.5,
    200i) is typed.
    """
    f = pwlab.rough_probe(1.0, half_width, np.random.default_rng(SEED))
    unit = pwlab.scaled(f, 1.0 / f.norm())
    worst = -math.inf
    for c in _GRID_C:
        for d in _GRID_D:
            phi = AffineSymbol(c, d)
            cert = pwlab.expansivity_certificate(phi, 1.0, f, horizon=40)
            assert cert.expansive == pwlab.classify(phi).positively_expansive, phi
            if cert.expansive:
                norms = pwlab.orbit_norms(phi, 1.0, unit, cert.n_star).norms
                assert 1 <= cert.n_star <= cert.cap and norms[-1] >= 2.0 * (1.0 - 1e-12), phi
                assert np.all(norms[:-1] < 2.0 * (1.0 + 1e-12)), phi
            else:
                assert cert.sup_norm <= pwlab.norm_closed(phi, 1.0) * (1.0 + 1e-9), phi
            if abs(c) < 1.0:
                _, shortfall = _envelope_shortfall(phi, f, pwlab.cesaro_averages(phi, 1.0, f, 40))
                assert shortfall <= 1.0, phi
                worst = max(worst, shortfall)
    for d in (0.01j, -0.01j, -0.05j):
        for s in range(20):
            _first_doubling(AffineSymbol(1.0, d), pwlab.rough_probe(1.0, half_width, np.random.default_rng(s)))
    with pytest.raises(OverflowGuardError):
        pwlab.expansivity_certificate(AffineSymbol(0.5, 200j), 1.0, f)
    return worst


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

    def test_translation_certifies_wide_probes(self):
        # 2N+1 = 4097 samples: the level set is read on 2N+1 points, not a 4096-point
        # grid that would alias them
        f = pwlab.smooth_probe(1.0, 2048, np.random.default_rng(SEED))
        for d in (0.5j, 1j):
            _first_doubling(AffineSymbol(1.0, d), f)

    def test_bounded_symbols_report_sup(self):
        rng = np.random.default_rng(SEED + 11)
        f = pwlab.rough_probe(1.0, 32, rng)
        for phi in (AffineSymbol(1.0, 0.5), AffineSymbol(-1.0, 1.0 + 1j)):
            cert = pwlab.expansivity_certificate(phi, 1.0, f, horizon=30)
            assert cert.expansive is False
            assert cert.n_star is None and cert.delta is None
            bound = math.exp(abs(phi.d.imag) * 1.0)
            assert cert.sup_norm <= bound * (1.0 + 1e-9)

    @staticmethod
    def _grid_cases():
        # C8's grid and probes
        a, rng = 1.0, np.random.default_rng(SEED)
        return [(AffineSymbol(c, d), pwlab.rough_probe(a, 64, rng))
                for c in (1.0, -1.0, 0.5, -0.5, 0.25) for d in (0.0, 1.0, 1j, 1.0 + 1j)]

    def test_one_orbit_per_expansive_certificate(self, monkeypatch):
        # every expansive certificate reads n_star from one orbit_norms(cap),
        # with no kernel functional: no pw_eval
        calls = []
        orbit = dynamics.orbit_norms
        monkeypatch.setattr(dynamics, "orbit_norms", lambda *args: calls.append(args[3]) or orbit(*args))
        monkeypatch.setattr(dynamics, "pw_eval", lambda *args, **kw: calls.append("pw_eval"))
        for phi, f in self._grid_cases():
            if not pwlab.classify(phi).positively_expansive:
                continue
            calls.clear()
            cert = pwlab.expansivity_certificate(phi, 1.0, f)
            assert calls == [cert.cap], (phi, calls)
            fresh = orbit(phi, 1.0, pwlab.scaled(f, 1.0 / f.norm()), cert.cap).norms
            assert cert.n_star == int(np.flatnonzero(fresh >= 2.0)[0])

    def test_contracting_bound_holds_from_n_zero(self):
        # delta |c|^{-n/2} bounds the unit orbit with no onset; real d has delta = 1
        for phi, f in self._grid_cases():
            if abs(phi.c) == 1.0:
                continue
            cert = pwlab.expansivity_certificate(phi, 1.0, f)
            assert cert.delta <= 1.0 and (cert.delta == 1.0) == (phi.d.imag == 0.0)
            norms = pwlab.orbit_norms(phi, 1.0, pwlab.scaled(f, 1.0 / f.norm()), cert.cap).norms
            n = np.arange(cert.cap + 1)
            assert np.all(norms >= cert.delta * abs(phi.c) ** (-n / 2.0) * (1.0 - 1e-9)), phi

    def test_translation_with_small_imaginary_part_certifies(self):
        expansivity_sweep(32)

    def test_zero_vector_rejected(self):
        zero = pwlab.PwFunction(1.0, np.zeros(9))
        with pytest.raises(ValueError):
            pwlab.expansivity_certificate(AffineSymbol(0.5, 0.0), 1.0, zero)

    def test_range_guard_reaches_the_certificate(self):
        # d/(1-c) lies near 400i, past the evaluation range, and the orbit's
        # 2 a |Im d_n| near 800 past the squared orbit range
        phi = AffineSymbol(0.5, 200j)
        f = pwlab.rough_probe(1.0, 16, np.random.default_rng(0))
        with pytest.raises(OverflowGuardError):
            pwlab.expansivity_certificate(phi, 1.0, f)
        # a doubling time past the float range, where the rate |Im d| tau
        # underflows or log(2/delta)/rate overflows, raises before any orbit
        for d in (5e-324j, 1e-308j):
            with pytest.raises(OverflowGuardError, match="doubling-time bound inf"):
                pwlab.expansivity_certificate(AffineSymbol(1.0, d), 1.0, f)
        with pytest.raises(OverflowGuardError):
            pwlab.cesaro_lower_envelope(phi, f, 10)
        with pytest.raises(OverflowGuardError):
            pwlab.cesaro_averages(phi, 1.0, f, 10)

    def test_certificate_needs_no_witness_point(self):
        # the node seed at a = pi vanishes at every nonzero integer, the fixed
        # point d/(1-c) = 1 among them; the certificate evaluates f nowhere
        f = pwlab.node_function(math.pi, 8, 0)
        phi = AffineSymbol(0.5, 0.5)
        cert = pwlab.expansivity_certificate(phi, math.pi, f)
        assert cert.expansive is True
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

    def test_lower_envelope_horizon_guard(self):
        # |c|^{-n/2} passes the float range at n = 2048 for c = 1/2; the envelope
        # admits the horizons cesaro_averages admits for real d, n_max <= 865
        phi, f = AffineSymbol(0.5, 0.3), pwlab.node_function(1.0, 8)
        # an empty horizon and a non-contracting symbol raise before any work
        for n_max in (0, -5):
            with pytest.raises(ValueError, match="orbit horizon must be an integer >= 1"):
                pwlab.cesaro_lower_envelope(phi, f, n_max)
            with pytest.raises(ValueError, match="orbit horizon must be an integer >= 1"):
                pwlab.cesaro_averages(phi, 1.0, f, n_max)
        for psi in (AffineSymbol(1.0, 1j), AffineSymbol(-1.0, 0.3)):
            with pytest.raises(ValueError, match="strictly contracting"):
                pwlab.cesaro_lower_envelope(psi, f, 10)
        for n_max in (866, 3000):
            with pytest.raises(OverflowGuardError, match="squared orbit norm exponent"):
                pwlab.cesaro_lower_envelope(phi, f, n_max)
            with pytest.raises(OverflowGuardError):
                pwlab.cesaro_averages(phi, 1.0, f, n_max)
        assert np.all(np.isfinite(pwlab.cesaro_lower_envelope(phi, f, 865)))
        assert np.all(np.isfinite(pwlab.cesaro_averages(phi, 1.0, f, 865)))

    def test_lower_envelope_scales_with_f(self):
        # m carries ||f|| and tau is chosen scale-free, so f and 2^k f give
        # envelopes that differ by exactly 2^k (||f|| = 12.93 here)
        f = pwlab.rough_probe(1.0, 16, np.random.default_rng(SEED + 74))
        for phi in (AffineSymbol(0.5, 0.3), AffineSymbol(0.5, 0.3 + 0.1j)):
            env = pwlab.cesaro_lower_envelope(phi, f, 20)
            for k in (-20, -3, 5, 20):
                g = pwlab.scaled(f, 2.0**k)
                assert pwlab.cesaro_lower_envelope(phi, g, 20).tobytes() == (env * 2.0**k).tobytes(), (phi, k)

    def test_lower_envelope_holds_at_slow_contraction(self):
        # slow contraction with |Im d| = 1 (fixed point 10i), where a bound that
        # holds only past an onset rises above A_n early (seed 0 at n = 9): the
        # tail bound holds from n = 1, n envelope_n under ||C^n f|| and
        # envelope_n under A_n (smallest ratio 1.27)
        n = np.arange(1, 41)
        for d in (1j, 1.0 + 1j):
            phi = AffineSymbol(0.9, d)
            for s in range(40):
                f = pwlab.rough_probe(1.0, 24, np.random.default_rng(s))
                env = pwlab.cesaro_lower_envelope(phi, f, 40)
                norms = pwlab.orbit_norms(phi, 1.0, f, 40).norms
                assert np.all(norms[1:] >= n * env), (d, s)
                assert np.all(pwlab.cesaro_averages(phi, 1.0, f, 40) >= env), (d, s)

    def test_bounded_reflection_averages(self):
        rng = np.random.default_rng(SEED + 13)
        f = pwlab.rough_probe(1.0, 16, rng)
        averages = pwlab.cesaro_averages(AffineSymbol(-1.0, 2.0), 1.0, f, 30)
        assert np.max(averages) <= f.norm() * (1.0 + 1e-12)

    def test_lower_envelope_formula_and_witness_blowup(self):
        f = pwlab.node_function(math.pi, 4, 1)  # node kernel at 1
        phi = AffineSymbol(0.5, 0.0)
        env = pwlab.cesaro_lower_envelope(phi, f, 20)
        averages = pwlab.cesaro_averages(phi, math.pi, f, 20)
        # real d: m = ||f|| and the envelope is ||f|| 2^{n/2} / n
        n = np.arange(1, 21)
        np.testing.assert_allclose(env, f.norm() * np.power(2.0, n / 2.0) / n, rtol=4 * np.finfo(float).eps)
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
        # ||C_phi f_n - f_{n+1}|| as the gram's quadratic form: C_phi f_n carries the
        # coefficient on iterates 2..n+1 and f_{n+1} on 1..n+1
        P = self.build()
        for n in range(P.n_max + 1):
            push = np.zeros(P.n_max + 1, dtype=np.complex128)
            push[1 : n + 1] = P.coefficient
            defect = math.sqrt(max(gram_form(P, push - term_coefficients(P, n + 1)), 0.0))
            assert abs(defect - P.delta) < 1e-9, n

    def test_terms_grow_and_value_at_fixed_point_is_linear(self):
        # every iterate fixes alpha, so each term adds coefficient f(alpha) there:
        # f_n(alpha) = n delta f(alpha) / ||C_phi f||
        P = self.build()
        alpha = P.phi.fixed_point()
        assert P.seed_at_fixed_point == pwlab.pw_eval(P.seed, alpha)
        assert P.coefficient == P.delta / P.step_norm
        for j in range(1, P.n_max + 1):
            assert P.phi.iterate(j)(alpha) == alpha
        norms = [math.sqrt(gram_form(P, term_coefficients(P, n))) for n in range(1, P.n_max + 1)]
        assert all(b > a for a, b in zip(norms, norms[1:]))

    def test_term_samples_reproduce_fixed_point_value(self):
        # f_7 materialized on a window from the iterate images of the seed
        P = self.build(n_max=12)
        parts = [pwlab.compose_apply(P.phi.iterate(j), P.seed, half_width=256) for j in range(1, 8)]
        g = pwlab.PwFunction(P.seed.a, sum(P.coefficient * part.samples for part in parts))
        assert abs(pwlab.pw_eval(g, 0.0) - 7 * P.coefficient * P.seed_at_fixed_point) < 1e-8

    def test_zero_term(self):
        # f_0 is the empty sum: its block sum, which ||f_n||^2 reads, is exactly 0
        P = self.build(n_max=5)
        assert P._block_sums()[0] == 0.0

    def test_block_sums_match_the_quadratic_form(self):
        # ||f_n|| from the block sums and the defect coefficient * step_norm against
        # Re(x* gram x) with x the coefficient vector of f_n, and of C_phi f_n - f_{n+1},
        # written out; the defect's form is delta
        rng = np.random.default_rng(SEED + 20)
        eps = np.finfo(float).eps
        for c in (0.5, -0.5, 0.25, -1.0, 0.9):
            for d in (0.0, 0.3, 0.2 + 0.1j, -0.3 + 0.4j):
                f = pwlab.rough_probe(1.3, 16, rng)
                P = pwlab.build_pseudotrajectory(AffineSymbol(c, d), 1.3, f, 0.1, 20)
                for n in range(P.n_max + 2):
                    ref = math.sqrt(max(gram_form(P, term_coefficients(P, n)), 0.0))
                    term = P.coefficient * math.sqrt(max(P._block_sums()[n], 0.0))
                    assert abs(term - ref) <= 8 * eps * ref, (c, d, n)
                for n in range(P.n_max + 1):
                    push = np.zeros(P.n_max + 1, dtype=np.complex128)
                    push[1 : n + 1] = P.coefficient
                    x = push - term_coefficients(P, n + 1)
                    ref = math.sqrt(max(gram_form(P, x), 0.0))
                    assert abs(P.coefficient * P.step_norm - ref) <= 8 * eps * ref, (c, d, n)
                    assert abs(P.delta - ref) <= 10 * eps * ref, (c, d, n)

    def test_step_norm_is_read_from_the_gram(self):
        # ||C_phi f|| is the root of gram[0, 0], so the defect is delta within two
        # roundings; it agrees with orbit_norms within two rounding bounds B of the
        # square, and a horizon past range fails orbit_norms' guard before any pairing
        rng = np.random.default_rng(SEED + 75)
        eps = np.finfo(float).eps
        for c, d in ((0.5, 0.3), (-0.5, 0.2 + 0.1j), (0.9, -0.3 + 0.4j), (-1.0, 0.5j)):
            f = pwlab.rough_probe(1.3, 16, rng)
            phi = AffineSymbol(c, d)
            P = pwlab.build_pseudotrajectory(phi, 1.3, f, 0.1, 8)
            assert P.step_norm == math.sqrt(P.gram[0, 0].real)
            assert abs(P.coefficient * P.step_norm - 0.1) <= 2 * eps * 0.1, (c, d)
            square = pwlab.orbit_norms(phi, 1.3, f, 1).norms[1] ** 2
            bound = _rounding_bound(1.3, c, complex(d).imag, f.samples)
            assert abs(P.step_norm**2 - square) <= 2 * bound, (c, d)
        with pytest.raises(OverflowGuardError, match="squared orbit norm exponent"):
            pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.3), 1.3, f, 0.1, 900)

    def test_construction_rejections(self):
        f = pwlab.node_function(math.pi, 8, 0)
        with pytest.raises(ValueError):
            pwlab.build_pseudotrajectory(AffineSymbol(1.0, 1.0), math.pi, f, 0.1, 5)
        # a nonpositive or non-finite defect size: NaN fails every comparison
        for delta in (0.0, -0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="delta"):
                pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.0), math.pi, f, delta, 5)
        # seed vanishing at the fixed point alpha = 3 (a lattice node)
        with pytest.raises(ValueError):
            pwlab.build_pseudotrajectory(AffineSymbol(0.5, 1.5), math.pi, f, 0.1, 5)

    def test_vanishing_check_is_scale_free(self):
        # |f(alpha)| is held against pw_eval's rounding bound eps sum|v| e^(a |Im alpha|),
        # which scales with the seed: a seed with f(alpha) = 1.35e-13 builds, and
        # scaling by 2^-44 (past an absolute 1e-12 floor) or 2^-30 leaves D and L
        # bit-identical and multiplies the gram by exactly the square
        f = pwlab.rough_probe(1.0, 16, np.random.default_rng(0))
        P = pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.3), 1.0, pwlab.scaled(f, 1e-13), 0.1, 3)
        assert 1e-13 < abs(P.seed_at_fixed_point) < 1e-12
        rng = np.random.default_rng(SEED + 73)
        for c, d in ((0.5, 0.3), (-0.5, 0.2 + 0.1j), (0.25, -0.3 + 0.4j)):
            phi = AffineSymbol(c, d)
            f, g = pwlab.rough_probe(1.3, 16, rng), pwlab.rough_probe(1.3, 16, rng)
            P = pwlab.build_pseudotrajectory(phi, 1.3, f, 0.1, 10)
            D, L = pwlab.shadowing_divergence(P, g)
            for e in (-30, -44):
                Q = pwlab.build_pseudotrajectory(phi, 1.3, pwlab.scaled(f, 2.0**e), 0.1, 10)
                D_s, L_s = pwlab.shadowing_divergence(Q, g)
                assert D_s.tobytes() == D.tobytes() and L_s.tobytes() == L.tobytes(), (c, d, e)
                assert Q.gram.tobytes() == (P.gram * 2.0 ** (2 * e)).tobytes(), (c, d, e)


def shadowing_against_pairings(half_width, seed=SEED):
    """shadowing_divergence against oracles.full_cross_divergence; returns the largest D^2 gap as a share of its bound.

    The oracle takes every cross pairing from its own composed_inner_product
    (no lag table, row per Im d_j, lag or power of |c|).  Two families of (a,
    seed f, candidate g, n, n_max), each drawn from its own generator at seed,
    g rough and scaled to norm 0.04: at a = 1.3, c in {+-1/2, 1/4, -1, 0.9} and
    d in {0, 0.3, 0.2 + 0.1i, -0.3 + 0.4i}, rough f and g on C10's windows 8 /
    64 at its n = 30, unequal windows and n_max < n; at a = pi, c = +-1/2 and d
    in {0.3, 0.2 + 0.1i}, n = n_max = 20 and one g at N = half_width for a
    rough seed f at N, the node seed at 0 and a seed with three nonzero samples
    (nodes -40, 3 and 77 at N = 128, scaled with N), so the pairings' sparse
    sums run at that width too.  Every case: L is bit-identical; D within 1e-13
    relative; and |D_n^2 - D_ref^2| within the pairing bound 4 kappa sum_j B_nj (B_nj =
    eps |c|^-j pi/a sum|v| sum|w| e^(a |Im s_nj|)), plus the gram block's
    summation order and one rounding of D^2.
    """
    eps = np.finfo(float).eps
    n = half_width
    three = np.zeros(2 * n + 1, dtype=np.complex128)
    three[n + np.array([-40, 3, 77]) * n // 128] = [1.0, 1j] @ np.random.default_rng(seed + 1).standard_normal((2, 3))
    # (phi, f, g, horizon, n_max); each family draws from its own generator at seed
    cases, rng = [], np.random.default_rng(seed)
    for c in (0.5, -0.5, 0.25, -1.0, 0.9):
        for d in (0.0, 0.3, 0.2 + 0.1j, -0.3 + 0.4j):
            for nf, ng, horizon, n_max in ((8, 64, 30, 30), (32, 8, 20, 15), (16, 16, 12, 12), (8, 32, 5, 3)):
                cases.append((AffineSymbol(c, d), pwlab.rough_probe(1.3, nf, rng), pwlab.rough_probe(1.3, ng, rng), horizon, n_max))
    rng = np.random.default_rng(seed)
    for c in (0.5, -0.5):
        for d in (0.3, 0.2 + 0.1j):
            rough = pwlab.rough_probe(math.pi, n, rng)
            g = pwlab.rough_probe(math.pi, n, rng)
            for f in (rough, pwlab.node_function(math.pi, n, 0), pwlab.PwFunction(math.pi, three)):
                cases.append((AffineSymbol(c, d), f, g, 20, 20))
    worst = 0.0
    for phi, f, g, horizon, n_max in cases:
        a, c, case = f.a, phi.c, (phi, f.a, f.half_width, g.half_width, horizon, n_max)
        g = pwlab.scaled(g, 0.04 / g.norm())
        P = pwlab.build_pseudotrajectory(phi, a, f, 0.1, horizon)
        D, L = pwlab.shadowing_divergence(P, g, n_max)
        D_ref, L_ref = full_cross_divergence(P, g, n_max)
        assert np.array_equal(L, L_ref), case
        np.testing.assert_allclose(D, D_ref, rtol=1e-13, atol=0.0, err_msg=str(case))
        # B_ij = eps |c|^-j pi/a sum|v| sum|w| e^(a |Im s_ij|), s_ij = d_i - c^(i-j) conj(d_j), j <= i
        im = np.array([phi.iterate(k).d.imag for k in range(n_max + 1)])
        i = np.arange(1, n_max + 1)[:, None]
        j = np.arange(1, n_max + 1)
        im_s = im[i] + c ** np.maximum(i - j, 0) * im[j]
        B = np.where(j <= i, eps * abs(c) ** -j.astype(float) * math.pi / a * np.sum(np.abs(f.samples))
                     * np.sum(np.abs(g.samples)) * np.exp(a * np.abs(im_s)), 0.0)
        # D^2 = ||C^n g||^2 - 2 kappa sum_j Re M_nj + ||f_n||^2: both sides pair every M_nj
        # within B_nj, sum the same gram block in two orders, and round D^2 once
        block = np.cumsum(np.cumsum(np.abs(P.gram[:n_max, :n_max]), axis=0), axis=1).diagonal()
        allowed = (4.0 * P.coefficient * B.sum(axis=1) + 4.0 * n_max * eps * P.coefficient**2 * block
                   + 4.0 * eps * D_ref**2)
        use = float(np.max(np.abs(D**2 - D_ref**2) / allowed))
        assert use <= 1.0, case
        worst = max(worst, use)
    return worst


class TestShadowingDivergence:
    def test_zero_candidate_gives_term_norms(self):
        f = pwlab.node_function(math.pi, 8, 0)
        P = pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.0), math.pi, f, 0.1, 15)
        zero = pwlab.PwFunction(math.pi, np.zeros(17))
        D, L = pwlab.shadowing_divergence(P, zero)
        assert D.shape == L.shape == (15,)
        terms = np.array([math.sqrt(gram_form(P, term_coefficients(P, n))) for n in range(1, 16)])
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
        shadowing_against_pairings(16, SEED + 19)

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

    def test_sparse_seeds_match_dense_pairing(self):
        # the direct route sums the nonzero samples alone; both lag tables, the
        # gram and the cross table of g against the seed, for node seeds at node
        # 0 and off centre and a seed with three nonzero samples, against the
        # dense np.sinc double sum over every node, zeros included
        rng = np.random.default_rng(SEED + 72)
        n = 8
        for c, d in ((0.5, 0.3), (-0.5, -0.3), (0.5, 0.2 + 0.1j), (-0.5, -0.3 + 0.4j)):
            phi = AffineSymbol(c, d)
            its = [phi.iterate(k) for k in range(1, n + 2)]
            g = pwlab.rough_probe(self.A, 12, rng)
            three = np.zeros(33, dtype=np.complex128)
            three[[3, 16, 27]] = [1.0, 1j] @ rng.standard_normal((2, 3))
            for f in (pwlab.node_function(self.A, 16, 0), pwlab.node_function(self.A, 16, -5),
                      pwlab.PwFunction(self.A, three)):
                P = pwlab.build_pseudotrajectory(phi, self.A, f, 0.1, n)
                for h, table, rows in ((f, P.gram, n + 1), (g, _lower_pairings(phi, g, f, n), n)):
                    i, j = np.tril_indices(rows)
                    ref = np.array([dense_pairing(its[p], h, its[q], f) for p, q in zip(i, j)])
                    bound = self.bound(phi, h, f, rows, rows)[i, j]
                    assert np.all(np.abs(table[i, j] - ref) <= bound), (c, d, rows)

    def test_pairing_guard(self):
        # the orbit guard of the public entry points already covers these
        # exponents, so the table is called directly: _cardinal guards the
        # points it sums at, the nonzero samples' nodes alone, which share
        # each row's Im z
        for node in (0, 3):
            f = pwlab.node_function(self.A, 4, node)
            with pytest.raises(OverflowGuardError, match="evaluation exponent a \\|Im z\\| 910.0 > 300"):
                _lower_pairings(AffineSymbol(0.5, 1.0 + 200j), f, f, 3)
            with pytest.raises(OverflowGuardError, match="evaluation range"):
                _lower_pairings(AffineSymbol(0.5, 1e200), f, f, 3)
