"""Probe generators: the spectral pulse in closed form, and smooth probes against the pulse sum."""

import math
import warnings

import numpy as np
import pytest

import pwlab
from pwlab import OverflowGuardError

from oracles import loop_smooth_probe

SEED = pwlab.DEFAULT_SEED

# node samples of spectral_pulse(z, w) / w at z = k pi / w, |k| <= 3
PULSE_SAMPLES = np.array([1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0]) / 32.0


def pulse_integral(z, width, order=400):
    """integral_{-w}^{w} cos^6(pi t/(2w)) e^{izt} dt by one Gauss-Legendre rule."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = width * nodes
    density = np.cos(math.pi * t / (2.0 * width)) ** 6
    return np.exp(1j * np.outer(np.asarray(z), t)) @ (width * weights * density)


class TestSpectralPulse:
    @pytest.mark.parametrize("width", [0.3, 0.8, 1.0, 2.5, 0.9 * math.pi])
    def test_matches_defining_integral(self, width):
        u = np.linspace(-60.0, 60.0, 241)
        peak = 2.0 * width * 10.0 / 32.0  # the pulse at z = 0
        for im in (0.0, 0.5, -1.0):
            z = (u + 1j * im) / width
            err = np.max(np.abs(pwlab.spectral_pulse(z, width) - pulse_integral(z, width)))
            assert err < 1e-13 * peak, (im, err / peak)

    def test_scalar_in_scalar_out(self):
        val = pwlab.spectral_pulse(0.0, 2.0)
        assert isinstance(val, complex)
        assert val == 2.0 * PULSE_SAMPLES[3]

    @pytest.mark.parametrize("width", [0.3, 1.0, 0.8 * math.pi, 2.5])
    def test_node_values_are_exact(self, width):
        # the pulse is a 7-sample cardinal series of bandwidth width
        out = pwlab.spectral_pulse(pwlab.grid(width, 20), width)
        expected = np.zeros(41, dtype=np.complex128)
        expected[17:24] = width * PULSE_SAMPLES
        np.testing.assert_array_equal(out, expected)

    def test_guards_raise_typed_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowGuardError):
                pwlab.spectral_pulse(1000j, 1.0)
            with pytest.raises(OverflowGuardError):
                pwlab.spectral_pulse(np.array([0.0, 1e308]), 1.0)
            with pytest.raises(ValueError, match="NaN"):
                pwlab.spectral_pulse(np.nan, 1.0)
            for width in (0.0, -1.0):
                with pytest.raises(ValueError, match="bandwidth"):
                    pwlab.spectral_pulse(0.5, width)


class TestSmoothProbe:
    @pytest.mark.parametrize("spread, band", [(0.25, 0.8), (0.125, 0.9)])
    @pytest.mark.parametrize("a", [0.5, 1.0, math.pi])
    def test_matches_pulse_by_pulse_sum(self, a, spread, band):
        for k, n in enumerate((8, 32, 128)):
            rng = np.random.default_rng(SEED + k)
            ref_rng = np.random.default_rng(SEED + k)
            f = pwlab.smooth_probe(a, n, rng, spread=spread, band=band)
            ref = loop_smooth_probe(a, n, ref_rng, spread=spread, band=band)
            assert f.a == a and f.half_width == n
            err = np.max(np.abs(f.samples - ref))
            assert err <= 1e-15 * np.max(np.abs(ref)), (n, err)
            # both consumed the same draws, so every later seeded draw agrees
            assert rng.standard_normal() == ref_rng.standard_normal()

    def test_band_validation(self):
        rng = np.random.default_rng(SEED)
        for band in (0.0, 1.5):
            with pytest.raises(ValueError, match="band"):
                pwlab.smooth_probe(1.0, 8, rng, band=band)

    def test_spread_validation(self):
        # numpy's uniform would raise its own OverflowError or "high - low" message
        rng = np.random.default_rng(SEED)
        for spread in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="spread must be nonnegative and finite"):
                pwlab.smooth_probe(1.0, 8, rng, spread=spread)
        assert pwlab.smooth_probe(1.0, 8, rng, spread=0.0).half_width == 8
