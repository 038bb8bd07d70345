"""Test-signal generators: well-resolved and rough random elements of PW_a.

Window truncation is the one approximation in the sampling model, so probes
come in two flavors.  Smooth probes have spectral density cos^6 (three
continuous derivatives at the band edges), which makes their node samples
decay like n^{-7}: the part of the function living outside a window of a few
dozen nodes is ~1e-11 of its norm, small enough to test 1e-6..1e-9 contracts.
Each pulse is in closed form a 7-sample cardinal series of bandwidth band*a,
so probes sum no sinc of their own: pw_eval evaluates every pulse.
Rough probes (iid node samples) have full bandwidth and O(1/n) tails and are
the right inputs when the quantity under test is window-exact anyway.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PwFunction, _count, grid, pw_eval

# cos^6 theta = 2^-6 sum_{|k| <= 3} binom(6, 3 + k) e^{2 i k theta}: the node
# samples of spectral_pulse(z, w) / w at x_k = k pi / w
_PULSE_SAMPLES = np.array([1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0]) / 32.0
_PULSE_COUNT = 6  # spectral_pulse terms per smooth probe


def spectral_pulse(z, width: float):
    """The entire function with spectral density cos^6(pi t/(2 width)) on [-width, width].

    Closed form: each exponential e^{i k pi t / width} of cos^6 integrates
    against e^{izt} to 2 width sinc(width (z - x_k)), x_k = k pi / width, so
    the pulse is width times the 7-sample cardinal series of bandwidth width
    with node samples _PULSE_SAMPLES, evaluated by pw_eval and its guards.
    Node hits are exact.
    """
    return width * pw_eval(PwFunction(width, _PULSE_SAMPLES), z)


def smooth_probe(
    a: float, half_width: int, rng: np.random.Generator, spread: float = 0.25, band: float = 0.8
) -> PwFunction:
    """Random sum of _PULSE_COUNT shifted spectral_pulse terms, sampled on the node grid.

    spread bounds the pulse centers to |tau| <= spread * half_width nodes so
    the mixture sits well inside the window; band < 1 keeps the spectral
    support in [-band*a, band*a], strictly inside the band.
    """
    if not (0.0 < band <= 1.0):
        raise ValueError("band must lie in (0, 1]")
    if not (0.0 <= spread < math.inf):
        raise ValueError(f"spread must be nonnegative and finite, got {spread!r}")
    half_width = _count(half_width, "window half width")
    x = grid(a, half_width)
    coeffs = rng.standard_normal(_PULSE_COUNT) + 1j * rng.standard_normal(_PULSE_COUNT)
    centers = rng.uniform(-spread * half_width, spread * half_width, size=_PULSE_COUNT) * (math.pi / a)
    return PwFunction(a, coeffs @ spectral_pulse(x - centers[:, None], band * a))


def rough_probe(a: float, half_width: int, rng: np.random.Generator) -> PwFunction:
    """Full-band probe: iid complex normal node samples."""
    n = 2 * _count(half_width, "window half width") + 1
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PwFunction(a, samples)


def node_function(a: float, half_width: int, node: int = 0) -> PwFunction:
    """The cardinal function at node x_node: samples are the indicator of the node."""
    half_width = _count(half_width, "window half width")
    if _count(node, "node", least=-half_width, limit=None) > half_width:
        raise ValueError(f"node must be an integer <= {half_width}, got {node!r}")
    samples = np.zeros(2 * half_width + 1, dtype=np.complex128)
    samples[node + half_width] = 1.0
    return PwFunction(a, samples)
