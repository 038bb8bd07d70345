"""Test-signal generators: well-resolved and rough random elements of PW_a.

Window truncation is the one approximation in the sampling model, so probes
come in two flavors.  Smooth probes have spectral density cos^6 (three
continuous derivatives at the band edges), which makes their node samples
decay like n^{-7}: the part of the function living outside a window of a few
dozen nodes is ~1e-11 of its norm, small enough to test 1e-6..1e-9 contracts.
Rough probes (iid node samples) have full bandwidth and O(1/n) tails and are
the right inputs when the quantity under test is window-exact anyway.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PwFunction, _sinc, grid

# cos^6 theta = sum_k _PULSE_COEF[k] cos(2 k theta)
_PULSE_COEF = np.array([10.0, 15.0, 6.0, 1.0]) / 32.0


def spectral_pulse(z, width: float):
    """The entire function with spectral density cos^6(pi t/(2 width)) on [-width, width].

    Closed form: integrating the cosine series against e^{izt} term by term
    gives a short sum of shifted sinc functions.
    """
    u = np.asarray(width * np.asarray(z, dtype=np.complex128))
    out = 2.0 * width * _PULSE_COEF[0] * _sinc(u)
    for k in (1, 2, 3):
        out = out + width * _PULSE_COEF[k] * (_sinc(u - k * math.pi) + _sinc(u + k * math.pi))
    if np.ndim(z) == 0:
        return complex(out)
    return out


def smooth_probe(
    a: float,
    half_width: int,
    rng: np.random.Generator,
    pulses: int = 6,
    spread: float = 0.25,
    band: float = 0.8,
) -> PwFunction:
    """Random mixture of shifted spectral pulses, sampled on the node grid.

    spread bounds the pulse centers to |tau| <= spread * half_width nodes so
    the mixture sits well inside the window; band < 1 keeps the spectral
    support in [-band*a, band*a], strictly inside the band.
    """
    if not (0.0 < band <= 1.0):
        raise ValueError("band must lie in (0, 1]")
    x = grid(a, half_width)
    coeffs = rng.standard_normal(pulses) + 1j * rng.standard_normal(pulses)
    centers = rng.uniform(-spread * half_width, spread * half_width, size=pulses) * (math.pi / a)
    samples = np.zeros(x.size, dtype=np.complex128)
    for cf, tau in zip(coeffs, centers):
        samples += cf * spectral_pulse(x - tau, band * a)
    return PwFunction(a, samples)


def rough_probe(a: float, half_width: int, rng: np.random.Generator) -> PwFunction:
    """Full-band probe: iid complex normal node samples."""
    n = 2 * half_width + 1
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PwFunction(a, samples)


def node_function(a: float, half_width: int, node: int = 0) -> PwFunction:
    """The cardinal function at node x_node: samples are the indicator of the node."""
    if abs(node) > half_width:
        raise ValueError("node outside the window")
    samples = np.zeros(2 * half_width + 1, dtype=np.complex128)
    samples[node + half_width] = 1.0
    return PwFunction(a, samples)
