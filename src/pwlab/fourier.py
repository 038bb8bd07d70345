"""Fourier-side picture: PW_a is unitarily L^2[-a, a].

With the transform pair f(z) = (1/sqrt(2 pi)) integral_{-a}^{a} F(t) e^{izt} dt,
the normalized node basis e_n of PW_a maps to the exponentials

    eps_n(t) = e^{-i n pi t / a} / sqrt(2a),

and composition by phi(z) = c z + d becomes the weighted composition

    (W F)(t) = (1/|c|) chi_{(-|c|a, |c|a)}(t) e^{i d t / c} F(t/c).

The exponent sign is the unique unimodular convention under which translation
by d becomes multiplication by e^{i d t}: the plus sign would instead produce
multiplication by e^{-i d t} and break the two-path commuting square.

Grid model: uniform midpoints t_j = -a + (j + 1/2) (2a/M), so the open-interval
support cutoff never lands on a sample and round trips with the node samples
are exact once M exceeds twice the node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AffineSymbol, PwFunction, _guard_exponent

_COEF_TRIM = 1e-13
_CHUNK = 1024


def l2_grid(a: float, m_points: int) -> np.ndarray:
    j = np.arange(m_points)
    return -a + (j + 0.5) * (2.0 * a / m_points)


@dataclass(frozen=True, eq=False)
class L2Function:
    """Midpoint samples of a function on [-a, a]."""

    a: float
    values: np.ndarray

    def __post_init__(self):
        a = float(self.a)
        if not (a > 0.0 and math.isfinite(a)):
            raise ValueError(f"bandwidth must be positive and finite, got {a!r}")
        vals = np.asarray(self.values, dtype=np.complex128).copy()
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        vals.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "values", vals)

    @property
    def m_points(self) -> int:
        return self.values.size

    def grid(self) -> np.ndarray:
        return l2_grid(self.a, self.m_points)

    def norm(self) -> float:
        dt = 2.0 * self.a / self.m_points
        return math.sqrt(dt) * float(np.linalg.norm(self.values))

    def inner(self, other: "L2Function") -> complex:
        if self.a != other.a or self.m_points != other.m_points:
            raise ValueError("inner product needs matching interval and grid")
        dt = 2.0 * self.a / self.m_points
        return dt * complex(np.sum(self.values * np.conj(other.values)))


def to_l2(f: PwFunction, m_points: int = 4096) -> L2Function:
    """The unitary image of f: F(t) = sqrt(pi/a)/sqrt(2a) sum_n v_n e^{-i n pi t/a}.

    On the midpoint grid the exponential sums are a DFT up to the twiddle
    (-1)^n e^{-i n pi / M}, so the evaluation runs through an FFT.
    """
    if m_points < 2:
        raise ValueError("m_points must be at least 2")
    a, m = f.a, m_points
    n = np.arange(-f.half_width, f.half_width + 1)
    g = np.zeros(m, dtype=np.complex128)
    twiddle = (-1.0) ** (n % 2) * np.exp(-1j * n * (math.pi / m))
    np.add.at(g, n % m, f.samples * twiddle)
    scale = math.sqrt(math.pi / a) / math.sqrt(2.0 * a)
    return L2Function(a, scale * np.fft.fft(g))


def _coefficients(F: L2Function, k_max: int) -> np.ndarray:
    """Expansion coefficients of F in eps_n, |n| <= k_max, by midpoint sums.

    Exact (up to rounding) whenever F is a trigonometric polynomial of degree
    below M - k_max, in particular for any to_l2 image with node count < M/2.
    The midpoint sums reduce to an inverse FFT with the conjugate twiddle.
    """
    a, m = F.a, F.m_points
    dt = 2.0 * a / m
    spectrum = np.fft.ifft(F.values) * m
    n = np.arange(-k_max, k_max + 1)
    twiddle = (-1.0) ** (n % 2) * np.exp(1j * n * (math.pi / m))
    return (dt / math.sqrt(2.0 * a)) * twiddle * spectrum[n % m]


def _series_eval(coef: np.ndarray, a: float, s: np.ndarray) -> np.ndarray:
    """Evaluate sum_n coef_n eps_n(s) at arbitrary points s."""
    k = (coef.size - 1) // 2
    n = np.arange(-k, k + 1)
    # trim negligible tail coefficients to cut the evaluation cost
    mag = np.abs(coef)
    keep = mag > _COEF_TRIM * (mag.max() if mag.size else 0.0)
    if np.any(keep):
        n, coef = n[keep], coef[keep]
    else:
        return np.zeros(s.size, dtype=np.complex128)
    out = np.empty(s.size, dtype=np.complex128)
    for lo in range(0, s.size, _CHUNK):
        hi = min(lo + _CHUNK, s.size)
        phases = np.exp(-1j * np.outer(s[lo:hi], n) * (math.pi / a))
        out[lo:hi] = phases @ coef
    return out / math.sqrt(2.0 * a)


def _values_at(F: L2Function, s: np.ndarray) -> np.ndarray:
    """Band-limited-consistent interpolation of F at off-grid points s.

    Re-expands F in the exponential basis (the PW-side representation) and
    evaluates the series, so band-limited data is interpolated exactly;
    no local polynomial fitting is involved.
    """
    k_max = min(F.m_points // 4, 4096)
    coef = _coefficients(F, k_max)
    return _series_eval(coef, F.a, s)


def from_l2(F: L2Function, half_width: int) -> PwFunction:
    """Inverse unitary onto the window |n| <= half_width."""
    a = F.a
    coef = _coefficients(F, half_width)
    return PwFunction(a, math.sqrt(a / math.pi) * coef)


def _guard_weight(phi: AffineSymbol, a: float) -> None:
    _guard_exponent(abs(complex(phi.d).imag) * a / abs(phi.c), "weight exponent")


def weighted_compose_apply(phi: AffineSymbol, F: L2Function) -> L2Function:
    """Apply the transformed operator on the grid.

    Output vanishes identically outside (-|c|a, |c|a) (exact zeros); inside,
    (1/|c|) e^{i d t / c} F(t/c).  For c = +-1 the substitution lands back on
    the midpoint grid and is applied by (reversed) indexing; otherwise F(t/c)
    comes from _values_at.
    """
    _guard_weight(phi, F.a)
    a, c, d = F.a, phi.c, phi.d
    t = F.grid()
    if c == 1.0:
        inner = F.values
        mask = np.ones(F.m_points, dtype=bool)
    elif c == -1.0:
        inner = F.values[::-1]
        mask = np.ones(F.m_points, dtype=bool)
    else:
        mask = np.abs(t) < abs(c) * a
        inner = np.zeros(F.m_points, dtype=np.complex128)
        inner[mask] = _values_at(F, t[mask] / c)
    out = np.zeros(F.m_points, dtype=np.complex128)
    out[mask] = np.exp(1j * d * t[mask] / c) * inner[mask] / abs(c)
    return L2Function(a, out)


def weighted_compose_adjoint(phi: AffineSymbol, F: L2Function) -> L2Function:
    """The adjoint in the transformed picture: conj(e^{i d t}) F(c t)."""
    _guard_weight(phi, F.a)
    a, c, d = F.a, phi.c, phi.d
    t = F.grid()
    if c == 1.0:
        inner = F.values
    elif c == -1.0:
        inner = F.values[::-1]
    else:
        inner = _values_at(F, c * t)
    return L2Function(a, np.exp(-1j * np.conj(d) * t) * inner)
