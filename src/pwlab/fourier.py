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
|n| <= N are exact once M >= 2N+1, the bound below which to_l2 and from_l2
raise AliasingError.

Weights: the grid is an arithmetic progression, so e^{w t} on any contiguous
run of it is the outer product of two short exponential tables (_grid_exp),
about 2 sqrt(M) exponentials in place of M.  Like np.exp(w t), the result errs
by O(eps (1 + |w| a)) relative, the rounding of the argument w t itself.

Off-grid values: F(t/c) and F(c t) come from the coefficients |n| <= M/4 by
one of two routes, picked from (c, M) alone.  For c = +-1/q, q a power of two
with 2q | M, the apply's support run maps onto the M/q-point midpoint grid,
where F is one 2M/q-point FFT of the folded coefficients (_subgrid_values).
Every other apply and every adjoint takes _values_at's chirp-z, a
convolution by core._convolve, which picks its engine and FFT length.

Operator halves: what the grid and the symbol alone decide is fetched from
core._table, the one cache of the sinc kernels' halves, in arrays of this
module's own.  The twiddles are one table per M, read by slices (_twiddle);
the apply keeps its route, support run and weight (_apply_table), keyed on
the bits of c, d and a and on M.  The adjoint, which no caller of the
package runs, computes its weight per call.  A kept table gives the bits of
a fresh one, so the outputs do not depend on the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (AffineSymbol, AliasingError, PwFunction, _bandwidth, _bits, _convolve, _count, _guard_exponent,
                   _in_range, _norm, _same_bandwidth, _table)


@dataclass(frozen=True, eq=False)
class L2Function:
    """Midpoint samples of a function on [-a, a], stored read-only.

    An array that is already read-only, C-contiguous and owns its data (as
    to_l2's and the weighted maps' are) is kept as it is, so its owner must
    not write it again (through a view taken before, or by setflags); any
    other is copied, so a caller that keeps a writeable array or view cannot
    change F.
    """

    a: float
    values: np.ndarray

    def __post_init__(self):
        a = _bandwidth(self.a)
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.flags.writeable or not (vals.flags.owndata and vals.flags.c_contiguous):
            vals = vals.copy()
            vals.setflags(write=False)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "values", vals)

    @property
    def m_points(self) -> int:
        return self.values.size

    def grid(self) -> np.ndarray:
        return _grid(self.a, self.m_points)

    def norm(self) -> float:
        """sqrt(dt) ||values||, dt = 2a/M, with core._norm's range rule (PwFunction.norm's)."""
        return _norm(self.values, 2.0 * self.a / self.m_points)

    def inner(self, other: "L2Function") -> complex:
        """dt sum_j F(t_j) conj(G(t_j)), with core._in_range's range rule."""
        _same_bandwidth(self.a, other.a)
        if self.m_points != other.m_points:
            raise ValueError("inner product needs matching grids")
        dt = 2.0 * self.a / self.m_points
        return _in_range(lambda v, w: dt * complex(np.sum(v * np.conj(w))), self.values, other.values)


def _grid(a: float, m: int) -> np.ndarray:
    """The M midpoints t_j = -a + (j + 1/2) 2a/M of [-a, a]."""
    return -a + (np.arange(m) + 0.5) * (2.0 * a / m)


def _l2(a: float, values: np.ndarray) -> L2Function:
    """L2Function on values, an array this module has just made, read-only so that it is kept uncopied."""
    values.setflags(write=False)
    return L2Function(a, values)


def _twiddle(m: int, k: int) -> np.ndarray:
    """(-1)^n e^{-i n pi / M} for |n| <= k <= M // 2: times it, the exponential sums at frequencies n on the midpoint
    grid are a DFT.

    The twiddles depend on M alone, so they are a slice of one table per M,
    over |n| <= M // 2, from core._table under ("twiddle", M): a grid's first call
    computes its own slice alone, as does every call on a grid whose table
    (16 (M + 1) bytes) is past _TABLE_BYTES, M >= 2^17.  An entry has the same
    bits whichever slice it is computed in.
    """

    def build(keep):
        half = m // 2 if keep else k
        n = np.arange(-half, half + 1)
        return np.where(n % 2, -1.0, 1.0) * np.exp(-1j * n * (math.pi / m))

    table = _table(("twiddle", m), 16 * (m + 1), build)
    centre = table.size // 2
    return table[centre - k : centre + k + 1]


def to_l2(f: PwFunction, m_points: int = 4096) -> L2Function:
    """The unitary image of f: F(t) = sqrt(pi/a)/sqrt(2a) sum_n v_n e^{-i n pi t/a}.

    On the midpoint grid the exponential sums are a DFT up to the twiddle
    (_twiddle), so the evaluation runs through an FFT.  A grid of
    M < 2N+1 points would fold distinct nodes onto one frequency and raises
    AliasingError.  The grid passes the memory budget at 64 bytes a point,
    above the peak of its zero-padded samples, their FFT, the scaled array
    that L2Function keeps and the twiddle of 2N+1 = M samples (about 48
    bytes a point there, by tracemalloc; a kept twiddle table counts in
    core._TABLE_BYTES).
    """
    m = _count(m_points, "grid points", least=2, per_entry=64)
    if m < f.samples.size:
        raise AliasingError(f"m_points {m} < 2N+1 = {f.samples.size} would alias the samples")
    n = f.half_width
    t = f.samples * _twiddle(m, n)
    g = np.zeros(m, dtype=np.complex128)
    g[: n + 1], g[m - n :] = t[n:], t[:n]  # frequency k at k mod M: M >= 2N+1 keeps them apart
    del t  # the FFT's peak holds g, its transform and the scaled array alone
    return _l2(f.a, math.sqrt(math.pi / f.a) / math.sqrt(2.0 * f.a) * np.fft.fft(g))


def _coefficients(F: L2Function, k_max: int) -> np.ndarray:
    """Expansion coefficients of F in eps_n, |n| <= k_max <= M // 2, by midpoint sums.

    Exact (up to rounding) whenever F is a trigonometric polynomial of degree
    below M - k_max, in particular for any to_l2 image of half width N read at
    k_max = N, as M >= 2N+1 gives.
    The midpoint sums reduce to an inverse FFT with the conjugate twiddle,
    read unscaled (norm="forward"): at power-of-two M the same bits as ifft * M.
    """
    a, m = F.a, F.m_points
    dt = 2.0 * a / m
    spectrum = np.fft.ifft(F.values, norm="forward")
    folded = np.concatenate((spectrum[m - k_max :], spectrum[: k_max + 1]))  # n = -k_max..k_max at n mod M
    return (dt / math.sqrt(2.0 * a)) * np.conj(_twiddle(m, k_max)) * folded


def _values_at(F: L2Function, s0: float, h: float, count: int) -> np.ndarray:
    """F at s0 + j h, 0 <= j < count, from every coefficient |n| <= M // 4 by one chirp-z.

    The off-grid route for the adjoint and for every apply whose slope and
    grid miss the sub-grid route of weighted_compose_apply (_subgrid_length):
    |c| not 1/q with q a power of two, or 2q not dividing M.

    With j0 = count // 2, l = j - j0 and beta = pi h / a, Bluestein's identity
    n l = (n^2 + l^2 - (l - n)^2) / 2 turns sum_n coef_n eps_n(s_j) into one
    'valid' convolution (core._convolve) against e^{i beta m^2 / 2} over the
    lags m = l - n: band-limited data is interpolated exactly, with no trim.
    Centring on j0 bounds the chirp phases by
    beta (count - j0 + M/4)^2 / 2, that is 9 pi M / 16 (7.2e3 rad at M = 4096) for
    the adjoint and for the apply at |c| >= 1/4, and pi M / (16 |c|) below.  Their
    rounding, eps times that bound, sets the error relative to sum_n |coef_n|.
    """
    a, m = F.a, F.m_points
    k, j0 = m // 4, count // 2
    beta = math.pi * h / a
    n = np.arange(-k, k + 1)
    phase = n * (math.pi * (s0 + j0 * h) / a) + (0.5 * beta) * (n * n)
    lags = np.arange(-j0 - k, count - j0 + k)
    chirp = np.exp(1j * ((0.5 * beta) * (lags * lags)))
    conv = _convolve(_coefficients(F, k) * np.exp(-1j * phase), chirp, valid=True)
    l = np.arange(count) - j0
    return np.exp(-1j * ((0.5 * beta) * (l * l))) * conv / math.sqrt(2.0 * a)


def from_l2(F: L2Function, half_width: int) -> PwFunction:
    """Inverse unitary onto the window |n| <= half_width.

    A window of 2N+1 > M nodes would read frequencies that the grid folds onto
    others and raises AliasingError, to_l2's rule mirrored, before any allocation.
    """
    n = _count(half_width, "window half width")  # the grid bounds the window
    if 2 * n + 1 > F.m_points:
        raise AliasingError(f"2N+1 = {2 * n + 1} > m_points {F.m_points} would alias the coefficients")
    return PwFunction(F.a, math.sqrt(F.a / math.pi) * _coefficients(F, n))


def _grid_exp(w: complex, a: float, m: int, lo: int, count: int) -> np.ndarray:
    """e^{w t_j} for lo <= j < lo + count on the M-point midpoint grid, count >= 1.

    The grid is an arithmetic progression with step h = 2a/M, so with R a power
    of two near sqrt(count) and j = lo + b R + r the weight is the outer product
    e^{w (t_lo + b R h)} e^{w r h}, raveled and cut to count: about 2 sqrt(count)
    exponentials and count complex products.  Each factor's argument rounds
    like t_j itself, so the error relative to e^{w t_j} is O(eps (1 + |w| a)),
    the same as np.exp(w * t).  The products past the run that are cut off
    (fewer than R, none for count <= 2) lie within (R - 1) h <= (count - 1) h / 2
    of it, so their exponent is at most twice the largest on the run: under
    the callers' guard on a |Im d|, 2 a |Im d| <= 600, inside double range.
    weighted_compose_apply keeps the weights it takes from here (core._table),
    so a symbol's second call on a grid computes it and later calls read it.
    """
    h = 2.0 * a / m
    r = 1 << (count.bit_length() // 2)
    rows = -(-count // r)
    head = np.exp(w * ((-a + (lo + 0.5) * h) + np.arange(rows) * (r * h)))
    tail = np.exp(w * (np.arange(r) * h))
    return np.outer(head, tail).ravel()[:count]


def _subgrid_length(c: float, m: int) -> int | None:
    """L = M |c| when t -> t/c maps the support run onto the L-point midpoint grid, else None.

    That holds for |c| = 1/q, q a power of two with 2q | M: the run is then
    the L = M/q middle points, L even, and q t_{lo + i} = -a + (i + 1/2) 2a/L.
    """
    p, q = abs(c).as_integer_ratio()
    return m // q if p == 1 and m % (2 * q) == 0 else None


def _subgrid_values(F: L2Function, count: int) -> np.ndarray:
    """F on the L-point midpoint grid, L = count even and at most M/2, by one 2L-point FFT.

    At s_i = -a + (i + 1/2) 2a/L, eps_n(s_i) sqrt(2a) = e^{i pi n} e^{-i pi n (2i + 1) / L}
    = e^{-2 pi i n (2i + 1 + L) / (2L)}, as e^{i pi n} = e^{-i pi n}.  So the
    coefficients |n| <= M // 4 that _values_at reads, summed modulo 2L, give F
    on the grid as the odd bins of one 2L-point DFT, rotated by L/2: no
    twiddle, no chirp.  It rounds like an FFT, to O(eps log L) relative to
    sum_n |coef_n|.
    """
    k, width = F.m_points // 4, 2 * count
    lead = -k % width  # zeros ahead of n = -k put each n in column n mod 2L
    blocks = np.zeros((-(-(lead + 2 * k + 1) // width), width), dtype=np.complex128)
    blocks.ravel()[lead : lead + 2 * k + 1] = _coefficients(F, k)
    spectrum = np.fft.fft(blocks.sum(axis=0))
    return np.roll(spectrum[1::2], -(count // 2)) / math.sqrt(2.0 * F.a)


def _apply_table(phi: AffineSymbol, a: float, m: int) -> tuple:
    """weighted_compose_apply's operator half on the M-point grid: (lo, count, s0, the weight e^{i d t / c} there).

    The support run is the count grid points from lo on.  s0 is None on the
    c = +-1 and sub-grid routes, else the chirp-z's first point t_lo / c; an
    empty run is (0, 0, None, None).
    """
    c = phi.c
    s0 = None
    if abs(c) == 1.0:
        lo, count = 0, m
    elif count := _subgrid_length(c, m):
        lo = (m - count) // 2
    else:
        t = _grid(a, m)
        run = np.flatnonzero(np.abs(t) < abs(c) * a)  # one contiguous run of grid points
        if not run.size:
            return 0, 0, None, None
        lo, count = run[0], run.size
        s0 = t[lo] / c
    return lo, count, s0, _grid_exp(1j * phi.d / c, a, m, lo, count)


def weighted_compose_apply(phi: AffineSymbol, F: L2Function) -> L2Function:
    """Apply the transformed operator on the grid.

    Output vanishes identically outside (-|c|a, |c|a) (exact zeros); inside,
    (1/|c|) e^{i d t / c} F(t/c).  The route follows (c, M): for c = +-1 the
    substitution lands back on the midpoint grid and is applied by (reversed)
    indexing; for |c| = 1/q, q a power of two with 2q | M (_subgrid_length),
    t/c maps the support run onto the M/q-point midpoint grid and F there is
    one 2M/q-point FFT (_subgrid_values), reversed for c < 0, within
    O(eps log M) of sum_n |coef_n|; any other slope or grid takes F(t/c) from
    _values_at's chirp-z on the one contiguous run of grid points inside the
    support.  The weight comes from _grid_exp on that run, within O(eps (1 +
    |d| a / |c|)) of the exact exponential, as np.exp is.  The route, the run
    and the weight are the operator half (_apply_table), fetched by
    core._table under the bits of c, d and a and M.
    """
    # e^{i d t / c} is evaluated only on |t| < |c| a, so it stays within e^{a |Im d|}
    _guard_exponent(abs(phi.d.imag) * F.a, "weight exponent")
    a, c, m = F.a, phi.c, F.m_points
    # nbytes: at most 16 a grid point for the weight, and 16 for the rest of the table
    lo, count, s0, weight = _table(("apply", _bits(phi, a), m), 16 * (m + 1), lambda keep: _apply_table(phi, a, m))
    if abs(c) == 1.0:  # t/c is the grid itself, reversed for c = -1
        return _l2(a, weight * F.values[:: int(c)])
    out = np.zeros(m, dtype=np.complex128)
    if count:
        if s0 is None:
            inner = _subgrid_values(F, count)[:: 1 if c > 0 else -1]
        else:
            inner = _values_at(F, s0, 2.0 * a / (m * c), count)
        out[lo : lo + count] = weight * inner / abs(c)
    return _l2(a, out)


def weighted_compose_adjoint(phi: AffineSymbol, F: L2Function) -> L2Function:
    """The adjoint in the transformed picture: conj(e^{i d t}) F(c t).

    The weight e^{-i conj(d) t} comes from _grid_exp on the whole grid, within
    O(eps (1 + |d| a)) of the exact exponential, as np.exp is.
    """
    # e^{-i conj(d) t} on |t| < a stays within e^{a |Im d|}
    _guard_exponent(abs(phi.d.imag) * F.a, "weight exponent")
    a, c, d, m = F.a, phi.c, phi.d, F.m_points
    if abs(c) == 1.0:  # c t is the grid itself, reversed for c = -1
        inner = F.values[:: int(c)]
    else:
        inner = _values_at(F, c * (-a + 0.5 * (2.0 * a / m)), 2.0 * a * c / m, m)
    return _l2(a, _grid_exp(-1j * np.conj(d), a, m, 0, m) * inner)
