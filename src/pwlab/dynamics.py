"""Orbits, linear-dynamics classification, and the quantitative certificates.

Everything here reduces to two exact ingredients: the closed-form iterate
phi^[n] = (c^n, d_n) (so the n-th orbit element is a single composition, not
n resamplings), and the closed pairing form for <C_phi1 f, C_phi2 g> (so
orbit norms never lose mass to a finite window), which core._pairings sums
for a whole orbit or lag table in one call; orbit_norms_fourier reads them
again as weighted integrals of |F|^2.  Classification itself is a pure table
on (c, Im d); the orbit machinery certifies each entry numerically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (
    OVERFLOW_EXPONENT,
    AffineSymbol,
    OverflowGuardError,
    PwFunction,
    PwLabError,
    _TABLE_BYTES,
    _bits,
    _cardinal,
    _cardinal_table,
    _count,
    _freeze,
    _guard_exponent,
    _guard_size,
    _guard_square,
    _iterate_table,
    _pairing_table,
    _pairings,
    _same_bandwidth,
    _table,
    _toeplitz_table,
    kernel_norm_sq,
    pw_eval,
    scaled,
)
from .fourier import L2Function, to_l2


@dataclass(frozen=True, eq=False)
class OrbitTrace:
    """Norms ||C_phi^n f|| for n = 0..n_max, stored read-only.

    An array that is already read-only, C-contiguous and owns its data (as
    orbit_norms' are) is kept as it is, so its owner must not write it again
    (through a view taken before, or by setflags); any other is copied, so a
    caller that keeps a writeable array or view cannot change the trace.
    """

    norms: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.norms, dtype=float)
        if v.flags.writeable or not (v.flags.owndata and v.flags.c_contiguous):
            v = v.copy()
            v.setflags(write=False)
        if v.ndim != 1 or v.size == 0 or not (np.isfinite(v).all() and (v >= 0.0).all()):
            raise ValueError("norms must be a finite nonnegative sequence")
        object.__setattr__(self, "norms", v)


# _orbit_parts' table of Python floats and complexes and the orbit's row arrays
# peak at 80-97 bytes a row (tracemalloc, numpy 2.4); the memory budget counts 128.
_ORBIT_ROW_BYTES = 128


def _orbit_parts(phi: AffineSymbol, a: float, n_max: int, iterates=None) -> tuple[np.ndarray, np.ndarray]:
    """(|c^n|, Im d_n) for n = 0..n_max, once the squared orbit norms pass their guard.

    ||C_{phi^[n]} f||^2 carries e^(2 a |Im d_n|) times the prefactor 1/|c^n|,
    so their sum gets twice the range; each kernel that evaluates e^(2 a |Im
    d_n|) guards that exponent itself.  The row n_max (_iterate_table's bits)
    is guarded first, then the table's bytes (_ORBIT_ROW_BYTES a row), so a
    horizon past either builds no table.  iterates is the table (c^n, d_n),
    n = 0..n_max, where the caller has built it (build_pseudotrajectory, whose
    gram guard bounds the horizon first), read in place of both
    _iterate_table calls.
    """
    n_max = _count(n_max, "orbit horizon")
    what, limit = "squared orbit norm exponent", 2.0 * OVERFLOW_EXPONENT
    # in the table's bits (np.log, not math.log), so this raises only where the table's guard would
    (cn,), (dn,) = _iterate_table(phi.c, phi.d, (n_max,)) if iterates is None else (iterates[0][-1:], iterates[1][-1:])
    _guard_exponent(2.0 * a * abs(dn.imag) - float(np.log(max(abs(cn), math.ulp(0.0)))), what, limit)
    _guard_size(n_max + 1, "orbit horizon", _ORBIT_ROW_BYTES)
    c, d = iterates or _iterate_table(phi.c, phi.d, range(n_max + 1))
    c, y = np.abs(c), np.imag(d)
    # a c^n that underflowed to 0 counts as the least float, whose -log (744) fails the guard too
    _guard_exponent(np.max(2.0 * a * np.abs(y) - np.log(np.maximum(c, math.ulp(0.0)))), what, limit)
    return c, y


def orbit_norms(phi: AffineSymbol, a: float, f: PwFunction, n_max: int) -> OrbitTrace:
    """norms[n] = ||C_{phi^[n]} f|| via the closed pairing form.

    norms[0] is ||f|| itself.  Each later entry pairs the n-th iterate symbol
    exactly; no window resampling enters, so the trace is reliable far past
    the point where windowed samples of f o phi^[n] would saturate.  All
    n_max pairings take _pairings' Toeplitz route (ratio 1) at once: one
    autocorrelation of the samples v (core._convolve), then its cardinal
    series at the points conj(d_n - conj(d_n)) = -2i Im d_n.
    ||C_{phi^[n]} f||^2 rounds to O(B_n) (core._rounding_bound), and
    _guard_square raises at the first n whose square rounds to <= 0, as
    composed_norm does.

    Everything but the samples' autocorrelation and its contraction is the
    operator half (_orbit_table): the table of (c^n, d_n) with its guards, the
    factors pi/(a |c^n|) and _pairings' table at the points, fetched by
    core._table under the key (phi, a, n_max, N), so that from a key's second
    call on the traces of one operator over many probes share it.
    """
    _same_bandwidth(f.a, a)
    n_max, n = _count(n_max, "orbit horizon"), f.half_width
    c, y, factor, shift, table = _table(("orbit", _bits(phi, f.a), n_max, n), lambda: _orbit_table(phi, a, n_max, n))
    squares = factor * _pairings(a, f.samples, f.samples, 1.0, shift, table).real
    _guard_square(squares, a, c, y, f.samples)
    norms = np.concatenate(([f.norm()], np.sqrt(squares)))
    norms.setflags(write=False)
    return OrbitTrace(norms)


def _orbit_table(phi: AffineSymbol, a: float, n_max: int, n: int) -> tuple:
    """orbit_norms' operator half for a window |k| <= n: (|c^n|, Im d_n, pi/(a |c^n|), 2i Im d_n, _pairings' table)
    for n = 1..n_max, the table at the autocorrelation's 4n + 1 samples (core._toeplitz_table)."""
    c, y = _orbit_parts(phi, a, n_max)
    shift = 2j * y[1:]
    return c[1:], y[1:], math.pi / (a * c[1:]), shift, (None, _toeplitz_table(a, shift, 2 * n))


def orbit_norms_fourier(phi: AffineSymbol, F: L2Function, n_max: int) -> OrbitTrace:
    """norms[n] = ||C_{phi^[n]} f|| for F = to_l2(f), read on the Fourier side alone.

    Transformed, C_{phi^[n]} is (1/|c^n|) e^{i d_n t / c^n} F(t / c^n) on
    |t| < |c^n| a, so s = t / c^n gives ||C_{phi^[n]} f||^2 = |c|^{-n}
    integral_{-a}^{a} |F(s)|^2 e^{-2 Im(d_n) s} ds: one (n_max + 1) x M matrix
    of weights e^{-2 Im(d_n) t_j}, guarded at 2 a |Im d_n|, against |F|^2 dt on
    F's midpoint grid.  Real d has weight 1, exact to rounding (|F|^2 is a
    trigonometric polynomial of degree below M); complex d errs by O(h^2), h = 2a/M.
    At the peak two float arrays of weights take 16 bytes an entry and the six
    row arrays beside them 48 bytes a row, so the memory budget counts
    (n_max + 1)(M + 3) entries of 16 bytes.
    """
    c, y = _orbit_parts(phi, F.a, n_max)
    _guard_size(c.size * (F.m_points + 3), "orbit weight entries", 16)
    _guard_exponent(2.0 * F.a * float(np.abs(y).max()), "orbit exponent 2 a |Im d_n|")
    weights = np.exp(-2.0 * np.outer(y, F.grid()))
    return OrbitTrace(_fourier_roots(F.values, 2.0 * F.a / F.m_points, lambda cells: weights @ cells / c))


def _fourier_roots(values, dt: float, sums) -> np.ndarray:
    """sqrt(sums(cells)) for the cells |F(t_j)|^2 dt of Fourier-side values F(t_j) and a sum sums linear in them.

    core._norm's range rule: the cells are formed on |F| / 2^e, e the binary exponent of max|F|, and the roots
    scaled back by 2^e.  Both scalings are exact, so no square overflows or underflows, a result in range keeps its
    bits, and a root past the float range raises OverflowGuardError.
    """
    mag = np.abs(values)
    e = math.frexp(float(mag.max()))[1]
    roots = np.sqrt(sums(np.ldexp(mag, -e) ** 2 * dt))
    top = float(roots.max())
    if math.frexp(top)[1] + e > sys.float_info.max_exp:
        raise OverflowGuardError(f"Fourier-side root {top!r} x 2^{e} passes the float range")
    return np.ldexp(roots, e)


@dataclass(frozen=True)
class PropertyReport:
    """Operator-theoretic and dynamical flags for one symbol, with reasons."""

    normal: bool
    unitary: bool
    invertible: bool
    compact: bool
    closed_range: bool
    li_yorke: bool
    positively_expansive: bool
    cesaro_bounded: bool
    shadowing: bool
    justifications: tuple[tuple[str, str], ...]

    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name, _ in self.justifications}


def classify(phi: AffineSymbol) -> PropertyReport:
    """Pure table lookup on the symbol's class, the same in every PW_a; every numerical experiment must agree with it.

    The five classes: 0 < |c| < 1 (any d), and c = 1 or c = -1, each with real or complex d.  The table maps each
    property, in the report's order, to one (flag, reason) pair, chosen by one branch on the class.
    """
    c, real = phi.c, phi.d.imag == 0.0
    contracting = abs(c) < 1.0
    table = {
        "normal": (
            (True, "c=1 transforms to a pure multiplication by e^{i d t}, which commutes with its adjoint")
            if c == 1.0 else
            (False, "the scaling part strictly contracts the band, so C*C and CC* act on different supports and "
             "cannot agree") if contracting else
            (True, "c=-1, d real: the operator is self-inverse (applying it twice gives the identity) and "
             "isometric, hence normal") if real else
            (False, "c=-1, d not real: C*C and CC* multiply the transform by e^{-2 Im(d) t} and e^{2 Im(d) t}, "
             "which differ, so they cannot agree")
        ),
        "unitary": (
            (True, "translation with real d is multiplication by the unimodular e^{i d t} in the transformed "
             "picture: isometric and onto") if c == 1.0 and real else
            (False, "reflection with real d is isometric and invertible as well; the flag follows the "
             "translation-group convention and reports false for c=-1") if c == -1.0 and real else
            (False, "the norm of the operator or of its inverse image exceeds 1, so it cannot be unitary")
        ),
        "invertible": (
            (False, "0<|c|<1: the inverse symbol would have slope 1/c with |1/c| > 1, which does not map the "
             "space into itself; the range is a proper closed subspace") if contracting else
            (True, "|c|=1: the inverse symbol z -> (z - d)/c is again admissible")
        ),
        "compact": (False, "the normalized node kernels go weakly to zero while their adjoint images keep the "
                    "constant length sinh(2 a Im d)/(2 a Im d) >= 1, so no compactness for any admissible symbol"),
        "closed_range": (
            (True, "bounded below: ||C_phi f|| = |c|^{-1/2} ||f(. + d)|| >= |c|^{-1/2} e^{-|Im d| a} ||f||, a "
             "positive multiple of an isometry composed with an invertible multiplication, hence closed range")
            if contracting else
            (True, "invertible: the inverse symbol z -> (z - d)/c is admissible (|1/c| = 1), and invertible "
             "operators have closed range")
        ),
        "li_yorke": (False, "no orbit can have liminf 0 and limsup infinity: for |c| < 1 every nonzero orbit grows "
                     "at least like |c|^{-n/2} (bounded below), and for |c| = 1 an orbit with liminf 0 forces the "
                     "spectral density to vanish where the weight is >= 1, making the orbit nonincreasing"),
        "positively_expansive": (
            (True, "unit vectors double: orbits grow at rate |c|^{-n/2}") if contracting else
            (False, "no unit vector ever doubles: c=-1 orbits have period 2 with sup norm at most e^{|Im d| a}")
            if c == -1.0 else
            (False, "no unit vector ever doubles: c=1 with real d is unitary (orbit norms constant)") if real else
            (True, "unit vectors double: the weight e^{-2 Im(d) n t} diverges exponentially on a set of positive "
             "spectral measure")
        ),
        "cesaro_bounded": (
            (True, "orbit norms alternate between ||f|| and ||C_phi f|| <= e^{|Im d| a}||f||, so every Cesaro "
             "mean is bounded by e^{|Im d| a}||f||") if c == -1.0 else
            (True, "unitary orbit: all means equal ||f||") if c == 1.0 and real else
            (False, "means grow without bound: the n-th orbit norm alone exceeds any fixed multiple of n (rate "
             "e^{|Im d| a n} for c=1, |c|^{-n/2} otherwise)")
        ),
        "shadowing": (False, "for every delta there is an explicit delta-pseudotrajectory whose terms grow linearly "
                      "at a reproducing-kernel functional while every true orbit stays bounded there, so no orbit "
                      "shadows it"),
    }
    flags, reasons = zip(*table.values())
    return PropertyReport(*flags, justifications=tuple(zip(table, reasons)))


def _value_off_zero(f: PwFunction, z: complex, table, what: str) -> complex:
    """f(z) from table, _cardinal_table at z alone for f's window, or ValueError(what) where |f(z)| is within
    pw_eval's rounding bound eps sum|v| e^(a |Im z|)."""
    val = complex(_cardinal(f.a, None, f.samples, table)[0])
    if abs(val) <= math.ulp(1.0) * float(np.sum(np.abs(f.samples))) * math.exp(f.a * abs(complex(z).imag)):
        raise ValueError(what)
    return val


def _favourable_tails(f: PwFunction, imd: float) -> tuple[np.ndarray, np.ndarray]:
    """(m, tau): the favourable half's running tails m_k^2 = int_{u >= tau_k} |F|^2, u = -sign(imd) s.

    Im d_n has the sign of Im d, so on u >= tau the weight e^{-2 Im(d_n) s} of
    orbit_norms_fourier's ||C_phi^n f||^2 is at least e^{2 |Im d_n| tau}:
    ||C_phi^n f|| >= m_k |c|^{-n/2} e^{|Im d_n| tau_k} from n = 0 on.  F = to_l2(f)
    on M = max(4096, 2N+1) points (no probe aliases) gives m by midpoint sums over
    cells from u = a down, cell k above tau_k = a (M - 2k - 2)/M (the last 0 or a/M).
    """
    F = to_l2(f, max(4096, f.samples.size))
    m = F.m_points
    tails = _fourier_roots(F.values[:: 1 if imd > 0.0 else -1][: m // 2], 2.0 * f.a / m, np.cumsum)
    return tails, f.a * (m - 2.0 * np.arange(1, m // 2 + 1)) / m


@dataclass(frozen=True)
class ExpansivityCertificate:
    """Either the first doubling time of a unit vector or its orbit sup.

    delta |c|^{-n/2} e^{|Im d_n| tau} bounds the unit orbit from n = 0 on, and
    cap is the first n where it reaches 2, plus one (see expansivity_certificate).
    """

    expansive: bool
    n_star: int | None
    sup_norm: float | None
    delta: float | None
    cap: int | None


def expansivity_certificate(
    phi: AffineSymbol, a: float, f: PwFunction, horizon: int = 40
) -> ExpansivityCertificate:
    """Match the classifier with an explicit orbit computation.

    Expansive symbols: the first n with ||C_phi^n f|| >= 2 for the normalized
    f, read from one orbit_norms(cap).  ||C_phi^n f|| >= delta |c|^{-n/2} e^{|Im d_n| tau}
    from n = 0 on, with delta = m(tau) the favourable tail at the cell edge tau
    (_favourable_tails).  Real d has weight 1 and delta = 1.  Otherwise tau is
    the last cell edge (0 or a/M) for 0 < |c| < 1, and for c = 1
    (|Im d_n| = n |Im d|) the edge tau > 0 whose bound reaches 2 first.  The
    search cap is the first n where that bound reaches 2, plus one: where the exact norm
    is 2 the last bit decides, so n_star may be n or n + 1 (for real d and
    |c|^{-n/2} = 2 every unit vector has norm 2 at n; c = 0.5, d = 0.3: rough
    probes at N = 64 of seeds 0..199 split 163 to 37).
    Non-expansive symbols: sup_n ||C_phi^n f|| over the horizon, at 1
    (unitary) or below e^{|Im d| a} (period-2 reflection case).
    """
    if not f.samples.any():
        raise ValueError("expansivity needs a nonzero vector")
    _same_bandwidth(f.a, a)
    horizon = _count(horizon, "orbit horizon")
    unit = scaled(f, 1.0 / f.norm())
    if not classify(phi).positively_expansive:
        trace = orbit_norms(phi, a, unit, horizon)
        return ExpansivityCertificate(
            expansive=False,
            n_star=None,
            sup_norm=float(np.max(trace.norms)),
            delta=None,
            cap=None,
        )
    imd = phi.d.imag
    delta, rate = 1.0, 0.5 * math.log(1.0 / abs(phi.c))  # |c|^{-n/2} = e^{n rate}; rate 0 at c = 1
    if imd != 0.0:
        tails, tau = _favourable_tails(unit, imd)
        k = tails.size - 1  # the last cell, where the tail is largest
        if phi.c == 1.0:
            with np.errstate(divide="ignore"):  # an empty tail or tau = 0 never reaches 2
                k = int(np.argmin(np.log(2.0 / tails) / tau))
            rate = abs(imd) * float(tau[k])
        delta = float(tails[k])
    # a bound past the orbit horizon (inf: no favourable mass, or a rate that underflowed) traces nothing
    first = math.log(2.0 / delta) / rate if delta * rate > 0.0 else math.inf
    _guard_size(first, "doubling-time bound")
    cap = math.ceil(first) + 1
    hits = np.flatnonzero(orbit_norms(phi, a, unit, cap).norms >= 2.0)
    if hits.size == 0:
        raise PwLabError(
            f"no doubling within the cap {cap} predicted by delta={delta:.3g}"
        )
    return ExpansivityCertificate(
        expansive=True,
        n_star=int(hits[0]),
        sup_norm=None,
        delta=delta,
        cap=cap,
    )


def cesaro_averages(
    phi: AffineSymbol, a: float, f: PwFunction, n_max: int
) -> np.ndarray:
    """A_n = (1/n) sum_{j=1..n} ||C_phi^j f|| for n = 1..n_max."""
    n_max = _count(n_max, "orbit horizon", least=1)
    trace = orbit_norms(phi, a, f, n_max)
    return np.cumsum(trace.norms[1:]) / np.arange(1, n_max + 1)


def cesaro_lower_envelope(phi: AffineSymbol, f: PwFunction, n_max: int) -> np.ndarray:
    """m(tau) |c|^{-n/2} e^{|Im d_n| tau} / n, n = 1..n_max: what the single largest orbit term already forces.

    n envelope_n is _favourable_tails' bound on ||C_phi^n f|| <= n A_n, at the
    cell edge tau whose bound is largest at n_max; real d has m = ||f||, and m
    scales with f.  _orbit_parts' table passes the squared orbit norms' guard,
    so the envelope admits the horizons cesaro_averages admits.
    """
    n_max = _count(n_max, "orbit horizon", least=1)
    _guard_size(n_max + 1, "orbit horizon", _ORBIT_ROW_BYTES)  # _orbit_parts' table, before its range guard
    if abs(phi.c) >= 1.0:
        raise ValueError("the envelope needs a strictly contracting symbol, 0<|c|<1")
    c, y = _orbit_parts(phi, f.a, n_max)
    m, tau = f.norm(), 0.0
    if phi.d.imag != 0.0:
        tails, edges = _favourable_tails(f, phi.d.imag)
        k = int(np.argmax(tails * np.exp(abs(y[-1]) * (edges - f.a))))  # the largest bound at n_max
        m, tau = float(tails[k]), float(edges[k])
    n = np.arange(1, n_max + 1)
    return m * np.exp(np.abs(y[1:]) * tau) / np.sqrt(c[1:]) / n


def _lower_pairings(phi: AffineSymbol, g: PwFunction, f: PwFunction, n: int) -> np.ndarray:
    """M[i-1, j-1] = <C_{phi^[i]} g, C_{phi^[j]} f> for 1 <= j <= i <= n; zero above the diagonal.

    phi^[i] = phi^[k] o phi^[j] with k = i - j gives d_i = c^k d_j + d_k, so
    composed_inner_product's identity with c1 = c^j, c2 = c^i reads

        <C_{phi^[j]} f, C_{phi^[i]} g> = |c|^{-j} table[l, k],
        table[l, k] = pi/a sum_m v_m conj(g(c^k x_m + s)),  s = d_k + 2i c^k Im d_j,

    over the nodes x_m of f's window (samples v_m), with one row l per
    distinct Im d_j (one row for real d) and every needed (l, k), k <= n - j
    for the first j of row l, filled by one _pairings call: on its direct
    route J nnz(v) (2 N_w + 1) entries for the J pairs (l, k), N_w the half
    width of g, guarded at the points with v_m != 0.  M holds the
    conjugate, the diagonal at lag 0.  Entries round to O(eps * |c|^{-j} *
    pi/a * sum|v| * sum|w| * e^(a |Im s|)) with w the samples of g, the
    per-pair bound of composed_inner_product.  The operator half
    (_lag_table) is built for this call alone and contracted with v and w
    (_lag_pairings).
    """
    half = _lag_table(f.a, _iterate_table(phi.c, phi.d, range(n + 1)), f.samples, n, g.half_width)
    return _lag_pairings(phi.c, f.a, half, f.samples, g.samples, n)


def _lag_table(a: float, iterates, v: np.ndarray, n: int, n_w: int) -> tuple:
    """_lower_pairings' operator half for n lags, the samples v of f and g's window |k| <= n_w.

    iterates is _iterate_table's (c^k, d_k) for k = 0..n.  The half is the
    layout (the row l of each j = 1..n, the table's shape, the J pairs (l, k)
    and their shifts s) and _pairings' operator half at the points c^k x_m + s
    of v's nonzero nodes (_pairing_table), in core's one form: whole where it
    fits one block, else built block by block as it is read.
    """
    c_k, d_k = iterates
    seen = {}  # Im d_j -> (its row, the first j with it)
    level = np.array([seen.setdefault(d_k[j].imag, (len(seen), j))[0] for j in range(1, n + 1)])
    im = np.array(list(seen))
    first = np.array([j for _, j in seen.values()])
    row, k = np.nonzero(np.arange(n) <= n - first[:, None])
    ratio = np.array(c_k[:n])[k]
    shift = np.array(d_k[:n])[k]
    shift.imag += 2.0 * ratio * im[row]
    return level, (im.size, n), row, k, shift, _pairing_table(a, v, n_w, ratio, shift)


def _lag_pairings(c: float, a: float, half: tuple, v: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """_lower_pairings' n x n matrix from its operator half (_lag_table, for n lags or more) and the samples v and w.

    The contraction sums every pair of the half; the matrix reads the pairs
    of the first n lags, and its upper triangle reads a zero column.
    """
    level, (rows, lags), row, k, shift, pairing = half
    table = np.zeros((rows, lags + 1), dtype=np.complex128)
    table[row, k] = (math.pi / a) * _pairings(a, v, w, None, shift, pairing)
    j = np.arange(1, n + 1)
    lag = j[:, None] - j
    lag[lag < 0] = lags  # above the diagonal: the zero column
    return abs(c) ** -j * np.conj(table[level[j - 1], lag])


@dataclass(frozen=True, eq=False)
class Pseudotrajectory:
    """f_n = coefficient * sum_{j=1..n} C_phi^j f, coefficient = delta/||C_phi f||.

    The fields hold everything the construction states.  C_phi f_n - f_{n+1}
    = -coefficient C_phi f for every n, so each defect is coefficient *
    step_norm, delta within two roundings; every iterate fixes alpha, so
    f_n(alpha) = n * coefficient * seed_at_fixed_point; and ||f_n||^2 is
    coefficient^2 times the sum of the leading n x n block of Re gram.  Terms
    are sums of the exact iterate images of the seed, so norms and pairings
    go through the closed pairing form; nothing is ever resampled onto a
    window.  Gram entries round to O(eps * |c|^{-min(i,j)} * pi/a * (sum|v|)^2
    * e^(a |Im s|)) with v the seed's samples (see _lower_pairings for s).
    The gram is read-only, like the seed's samples, so the pseudotrajectory
    cannot change once built.

    Beside them it keeps, read-only, the two operator halves the gram and
    f(alpha) were contracted from, for shadowing_divergence to contract a
    candidate on the seed's window with: the lag table of n_max + 1 lags
    (_lag_table) and _cardinal_table at alpha alone.  They are kept where
    n_max >= 1 and core._freeze counts them within core._TABLE_BYTES
    together, core._table's rule, so a lag table built block by block is
    never kept; they are None otherwise.
    """

    phi: AffineSymbol
    a: float
    delta: float
    seed: PwFunction
    n_max: int
    step_norm: float
    coefficient: float
    gram: np.ndarray  # gram[j, k] = <C_phi^{j+1} seed, C_phi^{k+1} seed>
    seed_at_fixed_point: complex  # f(alpha), alpha the fixed point of phi
    _lags: tuple | None = field(default=None, repr=False)
    _at_alpha: tuple | None = field(default=None, repr=False)

    def _block_sums(self) -> np.ndarray:
        """sums[n] = sum of the leading n x n block of Re gram, n = 0..n_max+1."""
        cum = np.cumsum(np.cumsum(self.gram.real, axis=0), axis=1)
        return np.concatenate(([0.0], np.diagonal(cum)))


def build_pseudotrajectory(
    phi: AffineSymbol, a: float, f: PwFunction, delta: float, n_max: int
) -> Pseudotrajectory:
    """The delta-pseudotrajectory of the seed f, with gram[j, k] = <C_{phi^[j+1]} f, C_{phi^[k+1]} f>.

    Every step misses by delta by construction (see Pseudotrajectory).  The gram is
    _lower_pairings(f, f) below the diagonal and its conjugate transpose on and
    above it, rounding as Pseudotrajectory states.  Its diagonal holds
    the orbit's squares ||C_phi^n f||^2, n = 1..n_max+1, which pass the range
    guard of orbit_norms (_orbit_parts) before any pairing and its
    _guard_square after; step_norm = ||C_phi f|| is the root of gram[0, 0].
    One table (c^n, d_n), n = 0..n_max+1, feeds the guard and the lag table,
    and f(alpha) is read from its own one-target table; both operator halves
    are kept as Pseudotrajectory states.
    The gram's (n_max + 1)^2 entries pass the memory budget at 80 bytes each:
    they peak at 71 where the lag table has a row per n (complex d, |c| near 1).
    The kept halves hold at most core._TABLE_BYTES = 2 MiB beside them, within
    _WORKSPACE.  They are built in the same form whether kept or not (one
    block whole, more block by block), so keeping them adds to what a
    pseudotrajectory holds and not to the build's peak.
    _pairings guards its points, which grow with the seed's nonzero samples.
    """
    if phi.c == 1.0:
        raise ValueError("pseudotrajectory construction needs a fixed point (c != 1)")
    if not 0.0 < delta < math.inf:  # NaN fails both comparisons
        raise ValueError("delta must be positive and finite")
    _same_bandwidth(f.a, a)
    n_max = _count(n_max, "pseudotrajectory horizon")
    _guard_size((n_max + 1) ** 2, "pseudotrajectory gram entries", 80)
    alpha = phi.fixed_point()
    at_alpha = _cardinal_table(a, np.array([alpha]), f.half_width)
    f_alpha = _value_off_zero(f, alpha, at_alpha, "seed vanishes at fixed point")
    iterates = _iterate_table(phi.c, phi.d, range(n_max + 2))
    c, y = _orbit_parts(phi, a, n_max + 1, iterates)
    lags = _lag_table(a, iterates, f.samples, n_max + 1, f.half_width)
    # a horizon 0 leaves no divergence to contract the halves for (n_max >= 1 there)
    kept = n_max >= 1 and _freeze((lags, at_alpha)) <= _TABLE_BYTES
    low = _lag_pairings(phi.c, a, lags, f.samples, f.samples, n_max + 1)
    gram = np.where(np.tri(n_max + 1, k=-1, dtype=bool), low, low.conj().T)
    gram.setflags(write=False)
    _guard_square(gram.diagonal().real, a, c[1:], y[1:], f.samples)
    step_norm = math.sqrt(gram[0, 0].real)
    coefficient = delta / step_norm
    return Pseudotrajectory(
        phi=phi,
        a=a,
        delta=delta,
        seed=f,
        n_max=n_max,
        step_norm=step_norm,
        coefficient=coefficient,
        gram=gram,
        seed_at_fixed_point=f_alpha,
        _lags=lags if kept else None,
        _at_alpha=at_alpha if kept else None,
    )


def shadowing_divergence(
    P: Pseudotrajectory, g: PwFunction, n_max: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(D, L) for n = 1..n_max: true distances and the linear lower bound.

    D_n = ||C_phi^n g - f_n|| expanded through the pairing form;
    L_n = (n delta |f(alpha)| / ||C_phi f|| - |g(alpha)|) / ||k_alpha||.
    D_n >= L_n up to pairing rounding, and L_n grows linearly: no single g
    stays delta-close to the whole pseudotrajectory.

    f_n carries the coefficient on the iterates 1..n alone, so D_n reads
    ||f_n||^2 from the gram's block sums and the cross pairings <C_{phi^[n]}
    g, C_{phi^[j]} f>, f the seed, for j <= n alone: one row sum of the lag
    table of f against g (_lower_pairings), rounding to O(eps *
    |c|^{-j} * pi/a * sum|v| * sum|w| * e^(a |Im s|)) with v, w the samples
    of f and g.  f(alpha) is the pseudotrajectory's own.  A g on the seed's
    window is contracted with the halves P keeps, where it keeps them: the
    lag table's first n_max lags and the table at alpha for g(alpha), which
    the build has guarded.  Any other g builds both halves for this call.
    """
    _same_bandwidth(g.a, P.a)
    n_max = _count(P.n_max if n_max is None else n_max, "divergence horizon", least=1)
    if n_max > P.n_max:
        raise ValueError("n_max outside 1..P.n_max")
    alpha = P.phi.fixed_point()
    f_alpha = P.seed_at_fixed_point
    kept = P._lags is not None and g.half_width == P.seed.half_width
    g_alpha = complex(_cardinal(P.a, None, g.samples, P._at_alpha)[0]) if kept else pw_eval(g, alpha)
    k_alpha = math.sqrt(kernel_norm_sq(P.a, alpha))
    if kept:
        low = _lag_pairings(P.phi.c, P.a, P._lags, P.seed.samples, g.samples, n_max)
    else:
        low = _lower_pairings(P.phi, g, P.seed, n_max)
    mixed = P.coefficient * low.sum(axis=1).real
    gn_sq = orbit_norms(P.phi, P.a, g, n_max).norms[1:] ** 2
    fn_sq = P.coefficient**2 * P._block_sums()[1 : n_max + 1]
    n = np.arange(1, n_max + 1)
    d_out = np.sqrt(np.maximum(gn_sq - 2.0 * mixed + fn_sq, 0.0))
    return d_out, (n * P.delta * abs(f_alpha) / P.step_norm - abs(g_alpha)) / k_alpha
