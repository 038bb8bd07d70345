"""Sampling model of the Paley-Wiener space PW_a and affine composition.

PW_a is the space of entire functions of exponential type at most a whose
restriction to the real line is square integrable.  The reproducing kernel is

    k_w(z) = sin(a(z - conj(w))) / (pi (z - conj(w))),

and the normalized kernels at the nodes x_n = n pi / a form an orthonormal
basis, so a function is represented here by its node samples v_n = f(x_n)
on a symmetric window |n| <= N together with the bandwidth a.  Parseval:
||f||^2 = (pi/a) sum |v_n|^2.

The affine symbols phi(z) = c z + d with c real, 0 < |c| <= 1, d complex are
exactly the ones for which f -> f o phi maps PW_a into itself boundedly.

Every sinc sum outside the finite sections (spectral.build_matrix, kept
independent) and compose_apply's coset route goes through one cardinal-series
kernel, _cardinal, at O(N_in N_out): evaluation, the closed pairings (whose
direct route skips zero samples) and the probes' spectral_pulse alike.  A
block of targets on the real axis sums 1/(a(z - x_k)) by one real product,
a block with any complex target by two; both round alike.  The coset route:
every float slope is a dyadic rational c = p/q, and with n = q m + r the
targets a phi(x_n) = pi p m + a phi(x_r) fall on q shifted copies of the
node lattice, so each coset r is the exact Toeplitz product sum_k v_k
sinc(pi (p m - k) + a phi(x_r)): one convolution read at stride p.  Its
rounding is at most normwise, O(eps ||v|| ||K||); cosets whose targets are
nodes are gathers of the samples and stay exact.

Every convolution of the package (the cosets, the closed pairing's
cross-correlation at equal slopes and fourier._values_at's chirp-z) runs
through _convolve, which owns the one engine rule and the one FFT length: a
direct sum in one C call per row while its products stay within
_DIRECT_TERMS, else one FFT at the least 5-smooth length that holds the
outputs read.  Short ones skip the FFT's fixed cost of a few calls of about
10 us each.

Each sinc kernel has an operator half and a probe half.  The operator half
is what the targets and the window alone decide: _cardinal_table's guards,
nearest nodes, signed reciprocals and sines, and _coset_sum's route, gathers
and coset kernels.  The probe half contracts it with the samples.  The orbit
traces (key: c, Im d, a, the horizon and N), compose_apply (key: the symbol,
a, N and the target window) and the pseudotrajectories (key: the symbol, a,
the horizon, N and the seed's nonzero nodes) fetch their operator halves from
one cache, _table.  A key holds what its table reads and no more: the bits of
the floats (so 0.0 and -0.0 stay apart) and the counts.
Every table takes one form, chosen from its size alone: one that fits a
block (_BLOCK_ENTRIES entries) is built whole at once, a larger one block by
block as it is read.  A key's first call builds for itself and leaves a
mark of the key; its second keeps the table, read-only, where _freeze counts
it within _TABLE_BYTES, and later calls read it.  A key whose table does
not fit (one built as it is read counts as unbounded) is marked as never
kept, and its later calls build for themselves with no count.  The tables
hold at most _TABLE_BYTES in all, the least recently used going first.  A
kept table gives the bits of a freshly built one, and nothing in it depends
on the samples.  The Fourier transport (fourier) keeps its twiddles and
weights in the same cache, under keys of its own and in arrays of its own.
_Tables counts its traffic: keys seen a first and a second time, hits, keys
marked as never kept and evictions.
"""

from __future__ import annotations

import array
import bisect
import cmath
import collections
import math
import numbers
import struct
import sys
import types
from dataclasses import dataclass

import numpy as np

# Guard: matrix entries and kernel inner products grow like e^{a |Im d|};
# reject exponents beyond this before exp() can overflow or drown precision.
# A squared quantity takes e^600, which leaves e^(log DBL_MAX - 600) ~ e^109.8
# for the factor pi/(a |c|) (sum|v|)^2 that multiplies it in a closed pairing.
OVERFLOW_EXPONENT = 300.0

# Largest a |Re z| a sinc kernel evaluates: 2^511, half of 2^512 = sqrt(2^max_exp),
# where _cardinal's complex route overflows its squares (a Re(z - x_k))^2.
_REAL_RANGE = 2.0 ** (sys.float_info.max_exp // 2 - 1)

# Largest node spacing pi/a (every norm's and pairing's Parseval factor): 2^128, so an orbit's
# pi/(a |c^n|), with 1/|c^n| <= e^600 by the squared orbit guard, stays below 2^994.
_SPACING_RANGE = 2.0 ** (sys.float_info.max_exp // 8)

# Largest closed-pairing factor pi/(a |c1|): 2^1023, the largest power of two in the float
# range, so the factor is finite (an orbit's pi/(a |c^n|) stays below 2^994: _SPACING_RANGE).
_PAIRING_RANGE = 2.0 ** (sys.float_info.max_exp - 1)

# The one seed of the package's pinned draws: the acceptance checks, the
# section norm's two Lanczos starts and pwlab's default --seed for probes.
DEFAULT_SEED = 0x50572024

# Entries per block of the cardinal-series kernel (a few real 8-byte
# temporaries each), whatever the window width or the number of targets.
_BLOCK_ENTRIES = 1 << 18

# The one memory budget: every guard of an allocation (_guard_size, _count)
# passes its entry count and its call's peak bytes per entry, measured with
# tracemalloc on numpy 2.4, and raises before allocating where they pass
# _MAX_BYTES less _WORKSPACE.  _WORKSPACE is what a call takes at any size:
# the blocks of _cardinal and _coset_sum peak at about 7.2 MiB (29 bytes a
# block entry), the cache of operator tables holds at most _TABLE_BYTES (8
# bytes a block entry), and the rest of the 64 bytes a block entry covers the
# few arrays of one entry per row that the counts leave out.
_MAX_BYTES = 1 << 30
_WORKSPACE = 64 * _BLOCK_ENTRIES
_TABLE_BYTES = 8 * _BLOCK_ENTRIES


class _Tables(collections.OrderedDict):
    """The one cache of operator tables (_table): key -> (table, its bytes), least recently used first."""

    held = 0  # the bytes of all the tables
    # its traffic (_table): keys seen a first and a second time, calls that fetch a kept table, keys marked as
    # never kept, and entries (tables or marks) that went to make room
    first = second = hits = never = evicted = 0

    def keep(self, key, table, size: int) -> None:
        """Hold table at key in place of what it held, the least recently used going first, so that held stays
        within _TABLE_BYTES; a table past _TABLE_BYTES itself is not held."""
        old = self.pop(key, None)
        if old is not None:
            self.held -= old[1]
        if size <= _TABLE_BYTES:
            while self.held + size > _TABLE_BYTES:
                self.held -= self.popitem(last=False)[1][1]
                self.evicted += 1
            self[key] = table, size
            self.held += size


_TABLES = _Tables()
_SEEN = object()  # the mark _table holds for a key seen once
_NEVER = object()  # the mark _table holds for a key whose table _freeze counts past _TABLE_BYTES
_SEEN_BYTES = 512  # a mark: its key and entry (about 200 bytes by sys.getsizeof) and the links of its place

# The one cap on work, for counts that loop rather than allocate: the radius and
# witness horizons (one section or kernel pair per n, 8 bytes of output each) and
# the doubling-time bound of expansivity_certificate.
_MAX_HORIZON = 1 << 22

# Most products (of two samples) that _convolve sums directly, over all the
# rows of one call; past it the FFT, whose calls cost about 10 us each whatever
# their length up to ~500.  Fitted on a timing sweep of both engines (numpy 2.4
# on a 2-core x86 VM) with the cross-correlation's FFT at power-of-two lengths:
# cross-correlations with half widths 0..512 came within about 1 % of the faster
# engine's total time at 2^17 (2^16: 3 %, 2^18: 6 %), and _coset_sum on
# _FFT_COST's sweep within about 3 % (2^16: 3 %, 2^18: 4 %; one coset's terms
# alone against 2^17: 9 %).  Every FFT runs at _fft_length, never longer than
# that power of two and up to half as long, and the fit was not repeated there.
# On either side of the bound the engines stay within about 12 % (same VM):
# 257 x 257 (66049 products) sums directly in 42 us against 46 us by FFT, and
# 33 x 4097 (135201 products) takes the FFT's 214 us against the direct sum's
# 188 us.
_DIRECT_TERMS = 1 << 17

# The 5-smooth lengths 2^i 3^j 5^k up to 2^40 in order, for _fft_length; no
# convolution that fits in memory is longer.
_FFT_LENGTHS = array.array("q", sorted(
    p * 5**k
    for p in (2**i * 3**j for i in range(41) for j in range(26) if 2**i * 3**j <= 1 << 40)
    for k in range(18)
    if p * 5**k <= 1 << 40
))

# compose_apply's cost model: the time of one of the nfft log2 nfft units
# of a convolved coset, in cardinal-series entries, nfft = _fft_length as
# _convolve runs it.  Fitted on a timing sweep of both routes with every
# coset on the FFT engine (c in {1, -1/2, 1/4, -3/4, 1/32}, real and complex
# d, N = 2..256; numpy 2.4 on a 2-core x86 VM): 0.5 came within 1-2 % of the
# faster route's total time, any value in 0.35..1 within 3 %.  The model
# times the FFT engine; the direct engine (_DIRECT_TERMS) makes most short
# cosets cheaper.  Re-timed on the same sweep (1/8 and -1 added) with each
# coset call on its faster engine, the gate's routes came within 1 % of the
# faster route's total time.  That timing counted the direct engine's products
# over all cosets, where _convolve counts them per block of rows; it was not
# repeated.
_FFT_COST = 0.5


class PwLabError(Exception):
    """Base class for all library errors."""


class AdmissibilityError(PwLabError, ValueError):
    """Symbol parameters outside c real, 0 < |c| <= 1."""


class BandwidthMismatchError(PwLabError, ValueError):
    """Operands live in different PW_a spaces."""


class OverflowGuardError(PwLabError, ValueError):
    """Requested configuration would exceed the floating-point range."""


class AliasingError(PwLabError, ValueError):
    """Grid too coarse to hold the function: the transform would alias."""


def _bandwidth(a) -> float:
    """The one bandwidth check: a as a float, ValueError unless 0 < a < inf, OverflowGuardError
    where pi/a passes _SPACING_RANGE."""
    a = float(a)
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"bandwidth must be positive and finite, got {a!r}")
    _guard_exponent(math.pi / a, "node spacing pi/a", _SPACING_RANGE)
    return a


def _guard_exponent(value: float, what: str, limit: float = OVERFLOW_EXPONENT) -> float:
    """Return the exponent value, or raise OverflowGuardError once it passes limit.

    The one range guard of the package: kernel norms, pairings, sections,
    closed norms, weights and orbits hand the exponent they evaluate here
    before exp() can overflow or drown precision.  Squared quantities pass
    limit = 2 OVERFLOW_EXPONENT.
    """
    if value > limit:
        # repr round-trips, so a value just past the limit never prints equal to it
        raise OverflowGuardError(f"{what} {float(value)!r} > {limit:g}")
    return value


def _guard_size(size, what: str, per_entry: int | None = None) -> None:
    """Raise OverflowGuardError, before anything is allocated, where size passes its cap.

    With per_entry, size entries of per_entry bytes each may not pass the memory
    budget _MAX_BYTES less _WORKSPACE, and the message gives the bytes; without,
    size counts steps of work and may not pass _MAX_HORIZON.
    """
    if per_entry is None and size > _MAX_HORIZON:
        raise OverflowGuardError(f"{what} {size:.3g} > {_MAX_HORIZON}")
    if per_entry is not None and size * per_entry > _MAX_BYTES - _WORKSPACE:
        raise OverflowGuardError(f"{what} {size:.3g}: {size * per_entry + _WORKSPACE:.3g} bytes > budget {_MAX_BYTES}")


def _count(value, what: str, least: int = 0, per_entry: int | None = None) -> int:
    """value as an int: the package's one check of a count (half width, horizon, grid size, order, index).

    ValueError naming what unless value is an integer (numbers.Integral) >= least;
    with per_entry, OverflowGuardError (_guard_size) past the memory budget at
    per_entry bytes per unit of value.  A count of work passes _guard_size itself.
    """
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    if per_entry is not None:
        _guard_size(value, what, per_entry)
    return int(value)


def _same_bandwidth(a: float, b: float) -> None:
    """BandwidthMismatchError unless two operands live in the same PW_a."""
    if a != b:
        raise BandwidthMismatchError(f"bandwidths differ: {a} vs {b}")


def _bits(phi: AffineSymbol, a: float) -> bytes:
    """The bits of c, d and a, for a table key: 0.0 and -0.0 differ, as they may in what the tables compute."""
    return struct.pack("4d", phi.c, phi.d.real, phi.d.imag, a)


def _table(key, build, once=None):
    """The operator half of a kernel at key (a sinc kernel's here, the Fourier transport's in fourier), from the one
    cache of such tables, or built for this call by once() (build() where once is None).

    A key's first call builds for itself and leaves a mark of the key.  A
    second call while the mark is held builds the table by build(), makes its
    arrays read-only, counts its bytes (_freeze) and keeps it where they fit
    within _TABLE_BYTES; later calls fetch it.  Where they do not (a table
    built block by block as it is read counts as unbounded), the key is
    marked as never kept, and its later calls build for themselves with no
    count.  So a key that no call asks for again costs its mark alone, and no
    key builds by build() more than once while it is held.  The key held is
    key with _BLOCK_ENTRIES appended, so a table cut into blocks at one size
    is never fetched at another, whose blocks would sum in another order.  A
    call raises whatever build or once raises.
    """
    key += (_BLOCK_ENTRIES,)  # the block size the table's blocks were cut at
    tables = _TABLES
    entry = tables.get(key)
    if entry is None or entry[0] is _NEVER:
        table = (once or build)()
        tables.first += entry is None
        tables.keep(key, _SEEN if entry is None else _NEVER, _SEEN_BYTES)
    elif entry[0] is _SEEN:
        table = build()
        size = _freeze((key, table))
        tables.second += 1
        if size <= _TABLE_BYTES:
            tables.keep(key, table, size)
        else:
            tables.never += 1
            tables.keep(key, _NEVER, _SEEN_BYTES)
    else:
        tables.hits += 1
        tables.move_to_end(key)
        table = entry[0]
    return table


def _freeze(table) -> float:
    """Make the arrays of a table (nested tuples) read-only; return the bytes of its objects (sys.getsizeof, and
    the data a view holds), or inf for a table that builds its blocks as they are read."""
    size, items = 0, [table]
    while items:
        item = items.pop()
        size += sys.getsizeof(item)
        kind = type(item)
        if kind is types.GeneratorType:
            return math.inf
        if kind is tuple:
            items.extend(item)
        elif kind is np.ndarray:
            item.setflags(write=False)
            if item.base is not None:
                size += item.nbytes
    return size


def _guard_points(a: float, z, what: str) -> None:
    """Guard the points z (a complex array) a sinc kernel is about to evaluate.

    Each kernel guards its own targets (_cardinal, _coset_sum, kernel_eval,
    kernel_norm_sq); no caller guards for it.  a |Im z| passes
    _guard_exponent under the name what.  a |Re z| may not pass _REAL_RANGE =
    2^511, half of where _cardinal's complex route overflows its squares, so a
    window's nodes fit in the margin; its real route squares nothing.  A NaN
    point raises ValueError; an infinite one fails the guard.
    """
    re, im = np.abs(z.real).max(initial=0.0), np.abs(z.imag).max(initial=0.0)
    if math.isnan(re) or math.isnan(im):
        raise ValueError("evaluation points must not be NaN")
    a = float(a)
    _guard_exponent(a * float(im), what)
    _guard_exponent(a * float(re), "evaluation range a |Re z|", _REAL_RANGE)


def _sinc(u):
    """sin(u)/u for real or complex u, stable near 0: the package's one array sinc.

    One masked division takes sin(u)/u where |u| >= 1e-4.  The entries with
    |u| < 1e-4, if any, take the degree-6 Taylor polynomial in s = -u^2,
    1 + s/6 (1 + s/20 (1 + s/42)); the first dropped term is u^8/9! <
    1e-32/362880, far below double rounding.  The polynomial sees only the
    small u, so a large u cannot overflow its cube; and the division never
    sees them, since numpy's complex division forms 1/u, which overflows for
    u = 5e-324j or 1e-310+0j.
    """
    u = np.asarray(u)
    large = np.abs(u) >= 1e-4
    out = np.empty_like(u, dtype=np.result_type(u, 1.0))
    np.divide(np.sin(u), u, out=out, where=large)
    if not large.all():
        small = ~large
        t = u[small]
        s = -(t * t)
        out[small] = 1.0 + s / 6.0 * (1.0 + s / 20.0 * (1.0 + s / 42.0))
    return out


@dataclass(frozen=True)
class AffineSymbol:
    """phi(z) = c z + d with c real, 0 < |c| <= 1 (the bounded-composition range)."""

    c: float
    d: complex

    def __post_init__(self):
        c = self.c
        if isinstance(c, complex):
            if c.imag != 0.0:
                raise AdmissibilityError(f"c must be real, got {c!r}")
            c = c.real
        c = float(c)
        if not math.isfinite(c) or not (0.0 < abs(c) <= 1.0):
            raise AdmissibilityError(
                f"need 0 < |c| <= 1 for boundedness on PW_a, got c={c!r}"
            )
        d = complex(self.d)
        if not (math.isfinite(d.real) and math.isfinite(d.imag)):
            raise AdmissibilityError(f"d must be finite, got {d!r}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __call__(self, z):
        if np.ndim(z) == 0:
            return self.c * complex(z) + self.d
        return self.c * np.asarray(z) + self.d

    def iterate(self, n: int) -> "AffineSymbol":
        """The n-fold composition phi o ... o phi: the row (c^n, d_n) of _iterate_table, in its bits."""
        (cn,), (dn,) = _iterate_table(self.c, self.d, (_count(n, "iterate order"),))
        return AffineSymbol(cn, dn)

    def fixed_point(self) -> complex:
        """alpha = d/(1-c), defined only when c != 1."""
        if self.c == 1.0:
            raise ValueError("translation symbols (c = 1) have no fixed point")
        return self.d / (1.0 - self.c)


def _iterate_table(c: float, d: complex, orders) -> tuple[list, list]:
    """(c^n, d_n) of the n-fold compositions of z -> c z + d, one entry per n >= 0 in orders.

    d_n = n d when c = 1, else d (1 - c^n)/(1 - c), in Python arithmetic (c ** n: np.power
    differs in the last bit); a d_n past the float range raises AdmissibilityError.
    """
    if c == 1.0:
        cn, dn = [1.0] * len(orders), [n * d if n else 0j for n in orders]
    else:
        cn = [c ** n for n in orders]
        dn = [d * (1.0 - x) / (1.0 - c) if n else 0j for n, x in zip(orders, cn)]
    if not all(map(cmath.isfinite, dn)):
        raise AdmissibilityError(f"d must be finite, got {next(z for z in dn if not cmath.isfinite(z))!r}")
    return cn, dn


def grid(a: float, half_width: int) -> np.ndarray:
    """Sampling nodes x_n = n pi / a for n = -half_width .. half_width."""
    _bandwidth(a)
    n = _count(half_width, "window half width", per_entry=2 * 16)  # 16 bytes a node at the peak
    return np.arange(-n, n + 1) * (math.pi / a)


@dataclass(frozen=True, eq=False)
class PwFunction:
    """A PW_a element given by its node samples on |n| <= N.

    samples[j] = f(x_{j-N}) with x_n = n pi / a.  The window is part of the
    data: operations that move mass past the window edge accept a target
    window (see compose_apply).
    """

    a: float
    samples: np.ndarray

    def __post_init__(self):
        a = _bandwidth(self.a)
        v = np.asarray(self.samples, dtype=np.complex128).copy()
        if v.ndim != 1 or v.size % 2 == 0:
            raise ValueError("samples must be a 1-d array of odd length 2N+1")
        if not np.all(np.isfinite(v)):
            raise ValueError("samples must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "samples", v)

    @property
    def half_width(self) -> int:
        return (self.samples.size - 1) // 2

    def grid(self) -> np.ndarray:
        return grid(self.a, self.half_width)

    def norm(self) -> float:
        """Parseval, sqrt(pi/a) ||v||, with _norm's range rule."""
        return _norm(self.samples, math.pi / self.a)


def _norm(v, weight: float) -> float:
    """sqrt(weight) ||v||, or OverflowGuardError past the float range (PwFunction's and L2Function's norm); where
    a nonzero v's sum of squares leaves the normal range, it is summed again on v / 2^i, i the binary exponent of
    its largest real or imaginary part, exactly, and sqrt(weight) times that norm is scaled back by 2^i, so a
    weight below 1 brings a norm past the float range back in range, and subnormal samples give their norm to
    subnormal rounding."""
    with np.errstate(over="ignore"):
        root = float(np.linalg.norm(v))
    if math.sqrt(sys.float_info.min) <= root < math.inf or not v.any():
        return _guard_exponent(math.sqrt(weight) * root, "norm", sys.float_info.max)
    i = math.frexp(float(np.abs(v.view(float)).max()))[1]
    part = math.sqrt(weight) * float(np.linalg.norm(np.ldexp(v.view(float), -i)))
    try:
        root = math.ldexp(part, i)
    except OverflowError:
        root = math.inf
    return _guard_exponent(root, "norm", sys.float_info.max)


def _in_range(form, v, w) -> complex:
    """form(v, w), a sum linear in v and conjugate-linear in w, or OverflowGuardError past the float range; a value
    that is not finite is formed again on v / 2^i and w / 2^j, i and j the binary exponents of max|v| and max|w|,
    and scaled back by 2^(i + j), exactly, so products that cancel exactly give 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        val = form(v, w)
    if cmath.isfinite(val):
        return val
    i, j = (math.frexp(float(np.abs(x.view(float)).max()))[1] for x in (v, w))
    val = form(np.ldexp(v.view(float), -i).view(complex), np.ldexp(w.view(float), -j).view(complex))
    top = max(abs(val.real), abs(val.imag))
    if not cmath.isfinite(val) or top and math.frexp(top)[1] + i + j > sys.float_info.max_exp:
        raise OverflowGuardError(f"inner product {val!r} x 2^{i + j} passes the float range")
    return complex(math.ldexp(val.real, i + j), math.ldexp(val.imag, i + j))


def kernel_eval(a: float, w: complex, z) -> complex | np.ndarray:
    """k_w(z) = (a/pi) sinc(a (z - conj(w))) with sinc(u) = sin(u)/u; before anything is allocated, the points pass
    the memory budget at 73 bytes each, the peak of PwFunction(a, kernel_eval(a, w, grid(a, N))) with its grid."""
    _guard_size(np.size(z), "kernel points", 73)
    _bandwidth(a)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or inf - inf fails the guard below
        diff = np.asarray(z, dtype=np.complex128) - np.conj(w)
    _guard_points(a, diff, "kernel exponent a |Im(z - conj w)|")
    val = (a / math.pi) * _sinc(a * diff)
    return complex(val) if np.ndim(z) == 0 else val


def kernel_norm_sq(a: float, w: complex) -> float:
    """||k_w||^2 = (a/pi) sinh(2 a Im w)/(2 a Im w), continuous through Im w = 0."""
    _bandwidth(a)
    _guard_points(2.0 * a, np.array(complex(w)), "kernel exponent 2 a |Im w|")
    y = 2.0 * a * complex(w).imag
    return (a / math.pi) * (math.sinh(y) / y if y else 1.0)


def pw_eval(f: PwFunction, z):
    """Evaluate f anywhere in the plane from its samples by the cardinal series.

    f(z) = sum_k v_k sinc(a (z - x_k)), guarded and summed by _cardinal.  Node
    hits return the stored samples exactly; the rest rounds to O(eps * sum_k
    |v_k| * e^(a |Im z|)).  A sum that is not finite is formed again on v / 2^i,
    i the binary exponent of the samples' largest real or imaginary part, and
    scaled back by 2^i, exactly (_in_range's rule), or OverflowGuardError where
    a value passes the float range.
    """
    a, v, points = f.a, f.samples, np.atleast_1d(np.asarray(z, dtype=np.complex128)).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        out = _cardinal(a, points, v)
    if not np.isfinite(out).all():
        i = math.frexp(float(np.abs(v.view(float)).max()))[1]
        out = _cardinal(a, points, np.ldexp(v.view(float), -i).view(complex)).view(float)
        top = float(np.abs(out).max())
        if not math.isfinite(top) or top and math.frexp(top)[1] + i > sys.float_info.max_exp:
            raise OverflowGuardError(f"cardinal series value {top!r} x 2^{i} passes the float range")
        out = np.ldexp(out, i).view(complex)
    return complex(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def _cardinal(a, z, v, table=None):
    """sum_k v_k sinc(a (z_j - x_k)) over the window |k| <= N of v, for each z_j.

    The one O(len(z) len(v)) sinc-sum kernel of the package: pw_eval (and so
    compose_apply's fallback and probes.spectral_pulse) and both routes of
    _pairings (every closed pairing) sum through it.  table is its operator
    half at z for v's window (_cardinal_table, whose guards run first), and z
    is not read beside it; without one it is built here, block by block.
    With m the node nearest Re z (m = rint(a Re z / pi)) and delta = a (z -
    x_m), formed as a difference so that node hits give delta = 0 exactly,
    every term shares one sine:

        sinc(a (z - x_k)) = (-1)^(m-k) sin(delta) / (a (z - x_k)).

    The column k = m, when it lies in the window, takes sinc(delta)
    directly.  Every other column has |a Re(z - x_k)| >= pi/2 and costs one
    real reciprocal, x = a (Re z - x_k), y = a Im z, summed against (-1)^k v_k
    by real matrix products.  Blocks hold at most _BLOCK_ENTRIES entries, and
    each takes its route from its own targets: a block whose y are all 0
    sums 1/x by one product; a block with any complex target sums 1/(x + iy)
    = (x - iy)/(x^2 + y^2) by two.  A node hit multiplies all far terms by
    sin 0 = 0, so it returns the stored sample exactly; a block of node hits
    alone (all real-d orbits) is the samples, zero off the window.  On either
    route the result rounds to O(eps * sum_k |v_k| * e^(a |Im z_j|)).  The fixed cost
    per call is kept small for the many short calls of the closed pairings:
    (-1)^k v_k negates every other sample of one copy, and a call whose
    targets fit one block returns that block itself.
    """
    n = v.size // 2
    size, blocks = _cardinal_table(a, z, n) if table is None else table
    # (-1)^k v_k as real columns (re, im); k = j - n is odd where j and n differ in parity
    w = v.copy()
    w[1 - n % 2 :: 2] *= -1.0
    w = w.view(float).reshape(-1, 2)
    out = np.zeros(size, dtype=np.complex128)
    for lo, i, col, dx, inv, iy, sine, centre in blocks:
        if dx is None:  # node hits only: the stored samples, zero off the window
            out[lo + i] = v[col]
            continue
        far = (dx @ w).view(complex)[:, 0]
        if inv is not None:
            far = far - iy * (inv @ w).view(complex)[:, 0]
        del dx, inv  # a block built as it is read then frees its reciprocals before the next one is built
        blk = sine * far
        blk[i] += v[col] * centre
        if blk.size == size:  # a single block is the result
            return blk
        out[lo : lo + blk.size] = blk
    return out


def _cardinal_table(a, z, n, sample_bytes=48):
    """_cardinal's operator half at the targets z for the window |k| <= n: its guards, then its blocks.

    _guard_points guards the targets, and the 2n + 1 samples pass the memory
    budget at sample_bytes each: 48 covers pw_eval's peak (tracemalloc), where
    past _BLOCK_ENTRIES samples a block is one row, and while a complex block
    is built the nodes (8), the signed samples (16) and its two rows (16) are
    live.  The table is (the number of targets, its blocks); a block is (its
    first row, the rows i whose node m lies in the window, their columns, then
    None for a block of node hits alone, or its scaled reciprocals x / (x^2 +
    y^2) or 1/x, 1/(x^2 + y^2) or None on the real route, i y or None, the
    sines (-1)^m sin(delta), and sinc(delta) at the rows i).  A single block
    is built now; more are built each as it is read.
    """
    _guard_points(a, z, "evaluation exponent a |Im z|")
    _guard_size(2 * n + 1, "cardinal series samples", sample_bytes)
    x = np.arange(-n, n + 1) * (math.pi / a)  # grid(a, n) without its checks: a is a PwFunction's bandwidth
    rows = max(1, _BLOCK_ENTRIES // x.size)
    if rows >= z.size:  # one block, built now: nothing to resume
        return z.size, (_cardinal_block(a, z, x, 0),)
    return z.size, (_cardinal_block(a, z[lo : lo + rows], x, lo) for lo in range(0, z.size, rows))


def _cardinal_block(a, z, x, lo):
    """One block of _cardinal_table: the targets z from row lo on, against the window's nodes x."""
    n = x.size // 2
    m = np.rint(z.real * (a / math.pi))
    delta = a * (z - m * (math.pi / a))
    i = np.flatnonzero(np.abs(m) <= n)
    col = (m[i] + n).astype(np.intp)
    if not delta.any():
        return lo, i, col, None, None, None, None, None
    y = a * z.imag
    dx = a * (z.real[:, None] - x)
    inv = iy = None
    if y.any():
        inv = dx * dx
        inv += (y * y)[:, None]
        inv[i, col] = np.inf
        np.reciprocal(inv, out=inv)
        dx *= inv
        iy = 1j * y
    else:  # real targets: 1/x itself, one product
        dx[i, col] = np.inf
        np.reciprocal(dx, out=dx)
    sine = np.sin(delta)
    sine[m % 2 == 1] *= -1.0
    return lo, i, col, dx, inv, iy, sine, _sinc(delta[i])


def inner_product(f: PwFunction, g: PwFunction) -> complex:
    """<f, g> = (pi/a) sum_n f(x_n) conj(g(x_n)), windows zero-padded to match, with _in_range's range rule."""
    _same_bandwidth(f.a, g.a)
    n = max(f.half_width, g.half_width)
    v, w = (np.pad(h.samples, n - h.half_width) for h in (f, g))
    return _in_range(lambda v, w: (math.pi / f.a) * complex(np.sum(v * np.conj(w))), v, w)


def scaled(f: PwFunction, factor: complex) -> PwFunction:
    return PwFunction(f.a, factor * f.samples)


def reproduce(f: PwFunction, w: complex) -> complex:
    """f(w) recovered as <f, k_w>, a code path independent of pw_eval."""
    return inner_product(f, PwFunction(f.a, kernel_eval(f.a, w, f.grid())))


def compose_apply(
    phi: AffineSymbol,
    f: PwFunction,
    half_width: int | None = None,
    grow: bool = False,
) -> PwFunction:
    """Samples of f o phi on a target window.

    Default target window equals the input window; grow=True widens it to
    ceil(N/|c|) so that the image of the input nodes stays inside (the
    symbol contracts the plane by c, so the function's mass spreads by 1/c).
    An explicit half_width passes _count.  The wider of the two windows
    passes the memory budget at 192 bytes a sample (_guard_size): either route
    peaks below 170 (c = 1, whose one coset runs an FFT as long as both windows).

    Every float slope is a dyadic rational c = p/q in lowest terms.  With n
    = q m + r the targets a phi(x_n) = pi p m + theta_r, theta_r = a phi(x_r),
    land on q shifted copies of the node lattice, so coset r is the Toeplitz
    product sum_k v_k K_r(p m - k) with K_r(j) = sinc(pi j + theta_r), read
    at stride p (_coset_sum).  It is exact: no quadrature, no truncation.  A
    coset whose targets are nodes is a gather of the stored samples, so the
    identity, reflections and the even outputs of c = +-1/2, d = 0 stay
    bit-exact.  The others are convolutions (_convolve), which round at most
    normwise, to O(eps * ||v|| * ||K_r||).  Slopes whose q cosets cost more
    than the cardinal series go through pw_eval unchanged; each route guards
    its own targets.
    """
    n_out = f.half_width / abs(phi.c) if grow else f.half_width
    if half_width is not None:
        n_out = _count(half_width, "target window half width")
    _guard_size(max(n_out, f.half_width), "target window half width", 2 * 192)
    n_out = math.ceil(n_out)
    out = _coset_sum(phi, f, n_out)
    if out is None:
        out = pw_eval(f, phi(grid(f.a, n_out)))
    return PwFunction(f.a, out)


def _fft_length(size: int) -> int:
    """The smallest 5-smooth length 2^i 3^j 5^k >= size, 1 <= size <= 2^40, on which FFTs run fast."""
    return _FFT_LENGTHS[bisect.bisect_left(_FFT_LENGTHS, size)]


def _convolve(x, y, valid=False):
    """The linear convolution of the 1-d y with x, or with each row of a 2-d x.

    valid keeps only the outputs that every product of the shorter input
    reaches, as np.convolve's 'valid' does.  The package's one convolution
    and its one engine rule: while the products it forms over all rows stay
    within _DIRECT_TERMS, a direct sum, one np.correlate per row against
    conj(y) reversed (np.correlate conjugates it back), rounding per entry;
    past it one FFT at _fft_length(len(x) + len(y) - 1), rounding normwise.
    valid needs only _fft_length of the longer input: the wrap misses every
    output it keeps.
    """
    n1, n2 = x.shape[-1], y.size
    short, long = sorted((n1, n2))
    if (x.size // n1) * ((long - short + 1) * short if valid else n1 * n2) <= _DIRECT_TERMS:
        w, mode = np.conj(y[::-1]), "valid" if valid else "full"
        if x.ndim == 1:
            return np.correlate(x, w, mode)
        return np.array([np.correlate(row, w, mode) for row in x])
    lo, hi = (short - 1, long) if valid else (0, n1 + n2 - 1)
    nfft = _fft_length(long if valid else hi)
    return np.fft.ifft(np.fft.fft(x, nfft) * np.fft.fft(y, nfft))[..., lo:hi]


def _coset_sum(phi, f, n_out):
    """f(phi(x_n)) for |n| <= n_out by one convolution per coset, or None.

    c = p/q exactly (float.as_integer_ratio, the same as Fraction(c)).
    Coset r holds the outputs n = q m + r, m_lo <= m <= m_hi.  Write
    theta_r = a phi(x_r) = pi mu_r + delta_r, with mu_r the nearest node and
    delta_r = a (phi(x_r) - x_{mu_r}) formed as a difference, as in
    _cardinal.  Then every kernel entry shares one sine:

        K_r(j) = (-1)^(j + mu_r) sin(delta_r) / (pi (j + mu_r) + delta_r),

    which at j = -mu_r is sin(delta_r)/delta_r = sinc(delta_r) with no
    special case, as delta_r != 0 there.  A coset with delta_r == 0 is the
    gather v_{p m + mu_r}, zero outside the window.  The others convolve
    the S + 2N + 1 kernel entries, S = |p| (m_hi - m_lo) the spread of s,
    with v (_convolve, 'valid': s = s_lo .. s_lo + S) and are read at s = p
    m.  Kernel rows are built, and convolved, in blocks of at most
    _BLOCK_ENTRIES entries.  Returns None, and the caller sums by _cardinal,
    when there are more cosets than targets or when _FFT_COST * (convolved
    cosets) * nfft log2 nfft, nfft = _fft_length(S + 2N + 1) the FFT length
    of a block, reaches the (2N + 1)(2 n_out + 1) entries of the cardinal
    series.  The q targets phi(x_r) pass _guard_points once formed.

    All but the convolutions is the operator half (_coset_table): the route,
    the gathers and the kernels, fetched by _table under the key (phi, a, N,
    n_out), so that from a key's second call on the applies of one operator
    to many probes share it.
    """
    a, v, n = f.a, f.samples, f.half_width
    p, q = phi.c.as_integer_ratio()
    table = _table(("coset", _bits(phi, a), n, n_out), lambda: _coset_table(phi, a, n, n_out))
    if table is None:
        return None
    m_size, start, gather, kernels = table
    out = np.zeros((q, m_size), dtype=np.complex128)
    if gather is not None:
        row, col, k = gather
        out[row, col] = v[k]
    for r, ker in kernels:
        # s = p m runs over the 'valid' outputs s_lo .. s_lo + S at stride p
        out[r] = _convolve(ker, v, valid=True)[:, ::p]
    return out.T.ravel()[start : start + 2 * n_out + 1]


def _coset_table(phi, a, n, n_out):
    """_coset_sum's operator half for the window |k| <= n, or None for the cardinal series' route.

    The table is (the number of m, the place of output -n_out in the cosets'
    rows read column by column, the gather (coset rows, their columns, the
    sample indices) or None, and the kernel blocks (the cosets r, their kernel
    rows)).  A single block is built now; more are built each as it is read.
    """
    p, q = phi.c.as_integer_ratio()
    if q > 2 * n_out + 1:
        return None
    m_lo, m_hi = -n_out // q, n_out // q
    s_lo = min(p * m_lo, p * m_hi)
    size = abs(p) * (m_hi - m_lo) + 2 * n + 1
    nfft = _fft_length(size)
    z = phi(np.arange(q) * (math.pi / a))
    _guard_points(a, z, "evaluation exponent a |Im z|")
    mu = np.rint(z.real * (a / math.pi))
    delta = a * (z - mu * (math.pi / a))
    if phi.d.imag == 0.0:
        delta = delta.real
    conv = np.flatnonzero(delta)
    if _FFT_COST * conv.size * nfft * math.log2(nfft) >= (2 * n + 1) * (2 * n_out + 1):
        return None
    m = np.arange(m_lo, m_hi + 1)
    gather = None
    if conv.size < q:
        hit = np.flatnonzero(delta == 0)
        k = p * m + mu[hit, None]
        inside = np.abs(k) <= n
        row, col = np.nonzero(inside)
        gather = hit[row], col, (k[inside] + n).astype(np.intp)
    kernels = ()
    if conv.size:
        j = np.arange(s_lo - n, s_lo - n + size)
        # (-1)^(j + mu_r) sin(delta_r): the sines take (-1)^mu_r, the odd j negate their columns
        sine = np.sin(delta)
        sine[mu % 2 == 1] *= -1.0
        odd = (s_lo - n + 1) % 2
        rows = max(1, _BLOCK_ENTRIES // size)
        kernels = (_coset_kernels(conv[lo : lo + rows], j, mu, delta, sine, odd) for lo in range(0, conv.size, rows))
        if rows >= conv.size:  # one block, built now: nothing to resume
            kernels = tuple(kernels)
    return m.size, -n_out - q * m_lo, gather, kernels


def _coset_kernels(r, j, mu, delta, sine, odd):
    """(r, the kernel rows K_r(j) of the cosets r): one block of _coset_table.

    The reciprocal passes the float range at j = -mu_r alone, where |delta_r| <
    1/DBL_MAX (a subnormal delta_r): K_r(-mu_r) = sinc(delta_r) rounds to 1
    there, and every other entry keeps its bits.
    """
    den = np.pi * (j + mu[r, None]) + delta[r, None]
    over = None
    if np.abs(delta[r]).min() < sys.float_info.min:
        with np.errstate(over="ignore"):
            ker = np.reciprocal(den)
        over = np.isinf(ker)
        ker[over] = 0.0
    else:
        ker = np.reciprocal(den)
    ker[:, odd::2] *= -1.0
    ker *= sine[r, None]
    if over is not None:
        ker[over] = 1.0
    return r, ker


def composed_inner_product(
    phi1: AffineSymbol, f: PwFunction, phi2: AffineSymbol, g: PwFunction
) -> complex:
    """<C_phi1 f, C_phi2 g> in closed form, no truncation beyond the samples.

    Order the pair so that |c2| <= |c1|.  Then C_phi1 f = sum_n v_n sinc(a c1
    (t - (x_n - d1)/c1)) is a sum of reproducing kernels of PW_{a|c1|}, a
    space that holds C_phi2 g, and the reproducing property gives

        <C_phi1 f, C_phi2 g> = (pi / (a |c1|)) sum_n v_n conj(g(zeta_n)),
        zeta_n = (c2/c1) x_n + s,   s = d2 - (c2/c1) conj(d1),

    exact for band-limited f, g given by their full sample lists.  The
    ratio c2/c1 has modulus at most 1, so no power of a tiny c overflows or
    underflows.  The other order is the conjugate of the swapped pairing;
    ordering by (|c|, c) puts the positive slope first when c1 = -c2, so
    unequal slopes are Hermitian bit for bit.  The sum is _pairings' with
    one ratio and one shift: equal slopes take its Toeplitz route, unequal
    ones its direct route: nnz(v) (2 N_w + 1) entries, N_w the half width of
    g, guarded at the zeta_n with v_n != 0.  It rounds to O(eps * pi/(a |c1|)
    * sum|v| * sum|w| * e^(a |Im s|)) with v, w the sample vectors, past the float range by
    _in_range.  Used wherever windowed re-sampling would lose mass (orbit norms, defect checks, adjoint pairings).
    """
    _same_bandwidth(f.a, g.a)
    return _in_range(lambda v, w: _closed_pairing(f.a, phi1, v, phi2, w), f.samples, g.samples)


def _closed_pairing(a, phi1, v, phi2, w) -> complex:
    """composed_inner_product's value on the samples v of f and w of g, with no range rule."""
    swap = (abs(phi1.c), phi1.c) < (abs(phi2.c), phi2.c)
    if swap:
        phi1, v, phi2, w = phi2, w, phi1, v
    # in Python floats: a |c1| that underflows to 0 gives an infinite factor, which the guard refuses
    scale = a * abs(phi1.c)
    factor = _guard_exponent(math.pi / scale if scale else math.inf, "pairing factor pi/(a |c1|)", _PAIRING_RANGE)
    ratio = phi2.c / phi1.c
    shift = phi2.d - ratio * phi1.d.conjugate()
    val = complex(_pairings(a, v, w, ratio, np.array([shift]))[0]) * factor
    return val.conjugate() if swap else val


def _pairings(a, v, w, ratio, shift, table=None):
    """sum_n v_n conj(g(ratio_j x_n + shift_j)) for each j, g the cardinal series of w.

    x_n are the nodes of v's window; ratio is one float or an array like the
    1-d array shift.  The input picks the route; both sum by _cardinal:

    * every ratio 1: x_n + s - x_m = s + x_{n-m}, so the double sum depends
      on m - n only: the cardinal series at conj(s_j) of the cross-correlation
      X_k = sum_n v_n conj(w_{n+k}), |k| <= N1 + N2, one convolution of v
      with conj(w) reversed (_convolve), read backwards;
    * otherwise: g at the stacked points ratio_j x_n + s_j of the nodes with
      v_n != 0 alone (a zero sample's term is exactly zero), in one call:
      J nnz(v) (2 N_w + 1) entries for J shifts and w's half width N_w.  The
      J (nnz(v) + 1) points and per-shift arrays pass the memory budget at 64
      bytes each (_guard_size; about 48 a point and 41 a shift at the peak).

    Each entry rounds to O(eps * sum|v| * sum|w| * e^(a |Im s_j|)).  _cardinal
    guards the points it evaluates (a |Im z| = a |Im s_j| on row j for any
    nonzero v, a |Re z| at those nodes alone); all-zero v gives exact zeros.
    Either route builds its operator half (_pairing_table), and so guards
    its points or the cross-correlation's samples, before it contracts; table
    is that half when the caller holds it (orbit_norms, a pseudotrajectory's
    lag table), and ratio is not read beside it.
    """
    nz, table = _pairing_table(a, v, w.size // 2, ratio, shift) if table is None else table
    if nz is None:
        return _cardinal(a, None, _convolve(v, np.conj(w[::-1]))[::-1], table)
    return np.conj(_cardinal(a, None, w, table).reshape(shift.size, -1)) @ v[nz]


def _pairing_table(a, v, n, ratio, shift):
    """_pairings' operator half for v's window and nonzero nodes against a window |k| <= n of w.

    On the Toeplitz route (None, _toeplitz_table); on the direct route (the
    indices of v's nonzero samples, _cardinal_table at their points ratio_j
    x_m + s_j), after the points pass the memory budget.
    """
    # a single ratio is a Python float: compare it without numpy's overhead
    if (ratio == 1.0) if isinstance(ratio, float) else np.all(ratio == 1.0):
        return None, _toeplitz_table(a, shift, v.size // 2 + n)
    nz = np.flatnonzero(v)
    _guard_size(shift.size * (nz.size + 1), "pairing points", 64)
    points = np.multiply.outer(ratio, grid(a, v.size // 2)[nz]) + shift[:, None]
    return nz, _cardinal_table(a, points.ravel(), n)


def _toeplitz_table(a, shift, n):
    """_pairings' Toeplitz route's operator half: _cardinal_table at the points conj(shift_j) for the cross-correlation
    of half width n, whose samples pass the memory budget at 80 bytes each (about 56 at the peak, tracemalloc: the
    FFT output that holds them (16), the signed copy (16), the nodes (8) and one row's two reciprocals (16))."""
    return _cardinal_table(a, np.conj(shift), n, 80)


def _rounding_bound(a, c, y, v):
    """B = eps pi/(a |c|) (sum|v|)^2 e^(2a |y|): the closed-pairing square ||C_phi f||^2 rounds to O(B).

    phi = (c, d), y = Im d and v the samples of f; c and y may be arrays over an orbit.
    """
    return math.ulp(1.0) * math.pi / (a * np.abs(c)) * np.sum(np.abs(v)) ** 2 * np.exp(2.0 * a * np.abs(y))


def _guard_square(square, a, c, y, v):
    """Raise OverflowGuardError where a closed-pairing square ||C_phi f||^2 of a nonzero f is <= 0 or not finite.

    square, c and y = Im d are one pairing's, or arrays over an orbit's n = 1,
    2, ... whose first lost n the message names.  A square rounds to O(B)
    (_rounding_bound), so one <= 0 has lost every digit; the message ends with B.
    One that is not finite overflowed the float range, which the exponent guards
    leave to the samples' scale sum|v|.
    """
    lost = np.flatnonzero(np.less_equal(square, 0.0) | ~np.isfinite(square))
    if lost.size and np.any(v):
        n = int(lost[0])
        with np.errstate(over="ignore"):  # a square past the float range has its bound past it too
            bound = _rounding_bound(a, np.ravel(c)[n], np.ravel(y)[n], v)
        at, sub, power = (f" at n = {n + 1}", "_n", "^n") if np.ndim(square) else ("", "", "")
        raise OverflowGuardError(
            f"squared norm{at} rounds to {float(np.ravel(square)[n])!r}, outside (0, inf); its rounding bound "
            f"B{sub} = eps pi/(a |c{power}|) (sum|v|)^2 e^(2a |Im d{sub}|) is {bound:.3e}")


def composed_norm(phi: AffineSymbol, f: PwFunction) -> float:
    """||C_phi f|| via the closed pairing form; a square lost to rounding raises (_guard_square)."""
    square = _closed_pairing(f.a, phi, f.samples, phi, f.samples).real
    _guard_square(square, f.a, phi.c, phi.d.imag, f.samples)
    return math.sqrt(max(square, 0.0))
