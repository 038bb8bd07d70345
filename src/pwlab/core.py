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
independent) and compose_apply's coset FFT goes through one cardinal-series
kernel, _cardinal, at O(N_in N_out): evaluation, the closed pairings and
the probes' spectral_pulse alike.  A block of targets on the real axis sums
1/(a(z - x_k)) by one real product, a block with any complex target by two;
both round alike.  The coset FFT: every float slope is a dyadic rational
c = p/q, and with n = q m + r the targets a phi(x_n) =
pi p m + a phi(x_r) fall on q shifted copies of the node lattice, so each
coset r is the exact Toeplitz product sum_k v_k sinc(pi (p m - k) +
a phi(x_r)): one FFT convolution read at stride p.  Its rounding is
normwise, O(eps ||v|| ||K||), not per entry; cosets whose targets are
nodes are gathers of the samples and stay exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Guard: matrix entries and kernel inner products grow like e^{a |Im d|};
# reject exponents beyond this before exp() can overflow or drown precision.
OVERFLOW_EXPONENT = 300.0

# Largest target window half width compose_apply builds.  A window holds
# 2N+1 complex samples, and its grid, targets and samples take a few such
# arrays, so this caps them at tens of megabytes; the widest window in use
# (C12's grown chain, N = 8192) is 128 times smaller.  A grown window N/|c|
# passes it for |c| < N / 2^20, long before its arrays stop fitting in memory.
_MAX_HALF_WIDTH = 1 << 20

# Entries per block of the cardinal-series kernel (a few real 8-byte
# temporaries each), whatever the window width or the number of targets.
_BLOCK_ENTRIES = 1 << 18

# compose_apply's cost model: the time of one of the nfft log2 nfft units
# of a convolved coset, in cardinal-series entries.  Fitted on a timing
# sweep of both routes (c in {1, -1/2, 1/4, -3/4, 1/32}, real and complex d,
# N = 2..256; numpy 2.4 on a 2-core x86 VM): any value in 0.25..1 came
# within 2 % of the faster route's total time, 0.5 closest per call.
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


class ConvergenceError(PwLabError, RuntimeError):
    """Iterative solver did not reach tolerance; carries the last iterate."""

    def __init__(self, message: str, estimate: float, residual: float):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual


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


def _guard_points(a: float, z, what: str) -> None:
    """Guard the points z (a complex array) a sinc kernel is about to evaluate.

    Each kernel guards its own targets (_cardinal, _coset_sum, kernel_eval,
    kernel_norm_sq); no caller guards for it.  a |Im z| passes
    _guard_exponent under the name what.  a |Re z| may not pass 2^511, half
    of where _cardinal's complex route overflows its squares (a Re(z -
    x_k))^2, so a window's nodes fit in the margin; its real route squares
    nothing.  A NaN point raises ValueError; an infinite one fails the guard.
    """
    re, im = np.abs(z.real).max(initial=0.0), np.abs(z.imag).max(initial=0.0)
    if math.isnan(re) or math.isnan(im):
        raise ValueError("evaluation points must not be NaN")
    a = float(a)
    _guard_exponent(a * float(im), what)
    _guard_exponent(a * float(re), "evaluation range a |Re z|", 2.0**511)


def _sinc(u):
    """sin(u)/u for real or complex u, stable near 0: the package's one array sinc.

    |u| < 1e-4 switches to the degree-6 Taylor polynomial in s = -u^2,
    1 + s/6 (1 + s/20 (1 + s/42)); the first dropped term is u^8/9! <
    1e-32/362880, far below double rounding.  The polynomial sees only the
    small u, so a large u cannot overflow its cube.
    """
    u = np.asarray(u)
    small = np.abs(u) < 1e-4
    u_safe = np.where(small, 1.0, u)
    out = np.sin(u_safe) / u_safe
    u = np.where(small, u, 0.0)
    s = -(u * u)
    series = 1.0 + s / 6.0 * (1.0 + s / 20.0 * (1.0 + s / 42.0))
    return np.where(small, series, out)


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

    @property
    def is_identity(self) -> bool:
        return self.c == 1.0 and self.d == 0.0

    def iterate(self, n: int) -> "AffineSymbol":
        """The n-fold composition phi o ... o phi, in closed form (_iterate_parts)."""
        if n < 0 or n != int(n):
            raise ValueError("iterate order must be a nonnegative integer")
        return AffineSymbol(*_iterate_parts(self.c, self.d, int(n)))

    def fixed_point(self) -> complex:
        """alpha = d/(1-c), defined only when c != 1."""
        if self.c == 1.0:
            raise ValueError("translation symbols (c = 1) have no fixed point")
        return self.d / (1.0 - self.c)


def _iterate_parts(c: float, d: complex, n: int) -> tuple[float, complex]:
    """(c^n, d_n) of the n-fold composition of z -> c z + d, n >= 0.

    d_n = n d when c = 1, else d (1 - c^n)/(1 - c), in Python float and
    complex arithmetic: iterate and the orbit pairings read the same bits,
    and callers that need only the numbers build no AffineSymbol.  A d_n
    past the float range raises AffineSymbol's AdmissibilityError.
    """
    if n == 0:
        return 1.0, 0j
    if c == 1.0:
        cn, dn = 1.0, n * d
    else:
        cn = c ** n
        dn = d * (1.0 - cn) / (1.0 - c)
    if not (math.isfinite(dn.real) and math.isfinite(dn.imag)):
        raise AdmissibilityError(f"d must be finite, got {dn!r}")
    return cn, dn


def grid(a: float, half_width: int) -> np.ndarray:
    """Sampling nodes x_n = n pi / a for n = -half_width .. half_width."""
    n = np.arange(-half_width, half_width + 1)
    return n * (math.pi / a)


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
        a = float(self.a)
        if not (a > 0.0 and math.isfinite(a)):
            raise ValueError(f"bandwidth must be positive and finite, got {a!r}")
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
        # Parseval on the node samples
        return math.sqrt(math.pi / self.a) * float(np.linalg.norm(self.samples))

    def is_zero(self) -> bool:
        return not np.any(self.samples)


@dataclass(frozen=True)
class KernelPoint:
    """The reproducing kernel k_w of PW_a, kept symbolically as (a, w)."""

    a: float
    w: complex

    def norm_sq(self) -> float:
        return kernel_norm_sq(self.a, self.w)

    def to_pw(self, half_width: int) -> PwFunction:
        return PwFunction(self.a, kernel_eval(self.a, self.w, grid(self.a, half_width)))


def kernel_eval(a: float, w: complex, z) -> complex | np.ndarray:
    """k_w(z) = (a/pi) sinc(a (z - conj(w))) with sinc(u) = sin(u)/u."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or inf - inf fails the guard below
        diff = np.asarray(z, dtype=np.complex128) - np.conj(w)
    _guard_points(a, diff, "kernel exponent a |Im(z - conj w)|")
    val = (a / math.pi) * _sinc(a * diff)
    return complex(val) if np.ndim(z) == 0 else val


def kernel_norm_sq(a: float, w: complex) -> float:
    """||k_w||^2 = (a/pi) sinh(2 a Im w)/(2 a Im w), continuous through Im w = 0."""
    _guard_points(2.0 * a, np.array(complex(w)), "kernel exponent 2 a |Im w|")
    y = 2.0 * a * complex(w).imag
    return (a / math.pi) * (math.sinh(y) / y if y else 1.0)


def pw_eval(f: PwFunction, z):
    """Evaluate f anywhere in the plane from its samples by the cardinal series.

    f(z) = sum_k v_k sinc(a (z - x_k)), guarded and summed by _cardinal.  Node
    hits return the stored samples exactly; the rest rounds to O(eps * sum_k
    |v_k| * e^(a |Im z|)).
    """
    out = _cardinal(f.a, np.atleast_1d(np.asarray(z, dtype=np.complex128)).ravel(), f.samples)
    return complex(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def _cardinal(a, z, v):
    """sum_k v_k sinc(a (z_j - x_k)) over the window |k| <= N of v, for each z_j.

    The one O(len(z) len(v)) sinc-sum kernel of the package: pw_eval (and so
    compose_apply's fallback and probes.spectral_pulse) and both routes of
    _pairings (every closed pairing) sum through it, and it guards its own
    targets first (_guard_points).  With m the node nearest Re z (m = rint(a
    Re z / pi)) and delta = a (z - x_m), formed as a difference so that node
    hits give delta = 0 exactly, every term shares one sine:

        sinc(a (z - x_k)) = (-1)^(m-k) sin(delta) / (a (z - x_k)).

    The column k = m, when it lies in the window, takes sinc(delta)
    directly.  Every other column has |a Re(z - x_k)| >= pi/2 and costs one
    real reciprocal, x = a (Re z - x_k), y = a Im z, summed against (-1)^k v_k
    by real matrix products.  Blocks hold at most _BLOCK_ENTRIES entries, and
    each takes its route from its own targets: a block whose y are all 0
    sums 1/x by one product; a block with any complex target sums 1/(x + iy)
    = (x - iy)/(x^2 + y^2) by two.  A node hit multiplies all far terms by
    sin 0 = 0, so it returns the stored sample exactly.  On either route the
    result rounds to O(eps * sum_k |v_k| * e^(a |Im z_j|)).
    """
    _guard_points(a, z, "evaluation exponent a |Im z|")
    n = v.size // 2
    x = grid(a, n)
    # (-1)^k v_k as real columns (re, im)
    w = np.where(np.arange(-n, n + 1) % 2, -v, v).view(float).reshape(-1, 2)
    out = np.empty(z.size, dtype=np.complex128)
    rows = max(1, _BLOCK_ENTRIES // x.size)
    for lo in range(0, z.size, rows):
        z_blk = z[lo : lo + rows]
        m = np.rint(z_blk.real * (a / math.pi))
        delta = a * (z_blk - m * (math.pi / a))
        y = a * z_blk.imag
        dx = a * (z_blk.real[:, None] - x)
        i = np.flatnonzero(np.abs(m) <= n)
        col = (m[i] + n).astype(np.intp)
        if y.any():
            inv = dx * dx
            inv += (y * y)[:, None]
            inv[i, col] = np.inf
            np.reciprocal(inv, out=inv)
            dx *= inv
            far = (dx @ w).view(complex)[:, 0] - 1j * y * (inv @ w).view(complex)[:, 0]
        else:  # real targets: 1/x itself, one product
            dx[i, col] = np.inf
            np.reciprocal(dx, out=dx)
            far = (dx @ w).view(complex)[:, 0]
        blk = np.where(m % 2, -1.0, 1.0) * np.sin(delta) * far
        blk[i] += v[col] * _sinc(delta[i])
        out[lo : lo + rows] = blk
    return out


def inner_product(f: PwFunction, g: PwFunction) -> complex:
    """<f, g> = (pi/a) sum_n f(x_n) conj(g(x_n)), windows zero-padded to match."""
    if f.a != g.a:
        raise BandwidthMismatchError(f"bandwidths differ: {f.a} vs {g.a}")
    nf, ng = f.half_width, g.half_width
    v, w = f.samples, g.samples
    if nf < ng:
        v = np.pad(v, ng - nf)
    elif ng < nf:
        w = np.pad(w, nf - ng)
    return (math.pi / f.a) * complex(np.sum(v * np.conj(w)))


def scaled(f: PwFunction, factor: complex) -> PwFunction:
    return PwFunction(f.a, factor * f.samples)


def lincomb(coeffs, funcs) -> PwFunction:
    """sum_j coeffs[j] * funcs[j], windows zero-padded to the widest one."""
    funcs = list(funcs)
    coeffs = list(coeffs)
    if not funcs:
        raise ValueError("need at least one function")
    if len(coeffs) != len(funcs):
        raise ValueError("coefficient and function counts differ")
    a = funcs[0].a
    if any(g.a != a for g in funcs):
        raise BandwidthMismatchError("lincomb needs a common bandwidth")
    n_out = max(g.half_width for g in funcs)
    acc = np.zeros(2 * n_out + 1, dtype=np.complex128)
    for cf, g in zip(coeffs, funcs):
        acc[n_out - g.half_width : n_out + g.half_width + 1] += cf * g.samples
    return PwFunction(a, acc)


def reproduce(f: PwFunction, w: complex) -> complex:
    """f(w) recovered as <f, k_w>, a code path independent of pw_eval."""
    kp = KernelPoint(f.a, w).to_pw(f.half_width)
    return inner_product(f, kp)


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
    An explicit half_width must be a nonnegative integer, and one past
    _MAX_HALF_WIDTH raises OverflowGuardError.

    Every float slope is a dyadic rational c = p/q in lowest terms.  With n
    = q m + r the targets a phi(x_n) = pi p m + theta_r, theta_r = a phi(x_r),
    land on q shifted copies of the node lattice, so coset r is the Toeplitz
    product sum_k v_k K_r(p m - k) with K_r(j) = sinc(pi j + theta_r), read
    at stride p (_coset_sum).  It is exact: no quadrature, no truncation.  A
    coset whose targets are nodes is a gather of the stored samples, so the
    identity, reflections and the even outputs of c = +-1/2, d = 0 stay
    bit-exact; the others round normwise, to O(eps * ||v|| * ||K_r||) from
    the FFT, not per entry.  Slopes whose q cosets cost more than the
    direct sum go through pw_eval's cardinal series unchanged; each route guards its own targets.
    """
    if half_width is not None:
        if not isinstance(half_width, numbers.Integral) or half_width < 0:
            raise ValueError(f"half_width must be a nonnegative integer, got {half_width!r}")
        n_out = int(half_width)
    else:
        n_out = f.half_width / abs(phi.c) if grow else f.half_width
    if n_out > _MAX_HALF_WIDTH:
        raise OverflowGuardError(f"target window half width {n_out:.3g} > {_MAX_HALF_WIDTH}")
    n_out = math.ceil(n_out)
    out = _coset_sum(phi, f, n_out)
    if out is None:
        out = pw_eval(f, phi(grid(f.a, n_out)))
    return PwFunction(f.a, out)


def _coset_sum(phi, f, n_out):
    """f(phi(x_n)) for |n| <= n_out by one FFT convolution per coset, or None.

    c = p/q exactly (float.as_integer_ratio, the same as Fraction(c)).
    Coset r holds the outputs n = q m + r, m_lo <= m <= m_hi.  Write
    theta_r = a phi(x_r) = pi mu_r + delta_r, with mu_r the nearest node and
    delta_r = a (phi(x_r) - x_{mu_r}) formed as a difference, as in
    _cardinal.  Then every kernel entry shares one sine:

        K_r(j) = (-1)^(j + mu_r) sin(delta_r) / (pi (j + mu_r) + delta_r),

    which at j = -mu_r is sin(delta_r)/delta_r = sinc(delta_r) with no
    special case, as delta_r != 0 there.  A coset with delta_r == 0 is the
    gather v_{p m + mu_r}, zero outside the window.  The others are read at
    s = p m from circular convolutions of length nfft > S + 2N, S the spread
    of s, batched into 2-D FFTs of at most _BLOCK_ENTRIES entries against
    one FFT of v.  Returns None, and the caller sums by _cardinal, when
    there are more cosets than targets or when _FFT_COST * (convolved
    cosets) * nfft log2 nfft reaches the (2N + 1)(2 n_out + 1) entries of
    the direct sum.  The q targets phi(x_r) pass _guard_points once formed.
    """
    a, v, n = f.a, f.samples, f.half_width
    p, q = phi.c.as_integer_ratio()
    if q > 2 * n_out + 1:
        return None
    m_lo, m_hi = -n_out // q, n_out // q
    s_lo = min(p * m_lo, p * m_hi)
    nfft = 1 << (abs(p) * (m_hi - m_lo) + 2 * n).bit_length()
    z = phi(np.arange(q) * (math.pi / a))
    _guard_points(a, z, "evaluation exponent a |Im z|")
    mu = np.rint(z.real * (a / math.pi))
    delta = a * (z - mu * (math.pi / a))
    if phi.d.imag == 0.0:
        delta = delta.real
    conv = np.flatnonzero(delta != 0)
    if _FFT_COST * conv.size * nfft * math.log2(nfft) >= v.size * (2 * n_out + 1):
        return None
    m = np.arange(m_lo, m_hi + 1)
    out = np.zeros((q, m.size), dtype=np.complex128)
    hit = np.flatnonzero(delta == 0)
    if hit.size:
        k = p * m + mu[hit, None]
        inside = np.abs(k) <= n
        row, col = np.nonzero(inside)
        out[hit[row], col] = v[(k[inside] + n).astype(np.intp)]
    if conv.size:
        j = np.arange(s_lo - n, s_lo - n + nfft)
        alt = np.where(j % 2, -1.0, 1.0)
        spectrum = np.fft.fft(v, nfft)
        t = p * m - s_lo + 2 * n
        rows = max(1, _BLOCK_ENTRIES // nfft)
        for lo in range(0, conv.size, rows):
            r = conv[lo : lo + rows]
            w = j + mu[r, None]
            ker = np.reciprocal(np.pi * w + delta[r, None])
            ker *= alt
            ker *= (np.where(mu[r] % 2, -1.0, 1.0) * np.sin(delta[r]))[:, None]
            out[r] = np.fft.ifft(np.fft.fft(ker, axis=1) * spectrum, axis=1)[:, t]
    start = -n_out - q * m_lo
    return out.T.ravel()[start : start + 2 * n_out + 1]


def adjoint_on_kernel(phi: AffineSymbol, point: KernelPoint) -> KernelPoint:
    """C_phi^* k_w = k_{phi(w)}: adjoints act on kernels by point evaluation."""
    return KernelPoint(point.a, phi(point.w))


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
    ones its direct route.  It rounds to O(eps * pi/(a |c1|) * sum|v| *
    sum|w| * e^(a |Im s|)) with v, w the sample vectors.  Used wherever
    windowed re-sampling would lose mass (orbit norms, defect checks, adjoint pairings).
    """
    if f.a != g.a:
        raise BandwidthMismatchError(f"bandwidths differ: {f.a} vs {g.a}")
    swap = (abs(phi1.c), phi1.c) < (abs(phi2.c), phi2.c)
    if swap:
        phi1, f, phi2, g = phi2, g, phi1, f
    ratio = phi2.c / phi1.c
    shift = phi2.d - ratio * phi1.d.conjugate()
    val = complex(_pairings(f.a, f.samples, g.samples, ratio, np.array([shift]))[0])
    val *= math.pi / (f.a * abs(phi1.c))
    return val.conjugate() if swap else val


def _pairings(a, v, w, ratio, shift):
    """sum_n v_n conj(g(ratio_j x_n + shift_j)) for each j, g the cardinal series of w.

    x_n are the nodes of v's window; ratio is one float or an array like the
    1-d array shift.  The input picks the route; both sum by _cardinal:

    * every ratio 1: x_n + s - x_m = s + x_{n-m}, so the double sum depends
      on m - n only: the cardinal series at conj(s_j) of the cross-correlation
      X_k = sum_n v_n conj(w_{n+k}), |k| <= N1 + N2, from one FFT convolution;
    * otherwise: g at the stacked points ratio_j x_n + s_j in one call.

    Each entry rounds to O(eps * sum|v| * sum|w| * e^(a |Im s_j|)).
    """
    # a single ratio is a Python float: compare it without numpy's overhead
    if (ratio == 1.0) if isinstance(ratio, float) else np.all(ratio == 1.0):
        size = v.size + w.size - 1
        nfft = 1 << (size - 1).bit_length()
        # convolution of v with reversed conj(w), read backwards
        xcorr = np.fft.ifft(np.fft.fft(v, nfft) * np.fft.fft(np.conj(w[::-1]), nfft))
        return _cardinal(a, np.conj(shift), xcorr[size - 1 :: -1])
    points = np.multiply.outer(ratio, grid(a, v.size // 2)) + shift[:, None]
    return np.conj(_cardinal(a, points.ravel(), w).reshape(shift.size, -1)) @ v


def _rounding_bound(a, c, y, v):
    """B = eps pi/(a |c|) (sum|v|)^2 e^(2a |y|): the closed-pairing square ||C_phi f||^2 rounds to O(B).

    phi = (c, d), y = Im d and v the samples of f; c and y may be arrays over an orbit.
    """
    return math.ulp(1.0) * math.pi / (a * np.abs(c)) * np.sum(np.abs(v)) ** 2 * np.exp(2.0 * a * np.abs(y))


def _guard_square(square, a, c, y, v):
    """Raise OverflowGuardError where a closed-pairing square ||C_phi f||^2 of a nonzero f is <= 0.

    square, c and y = Im d are one pairing's, or arrays over an orbit's n = 1,
    2, ... whose first lost n the message names.  A square rounds to O(B)
    (_rounding_bound), so one <= 0 has lost every digit; the message ends with B.
    """
    lost = np.flatnonzero(np.less_equal(square, 0.0))
    if lost.size and np.any(v):
        n = int(lost[0])
        bound = _rounding_bound(a, np.ravel(c)[n], np.ravel(y)[n], v)
        at, sub, power = (f" at n = {n + 1}", "_n", "^n") if np.ndim(square) else ("", "", "")
        raise OverflowGuardError(
            f"squared norm{at} rounds to {float(np.ravel(square)[n])!r} <= 0; its rounding bound "
            f"B{sub} = eps pi/(a |c{power}|) (sum|v|)^2 e^(2a |Im d{sub}|) is {bound:.3e}"
        )


def composed_norm(phi: AffineSymbol, f: PwFunction) -> float:
    """||C_phi f|| via the closed pairing form; a square lost to rounding raises (_guard_square)."""
    square = composed_inner_product(phi, f, phi, f).real
    _guard_square(square, f.a, phi.c, phi.d.imag, f.samples)
    return math.sqrt(max(square, 0.0))
