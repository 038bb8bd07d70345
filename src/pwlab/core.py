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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Guard: matrix entries and kernel inner products grow like e^{a |Im d|};
# reject exponents beyond this before exp() can overflow or drown precision.
OVERFLOW_EXPONENT = 300.0

# Chunk size (target points per block) for sinc-matrix evaluation, keeps
# peak memory near chunk * (2N+1) complex entries regardless of request size.
_EVAL_CHUNK = 2048

# Entries per block of the closed pairing's kernel (16 bytes each), whatever
# the window widths or the number of pairings batched together.
_PAIR_CHUNK = 1 << 18


class PwLabError(Exception):
    """Base class for all library errors."""


class AdmissibilityError(PwLabError, ValueError):
    """Symbol parameters outside c real, 0 < |c| <= 1."""


class BandwidthMismatchError(PwLabError, ValueError):
    """Operands live in different PW_a spaces."""


class OverflowGuardError(PwLabError, ValueError):
    """Requested configuration would exceed the floating-point range."""


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
        raise OverflowGuardError(f"{what} {value:.3g} > {limit:g}")
    return value


def _sin_over(u, sign: float):
    """sin(u)/u for sign = -1 and sinh(u)/u for sign = +1, complex u, stable near 0.

    |u| < 1e-4 switches to the degree-6 Taylor polynomial in s = sign u^2,
    1 + s/6 (1 + s/20 (1 + s/42)); the first dropped term is u^8/9! <
    1e-32/362880, far below double rounding.
    """
    u = np.asarray(u)
    small = np.abs(u) < 1e-4
    u_safe = np.where(small, 1.0, u)
    out = (np.sinh if sign > 0 else np.sin)(u_safe) / u_safe
    s = u * u if sign > 0 else -(u * u)
    series = 1.0 + s / 6.0 * (1.0 + s / 20.0 * (1.0 + s / 42.0))
    return np.where(small, series, out)


def _sinc(u):
    """sin(u)/u for complex u, stable near 0."""
    return _sin_over(u, -1.0)


def _sinhc(u):
    """sinh(u)/u for real or complex u, stable near 0 (same branch cut as _sinc)."""
    return _sin_over(u, 1.0)


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
        """The n-fold composition phi o ... o phi, in closed form.

        c^[n] = c^n and d^[n] = n d when c = 1, else d (1 - c^n)/(1 - c).
        """
        if n < 0 or n != int(n):
            raise ValueError("iterate order must be a nonnegative integer")
        n = int(n)
        if n == 0:
            return AffineSymbol(1.0, 0.0)
        if self.c == 1.0:
            return AffineSymbol(1.0, n * self.d)
        cn = self.c ** n
        return AffineSymbol(cn, self.d * (1.0 - cn) / (1.0 - self.c))

    def fixed_point(self) -> complex:
        """alpha = d/(1-c), defined only when c != 1."""
        if self.c == 1.0:
            raise ValueError("translation symbols (c = 1) have no fixed point")
        return self.d / (1.0 - self.c)


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
    u = a * (np.asarray(z, dtype=np.complex128) - np.conj(w))
    val = (a / math.pi) * _sinc(u)
    return complex(val) if np.ndim(z) == 0 else val


def kernel_norm_sq(a: float, w: complex) -> float:
    """||k_w||^2 = (a/pi) sinh(2 a Im w)/(2 a Im w), continuous through Im w = 0."""
    y = 2.0 * a * complex(w).imag
    _guard_exponent(abs(y), "kernel exponent 2 a |Im w|")
    return (a / math.pi) * float(_sinhc(y).real)


def pw_eval(f: PwFunction, z):
    """Evaluate f anywhere in the plane from its samples.

    f(z) = sum_k v_k sinc(a (z - x_k)).  The argument is formed as the
    difference a*(z - x_k), never a*z - a*x_k, so node hits reproduce the
    stored samples exactly.  Evaluation is blocked over target points to
    bound memory.
    """
    z_flat = np.atleast_1d(np.asarray(z, dtype=np.complex128)).ravel()
    x = f.grid()
    v = f.samples
    out = np.empty(z_flat.size, dtype=np.complex128)
    for lo in range(0, z_flat.size, _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, z_flat.size)
        u = f.a * (z_flat[lo:hi, None] - x[None, :])
        out[lo:hi] = _sinc(u) @ v
    if np.ndim(z) == 0:
        return complex(out[0])
    return out.reshape(np.shape(z))


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
    """
    n_out = f.half_width
    if grow:
        n_out = math.ceil(n_out / abs(phi.c))
    if half_width is not None:
        n_out = int(half_width)
    if phi.is_identity:
        # identity composition is a pure window change, keep samples exact
        out = np.zeros(2 * n_out + 1, dtype=np.complex128)
        keep = min(n_out, f.half_width)
        out[n_out - keep : n_out + keep + 1] = f.samples[
            f.half_width - keep : f.half_width + keep + 1
        ]
        return PwFunction(f.a, out)
    x_out = grid(f.a, n_out)
    return PwFunction(f.a, pw_eval(f, phi(x_out)))


def adjoint_on_kernel(phi: AffineSymbol, point: KernelPoint) -> KernelPoint:
    """C_phi^* k_w = k_{phi(w)}: adjoints act on kernels by point evaluation."""
    return KernelPoint(point.a, phi(point.w))


def composed_inner_product(
    phi1: AffineSymbol, f: PwFunction, phi2: AffineSymbol, g: PwFunction
) -> complex:
    """<C_phi1 f, C_phi2 g> in closed form, no truncation beyond the samples.

    Expanding both functions in the sampling series and pushing the symbols
    through the kernel inner products gives

        (pi / (a max(|c1|, |c2|))) * sum_{n,m} v_n conj(w_m) sinc(r kappa_nm),
        r = min(|c1|, |c2|) a,
        kappa_nm = d1/c1 - conj(d2)/c2 - n pi/(a c1) + m pi/(a c2),

    which is exact for band-limited f, g given by their full sample lists.
    r kappa_nm is formed as a (mu/c1 d1 - mu/c2 conj(d2)) - n pi mu/c1 +
    m pi mu/c2 with mu = min(|c1|, |c2|), so no power of a tiny c is ever
    divided by or multiplied with another.  Two routes evaluate the sum:

    * equal slopes (c1 == c2): the kernel depends on m - n only, so the sum
      is one FFT cross-correlation of the samples against 2(N1+N2)+1 sinc
      values (Toeplitz route);
    * unequal slopes: the argument splits as A_n + B_m with A_n complex and
      B_m real, so sin(A_n + B_m) = sin A_n cos B_m + cos A_n sin B_m costs
      O(N1 + N2) transcendental evaluations and one reciprocal per entry;
      entries with |A_n + B_m| < 1 take _sinc directly (separable route).

    Both round to O(eps * pi/(a max|c|) * ||v|| ||w|| * cosh(r |Im shift|))
    with v, w the sample vectors, the same order as the dense double sum.
    Used wherever windowed re-sampling would lose mass (orbit norms, defect
    checks, adjoint pairings).
    """
    if f.a != g.a:
        raise BandwidthMismatchError(f"bandwidths differ: {f.a} vs {g.a}")
    a = f.a
    c1, c2 = phi1.c, phi2.c
    mu = min(abs(c1), abs(c2))
    r_shift = a * (phi1.d * (mu / c1) - np.conj(phi2.d) * (mu / c2))
    _guard_exponent(abs(r_shift.imag), "pairing exponent")
    return complex(_pairing(a, c1, c2, r_shift, f.samples, g.samples))


def _pairing(a, c1, c2, r_shift, v, w):
    """The double sum of composed_inner_product for sample vectors v and w.

    With c1 == c2, c1 and r_shift may be equal-length 1-d arrays: one
    Toeplitz pairing per entry, all sharing the one cross-correlation of v
    and w, and the result has r_shift's shape.  Unequal slopes take scalars.
    Both routes evaluate their sinc values through _sinc_rows.
    """
    n1, n2 = v.size // 2, w.size // 2
    if np.all(c1 == c2):
        # X_k = sum_n v_n conj(w_{n+k}), k = -(N1+N2)..N1+N2, from one FFT
        # convolution of v with reversed conj(w), read backwards
        k = np.arange(-(n1 + n2), n1 + n2 + 1)
        size = 1 << (k.size - 1).bit_length()
        xcorr = np.fft.ifft(np.fft.fft(v, size) * np.fft.fft(np.conj(w[::-1]), size))
        # sinc is even: sinc(r shift + k pi sgn c) = sinc(sgn(c) r shift + k pi)
        offsets = np.atleast_1d(np.sign(c1) * np.asarray(r_shift, dtype=np.complex128))
        out = _sinc_rows(offsets, k * math.pi, xcorr[k.size - 1 :: -1])
        return out.reshape(np.shape(r_shift)) * (math.pi / (a * np.abs(c1)))
    mu = min(abs(c1), abs(c2))
    alpha = r_shift - np.arange(-n1, n1 + 1) * (math.pi * (mu / c1))
    beta = np.arange(-n2, n2 + 1) * (math.pi * (mu / c2))
    return v @ _sinc_rows(alpha, beta, np.conj(w)) * (math.pi / (a * max(abs(c1), abs(c2))))


def _sinc_rows(alpha, beta, weights):
    """sum_m weights_m sinc(alpha_n + beta_m) for each n; alpha complex, beta real.

    sin(A + B) = sin A cos B + cos A sin B needs sin and cos of each alpha_n
    and beta_m only, and 1/(A + B) = (x - iy)/(x^2 + y^2) with x = Re A + B,
    y = Im A one real reciprocal per entry.  Entries with |A + B| < 1, where
    the split would lose the flatness of sinc near 0, take _sinc directly.
    Blocks hold at most _PAIR_CHUNK entries.
    """
    # weights_m (cos B_m, sin B_m) as real columns (re, im, re, im), so that
    # the real blocks below multiply it without a complex copy of the block
    cs = (weights[:, None] * np.stack([np.cos(beta), np.sin(beta)], axis=1)).view(float)
    y = alpha.imag
    out = np.empty(alpha.size, dtype=np.complex128)
    rows = max(1, _PAIR_CHUNK // beta.size)
    for lo in range(0, alpha.size, rows):
        alpha_blk, y_blk = alpha[lo : lo + rows], y[lo : lo + rows, None]
        x = alpha_blk.real[:, None] + beta
        q = x * x + y_blk * y_blk
        i, j = np.divmod(np.flatnonzero(q < 1.0), beta.size)
        near = np.zeros(alpha_blk.size, dtype=np.complex128)
        np.add.at(near, i, _sinc(x[i, j] + 1j * y_blk[i, 0]) * weights[j])
        q[i, j] = np.inf
        inv = 1.0 / q
        kern = ((x * inv) @ cs).view(complex) - 1j * y_blk * (inv @ cs).view(complex)
        out[lo : lo + rows] = np.sin(alpha_blk) * kern[:, 0] + np.cos(alpha_blk) * kern[:, 1] + near
    return out


def composed_norm(phi: AffineSymbol, f: PwFunction) -> float:
    """||C_phi f|| via the closed pairing form."""
    val = composed_inner_product(phi, f, phi, f)
    return math.sqrt(max(val.real, 0.0))
