"""Finite sections, norm estimators, and closed-form spectra.

Numerical estimates here come from one tool only: Lanczos with full
reorthogonalization for the largest singular value of the finite section in
the node basis, certified by an explicit eigen-residual.  It takes no
settings: the tolerance is the constant _TOL and both starts are drawn from
core.DEFAULT_SEED.  A step costs two products with the section, the
reorthogonalization (two products with the basis as stored, no conjugated
copy of it) and O(k) scalar work: the top Ritz pair of the k x k tridiagonal
comes from a Newton solve on its LDL^T pivots, and a dense eigensolver runs
only where a certificate is tested.
The iteration scales its vectors, never the section, by a power of two read
from the section's largest real or imaginary part (no |entry| is formed), and
both starts share one basis grown by doubling rows, so a norm allocates
nothing section-sized; build_matrix reads each row as a window of one of q
short sinc kernels (c = p/q; each row its own kernel where q > N) and hands
its entries over read-only, so OperatorMatrix keeps them without a second
copy.  Spectra and spectral radii are never read off truncated matrices
(truncation spectra of non-normal operators are polluted); they come from the
exact trichotomy on (c, d), and the finite sections serve as the independent
cross-check of the norm and radius formulas.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_SEED,
    AffineSymbol,
    OverflowGuardError,
    _bandwidth,
    _count,
    _guard_exponent,
    _guard_size,
    _iterate_table,
    _sinc,
    kernel_norm_sq,
)

# Lanczos tolerance of the section norm: a start stops once its explicit residual
# ||Hy - theta y|| / theta is at most sqrt(_TOL) = 1e-5.
_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Section T[n, m] = <C_phi e_m, e_n> = sinc(a(phi(x_n) - x_m)), |n|,|m| <= N.

    entries is square with an odd side 2N+1, stored read-only and
    C-contiguous.  An array that is already read-only, C-contiguous and owns
    its data (as build_matrix's are) is kept as it is, so its owner must not
    write it again (through a view taken before, or by setflags); any other
    is copied, so a caller that keeps a writeable array or view cannot change
    the section.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] % 2 == 0:
            raise ValueError(f"entries must be square with an odd side, got shape {e.shape}")
        if e.flags.writeable or not (e.flags.owndata and e.flags.c_contiguous):
            e = e.copy()
            e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def build_matrix(phi: AffineSymbol, a: float, half_width: int) -> OperatorMatrix:
    """Entries sinc(a (phi(x_n) - x_k)), every row a window of one coset kernel.

    With c = p/q (float.as_integer_ratio), n = q m + r (r the residue nearest
    0), mu_r the node nearest Re phi(x_r) and delta_r = a (phi(x_r) -
    x_{mu_r}) formed as a difference, a phi(x_n) = pi (p m + mu_r) + delta_r:

        T[n, k] = K_r(p m - k),  K_r(j) = (-1)^(j + mu_r) sin(delta_r) / (pi (j + mu_r) + delta_r),

    with sinc(delta_r) at j = -mu_r.  _section_kernels tabulates the K_r, one sine per class,
    for a gather of one window per row; where they would hold over half the section (every
    q > N) each row is its own class.  A node class (delta_r = 0) holds sin 0 = 0 off
    sinc(0) = 1, so identity and reflection sections are exact.  Summing no cardinal series,
    the route stays independent of the closed forms C1..C3 hold it against.  The
    (2N+1)^2 entries pass the memory budget, before any allocation, at their peak
    bytes: 16 each on the coset route, 32 where each row is its own class.
    """
    half_width = _count(half_width, "section half width", least=1)
    _bandwidth(a)
    table, row, start = _section_kernels(phi, a, half_width)
    if row is not None:  # the windows of every table row: sliding_window_view's, without its checks
        shape, strides = (len(table), table.shape[1] - len(row) + 1, len(row)), table.strides + table.strides[1:]
        table = np.ndarray(shape, complex, table, 0, strides)[row, start]
    table.setflags(write=False)
    return OperatorMatrix(table)


def _section_kernels(phi: AffineSymbol, a: float, half_width: int):
    """(table, row, start), section row n = table[row[n], start[n] : start[n] + 2N + 1].

    Column i of row r holds K_r(p m - k) at k - p m = i - N - max p m.  Where the q kernels
    would hold more than half the (2N+1)^2 entries (every q > N), they and the gathered
    section outweigh the direct route's two section-sized arrays: each row is its own
    class, and the table is the section.
    """
    (p, q), size = phi.c.as_integer_ratio(), 2 * half_width + 1
    h = (q - 1) // 2
    # in Python integers, so a huge p is never multiplied into an index, and before any array
    coset = 2 * q * (abs(p) * ((half_width + h) // q - (h - half_width) // q) + size) <= size**2
    _guard_size(size**2, f"section of {size} x {size}: entries", 16 if coset else 32)
    _guard_exponent(a * abs(phi.d.imag), "entry magnitude exponent")
    n = np.arange(-half_width, half_width + 1)
    r, shift = (np.arange(-h, q - h), p * ((n + h) // q)) if coset else (n, np.zeros_like(n))
    z = phi(r * (math.pi / a))
    mu = np.rint(z.real * (a / math.pi))
    delta = a * (z - mu * (math.pi / a))
    lo = -half_width - shift.max()
    u = np.subtract.outer(mu * math.pi + delta, np.arange(lo, half_width - shift.min() + 1) * math.pi)
    # the entries j = -mu_r inside the table hold sinc(delta_r), set after the division
    rows = np.flatnonzero((mu >= lo) & (mu < lo + u.shape[1]))
    cols = (mu[rows] - lo).astype(np.intp)
    u[rows, cols] = 1.0
    table = np.outer((1.0 - 2.0 * (mu % 2)) * np.sin(delta), 1.0 - 2.0 * ((lo + np.arange(u.shape[1])) % 2))
    table /= u
    table[rows, cols] = _sinc(delta[rows])
    return (table, n - q * ((n + h) // q) + h, shift.max() - shift) if coset else (table, None, None)


@dataclass(frozen=True)
class NormEstimate:
    """A certified section norm and how the certificate was reached.

    value: the largest singular value (the larger of the two starts).
    steps: Krylov steps taken by each start.  A step is two products with
        the section, A y and A*(A y), the reorthogonalization, and O(k)
        scalar work for the top Ritz pair of the tridiagonal (a Newton solve
        on its LDL^T pivots).
    certificate: the test that stopped the start giving value: "residual"
        (||Hy - theta y|| <= sqrt(_TOL) theta) or "invariant" (the Krylov
        space is invariant under H, so its Ritz values are eigenvalues).
    residual: ||Hy - theta y|| / theta of that start, Hy = A*(A y).
    start_gap: |value_1 - value_2| / value between the two starts.
    """

    value: float
    steps: tuple[int, int]
    certificate: str
    residual: float
    start_gap: float


def _top_ritz(rows: list, theta: float, s2: float) -> tuple[float, float]:
    """Top eigenvalue theta_k of T_k and the square s_k^2 of its eigenvector's last entry.

    rows[i] = (alpha_i, beta_{i-1}^2), beta_{-1} = 0, are the rows of the
    tridiagonal T_k as Python floats; theta, s2 are theta_{k-1}, s_{k-1}^2 of
    T_{k-1}.  One O(k) pass gives the LDL^T pivots of x I - T_k,

        q_i(x) = x - alpha_i - beta_{i-1}^2 / q_{i-1}(x),

    and q_k'(x).  A negative pivot means an eigenvalue above x, so a pass
    tells on which side of theta_k the point x lies.  Above theta_{k-1} only
    q_k can be negative; it is increasing and concave there, with theta_k its
    one root and s_k^2 = 1/q_k'(theta_k).  The search keeps theta_k in the
    bracket [theta_{k-1}, max(theta_{k-1}, alpha_k) + beta_{k-1}] (interlacing,
    then Weyl) and starts at the 2x2 Rayleigh-Ritz value of span{(y_{k-1}, 0),
    e_k}, which lies left of theta_k.  A step is Newton's on (x - theta_{k-1})
    q_k(x), which takes out the pole at theta_{k-1}; one that leaves the
    bracket falls back to Newton's on q_k, then to bisection.  It stops at a
    right point whose Newton step on q_k no longer decreases x (by concavity
    theta_k lies between the two); a left point whose Newton step no longer
    rises probes the next float up.  Each pass after the first lands strictly
    inside the bracket and moves one end onto itself, so the search ends
    with no iteration cap.  A closed bracket returns its lower end, with
    s_k^2 = 0 where no pass there reached q_k (theta_k = theta_{k-1} to
    rounding, as when beta_{k-1} |s_{k-1}| is below an ulp).
    """
    alpha, b2 = rows[-1]
    if len(rows) == 1:
        return alpha, 1.0
    half = 0.5 * (theta - alpha)
    lo, hi, s2_lo = theta, max(theta, alpha) + math.sqrt(b2), 0.0
    x = min(max(theta - half + math.hypot(half, math.sqrt(b2 * s2)), lo), hi)
    while True:
        q, dq = 1.0, 0.0
        for alpha, b2 in rows:
            if q <= 0.0:  # an earlier pivot: theta_k lies above x, q_k is not reached
                lo, s2_lo, step = x, 0.0, hi
                break
            t = b2 / q
            dq = 1.0 + t / q * dq
            q = x - alpha - t
        else:
            newton = x - q / dq
            if q < 0.0:
                lo, s2_lo = x, 1.0 / dq
                if newton <= x:
                    newton = math.nextafter(x, math.inf)
            elif newton >= x:
                return x, 1.0 / dq
            else:
                hi = x
            u = x - theta
            slope = q + u * dq
            step = x - u * q / slope if slope > 0.0 else newton
            if not lo < step < hi:
                step = newton
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                return lo, s2_lo
        x = step


def _lanczos(h, q: np.ndarray, basis: np.ndarray):
    """Top eigenpair of the Hermitian map v -> h(v, out) by fully reorthogonalized Lanczos.

    Returns (theta, residual, steps, certificate, basis), residual the
    explicit relative residual ||h y - theta y|| / theta of the Ritz vector y.
    The Krylov space reaches the dimension of q at the latest, where it is
    invariant, so some certificate always fires.  The Krylov vectors are the
    rows of basis, which starts with one row or more of q's size and is
    grown by doubling its rows as steps are taken (to q.size at most); the
    basis returned serves the next start.  A step costs one h (two products
    with the section in _largest_singular_value), the reorthogonalization
    and O(k) scalar work, and allocates nothing but where the basis grows:
    h writes into a vector of the step's own, and the Gram-Schmidt
    coefficients B* w are read as conj(B conj(w)), two products with the
    basis B as stored, into another.  The top Ritz value theta_k and s_k,
    the last entry of its eigenvector, come from _top_ritz on the alpha_i and
    beta_i kept as Python floats.  The tridiagonal is formed, and one eigh
    gives the Ritz vector y, only where a certificate is tested.  From the
    third step on, a step whose estimate beta_k |s_k| passes sqrt(_TOL) theta
    is checked by the explicit residual, which certifies an eigenvalue of h
    within sqrt(_TOL) theta of theta; a start that no residual test
    certifies runs on to the invariant space.
    """
    dim = q.size
    res_tol = math.sqrt(_TOL)
    basis[0] = q
    w, tmp, coef = np.empty(dim, complex), np.empty(dim, complex), np.empty(dim, complex)
    rows, betas = [], []
    theta = s2 = beta = 0.0

    def explicit(theta):
        k = len(rows)
        tri = np.zeros((k, k))
        tri.flat[:: k + 1] = [alpha for alpha, _ in rows]
        tri.flat[1 :: k + 1] = tri.flat[k :: k + 1] = betas
        y = np.linalg.eigh(tri)[1][:, -1] @ basis[:k]
        hy = h(y, tmp)
        y *= theta
        hy -= y
        return float(np.linalg.norm(hy)) / max(theta, 1e-300)

    for k in range(dim):
        row = basis[k]
        h(row, w)
        alpha = float(np.vdot(row, w).real)
        rows.append((alpha, beta * beta))
        # the three-term recurrence, then one more Gram-Schmidt pass against the basis
        w -= np.multiply(row, alpha, tmp)
        if k:
            w -= np.multiply(basis[k - 1], beta, tmp)
        done, c = basis[: k + 1], coef[: k + 1]
        np.conjugate(np.dot(done, np.conjugate(w, tmp), c), c)
        w -= np.dot(c, done, tmp)
        beta = math.sqrt(np.vdot(w, w).real)
        theta, s2 = _top_ritz(rows, theta, s2)
        if beta == 0.0 or k + 1 == dim:
            return theta, explicit(theta), k + 1, "invariant", basis
        if k >= 2 and beta * math.sqrt(s2) <= res_tol * max(abs(theta), 1e-300):
            residual = explicit(theta)
            if residual <= res_tol:
                return theta, residual, k + 1, "residual", basis
        if k + 1 == len(basis):
            grown = np.empty((min(2 * len(basis), dim), dim), complex)
            grown[: k + 1] = basis
            basis = grown
        np.divide(w, beta, basis[k + 1])
        betas.append(beta)


def _largest_singular_value(mat: np.ndarray) -> NormEstimate:
    """Lanczos on H v = A*(A v) from two random starts, the larger certified value.

    The Krylov dimension is at most the number of columns of A, where
    the space is invariant, so each start certifies.  A second random start
    guards against an unlucky first vector sitting near an invariant
    subspace below the top.  Both starts are drawn from DEFAULT_SEED, so a
    section always takes the same steps to the same value, and they share
    one basis (_lanczos).
    """
    # H = s^2 A*A with s = 2^-e, max(|Re|, |Im|) over the entries in [2^(e-1), 2^e): two
    # reductions over the float view read e, with no |entry| pass.  The section is never scaled:
    # H v = conj(conj(s (A (s v))) A), with A*u = conj(conj(u) A) copying no matrix, and each
    # product is the scaled section's bit for bit wherever s v and s A(s v) stay normal, as they
    # do for every section build_matrix admits.  sA has every entry below sqrt 2 in modulus, so a
    # unit v has |A(s v)| < sqrt(2) dim and |H v| < 2 dim^2.  The iteration is the same, bit for
    # bit, on 4^k H wherever nothing leaves the normal range, so where 0 <= e < max_exp / 8 -
    # bit_length(dim) (A*A below 2^256, the squares of its vectors below 2^512, and the
    # tridiagonal inside the range LAPACK's eigh leaves unscaled) s = 1 and both multiplications
    # go.  Elsewhere e is raised to at least bit_length(dim) + 1 - max_exp, so that s and
    # |s A(s v)| < 2^-e sqrt(2) dim stay finite for any finite section, however small its
    # entries.  A NaN makes both reductions NaN, so the test below does not depend on the
    # argument order of a max
    parts = mat.view(float)
    hi, lo = float(parts.max(initial=0.0)), float(parts.min(initial=0.0))
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise OverflowGuardError("section entries are not finite")
    dim, top_exp = mat.shape[1], sys.float_info.max_exp
    e = math.frexp(max(hi, -lo))[1]
    e = 0 if 0 <= e < top_exp // 8 - dim.bit_length() else max(e, dim.bit_length() + 1 - top_exp)
    s = math.ldexp(1.0, -e)
    x, u = np.empty(dim, complex), np.empty(mat.shape[0], complex)
    xf, uf = x.view(float), u.view(float)

    def h(v, out):
        if e:
            np.multiply(v.view(float), s, xf)
            np.matmul(mat, x, u)
            np.multiply(uf, s, uf)
        else:
            np.matmul(mat, v, u)
        np.matmul(np.conjugate(u, u), mat, out)
        return np.conjugate(out, out)

    rng = np.random.default_rng(DEFAULT_SEED)
    basis = np.empty((1, dim), complex)
    runs = []
    for _ in range(2):
        q = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        q /= np.linalg.norm(q)
        theta, residual, steps, certificate, basis = _lanczos(h, q, basis)
        runs.append((math.sqrt(max(theta, 0.0)), residual, steps, certificate))
    top, residual, _, certificate = max(runs)
    gap = abs(runs[0][0] - runs[1][0]) / top if top > 0.0 else 0.0
    try:
        value = math.ldexp(top, e)
    except OverflowError:
        raise OverflowGuardError(f"section norm 2^{e} * {top:.3g} passes the float range") from None
    return NormEstimate(value, (runs[0][2], runs[1][2]), certificate, residual, gap)


def operator_norm_estimate(T: OperatorMatrix) -> float:
    """Largest singular value of the section by certified Lanczos on v -> A*(A v).

    The tolerance is _TOL = 1e-10 and the two starts are drawn from
    DEFAULT_SEED, so the value is a function of the section alone.
    Worst-case certified relative error is about sqrt(_TOL)/2 (the residual
    certificate, reached on sections whose top singular values form a flat
    cluster); sections with a separated top converge far tighter.  The Krylov
    dimension per start is at most the section's size.  The iteration runs on
    s^2 A*A, s the power of two that brings the section's largest real or
    imaginary part into [1/2, 1): it multiplies the Krylov vector by s before
    A v and A v by s before A*, so the section is never copied and the
    products are the scaled section's, bit for bit, for every section
    build_matrix admits, and finite for any finite section.  Where A*A
    itself stays far inside the float range (entries from 1/2 up to about
    2^(128 - log2 of the size)) the steps are the same on it, bit for bit,
    and s = 1 spares the two multiplications.  Non-finite entries or a norm
    past the float range raise OverflowGuardError.  The memory beyond the
    section is the shared basis (a power of two of rows at least the steps
    taken, and half that again while it grows) and a few vectors: under a
    quarter of the section's bytes for (1/2, 0.3 + 0.4i) at N = 256 to 1024.
    The steps, certificate and residual behind the value are in
    _largest_singular_value's NormEstimate.
    """
    return _largest_singular_value(np.asarray(T.entries)).value


def norm_closed(phi: AffineSymbol, a: float, n: int = 1) -> float:
    """||C_phi^n||^{1/n} = e^{a |Im d_n| / n} / sqrt|c|, exact for every admissible symbol.

    In the Fourier picture ||C_phi F||^2 = (1/|c|) int_{-a}^{a} |F(t)|^2
    e^{-2 Im(d) t} dt, whose supremum over unit F is e^{2 a |Im d|}/|c|;
    C_phi^n is the composition with the n-th iterate (c^n, d_n), so its
    n-th root norm is the formula above.  n = 1 gives the norm itself, and by
    Gelfand every n gives an upper edge for the spectral radius.
    """
    _bandwidth(a)
    n = _count(n, "norm power n", least=1)
    _, (d_n,) = _iterate_table(phi.c, phi.d, (n,))
    expo = _guard_exponent(a * abs(d_n.imag) / n, "norm exponent")
    return 1.0 / math.sqrt(abs(phi.c)) * math.exp(expo)


def spectral_radius_closed(phi: AffineSymbol, a: float) -> float:
    """1/sqrt|c| when c != 1, e^{|Im d| a} when c = 1."""
    _bandwidth(a)
    if phi.c != 1.0:
        return 1.0 / math.sqrt(abs(phi.c))
    return math.exp(_guard_exponent(abs(phi.d.imag) * a, "radius exponent"))


def spectral_radius_estimate(phi: AffineSymbol, a: float, half_width: int, n_max: int) -> np.ndarray:
    """s_n = ||section of C_{phi^[n]}||^{1/n} for n = 1..n_max.

    Each iterate enters through its closed form (c^n, d_n), never through
    matrix powers: the n-th matrix is the section of the n-th operator, not
    the n-th power of a section.
    """
    n_max = _count(n_max, "radius horizon", least=1)
    _guard_size(n_max, "radius horizon")  # a cap on work: one section per n
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        section = build_matrix(phi.iterate(n), a, half_width)
        out[n - 1] = operator_norm_estimate(section) ** (1.0 / n)
    return out


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Exact spectrum, one of three shapes determined by (c, d).

    kind "two-point-set": {-1, +1} (c = -1, any d).
    kind "closed-disk":   {|lambda| <= radius}, radius = 1/sqrt|c| (0 < |c| < 1).
    kind "exponential-arc": {e^{i d t} : t in [-a, a]} (c = 1).
    """

    kind: str
    a: float
    radius: float | None = None
    d: complex | None = None

    def boundary_samples(self, count: int) -> np.ndarray:
        count = _count(count, "boundary count", least=1, per_entry=40)  # 40 bytes a sample at the peak
        if self.kind == "two-point-set":
            return np.array([-1.0 + 0.0j, 1.0 + 0.0j])
        if self.kind == "closed-disk":
            ang = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
            return self.radius * np.exp(1j * ang)
        t = np.linspace(-self.a, self.a, count)
        return np.exp(1j * self.d * t)

    def max_boundary_modulus(self) -> float:
        """Largest |lambda| over 1025 boundary samples; an arc's run from t = -a to t = a."""
        return float(np.max(np.abs(self.boundary_samples(1025))))


def spectrum_closed_form(phi: AffineSymbol, a: float) -> SpectrumDescriptor:
    _bandwidth(a)
    if phi.c == -1.0:
        return SpectrumDescriptor(kind="two-point-set", a=a)
    if phi.c == 1.0:
        _guard_exponent(abs(phi.d.imag) * a, "arc modulus exponent")
        return SpectrumDescriptor(kind="exponential-arc", a=a, d=phi.d)
    return SpectrumDescriptor(kind="closed-disk", a=a, radius=spectral_radius_closed(phi, a))


def compactness_witness(phi: AffineSymbol, a: float, n_max: int) -> np.ndarray:
    """||C_phi^* K_n||^2 for the normalized node kernels K_n, n = 1..n_max.

    The adjoint sends k_w to k_{phi(w)}, so the value is
    kernel_norm_sq(a, phi(x_n)) / kernel_norm_sq(a, x_n), which works out to
    the n-independent constant sinh(2 a Im d)/(2 a Im d) (1 when d is real):
    the image of a weakly null sequence keeps constant length, so no
    composition operator on PW_a is compact.
    """
    _bandwidth(a)
    n_max = _count(n_max, "witness horizon", least=1)
    _guard_size(n_max, "witness horizon")  # a cap on work: one kernel pair per n
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        w = n * math.pi / a
        out[n - 1] = kernel_norm_sq(a, phi(w)) / kernel_norm_sq(a, w)
    return out
