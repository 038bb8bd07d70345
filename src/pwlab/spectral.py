"""Finite sections, norm estimators, and closed-form spectra.

Numerical estimates here come from one tool only: power iteration for the
largest singular value of the finite section in the node basis.  Spectra and
spectral radii are never read off truncated matrices (truncation spectra of
non-normal operators are polluted); they come from the exact trichotomy
on (c, d), and the finite sections serve as the independent cross-check of
the norm and radius formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AffineSymbol,
    ConvergenceError,
    KernelPoint,
    _guard_exponent,
    _sinc,
    adjoint_on_kernel,
    compose_apply,
    grid,
)
from .probes import smooth_probe


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Section T[n, m] = <C_phi e_m, e_n> = sinc(a(phi(x_n) - x_m)), |n|,|m| <= N."""

    phi: AffineSymbol
    a: float
    half_width: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        size = 2 * self.half_width + 1
        if e.shape != (size, size):
            raise ValueError("entries shape does not match the window")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def build_matrix(phi: AffineSymbol, a: float, half_width: int) -> OperatorMatrix:
    """Entries via the difference-first argument a*(phi(x_n) - x_m).

    The difference form keeps exact zeros at coincident nodes, so identity
    and reflection symbols produce (anti-)diagonal sections exactly.
    """
    if half_width < 1:
        raise ValueError("half_width must be at least 1")
    expo = _guard_exponent(a * abs(phi.d.imag), "entry magnitude exponent")
    _guard_exponent(expo + math.log(2 * half_width + 1), "section row-sum exponent", 700.0)
    x = grid(a, half_width)
    u = a * (phi(x)[:, None] - x[None, :])
    return OperatorMatrix(phi, a, half_width, _sinc(u))


def _largest_singular_value(
    mat: np.ndarray, tol: float, seed: int, max_iterations: int
) -> float:
    """Power iteration on H = A*A with restart.

    Two stopping tests, either certifies the eigenvalue: a relative stall of
    the Rayleigh quotient below tol (the quotient of a PSD matrix is
    nondecreasing along power iterates), or an eigen-residual
    ||Hv - lam v|| <= sqrt(tol) * lam, which for Hermitian H places an
    eigenvalue within that distance of lam.  The residual test is what
    terminates on sections whose top singular values cluster too tightly for
    the stall to fire.  A second random start guards against an unlucky
    first vector sitting near an invariant subspace below the top.
    """
    if max_iterations < 3:
        raise ValueError("max_iterations must be at least 3")
    h = mat.conj().T @ mat
    h = 0.5 * (h + h.conj().T)
    rng = np.random.default_rng(seed)
    dim = h.shape[0]
    best = 0.0
    failure: tuple[float, float] | None = None
    res_tol = math.sqrt(tol)
    for _ in range(2):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        lam_prev = 0.0
        residual = math.inf
        converged = False
        for step in range(max_iterations):
            u = h @ v
            lam = float(np.vdot(v, u).real)
            nu = float(np.linalg.norm(u))
            if nu == 0.0:
                lam, converged = 0.0, True
                break
            residual = float(np.linalg.norm(u - lam * v))
            scale = max(abs(lam), 1e-300)
            if step >= 2 and (
                abs(lam - lam_prev) <= tol * scale or residual <= res_tol * scale
            ):
                converged = True
                v = u / nu
                break
            v = u / nu
            lam_prev = lam
        if converged:
            best = max(best, lam)
        else:
            failure = (math.sqrt(max(lam, 0.0)), residual / max(abs(lam), 1e-300))
    if failure is not None:
        raise ConvergenceError(
            f"power iteration did not converge below tol={tol} in {max_iterations} steps",
            estimate=failure[0],
            residual=failure[1],
        )
    return math.sqrt(max(best, 0.0))


def operator_norm_estimate(
    T: OperatorMatrix, tol: float = 1e-10, seed: int = 0, max_iterations: int = 50000
) -> float:
    """Largest singular value of the section by certified power iteration.

    Worst-case certified relative error is about sqrt(tol)/2 (the residual
    certificate, reached on sections whose top singular values form a flat
    cluster); sections with a separated top converge far tighter through
    the Rayleigh stall test.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _largest_singular_value(np.asarray(T.entries), tol, seed, max_iterations)


def norm_bounds(phi: AffineSymbol, a: float) -> tuple[float, float]:
    """(1/sqrt|c|, e^{|Im d| a}/sqrt|c|); the two coincide exactly when d is real."""
    expo = _guard_exponent(abs(phi.d.imag) * a, "norm exponent")
    lower = 1.0 / math.sqrt(abs(phi.c))
    return lower, lower * math.exp(expo)


def spectral_radius_closed(phi: AffineSymbol, a: float) -> float:
    """1/sqrt|c| when c != 1, e^{|Im d| a} when c = 1."""
    if phi.c != 1.0:
        return 1.0 / math.sqrt(abs(phi.c))
    return math.exp(_guard_exponent(abs(phi.d.imag) * a, "radius exponent"))


def radius_bracket(phi: AffineSymbol, a: float, n: int) -> tuple[float, float]:
    """Enclosure for ||C_phi^n||^{1/n}: [1/sqrt|c|, e^{|Im d_n| a / n}/sqrt|c|].

    d_n is the translation part of the n-th iterate, so the upper edge is the
    n-th root of the exact iterate norm and decreases to 1/sqrt|c| for c != 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    psi = phi.iterate(n)
    lower = 1.0 / math.sqrt(abs(phi.c))
    upper = lower * math.exp(_guard_exponent(abs(psi.d.imag) * a / n, "iterate norm exponent"))
    if phi.c == 1.0:
        # translations: the iterate norm is exact, the enclosure degenerates
        return upper, upper
    return lower, upper


def spectral_radius_estimate(
    phi: AffineSymbol,
    a: float,
    half_width: int,
    n_max: int,
    tol: float = 1e-10,
    seed: int = 0,
) -> np.ndarray:
    """s_n = ||section of C_{phi^[n]}||^{1/n} for n = 1..n_max.

    Each iterate enters through its closed form (c^n, d_n), never through
    matrix powers: the n-th matrix is the section of the n-th operator, not
    the n-th power of a section.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        section = build_matrix(phi.iterate(n), a, half_width)
        out[n - 1] = operator_norm_estimate(section, tol=tol, seed=seed) ** (1.0 / n)
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

    def boundary_samples(self, count: int = 512) -> np.ndarray:
        if self.kind == "two-point-set":
            return np.array([-1.0 + 0.0j, 1.0 + 0.0j])
        if self.kind == "closed-disk":
            ang = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
            return self.radius * np.exp(1j * ang)
        t = np.linspace(-self.a, self.a, count)
        return np.exp(1j * self.d * t)

    def max_boundary_modulus(self, count: int = 512) -> float:
        return float(np.max(np.abs(self.boundary_samples(count))))

    def contains(self, lam: complex, tol: float = 1e-9) -> bool:
        lam = complex(lam)
        if self.kind == "two-point-set":
            return min(abs(lam - 1.0), abs(lam + 1.0)) <= tol
        if self.kind == "closed-disk":
            return abs(lam) <= self.radius + tol
        return self._arc_distance(lam) <= tol

    def _arc_distance(self, lam: complex) -> float:
        # coarse scan then ternary refinement of the smooth distance t -> |lam - e^{idt}|
        t = np.linspace(-self.a, self.a, 2049)
        dist = np.abs(lam - np.exp(1j * self.d * t))
        j = int(np.argmin(dist))
        lo = t[max(j - 1, 0)]
        hi = t[min(j + 1, t.size - 1)]
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if abs(lam - np.exp(1j * self.d * m1)) <= abs(lam - np.exp(1j * self.d * m2)):
                hi = m2
            else:
                lo = m1
        mid = 0.5 * (lo + hi)
        return float(min(dist[j], abs(lam - np.exp(1j * self.d * mid))))


def spectrum_closed_form(phi: AffineSymbol, a: float) -> SpectrumDescriptor:
    if phi.c == -1.0:
        return SpectrumDescriptor(kind="two-point-set", a=a)
    if phi.c == 1.0:
        _guard_exponent(abs(phi.d.imag) * a, "arc modulus exponent")
        return SpectrumDescriptor(kind="exponential-arc", a=a, d=phi.d)
    return SpectrumDescriptor(kind="closed-disk", a=a, radius=1.0 / math.sqrt(abs(phi.c)))


def compactness_witness(phi: AffineSymbol, a: float, n_max: int) -> np.ndarray:
    """||C_phi^* K_n||^2 for the normalized node kernels K_n, n = 1..n_max.

    The adjoint sends k_w to k_{phi(w)}, so the value is
    kernel_norm_sq(a, phi(x_n)) / kernel_norm_sq(a, x_n), which works out to
    the n-independent constant sinh(2 a Im d)/(2 a Im d) (1 when d is real):
    the image of a weakly null sequence keeps constant length, so no
    composition operator on PW_a is compact.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        point = KernelPoint(a, n * math.pi / a)
        image = adjoint_on_kernel(phi, point)
        out[n - 1] = image.norm_sq() / point.norm_sq()
    return out


def isometry_check(
    c: float,
    a: float,
    trials: int,
    half_width: int = 64,
    seed: int = 0,
    grow: bool = True,
) -> float:
    """Max relative deviation of ||sqrt|c| C_{cz} f|| from ||f|| over random smooth probes."""
    phi = AffineSymbol(c, 0.0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    root_c = math.sqrt(abs(c))
    for _ in range(trials):
        f = smooth_probe(a, half_width, rng)
        image = compose_apply(phi, f, grow=grow)
        worst = max(worst, abs(root_c * image.norm() - f.norm()) / f.norm())
    return worst


def closed_range_fact(phi: AffineSymbol) -> tuple[bool, str]:
    """Every admissible symbol gives an operator with closed range (no numerics)."""
    if abs(phi.c) == 1.0:
        return True, (
            "invertible: the inverse symbol z -> (z - d)/c is admissible "
            "(|1/c| = 1), and invertible operators have closed range"
        )
    return True, (
        "bounded below: ||C_phi f|| = |c|^{-1/2} ||f(. + d)|| >= "
        "|c|^{-1/2} e^{-|Im d| a} ||f||, a positive multiple of an isometry "
        "composed with an invertible multiplication, hence closed range"
    )
