"""Orbits, linear-dynamics classification, and the quantitative certificates.

Everything here reduces to two exact ingredients: the closed-form iterate
phi^[n] = (c^n, d_n) (so the n-th orbit element is a single composition, not
n resamplings), and the closed pairing form for <C_phi1 f, C_phi2 g> (so
orbit norms never lose mass to a finite window).  Classification itself is a
pure table on (c, Im d); the orbit machinery exists to certify each entry of
that table numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    OVERFLOW_EXPONENT,
    AffineSymbol,
    PwFunction,
    PwLabError,
    _guard_exponent,
    _pairing,
    composed_inner_product,
    compose_apply,
    kernel_norm_sq,
    pw_eval,
    lincomb,
    scaled,
)
from .fourier import to_l2
from .spectral import closed_range_fact

_FLAG_NAMES = (
    "normal",
    "unitary",
    "invertible",
    "compact",
    "closed_range",
    "li_yorke",
    "positively_expansive",
    "cesaro_bounded",
    "shadowing",
)


class GrowthBound(NamedTuple):
    delta: float
    onset: int


@dataclass(frozen=True, eq=False)
class OrbitTrace:
    """Norms ||C_phi^n f|| for n = 0..n_max, one exact pairing per n."""

    phi: AffineSymbol
    a: float
    norms: np.ndarray
    method: str = "closed-iterate"

    def __post_init__(self):
        v = np.asarray(self.norms, dtype=float).copy()
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("norms must be a finite nonnegative sequence")
        v.setflags(write=False)
        object.__setattr__(self, "norms", v)


def _guard_orbit(phi: AffineSymbol, a: float, n_max: int) -> None:
    # the pairing form sees exponent 2 a |Im d_n|, bounded over n by worst;
    # the squared norm ||C_{phi^[n]} f||^2 carries that exponent times the
    # prefactor |c|^{-n}, so their sum gets twice the range of a norm
    worst = abs(phi.iterate(n_max).d.imag) if phi.c == 1.0 else abs(
        phi.d.imag / (1.0 - phi.c)
    ) * (1.0 + abs(phi.c))
    kernel = _guard_exponent(2.0 * a * worst, "orbit exponent 2 a |Im d_n|")
    _guard_exponent(
        n_max * math.log(1.0 / abs(phi.c)) + kernel,
        "squared orbit norm exponent",
        2.0 * OVERFLOW_EXPONENT,
    )


def orbit_norms(phi: AffineSymbol, a: float, f: PwFunction, n_max: int) -> OrbitTrace:
    """norms[n] = ||C_{phi^[n]} f|| via the closed pairing form.

    norms[0] is ||f|| itself.  Each later entry pairs the n-th iterate symbol
    exactly; no window resampling enters, so the trace is reliable far past
    the point where windowed samples of f o phi^[n] would saturate.

    All n_max pairings take the equal-slope (Toeplitz) route of
    composed_inner_product at once: one FFT autocorrelation of the samples,
    then one n_max x (4N+1) sinc block with r_n shift_n = 2i a Im(d_n) sgn(c_n).
    ||C_{phi^[n]} f||^2 rounds to O(eps * pi/(a |c^n|) * ||v||^2 *
    cosh(2 a |Im d_n|)) with v the samples, far below the norm itself since
    ||C_phi f|| >= |c|^{-1/2} e^{-a |Im d|} ||f||.
    """
    if f.a != a:
        raise ValueError("probe bandwidth differs from the requested space")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    # the batch below bypasses composed_inner_product's own range guard
    _guard_orbit(phi, a, n_max)
    iterates = [phi.iterate(n) for n in range(1, n_max + 1)]
    c = np.array([it.c for it in iterates])
    r_shift = 2j * a * np.array([it.d.imag for it in iterates]) * np.sign(c)
    squares = _pairing(a, c, c, r_shift, f.samples, f.samples).real
    norms = np.concatenate(([f.norm()], np.sqrt(np.maximum(squares, 0.0))))
    return OrbitTrace(phi, a, norms)


def orbit_norms_resampled(
    phi: AffineSymbol, a: float, f: PwFunction, n_max: int, grow: bool = True
) -> OrbitTrace:
    """Cross-check variant: repeated windowed application of C_phi.

    Accumulates truncation error and window cost at every step; intended only
    to corroborate orbit_norms at small n.
    """
    if f.a != a:
        raise ValueError("probe bandwidth differs from the requested space")
    norms = np.empty(n_max + 1)
    norms[0] = f.norm()
    g = f
    for n in range(1, n_max + 1):
        g = compose_apply(phi, g, grow=grow)
        norms[n] = g.norm()
    return OrbitTrace(phi, a, norms, method="resampled")


@dataclass(frozen=True)
class PropertyReport:
    """Operator-theoretic and dynamical flags for one symbol, with reasons."""

    phi: AffineSymbol
    a: float
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
        return {name: getattr(self, name) for name in _FLAG_NAMES}

    def justification(self, flag: str) -> str:
        for name, text in self.justifications:
            if name == flag:
                return text
        raise KeyError(flag)


def classify(phi: AffineSymbol, a: float) -> PropertyReport:
    """Pure table lookup on (c, Im d); every numerical experiment must agree with it."""
    c, d = phi.c, phi.d
    imd = d.imag
    expansive = abs(c) < 1.0 or (c == 1.0 and imd != 0.0)
    cesaro = c == -1.0 or (c == 1.0 and imd == 0.0)
    normal = c == 1.0 or (c == -1.0 and imd == 0.0)
    invertible = abs(c) == 1.0
    unitary = c == 1.0 and imd == 0.0
    just = {
        "normal": (
            "c=1 transforms to a pure multiplication by e^{i d t}, which commutes "
            "with its adjoint" if c == 1.0 else
            "c=-1, d real: the operator is self-inverse (applying it twice gives the "
            "identity) and isometric, hence normal" if normal else
            "the scaling part strictly contracts the band, so C*C and CC* act on "
            "different supports and cannot agree"
        ),
        "unitary": (
            "translation with real d is multiplication by the unimodular e^{i d t} "
            "in the transformed picture: isometric and onto" if unitary else
            "reflection with real d is isometric and invertible as well; the flag "
            "follows the translation-group convention and reports false for c=-1"
            if c == -1.0 and imd == 0.0 else
            "the norm of the operator or of its inverse image exceeds 1, so it "
            "cannot be unitary"
        ),
        "invertible": (
            "|c|=1: the inverse symbol z -> (z - d)/c is again admissible"
            if invertible else
            "0<|c|<1: the inverse symbol would have slope 1/c with |1/c| > 1, which "
            "does not map the space into itself; the range is a proper closed subspace"
        ),
        "compact": (
            "the normalized node kernels go weakly to zero while their adjoint "
            "images keep the constant length sinh(2 a Im d)/(2 a Im d) >= 1, so no "
            "compactness for any admissible symbol"
        ),
        "closed_range": closed_range_fact(phi)[1],
        "li_yorke": (
            "no orbit can have liminf 0 and limsup infinity: for |c| < 1 every "
            "nonzero orbit grows at least like |c|^{-n/2} (bounded below), and for "
            "|c| = 1 an orbit with liminf 0 forces the spectral density to vanish "
            "where the weight is >= 1, making the orbit nonincreasing"
        ),
        "positively_expansive": (
            "unit vectors double: orbits grow at rate |c|^{-n/2}" if abs(c) < 1.0 else
            "unit vectors double: the weight e^{-2 Im(d) n t} diverges exponentially "
            "on a set of positive spectral measure" if expansive else
            "no unit vector ever doubles: c=1 with real d is unitary (orbit norms "
            "constant)" if unitary else
            "no unit vector ever doubles: c=-1 orbits have period 2 with sup norm "
            "at most e^{|Im d| a}"
        ),
        "cesaro_bounded": (
            "orbit norms alternate between ||f|| and ||C_phi f|| <= e^{|Im d| a}||f||, "
            "so every Cesaro mean is bounded by e^{|Im d| a}||f||" if c == -1.0 else
            "unitary orbit: all means equal ||f||" if cesaro else
            "means grow without bound: the n-th orbit norm alone exceeds any fixed "
            "multiple of n (rate e^{|Im d| a n} for c=1, |c|^{-n/2} otherwise)"
        ),
        "shadowing": (
            "for every delta there is an explicit delta-pseudotrajectory whose "
            "terms grow linearly at a reproducing-kernel functional while every "
            "true orbit stays bounded there, so no orbit shadows it"
        ),
    }
    return PropertyReport(
        phi=phi,
        a=a,
        normal=normal,
        unitary=unitary,
        invertible=invertible,
        compact=False,
        closed_range=True,
        li_yorke=False,
        positively_expansive=expansive,
        cesaro_bounded=cesaro,
        shadowing=False,
        justifications=tuple(just.items()),
    )


def growth_constant_second(
    phi: AffineSymbol, f: PwFunction, w0: complex = 0.0, n_scan: int = 60
) -> GrowthBound:
    """Orbit growth constant for 0 < |c| < 1 from a kernel functional.

    delta = |f(w1)| / (2 ||k_{w0}||) with w1 = w0 + d/(1-c).  Pairing the
    orbit against k_{w0} gives ||C_phi^n f|| >= |f(w0 + d_n)| / ||k_{w0}||
    times |c|^{-n/2}; since w0 + d_n -> w1, the factor 2 buys an onset n0
    past which delta |c|^{-n/2} ||f|| is a certified lower bound (f of unit
    norm; the onset is located by scanning the exact orbit trace).
    """
    if abs(phi.c) >= 1.0:
        raise ValueError("growth constant needs a strictly contracting symbol, 0<|c|<1")
    if f.is_zero():
        raise ValueError("zero function has no growth constant")
    w1 = w0 + phi.d / (1.0 - phi.c)
    val = abs(pw_eval(f, w1))
    if val < 1e-12:
        raise ValueError("f vanishes at translated witness point")
    delta = val / (2.0 * math.sqrt(kernel_norm_sq(f.a, w0)))
    trace = orbit_norms(phi, f.a, f, n_scan)
    fnorm = f.norm()
    bound = delta * np.power(abs(phi.c), -0.5 * np.arange(n_scan + 1)) * fnorm
    ok = trace.norms >= bound * (1.0 - 1e-12)
    onset = None
    for n in range(n_scan, -1, -1):
        if not ok[n]:
            onset = n + 1
            break
    else:
        onset = 0
    if onset > n_scan:
        raise PwLabError("no onset found within the scan range; f may be too large")
    return GrowthBound(delta=delta, onset=onset)


def growth_constant_third(a: float, f: PwFunction, level: float, m_points: int = 4096) -> float:
    """Level-set growth constant for translations: delta = level * sqrt(measure(A)).

    A = {t : |F(t)| >= level} is measured by midpoint-cell counting on the
    transformed side.  The certified consequence is the level-set envelope
    (translation_growth_envelope below); the simpler exponential form
    delta e^{|Im d| n a} additionally needs A to hug the favorable band edge.
    """
    if f.is_zero():
        raise ValueError("zero function has no growth constant")
    if level <= 0.0:
        raise ValueError("level must be positive")
    F = to_l2(f, m_points)
    mask = np.abs(F.values) >= level
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise ValueError("level set empty at this level")
    measure = count * (2.0 * a / m_points)
    return level * math.sqrt(measure)


def translation_growth_envelope(
    d: complex, a: float, f: PwFunction, level: float, n_max: int, m_points: int = 4096
) -> np.ndarray:
    """Certified lower envelope for ||C_{z+d}^n f||, n = 1..n_max.

    envelope_n = level * (sum over the level-set cells of e^{-2 Im(d) n t} dt)^{1/2},
    the quadrature form of integrating the weight over A = {|F| >= level}.
    """
    F = to_l2(f, m_points)
    t = F.grid()
    mask = np.abs(F.values) >= level
    if not np.any(mask):
        raise ValueError("level set empty at this level")
    dt = 2.0 * a / m_points
    imd = complex(d).imag
    n = np.arange(1, n_max + 1)
    expo = -2.0 * imd * np.outer(n, t[mask])
    if expo.size:
        # the sum holds squared weights, so twice the range of a norm
        _guard_exponent(float(np.max(expo)), "envelope exponent", 2.0 * OVERFLOW_EXPONENT)
    return level * np.sqrt(dt * np.sum(np.exp(expo), axis=1))


@dataclass(frozen=True)
class ExpansivityCertificate:
    """Either the first doubling time of a unit vector or its orbit sup."""

    expansive: bool
    n_star: int | None
    sup_norm: float | None
    delta: float | None
    cap: int | None
    horizon: int


def expansivity_certificate(
    phi: AffineSymbol, a: float, f: PwFunction, horizon: int = 40
) -> ExpansivityCertificate:
    """Match the classifier with an explicit orbit computation.

    Expansive symbols: find the first n with ||C_phi^n f|| >= 2 for the
    normalized f, searching up to a cap derived from the growth constants
    (cap = ceil(log(2/delta)/rate) + 10).  Non-expansive symbols: report
    sup_n ||C_phi^n f|| over the horizon, which stays at 1 (unitary) or
    below e^{|Im d| a} (period-2 reflection case).
    """
    if f.is_zero():
        raise ValueError("expansivity needs a nonzero vector")
    unit = scaled(f, 1.0 / f.norm())
    report = classify(phi, a)
    if not report.positively_expansive:
        trace = orbit_norms(phi, a, unit, horizon)
        return ExpansivityCertificate(
            expansive=False,
            n_star=None,
            sup_norm=float(np.max(trace.norms)),
            delta=None,
            cap=None,
            horizon=horizon,
        )
    if abs(phi.c) < 1.0:
        delta = _second_constant_with_scan(phi, unit)
        rate = math.log(1.0 / math.sqrt(abs(phi.c)))
    else:
        F = to_l2(unit, 4096)
        level = 0.5 * float(np.max(np.abs(F.values)))
        delta = growth_constant_third(a, unit, level)
        rate = a * abs(phi.d.imag)
    cap = math.ceil(math.log(2.0 / delta) / rate) + 10 if delta < 2.0 else 10
    trace = orbit_norms(phi, a, unit, cap)
    hits = np.nonzero(trace.norms >= 2.0)[0]
    if hits.size == 0:
        raise PwLabError(
            f"no doubling within the cap {cap} predicted by delta={delta:.3g}"
        )
    first = int(hits[0])
    return ExpansivityCertificate(
        expansive=True,
        n_star=first,
        sup_norm=None,
        delta=delta,
        cap=cap,
        horizon=horizon,
    )


def _second_constant_with_scan(phi: AffineSymbol, unit: PwFunction) -> float:
    """Witness-point scan per the default-and-fallback convention."""
    last_err: Exception | None = None
    for w0 in (0.0, 1.0, -1.0, 1j, -1j):
        try:
            return growth_constant_second(phi, unit, w0=w0).delta
        except (ValueError, PwLabError) as err:
            last_err = err
    raise PwLabError(f"no usable witness point among the scan set: {last_err}")


def cesaro_averages(
    phi: AffineSymbol, a: float, f: PwFunction, n_max: int
) -> np.ndarray:
    """A_n = (1/n) sum_{j=1..n} ||C_phi^j f|| for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    trace = orbit_norms(phi, a, f, n_max)
    return np.cumsum(trace.norms[1:]) / np.arange(1, n_max + 1)


def cesaro_lower_envelope(
    phi: AffineSymbol, f: PwFunction, n_max: int, w0: complex = 0.0
) -> np.ndarray:
    """delta |c|^{-n/2} ||f|| / n: what the single largest orbit term already forces."""
    delta = growth_constant_second(phi, f, w0=w0).delta
    n = np.arange(1, n_max + 1)
    return delta * np.power(abs(phi.c), -0.5 * n) * f.norm() / n


@dataclass(frozen=True, eq=False)
class Pseudotrajectory:
    """f_n = (delta/||C_phi f||) sum_{j=1..n} C_phi^j f, kept as coefficients.

    Terms are linear combinations of the exact iterate images of the seed,
    so norms, defects, and pairings all go through the closed pairing form;
    nothing is ever resampled onto a window except for explicit export.
    """

    phi: AffineSymbol
    a: float
    delta: float
    seed: PwFunction
    n_max: int
    step_norm: float
    coefficient: float
    gram: np.ndarray  # gram[j, k] = <C_phi^{j+1} seed, C_phi^{k+1} seed>

    def _coeffs(self, n: int) -> np.ndarray:
        if not 0 <= n <= self.n_max + 1:
            raise ValueError("term index outside 0..n_max+1")
        x = np.zeros(self.n_max + 1, dtype=np.complex128)
        x[:n] = self.coefficient
        return x

    def term_norm(self, n: int) -> float:
        x = self._coeffs(n)
        return math.sqrt(max(float(np.real(np.conj(x) @ self.gram @ x)), 0.0))

    def defect(self, n: int) -> float:
        """||C_phi f_n - f_{n+1}|| through the pairing form.

        C_phi f_n has coefficient vector cf on iterates 2..n+1; subtracting
        the vector of f_{n+1} numerically leaves -cf on iterate 1 alone, and
        the quadratic form returns cf ||C_phi seed|| = delta up to pairing
        rounding.
        """
        if not 0 <= n <= self.n_max:
            raise ValueError("defect index outside 0..n_max")
        push = np.zeros(self.n_max + 1, dtype=np.complex128)
        push[1 : n + 1] = self.coefficient
        x = push - self._coeffs(n + 1)
        return math.sqrt(max(float(np.real(np.conj(x) @ self.gram @ x)), 0.0))

    def value_at_fixed_point(self, n: int) -> complex:
        alpha = self.phi.fixed_point()
        total = 0.0 + 0.0j
        for j in range(1, n + 1):
            total += pw_eval(self.seed, self.phi.iterate(j)(alpha))
        return self.coefficient * total

    def term_samples(self, n: int, half_width: int | None = None) -> PwFunction:
        """Windowed materialization of f_n for export and plotting."""
        width = half_width if half_width is not None else self.seed.half_width
        if n == 0:
            return PwFunction(self.a, np.zeros(2 * width + 1, dtype=np.complex128))
        parts = [
            compose_apply(self.phi.iterate(j), self.seed, half_width=width)
            for j in range(1, n + 1)
        ]
        return lincomb([self.coefficient] * n, parts)


def build_pseudotrajectory(
    phi: AffineSymbol, a: float, f: PwFunction, delta: float, n_max: int
) -> Pseudotrajectory:
    if phi.c == 1.0:
        raise ValueError("pseudotrajectory construction needs a fixed point (c != 1)")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if f.a != a:
        raise ValueError("seed bandwidth differs from the requested space")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    alpha = phi.fixed_point()
    if abs(pw_eval(f, alpha)) < 1e-12:
        raise ValueError("seed vanishes at fixed point")
    norms = orbit_norms(phi, a, f, n_max + 1).norms
    step_norm = float(norms[1])
    coefficient = delta / step_norm
    size = n_max + 1
    gram = np.diag(norms[1:] ** 2).astype(np.complex128)
    iterates = [phi.iterate(j) for j in range(1, n_max + 2)]
    for j in range(size):
        for k in range(j + 1, size):
            val = composed_inner_product(iterates[j], f, iterates[k], f)
            gram[j, k] = val
            gram[k, j] = np.conj(val)
    return Pseudotrajectory(
        phi=phi,
        a=a,
        delta=delta,
        seed=f,
        n_max=n_max,
        step_norm=step_norm,
        coefficient=coefficient,
        gram=gram,
    )


def shadowing_divergence(
    P: Pseudotrajectory, g: PwFunction, n_max: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(D, L) for n = 1..n_max: true distances and the linear lower bound.

    D_n = ||C_phi^n g - f_n|| expanded through the pairing form;
    L_n = (n delta |f(alpha)| / ||C_phi f|| - |g(alpha)|) / ||k_alpha||.
    D_n >= L_n up to pairing rounding, and L_n grows linearly: no single g
    stays delta-close to the whole pseudotrajectory.
    """
    if g.a != P.a:
        raise ValueError("candidate bandwidth differs from the pseudotrajectory space")
    if n_max is None:
        n_max = P.n_max
    if not 1 <= n_max <= P.n_max:
        raise ValueError("n_max outside 1..P.n_max")
    alpha = P.phi.fixed_point()
    f_alpha = pw_eval(P.seed, alpha)
    g_alpha = pw_eval(g, alpha)
    k_alpha = math.sqrt(kernel_norm_sq(P.a, alpha))
    iterates = [P.phi.iterate(j) for j in range(1, P.n_max + 2)]
    cross = np.array(
        [composed_inner_product(it, g, jt, P.seed) for it in iterates[:n_max] for jt in iterates],
        dtype=np.complex128,
    ).reshape(n_max, P.n_max + 1)
    gn_sq = orbit_norms(P.phi, P.a, g, n_max).norms[1:] ** 2
    d_out = np.empty(n_max)
    l_out = np.empty(n_max)
    for n in range(1, n_max + 1):
        x = P._coeffs(n)
        fn_sq = float(np.real(np.conj(x) @ P.gram @ x))
        mixed = complex(cross[n - 1] @ np.conj(x))
        d_out[n - 1] = math.sqrt(max(gn_sq[n - 1] - 2.0 * mixed.real + fn_sq, 0.0))
        l_out[n - 1] = (
            n * P.delta * abs(f_alpha) / P.step_norm - abs(g_alpha)
        ) / k_alpha
    return d_out, l_out
