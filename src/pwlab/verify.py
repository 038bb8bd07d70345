"""The acceptance suite: twelve self-contained checks of the closed forms.

Each check pins its own configuration (symbols, bandwidths, window sizes,
tolerances) and returns a CheckResult; the CLI prints one line per check and
the test suite asserts each one.  Checks C1..C11 exercise one exact statement
each (norm formulas, spectra, witnesses, dichotomies); C12 re-runs the core
sampling-model property tests under fixed seeds.  Every check takes a seed,
so run_all calls them alike; C4 and C5 draw no random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AffineSymbol,
    KernelPoint,
    PwFunction,
    _rounding_bound,
    compose_apply,
    inner_product,
    lincomb,
    pw_eval,
    reproduce,
    scaled,
)
from .dynamics import (
    _orbit_parts,
    build_pseudotrajectory,
    cesaro_averages,
    cesaro_lower_envelope,
    classify,
    expansivity_certificate,
    orbit_norms,
    orbit_norms_fourier,
    shadowing_divergence,
)
from .fourier import L2Function, to_l2, weighted_compose_apply
from .probes import node_function, rough_probe, smooth_probe
from .spectral import (
    build_matrix,
    compactness_witness,
    isometry_check,
    norm_closed,
    operator_norm_estimate,
    spectral_radius_closed,
    spectral_radius_estimate,
    spectrum_closed_form,
)

DEFAULT_SEED = 0x50572024

_GRID_C = (1.0, -1.0, 0.5, -0.5, 0.25)
_GRID_D = (0.0, 1.0, 1j, 1.0 + 1j)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    title: str
    passed: bool
    detail: str


def _result(check_id: str, title: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(check_id=check_id, title=title, passed=bool(passed), detail=detail)


def _section_norms(seed: int, cases) -> tuple[bool, str]:
    """(passed, detail): each (a, phi) section norm at N=128 against norm_closed, within 3%."""
    devs = [abs(operator_norm_estimate(build_matrix(phi, a, 128), seed=seed) / norm_closed(phi, a) - 1.0)
            for a, phi in cases]
    detail = ", ".join(f"dev={dev:.2e}" for dev in devs) + " (allowed 3e-02)"
    return all(dev <= 0.03 for dev in devs), detail


def check_norm_equality(seed: int = DEFAULT_SEED) -> CheckResult:
    """C1: for real d the section norm matches 1/sqrt|c| within 3% at N=128."""
    cases = [(math.pi, AffineSymbol(0.25, 0.0)), (1.0, AffineSymbol(0.5, 0.7))]
    return _result("C1", "norm equality for real translation part", *_section_norms(seed, cases))


def check_translation_norm(seed: int = DEFAULT_SEED) -> CheckResult:
    """C2: translation sections reach e^{|Im d| a} within 3% at N=128."""
    cases = [(1.0, AffineSymbol(1.0, 1j)), (math.pi, AffineSymbol(1.0, 0.5j))]
    return _result("C2", "translation norm e^{|Im d| a}", *_section_norms(seed, cases))


def check_radius_convergence(seed: int = DEFAULT_SEED) -> CheckResult:
    """C3: root-norm sequence stays in the Gelfand bracket and lands near sqrt(2).

    Configuration (a=1, c=1/2, d=i), n = 1..12.  The bracket is
    [r(C), ||C^n||^{1/n}]: the spectral radius below and the exact root norm
    of the n-th iterate above (r(C) <= ||C^n||^{1/n} by Gelfand).  Its
    tolerance is the 3% finite-section factor.  The 256-node window does not
    resolve the iterate: s_12 = 1.40480 against the exact ||C^12||^{1/12} =
    1.67063, so s_12 lands near sqrt(2) through truncation.
    """
    phi = AffineSymbol(0.5, 1j)
    a = 1.0
    s = spectral_radius_estimate(phi, a, 256, 12, seed=seed)
    lo = spectral_radius_closed(phi, a)
    ok_bracket = True
    worst = -math.inf
    for n in range(1, 13):
        hi = norm_closed(phi, a, n)
        if not (lo * 0.97 <= s[n - 1] <= hi * 1.03):
            ok_bracket = False
        worst = max(worst, lo * 0.97 - s[n - 1], s[n - 1] - hi * 1.03)
    final_err = abs(s[11] - lo)
    passed = ok_bracket and final_err <= 0.07
    detail = f"bracket margin {-worst:.2e}, |s_12 - sqrt2| = {final_err:.3f} (allowed 0.07)"
    return _result("C3", "spectral radius via root-norms", passed, detail)


def check_spectrum_trichotomy(seed: int = DEFAULT_SEED) -> CheckResult:
    """C4: boundary modulus equals the closed radius; reflection section squares to 1."""
    a = 1.0
    cases = [
        AffineSymbol(-1.0, 3.0 + 2j),
        AffineSymbol(0.5, 1.0 + 1j),
        AffineSymbol(1.0, 1j),
    ]
    worst = 0.0
    for phi in cases:
        desc = spectrum_closed_form(phi, a)
        worst = max(
            worst, abs(desc.max_boundary_modulus(1025) - spectral_radius_closed(phi, a))
        )
    T = build_matrix(AffineSymbol(-1.0, 0.0), a, 128).entries
    sq = float(np.linalg.norm(T @ T - np.eye(T.shape[0])))
    passed = worst <= 1e-12 and sq <= 1e-8
    detail = f"modulus gap {worst:.2e} (allowed 1e-12), ||T^2 - I|| = {sq:.2e} (allowed 1e-08)"
    return _result("C4", "spectrum trichotomy consistency", passed, detail)


def check_noncompactness_witness(seed: int = DEFAULT_SEED) -> CheckResult:
    """C5: adjoint images of the node kernels keep constant squared length."""
    a = 1.0
    w_complex = compactness_witness(AffineSymbol(0.5, 1j), a, 50)
    target = math.sinh(2.0) / 2.0
    dev_c = float(np.max(np.abs(w_complex - target)))
    w_real = compactness_witness(AffineSymbol(0.5, 0.3), a, 50)
    dev_r = float(np.max(np.abs(w_real - 1.0)))
    passed = dev_c <= 1e-10 and dev_r <= 1e-10
    detail = f"dev to sinh(2)/2: {dev_c:.2e}, dev to 1: {dev_r:.2e} (allowed 1e-10)"
    return _result("C5", "non-compactness witness constant", passed, detail)


def check_isometry(seed: int = DEFAULT_SEED) -> CheckResult:
    """C6: sqrt|c| C_{cz} preserves norms over 100 random probes per c."""
    dev1 = isometry_check(0.5, math.pi, 100, half_width=64, seed=seed)
    dev2 = isometry_check(0.9, 1.0, 100, half_width=64, seed=seed + 1)
    passed = dev1 < 1e-6 and dev2 < 1e-6
    detail = f"max deviations {dev1:.2e}, {dev2:.2e} (allowed 1e-06)"
    return _result("C6", "scaled isometry of pure scalings", passed, detail)


def check_commuting_square(seed: int = DEFAULT_SEED) -> CheckResult:
    """C7: transform-then-compose equals compose-then-transform on the symbol grid."""
    a = 1.0
    m_points = 4096
    rng = np.random.default_rng(seed)
    worst = 0.0
    for c in _GRID_C:
        for d in _GRID_D:
            phi = AffineSymbol(c, d)
            for _ in range(20):
                f = smooth_probe(a, 128, rng)
                f = scaled(f, 1.0 / f.norm())
                path_a = to_l2(compose_apply(phi, f, grow=True), m_points)
                path_b = weighted_compose_apply(phi, to_l2(f, m_points))
                diff = L2Function(a, path_a.values - path_b.values).norm()
                worst = max(worst, diff)
    passed = worst < 1e-6
    detail = f"max discrepancy {worst:.2e} over 400 squares (allowed 1e-06)"
    return _result("C7", "two-path equivalence (commuting square)", passed, detail)


def _fourier_orbit(phi: AffineSymbol, f: PwFunction, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(norms, slack): the Fourier route's orbit of f after one Richardson step, and its bound.

    orbit_norms_fourier sums g(t) = |F(t)|^2 e^{-2yt} / |c^n|, y = Im d_n, by
    the midpoint rule: per exponential e^{lt} of g, the integral times x / sinh x
    = 1 - x^2/6 + 7x^4/360 - ..., x = lh/2.  The error A_n h^2 + O(h^4) has its
    h^4 part smaller by about (7/60)|x|^2 < 1e-2 (|l| <= 2N pi/a + 2|y|, N <= 64,
    h = 2a/4096).  Sums S at M = 4096 and S' at 2M give squares (4S' - S)/3 free
    of the h^2 term, and what is left is below the correction |S' - S|/3.
    orbit_norms rounds to O(B_n) (core._rounding_bound), and the 2M terms of
    S' add up to at most B_n / eps, so 2M B_n covers all rounding:
    slack = (|S' - S|/3 + 2M B_n) / norms bounds |norms - orbit_norms|, as
    |sqrt x - sqrt z| <= |x - z| / sqrt x.  Real d has A_n = 0: rounding alone.
    """
    c, y = _orbit_parts(phi, f.a, n_max)
    coarse, fine = (orbit_norms_fourier(phi, to_l2(f, m), n_max).norms ** 2 for m in (4096, 8192))
    norms = np.sqrt((4.0 * fine - coarse) / 3.0)
    return norms, (np.abs(fine - coarse) / 3.0 + 8192 * _rounding_bound(f.a, c, y, f.samples)) / norms


def check_expansivity_dichotomy(seed: int = DEFAULT_SEED) -> CheckResult:
    """C8: certificates agree with the classifier; bounded orbits respect e^{|Im d| a}.

    Within its slack, the Fourier route (_fourier_orbit) matches each bounded
    sup and doubles at n_star: above 2 - slack there, under 2 + slack before.
    """
    a = 1.0
    rng = np.random.default_rng(seed)
    mismatches = conflicts = 0
    worst_rel = sup_gap = 0.0
    for c in _GRID_C:
        for d in _GRID_D:
            phi = AffineSymbol(c, d)
            f = rough_probe(a, 64, rng)
            cert = expansivity_certificate(phi, a, f, horizon=40)
            mismatches += cert.expansive != classify(phi, a).positively_expansive
            norms, slack = _fourier_orbit(phi, scaled(f, 1.0 / f.norm()), cert.n_star or cert.horizon)
            if cert.expansive:
                conflicts += np.any(norms[:-1] >= 2.0 + slack[:-1]) or norms[-1] < 2.0 - slack[-1]
            else:
                bound = norm_closed(phi, a)
                worst_rel = max(worst_rel, (cert.sup_norm - bound) / bound)
                sup_gap = max(sup_gap, abs(np.max(norms) - cert.sup_norm) / np.max(slack))
    passed = mismatches == 0 and worst_rel <= 1e-6 and conflicts == 0 and sup_gap <= 1.0
    detail = (
        f"{mismatches} classifier mismatches, bounded-orbit excess {worst_rel:.2e} "
        f"(allowed 1e-06); Fourier route: {conflicts} doubling-time conflicts, "
        f"sup gap {sup_gap:.2e} of its slack (allowed 1)"
    )
    return _result("C8", "expansivity dichotomy", passed, detail)


def check_cesaro_dichotomy(seed: int = DEFAULT_SEED) -> CheckResult:
    """C9: bounded symbols keep A_n under e^{|Im d| a}||f||; the kernel witness blows up.

    The Fourier route (_fourier_orbit) matches every A_n within its mean slack
    and sees the blow-up too.
    """
    a = 1.0
    rng = np.random.default_rng(seed)
    bounded = [AffineSymbol(-1.0, d) for d in _GRID_D] + [AffineSymbol(1.0, 0.0), AffineSymbol(1.0, 1.0)]
    witness = KernelPoint(math.pi, 1.0).to_pw(8)
    phi_w = AffineSymbol(0.5, 0.0)
    n = np.arange(1, 41)
    worst_rel = slack_gap = 0.0
    for phi, f in [(phi, rough_probe(a, 48, rng)) for phi in bounded] + [(phi_w, witness)]:
        averages = cesaro_averages(phi, f.a, f, 40)
        norms, slack = _fourier_orbit(phi, f, 40)
        fourier = np.cumsum(norms[1:]) / n
        slack_gap = max(slack_gap, float(np.max(np.abs(fourier - averages) * n / np.cumsum(slack[1:]))))
        if phi is not phi_w:
            cap = norm_closed(phi, a) * (1.0 + 1e-6) * f.norm()
            worst_rel = max(worst_rel, float(np.max(averages)) / cap - 1.0)
    # the loop ends on the witness
    peak, peak_f = float(np.max(averages)) / witness.norm(), float(np.max(fourier)) / witness.norm()
    envelope = cesaro_lower_envelope(phi_w, witness, 40, w0=1.0)
    passed = worst_rel <= 0.0 and min(peak, peak_f) > 100.0 and slack_gap <= 1.0
    detail = (
        f"bounded-side excess {worst_rel:.2e}, witness max A_n/||f|| = {peak:.3g} (needs > 100, "
        f"envelope floor {float(np.max(envelope)) / witness.norm():.3g}); Fourier route: average "
        f"gap {slack_gap:.2e} of its slack (allowed 1), witness max A_n/||f|| = {peak_f:.3g}"
    )
    return _result("C9", "absolute Cesaro boundedness dichotomy", passed, detail)


def check_shadowing_divergence(seed: int = DEFAULT_SEED) -> CheckResult:
    """C10: pseudotrajectory outruns every candidate orbit, linear rate 2x from n=15 to 30."""
    a = math.pi
    phi = AffineSymbol(0.5, 0.0)
    f = node_function(a, 8, 0)
    P = build_pseudotrajectory(phi, a, f, 0.1, 30)
    rng = np.random.default_rng(seed)
    min_margin = math.inf
    worst_ratio_err = 0.0
    for _ in range(10):
        g = rough_probe(a, 64, rng)
        g = scaled(g, 0.04 / g.norm())
        D, L = shadowing_divergence(P, g, 30)
        min_margin = min(min_margin, float(np.min(D - L)))
        worst_ratio_err = max(worst_ratio_err, abs(L[29] / L[14] / 2.0 - 1.0))
    passed = min_margin >= -1e-8 and worst_ratio_err <= 0.05
    detail = (
        f"min(D_n - L_n) = {min_margin:.2e} (allowed -1e-08), worst |L30/L15 - 2|/2 = "
        f"{worst_ratio_err:.2e} (allowed 5e-02)"
    )
    return _result("C10", "shadowing divergence certificate", passed, detail)


def check_li_yorke(seed: int = DEFAULT_SEED) -> CheckResult:
    """C11: no orbit is numerically irregular (small liminf with huge limsup proxy)."""
    a = 1.0
    rng = np.random.default_rng(seed)
    irregular = 0
    for c in _GRID_C:
        for d in _GRID_D:
            phi = AffineSymbol(c, d)
            for _ in range(50):
                f = rough_probe(a, 24, rng)
                trace = orbit_norms(phi, a, f, 40)
                fn = f.norm()
                if float(np.min(trace.norms)) < 0.01 * fn and float(
                    np.max(trace.norms)
                ) > 100.0 * fn:
                    irregular += 1
    passed = irregular == 0
    detail = f"{irregular} irregular vectors over 1000 orbits (needs 0)"
    return _result("C11", "Li-Yorke falsification suite", passed, detail)


def _simpson(values: np.ndarray, step: float) -> float:
    if values.size % 2 == 0:
        raise ValueError("Simpson rule needs an odd point count")
    weights = np.ones(values.size)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.sum(weights * values)) * step / 3.0


def check_core_properties(seed: int = DEFAULT_SEED) -> CheckResult:
    """C12: interpolation, Parseval-vs-quadrature, reproducing, semigroup, involution."""
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    failures = []

    # interpolation at the nodes
    worst_interp = 0.0
    for _ in range(30):
        a = float(rng.uniform(0.5, 4.0))
        f = rough_probe(a, int(rng.integers(8, 48)), rng)
        budget = 4.0 * eps * float(np.sum(np.abs(f.samples)))
        err = float(np.max(np.abs(pw_eval(f, f.grid()) - f.samples)))
        worst_interp = max(worst_interp, err - budget)
    if worst_interp > 0.0:
        failures.append(f"interpolation over budget by {worst_interp:.2e}")

    # Parseval vs direct quadrature of |f|^2 on the line
    worst_pars = 0.0
    for _ in range(5):
        f = smooth_probe(math.pi, 64, rng)
        f = scaled(f, 1.0 / f.norm())
        t_max = 96.0
        t = np.linspace(-t_max, t_max, 32769)
        vals = np.abs(pw_eval(f, t)) ** 2
        quad = _simpson(vals, t[1] - t[0])
        worst_pars = max(worst_pars, abs(inner_product(f, f).real - quad))
    if worst_pars > 1e-6:
        failures.append(f"Parseval vs quadrature gap {worst_pars:.2e}")

    # reproducing identity, real and complex evaluation points
    worst_real, worst_cplx = 0.0, 0.0
    for _ in range(30):
        a = float(rng.uniform(0.5, 3.0))
        f = smooth_probe(a, 64, rng)
        w_re = float(rng.uniform(-1.0, 1.0)) * 32.0 * math.pi / (2.0 * a)
        worst_real = max(worst_real, abs(reproduce(f, w_re) - pw_eval(f, w_re)))
        w_c = w_re + 1j * float(rng.uniform(-1.0, 1.0)) / a
        worst_cplx = max(worst_cplx, abs(reproduce(f, w_c) - pw_eval(f, w_c)))
    if worst_real > 1e-10:
        failures.append(f"reproducing identity (real) gap {worst_real:.2e}")
    if worst_cplx > 1e-8:
        failures.append(f"reproducing identity (complex) gap {worst_cplx:.2e}")

    # semigroup: n-fold application vs the closed iterate
    phi = AffineSymbol(0.5, 0.3)
    worst_semi = 0.0
    for _ in range(3):
        f = smooth_probe(math.pi, 32, rng, spread=0.125, band=0.9)
        chain = f
        for n in range(1, 9):
            chain = compose_apply(phi, chain, grow=True)
            direct = compose_apply(phi.iterate(n), f, half_width=chain.half_width)
            rel = (
                lincomb([1.0, -1.0], [chain, direct]).norm() / direct.norm()
            ) / n
            worst_semi = max(worst_semi, rel)
    if worst_semi > 1e-9:
        failures.append(f"semigroup relative error {worst_semi:.2e} per step")

    # involution for reflections
    phi_r = AffineSymbol(-1.0, 1.0 + 1j)
    worst_inv = 0.0
    for _ in range(5):
        f = smooth_probe(1.0, 64, rng)
        back = compose_apply(phi_r, compose_apply(phi_r, f))
        worst_inv = max(worst_inv, lincomb([1.0, -1.0], [back, f]).norm() / f.norm())
    if worst_inv > 1e-10:
        failures.append(f"involution residual {worst_inv:.2e}")

    passed = not failures
    detail = "; ".join(failures) if failures else (
        f"interp margin {worst_interp:.1e}, parseval {worst_pars:.1e}, reproduce "
        f"{worst_real:.1e}/{worst_cplx:.1e}, semigroup {worst_semi:.1e}, "
        f"involution {worst_inv:.1e}"
    )
    return _result("C12", "core sampling-model property suite", passed, detail)


_CHECKS = (
    check_norm_equality,
    check_translation_norm,
    check_radius_convergence,
    check_spectrum_trichotomy,
    check_noncompactness_witness,
    check_isometry,
    check_commuting_square,
    check_expansivity_dichotomy,
    check_cesaro_dichotomy,
    check_shadowing_divergence,
    check_li_yorke,
    check_core_properties,
)


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the twelve checks in order; every check always runs."""
    return [fn(seed=seed) for fn in _CHECKS]
