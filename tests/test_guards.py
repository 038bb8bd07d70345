"""Range guards at the edge: every core and dynamics entry point returns finite values or raises a typed error.

edge_sweep is importable on its own (tests on the path), so a wider sweep can
run outside pytest with numpy's RuntimeWarnings turned into errors.
"""

import numpy as np
import pytest

import pwlab
from pwlab import AffineSymbol, PwLabError

SEED = pwlab.DEFAULT_SEED


def _entry_points(phi, a, f, g, F, n):
    """(name, call) for each public core and dynamics entry point at phi; each call returns numbers."""
    c, d = phi.c, phi.d
    # unequal slopes with the shift s = d, so the pairing sees a |Im d| itself
    psi = AffineSymbol(c / 2.0, d + 0.5 * d.conjugate())
    calls = [
        ("pw_eval", lambda: pwlab.pw_eval(f, phi(f.grid()))),
        ("kernel_eval", lambda: pwlab.kernel_eval(a, d, f.grid())),
        ("kernel_norm_sq", lambda: pwlab.kernel_norm_sq(a, d)),
        ("compose_apply", lambda: pwlab.compose_apply(phi, f).samples),
        ("equal slopes", lambda: pwlab.composed_inner_product(phi, f, phi, g)),
        ("unequal slopes", lambda: pwlab.composed_inner_product(phi, f, psi, g)),
        ("composed_norm", lambda: pwlab.composed_norm(phi, f)),
        ("orbit_norms", lambda: pwlab.orbit_norms(phi, a, f, n).norms),
        ("orbit_norms_fourier", lambda: pwlab.orbit_norms_fourier(phi, F, n).norms),
        ("cesaro_averages", lambda: pwlab.cesaro_averages(phi, a, f, n)),
        ("expansivity_certificate", lambda: [
            x for x in vars(pwlab.expansivity_certificate(phi, a, f, horizon=n)).values() if x is not None
        ]),
    ]
    if c != 1.0:  # a pseudotrajectory needs the fixed point
        calls.append(("shadowing_divergence", lambda: np.concatenate(
            pwlab.shadowing_divergence(pwlab.build_pseudotrajectory(phi, a, f, 0.1, n), g)
        )))
    return calls


def edge_sweep(half_width, seed=SEED + 90, n=4):
    """Every entry point on the edge grid at one window half width; returns (calls, typed errors).

    c in {+-1, +-1/2, 1/4, 0.9, 1e-3} (compose_apply's coset route and its
    fallback), a Im d on either side of the kernel limit 300 and of the
    orbit's 150 (2 a |Im d_n| <= 300), and one a |Re d| past 2^511; orbits
    run to n.  A call passes if it returns finite numbers or raises a
    PwLabError; anything else (a plain ValueError other than a seed that
    vanishes at its fixed point, a non-finite value, or a RuntimeWarning where
    warnings are errors) fails.
    """
    a = 1.3
    rng = np.random.default_rng(seed)
    f = pwlab.rough_probe(a, half_width, rng)
    g = pwlab.rough_probe(a, half_width, rng)
    g = pwlab.scaled(g, 0.04 / g.norm())
    F = pwlab.to_l2(f, max(64, 4 * half_width))
    edges = [0.3 + 1j * sign * e / a for e in (149.99, 150.01, 299.99, 300.01) for sign in (1.0, -1.0)]
    calls = raised = 0
    for c in (1.0, -1.0, 0.5, -0.5, 0.25, 0.9, 1e-3):
        for d in [0.3] + edges + [2.0**512 / a]:
            for name, call in _entry_points(AffineSymbol(c, d), a, f, g, F, n):
                calls += 1
                try:
                    out = call()
                except PwLabError:
                    raised += 1
                    continue
                except ValueError as err:
                    # build_pseudotrajectory's precondition, typed ValueError by design: at
                    # c = -1 the fixed point d/2 sits at a |Re| = 2^511, inside the guard,
                    # where the seed has decayed below its 1e-12 floor
                    assert name == "shadowing_divergence" and "vanishes" in str(err), (name, c, d, err)
                    continue
                assert np.all(np.isfinite(out)), (name, c, d, half_width)
    return calls, raised


class TestEdgeSweep:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("half_width", [1, 64])
    def test_finite_or_typed_error(self, half_width):
        calls, raised = edge_sweep(half_width)
        # both outcomes occur: the grid straddles every guard
        assert 0 < raised < calls
