"""Range guards at the edge: every core, Fourier and dynamics entry point returns finite values or raises a typed error.

Size caps: a window, count, horizon, grid or matrix past the memory budget raises before it is allocated.

Memory budget: at the largest size the budget admits, each guarded entry point peaks within it.

Input checks: each public check that no other test reaches raises its own type and message.

Counts: every integer argument of the public API passes core._count, and no module checks one by hand.

edge_sweep and budget_sweep are importable on their own (tests on the path), so
wider sweeps can run outside pytest with numpy's RuntimeWarnings turned into errors.
"""

import ast
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pwlab
import pwlab.cli
from pwlab import AdmissibilityError, AffineSymbol, OverflowGuardError, PwLabError, core, dynamics
from pwlab.cli import EXIT_INVALID_CONFIG

from oracles import where_sinc

SEED = pwlab.DEFAULT_SEED


def _entry_points(phi, a, f, g, F, n):
    """(name, call) for each public core, Fourier and dynamics entry point at phi; each call returns numbers."""
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
        ("weighted_compose_apply", lambda: pwlab.weighted_compose_apply(phi, F).values),
        ("weighted_compose_adjoint", lambda: pwlab.weighted_compose_adjoint(phi, F).values),
        ("from_l2", lambda: pwlab.from_l2(F, f.half_width).samples),
        ("orbit_norms_fourier", lambda: pwlab.orbit_norms_fourier(phi, F, n).norms),
        ("cesaro_averages", lambda: pwlab.cesaro_averages(phi, a, f, n)),
        ("expansivity_certificate", lambda: [
            x for x in vars(pwlab.expansivity_certificate(phi, a, f, horizon=n)).values() if x is not None
        ]),
    ]
    if abs(c) < 1.0:  # the envelope needs a contracting symbol
        calls.append(("cesaro_lower_envelope", lambda: pwlab.cesaro_lower_envelope(phi, f, n)))
    if c != 1.0:  # a pseudotrajectory needs the fixed point
        calls.append(("shadowing_divergence", lambda: np.concatenate(
            pwlab.shadowing_divergence(pwlab.build_pseudotrajectory(phi, a, f, 0.1, n), g)
        )))
    return calls


def edge_sweep(half_width, seed=SEED + 90, n=4):
    """Every entry point on the edge grid at one window half width; returns (calls, typed errors).

    c in {+-1, +-1/2, 1/4, 0.9, 1e-3} (compose_apply's coset route and its
    fallback), a Im d within 0.01 on either side of the kernel limit
    OVERFLOW_EXPONENT = 300 and of the orbit's 150 (2 a |Im d_n| <= 300), and
    one a |Re d| at twice core._REAL_RANGE = 2^511; orbits run to n.  A call
    passes if it returns finite numbers or raises a PwLabError; anything else
    (a plain ValueError other than a seed that vanishes at its fixed point, a
    non-finite value, or a RuntimeWarning where warnings are errors) fails.
    """
    a = 1.3
    rng = np.random.default_rng(seed)
    f = pwlab.rough_probe(a, half_width, rng)
    g = pwlab.rough_probe(a, half_width, rng)
    g = pwlab.scaled(g, 0.04 / g.norm())
    F = pwlab.to_l2(f, max(64, 4 * half_width))
    limit = pwlab.OVERFLOW_EXPONENT
    edges = [0.3 + 1j * sign * (e + step) / a for e in (limit / 2, limit) for step in (-0.01, 0.01) for sign in (1.0, -1.0)]
    calls = raised = 0
    for c in (1.0, -1.0, 0.5, -0.5, 0.25, 0.9, 1e-3):
        for d in [0.3] + edges + [2.0 * core._REAL_RANGE / a]:
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
                    # where the seed has decayed to at most sum|v| 2^-511, far below
                    # pw_eval's rounding bound eps sum|v| there
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

    def test_limits_follow_the_float_format(self):
        # a square takes e^(2 OVERFLOW_EXPONENT) = e^600, which leaves e^109.8 of the float range for the
        # factor pi/(a |c|) (sum|v|)^2 of a closed pairing; the real range is 2^511, half of sqrt(2^max_exp)
        assert 109.7 < math.log(sys.float_info.max) - 2.0 * pwlab.OVERFLOW_EXPONENT < 109.8
        assert core._REAL_RANGE == 2.0**511


def _budget_calls():
    """(what, make) for each memory-guarded entry point: make(size) builds the inputs and returns the call at size.

    The orbit's callers (cesaro_averages, expansivity_certificate) share orbit_norms' guard.
    Each entry point runs at its most expensive route per entry: compose_apply's one FFT at c = 1 on a
    window as wide as the target, its cosets on a grown window and its cardinal series at c = 0.9; a
    lag table with a row per n (Im d_n distinct at c = 0.999) for the gram and, on a rough seed, for
    the pairing points; and the section's cosets and its row-per-class route.
    """
    a = 1.0
    rng = np.random.default_rng(SEED)
    node, rough = pwlab.node_function(a, 4), pwlab.rough_probe(a, 64, rng)
    slow = AffineSymbol(0.999, 0.3 + 1e-3j)
    return [
        ("window half width", lambda n: lambda: pwlab.rough_probe(a, n, rng)),
        ("window half width", lambda n: lambda: pwlab.node_function(a, n)),
        ("window half width", lambda n: lambda: pwlab.smooth_probe(a, n, rng)),
        ("kernel points", lambda n: lambda z=pwlab.grid(a, n): pwlab.PwFunction(a, pwlab.kernel_eval(a, 0.3 + 0.2j, z))),
        ("window half width", lambda n: lambda: pwlab.grid(a, n)),
        # complex targets in two blocks: past core._BLOCK_ENTRIES samples a block is one row
        ("cardinal series samples", lambda n: lambda f=pwlab.PwFunction(a, np.ones(2 * n + 1)):
            pwlab.pw_eval(f, np.array([0.3, 1.7]) + 0.2j)),
        # the orbit's autocorrelation: 4N + 1 series samples, guarded before it is formed
        ("cardinal series samples", lambda n: lambda f=pwlab.PwFunction(a, np.ones(2 * n + 1)):
            pwlab.orbit_norms(AffineSymbol(0.5, 0.3 + 0.2j), a, f, 3)),
        ("target window half width", lambda n: lambda f=pwlab.rough_probe(a, n, rng):
            pwlab.compose_apply(AffineSymbol(1.0, 0.3 + 0.2j), f)),
        ("target window half width", lambda n: lambda f=pwlab.rough_probe(a, n, rng):
            pwlab.compose_apply(AffineSymbol(-0.5, 0.3 + 0.2j), f, grow=True)),
        ("target window half width", lambda n: lambda: pwlab.compose_apply(AffineSymbol(0.9, 0.3 + 0.2j), node, n)),
        ("boundary count", lambda n: lambda: pwlab.spectrum_closed_form(AffineSymbol(0.5, 1j), a).boundary_samples(n)),
        ("boundary count", lambda n: lambda: pwlab.spectrum_closed_form(AffineSymbol(1.0, 1j), a).boundary_samples(n)),
        ("grid points", lambda n: lambda f=pwlab.rough_probe(a, (n - 1) // 2, rng): pwlab.to_l2(f, n)),
        ("orbit horizon", lambda n: lambda: pwlab.orbit_norms(AffineSymbol(-1.0, 0.3 + 1e-3j), a, node, n)),
        ("orbit horizon", lambda n: lambda: pwlab.cesaro_lower_envelope(AffineSymbol(1.0 - 2.0**-20, 0.3), node, n)),
        ("orbit weight entries", lambda n: lambda F=pwlab.to_l2(node, 64):
            pwlab.orbit_norms_fourier(AffineSymbol(-1.0, 0.3 + 1e-3j), F, n)),
        ("pseudotrajectory gram entries", lambda n: lambda: pwlab.build_pseudotrajectory(slow, a, node, 0.1, n)),
        ("pairing points", lambda n: lambda: pwlab.build_pseudotrajectory(slow, a, rough, 0.1, n)),
        ("section of", lambda n: lambda: pwlab.build_matrix(AffineSymbol(0.5, 0.3 + 0.2j), a, n)),
        ("section of", lambda n: lambda: pwlab.build_matrix(AffineSymbol(0.9, 0.3 + 0.2j), a, n)),
    ]


def _traced(call):
    """(peak bytes traced while call() runs, the OverflowGuardError it raised or None)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        call()
        err = None
    except OverflowGuardError as exc:
        err = exc
    peak = tracemalloc.get_traced_memory()[1] - base
    if started:
        tracemalloc.stop()
    return peak, err


class _Admitted(Exception):
    """Raised in place of the rest of a call once its named memory guard has passed."""


def _largest_admitted(what, make):
    """The largest size whose call passes the memory guard named what, by doubling and then bisection.

    Each probe stops where that guard passes: the real core._guard_size, wrapped
    in every module that binds it, raises _Admitted after a memory guard whose
    name starts with what returns.  A probe that raises OverflowGuardError
    first is refused.
    """
    real = core._guard_size

    def guard(size, name, per_entry=None):
        real(size, name, per_entry)
        if per_entry is not None and name.startswith(what):
            raise _Admitted

    def admitted(n):
        try:
            make(n)()
        except OverflowGuardError:
            return False
        except _Admitted:
            pass
        return True

    modules = [m for name, m in sys.modules.items() if name.startswith("pwlab") and getattr(m, "_guard_size", None) is real]
    for module in modules:
        module._guard_size = guard
    try:
        lo, hi = 1, 2
        while admitted(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    finally:
        for module in modules:
            module._guard_size = real
    return lo


def budget_sweep(budget):
    """Every memory-guarded entry point at the largest size a budget of budget bytes admits and one past it.

    core._MAX_BYTES is budget for the sweep.  The first call peaks (tracemalloc) within the
    budget; the second raises OverflowGuardError naming what, having traced less than an
    eighth of it.  Returns (what, size, peak) for each entry point.
    """
    saved, core._MAX_BYTES = core._MAX_BYTES, budget
    rows = []
    try:
        for what, make in _budget_calls():
            n = _largest_admitted(what, make)
            peak, err = _traced(make(n))
            assert err is None and peak <= budget, (what, n, peak, budget)
            past, err = _traced(make(n + 1))
            assert err is not None and str(err).startswith(what) and past < budget / 8, (what, n, past, err)
            rows.append((what, n, peak))
    finally:
        core._MAX_BYTES = saved
    return rows


class TestBudget:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_each_guard_holds_its_peak_within_the_budget(self):
        # the workspace and 4 MiB: wide enough that every call's entries, not only its blocks, count
        budget_sweep(core._WORKSPACE + (4 << 20))

    def test_kernel_command_refuses_before_its_grid(self, monkeypatch, capsys):
        # one past kernel_eval's 73 bytes a point under CI's 256 MiB budget: pwlab kernel used to
        # build the grid (about a fifth of the budget) before kernel_eval refused its points
        budget = 256 << 20
        monkeypatch.setattr(core, "_MAX_BYTES", budget)
        n = ((budget - core._WORKSPACE) // 73 - 1) // 2 + 1
        argv, codes = ["--half-width", str(n), "kernel", "--a", "1", "--w", "0"], []
        peak, _ = _traced(lambda: codes.append(pwlab.cli.main(argv)))
        assert codes == [pwlab.cli.EXIT_OVERFLOW] and capsys.readouterr().err.startswith(
            f"overflow guard: kernel points {2 * n + 1:.3g}")
        assert peak < budget / 8, peak / budget


class TestSizeCaps:
    def test_sizes_past_their_caps_raise_before_allocating(self):
        # at 10^15 any allocation would fail with a MemoryError; each call raises first
        huge = 10**15
        rng = np.random.default_rng(SEED)
        f = pwlab.node_function(1.0, 4)
        # |c| = 1 with real d keeps every iterate in range, so only the horizon cap stops it
        phi = AffineSymbol(-1.0, 0.3)
        cases = {
            "window half width": [
                lambda: pwlab.smooth_probe(1.0, huge, rng),
                lambda: pwlab.rough_probe(1.0, huge, rng),
                lambda: pwlab.node_function(1.0, huge),
                lambda: pwlab.PwFunction(1.0, pwlab.kernel_eval(1.0, 1j, pwlab.grid(1.0, huge))),
                lambda: pwlab.grid(1.0, huge),
            ],
            # a view of one float: kernel_eval counts the points before it converts them
            "kernel points": [lambda: pwlab.kernel_eval(1.0, 1j, np.broadcast_to(0.0, (huge,)))],
            "boundary count": [
                lambda c=c: pwlab.spectrum_closed_form(AffineSymbol(c, 1j), 1.0).boundary_samples(huge)
                for c in (-1.0, 0.5, 1.0)
            ],
            # a horizon, grid or window of as many entries as the budget has bytes passes it
            "orbit horizon": [
                lambda: pwlab.orbit_norms(phi, 1.0, f, huge),
                lambda: pwlab.orbit_norms(phi, 1.0, f, core._MAX_BYTES),
                lambda: pwlab.orbit_norms_fourier(phi, pwlab.to_l2(f, 64), huge),
                lambda: pwlab.cesaro_averages(phi, 1.0, f, huge),
                # the horizon cap fires before the range guard that c^n = 0 would trip
                lambda: pwlab.cesaro_lower_envelope(AffineSymbol(0.5, 0.3), pwlab.node_function(1.0, 8), huge),
            ],
            "radius horizon": [lambda: pwlab.spectral_radius_estimate(AffineSymbol(0.5, 1j), 1.0, 4, huge)],
            "witness horizon": [lambda: pwlab.compactness_witness(AffineSymbol(0.5, 1j), 1.0, huge)],
            # at (0.5, 0) the budget fires before the range guard
            "pseudotrajectory gram entries": [
                lambda: pwlab.build_pseudotrajectory(phi, 1.0, f, 0.1, math.isqrt(core._MAX_BYTES)),
                lambda: pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.0), 1.0, f, 0.1, huge),
            ],
            "orbit weight entries": [
                lambda: pwlab.orbit_norms_fourier(phi, pwlab.to_l2(f, 1 << 16), core._MAX_BYTES >> 16),
            ],
            # the budget is checked in Python integers, before the section's index arrays exist
            "section of": [
                lambda: pwlab.build_matrix(AffineSymbol(0.5, 0.0), 1.0, huge),
                lambda: pwlab.build_matrix(AffineSymbol(0.9, 0.3), 1.0, huge),
            ],
            "grid points": [
                lambda: pwlab.to_l2(f, huge),
                lambda: pwlab.to_l2(f, core._MAX_BYTES),
            ],
        }
        for what, calls in cases.items():
            for call in calls:
                with pytest.raises(OverflowGuardError, match=what):
                    call()


TINY = pwlab.rough_probe(1e-30, 4, np.random.default_rng(0))
ONE = pwlab.rough_probe(1.0, 4, np.random.default_rng(0))
HUGE = pwlab.PwFunction(1.0, np.full(5, 1e200))

# (id, call, type, message): a call is a function or a pwlab command line; a
# command line's "type" is its exit code, and its message is read on stderr
INPUT_CHECKS = [
    ("symbol d not finite", lambda: AffineSymbol(0.5, complex(0.0, np.inf)), AdmissibilityError, "d must be finite"),
    ("orbit norms negative", lambda: dynamics.OrbitTrace(np.array([1.0, -0.5])), ValueError,
     "finite nonnegative sequence"),
    ("orbit norms not finite", lambda: dynamics.OrbitTrace(np.array([1.0, np.nan])), ValueError,
     "finite nonnegative sequence"),
    ("pseudotrajectory n_max", lambda: pwlab.build_pseudotrajectory(
        AffineSymbol(0.5, 0.0), 1.0, pwlab.node_function(1.0, 4), 0.1, -1), ValueError,
     "pseudotrajectory horizon must be an integer >= 0"),
    ("to_l2 one point", lambda: pwlab.to_l2(pwlab.node_function(1.0, 0), 1), ValueError,
     "grid points must be an integer >= 2"),
    ("node outside the window", lambda: pwlab.node_function(1.0, 4, -5), ValueError, "node must be an integer >= -4"),
    ("node past the window", lambda: pwlab.node_function(1.0, 4, 5), ValueError, "node must be an integer <= 4"),
    ("smooth probe half width", lambda: pwlab.smooth_probe(1.0, -1, np.random.default_rng(SEED)), ValueError,
     "window half width must be an integer >= 0"),
    ("rough probe half width", lambda: pwlab.rough_probe(1.0, 2.5, np.random.default_rng(SEED)), ValueError,
     "window half width must be an integer >= 0"),
    ("node function half width", lambda: pwlab.node_function(1.0, -1), ValueError,
     "window half width must be an integer >= 0"),
    ("kernel window half width", lambda: pwlab.PwFunction(1.0, pwlab.kernel_eval(1.0, 0.5, pwlab.grid(1.0, -1))), ValueError,
     "window half width must be an integer >= 0"),
    ("section half width", lambda: pwlab.build_matrix(AffineSymbol(0.5, 0.0), 1.0, 0), ValueError,
     "section half width must be an integer >= 1"),
    # each used to return inf or NaN: the sum of products of samples of 1e200 is past the float range
    ("inner product overflow", lambda: pwlab.inner_product(HUGE, HUGE), OverflowGuardError,
     r"inner product .* x 2\^1330 passes the float range"),
    ("composed inner product overflow", lambda: pwlab.composed_inner_product(
        AffineSymbol(0.5, 0.0), HUGE, AffineSymbol(0.5, 0.0), HUGE), OverflowGuardError, "passes the float range"),
    ("L2 inner product overflow", lambda: pwlab.to_l2(HUGE, 16).inner(pwlab.to_l2(HUGE, 16)), OverflowGuardError,
     "passes the float range"),
    # ||C_phi^5 f|| = 2^(5/2) ||f|| = 2.2e308: the squares of |F| stay in range on |F| / 2^e, the root does not
    ("Fourier orbit overflow", lambda: pwlab.orbit_norms_fourier(
        AffineSymbol(0.5, 0.0), pwlab.to_l2(pwlab.PwFunction(1.0, np.full(5, 1e307)), 64), 5), OverflowGuardError,
     r"Fourier-side root .* x 2\^\d+ passes the float range"),
    # the exponent guards pass, but the square of samples of 1e200 is past the float range
    ("composed norm overflow", lambda: pwlab.composed_norm(
        AffineSymbol(0.5, 0.3), pwlab.scaled(pwlab.node_function(1.0, 4), 1e200)), OverflowGuardError,
     "squared norm rounds to inf, outside"),
    # pi/a past 2^128 (core._SPACING_RANGE): a bandwidth of 1e-308 is refused where it is given,
    # before a norm, grid or pairing forms pi/a = inf
    ("tiny bandwidth norm", lambda: pwlab.PwFunction(1e-308, np.ones(9)).norm(), OverflowGuardError,
     "node spacing pi/a inf > 3.40282e"),
    ("tiny bandwidth orbit", lambda: pwlab.orbit_norms(
        AffineSymbol(0.5, 0.3), 1e-308, pwlab.rough_probe(1e-308, 4, np.random.default_rng(0)), 3), OverflowGuardError,
     "node spacing pi/a"),
    ("tiny bandwidth composed norm", lambda: pwlab.composed_norm(
        AffineSymbol(0.5, 0.3), pwlab.rough_probe(1e-308, 4, np.random.default_rng(0))), OverflowGuardError,
     "node spacing pi/a"),
    # a |c1| underflows to 0 (a = 1e-30, c = 1e-300) or pi/(a |c1|) past the float range (c = 5e-324):
    # the closed pairing's factor is refused before it is formed
    ("pairing factor underflow", lambda: pwlab.composed_inner_product(
        AffineSymbol(1e-300, 0.0), TINY, AffineSymbol(1e-300, 0.0), TINY), OverflowGuardError,
     r"pairing factor pi/\(a \|c1\|\) inf > 8\.98847e\+307"),
    ("pairing factor underflow norm", lambda: pwlab.composed_norm(AffineSymbol(1e-300, 0.0), TINY),
     OverflowGuardError, r"pairing factor pi/\(a \|c1\|\) inf"),
    ("pairing factor overflow", lambda: pwlab.composed_inner_product(
        AffineSymbol(5e-324, 0.0), ONE, AffineSymbol(5e-324, 0.0), ONE), OverflowGuardError,
     r"pairing factor pi/\(a \|c1\|\) inf"),
    ("pairing factor overflow norm", lambda: pwlab.composed_norm(AffineSymbol(5e-324, 0.0), ONE),
     OverflowGuardError, r"pairing factor pi/\(a \|c1\|\) inf"),
    ("norm past the float range", lambda: pwlab.PwFunction(1.0, np.full(9, 1e308)).norm(), OverflowGuardError,
     "norm inf > "),
    # every entry is in range, but the norm 3e308 of the 3 x 3 matrix of 1e308 is not
    ("section norm overflow", lambda: pwlab.operator_norm_estimate(pwlab.OperatorMatrix(np.full((3, 3), 1e308))),
     OverflowGuardError, "passes the float range"),
    ("radius horizon", lambda: pwlab.spectral_radius_estimate(AffineSymbol(0.5, 1j), 1.0, 4, 0), ValueError,
     "radius horizon must be an integer >= 1"),
    ("witness horizon", lambda: pwlab.compactness_witness(AffineSymbol(0.5, 1j), 1.0, 0), ValueError,
     "witness horizon must be an integer >= 1"),
    ("cli seed literal", ["--seed", "0xZZ", "classify", "--a", "1", "--c", "0.5", "--d", "0"], EXIT_INVALID_CONFIG,
     "cannot parse integer '0xZZ'"),
    ("cli half width", ["--half-width", "-1", "kernel", "--a", "1", "--w", "0"], EXIT_INVALID_CONFIG,
     "window half width must be an integer >= 0"),
]


class TestInputChecks:
    @pytest.mark.parametrize("call, kind, message", [row[1:] for row in INPUT_CHECKS],
                             ids=[row[0] for row in INPUT_CHECKS])
    def test_typed_error_and_message(self, call, kind, message, capsys):
        if isinstance(call, list):
            assert pwlab.cli.main(call) == kind
            assert message in capsys.readouterr().err
            return
        with pytest.raises(kind, match=message):
            call()

    def test_expansivity_cap_missed(self, monkeypatch):
        # favourable tails of 2 put the doubling bound at n = 0, so the cap is 1; a unit
        # orbit of (0.5, 0.01i) is near sqrt 2 at n = 1 and cannot reach 2 within it
        monkeypatch.setattr(dynamics, "_favourable_tails", lambda f, imd: (np.array([2.0]), np.array([0.0])))
        with pytest.raises(PwLabError, match="no doubling within the cap 1 "):
            pwlab.expansivity_certificate(AffineSymbol(0.5, 0.01j), 1.0, pwlab.node_function(1.0, 4))

    def test_norm_outside_the_normal_range_of_its_squares(self):
        # 9 samples of 1e300 have a sum of squares past the float range and of 1e-200 one below it,
        # yet both norms, 3 sqrt(pi) times the sample, are normal floats, and so are their Fourier
        # images' (the L2 norm used to read 0.0 or inf); the smallest bandwidth admitted,
        # pi/a = 2^128, keeps every norm and grid finite
        for sample in (1e300, 1e-200, 1e200, 1e300 - 1e300j):
            f = pwlab.PwFunction(1.0, np.full(9, sample))
            expected = 3.0 * math.sqrt(math.pi) * abs(sample)
            for norm in (f.norm(), pwlab.to_l2(f, 16).norm()):
                assert abs(norm - expected) <= 4 * np.finfo(float).eps * expected, sample
        # ||v|| = sqrt(5) 1e307 passes the float range, yet both norms are in range: the Fourier
        # side's weight dt = 2a/M < 1 scales the rescaled root before it leaves the range
        f = pwlab.PwFunction(1.0, np.full(5, 1e307))
        expected = math.sqrt(5.0 * math.pi) * 1e307
        for norm in (f.norm(), pwlab.to_l2(f, 64).norm()):
            assert abs(norm - expected) <= 4 * np.finfo(float).eps * expected
        a = math.pi / 2.0**128
        f = pwlab.PwFunction(a, np.ones(9))
        assert f.norm() == 3.0 * 2.0**64 and np.all(np.isfinite(f.grid()))
        with pytest.raises(OverflowGuardError, match="node spacing"):
            pwlab.grid(math.nextafter(a, 0.0), 4)

    def test_norm_of_subnormal_samples(self):
        # the rescaled sum used to divide by the largest part, 2e-320, whose complex reciprocal
        # overflows: the norm read NaN, and the Fourier image's raised "norm inf".  Both now sum on
        # the samples times 2^1062, exactly, and land within the subnormal rounding 2^-1074 of
        # sqrt(pi/a) ||v||
        f = pwlab.PwFunction(1.0, [1e-320, 2e-320, 0])
        expected = math.sqrt(math.pi) * math.hypot(math.ldexp(1e-320, 1074), math.ldexp(2e-320, 1074))
        for norm in (f.norm(), pwlab.to_l2(f, 16).norm()):
            assert math.isfinite(norm) and abs(math.ldexp(norm, 1074) - expected) <= 1.0

    def test_fourier_squares_outside_the_normal_range(self):
        # samples of 1e200 used to square |F| past the float range (OrbitTrace's plain ValueError, an
        # envelope of inf) and of 1e-200 to underflow it to exact zeros; both now scale the unit
        # result, and a result in range keeps the bits of the plain sum of squares
        phi = AffineSymbol(0.5, 1j)
        unit = pwlab.PwFunction(1.0, np.ones(5))
        F = pwlab.to_l2(unit, 64)
        c, y = dynamics._orbit_parts(phi, 1.0, 3)
        plain = np.sqrt(np.exp(-2.0 * np.outer(y, F.grid())) @ (np.abs(F.values) ** 2 * (2.0 / 64)) / c)
        assert pwlab.orbit_norms_fourier(phi, F, 3).norms.tobytes() == plain.tobytes()
        for trace in (lambda f: pwlab.orbit_norms_fourier(phi, pwlab.to_l2(f, 64), 3).norms,
                      lambda f: pwlab.cesaro_lower_envelope(phi, f, 3)):
            for scale in (1e200, 1e-200):
                out = trace(pwlab.PwFunction(1.0, np.full(5, scale)))
                assert np.all(np.abs(out / (trace(unit) * scale) - 1.0) <= 4 * np.finfo(float).eps), scale

    def test_inner_products_past_the_float_range(self):
        # products of 2^1030 overflow, yet they cancel and leave pi 2^980, in range; a value
        # in range on the plain sum keeps its bits
        f = pwlab.PwFunction(1.0, np.full(3, 2.0**1000))
        g = pwlab.PwFunction(1.0, np.array([2.0**30, -(2.0**30), 2.0**-20]))
        ident = AffineSymbol(1.0, 0.0)
        assert pwlab.inner_product(f, g) == pwlab.composed_inner_product(ident, f, ident, g) == math.pi * 2.0**980
        g = pwlab.rough_probe(1.0, 4, np.random.default_rng(1))
        assert pwlab.inner_product(ONE, g) == math.pi * complex(np.sum(ONE.samples * np.conj(g.samples)))

    def test_envelope_past_the_float_range(self):
        # m = 1.3e306 carries the envelope at (0.999, 0.3 + 0.4i) past the float range from n = 5 on,
        # where it read inf; a seed at 1e300 stays in range, and its envelope is the unit seed's times 1e300
        phi = AffineSymbol(0.999, 0.3 + 0.4j)
        with pytest.raises(OverflowGuardError, match="envelope at n = 5 passes the float range"):
            pwlab.cesaro_lower_envelope(phi, pwlab.PwFunction(math.pi, [0, 1e307, 0]), 12)
        env = pwlab.cesaro_lower_envelope(phi, pwlab.PwFunction(math.pi, [0, 1e300, 0]), 12)
        unit = pwlab.cesaro_lower_envelope(phi, pwlab.PwFunction(math.pi, [0, 1.0, 0]), 12)
        assert np.all(np.abs(env / (unit * 1e300) - 1.0) <= 4 * np.finfo(float).eps)

    def test_coset_kernel_at_a_subnormal_offset(self):
        # d = 5e-324 (real or imaginary) makes delta_r subnormal for the coset r = 0, where the kernel's
        # reciprocal 1/delta_r overflowed: a RuntimeWarning under the warning filter, else samples of inf
        # ("samples must be finite").  That entry is sinc(delta_r) = 1; the result is the direct sinc sum
        # to rounding, and a kernel with no subnormal offset keeps its bits
        x = pwlab.grid(1.0, 4)
        for c in (0.5, -1.0, 0.25):
            for d in (5e-324j, -5e-324j, 5e-324, complex(5e-324, 5e-324)):
                phi = AffineSymbol(c, d)
                for f in (pwlab.PwFunction(1.0, np.ones(9)), pwlab.rough_probe(1.0, 4, np.random.default_rng(SEED + 9))):
                    got = pwlab.compose_apply(phi, f).samples
                    ref = where_sinc(1.0 * (phi(x)[:, None] - x)) @ f.samples
                    assert np.all(np.abs(got - ref) <= 1e-14 * np.sum(np.abs(f.samples))), (c, d)
        j, mu, delta = np.arange(-6, 7), np.array([0.0, 1.0]), np.array([0.3, -0.2j])
        sine = np.sin(delta) * [1.0, -1.0]
        plain = np.reciprocal(np.pi * (j + mu[:, None]) + delta[:, None])
        plain[:, 1::2] *= -1.0
        plain *= sine[:, None]
        assert core._coset_kernels(np.arange(2), j, mu, delta, sine, 1)[1].tobytes() == plain.tobytes()

    def test_cardinal_series_past_the_float_range(self):
        # samples of 1e300 at a = 1e3 and Im z = -0.2 carry e^200: the value passes the float range,
        # where the sum read -inf + inf i.  Samples of 1.5e308 whose far terms all share one sign overflow
        # the plain sum (inf + nan i), though near node 0 their sine takes them back into range: the sum
        # formed on the samples / 2^1024 and scaled back exactly is the direct sinc sum's to rounding.  A
        # sum in range keeps its bits
        with pytest.raises(OverflowGuardError, match="cardinal series value .* passes the float range"):
            pwlab.pw_eval(pwlab.PwFunction(1e3, 1e300 * np.ones(5)), 3 - 0.2j)
        k = np.arange(-8, 9)
        v = (-1.0) ** k * -np.sign(k) * 1.5e308
        v[8] = 1.0
        z = np.array([1e-3, -2e-3 + 1e-3j, 0.5])
        got = pwlab.pw_eval(pwlab.PwFunction(1.0, v), z)
        scaled = np.ldexp(v, -1024)
        ref = where_sinc(z[:, None] - pwlab.grid(1.0, 8)) @ scaled
        assert np.all(np.abs(np.ldexp(got.view(float), -1024).view(complex) - ref) <= 1e-15 * np.sum(np.abs(scaled)))
        g = pwlab.rough_probe(1.0, 4, np.random.default_rng(SEED + 10))
        assert np.array_equal(pwlab.pw_eval(g, z), core._cardinal(1.0, z, g.samples))

    def test_accepted_edge_inputs(self):
        # a complex slope with zero imaginary part is the real slope
        phi = AffineSymbol(complex(0.5, 0.0), 1j)
        assert type(phi.c) is float and phi == AffineSymbol(0.5, 1j)
        # the inner product pads whichever window is narrower, so the order only conjugates
        rng = np.random.default_rng(SEED)
        wide, narrow = pwlab.rough_probe(1.0, 8, rng), pwlab.rough_probe(1.0, 3, rng)
        assert pwlab.inner_product(wide, narrow) == pwlab.inner_product(narrow, wide).conjugate()


P = pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.3), 1.0, pwlab.node_function(1.0, 4), 0.1, 3)
F64 = pwlab.to_l2(pwlab.node_function(1.0, 4), 64)
NODE = pwlab.node_function(1.0, 4)
# (what, least, an accepted value, call): every count of the public API, as core._count names it
COUNTS = {
    "grid half_width": ("window half width", 0, 3, lambda n: pwlab.grid(1.0, n)),
    "compose_apply half_width": ("target window half width", 0, 3,
                                 lambda n: pwlab.compose_apply(AffineSymbol(0.5, 0.3), NODE, half_width=n)),
    "iterate n": ("iterate order", 0, 3, lambda n: AffineSymbol(0.5, 0.3).iterate(n)),
    "to_l2 m_points": ("grid points", 2, 16, lambda n: pwlab.to_l2(NODE, n)),
    "from_l2 half_width": ("window half width", 0, 3, lambda n: pwlab.from_l2(F64, n)),
    "build_matrix half_width": ("section half width", 1, 3, lambda n: pwlab.build_matrix(AffineSymbol(0.5, 0.3), 1.0, n)),
    "norm_closed n": ("norm power n", 1, 3, lambda n: pwlab.norm_closed(AffineSymbol(0.5, 0.3j), 1.0, n)),
    "spectral_radius_estimate half_width": ("section half width", 1, 3,
                                            lambda n: pwlab.spectral_radius_estimate(AffineSymbol(0.5, 0.3), 1.0, n, 1)),
    "spectral_radius_estimate n_max": ("radius horizon", 1, 2,
                                       lambda n: pwlab.spectral_radius_estimate(AffineSymbol(0.5, 0.3), 1.0, 3, n)),
    "compactness_witness n_max": ("witness horizon", 1, 3, lambda n: pwlab.compactness_witness(AffineSymbol(0.5, 1j), 1.0, n)),
    "boundary_samples count": ("boundary count", 1, 3,
                               lambda n: pwlab.spectrum_closed_form(AffineSymbol(0.5, 0.0), 1.0).boundary_samples(n)),
    "orbit_norms n_max": ("orbit horizon", 0, 3, lambda n: pwlab.orbit_norms(AffineSymbol(0.5, 0.3), 1.0, NODE, n)),
    "orbit_norms_fourier n_max": ("orbit horizon", 0, 3, lambda n: pwlab.orbit_norms_fourier(AffineSymbol(0.5, 0.3), F64, n)),
    "cesaro_averages n_max": ("orbit horizon", 1, 3, lambda n: pwlab.cesaro_averages(AffineSymbol(0.5, 0.3), 1.0, NODE, n)),
    "cesaro_lower_envelope n_max": ("orbit horizon", 1, 3, lambda n: pwlab.cesaro_lower_envelope(AffineSymbol(0.5, 0.3), NODE, n)),
    # an expansive symbol, whose certificate never traces the horizon
    "expansivity_certificate horizon": ("orbit horizon", 0, 3,
                                        lambda n: pwlab.expansivity_certificate(AffineSymbol(0.5, 0.3), 1.0, NODE, horizon=n)),
    "build_pseudotrajectory n_max": ("pseudotrajectory horizon", 0, 3,
                                     lambda n: pwlab.build_pseudotrajectory(AffineSymbol(0.5, 0.3), 1.0, NODE, 0.1, n)),
    "shadowing_divergence n_max": ("divergence horizon", 1, 3, lambda n: pwlab.shadowing_divergence(P, NODE, n)),
    "smooth_probe half_width": ("window half width", 0, 3,
                                lambda n: pwlab.smooth_probe(1.0, n, np.random.default_rng(SEED))),
    "rough_probe half_width": ("window half width", 0, 3, lambda n: pwlab.rough_probe(1.0, n, np.random.default_rng(SEED))),
    "node_function half_width": ("window half width", 0, 3, lambda n: pwlab.node_function(1.0, n)),
    "node_function node": ("node", -4, -2, lambda n: pwlab.node_function(1.0, 4, n)),
}


class TestCounts:
    @pytest.mark.parametrize("what, least, good, call", COUNTS.values(), ids=list(COUNTS))
    def test_count_rule(self, what, least, good, call):
        # a fraction, one below the least, a string and an integral float all raise by name
        for bad in (2.5, least - 1, "4", np.float64(3.0)):
            with pytest.raises(ValueError, match=f"{what} must be an integer >= {least}, got "):
                call(bad)
        # numpy integers are integers
        call(np.int64(good))
        call(good)

    def test_one_bandwidth_rule(self):
        # every operation on two operands of different bandwidths raises by one message
        f, g, phi = NODE, pwlab.node_function(2.0, 4), AffineSymbol(0.5, 0.3)
        calls = [
            lambda: pwlab.inner_product(f, g),
            lambda: pwlab.composed_inner_product(phi, f, phi, g),
            lambda: pwlab.to_l2(f, 16).inner(pwlab.to_l2(g, 16)),
            lambda: pwlab.orbit_norms(phi, 2.0, f, 3),
            lambda: pwlab.expansivity_certificate(phi, 2.0, f),
            lambda: pwlab.build_pseudotrajectory(phi, 2.0, f, 0.1, 3),
            lambda: pwlab.shadowing_divergence(P, g),
        ]
        for call in calls:
            with pytest.raises(pwlab.BandwidthMismatchError, match=r"bandwidths differ: [12]\.0 vs [12]\.0"):
                call()

    def test_count_rule_is_single(self):
        # no module tests a count's integrality or lower bound by hand: core._count does, for the
        # command line too; a new hand-written check fails here
        names = {"half_width", "n_max", "horizon", "count", "m_points", "node", "n"}

        def name(node):
            return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

        found = set()
        for path in sorted(Path(pwlab.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    integral = name(node) == "Integral"
                    int_test = isinstance(node, ast.Compare) and any(
                        isinstance(op, ast.NotEq) and isinstance(right, ast.Call) and name(right.func) == "int"
                        for op, right in zip(node.ops, node.comparators))
                    # n < 1, n <= 0, not 0 <= n: a count held to a constant from below
                    lower = isinstance(node, ast.Compare) and (
                        name(node.left) in names and isinstance(node.ops[0], (ast.Lt, ast.LtE))
                        and isinstance(node.comparators[0], ast.Constant)
                        or isinstance(node.left, ast.Constant) and isinstance(node.ops[0], (ast.Lt, ast.LtE))
                        and name(node.comparators[0]) in names)
                    if integral or int_test or lower:
                        found.add((path.stem, fn.name))
        assert found == {("core", "_count")}
