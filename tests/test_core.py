"""Sampling-model core: symbols, kernels, evaluation, products, composition."""

import math

import mpmath as mp
import numpy as np
import pytest

import pwlab
from pwlab import (
    AdmissibilityError,
    AffineSymbol,
    BandwidthMismatchError,
    OverflowGuardError,
    PwFunction,
    PwLabError,
)
from pwlab.core import _convolve, _fft_length, _sinc
from oracles import dense_pairing, direct_eval, fsum_eval, panel_inner_product, where_sinc

SEED = pwlab.DEFAULT_SEED

# 50-digit reference values (hyperbolic closed forms)
KERNEL_1_I_0 = 0.37407815819181338292
KERNEL_NORMSQ_1_I = 0.57723276181314057965
KERNEL_2_W_Z = 0.30037662865531851308 - 0.50733460461894020621j
KERNEL_NORMSQ_2_W = 0.74815631638362676584


class TestAffineSymbol:
    def test_admissibility(self):
        with pytest.raises(AdmissibilityError):
            AffineSymbol(0.0, 0.0)
        with pytest.raises(AdmissibilityError):
            AffineSymbol(1.5, 0.0)
        with pytest.raises(AdmissibilityError):
            AffineSymbol(-1.0001, 0.0)
        with pytest.raises(AdmissibilityError):
            AffineSymbol(0.5 + 0.1j, 0.0)
        with pytest.raises(AdmissibilityError):
            AffineSymbol(math.nan, 0.0)
        # boundary values are admitted
        AffineSymbol(1.0, 1j)
        AffineSymbol(-1.0, 2.0)
        AffineSymbol(1e-9, 0.0)

    def test_call_scalar_and_array(self):
        phi = AffineSymbol(0.5, 1.0 - 2j)
        assert phi(2.0) == 2.0 - 2j
        z = np.array([0.0, 1j, 3.0])
        np.testing.assert_allclose(phi(z), 0.5 * z + (1.0 - 2j))

    def test_iterate_matches_manual_composition(self):
        for c, d in [(0.5, 0.3 + 1j), (-0.5, 2.0), (1.0, 1j), (-1.0, 1.0 + 1j)]:
            phi = AffineSymbol(c, d)
            z = 0.7 - 0.2j
            manual = z
            for n in range(6):
                it = phi.iterate(n)
                assert abs(it(z) - manual) < 1e-12 * max(1.0, abs(manual))
                manual = phi(manual)

    def test_iterate_parts_are_bit_exact(self):
        # a row of _iterate_table, which iterate, norm_closed and the orbit pairings
        # read, against iterate and the closed form written out in Python float
        # and complex arithmetic
        for c in (1.0, -1.0, 0.5, -0.5, 0.25, 0.9, -0.3, 1e-3, 0.999999):
            for d in (0.0, 0.7, 1j, 1.0 + 1j, 0.3 - 250j, -2.0 + 0.05j):
                phi = AffineSymbol(c, d)
                for n in range(41):
                    parts = [column[0] for column in pwlab.core._iterate_table(phi.c, phi.d, (n,))]
                    assert type(parts[0]) is float and type(parts[1]) is complex
                    it = phi.iterate(n)
                    if n == 0:
                        closed = (1.0, 0j)
                    elif c == 1.0:
                        closed = (1.0, n * phi.d)
                    else:
                        closed = (c**n, phi.d * (1.0 - c**n) / (1.0 - c))
                    for ref in (closed, (it.c, it.d)):
                        assert np.array(parts[0]).tobytes() == np.array(ref[0]).tobytes()
                        assert np.array(parts[1]).tobytes() == np.array(ref[1]).tobytes()

    def test_iterate_identity_and_errors(self):
        phi = AffineSymbol(0.5, 1.0)
        it = phi.iterate(0)
        assert (it.c, it.d) == (1.0, 0.0)
        with pytest.raises(ValueError):
            phi.iterate(-1)

    def test_fixed_point(self):
        phi = AffineSymbol(0.5, 1j)
        alpha = phi.fixed_point()
        assert abs(phi(alpha) - alpha) < 1e-15
        assert abs(alpha - 2j) < 1e-15
        with pytest.raises(ValueError):
            AffineSymbol(1.0, 1j).fixed_point()


class TestGridAndFunction:
    def test_grid_values(self):
        a = 2.0
        x = pwlab.grid(a, 3)
        np.testing.assert_allclose(x, np.arange(-3, 4) * math.pi / a)
        assert x.size == 7

    def test_function_validation(self):
        with pytest.raises(ValueError):
            PwFunction(1.0, np.zeros(4))  # even length
        with pytest.raises(ValueError):
            PwFunction(-1.0, np.zeros(3))
        with pytest.raises(ValueError):
            PwFunction(1.0, np.array([0.0, math.inf, 0.0]))

    def test_bandwidth_outside_zero_inf_rejected(self):
        # one check of a in core: the grid, the kernels and every closed form
        # raise it, build_matrix calls it, and the probes and kernel windows reach it through grid
        phi, rng = AffineSymbol(0.5, 1j), np.random.default_rng(SEED)
        calls = [
            lambda a: pwlab.grid(a, 3),
            lambda a: pwlab.kernel_eval(a, 1.0, 0.5),
            lambda a: pwlab.kernel_norm_sq(a, 1.0),
            lambda a: pwlab.norm_closed(phi, a),
            lambda a: pwlab.spectral_radius_closed(phi, a),
            lambda a: pwlab.spectrum_closed_form(AffineSymbol(1.0, 1j), a),
            lambda a: pwlab.compactness_witness(phi, a, 3),
            lambda a: pwlab.build_matrix(AffineSymbol(0.5, 0.3), a, 4),
            lambda a: pwlab.smooth_probe(a, 4, rng),
            lambda a: PwFunction(a, pwlab.kernel_eval(a, 1.0, pwlab.grid(a, 3))),
        ]
        for call in calls:
            for a in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
                    call(a)

    def test_samples_are_immutable_copies(self):
        buf = np.ones(5, dtype=complex)
        f = PwFunction(1.0, buf)
        buf[0] = 7.0
        assert f.samples[0] == 1.0
        with pytest.raises(ValueError):
            f.samples[0] = 3.0

    def test_norm_is_parseval_sum(self):
        rng = np.random.default_rng(SEED)
        f = pwlab.rough_probe(2.0, 16, rng)
        expected = math.sqrt(math.pi / 2.0 * float(np.sum(np.abs(f.samples) ** 2)))
        assert abs(f.norm() - expected) < 1e-13 * expected


class TestKernels:
    def test_frozen_values(self):
        assert abs(pwlab.kernel_eval(1.0, 1j, 0.0) - KERNEL_1_I_0) < 1e-15
        assert abs(pwlab.kernel_norm_sq(1.0, 1j) - KERNEL_NORMSQ_1_I) < 1e-15
        assert abs(pwlab.kernel_eval(2.0, 0.5 - 0.25j, 1.5 + 1j) - KERNEL_2_W_Z) < 1e-15
        assert abs(pwlab.kernel_norm_sq(2.0, 0.5 - 0.25j) - KERNEL_NORMSQ_2_W) < 1e-15

    def test_values_vs_mpmath(self):
        mp.mp.dps = 50
        rng = np.random.default_rng(SEED + 1)
        for _ in range(20):
            a = float(rng.uniform(0.3, 4.0))
            w = complex(rng.normal(), rng.normal())
            z = complex(rng.normal(), rng.normal())
            u = mp.mpc(z) - mp.conj(mp.mpc(w))
            ref = mp.sin(a * u) / (mp.pi * u) if u != 0 else mp.mpf(a) / mp.pi
            got = pwlab.kernel_eval(a, w, z)
            assert abs(got - complex(ref)) < 1e-13 * max(1.0, abs(complex(ref)))

    def test_norm_sq_is_self_evaluation(self):
        for a, w in [(1.0, 0.5 + 0.7j), (math.pi, 2.0), (2.5, -1j)]:
            self_val = pwlab.kernel_eval(a, w, w)
            assert abs(self_val.imag) < 1e-14
            assert abs(pwlab.kernel_norm_sq(a, w) - self_val.real) < 1e-13

    def test_kernel_point_to_pw_on_lattice_is_node_indicator(self):
        # a node kernel samples to the indicator of its own node
        f = PwFunction(math.pi, pwlab.kernel_eval(math.pi, 3.0, pwlab.grid(math.pi, 8)))
        expected = np.zeros(17)
        expected[8 + 3] = 1.0
        np.testing.assert_allclose(f.samples, expected, atol=1e-15)

    def test_kernel_norm_guard(self):
        with pytest.raises(OverflowGuardError):
            pwlab.kernel_norm_sq(1.0, 1e9j)

    def test_kernel_norm_rejects_nan_and_infinite_points(self):
        # the point guard of every sinc sum: NaN is no point, infinity is out of range
        for w in (complex(0.0, math.nan), complex(math.nan, 0.0)):
            with pytest.raises(ValueError, match="NaN"):
                pwlab.kernel_norm_sq(1.0, w)
        for w in (complex(math.inf, 0.0), complex(0.0, -math.inf)):
            with pytest.raises(OverflowGuardError):
                pwlab.kernel_norm_sq(1.0, w)

    def test_kernel_eval_guard(self):
        with pytest.raises(OverflowGuardError):
            pwlab.kernel_eval(1.0, 0.0, 800j)
        with pytest.raises(OverflowGuardError):
            pwlab.kernel_eval(1.0, 800j, np.zeros(3))
        assert math.isfinite(abs(pwlab.kernel_eval(1.0, 250j, 0.0)))

    def test_kernel_eval_real_range_guard(self):
        # a (z - conj w) = -7e308 overflows to -inf; the guard bounds a |Re| first
        with pytest.raises(OverflowGuardError, match="evaluation range"):
            pwlab.kernel_eval(10.0, 1e308, 3e307)

    def test_kernel_eval_nan_point(self):
        with pytest.raises(ValueError, match="NaN") as info:
            pwlab.kernel_eval(1.0, 0, np.nan)
        assert not isinstance(info.value, OverflowGuardError)

    def test_kernel_eval_far_apart_points(self):
        # z - conj(w) overflows to inf: the range guard raises, numpy does not warn
        with pytest.raises(OverflowGuardError, match="evaluation range"):
            pwlab.kernel_eval(1.0, -1e308, 1e308)
        # inf - inf is NaN: a typed error, not numpy's invalid-value warning
        with pytest.raises(ValueError):
            pwlab.kernel_eval(1.0, np.inf, np.inf)

    def test_kernel_eval_far_off_close_points(self):
        # both points are far out but close together: no separate bound on each
        assert pwlab.kernel_eval(1.0, 1e300, 1e300) == 1.0 / math.pi

    def test_kernel_eval_far_on_the_real_line(self):
        # sinc's small-argument polynomial used to cube every u^2, overflowing from |u| ~ 1e52
        for u in (1e53, -1e100, 2.0**511):
            val = pwlab.kernel_eval(1.0, 0.0, u)
            assert abs(val) <= 1.0 / (math.pi * abs(u))


class TestEvaluation:
    def test_interpolates_at_nodes(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(20):
            a = float(rng.uniform(0.5, 4.0))
            f = pwlab.rough_probe(a, int(rng.integers(4, 40)), rng)
            budget = 4.0 * np.finfo(float).eps * float(np.sum(np.abs(f.samples)))
            err = np.max(np.abs(pwlab.pw_eval(f, f.grid()) - f.samples))
            assert err <= budget

    def test_matches_direct_series(self):
        rng = np.random.default_rng(SEED + 3)
        f = pwlab.rough_probe(1.5, 24, rng)
        z = rng.normal(size=64) * 30.0 + 1j * rng.normal(size=64)
        got = pwlab.pw_eval(f, z)
        ref = direct_eval(f.a, f.samples, z)
        scale = float(np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) < 1e-12 * scale

    def test_matches_compensated_summation(self):
        rng = np.random.default_rng(SEED + 4)
        f = pwlab.rough_probe(2.0, 32, rng)
        for z in (0.37, -5.1 + 0.4j, 12.0 - 2j):
            ref = fsum_eval(f.a, f.samples, z)
            assert abs(pwlab.pw_eval(f, z) - ref) < 1e-12 * max(1.0, abs(ref))

    def test_scalar_vs_array_shapes(self):
        f = pwlab.node_function(1.0, 4)
        v = pwlab.pw_eval(f, 0.3)
        assert isinstance(v, complex)
        arr = pwlab.pw_eval(f, np.array([0.3, 0.3]))
        assert arr.shape == (2,)
        assert abs(arr[0] - v) == 0.0
        mat = pwlab.pw_eval(f, np.full((3, 2), 0.3))
        assert mat.shape == (3, 2)

    def test_large_target_block(self):
        # three blocks of rows over a five-node window
        f = pwlab.node_function(1.0, 2)
        z = np.linspace(-10, 10, 2 * (pwlab.core._BLOCK_ENTRIES // 5) + 7)
        vals = pwlab.pw_eval(f, z)
        ref = direct_eval(f.a, f.samples, z)
        assert np.max(np.abs(vals - ref)) < 1e-13

    def test_evaluation_guard(self):
        f = pwlab.node_function(1.0, 4)
        with pytest.raises(OverflowGuardError):
            pwlab.pw_eval(f, 3.0 + 800j)
        with pytest.raises(OverflowGuardError):
            pwlab.pw_eval(f, np.array([0.0, 1.0 - 800j]))
        assert np.all(np.isfinite(pwlab.pw_eval(f, np.array([0.0, 1.0 + 250j]))))
        assert pwlab.pw_eval(f, np.empty(0)).shape == (0,)

    def test_nan_point_raises(self):
        f = pwlab.node_function(1.0, 2)
        with pytest.raises(ValueError, match="NaN"):
            pwlab.pw_eval(f, np.nan)
        with pytest.raises(ValueError, match="NaN"):
            pwlab.pw_eval(f, np.array([0.0, complex(0.0, np.nan)]))

    def test_real_range_guard(self):
        # a Re z = 3e308 overflows to inf before any sine is taken
        f = pwlab.rough_probe(10.0, 8, np.random.default_rng(SEED + 65))
        with pytest.raises(OverflowGuardError, match="evaluation range"):
            pwlab.pw_eval(f, 3e307)

    def test_squared_distance_range(self):
        # the complex route squares a (Re z - x_k): finite up to a |Re z| = 2^511,
        # guarded past it; the real route takes 1/x, and the guard holds for it too
        f = pwlab.rough_probe(10.0, 8, np.random.default_rng(SEED + 66))
        edge = 2.0**511 / f.a
        vals = pwlab.pw_eval(f, np.array([edge, -edge, edge + 1j]))
        assert np.all(np.abs(vals) < 1e-140)
        assert np.all(np.abs(pwlab.pw_eval(f, np.array([edge, -edge]))) < 1e-140)
        with pytest.raises(OverflowGuardError, match="evaluation range"):
            pwlab.pw_eval(f, 1.4e153)


def _kernel_budget(f, z):
    """1e-13 sum|v| e^{a |Im z|}: the rounding scale of the cardinal series at z."""
    return 1e-13 * float(np.sum(np.abs(f.samples))) * np.exp(f.a * np.abs(np.imag(z)))


# The two convolution engines, forced by monkeypatching core._DIRECT_TERMS:
# 0 puts every convolution above the bound (FFT), a huge count below it (direct sum)
ENGINES = {"fft": 0, "direct": 1 << 62}


def _engine_calls(monkeypatch):
    """Count the calls of np.fft.fft (FFT engine) and np.correlate (direct engine)."""
    calls = {"fft": 0, "direct": 0}

    def spy(fn, engine):
        def wrapped(*args, **kwargs):
            calls[engine] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.fft, "fft", spy(np.fft.fft, "fft"))
    monkeypatch.setattr(np, "correlate", spy(np.correlate, "direct"))
    return calls


def _fft_lengths(monkeypatch):
    """The lengths of the np.fft.fft calls made from here on, in order."""
    lengths = []
    fft = np.fft.fft

    def spy(*args, **kwargs):
        out = fft(*args, **kwargs)
        lengths.append(out.shape[-1])
        return out

    monkeypatch.setattr(np.fft, "fft", spy)
    return lengths


def _straddle(cosets):
    """Half widths N, N + 1 whose cosets (2N + 1)^2 terms lie at most, then past, _DIRECT_TERMS."""
    n = (math.isqrt(pwlab.core._DIRECT_TERMS // cosets) - 1) // 2
    assert cosets * (2 * n + 1) ** 2 <= pwlab.core._DIRECT_TERMS < cosets * (2 * n + 3) ** 2
    return n, n + 1


def _direct(f, z):
    """direct_eval at the 1-d z, in chunks of about 2^20 entries, so wide windows fit in memory."""
    chunks = np.array_split(z, 1 + z.size * f.samples.size // (1 << 20))
    return np.concatenate([direct_eval(f.a, f.samples, part) for part in chunks])


def _check_cardinal(f, z, fsum_points=3):
    """pw_eval at the 1-d z within _kernel_budget of direct_eval (fsum_eval at fsum_points of them); returns the largest share."""
    got = pwlab.pw_eval(f, z)
    use = np.abs(got - _direct(f, z)) / _kernel_budget(f, z)
    assert np.all(use <= 1.0)
    for j in np.linspace(0, z.size - 1, fsum_points).astype(int):
        assert abs(got[j] - fsum_eval(f.a, f.samples, z[j])) <= _kernel_budget(f, z[j])
    return float(np.max(use, initial=0.0))


def cardinal_sums(half_width, seed=SEED):
    """pw_eval on rough probes of N = half_width, at a = 1.3 and a drawn a; returns the largest gap as a share of the budget.

    Targets: 1 to 39 nodes past either end of the window, 1e4 and -3e5 nodes
    out, 4000 real ones over |Re z| <= 1.2 N pi/a (many blocks), 200 half-node
    ties, 200 within 1e-5 pi/a of a node (the sinc's Taylor fill) and 200 node
    hits, real, shifted by 0.5i and by a normal Im z per target, all held to
    _check_cardinal, and the targets outside the window alone too, so fsum_eval
    sees N + 1, -(N + 1) and -3e5 nodes out.  Node hits return the samples bit
    for bit.
    """
    n, worst = half_width, 0.0
    for a in (1.3, float(np.random.default_rng(seed).uniform(0.5, 3.0))):
        f = pwlab.rough_probe(a, n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        h = math.pi / a
        x = rng.uniform(-1.2, 1.2, 4000) * (n * h)
        ties = (rng.integers(-n - 200, n + 200, 200) + 0.5) * h
        hits = rng.integers(0, f.samples.size, 200)
        near = (rng.integers(-n, n + 1, 200) + rng.uniform(-1e-5, 1e-5, 200)) * h
        k = np.concatenate([np.arange(n + 1, n + 40), -np.arange(n + 1, n + 40), [1e4, -3e5]])
        out = (k + rng.uniform(-0.5, 0.5, k.size)) * h
        z = np.concatenate([out, x, ties, near, f.grid()[hits]])
        for shift in (0.0, 0.5j, 1j * rng.normal(size=z.size)):
            worst = max(worst, _check_cardinal(f, z + shift), _check_cardinal(f, (z + shift)[: out.size]))
        assert pwlab.pw_eval(f, z[-hits.size :]).tobytes() == f.samples[hits].tobytes()
    return worst


class TestCardinalKernel:
    """pw_eval's one-sine kernel against the oracles' plain and compensated sums."""

    def test_sweep_over_symbols(self):
        # targets phi(x_n) on the grown window, so |m| runs past N
        rng = np.random.default_rng(SEED + 40)
        sizes = [0, 1, 2, 200] + [int(n) for n in rng.integers(3, 200, 8)]
        for c in (1.0, -1.0, 0.5, -0.5, 0.25, 0.3):
            for d in (0.0, float(rng.uniform(-3, 3)), complex(rng.normal(), rng.normal())):
                for n in rng.choice(sizes, 3, replace=False):
                    a = float(rng.uniform(0.5, 3.0))
                    f = pwlab.rough_probe(a, int(n), rng)
                    z = AffineSymbol(c, d)(pwlab.grid(a, math.ceil(n / abs(c)) + 3))
                    _check_cardinal(f, z)

    def test_targets_outside_window(self):
        # with targets in the window, ties, near-nodes and hits, real and complex, at a = 1.3 and a drawn a
        for n in (0, 1, 7, 60):
            cardinal_sums(n, SEED + 41)

    def test_half_node_ties(self):
        # a = pi puts the nodes on the integers, so k + 1/2 is an exact tie
        rng = np.random.default_rng(SEED + 42)
        f = pwlab.rough_probe(math.pi, 12, rng)
        k = np.arange(-16, 16) + 0.5
        assert np.all(k * (f.a / math.pi) == k)
        for y in (0.0, 0.7, -2.0):
            _check_cardinal(f, k + 1j * y)

    def test_window_wider_than_a_block(self):
        # every block holds a single row
        n = pwlab.core._BLOCK_ENTRIES // 2 + 5
        rng = np.random.default_rng(SEED + 43)
        f = PwFunction(1.0, rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1))
        z = np.array([0.3, -n * math.pi + 0.2j, 17.5 * math.pi - 1j, (n + 2) * math.pi])
        _check_cardinal(f, z, fsum_points=0)
        assert pwlab.pw_eval(f, 5.0 * math.pi) == f.samples[n + 5]

    def test_real_and_complex_blocks_alternate(self, monkeypatch):
        # eight rows per block: all-real blocks (1/x, one product) alternate with
        # blocks holding one complex target (1/(x^2 + y^2), two products)
        rng = np.random.default_rng(SEED + 46)
        f = pwlab.rough_probe(1.7, 20, rng)
        monkeypatch.setattr(pwlab.core, "_BLOCK_ENTRIES", 8 * f.samples.size)
        z = rng.uniform(-30.0, 30.0, 8 * 7).astype(complex)
        hits = np.arange(3, z.size, 8)  # one node hit per block
        nodes = rng.integers(0, f.samples.size, hits.size)
        z[hits] = f.grid()[nodes]
        z[np.arange(13, z.size, 16)] += 1j * rng.normal(size=z.size // 16)
        blocks = z.reshape(-1, 8).imag.any(axis=1)
        assert blocks.size >= 6 and blocks.tolist() == [i % 2 == 1 for i in range(blocks.size)]
        got = pwlab.pw_eval(f, z)
        assert np.all(np.abs(got - direct_eval(f.a, f.samples, z)) <= _kernel_budget(f, z))
        assert got[hits].tobytes() == f.samples[nodes].tobytes()

    def test_real_targets_agree_across_routes(self):
        # the same real targets summed alone and in a block with a complex target
        rng = np.random.default_rng(SEED + 47)
        eps = np.finfo(float).eps
        for n in (0, 3, 32):
            a = float(rng.uniform(0.5, 3.0))
            f = pwlab.rough_probe(a, n, rng)
            z = rng.uniform(-1.5, 1.5, 400) * ((n + 4) * math.pi / a)
            z[:8] = (np.arange(-4, 4) + 0.5) * (math.pi / a)  # near-ties
            alone = pwlab.core._cardinal(a, z.astype(complex), f.samples)
            mixed = pwlab.core._cardinal(a, np.append(z, 0.3 + 0.5j), f.samples)[:-1]
            assert np.all(np.abs(alone - mixed) <= 4 * eps * np.sum(np.abs(f.samples))), n

    def test_node_hits_are_bit_exact(self):
        rng = np.random.default_rng(SEED + 44)
        for _ in range(20):
            a = float(rng.uniform(0.3, 4.0))
            f = pwlab.rough_probe(a, int(rng.integers(0, 300)), rng)
            assert pwlab.pw_eval(f, f.grid()).tobytes() == f.samples.tobytes()

    def test_shapes(self):
        rng = np.random.default_rng(SEED + 45)
        f = pwlab.rough_probe(1.3, 9, rng)
        z = rng.normal(size=(2, 3, 4)) * 8.0 + 1j * rng.normal(size=(2, 3, 4))
        got = pwlab.pw_eval(f, z)
        assert got.shape == (2, 3, 4)
        np.testing.assert_array_equal(got.ravel(), pwlab.pw_eval(f, z.ravel()))
        single = pwlab.pw_eval(f, z[:1, 0, 0])
        assert single.shape == (1,)
        assert abs(single[0] - got[0, 0, 0]) <= _kernel_budget(f, z[0, 0, 0])
        for scalar in (z[0, 0, 0], complex(z[0, 0, 0]), np.asarray(z[0, 0, 0])):
            val = pwlab.pw_eval(f, scalar)
            assert isinstance(val, complex) and val == single[0]


class TestSinc:
    """core._sinc against oracles.where_sinc, which forms both branches on every entry."""

    def test_sweep_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(SEED + 48)
        mag = 10.0 ** rng.uniform(-12.0, 2.0, 20000)
        real = mag * rng.choice([-1.0, 1.0], mag.size)
        cplx = mag * np.exp(2j * math.pi * rng.uniform(size=mag.size))
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e-4, -1e-4, math.nextafter(1e-4, 0.0)]
        for u in (real, cplx, np.array(edges), np.array(edges + [5e-324j, 1e-310 + 0j])):
            got = _sinc(u)
            assert got.dtype == u.dtype and got.tobytes() == where_sinc(u).tobytes()
        for u in (0.0, 0.3, 1e-6j, np.complex128(2.0 - 1.0j)):
            got = _sinc(u)
            assert got.shape == () and got.tobytes() == where_sinc(u).tobytes()

    def test_subnormal_points_take_the_polynomial(self):
        # numpy's complex division forms 1/u, which overflows at these points, so
        # a plain divide where u != 0 warns (an error under pytest): the small u
        # take the Taylor polynomial and the division never sees them
        u = np.array([5e-324j, 1e-310 + 0j, -5e-324 + 0j])
        with pytest.raises(RuntimeWarning, match="overflow"):
            np.divide(np.sin(u), u, out=np.ones_like(u), where=u != 0)
        assert np.all(_sinc(u) == 1.0)


class TestProducts:
    def test_inner_product_hermitian_and_linear(self):
        rng = np.random.default_rng(SEED + 5)
        f = pwlab.rough_probe(1.0, 12, rng)
        g = pwlab.rough_probe(1.0, 12, rng)
        h = pwlab.rough_probe(1.0, 12, rng)
        ip = pwlab.inner_product
        assert abs(ip(f, g) - np.conj(ip(g, f))) < 1e-13
        lhs = ip(pwlab.PwFunction(1.0, 2.0 * f.samples + 1j * h.samples), g)
        rhs = 2.0 * ip(f, g) + 1j * ip(h, g)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_inner_product_pads_windows(self):
        f = pwlab.node_function(1.0, 2, 1)
        g = pwlab.node_function(1.0, 7, 1)
        assert abs(pwlab.inner_product(f, g) - math.pi) < 1e-14

    def test_bandwidth_mismatch_raises(self):
        f = pwlab.node_function(1.0, 2)
        g = pwlab.node_function(2.0, 2)
        with pytest.raises(BandwidthMismatchError):
            pwlab.inner_product(f, g)

    def test_inner_product_vs_line_integral(self):
        rng = np.random.default_rng(SEED + 6)
        f = pwlab.smooth_probe(1.0, 32, rng)
        g = pwlab.smooth_probe(1.0, 32, rng)
        ident = AffineSymbol(1.0, 0.0)
        ref = panel_inner_product(1.0, ident, f.samples, ident, g.samples, t_max=400.0,
                                  n_panels=1024)
        got = pwlab.inner_product(f, g)
        assert abs(got - ref) < 1e-8 * max(1.0, abs(ref))

    def test_norm_and_scaled(self):
        rng = np.random.default_rng(SEED + 7)
        f = pwlab.rough_probe(1.0, 8, rng)
        assert abs(pwlab.scaled(f, 2j).norm() - 2.0 * f.norm()) < 1e-13

    def test_reproducing_identity(self):
        rng = np.random.default_rng(SEED + 8)
        f = pwlab.smooth_probe(1.5, 64, rng)
        for w in (0.6, -17.3, 4.0 + 0.5j):
            assert abs(pwlab.reproduce(f, w) - pwlab.pw_eval(f, w)) < 1e-9


class TestComposition:
    def test_identity_is_exact(self):
        rng = np.random.default_rng(SEED + 9)
        f = pwlab.rough_probe(1.0, 16, rng)
        g = pwlab.compose_apply(AffineSymbol(1.0, 0.0), f)
        np.testing.assert_array_equal(g.samples, f.samples)

    def test_reflection_is_exact_flip(self):
        rng = np.random.default_rng(SEED + 10)
        f = pwlab.rough_probe(1.0, 16, rng)
        g = pwlab.compose_apply(AffineSymbol(-1.0, 0.0), f)
        np.testing.assert_array_equal(g.samples, f.samples[::-1])

    def test_window_policy(self):
        f = pwlab.node_function(1.0, 16)
        phi = AffineSymbol(0.5, 0.0)
        assert pwlab.compose_apply(phi, f).half_width == 16
        assert pwlab.compose_apply(phi, f, grow=True).half_width == 32
        assert pwlab.compose_apply(phi, f, half_width=7).half_width == 7

    def test_grown_window_is_bounded(self):
        # N/|c| past the memory budget raises before any allocation, as does an explicit window
        # of as many samples as the budget has bytes
        f = pwlab.node_function(1.0, 8)
        for c in (1e-300, -1e-300, 1e-9, -1e-9, 5e-324):
            with pytest.raises(pwlab.OverflowGuardError):
                pwlab.compose_apply(AffineSymbol(c, 0.0), f, grow=True)
        with pytest.raises(pwlab.OverflowGuardError, match="target window half width"):
            pwlab.compose_apply(AffineSymbol(0.5, 0.0), f, half_width=pwlab.core._MAX_BYTES)

    def test_half_width_must_be_a_nonnegative_integer(self):
        f = pwlab.node_function(1.0, 8)
        for phi in (AffineSymbol(1.0, 0.0), AffineSymbol(0.5, 0.3)):
            for bad in (-1, -20, 2.7, 3.0, "4"):
                with pytest.raises(ValueError, match="target window half width must be an integer >= 0"):
                    pwlab.compose_apply(phi, f, half_width=bad)
            assert pwlab.compose_apply(phi, f, half_width=np.int64(0)).half_width == 0

    def test_values_match_composition(self):
        rng = np.random.default_rng(SEED + 11)
        f = pwlab.smooth_probe(1.0, 48, rng)
        phi = AffineSymbol(0.5, 0.7 + 0.2j)
        g = pwlab.compose_apply(phi, f, grow=True)
        z = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(
            pwlab.pw_eval(g, z), pwlab.pw_eval(f, phi(z)), atol=1e-10
        )


SLOPES = (1.0, -1.0, 0.5, -0.5, 0.25, -0.75, 0.125)


def coset_sums(half_width, seed=SEED):
    """compose_apply on rough probes at N = half_width against direct_eval, within _kernel_budget.

    Every c in SLOPES and d in {0, 0.3, i, 1 + i, the node pi/a}, a drawn from
    (0.5, 3) per symbol, and (-1/2, 0.3 + 0.4i) at a = 1.3 (two cosets of
    (2N + 1)^2 terms, past the direct-sum bound at N = 1024), on the grown
    window and the windows N // 2, N + 5 and 3N + 7, each on both convolution
    engines (ENGINES, patched onto core._DIRECT_TERMS).  The windows' targets nest,
    so one direct_eval serves them all.  Returns the largest gap as a share of
    the budget.
    """
    rng = np.random.default_rng(seed)
    cases = [(AffineSymbol(-0.5, 0.3 + 0.4j), pwlab.rough_probe(1.3, half_width, np.random.default_rng(seed)))]
    for c in SLOPES:
        for d in (0.0, 0.3, 1j, 1.0 + 1j, "node"):
            a = float(rng.uniform(0.5, 3.0))
            cases.append((AffineSymbol(c, math.pi / a if d == "node" else d), pwlab.rough_probe(a, half_width, rng)))
    widths = (None, half_width // 2, half_width + 5, 3 * half_width + 7)
    worst = 0.0
    for phi, f in cases:
        top = max(3 * half_width + 7, math.ceil(half_width / abs(phi.c)))
        z = phi(pwlab.grid(f.a, top))
        ref, budget = _direct(f, z), _kernel_budget(f, z)
        for terms in ENGINES.values():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pwlab.core, "_DIRECT_TERMS", terms)
                for width in widths:
                    g = pwlab.compose_apply(phi, f, grow=width is None, half_width=width)
                    w = g.half_width
                    gap = np.abs(g.samples - ref[top - w : top + w + 1]) / budget[top - w : top + w + 1]
                    assert np.all(gap <= 1.0), (phi, f.a, width, terms)
                    worst = max(worst, float(np.max(gap)))
    return worst


class TestRationalSlopes:
    """compose_apply's coset convolutions for c = p/q against the plain cardinal sum."""

    def test_sweep_matches_direct_series(self):
        for n in (0, 1, 8, 64):
            coset_sums(n, SEED + 60)

    def test_engine_rule_straddles_the_bound(self, monkeypatch):
        # at the fitted _DIRECT_TERMS: c = 1 convolves one coset of (2N + 1)^2
        # terms, c = -1/2 on the grown window two; the window at the bound takes
        # the direct sum, the next one the FFT, and both match the plain series
        calls = _engine_calls(monkeypatch)
        rng = np.random.default_rng(SEED + 65)
        for phi, cosets in ((AffineSymbol(1.0, 0.3 + 0.2j), 1), (AffineSymbol(-0.5, 0.1 - 0.4j), 2)):
            for n, engine in zip(_straddle(cosets), ("direct", "fft")):
                f = pwlab.rough_probe(1.3, n, rng)
                calls.update(fft=0, direct=0)
                g = pwlab.compose_apply(phi, f, grow=True)
                assert calls[engine] == sum(calls.values()) > 0, (phi, n)
                z = phi(g.grid())
                assert np.all(np.abs(g.samples - direct_eval(f.a, f.samples, z)) <= _kernel_budget(f, z))

    def test_route_serves_the_dyadic_slopes(self):
        # the sweep above must exercise the convolutions, not the fallback
        rng = np.random.default_rng(SEED + 61)
        f = pwlab.rough_probe(1.0, 64, rng)
        for c in SLOPES:
            phi = AffineSymbol(c, 0.3 + 0.2j)
            assert pwlab.core._coset_sum(phi, f, math.ceil(64 / abs(c))) is not None

    def test_fft_length_is_the_least_5_smooth(self):
        # brute force against every 2^i 3^j 5^k up to 2 10^4, for each n <= 10^4
        smooth = sorted(2**i * 3**j * 5**k for i in range(15) for j in range(10) for k in range(7))
        smooth = [s for s in smooth if s <= 20000]
        at = 0
        for n in range(1, 10001):
            while smooth[at] < n:
                at += 1
            assert pwlab.core._fft_length(n) == smooth[at], n

    def test_node_hits_are_bit_exact(self):
        rng = np.random.default_rng(SEED + 62)
        a = 1.7
        f = pwlab.rough_probe(a, 40, rng)
        identity = pwlab.compose_apply(AffineSymbol(1.0, 0.0), f, half_width=50)
        assert identity.samples[10:-10].tobytes() == f.samples.tobytes()
        assert not np.any(identity.samples[:10]) and not np.any(identity.samples[-10:])
        half = pwlab.compose_apply(AffineSymbol(0.5, 0.0), f, grow=True)
        assert half.samples[::2].tobytes() == f.samples.tobytes()
        flip = pwlab.compose_apply(AffineSymbol(-0.5, 0.0), f, grow=True)
        assert flip.samples[::2].tobytes() == f.samples[::-1].tobytes()
        # d = x_3 shifts the window by three nodes
        shift = pwlab.compose_apply(AffineSymbol(1.0, 3 * (math.pi / a)), f)
        assert shift.samples[:-3].tobytes() == f.samples[3:].tobytes()
        assert not np.any(shift.samples[-3:])

    def test_fallback_is_unchanged(self):
        # slopes with a large denominator keep pw_eval's cardinal series, byte for byte
        rng = np.random.default_rng(SEED + 63)
        f = pwlab.rough_probe(1.3, 24, rng)
        for c in (0.9, 1 / 3, -0.3):
            phi = AffineSymbol(c, 0.4 - 0.1j)
            g = pwlab.compose_apply(phi, f, grow=True)
            assert pwlab.core._coset_sum(phi, f, g.half_width) is None
            assert g.samples.tobytes() == pwlab.pw_eval(f, phi(g.grid())).tobytes()

    def test_overflow_guard(self):
        f = pwlab.node_function(1.0, 8)
        for c in (1.0, 0.5, 0.9):
            with pytest.raises(OverflowGuardError):
                pwlab.compose_apply(AffineSymbol(c, 1.0 + 301j), f)
        assert np.all(np.isfinite(pwlab.compose_apply(AffineSymbol(0.5, 299j), f).samples))

    def test_real_range_guard(self):
        # the coset route used to build infinite samples and fail with a plain ValueError
        f = pwlab.rough_probe(10.0, 8, np.random.default_rng(SEED + 67))
        with pytest.raises(OverflowGuardError, match="evaluation range"):
            pwlab.compose_apply(AffineSymbol(0.5, 1e308), f)

    def test_fallback_real_range_guard(self):
        # c = 0.9 sums through pw_eval, whose kernel squares a (Re z - x_k)
        f = pwlab.rough_probe(10.0, 8, np.random.default_rng(SEED + 68))
        assert pwlab.core._coset_sum(AffineSymbol(0.9, 0.0), f, 8) is None
        with pytest.raises(OverflowGuardError, match="evaluation range"):
            pwlab.compose_apply(AffineSymbol(0.9, 1.4e153), f)

    def test_blocks_of_many_cosets(self):
        # q = 2^12 cosets against a wide window split into several FFT blocks
        rng = np.random.default_rng(SEED + 64)
        f = pwlab.rough_probe(2.0, 100, rng)
        phi = AffineSymbol(2.0**-12, 0.7)
        assert pwlab.core._coset_sum(phi, f, 1 << 17) is not None
        g = pwlab.compose_apply(phi, f, half_width=1 << 17)
        spots = rng.integers(0, g.samples.size, 64)
        z = phi(g.grid()[spots])
        assert np.all(np.abs(g.samples[spots] - direct_eval(f.a, f.samples, z)) <= _kernel_budget(f, z))


class TestConvolution:
    """core._convolve, the package's one convolution, on both engines."""

    # (len(x), len(y)): x shorter, longer and equal, single samples, and lengths
    # whose power of two lies far past their least 5-smooth length (513: 1024 vs 540)
    SIZES = ((1, 1), (1, 7), (7, 1), (5, 12), (12, 5), (33, 257), (257, 33), (257, 257))

    def test_matches_dense_double_sum(self, monkeypatch):
        # full and valid modes, 1-d x and a 2-d x of three rows, against the
        # double sum out[i + j] += x_i y_j, within 1e-13 sum|x| sum|y| per row
        rng = np.random.default_rng(SEED + 90)
        for engine, terms in ENGINES.items():
            monkeypatch.setattr(pwlab.core, "_DIRECT_TERMS", terms)
            for n1, n2 in self.SIZES:
                x = rng.standard_normal((3, n1)) + 1j * rng.standard_normal((3, n1))
                y = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
                ref = np.zeros((3, n1 + n2 - 1), dtype=np.complex128)
                for i in range(n1):
                    ref[:, i : i + n2] += x[:, i, None] * y
                short, long = sorted((n1, n2))
                scale = 1e-13 * np.sum(np.abs(x), axis=1, keepdims=True) * np.sum(np.abs(y))
                for valid, keep in ((False, ref), (True, ref[:, short - 1 : long])):
                    got = _convolve(x, y, valid)
                    assert got.shape == keep.shape and np.all(np.abs(got - keep) <= scale), (engine, n1, n2, valid)
                    one = _convolve(x[0], y, valid)
                    assert one.shape == keep[0].shape and np.all(np.abs(one - keep[0]) <= scale[0]), (engine, n1, n2, valid)

    def test_fft_length(self, monkeypatch):
        # the FFT engine runs at _fft_length(len(x) + len(y) - 1), and 'valid' at
        # _fft_length of the longer input; never at a larger power of two
        monkeypatch.setattr(pwlab.core, "_DIRECT_TERMS", 0)
        lengths = _fft_lengths(monkeypatch)
        rng = np.random.default_rng(SEED + 91)
        for n1, n2 in self.SIZES:
            for valid in (False, True):
                lengths.clear()
                _convolve(rng.standard_normal((2, n1)), rng.standard_normal(n2), valid)
                expected = _fft_length(max(n1, n2) if valid else n1 + n2 - 1)
                assert lengths == [expected, expected], (n1, n2, valid)
        assert _fft_length(513) == 540

    def test_callers_share_the_length(self, monkeypatch):
        # the pairing's cross-correlation (513 x 513: 1080 points, not 2048), a
        # coset block and the chirp-z of an adjoint at M = 4096 (2049
        # coefficients, 6144 lags: 6144 points, not 8192) all transform at
        # _convolve's 5-smooth lengths
        lengths = _fft_lengths(monkeypatch)
        f = pwlab.rough_probe(1.3, 256, np.random.default_rng(SEED + 92))
        pwlab.composed_norm(AffineSymbol(0.5, 0.3 + 0.2j), f)
        assert lengths == [1080, 1080]
        lengths.clear()
        pwlab.compose_apply(AffineSymbol(1.0, 0.3), f)
        assert lengths == [_fft_length(4 * 256 + 1)] * 2
        F = pwlab.to_l2(f, 4096)
        lengths.clear()
        pwlab.weighted_compose_adjoint(AffineSymbol(0.9, 0.3), F)
        assert lengths == [6144, 6144]

    def test_engine_rule_counts_products(self, monkeypatch):
        # direct while the products over all rows stay within _DIRECT_TERMS:
        # len(x) len(y) in full mode, (long - short + 1) short in 'valid'
        calls = _engine_calls(monkeypatch)
        rng = np.random.default_rng(SEED + 93)
        x, y = rng.standard_normal((3, 40)), rng.standard_normal(9)
        for valid, products in ((False, 3 * 40 * 9), (True, 3 * 32 * 9)):
            for terms, engine in ((products, "direct"), (products - 1, "fft")):
                monkeypatch.setattr(pwlab.core, "_DIRECT_TERMS", terms)
                calls.update(fft=0, direct=0)
                _convolve(x, y, valid)
                assert calls[engine] == sum(calls.values()) > 0, (valid, terms)

    def test_direct_engine_is_numpys_bit_for_bit(self, monkeypatch):
        # the direct engine gives the pairing np.correlate(v, w) and the cosets
        # np.convolve(K_r, v, 'valid'), bit for bit
        monkeypatch.setattr(pwlab.core, "_DIRECT_TERMS", ENGINES["direct"])
        rng = np.random.default_rng(SEED + 94)
        for n1, n2 in self.SIZES:
            v, w = ([1.0, 1j] @ rng.standard_normal((2, n)) for n in (n1, n2))
            assert _convolve(v, np.conj(w[::-1])).tobytes() == np.correlate(v, w, "full").tobytes()
            ker = rng.standard_normal((3, n1 + n2)) + 1j * rng.standard_normal((3, n1 + n2))
            rows = np.array([np.convolve(row, w, "valid") for row in ker])
            assert _convolve(ker, w, valid=True).tobytes() == rows.tobytes()


class TestOperatorTables:
    """core._table: the orbit traces' and the coset applies' operator halves, cold, warm and past the byte limit."""

    @pytest.mark.parametrize("block_rows", [None, 8], ids=["one block", "blocks of 8 rows"])
    def test_cold_warm_and_per_call_tables_agree(self, monkeypatch, block_rows):
        # every call runs on an empty cache (cold: a table for the call alone and a mark of its key),
        # again (the table is kept where it fits), a third time (warm) and with every table past the
        # byte limit; all four give the same bytes.  d = 0j and d = -0j key apart.  The wide orbit's
        # table, 20 x 8193 sinc entries in one block, is past the limit itself; under blocks of 8 rows
        # the orbit tables of f hold two blocks or more (the wide one twenty), are built as they are
        # read and are never kept.  A table that is not kept leaves its key marked as never kept at
        # its second call, and the third call finds the cache as the second left it
        rng = np.random.default_rng(SEED + 95)
        f, wide = pwlab.rough_probe(1.0, 24, rng), pwlab.rough_probe(1.0, 2048, rng)
        if block_rows:
            monkeypatch.setattr(pwlab.core, "_BLOCK_ENTRIES", block_rows * (4 * 24 + 1))
        calls = [lambda: pwlab.orbit_norms(AffineSymbol(0.5, 0.3 + 0.2j), 1.0, wide, 20).norms]
        for c in (1.0, -1.0, 0.5, -0.5, 0.25):
            for d in (0j, complex(0.0, -0.0), 0.3, 1j, 1.0 - 1j):
                phi = AffineSymbol(c, d)
                calls += [
                    lambda phi=phi: pwlab.orbit_norms(phi, 1.0, f, 12).norms,
                    lambda phi=phi: pwlab.cesaro_averages(phi, 1.0, f, 11),
                    lambda phi=phi: pwlab.compose_apply(phi, f, grow=True).samples,
                    lambda phi=phi: pwlab.compose_apply(phi, f, 40).samples,
                ]
        never = 1 + (2 * 25 if block_rows else 0)  # the wide orbit, and under blocks of 8 rows every orbit of f
        tables = pwlab.core._Tables()
        monkeypatch.setattr(pwlab.core, "_TABLES", tables)
        cold = [call().tobytes() for call in calls]
        assert len(tables) == len(calls) and all(table is pwlab.core._SEEN for table, _ in tables.values())
        assert [call().tobytes() for call in calls] == cold
        assert len(tables) == len(calls) and not any(table is pwlab.core._SEEN for table, _ in tables.values())
        assert sum(table is pwlab.core._NEVER for table, _ in tables.values()) == never
        assert tables.held == sum(size for _, size in tables.values()) <= pwlab.core._TABLE_BYTES
        warm = dict(tables)
        assert [call().tobytes() for call in calls] == cold
        assert dict(tables) == warm
        monkeypatch.setattr(pwlab.core, "_TABLE_BYTES", 0)
        monkeypatch.setattr(pwlab.core, "_TABLES", pwlab.core._Tables())
        assert [call().tobytes() for call in calls] == cold
        assert not pwlab.core._TABLES

    def test_tables_of_more_than_one_block_are_never_kept(self, monkeypatch):
        # one form per table, from its size alone: under blocks of 100 entries an orbit's, a coset
        # apply's and a lag table each hold more than one block, built as they are read, which
        # _freeze counts as unbounded.  The orbit and the apply leave a mark, are never held and
        # give their first call's bytes at every call; a pseudotrajectory keeps no halves and
        # gives the same divergence at every build.  At the default size all of them are kept
        rng = np.random.default_rng(SEED + 96)
        f, g = pwlab.rough_probe(1.0, 24, rng), pwlab.rough_probe(1.0, 24, rng)
        orbit, coset = AffineSymbol(0.5, 0.3 + 0.2j), AffineSymbol(0.25, 1j)
        calls = [lambda: pwlab.orbit_norms(orbit, 1.0, f, 12).norms,
                 lambda: pwlab.compose_apply(coset, f, 40).samples]

        def shadow():
            P = pwlab.build_pseudotrajectory(orbit, 1.0, f, 0.1, 6)
            D, L = pwlab.shadowing_divergence(P, g)
            return P, D.tobytes() + L.tobytes()

        default = pwlab.core._BLOCK_ENTRIES
        monkeypatch.setattr(pwlab.core, "_BLOCK_ENTRIES", 100)
        iterates = pwlab.core._iterate_table(orbit.c, orbit.d, range(8))
        halves = [pwlab.dynamics._orbit_table(orbit, 1.0, 12, 24), pwlab.core._coset_table(coset, 1.0, 24, 40),
                  pwlab.dynamics._lag_table(1.0, iterates, f.samples, 7, 24)]
        assert all(pwlab.core._freeze(half) == math.inf for half in halves)
        tables = pwlab.core._Tables()
        monkeypatch.setattr(pwlab.core, "_TABLES", tables)
        cold = [call().tobytes() for call in calls]
        assert len(tables) == len(calls) and all(table is pwlab.core._SEEN for table, _ in tables.values())
        P, divergence = shadow()
        assert P._lags is None and P._at_alpha is None
        for _ in range(3):
            assert [call().tobytes() for call in calls] == cold and shadow()[1] == divergence
            assert all(table is pwlab.core._NEVER for table, _ in tables.values())
        monkeypatch.setattr(pwlab.core, "_BLOCK_ENTRIES", default)
        for call in calls + calls:
            call()
        kept = [table for key, (table, _) in tables.items() if key[-1] == default]
        assert len(kept) == len(calls) and pwlab.core._SEEN not in kept
        assert shadow()[0]._lags is not None

    def test_a_key_that_is_not_kept_stays_marked(self, monkeypatch):
        # six calls of an orbit and a coset apply whose tables hold more than one block (under blocks
        # of 100 entries), and of a grid whose twiddle table passes the byte limit: the key is seen,
        # then marked as never kept, and stays so; _table counts each table once, at its second call.
        # The grid's first call computes its 49-entry slice alone, its second the whole table that
        # _freeze refuses, and the rest their slices alone again
        rng = np.random.default_rng(SEED + 97)
        f = pwlab.rough_probe(1.0, 24, rng)
        m = (1 << 17) - 1
        calls = {"orbit": lambda: pwlab.orbit_norms(AffineSymbol(0.5, 0.3 + 0.2j), 1.0, f, 12),
                 "coset": lambda: pwlab.compose_apply(AffineSymbol(0.25, 1j), f, 40),
                 "twiddle": lambda: pwlab.fourier._twiddle(m, 24).base.size}
        counted, freeze = [], pwlab.core._freeze
        monkeypatch.setattr(pwlab.core, "_freeze", lambda table: counted.append(table[0][0]) or freeze(table))
        monkeypatch.setattr(pwlab.core, "_BLOCK_ENTRIES", 100)
        tables = pwlab.core._Tables()
        monkeypatch.setattr(pwlab.core, "_TABLES", tables)
        for kind, call in calls.items():
            marks, built = [], []
            for _ in range(6):
                built.append(call())
                (key,) = [key for key in tables if key[0] == kind]
                marks.append(tables[key][0])
            assert marks == [pwlab.core._SEEN] + 5 * [pwlab.core._NEVER], kind
            if kind == "twiddle":
                assert built == [49, 2 * (m // 2) + 1, 49, 49, 49, 49]
        assert counted == list(calls) and tables.held == len(calls) * pwlab.core._SEEN_BYTES

    def test_least_recently_used_table_goes_first(self, monkeypatch):
        # under a limit of two orbit tables, a fetch keeps its table and the other one goes
        f = pwlab.node_function(1.0, 8)
        phis = [AffineSymbol(0.5, d) for d in (1j, 2j, 3j)]
        tables = pwlab.core._Tables()
        monkeypatch.setattr(pwlab.core, "_TABLES", tables)
        for _ in range(2):
            pwlab.orbit_norms(phis[0], 1.0, f, 4)
        (_, size), = tables.values()
        monkeypatch.setattr(pwlab.core, "_TABLE_BYTES", 2 * size)
        for phi in (phis[1], phis[1], phis[0], phis[2], phis[2]):
            pwlab.orbit_norms(phi, 1.0, f, 4)
        keys = [("orbit", pwlab.core._bits(phi, 1.0), 4, 8, pwlab.core._BLOCK_ENTRIES) for phi in phis]
        assert list(tables) == [keys[0], keys[2]] and tables.held == 2 * size

    def test_block_size_keys_apart(self, monkeypatch):
        # a table is cut into blocks of _BLOCK_ENTRIES, whose size may move a sum's last bits, so a
        # table kept at one size is not fetched at another: with the tables warm at the default size,
        # calls under blocks of 8 rows leave marks of their own and give a cold build's bytes there
        rng = np.random.default_rng(SEED + 48)
        f = pwlab.rough_probe(1.0, 24, rng)
        calls = [lambda: pwlab.orbit_norms(AffineSymbol(0.5, 0.3 + 0.2j), 1.0, f, 40).norms,
                 lambda: pwlab.compose_apply(AffineSymbol(-0.5, 1j), f, 40).samples]
        default, small = pwlab.core._BLOCK_ENTRIES, 8 * (4 * 24 + 1)
        monkeypatch.setattr(pwlab.core, "_TABLES", pwlab.core._Tables())
        monkeypatch.setattr(pwlab.core, "_BLOCK_ENTRIES", small)
        cold = [call().tobytes() for call in calls]
        tables = pwlab.core._Tables()
        monkeypatch.setattr(pwlab.core, "_TABLES", tables)
        monkeypatch.setattr(pwlab.core, "_BLOCK_ENTRIES", default)
        for _ in range(2):
            for call in calls:
                call()
        monkeypatch.setattr(pwlab.core, "_BLOCK_ENTRIES", small)
        assert [call().tobytes() for call in calls] == cold
        assert len(tables) == 2 * len(calls)


class TestComposedProducts:
    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(SEED + 12)
        a = 1.0
        f = pwlab.smooth_probe(a, 32, rng)
        g = pwlab.smooth_probe(a, 32, rng)
        cases = [
            (AffineSymbol(0.5, 0.3 + 0.2j), AffineSymbol(-1.0, 0.1 - 0.4j)),
            (AffineSymbol(1.0, 1j), AffineSymbol(1.0, 0.0)),
            (AffineSymbol(0.25, 0.0), AffineSymbol(0.5, 1.0)),
        ]
        for phi1, phi2 in cases:
            ref = panel_inner_product(a, phi1, f.samples, phi2, g.samples,
                                      t_max=400.0, n_panels=1024)
            got = pwlab.composed_inner_product(phi1, f, phi2, g)
            assert abs(got - ref) < 1e-9 * max(1.0, abs(ref))

    def test_matches_dense_double_sum(self, monkeypatch):
        # both routes against the dense complex-sinc block, over slopes c^j
        # (c in {+-1, +-1/2, 1/4}, j <= 9), real and complex d, equal slopes
        # with different d (on both convolution engines), and unequal windows
        # N = 0..48; the tolerance is the rounding scale of the sum:
        # pi/(a max|c|) ||v|| ||w|| cosh(r |Im shift|)
        rng = np.random.default_rng(SEED + 15)
        bases = (1.0, -1.0, 0.5, -0.5, 0.25)
        windows = [(0, 0), (0, 48), (48, 1), (48, 48)] + [
            tuple(int(n) for n in rng.integers(0, 49, 2)) for _ in range(296)
        ]
        groups = {"c1 == c2": 0, "|c1| > |c2|": 0, "|c1| < |c2|": 0, "c1 == -c2": 0}
        for case, (n1, n2) in enumerate(windows):
            c = bases[case % len(bases)]
            j1 = int(rng.integers(1, 10))
            j2 = j1 if case % 3 == 0 else int(rng.integers(1, 10))
            d1, d2 = (complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2))
            if case % 4 == 1:
                d1, d2 = d1.real, d2.real
            phi1 = AffineSymbol(c, d1).iterate(j1)
            phi2 = AffineSymbol(c, d2).iterate(j2)
            c1, c2 = phi1.c, phi2.c
            groups["c1 == c2" if c1 == c2 else "c1 == -c2" if c1 == -c2
                   else "|c1| > |c2|" if abs(c1) > abs(c2) else "|c1| < |c2|"] += 1
            a = float(rng.uniform(0.5, 2.0))
            f, g = (PwFunction(a, [1.0, 1j] @ rng.standard_normal((2, 2 * n + 1))) for n in (n1, n2))
            c_min, c_max = sorted((abs(phi1.c), abs(phi2.c)))
            shift = phi1.d / phi1.c - np.conj(phi2.d) / phi2.c
            scale = (math.pi / (a * c_max) * np.linalg.norm(f.samples) * np.linalg.norm(g.samples)
                     * math.cosh(a * c_min * abs(shift.imag)))
            ref = dense_pairing(phi1, f, phi2, g)
            for terms in ENGINES.values() if c1 == c2 else (pwlab.core._DIRECT_TERMS,):
                monkeypatch.setattr(pwlab.core, "_DIRECT_TERMS", terms)
                got = pwlab.composed_inner_product(phi1, f, phi2, g)
                assert abs(got - ref) <= 1e-13 * scale, (phi1, phi2, n1, n2, terms)
        # both routes, and every ordering of the unequal slopes, covered
        assert groups["c1 == c2"] >= 100 and min(groups.values()) >= 10, groups

    def test_toeplitz_engine_rule_straddles_the_bound(self, monkeypatch):
        # equal slopes at the fitted _DIRECT_TERMS: windows of (2N + 1)^2 terms at
        # the bound cross-correlate directly, the next ones by FFT, and both match
        # the dense block within test_matches_dense_double_sum's tolerance; so do
        # a 5-sample window against long ones, whose product is what the rule reads
        calls = _engine_calls(monkeypatch)
        rng = np.random.default_rng(SEED + 17)
        a = 1.3
        below, above = _straddle(1)
        long_below = (pwlab.core._DIRECT_TERMS // 5 - 1) // 2
        assert 5 * (2 * long_below + 1) <= pwlab.core._DIRECT_TERMS < 5 * (2 * long_below + 3)
        phi1, phi2 = AffineSymbol(0.5, 0.3 + 0.2j), AffineSymbol(0.5, -0.1 + 0.1j)
        for (n1, n2), engine in (((below, below), "direct"), ((above, above), "fft"),
                                 ((2, long_below), "direct"), ((long_below + 1, 2), "fft")):
            f, g = (pwlab.rough_probe(a, n, rng) for n in (n1, n2))
            shift = phi1.d / phi1.c - np.conj(phi2.d) / phi2.c
            scale = (math.pi / (a * 0.5) * np.linalg.norm(f.samples) * np.linalg.norm(g.samples)
                     * math.cosh(a * 0.5 * abs(shift.imag)))
            calls.update(fft=0, direct=0)
            got = pwlab.composed_inner_product(phi1, f, phi2, g)
            assert calls[engine] == sum(calls.values()) > 0, (n1, n2)
            assert abs(got - dense_pairing(phi1, f, phi2, g)) <= 1e-13 * scale, (n1, n2)

    def test_unequal_slopes_are_hermitian_bit_for_bit(self):
        # <C_phi1 f, C_phi2 g> = conj <C_phi2 g, C_phi1 f>: both orders take the
        # same route, so the identity holds exactly, c1 = -c2 included
        rng = np.random.default_rng(SEED + 16)
        for c1, c2 in [(0.5, 1.0), (-0.25, 0.5), (1.0, -1.0), (-0.5, 0.5), (0.125, -1.0)]:
            phi1 = AffineSymbol(c1, complex(*rng.uniform(-1.0, 1.0, 2)))
            phi2 = AffineSymbol(c2, complex(*rng.uniform(-1.0, 1.0, 2)))
            f = pwlab.rough_probe(1.3, int(rng.integers(0, 40)), rng)
            g = pwlab.rough_probe(1.3, int(rng.integers(0, 40)), rng)
            forward = pwlab.composed_inner_product(phi1, f, phi2, g)
            backward = pwlab.composed_inner_product(phi2, g, phi1, f)
            assert forward == backward.conjugate(), (c1, c2)

    def test_pairing_routes_agree(self):
        # shifts with ratio 1 take _pairings' Toeplitz route alone, whether the
        # ratio is a float or an array of ones, and its stacked route once one
        # ratio != 1 joins them; the two agree within 4 eps sum|v| sum|w| e^(a |Im s|)
        rng = np.random.default_rng(SEED + 71)
        eps = np.finfo(float).eps
        for a, nv, nw in ((1.0, 8, 16), (math.pi, 32, 4), (1.3, 0, 24), (2.0, 48, 48)):
            v, w = ([1.0, 1j] @ rng.standard_normal((2, 2 * n + 1)) for n in (nv, nw))
            shift = rng.uniform(-20.0, 20.0, 12) + 1j * np.repeat((0.0, 1.0), 6) * rng.uniform(-2.0, 2.0, 12)
            alone = pwlab.core._pairings(a, v, w, 1.0, shift)
            ones = pwlab.core._pairings(a, v, w, np.ones(shift.size), shift)
            assert ones.tobytes() == alone.tobytes()
            ratio = np.append(np.ones(shift.size), -0.5)
            stacked = pwlab.core._pairings(a, v, w, ratio, np.append(shift, 0.3))[:-1]
            bound = 4 * eps * np.sum(np.abs(v)) * np.sum(np.abs(w)) * np.exp(a * np.abs(shift.imag))
            assert np.all(np.abs(stacked - alone) <= bound), (a, nv, nw)

    def test_direct_route_sums_nonzero_samples_alone(self):
        # one nonzero sample v_m: each entry is g at ratio_j x_m + s_j alone,
        # conj(g) v_m bit for bit (v_m a power of two times 1 or i, so that
        # the product rounds nowhere); all-zero samples give exact zeros
        rng = np.random.default_rng(SEED + 75)
        a = 1.3
        w = [1.0, 1j] @ rng.standard_normal((2, 25))
        g = PwFunction(a, w)
        ratio = np.array([0.5, -0.25, 1.0, -1.0, 0.125])
        for im in (0.0, 0.7):
            shift = rng.uniform(-5.0, 5.0, ratio.size) + 1j * im
            for m, v_m in ((0, 1.0), (3, -0.5j), (-8, 4.0)):
                v = np.zeros(17, dtype=np.complex128)
                v[m + 8] = v_m
                got = pwlab.core._pairings(a, v, w, ratio, shift)
                ref = np.conj(pwlab.pw_eval(g, ratio * pwlab.grid(a, 8)[m + 8] + shift)) * v_m
                assert got.tobytes() == ref.tobytes(), (im, m)
            zero = pwlab.core._pairings(a, np.zeros(17, dtype=np.complex128), w, ratio, shift)
            assert zero.shape == shift.shape and np.all(zero == 0.0)

    def test_sparse_samples_match_dense_double_sum(self):
        # node samples at 0 and off centre, and three nonzero samples, at real
        # and complex d, unequal slopes (the direct route): within the rounding
        # scale of test_matches_dense_double_sum
        rng = np.random.default_rng(SEED + 76)
        a = 1.3
        g = pwlab.rough_probe(a, 20, rng)
        three = np.zeros(33, dtype=np.complex128)
        three[[3, 16, 27]] = [1.0, 1j] @ rng.standard_normal((2, 3))
        seeds = [pwlab.node_function(a, 16, 0), pwlab.node_function(a, 16, -5), PwFunction(a, three)]
        for d1, d2 in ((0.3, -0.4), (0.2 + 0.1j, -0.3 + 0.4j)):
            for c1, c2 in ((0.5, 0.25), (-0.5, 0.125), (1.0, -0.5)):
                phi1, phi2 = AffineSymbol(c1, d1), AffineSymbol(c2, d2)
                for f in seeds:
                    shift = phi1.d / phi1.c - np.conj(phi2.d) / phi2.c
                    scale = (math.pi / (a * abs(c1)) * np.linalg.norm(f.samples) * np.linalg.norm(g.samples)
                             * math.cosh(a * abs(c2) * abs(shift.imag)))
                    for pair in ((phi1, f, phi2, g), (phi2, g, phi1, f)):
                        got = pwlab.composed_inner_product(*pair)
                        assert abs(got - dense_pairing(*pair)) <= 1e-13 * scale, (c1, c2, d1, d2)

    def test_square_lost_to_rounding_raises(self):
        # c = 1, d_n = n (0.3+0.5i) on PW_pi: ||C f||^2 rounds to <= 0 at n = 24,
        # 25 and 26; composed_norm raises naming B, as orbit_norms does, not 0.0
        phi = AffineSymbol(1.0, 0.3 + 0.5j)
        f = pwlab.smooth_probe(math.pi, 32, np.random.default_rng(0))
        for n in (24, 25, 26):
            with pytest.raises(OverflowGuardError, match=r"rounds to .* B = eps pi/\(a \|c\|\) .* is \S+$"):
                pwlab.composed_norm(phi.iterate(n), f)
        assert pwlab.composed_norm(phi.iterate(23), f) > 0.0
        assert pwlab.composed_norm(phi.iterate(25), PwFunction(math.pi, np.zeros(9))) == 0.0

    def test_kernel_pairing_closed_form(self):
        # <C_phi k_u, k_v> = k_u(phi(v)) for lattice points u, v (exact windows)
        a = math.pi
        phi = AffineSymbol(0.5, 0.25 + 0.1j)
        ident = AffineSymbol(1.0, 0.0)
        f = PwFunction(a, pwlab.kernel_eval(a, 2.0, pwlab.grid(a, 12)))
        for v_node in (-3, 0, 5):
            g = PwFunction(a, pwlab.kernel_eval(a, float(v_node), pwlab.grid(a, 12)))
            got = pwlab.composed_inner_product(phi, f, ident, g)
            ref = pwlab.kernel_eval(a, 2.0, phi(float(v_node)))
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))

    def test_pure_scaling_is_scaled_isometry(self):
        rng = np.random.default_rng(SEED + 13)
        f = pwlab.rough_probe(1.0, 24, rng)
        for c in (0.5, 0.9, -0.25):
            got = pwlab.composed_norm(AffineSymbol(c, 0.0), f)
            assert abs(got - f.norm() / math.sqrt(abs(c))) < 1e-12 * f.norm()

    def test_identity_pair_reduces_to_inner_product(self):
        rng = np.random.default_rng(SEED + 14)
        f = pwlab.rough_probe(1.0, 10, rng)
        g = pwlab.rough_probe(1.0, 10, rng)
        ident = AffineSymbol(1.0, 0.0)
        assert abs(
            pwlab.composed_inner_product(ident, f, ident, g) - pwlab.inner_product(f, g)
        ) < 1e-12

    def test_bandwidth_mismatch(self):
        f = pwlab.node_function(1.0, 4)
        g = pwlab.node_function(2.0, 4)
        phi = AffineSymbol(0.5, 0.0)
        with pytest.raises(BandwidthMismatchError):
            pwlab.composed_inner_product(phi, f, phi, g)

    def test_overflow_guard(self):
        f = pwlab.node_function(1.0, 4)
        phi_big = AffineSymbol(0.5, 400j)
        with pytest.raises(OverflowGuardError):
            pwlab.composed_inner_product(phi_big, f, AffineSymbol(1.0, 0.0), f)

    def test_real_range_guard(self):
        # the shift s = -0.5 conj(1e308) puts a Re s = -5e308 past the float range
        f = pwlab.rough_probe(10.0, 8, np.random.default_rng(SEED + 69))
        with pytest.raises(OverflowGuardError, match="evaluation range"):
            pwlab.composed_inner_product(AffineSymbol(0.5, 1e308), f, AffineSymbol(0.25, 0.0), f)
