"""Finite sections, norm estimates, spectra, and operator-theoretic witnesses."""

import inspect
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

import pwlab
from pwlab import AffineSymbol, OperatorMatrix, spectral
from pwlab.spectral import _largest_singular_value, _top_ritz
from pwlab.verify import _isometry_check
from oracles import dense_gram_norm, dense_ritz_lanczos, direct_section, section_rounding_bound, svd_norm

SEED = pwlab.DEFAULT_SEED
EPS = np.finfo(float).eps


def closed_norm(phi, a):
    return math.exp(abs(phi.d.imag) * a) / math.sqrt(abs(phi.c))


def oracle_sweep():
    """Sections and seeded random matrices the section norm is held to its oracles on."""
    sections = [
        pwlab.build_matrix(AffineSymbol(c, d), 1.0, n).entries
        for c in (1.0, -1.0, 0.5, -0.5, 0.25, 0.9)
        for d in (0.0, 0.7, 1j, 1.0 + 1j, 0.3 + 250j)
        for n in (1, 2, 16, 64)
    ]
    rng = np.random.default_rng(SEED)
    for _ in range(5):
        entries = rng.normal(size=(17, 17)) + 1j * rng.normal(size=(17, 17))
        sections += [entries * 2.0**k for k in (-600, 0, 400)]
    return sections


def tridiagonals(seed):
    """Seeded symmetric tridiagonals (alpha, beta), sizes 1 to 150, in four kinds.

    plain: N(0, 1) diagonal and |N(0, 1)| couplings; scaled: both times
    dim^2/3, so theta reaches dim^2 like a scaled section's A*A; zero: zero
    diagonal; deflated: couplings times 10^U(-8, 0), so beta^2/theta^2 goes
    down to 1e-16.
    """
    rng = np.random.default_rng(seed)
    for dim in (1, 2, 3, 4, 7, 16, 33, 64, 150):
        for kind in ("plain", "scaled", "zero", "deflated"):
            scale = dim * dim / 3.0 if kind == "scaled" else 1.0
            alpha = np.zeros(dim) if kind == "zero" else scale * rng.normal(size=dim)
            beta = scale * np.abs(rng.normal(size=dim - 1))
            if kind == "deflated":
                beta *= 10.0 ** rng.uniform(-8.0, 0.0, size=dim - 1)
            yield alpha, beta


class CountedRows(list):
    """The rows of a tridiagonal, counting the passes _top_ritz makes over them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class TestSections:
    def test_identity_section(self):
        T = pwlab.build_matrix(AffineSymbol(1.0, 0.0), 1.3, 20).entries
        assert np.max(np.abs(T - np.eye(41))) < 1e-14

    def test_reflection_section_squares_to_identity(self):
        T = pwlab.build_matrix(AffineSymbol(-1.0, 0.0), 2.0, 40).entries
        assert np.max(np.abs(T @ T - np.eye(81))) < 1e-13

    def test_entries_vs_mpmath(self):
        # halved-lattice section at a=pi: T[n,m] = sinc(pi (n/2 - m))
        T = pwlab.build_matrix(AffineSymbol(0.5, 0.0), math.pi, 16).entries
        mp.mp.dps = 50
        for n, m in [(1, 0), (1, 1), (1, 2), (3, -1), (2, 1), (4, 2), (-5, 3)]:
            u = mp.pi * (mp.mpf(n) / 2 - m)
            ref = float(mp.sin(u) / u) if u != 0 else 1.0
            assert abs(T[16 + n, 16 + m] - ref) < 1e-14
        # complex d, with columns far from the node nearest phi(x_n)
        a, phi = 1.3, AffineSymbol(-0.5, 0.3 + 0.2j)
        T = pwlab.build_matrix(phi, a, 64).entries
        for n, m in [(0, 0), (1, 0), (-3, 2), (7, -4), (60, -30), (-60, 30), (64, 64), (-64, -10)]:
            u = mp.mpf(a) * (mp.mpf(phi.c) * n * mp.pi / a + mp.mpc(0.3, 0.2) - m * mp.pi / a)
            ref = complex(mp.sin(u) / u)
            assert abs(T[64 + n, 64 + m] - ref) < 1e-14
        # p != +-1 (c = -3/4: four coset kernels read at stride 3) and c = 0.9,
        # whose q = 2^53 > 2N + 1 makes every row its own class
        for c in (-0.75, 0.9):
            phi = AffineSymbol(c, 0.3 + 0.2j)
            T = pwlab.build_matrix(phi, a, 64).entries
            for n, m in [(0, 0), (1, 0), (-3, 2), (4, -3), (7, -4), (60, -45), (-60, 30), (64, 64), (-64, -48)]:
                u = mp.mpf(a) * (mp.mpf(c) * n * mp.pi / a + mp.mpc(0.3, 0.2) - m * mp.pi / a)
                assert abs(T[64 + n, 64 + m] - complex(mp.sin(u) / u)) < 1e-14

    def test_entries_match_direct_section(self):
        # the coset kernels against the per-entry formula, within the rounding
        # bound of two such formulas, for p != +-1, q near N and 2N, and q > 2N
        for c in (1.0, -1.0, 0.5, -0.5, 0.25, -0.75, 0.375, 1 / 64, 127 / 128, 0.9, 2.0**-12, 1e-3):
            for d in (0.0, 0.7, 1j, 1.0 + 1j, 0.3 + 250j):
                for n in (1, 2, 16, 64, 128):
                    phi = AffineSymbol(c, d)
                    ref = direct_section(phi, 1.0, n)
                    gap = np.abs(pwlab.build_matrix(phi, 1.0, n).entries - ref)
                    assert np.all(gap <= section_rounding_bound(phi, 1.0, n, ref)), (c, d, n)

    def test_kernel_table_never_exceeds_the_section(self):
        # the q class rows hold at most half the section's entries, or the table is the section
        for c in (1.0, -1.0, 0.5, -0.75, 1 / 3, 3 / 8, 1 / 64, 127 / 128, -255 / 256, 0.9, 2.0**-12, 1e-3, 1e-300):
            q = c.as_integer_ratio()[1]
            for n in (1, 2, 3, 16, 63, 64, 65, 127, 128, 129, 256, 512):
                size = 2 * n + 1
                table, row, start = spectral._section_kernels(AffineSymbol(c, 0.3 + 0.4j), 1.0, n)
                assert table.size <= size * size, (c, n, table.shape)
                if row is None:
                    assert table.shape == (size, size)
                else:
                    assert 2 * table.size <= size * size and table.shape[0] == q
                    assert row.shape == start.shape == (size,) and np.all(start + size <= table.shape[1])
                # q > N classes of width >= 2N+1 pass half the section; q <= N/4 classes of width <= 4N + q + 1 do not
                if q > n:
                    assert row is None
                elif 4 * q <= n:
                    assert row is not None

    def test_lanczos_reads_the_same_sections(self):
        # on the benchmark's section families the norm takes the same steps and
        # certificate on the coset section as on the per-entry one
        plateau = [(c, d) for c in (0.5, -0.5) for d in (1j, 1.0 + 1j)] + [(0.25, 1j), (1.0, 1j), (-1.0, 1.0 + 1j)]
        slow = [(1.0, 1.0), (0.5, 0.0), (-0.5, 0.0), (0.25, 0.0)]
        for a in (0.9, 1.1):
            for (c, d), widths in [(s, (64, 128)) for s in plateau] + [(s, (32,)) for s in slow]:
                for n in widths:
                    phi = AffineSymbol(c, d)
                    got = _largest_singular_value(pwlab.build_matrix(phi, a, n).entries)
                    ref = _largest_singular_value(direct_section(phi, a, n))
                    assert (got.steps, got.certificate) == (ref.steps, ref.certificate), (a, c, d, n)
                    assert abs(got.value / ref.value - 1.0) <= 1e-12

    def test_identity_and_reflection_are_exact(self):
        # one sine per class: delta_r = 0 at node hits clears every other entry
        for a, n in [(1.3, 20), (math.pi, 64), (0.7, 1)]:
            eye = np.eye(2 * n + 1)
            np.testing.assert_array_equal(pwlab.build_matrix(AffineSymbol(1.0, 0.0), a, n).entries, eye)
            np.testing.assert_array_equal(
                pwlab.build_matrix(AffineSymbol(-1.0, 0.0), a, n).entries, eye[::-1]
            )

    def test_matrix_validation_and_immutability(self):
        T = pwlab.build_matrix(AffineSymbol(0.5, 0.0), 1.0, 4)
        with pytest.raises(ValueError):
            T.entries[0, 0] = 5.0
        # a section is square with an odd side 2N+1
        for shape in ((3, 9), (8, 8), (9,)):
            with pytest.raises(ValueError, match="square with an odd side"):
                OperatorMatrix(np.zeros(shape))

    def test_entries_are_kept_without_a_second_copy_only_when_safe(self):
        phi = AffineSymbol(0.5, 0.0)
        # build_matrix hands over a read-only array that owns its data: kept as it is
        T = pwlab.build_matrix(AffineSymbol(-0.5, 0.3 + 0.2j), 1.0, 8)
        assert not T.entries.flags.writeable and T.entries.flags.owndata
        # a writeable input is copied: the caller's later writes do not reach the section
        mine = np.arange(81, dtype=complex).reshape(9, 9)
        T = OperatorMatrix(mine)
        mine[0, 0] = 99.0
        assert T.entries[0, 0] == 0.0 and not T.entries.flags.writeable
        # so is a read-only view of a writeable base
        base = np.arange(81, dtype=complex).reshape(9, 9)
        view = base.view()
        view.setflags(write=False)
        T = OperatorMatrix(view)
        base[0, 0] = 99.0
        assert T.entries[0, 0] == 0.0 and not T.entries.flags.writeable
        # a read-only Fortran-ordered array is copied to the C order the norm reads
        fortran = np.asfortranarray(np.eye(9, dtype=complex) * 3.0)
        fortran.setflags(write=False)
        T = OperatorMatrix(fortran)
        assert T.entries.flags.c_contiguous
        assert abs(pwlab.operator_norm_estimate(T) - 3.0) <= 1e-14
        # a read-only view of a bytes buffer owns no data: copied, and still a read-only section
        T = pwlab.build_matrix(phi, 1.0, 4)
        view = np.frombuffer(T.entries.tobytes(), dtype=np.complex128).reshape(T.entries.shape)
        assert not view.flags.writeable and not view.flags.owndata
        back = OperatorMatrix(view)
        assert not back.entries.flags.writeable and back.entries.flags.owndata
        np.testing.assert_array_equal(back.entries, T.entries)

    def test_build_guard(self):
        with pytest.raises(pwlab.OverflowGuardError):
            pwlab.build_matrix(AffineSymbol(1.0, 400j), 1.0, 8)
        # (2N+1)^2 complex entries past the memory budget raise before anything is allocated
        with pytest.raises(pwlab.OverflowGuardError, match="section of"):
            pwlab.build_matrix(AffineSymbol(0.5, 0.0), 1.0, 2**20)


class TestNormEstimate:
    def test_against_lapack_on_sections(self):
        for phi, a in [
            (AffineSymbol(0.5, 0.0), math.pi),
            (AffineSymbol(1.0, 1j), 1.0),
            (AffineSymbol(-0.5, 0.3 + 0.2j), 1.0),
            # entries near e^200 and e^250: A*(A v) on the raw section would overflow
            (AffineSymbol(1.0, 200j), 1.0),
            (AffineSymbol(-0.5, 0.3 + 250j), 1.0),
        ]:
            T = pwlab.build_matrix(phi, a, 32)
            est = pwlab.operator_norm_estimate(T)
            assert abs(est - svd_norm(T.entries)) < 1e-5 * svd_norm(T.entries)

    def test_against_lapack_on_random_matrices(self):
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            entries = rng.normal(size=(17, 17)) + 1j * rng.normal(size=(17, 17))
            T = OperatorMatrix(entries)
            est = pwlab.operator_norm_estimate(T)
            assert abs(est - svd_norm(entries)) < 1e-8 * svd_norm(entries)
            # the iteration runs on an exactly rescaled section, so powers of
            # two pass through bit for bit, even where A*(A v) would underflow
            for k in (-600, 400):
                tiny_or_huge = OperatorMatrix(entries * 2.0**k)
                assert pwlab.operator_norm_estimate(tiny_or_huge) == est * 2.0**k

    def test_nonfinite_section_raises(self):
        # +inf in a real part, NaN in a real or an imaginary part alone, -inf in
        # an imaginary part: the scale is read from the largest real or
        # imaginary part, and none of these may pass it as finite
        for bad in (np.inf, complex(np.nan, 0.0), complex(0.0, np.nan), complex(0.0, -np.inf)):
            for where in ((0, 1), (8, 8)):
                entries = np.eye(9, dtype=complex)
                entries[where] = bad
                T = OperatorMatrix(entries)
                with pytest.raises(pwlab.OverflowGuardError):
                    pwlab.operator_norm_estimate(T)

    def test_sections_increase_to_closed_norm(self):
        phi = AffineSymbol(0.5, 0.7)
        a = 1.0
        prev = 0.0
        for n in (16, 32, 64, 128):
            est = pwlab.operator_norm_estimate(pwlab.build_matrix(phi, a, n))
            assert est >= prev - 1e-5 * max(prev, 1.0)
            assert est <= closed_norm(phi, a) * (1.0 + 1e-9)
            prev = est
        assert prev >= closed_norm(phi, a) * 0.97

    def test_bracket_and_desk_window(self):
        # the section is a compression of C_phi: at most the exact norm, and
        # within 3% of it at N = 128, for complex d with c != 1 as well
        for a, phi in (
            (1.0, AffineSymbol(0.25, 0.0)),
            (1.0, AffineSymbol(0.5, 1j)),
            (1.0, AffineSymbol(-0.5, 1.0 + 1j)),
            (1.0, AffineSymbol(1.0, 0.5j)),
            (1.0, AffineSymbol(0.5, 0.3 + 0.4j)),
            (math.pi, AffineSymbol(-0.5, 0.2 + 0.3j)),
        ):
            closed = pwlab.norm_closed(phi, a)
            assert abs(closed - closed_norm(phi, a)) < 1e-14
            est = pwlab.operator_norm_estimate(pwlab.build_matrix(phi, a, 128))
            assert est <= closed * (1.0 + 1e-9)
            assert est >= closed * 0.97

    def test_lanczos_on_flat_real_d_sections(self):
        # C1's first section and (1, 0.5, 0.7): top singular values agree to
        # six digits, where power iteration needed 8-10k steps
        for a, c, d in [(math.pi, 0.25, 0.0), (1.0, 0.5, 0.7)]:
            T = pwlab.build_matrix(AffineSymbol(c, d), a, 128)
            record = _largest_singular_value(T.entries)
            assert abs(record.value - svd_norm(T.entries)) < 1e-5 * svd_norm(T.entries)
            assert record.value == pwlab.operator_norm_estimate(T)
            assert max(record.steps) <= 64
            assert record.certificate == "residual"
            assert record.residual <= 1e-5
            assert record.start_gap < 1e-5

    def test_matrix_free_product_matches_dense_gram(self):
        # A*(A v) against the formed, Hermitized A*A through the same Lanczos:
        # the same Krylov steps and certificate, values to rounding.  Exact step
        # equality is safe across BLAS kernels: over this sweep the closest
        # stopping comparison ends 1e-4 relative from its threshold, and the
        # two products differ by rounding, about 1e-15 relative
        for entries in oracle_sweep():
            record = _largest_singular_value(entries)
            value, steps, certificate, _ = dense_gram_norm(entries)
            assert record.steps == steps and record.certificate == certificate
            assert abs(record.value - value) <= 1e-13 * value
            assert record.residual <= math.sqrt(spectral._TOL)

    def test_top_ritz_solve_matches_dense_eigh(self, monkeypatch):
        # the O(k) top-Ritz solve against a dense eigh of the whole tridiagonal
        # at every step, in the same driver: the same Krylov steps and
        # certificate, values to rounding.  The oracle takes its Gram-Schmidt
        # coefficients from a conjugated copy of the basis and beta from
        # np.linalg.norm, so it holds the step's own arithmetic to rounding
        # as well; the bench's plateau families (c = +-1/2, d in {i, 1+i},
        # N in {64, 128}, a drawn from [0.9, 1.1]) run it at the timed sizes
        rng = np.random.default_rng(SEED)
        sections = oracle_sweep() + [
            pwlab.build_matrix(AffineSymbol(c, d), 1.0, 128).entries
            for c in (0.25, -0.75)
            for d in (0.0, 0.7, 1j, 1.0 + 1j, 0.3 + 250j)
        ] + [
            pwlab.build_matrix(AffineSymbol(c, d), float(rng.uniform(0.9, 1.1)), n).entries
            for c in (0.5, -0.5)
            for d in (1j, 1.0 + 1j)
            for n in (64, 128)
            for _ in range(2)
        ]
        records = [_largest_singular_value(entries) for entries in sections]
        monkeypatch.setattr(spectral, "_lanczos", dense_ritz_lanczos)
        for entries, record in zip(sections, records):
            reference = _largest_singular_value(entries)
            assert record.steps == reference.steps
            assert record.certificate == reference.certificate
            assert abs(record.value - reference.value) <= 1e-14 * reference.value
            assert record.residual <= math.sqrt(spectral._TOL)

    def test_deflation_edge(self, monkeypatch):
        # (-1, 0.3+250i, N = 1): the first start's third Ritz value meets the
        # second to rounding, and _top_ritz hands back theta_1 with s_2 = 0
        ritz = []

        def recorded(rows, theta, s2):
            ritz.append(_top_ritz(rows, theta, s2))
            return ritz[-1]

        monkeypatch.setattr(spectral, "_top_ritz", recorded)
        entries = pwlab.build_matrix(AffineSymbol(-1.0, 0.3 + 250j), 1.0, 1).entries
        record = _largest_singular_value(entries)
        assert ritz[2] == (ritz[1][0], 0.0)
        assert record.certificate == "invariant" and record.steps == (3, 3)
        assert abs(record.value - svd_norm(entries)) <= 1e-14 * svd_norm(entries)

    def test_invariant_certificate(self, monkeypatch):
        # a Krylov space as wide as the section is invariant, whatever tolerance is asked
        monkeypatch.setattr(spectral, "_TOL", 1e-30)
        rng = np.random.default_rng(SEED)
        entries = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        record = _largest_singular_value(entries)
        assert record.certificate == "invariant" and record.steps == (3, 3)
        assert abs(record.value - svd_norm(entries)) < 1e-13 * svd_norm(entries)
        # _TOL = 1e-30 asks for more than rounding gives, so (1, i) at N = 48 certifies
        # by some test within the section's 97 steps, at its LAPACK norm
        entries = pwlab.build_matrix(AffineSymbol(1.0, 1j), 1.0, 48).entries
        record = _largest_singular_value(entries)
        assert record.certificate in ("residual", "invariant") and max(record.steps) <= 97
        assert abs(record.value - svd_norm(entries)) <= 1e-14 * svd_norm(entries)
        # exact breakdown on the first step
        zero = _largest_singular_value(np.zeros((5, 5), dtype=complex))
        assert zero.value == 0.0 and zero.certificate == "invariant" and zero.steps == (1, 1)

    def test_section_norm_takes_no_settings(self):
        # the tolerance is spectral._TOL and the starts come from DEFAULT_SEED: no caller sets either
        for fn in (pwlab.operator_norm_estimate, pwlab.spectral_radius_estimate,
                   spectral._largest_singular_value, spectral._lanczos):
            assert not {"tol", "seed"} & set(inspect.signature(fn).parameters), fn.__name__


class TestTopRitz:
    def test_against_eigh_on_seeded_tridiagonals(self):
        # T_0, T_1, ... of each matrix in turn, as Lanczos grows them.  The
        # value is held to the Rayleigh quotient of eigh's top eigenvector,
        # summed by fsum: on these matrices eigh's own top eigenvalue strays
        # up to 49 eps ||T|| from a 50-digit reference, the quotient 1.7
        for seed in (SEED, SEED + 1):
            for alpha, beta in tridiagonals(seed):
                rows, theta, s2 = CountedRows(), 0.0, 0.0
                for k in range(alpha.size):
                    rows.append((float(alpha[k]), float(beta[k - 1]) ** 2 if k else 0.0))
                    previous, rows.passes = theta, 0
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        theta, s2 = _top_ritz(rows, theta, s2)
                    # every pass shrinks the bracket: no cap, and a few dozen at most
                    assert rows.passes <= 64
                    assert k == 0 or theta >= previous
                    tri = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
                    vals, vecs = np.linalg.eigh(tri)
                    y = vecs[:, -1]
                    quotient = math.fsum(
                        np.concatenate([alpha[: k + 1] * y * y, 2.0 * beta[:k] * y[:-1] * y[1:]])
                    ) / math.fsum(y * y)
                    assert abs(theta - quotient) <= 8.0 * EPS * max(abs(vals[0]), abs(vals[-1]))
                    assert abs(s2 - y[-1] ** 2) <= 1e-12


class TestSectionEdges:
    def test_norm_and_root_norms_at_the_edges(self):
        # slopes down to 1e-3 and a |Im d| just inside and just past the
        # guard's limit of 300: a finite value at most the exact norm, or a
        # typed error; past the limit the section itself cannot be built
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for c in (1.0, -1.0, 0.5, -0.5, 0.25, 0.9, 1e-3):
                for d in (0.0, 0.7, 1j, 0.3 + 250j, 0.3 + 299.99j, 0.3 + 300.01j):
                    phi = AffineSymbol(c, d)
                    for n in (1, 2, 3, 64):
                        if abs(d.imag) > 300.0:
                            with pytest.raises(pwlab.OverflowGuardError):
                                pwlab.build_matrix(phi, 1.0, n)
                        else:
                            value = pwlab.operator_norm_estimate(pwlab.build_matrix(phi, 1.0, n))
                            assert math.isfinite(value)
                            assert value <= pwlab.norm_closed(phi, 1.0) * (1.0 + 1e-9)
                        try:
                            roots = pwlab.spectral_radius_estimate(phi, 1.0, n, 3)
                        except pwlab.PwLabError:
                            continue
                        for k, root in enumerate(roots, 1):
                            assert math.isfinite(root)
                            assert root <= pwlab.norm_closed(phi, 1.0, k) * (1.0 + 1e-9)


class TestSpectralRadius:
    def test_closed_values(self):
        assert pwlab.spectral_radius_closed(AffineSymbol(0.25, 5j), 1.0) == 2.0
        assert abs(
            pwlab.spectral_radius_closed(AffineSymbol(1.0, 2j), 1.5) - math.exp(3.0)
        ) < 1e-12
        assert pwlab.spectral_radius_closed(AffineSymbol(-1.0, 7.0 + 2j), 3.0) == 1.0

    def test_bracket_formulas(self):
        # the Gelfand bracket [r(C), ||C^n||^{1/n}]: the upper edge is the n-th
        # root of the exact norm of the iterate C_{phi^[n]}
        for a, phi in (
            (1.0, AffineSymbol(0.5, 1j)),
            (1.0, AffineSymbol(0.25, 0.3 + 0.4j)),
            (math.pi, AffineSymbol(-0.5, 0.2 + 0.3j)),
            (2.0, AffineSymbol(1.0, 0.7 - 0.2j)),
            (1.0, AffineSymbol(-1.0, 1.0 + 1j)),
        ):
            radius = pwlab.spectral_radius_closed(phi, a)
            for n in range(1, 13):
                hi = pwlab.norm_closed(phi, a, n)
                ref = closed_norm(phi.iterate(n), a) ** (1.0 / n)
                assert abs(hi - ref) < 1e-13 * ref
                assert radius <= hi * (1.0 + 1e-15)
        # translations have a degenerate bracket: the root-norm is exact
        phi = AffineSymbol(1.0, 1j)
        assert pwlab.spectral_radius_closed(phi, 1.0) == pwlab.norm_closed(phi, 1.0, 4) == math.exp(1.0)

    def test_bracket_overflow_guard(self):
        # the upper edge exponentiates a |Im d_n| / n = 800
        for n in (1, 7):
            with pytest.raises(pwlab.OverflowGuardError):
                pwlab.norm_closed(AffineSymbol(1.0, 800j), 1.0, n)
        for n in (0, -1, 1.5):
            with pytest.raises(ValueError):
                pwlab.norm_closed(AffineSymbol(0.5, 1j), 1.0, n)

    def test_root_norm_sequence_in_bracket(self):
        phi = AffineSymbol(0.5, 1j)
        a = 1.0
        s = pwlab.spectral_radius_estimate(phi, a, 96, 6)
        assert s.shape == (6,)
        lo = pwlab.spectral_radius_closed(phi, a)
        for n in range(1, 7):
            assert lo * 0.97 <= s[n - 1] <= pwlab.norm_closed(phi, a, n) * 1.03

    def test_band_edge_probe_reaches_exact_root_norm(self):
        # an independent route to ||C^n||^{1/n}: the closed pairing of
        # orbit_norms applied to f = e^{i s (1-eps) a z} pulse(z, eps a), whose
        # spectrum sits in the band edge s [a - 2 eps a, a], s = -sign Im d,
        # where the weight e^{-2 Im(d_n) t} of C^n is largest
        def ratios(phi, a, eps, half_width):
            s = -math.copysign(1.0, phi.d.imag)
            x = pwlab.grid(a, half_width)
            f = pwlab.PwFunction(
                a, np.exp(1j * s * (1.0 - eps) * a * x) * pwlab.spectral_pulse(x, eps * a)
            )
            norms = pwlab.orbit_norms(phi, a, f, 12).norms
            return np.array([
                (norms[n] / norms[0]) ** (1.0 / n) / pwlab.norm_closed(phi, a, n)
                for n in range(1, 13)
            ])

        for a, phi in (
            (1.0, AffineSymbol(0.5, 1j)),
            (1.0, AffineSymbol(0.25, 0.3 + 0.4j)),
            (1.0, AffineSymbol(-0.5, 0.2 - 0.3j)),
            (math.pi, AffineSymbol(-0.5, 0.2 + 0.3j)),
            (1.0, AffineSymbol(1.0, 1j)),
        ):
            fine = ratios(phi, a, 0.02, 1000)
            assert np.all(fine >= 0.97) and np.all(fine <= 1.0 + 1e-9)
            # a narrower band edge comes closer to the exact norm
            assert np.all(fine >= ratios(phi, a, 0.1, 200))

    def test_root_norms_use_iterate_sections(self):
        # each entry must match the norm of the section of C_{phi^n}, not a
        # power of the n=1 section
        phi = AffineSymbol(0.5, 1.0)
        a = 1.0
        s = pwlab.spectral_radius_estimate(phi, a, 48, 3)
        for n in (1, 2, 3):
            direct = pwlab.operator_norm_estimate(pwlab.build_matrix(phi.iterate(n), a, 48)) ** (1.0 / n)
            assert abs(s[n - 1] - direct) < 1e-9


class TestSpectrumDescriptor:
    def test_reflection_pair(self):
        desc = pwlab.spectrum_closed_form(AffineSymbol(-1.0, 2.0 + 1j), 1.0)
        assert desc.kind == "two-point-set"
        pts = desc.boundary_samples(2)
        assert sorted(np.round(pts.real, 12).tolist()) == [-1.0, 1.0]
        assert desc.contains(1.0) and desc.contains(-1.0)
        assert not desc.contains(0.0) and not desc.contains(1j)
        assert abs(desc.max_boundary_modulus() - 1.0) < 1e-15

    def test_disk(self):
        desc = pwlab.spectrum_closed_form(AffineSymbol(0.25, 1j), 1.0)
        assert desc.kind == "closed-disk"
        assert abs(desc.radius - 2.0) < 1e-14
        assert np.max(np.abs(np.abs(desc.boundary_samples(64)) - 2.0)) < 1e-13
        assert desc.contains(0.0) and desc.contains(1.9j) and desc.contains(2.0)
        assert not desc.contains(2.0001) and not desc.contains(-2.5j)

    def test_arc(self):
        a = 1.0
        d = 0.3 + 0.5j
        desc = pwlab.spectrum_closed_form(AffineSymbol(1.0, d), a)
        assert desc.kind == "exponential-arc"
        samples = desc.boundary_samples(101)
        t = np.linspace(-a, a, 101)
        np.testing.assert_allclose(samples, np.exp(1j * d * t), atol=1e-13)
        assert desc.contains(np.exp(1j * d * 0.7))
        assert desc.contains(np.exp(1j * d * a))  # endpoint included
        assert not desc.contains(np.exp(1j * d * 1.2))  # off the parameter range
        assert not desc.contains(0.0)
        assert abs(desc.max_boundary_modulus() - math.exp(0.5 * a)) < 1e-15

    def test_real_translation_arc_is_unit_circle_arc(self):
        desc = pwlab.spectrum_closed_form(AffineSymbol(1.0, 2.0), 1.0)
        assert desc.kind == "exponential-arc"
        assert abs(desc.max_boundary_modulus() - 1.0) < 1e-14
        assert desc.contains(np.exp(2j))

    def test_boundary_count_must_be_positive(self):
        for phi in (AffineSymbol(-1.0, 1.0), AffineSymbol(0.5, 0.0), AffineSymbol(1.0, 1j)):
            desc = pwlab.spectrum_closed_form(phi, 1.0)
            assert desc.boundary_samples(1).size == (2 if desc.kind == "two-point-set" else 1)
            for count in (0, -3):
                with pytest.raises(ValueError, match="boundary count"):
                    desc.boundary_samples(count)

    def test_max_modulus_matches_closed_radius(self):
        a = 1.0
        for phi in (
            AffineSymbol(-1.0, 3.0 + 2j),
            AffineSymbol(0.5, 1.0 + 1j),
            # the arc's largest modulus e^{a |Im d|} sits at t = -a for Im d > 0, at t = a for Im d < 0
            AffineSymbol(1.0, 1j),
            AffineSymbol(1.0, -1j),
        ):
            desc = pwlab.spectrum_closed_form(phi, a)
            gap = abs(desc.max_boundary_modulus() - pwlab.spectral_radius_closed(phi, a))
            assert gap <= 1e-12


class TestWitnesses:
    def test_compactness_witness_constant(self):
        w = pwlab.compactness_witness(AffineSymbol(0.5, 1j), 1.0, 30)
        assert w.shape == (30,)
        assert np.max(np.abs(w - math.sinh(2.0) / 2.0)) < 1e-12
        w_real = pwlab.compactness_witness(AffineSymbol(-0.5, 4.0), 2.0, 10)
        assert np.max(np.abs(w_real - 1.0)) < 1e-12

    def test_isometry_check_detects_exactness(self):
        # C6's helper, kept in pwlab.verify so the section module imports no composition
        dev = _isometry_check(0.5, math.pi, seed=SEED)
        assert dev < 1e-9

    def test_closed_range_fact(self):
        # every admissible symbol has closed range; classify says why
        for phi, reason in (
            (AffineSymbol(0.5, 1j), "bounded below: "),
            (AffineSymbol(1.0, 2.0), "invertible: "),
            (AffineSymbol(-1.0, 1j), "invertible: "),
        ):
            report = pwlab.classify(phi, 1.0)
            assert report.closed_range is True
            assert dict(report.justifications)["closed_range"].startswith(reason)

    def test_norm_witness_probe_deterministic(self):
        f1 = pwlab.smooth_probe(1.0, 32, np.random.default_rng(4))
        f2 = pwlab.smooth_probe(1.0, 32, np.random.default_rng(4))
        np.testing.assert_array_equal(f1.samples, f2.samples)
        phi = AffineSymbol(0.5, 1j)
        ratio = pwlab.composed_norm(phi, f1) / f1.norm()
        assert ratio <= pwlab.norm_closed(phi, 1.0) * (1.0 + 1e-12)
