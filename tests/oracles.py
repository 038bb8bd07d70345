"""Independent numerical oracles for the test suite.

Each oracle recomputes its target from the defining formula with a
different discretization or summation order than the library uses, so an
agreement is evidence rather than tautology.  Test-only module.
"""

import cmath
import math

import numpy as np


def direct_eval(a, samples, z):
    """Cardinal-series evaluation via numpy.sinc, no argument rearrangement."""
    samples = np.asarray(samples, dtype=np.complex128)
    half = (samples.size - 1) // 2
    k = np.arange(-half, half + 1)
    zz = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    u = (a / math.pi) * zz[:, None] - k[None, :]
    out = np.sinc(u) @ samples
    return out if np.ndim(z) else complex(out[0])


def fsum_eval(a, samples, z):
    """Scalar cardinal series with compensated (fsum) accumulation."""
    half = (len(samples) - 1) // 2
    re_parts, im_parts = [], []
    for k, v in zip(range(-half, half + 1), samples):
        u = complex(z) * (a / math.pi) - k
        if u == 0:
            s = 1.0 + 0j
        else:
            y = math.pi * u
            s = cmath.sin(y) / y
        term = complex(v) * s
        re_parts.append(term.real)
        im_parts.append(term.imag)
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def panel_inner_product(a, phi1, f_samples, phi2, g_samples, t_max=200.0,
                        n_panels=512, order=16):
    """Line integral of f(phi1(t)) conj(g(phi2(t))) by piecewise Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-t_max, t_max, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half_lens = 0.5 * (edges[1:] - edges[:-1])
    t = (mids[:, None] + half_lens[:, None] * nodes[None, :]).ravel()
    w = (half_lens[:, None] * weights[None, :]).ravel()
    z1 = phi1.c * t + phi1.d
    z2 = phi2.c * t + phi2.d
    vals = direct_eval(a, f_samples, z1) * np.conj(direct_eval(a, g_samples, z2))
    return complex(np.sum(w * vals))


def svd_norm(entries):
    """Largest singular value straight from LAPACK."""
    return float(np.linalg.svd(np.asarray(entries), compute_uv=False)[0])


def dense_pairing(phi1, f, phi2, g):
    """<C_phi1 f, C_phi2 g> as the dense double sum over the full complex-sinc block.

    (pi r/(a^2 |c1 c2|)) sum_{n,m} v_n conj(w_m) sinc(r kappa_nm) with
    r = min(|c1|, |c2|) a and kappa_nm = d1/c1 - conj(d2)/c2 - n pi/(a c1)
    + m pi/(a c2), blocked over rows of the (2N1+1) x (2N2+1) matrix.
    """
    a = f.a
    c1, d1 = phi1.c, phi1.d
    c2, d2 = phi2.c, phi2.d
    shift = d1 / c1 - np.conj(d2) / c2
    r = min(abs(c1), abs(c2)) * a
    n = np.arange(-f.half_width, f.half_width + 1)
    m = np.arange(-g.half_width, g.half_width + 1)
    col = shift - n * (math.pi / (a * c1))
    row = m * (math.pi / (a * c2))
    total = 0.0 + 0.0j
    for lo in range(0, n.size, 512):
        hi = min(lo + 512, n.size)
        u = r * (col[lo:hi, None] + row[None, :])
        small = np.abs(u) < 1e-4
        u_safe = np.where(small, 1.0, u)
        u2 = u * u
        series = 1.0 - u2 / 6.0 * (1.0 - u2 / 20.0 * (1.0 - u2 / 42.0))
        sinc = np.where(small, series, np.sin(u_safe) / u_safe)
        total += np.conj(g.samples) @ sinc.T @ f.samples[lo:hi]
    return complex(total * (math.pi * r / (a * a * abs(c1 * c2))))


def dense_transform(a, samples, s):
    """The unitary image F(s) = sqrt(pi/a)/sqrt(2a) sum_n v_n e^{-i n pi s/a}, densely.

    to_l2's defining sum at arbitrary real points s, one exponential per
    (point, node) pair in blocks of 256 points: no coefficient step, no trim.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    half = (samples.size - 1) // 2
    n = np.arange(-half, half + 1)
    s = np.asarray(s, dtype=float)
    out = np.empty(s.size, dtype=np.complex128)
    for lo in range(0, s.size, 256):
        out[lo:lo + 256] = np.exp(-1j * np.outer(s[lo:lo + 256], n) * (math.pi / a)) @ samples
    return math.sqrt(math.pi / a) / math.sqrt(2.0 * a) * out
