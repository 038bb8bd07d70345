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


def seven_sinc_pulse(z, width):
    """The cos^6 spectral pulse as its seven shifted sincs via numpy.sinc.

    cos^6 theta = sum_k c_k cos(2 k theta) with c = (10, 15, 6, 1)/32, so
    the pulse is 2 width c_0 sinc(u) + sum_{k=1}^{3} width c_k (sinc(u -
    k pi) + sinc(u + k pi)), u = width z, each term summed on its own.
    """
    coef = np.array([10.0, 15.0, 6.0, 1.0]) / 32.0
    t = (width / math.pi) * np.asarray(z, dtype=np.complex128)
    out = 2.0 * width * coef[0] * np.sinc(t)
    for k in (1, 2, 3):
        out = out + width * coef[k] * (np.sinc(t - k) + np.sinc(t + k))
    return out


def exp_rounding_bound(w, a):
    """(6 + 9 |w| a) eps: the relative error allowed to e^{w t_j} on a midpoint grid of [-a, a].

    A grid point t_j is formed from h = 2a/M and at most six more roundings of
    quantities no larger than 2a: l2_grid's (j + 1/2) h and -a + that, or
    _grid_exp's (lo + 1/2) h, -a + that, b R h, their sum and its tail's r h.
    With eps/2 per rounding that moves t_j by at most 7 eps a, and the
    products with w (head and tail) add 1.5 eps |w| a.  Each exp errs by about
    2 eps relative and _grid_exp's product of two factors by under 1.2 eps.
    """
    return (6.0 + 9.0 * abs(w) * a) * np.finfo(float).eps


def loop_smooth_probe(a, half_width, rng, pulses=6, spread=0.25, band=0.8):
    """Node samples of a smooth probe summed one pulse at a time with seven_sinc_pulse.

    The same draws from rng as pwlab.smooth_probe: coefficients, then centers.
    """
    x = np.arange(-half_width, half_width + 1) * (math.pi / a)
    coeffs = rng.standard_normal(pulses) + 1j * rng.standard_normal(pulses)
    centers = rng.uniform(-spread * half_width, spread * half_width, size=pulses) * (math.pi / a)
    samples = np.zeros(x.size, dtype=np.complex128)
    for cf, tau in zip(coeffs, centers):
        samples += cf * seven_sinc_pulse(x - tau, band * a)
    return samples


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


def dense_gram_norm(entries, tol, seed, max_iterations):
    """Section norm by Lanczos on the dense Gram matrix A*A, formed and Hermitized.

    The reference for _largest_singular_value, which applies A*A to vectors
    as A*(A v): the same exact power-of-two scaling, seeded starts and
    _lanczos, but H is one N x N product, symmetrized as (H + H*)/2.
    Returns (value, steps, certificate, residual) of the larger start.
    """
    from pwlab.spectral import _lanczos

    mat = np.array(entries, dtype=np.complex128)
    e = math.frexp(float(np.max(np.abs(mat), initial=0.0)))[1]
    mat = np.ldexp(mat.view(float), -e).view(complex)
    h = mat.conj().T @ mat
    h = 0.5 * (h + h.conj().T)
    rng = np.random.default_rng(seed)
    dim = h.shape[0]
    runs = []
    for _ in range(2):
        q = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        q /= np.linalg.norm(q)
        theta, residual, steps, certificate = _lanczos(
            lambda v: h @ v, q, tol, min(max_iterations, dim)
        )
        runs.append((math.sqrt(max(theta, 0.0)), residual, steps, certificate))
    top, residual, _, certificate = max(runs)
    return math.ldexp(top, e), (runs[0][2], runs[1][2]), certificate, residual


def dense_ritz_lanczos(h, q, tol, max_steps):
    """spectral._lanczos with a dense eigh of the whole tridiagonal at every step.

    The reference for the O(k) top-Ritz solve (spectral._top_ritz): the
    same recurrence, reorthogonalization and certificates, but theta_k and
    s_k read off np.linalg.eigh of the (k+1) x (k+1) tridiagonal, kept in
    an O(max_steps^2) array.  Returns (theta, residual, steps, certificate).
    """
    dim = q.size
    res_tol = math.sqrt(tol)
    basis = np.empty((max_steps, dim), dtype=np.complex128)
    basis[0] = q
    tri = np.zeros((max_steps, max_steps))
    theta_prev = 0.0

    def explicit(k, s, theta):
        y = s @ basis[: k + 1]
        return float(np.linalg.norm(h(y) - theta * y)) / max(theta, 1e-300)

    for k in range(max_steps):
        w = h(basis[k])
        tri[k, k] = float(np.vdot(basis[k], w).real)
        # the three-term recurrence, then one more Gram-Schmidt pass against the basis
        w -= tri[k, k] * basis[k]
        if k:
            w -= tri[k, k - 1] * basis[k - 1]
        w -= (basis[: k + 1].conj() @ w) @ basis[: k + 1]
        beta = float(np.linalg.norm(w))
        vals, vecs = np.linalg.eigh(tri[: k + 1, : k + 1])
        theta, s = float(vals[-1]), vecs[:, -1]
        scale = max(abs(theta), 1e-300)
        if beta == 0.0 or k + 1 == dim:
            return theta, explicit(k, s, theta), k + 1, "invariant"
        if k >= 2:
            if beta * abs(s[-1]) <= res_tol * scale:
                residual = explicit(k, s, theta)
                if residual <= res_tol:
                    return theta, residual, k + 1, "residual"
            if abs(theta - theta_prev) <= tol * scale:
                return theta, explicit(k, s, theta), k + 1, "stall"
        theta_prev = theta
        if k + 1 < max_steps:
            basis[k + 1] = w / beta
            tri[k + 1, k] = tri[k, k + 1] = beta
    return theta, explicit(max_steps - 1, s, theta), max_steps, None


def term_coefficients(P, n):
    """The coefficient vector of f_n: P.coefficient on iterates 1..n, zero on the rest of 1..n_max+1."""
    x = np.zeros(P.n_max + 1, dtype=np.complex128)
    x[:n] = P.coefficient
    return x


def gram_form(P, x):
    """Re(x* gram x): the squared norm of the combination of iterates with coefficients x."""
    return float(np.real(np.conj(x) @ P.gram @ x))


def full_cross_divergence(P, g, n_max=None):
    """shadowing_divergence through the whole cross matrix, both lag tables.

    The reference for the one-table divergence: M[i-1, j-1] = <C_{phi^[i]}
    g, C_{phi^[j]} f> for i = 1..n_max and every j = 1..P.n_max+1, f the
    seed, from dynamics._lag_table of g against f for j >= i and the
    conjugate of f against g for j < i; D_n reads cross[n-1] @ conj(x) over
    the full row and ||f_n||^2 as the quadratic form gram_form, with x the
    coefficient vector of f_n, and f(alpha) and g(alpha) are summed again here.
    Returns (D, L).
    """
    from pwlab.core import kernel_norm_sq, pw_eval
    from pwlab.dynamics import _lag_table, orbit_norms

    n_max = P.n_max if n_max is None else n_max
    rows, cols = n_max, P.n_max + 1
    upper, up = _lag_table(P.phi, g, P.seed, rows, cols)
    lower, low = _lag_table(P.phi, P.seed, g, rows, rows)
    i = np.arange(1, rows + 1)[:, None]
    j = np.arange(1, cols + 1)
    near = np.minimum(i, j)
    lag = j - i
    entries = np.where(
        lag >= 0,
        upper[up[near - 1], np.maximum(lag, 0)],
        np.conj(lower[low[near - 1], np.maximum(-lag, 0)]),
    )
    cross = abs(P.phi.c) ** -near * entries
    alpha = P.phi.fixed_point()
    f_alpha = pw_eval(P.seed, alpha)
    g_alpha = pw_eval(g, alpha)
    k_alpha = math.sqrt(kernel_norm_sq(P.a, alpha))
    gn_sq = orbit_norms(P.phi, P.a, g, n_max).norms[1:] ** 2
    d_out, l_out = np.empty(n_max), np.empty(n_max)
    for n in range(1, n_max + 1):
        x = term_coefficients(P, n)
        fn_sq = gram_form(P, x)
        mixed = complex(cross[n - 1] @ np.conj(x))
        d_out[n - 1] = math.sqrt(max(gn_sq[n - 1] - 2.0 * mixed.real + fn_sq, 0.0))
        l_out[n - 1] = (n * P.delta * abs(f_alpha) / P.step_norm - abs(g_alpha)) / k_alpha
    return d_out, l_out
