"""Norms, spectral radii, and the three spectrum shapes.

For every admissible symbol the operator norm is exact,
||C_phi|| = e^(|Im d| a)/sqrt|c|, and so is the root norm of each iterate,
||C_phi^n||^(1/n) = e^(|Im d_n| a/n)/sqrt|c|. Finite sections of the matrix
in the normalized-kernel basis are compressions, so they approach the norm
from below; root-norms of the iterate sections sit in the bracket
[r(C), ||C^n||^(1/n)] and recover the spectral radius r(C), and the kernel
family along the real axis witnesses non-compactness.
"""

import math

import numpy as np

from pwlab import (
    AffineSymbol,
    build_matrix,
    compactness_witness,
    norm_closed,
    operator_norm_estimate,
    spectral_radius_closed,
    spectral_radius_estimate,
    spectrum_closed_form,
)

HALF_WIDTH = 128


def main():
    print("== operator norm: exact closed form vs finite sections ==")
    cases = [
        (1.0, AffineSymbol(0.25, 0.0), "pure contraction, d real"),
        (1.0, AffineSymbol(1.0, 1.0j), "vertical translation"),
        (math.pi, AffineSymbol(0.5, 0.5j), "mixed"),
    ]
    for a, phi, label in cases:
        closed = norm_closed(phi, a)
        est = operator_norm_estimate(build_matrix(phi, a, HALF_WIDTH))
        print(f"  {label:<26} norm {closed:.6f}  section {est:.6f}")
        assert est <= closed * (1 + 1e-6)

    print("== spectral radius from root-norms ==")
    a, phi = 1.0, AffineSymbol(0.5, 1.0j)
    closed = spectral_radius_closed(phi, a)
    roots = spectral_radius_estimate(phi, a, half_width=192, n_max=10)
    print(f"  closed value 1/sqrt|c| = {closed:.9f}")
    for n in (1, 4, 10):
        hi = norm_closed(phi, a, n)
        print(f"  n={n:>2}  section root norm {roots[n - 1]:.9f}  bracket [{closed:.6f}, {hi:.6f}]")
    print(f"  final gap to closed: {abs(roots[-1] - closed):.3e}")

    print("== the three spectrum shapes ==")
    for phi, a in ((AffineSymbol(-1.0, 0.7 + 0.2j), 1.0),
                   (AffineSymbol(0.5, 1.0), 1.0),
                   (AffineSymbol(1.0, 1.0j), 1.0)):
        desc = spectrum_closed_form(phi, a)
        print(f"  c={phi.c:+.1f} d={phi.d!s:>10}  kind {desc.kind:<16}"
              f"  max boundary modulus {desc.max_boundary_modulus():.6f}")

    print("== non-compactness witness ==")
    # kernels along the real axis: images keep constant norm, no vanishing subsequence
    phi = AffineSymbol(0.5, 1.0j)
    ratios = compactness_witness(phi, a=1.0, n_max=40)
    print(f"  ||C k_n|| / ||k_n||  min {ratios.min():.12f}  max {ratios.max():.12f}")
    print(f"  constant to machine precision: {ratios.max() - ratios.min():.3e}")

    print("closed-form spectral data reproduced by finite sections")


if __name__ == "__main__":
    main()
