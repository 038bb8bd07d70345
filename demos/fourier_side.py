"""The Fourier-side picture of composition.

On the transform side a PW_a function becomes an L2 density on (-a, a), and
C_phi becomes a weighted composition: scale the frequency axis by 1/c, then
multiply by a character times 1/|c|. The script transports probes across,
verifies that norms survive the trip, and closes the square

    compose then transform  ==  transform then weighted-compose.
"""

import numpy as np

from pwlab import (
    AffineSymbol,
    L2Function,
    compose_apply,
    from_l2,
    inner_product,
    smooth_probe,
    spectral_radius_closed,
    to_l2,
    weighted_compose_apply,
)

SEED = 7
M_POINTS = 4096


def main():
    a = 1.0
    rng = np.random.default_rng(SEED)
    f = smooth_probe(a, half_width=96, rng=rng)

    print("== unitary transport ==")
    F = to_l2(f, M_POINTS)
    g = from_l2(F, f.half_width)
    print(f"  ||f||          = {f.norm():.12f}")
    print(f"  ||F|| on grid  = {F.norm():.12f}")
    print(f"  round trip err = {max(abs(g.samples - f.samples)):.3e}")

    print("== inner products survive ==")
    h = smooth_probe(a, half_width=96, rng=rng)
    lhs = inner_product(f, h)
    rhs = F.inner(to_l2(h, M_POINTS))
    print(f"  <f, h>  sample side  {lhs:+.12f}")
    print(f"  <F, H>  fourier side {rhs:+.12f}")

    print("== commuting square ==")
    for c, d in ((0.5, 1.0 + 1.0j), (-0.5, 0.3j), (1.0, 2.0 - 0.25j), (-1.0, 1.0)):
        phi = AffineSymbol(c, d)
        left = to_l2(compose_apply(phi, f, grow=True), M_POINTS)
        right = weighted_compose_apply(phi, F)
        gap = max(abs(left.values - right.values))
        print(f"  c={c:+.2f} d={d!s:>10}  max gap {gap:.3e}")
        assert gap < 1e-6

    print("== support shrinks to (-|c| a, |c| a) ==")
    phi = AffineSymbol(0.5, 0.0)
    cutoff = abs(phi.c) * a
    moved = weighted_compose_apply(phi, F)
    outside = abs(moved.values[np.abs(moved.grid()) >= cutoff])
    print(f"  cutoff half-width {cutoff:.6f}  max |F| outside {max(outside):.3e}")

    print("== multiplier norm on the transform side ==")
    for d in (0.5j, 1.0 + 0.7j):
        weight = weighted_compose_apply(AffineSymbol(1.0, d), L2Function(a, np.ones(M_POINTS)))
        print(f"  d={d!s:>10}  sup of weight {max(abs(weight.values)):.9f}"
              f"  closed e^(|Im d| a) {spectral_radius_closed(AffineSymbol(1.0, d), a):.9f}")

    print("fourier picture consistent with the sample picture")


if __name__ == "__main__":
    main()
