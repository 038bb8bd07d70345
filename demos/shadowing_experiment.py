"""Why no orbit shadows the drifting pseudotrajectory.

Start from a seed that does not vanish at the fixed point alpha = d/(1-c)
and perturb each step by delta times the normalized seed. The steps stay a
delta-pseudotrajectory (each hop misses the true image by exactly delta),
yet the value piled up at alpha grows linearly in n. Any candidate orbit
has bounded values there, so its distance to the pseudotrajectory must
also grow linearly. The script measures both sides.
"""

import math

import numpy as np

from pwlab import (
    AffineSymbol,
    build_pseudotrajectory,
    node_function,
    rough_probe,
    shadowing_divergence,
)

SEED = 13
A = math.pi
DELTA = 0.1
N_MAX = 30


def main():
    rng = np.random.default_rng(SEED)
    phi = AffineSymbol(0.5, 0.0)
    seed_fn = node_function(A, half_width=8, node=0)

    print("== building the pseudotrajectory ==")
    P = build_pseudotrajectory(phi, A, seed_fn, delta=DELTA, n_max=N_MAX)
    worst = max(P.defect(n) for n in range(N_MAX + 1))
    print(f"  requested defect {DELTA}  worst measured per-step defect {worst:.12f}")
    print(f"  value at the fixed point after n steps (linear in n):")
    for n in (5, 15, 30):
        print(f"    n={n:>2}  |f_n(alpha)| = {abs(P.value_at_fixed_point(n)):.6f}")

    print("== no orbit can follow it ==")
    # candidate 1: the zero orbit; candidates 2-4: random starts of modest size
    zero = node_function(A, 8, 0)
    zero = type(zero)(zero.a, zero.samples * 0.0)
    candidates = [("zero orbit", zero, 0.0)]
    for k in range(3):
        g = rough_probe(A, half_width=8, rng=rng)
        scale = 0.04 / g.norm()
        candidates.append((f"random start {k + 1}",
                           type(g)(g.a, g.samples * scale), 0.04))
    for label, g, size in candidates:
        D, L = shadowing_divergence(P, g)
        ratio = D[-1] / L[-1] if L[-1] > 0 else float("inf")
        print(f"  {label:<16} ||g|| = {size:.2f}  D_30 = {D[-1]:.4f}"
              f"  certified floor L_30 = {L[-1]:.4f}  D/L = {ratio:.3f}")
        assert np.all(D >= L - 1e-8)

    # the floor itself grows linearly: doubling n doubles it
    _, L = shadowing_divergence(P, zero)
    print(f"  floor growth check: L_30 / L_15 = {L[29] / L[14]:.6f} (exactly 2 for the zero orbit)")

    print("divergence certified: the pseudotrajectory is unshadowable")


if __name__ == "__main__":
    main()
