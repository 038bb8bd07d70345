"""Sampling model tour: kernels, interpolation, Parseval, reproduction.

Every function here lives on the node grid x_n = pi*n/a. The script checks
the closed kernel-norm formulas, rebuilds values off the grid by cardinal
interpolation, and confirms that inner products against kernels reproduce
point values.
"""

import math

import numpy as np

from pwlab import (
    KernelPoint,
    PwFunction,
    inner_product,
    kernel_eval,
    kernel_norm_sq,
    pw_eval,
    smooth_probe,
)

SEED = 2024


def main():
    a = 1.0
    rng = np.random.default_rng(SEED)

    print("== kernel norms ==")
    for w in (0.0, 0.7, 1j, 2 - 0.5j):
        closed = a / math.pi if w.imag == 0 else math.sinh(2 * a * w.imag) / (2 * math.pi * w.imag)
        computed = KernelPoint(a, w).norm_sq()
        print(f"  w={w!s:>10}  closed {closed:.12f}  computed {computed:.12f}"
              f"  self-eval {kernel_eval(a, w, w).real:.12f}")
        assert abs(computed - closed) < 1e-12 * max(1.0, closed)

    print("== removable singularity ==")
    print(f"  k_0(0) = {kernel_eval(a, 0.0, 0.0):.12f}  (a/pi = {a / math.pi:.12f})")

    print("== cardinal interpolation ==")
    f = smooth_probe(a, half_width=64, rng=rng)
    targets = rng.uniform(-20, 20, size=5) + 1j * rng.uniform(-1, 1, size=5)
    # truncation is the only error source for points well inside the window
    for z in targets:
        direct = sum(
            v * kernel_eval(a, (math.pi * n / a) + 0j, z) * (math.pi / a)
            for n, v in zip(range(-f.half_width, f.half_width + 1), f.samples)
        )
        print(f"  z={z:+.3f}  pw_eval {pw_eval(f, z):+.10f}  node series {direct:+.10f}")
        assert abs(pw_eval(f, z) - direct) < 1e-9 * max(1.0, abs(direct))

    print("== Parseval on samples ==")
    energy = (math.pi / a) * float(np.sum(np.abs(f.samples) ** 2))
    print(f"  norm^2 from inner_product {inner_product(f, f).real:.12f}  from samples {energy:.12f}")

    print("== reproducing property ==")
    for w in (0.3, 1.2 + 0.4j):
        point = KernelPoint(a, w).to_pw(f.half_width)
        paired = inner_product(f, point)
        value = pw_eval(f, w)
        print(f"  w={w!s:>10}  <f, k_w> = {paired:+.10f}  f(w) = {value:+.10f}")
        assert abs(paired - value) <= 1e-8 * max(1.0, f.norm())

    print("all sampling-model identities confirmed")


if __name__ == "__main__":
    main()
