"""Orbit dynamics: growth regimes, expansivity, Cesaro means.

One symbol family, three regimes. Contractions (|c| < 1) expand every
nonzero vector at rate |c|^(-n/2). Translations split on Im d: real shifts
are unitary, complex ones grow like e^(n |Im d| a). The reflection c = -1
is period two, so nothing interesting can grow. The classification table,
the expansivity certificates, and the Cesaro averages all tell the same
story from different angles.
"""

import math

import numpy as np

from pwlab import (
    AffineSymbol,
    PwFunction,
    cesaro_averages,
    cesaro_lower_envelope,
    classify,
    expansivity_certificate,
    grid,
    kernel_eval,
    orbit_norms,
    rough_probe,
    smooth_probe,
)

SEED = 5
A = 1.0


def main():
    rng = np.random.default_rng(SEED)

    print("== classification table ==")
    symbols = [
        AffineSymbol(0.5, 1.0),
        AffineSymbol(1.0, 2.0),
        AffineSymbol(1.0, 1.0j),
        AffineSymbol(-1.0, 0.3),
        AffineSymbol(-1.0, 1.0j),
    ]
    flags = ("unitary", "normal", "invertible", "positively_expansive",
             "cesaro_bounded", "li_yorke", "shadowing")
    header = "  c      d        " + "  ".join(f"{f[:9]:>9}" for f in flags)
    print(header)
    for phi in symbols:
        report = classify(phi)
        row = "  ".join(f"{str(report.flags()[f]):>9}" for f in flags)
        print(f"  {phi.c:+.1f}  {phi.d!s:>8}  {row}")

    print("== orbit growth against the closed rates ==")
    f = smooth_probe(A, half_width=48, rng=rng)
    for phi, rate, label in (
        (AffineSymbol(0.25, 0.0), 2.0, "contraction: |c|^(-1/2) per step"),
        (AffineSymbol(1.0, 1.0j), math.e, "translation: at most e^(|Im d| a) per step"),
        (AffineSymbol(-1.0, 0.5), 1.0, "reflection: period two"),
    ):
        trace = orbit_norms(phi, A, f, n_max=10)
        per_step = (trace.norms[-1] / trace.norms[0]) ** (1.0 / 10.0)
        print(f"  {label:<44} measured {per_step:.6f}  closed {rate:.6f}")
        assert per_step <= rate * (1 + 1e-9)

    print("== expansivity certificates ==")
    raw = smooth_probe(A, half_width=48, rng=rng)
    unit = PwFunction(A, raw.samples / raw.norm())
    for phi in (AffineSymbol(0.5, 0.0), AffineSymbol(1.0, 1.0j), AffineSymbol(1.0, 2.0)):
        cert = expansivity_certificate(phi, A, unit, horizon=40)
        if cert.expansive:
            print(f"  c={phi.c:+.2f} d={phi.d!s:>6}  expansive, doubles by n = {cert.n_star}"
                  f" (search cap {cert.cap})")
        else:
            print(f"  c={phi.c:+.2f} d={phi.d!s:>6}  not expansive, orbit sup {cert.sup_norm:.6f}")

    print("== Cesaro averages: bounded vs blowing up ==")
    g = rough_probe(A, half_width=48, rng=rng)
    bounded = cesaro_averages(AffineSymbol(-1.0, 1.0 + 1.0j), A, g, n_max=40)
    print(f"  reflection:  max_n A_n / ||g|| = {bounded.max() / g.norm():.6f}")
    seedling = PwFunction(math.pi, kernel_eval(math.pi, 1.0, grid(math.pi, 8)))
    crossing = cesaro_averages(AffineSymbol(0.5, 0.0), math.pi, seedling, n_max=40)
    envelope = cesaro_lower_envelope(AffineSymbol(0.5, 0.0), seedling, n_max=40)
    print(f"  contraction: A_40 / ||f|| = {crossing[-1] / seedling.norm():.3e}"
          f"  certified floor {envelope[-1] / seedling.norm():.3e}")
    assert np.all(crossing >= envelope * (1 - 1e-9))

    print("orbit statistics agree with the classification table")


if __name__ == "__main__":
    main()
