"""The three workloads: request classes, inputs drawn from the seed, and checks.

A workload is a cycle of requests whose classes and sizes are fixed; the
seed draws the probe functions, the real translation parts of the chains
and shadowing runs, the section bandwidths, the command-line seeds and the
order of every cycle.  Every request draws fresh inputs each time its slot
runs, so no slot repeats a call exactly and a cache of results cannot
stand in for the work.
Each request calls pwlab through its public names at call time (so the
tracer's wrappers see it) and returns what the check needs.  Checks run
outside the timed span and compare against an independent route: a
closed form, or the benchmark's own numpy oracle below.

Edge requests probe the edge of the parameter range.  Each expects a typed
``PwLabError`` or a finite, in-range result.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GRID_C = (1.0, -1.0, 0.5, -0.5, 0.25)
GRID_D = (0.0, 1.0, 1j, 1.0 + 1j)


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    edge: bool = False
    slot: int = -1  # position of its factory in the cycle, the same in every round


# -- independent oracles and closed forms -----------------------------------


def direct_eval(a: float, samples: np.ndarray, z) -> np.ndarray:
    """Cardinal series through numpy.sinc, summed in one matrix product."""
    half = (samples.size - 1) // 2
    k = np.arange(-half, half + 1)
    zz = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    return np.sinc((a / math.pi) * zz[:, None] - k[None, :]) @ samples


@functools.lru_cache(maxsize=64)  # sections with real d repeat in every round
def section_oracle(c: float, ad: complex, half_width: int) -> float:
    """Largest singular value of the finite section, straight from LAPACK.

    At the nodes x_k = k pi / a the entries sinc((a/pi)(c x_k + d) - m) depend
    on a and d only through a d.
    """
    k = np.arange(-half_width, half_width + 1)
    entries = np.sinc((c * k + ad / math.pi)[:, None] - k[None, :])
    return float(np.linalg.svd(entries, compute_uv=False)[0])


def iterate(c: float, d: complex, n: int) -> tuple[float, complex]:
    """phi^[n] = (c^n, d_n) for phi(z) = c z + d."""
    if c == 1.0:
        return 1.0, n * d
    cn = c**n
    return cn, d * (1.0 - cn) / (1.0 - c)


def orbit_bounds(c: float, d: complex, a: float, norm: float, n_max: int):
    """Closed enclosure of ||C_{phi^[n]} f||, n = 0..n_max.

    |c_n|^{-1/2} e^{-a|Im d_n|} ||f|| <= ||C_{phi^[n]} f|| <= |c_n|^{-1/2} e^{a|Im d_n|} ||f||,
    with equality on both sides when d is real.
    """
    lo, hi = np.empty(n_max + 1), np.empty(n_max + 1)
    for n in range(n_max + 1):
        cn, dn = iterate(c, d, n)
        base = norm / math.sqrt(abs(cn))
        spread = math.exp(a * abs(complex(dn).imag))
        lo[n], hi[n] = base / spread, base * spread
    return lo, hi


def cesaro_bounds(c: float, d: complex, a: float, norm: float, n_max: int):
    """Closed enclosure of the Cesaro means A_n = (1/n) sum_{j=1..n} ||C_{phi^[j]} f||."""
    lo, hi = orbit_bounds(c, d, a, norm, n_max)
    steps = np.arange(1, n_max + 1)
    return np.cumsum(lo[1:]) / steps, np.cumsum(hi[1:]) / steps


def within(values, lo, hi, rel: float = 1e-9) -> bool:
    values = np.asarray(values, dtype=float)
    return bool(
        np.all(np.isfinite(values))
        and np.all(values >= lo * (1.0 - rel))
        and np.all(values <= hi * (1.0 + rel))
    )


def close(x, y, rel: float) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    scale = float(np.max(np.abs(y))) if y.size else 0.0
    return bool(np.all(np.isfinite(x)) and np.max(np.abs(x - y)) <= rel * scale)


def pw_norm(a: float, samples: np.ndarray) -> float:
    return math.sqrt(math.pi / a) * float(np.linalg.norm(samples))


def expansive(c: float, d: complex) -> bool:
    return abs(c) < 1.0 or (c == 1.0 and complex(d).imag != 0.0)


# -- workload assembly --------------------------------------------------------


class Workload:
    """A fixed cycle of 100 request factories; ``cycle`` draws one ordered cycle.

    Each cycle is laid out in cost tiers, cheapest first, so that the
    percentiles land on plateaus of similar requests and not on the gap
    between two classes: ranks 41-60 (p50) and ranks 84-96 (p90) are each
    filled by requests of one cost level.  An edge request that fails sorts
    last, and one that succeeds sorts first, so both plateaus keep p50 and
    p90 inside when the edges are fixed.
    """

    # Busy seconds of one round at seed state, on the machine the benchmark
    # was written on.  A run makes about seconds / ROUND_S rounds (odd, at
    # least 3), a count that does not depend on how fast the code under test is.
    ROUND_S: float

    def __init__(self, pw, rng: np.random.Generator, scratch: Path):
        self.pw = pw
        self.rng = rng
        self.scratch = scratch
        self.factories: list[tuple[str, Callable[[], Request]]] = []
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def add(self, kind: str, factory: Callable[[], Request], copies: int = 1) -> None:
        self.factories.extend([(kind, factory)] * copies)

    def one_of_each(self) -> list[Request]:
        first = {}
        for kind, factory in self.factories:
            first.setdefault(kind, factory)
        return [factory() for factory in first.values()]

    def cycle(self) -> list[Request]:
        requests = []
        for i in self.rng.permutation(len(self.factories)):
            req = self.factories[i][1]()
            req.slot = int(i)
            requests.append(req)
        return requests

    def pick(self, pool):
        return pool[int(self.rng.integers(len(pool)))]

    def cli(self, argv: list[str], out: Path) -> Callable[[], str]:
        pw = self.pw

        def call():
            code = pw.cli.main(["--out", str(out), *argv])
            if code != 0:
                raise RuntimeError(f"pwlab {argv[0]} exited {code}")
            return out.read_text(encoding="utf-8")

        return call


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real!r}{z.imag:+.17g}i"


class Resample(Workload):
    """Sinc evaluation and Fourier transport; no pairing, no sections."""

    A = 1.0
    M = 4096
    ROUND_S = 2.1

    def build(self) -> None:
        def apply(n, cs, ds=GRID_D, copies=1):
            for c in cs:
                for d in ds:
                    self.add("apply", lambda n=n, c=c, d=d: self.apply(n, c, d), copies)

        def square(n, c, copies):
            self.add("square", lambda: self.square(n, c), copies)

        # Each plateau holds a single family of requests (one N, |c| and kind
        # of d), so a shift in the relative cost of two families cannot move
        # a percentile across a class boundary.  A complex d costs more than
        # a real one at the same N.
        unit, half, cplx = (1.0, -1.0), (0.5, -0.5), (1j, 1.0 + 1j)
        # 40 cheapest: the whole symbol grid at N = 32, the |c| >= 1/2 symbols
        # at N = 48, and the c = +-1 commuting squares
        apply(32, GRID_C)
        apply(48, unit + half)
        square(32, 1.0, 2)
        square(32, -1.0, 2)
        # p50 plateau: 20 applications at N = 64, c = +-1/2, complex d (33k sinc entries)
        apply(64, half, cplx, copies=5)
        # 24 between the plateaus: commuting squares (C7) through the off-grid
        # path, c = +-1 squares at N = 128, and applications at N 48-128
        square(32, 0.5, 2)
        square(32, -0.5, 2)
        square(32, 0.25, 2)
        square(128, 1.0, 2)
        square(128, -1.0, 2)
        apply(48, (0.25,), cplx)
        apply(96, unit, cplx)
        apply(64, (0.25,))
        apply(128, unit, cplx)
        # p90 plateau: 13 applications at N = 128, c = +-1/2, complex d (132k sinc entries)
        apply(128, half, cplx, copies=3)
        apply(128, (0.5,), (1j,))
        # the chain and the two edge requests
        self.add("chain", self.chain)
        self.add("edge_eval", self.edge_eval)
        self.add("edge_alias", self.edge_alias)

    def probe(self, n):
        return self.pw.smooth_probe(self.A, n, self.rng)

    def apply(self, n, c, d) -> Request:
        pw = self.pw
        f = self.probe(n)
        phi = pw.AffineSymbol(c, d)
        width = math.ceil(f.half_width / abs(c))
        spots = self.rng.integers(-width, width + 1, 8)

        def check(g) -> bool:
            if g.half_width != width:
                return False
            x = spots * (math.pi / g.a)
            want = direct_eval(f.a, f.samples, c * x + d)
            budget = 1e-12 * float(np.sum(np.abs(f.samples)))
            got = g.samples[spots + g.half_width]
            return bool(np.all(np.isfinite(g.samples)) and np.max(np.abs(got - want)) <= budget)

        return Request("apply", lambda: pw.compose_apply(phi, f, grow=True), check)

    def square(self, n, c) -> Request:
        """The C7 commuting square, closed by a return trip through from_l2."""
        pw, m = self.pw, self.M
        f = self.probe(n)
        phi = pw.AffineSymbol(c, self.pick(GRID_D))

        def call():
            g = pw.compose_apply(phi, f, grow=True)
            path_a = pw.to_l2(g, m)
            path_b = pw.weighted_compose_apply(phi, pw.to_l2(f, m))
            back = pw.from_l2(path_b, g.half_width)
            return g, path_a, path_b, back

        def check(out) -> bool:
            g, path_a, path_b, back = out
            dt = 2.0 * f.a / m
            gap = math.sqrt(dt) * float(np.linalg.norm(path_a.values - path_b.values))
            return gap <= 1e-6 * f.norm() and close(back.samples, g.samples, 1e-6)

        return Request("square", call, check)

    def chain(self) -> Request:
        """C12 semigroup: six c = 1/2 steps, window 32 -> 2048, against the closed iterate."""
        pw = self.pw
        f = pw.smooth_probe(math.pi, 32, self.rng, spread=0.125, band=0.9)
        d = float(self.rng.uniform(-1.0, 1.0))
        phi = pw.AffineSymbol(0.5, d)
        spots = self.rng.integers(-2048, 2049, 8)

        def call():
            steps = [f]
            for _ in range(6):
                steps.append(pw.compose_apply(phi, steps[-1], grow=True))
            return steps

        def check(steps) -> bool:
            # real d: sqrt|c|^n ||C_phi^n f|| = ||f|| exactly
            norms = [pw_norm(g.a, g.samples) for g in steps]
            ratios = [0.5 ** (n / 2.0) * norms[n] / norms[0] for n in range(7)]
            last = steps[-1]
            cn, dn = iterate(0.5, d, 6)
            x = spots * (math.pi / last.a)
            want = direct_eval(f.a, f.samples, cn * x + dn)
            budget = 1e-9 * float(np.sum(np.abs(f.samples)))
            return (
                last.half_width == 2048
                and close(ratios, np.ones(7), 1e-9)
                and float(np.max(np.abs(last.samples[spots + 2048] - want))) <= budget
            )

        return Request("chain", call, check)

    def edge_eval(self) -> Request:
        """pw_eval at Im z = 800, where the cardinal series leaves double range."""
        pw = self.pw
        f = self.probe(32)
        z = complex(float(self.rng.uniform(-10.0, 10.0)), 800.0 / f.a)

        def check(val) -> bool:
            want = complex(direct_eval(f.a, f.samples, z)[0])
            return math.isfinite(abs(want)) and close(val, want, 1e-9)

        return Request("edge_eval", lambda: pw.pw_eval(f, z), check, edge=True)

    def edge_alias(self) -> Request:
        """to_l2 onto M = 32 < 2N+1 = 65 points, too few to hold the function."""
        pw = self.pw
        f = pw.rough_probe(self.A, 32, self.rng)

        def check(F) -> bool:
            return close(pw.from_l2(F, f.half_width).samples, f.samples, 1e-9)

        return Request("edge_alias", lambda: pw.to_l2(f, 32), check, edge=True)


class Orbits(Workload):
    """The closed pairing: orbit traces, Cesaro means, certificates, shadowing."""

    A = 1.0
    N_MAX = 20
    ROUND_S = 2.9

    def build(self) -> None:
        def each(kind, make, cs=GRID_C, ds=GRID_D, copies=1):
            for c in cs:
                for d in ds:
                    self.add(kind, lambda c=c, d=d: make(c, d), copies)

        unit, contracting = (1.0, -1.0), (0.5, -0.5, 0.25)
        real, cplx = (0.0, 1.0), (1j, 1.0 + 1j)
        # 40 cheapest: orbit traces at N = 24 (C11), the c = +-1 certificates
        # (C8), and the Cesaro means at N = 32 (C9) with real d or c = +-1
        each("orbit", lambda c, d: self.orbit(24, c, d, "orbit"), unit + (0.5, -0.5))
        each("orbit", lambda c, d: self.orbit(24, c, d, "orbit"), (0.25,), cplx)
        each("certificate", lambda c, d: self.certificate(24, c, d), unit)
        each("cesaro", lambda c, d: self.cesaro(32, c, d), GRID_C, real)
        each("cesaro", lambda c, d: self.cesaro(32, c, d), unit, cplx)
        # p50 plateau: 20 Cesaro means at N = 32 with |c| < 1 and complex d, of one cost level
        each("cesaro", lambda c, d: self.cesaro(32, c, d), contracting, cplx, copies=3)
        self.add("cesaro", lambda: self.cesaro(32, 0.5, 1j))
        self.add("cesaro", lambda: self.cesaro(32, -0.5, 1.0 + 1j))
        # 24 between the plateaus: `pwlab orbit` and `pwlab cesaro` commands,
        # certificates that scan for a doubling time, orbit traces at N = 48 and 64
        self.add("cli_orbit", self.cli_orbit, copies=4)
        self.add("cli_cesaro", self.cli_cesaro, copies=4)
        each("certificate", lambda c, d: self.certificate(24, c, d), contracting)
        self.add("orbit", lambda: self.orbit(48, 0.5, 1j, "orbit"))
        self.add("orbit", lambda: self.orbit(48, -1.0, 1.0, "orbit"))
        self.add("orbit", lambda: self.orbit(64, 0.25, 1.0 + 1j, "orbit"))
        self.add("orbit", lambda: self.orbit(64, -0.5, 0.0, "orbit"))
        # p90 plateau: 13 shadowing runs (C10), cross pairings of different
        # iterates; 9 of them through `pwlab shadow`
        self.add("shadow", self.shadow, copies=4)
        self.add("cli_shadow", self.cli_shadow, copies=9)
        # two wide orbit traces and the edge request
        self.add("wide", lambda: self.orbit(256, 0.5, 1j, "wide", n_max=6), copies=2)
        self.add("edge_cesaro", self.edge_cesaro)

    def probe(self, n):
        return self.pw.rough_probe(self.A, n, self.rng)

    def orbit(self, n, c, d, kind, n_max=N_MAX) -> Request:
        pw, a = self.pw, self.A
        f = self.probe(n)
        phi = pw.AffineSymbol(c, d)
        lo, hi = orbit_bounds(c, d, a, pw_norm(a, f.samples), n_max)
        return Request(
            kind, lambda: pw.orbit_norms(phi, a, f, n_max), lambda tr: within(tr.norms, lo, hi)
        )

    def cesaro(self, n, c, d) -> Request:
        pw, a, n_max = self.pw, self.A, self.N_MAX
        f = self.probe(n)
        phi = pw.AffineSymbol(c, d)
        lo, hi = cesaro_bounds(c, d, a, pw_norm(a, f.samples), n_max)
        return Request(
            "cesaro", lambda: pw.cesaro_averages(phi, a, f, n_max), lambda avg: within(avg, lo, hi)
        )

    def certificate(self, n, c, d) -> Request:
        pw, a = self.pw, self.A
        f = self.probe(n)
        phi = pw.AffineSymbol(c, d)
        # closed enclosure of the unit orbit; doubling can only happen where hi >= 2
        lo, hi = orbit_bounds(c, d, a, 1.0, 200)

        def check(cert) -> bool:
            if cert.expansive != expansive(c, d):
                return False
            if not cert.expansive:
                return within([cert.sup_norm], 1.0, math.exp(a * abs(complex(d).imag)), 1e-6)
            n = cert.n_star
            first_possible = int(np.argmax(hi >= 2.0 * (1.0 - 1e-9)))
            certain = np.nonzero(lo >= 2.0 * (1.0 + 1e-9))[0]
            first_certain = int(certain[0]) if certain.size else cert.cap
            return 1 <= n <= cert.cap and first_possible <= n <= first_certain

        return Request(
            "certificate", lambda: pw.expansivity_certificate(phi, a, f, horizon=self.N_MAX), check
        )

    def shadow(self) -> Request:
        """C10: a drifting pseudotrajectory outruns the orbit of a small candidate."""
        pw, a, n_max, delta = self.pw, math.pi, 12, 0.1
        d = float(self.rng.uniform(-0.4, 0.4))
        phi = pw.AffineSymbol(0.5, d)
        f = pw.node_function(a, 32, 0)
        g = pw.rough_probe(a, 32, self.rng)
        g = pw.scaled(g, 0.04 / g.norm())
        # L_n = (n delta |f(alpha)| / ||C_phi f|| - |g(alpha)|) / ||k_alpha|| at the real
        # fixed point alpha, with ||C_phi f|| = ||f|| / sqrt|c| and ||k_alpha||^2 = a / pi
        alpha = d / 0.5
        f_alpha = abs(direct_eval(a, f.samples, alpha)[0])
        g_alpha = abs(direct_eval(a, g.samples, alpha)[0])
        step_norm = math.sqrt(math.pi / a) / math.sqrt(0.5)
        floor = (np.arange(1, n_max + 1) * delta * f_alpha / step_norm - g_alpha) / math.sqrt(a / math.pi)

        def call():
            P = pw.build_pseudotrajectory(phi, a, f, delta, n_max)
            return pw.shadowing_divergence(P, g, n_max)

        def check(out) -> bool:
            D, L = out
            return close(L, floor, 1e-9) and bool(np.all(np.isfinite(D)) and np.min(D - L) >= -1e-8)

        return Request("shadow", call, check)

    def cli_orbit(self) -> Request:
        c, d = self.pick(GRID_C), self.pick(GRID_D)
        kind = self.pick(("smooth", "rough"))
        seed = int(self.rng.integers(2**31))
        argv = ["--seed", str(seed), "--half-width", "32", "--n-max", str(self.N_MAX), "orbit",
                "--a", repr(self.A), "--c", repr(c), "--d", _fmt_complex(d), "--probe", kind]

        def check(text) -> bool:
            norms = np.array([float(line.split(",")[1]) for line in text.splitlines()[1:]])
            lo, hi = orbit_bounds(c, d, self.A, norms[0], self.N_MAX)
            return norms.size == self.N_MAX + 1 and within(norms, lo, hi)

        return Request("cli_orbit", self.cli(argv, self.scratch / "orbit.csv"), check)

    def cli_cesaro(self) -> Request:
        c, d = self.pick(GRID_C), self.pick(GRID_D)
        node = int(self.rng.integers(-32, 33))
        argv = ["--half-width", "32", "--n-max", str(self.N_MAX), "cesaro", "--a", repr(self.A),
                "--c", repr(c), "--d", _fmt_complex(d), "--probe", "node", "--node", str(node)]
        # a node function has ||f||^2 = pi / a
        lo, hi = cesaro_bounds(c, d, self.A, math.sqrt(math.pi / self.A), self.N_MAX)

        def check(text) -> bool:
            avg = np.array([float(line.split(",")[1]) for line in text.splitlines()[1:]])
            return avg.size == self.N_MAX and within(avg, lo, hi)

        return Request("cli_cesaro", self.cli(argv, self.scratch / "cesaro.csv"), check)

    def cli_shadow(self) -> Request:
        """`pwlab shadow` at its node-probe example; the floor L_n rises by delta sqrt|c| per step."""
        seed = int(self.rng.integers(2**31))
        n_max = 12
        argv = ["--seed", str(seed), "--half-width", "32", "--n-max", str(n_max), "shadow",
                "--a", repr(math.pi), "--c", "0.5", "--d", "0", "--probe", "node"]

        def check(text) -> bool:
            rows = np.array([[float(v) for v in line.split()] for line in text.splitlines()])
            if rows.shape != (n_max, 3):
                return False
            D, L = rows[:, 1], rows[:, 2]
            return close(np.diff(L), np.full(n_max - 1, 0.1 * math.sqrt(0.5)), 1e-9) and bool(
                np.min(D - L) >= -1e-8
            )

        return Request("cli_shadow", self.cli(argv, self.scratch / "shadow.dat"), check)

    def edge_cesaro(self) -> Request:
        """cesaro_averages at c = 1e-3, n_max = 80: |c1 c2| = |c|^{2n} underflows in the pairing."""
        pw, a, n_max = self.pw, self.A, 80
        f = self.probe(24)
        phi = pw.AffineSymbol(1e-3, 0.0)
        lo, hi = cesaro_bounds(1e-3, 0.0, a, pw_norm(a, f.samples), n_max)
        return Request(
            "edge_cesaro",
            lambda: pw.cesaro_averages(phi, a, f, n_max),
            lambda avg: within(avg, lo, hi),
            edge=True,
        )


class Sections(Workload):
    """Finite sections and power iteration; no sinc evaluation, pairing or Fourier work.

    Each request draws its bandwidth a from [0.9, 1.1], so the section of a
    symbol with d != 0 differs from round to round.
    """

    A = 1.0
    ROUND_S = 2.5

    def build(self) -> None:
        def sections(kind, n, symbols, copies=1):
            for c, d in symbols:
                self.add(kind, lambda c=c, d=d: self.section(c, d, n, kind), copies)

        def commands(n, symbols):
            for c, d in symbols:
                self.add("cli_norm", lambda c=c, d=d: self.cli_norm(c, d, n))

        # identity and reflection sections are exact and cheap; complex d
        # separates the top singular value, so the Rayleigh stall fires early
        unit0 = [(1.0, 0.0), (-1.0, 0.0)]
        unit = [(c, d) for c in (1.0, -1.0) for d in (1j, 1.0 + 1j)]
        half = [(c, d) for c in (0.5, -0.5) for d in (1j, 1.0 + 1j)]
        quarter = [(0.25, 1j), (0.25, 1.0 + 1j)]
        # real d away from the identity and reflection: the top singular values
        # cluster and power iteration runs on to its residual certificate
        slow = [(1.0, 1.0), (0.5, 0.0), (-0.5, 0.0), (0.25, 0.0)]

        def radii(symbols):
            for c, d in symbols:
                self.add("radius", lambda c=c, d=d: self.radius(c, d))

        # 40 cheapest
        sections("section", 32, unit0 + unit + half + quarter)
        sections("section", 32, half + quarter)
        sections("section", 48, unit0 + half + quarter)
        sections("section", 64, unit0 + quarter)
        sections("section", 80, unit0)
        sections("section", 96, unit0)
        commands(32, half + quarter)
        # p50 plateau: 20 sections of a single family, N = 64, c = +-1/2, complex d
        sections("section", 64, half, copies=5)
        # 23 between the plateaus, radius sequences (C3) among them
        sections("section", 80, half)
        radii([(-0.5, 1j), (-0.5, 1.0 + 1j)] * 2)
        commands(64, [(0.5, 1j), (-0.5, 1.0 + 1j)])
        sections("section", 64, unit)
        sections("section", 96, half)
        sections("section", 128, quarter)
        commands(96, [(0.5, 1j), (0.25, 1.0 + 1j), (-0.5, 1j)])
        # p90 plateau: 12 sections at N = 128, c = +-1/2, complex d
        sections("section", 128, half, copies=3)
        # the slow sections and the edge request
        sections("section_slow", 32, slow)
        self.add("edge_norm", self.edge_norm)

    def bandwidth(self) -> float:
        return float(self.rng.uniform(0.9, 1.1))

    def section(self, c, d, n, kind) -> Request:
        pw, a = self.pw, self.bandwidth()
        phi = pw.AffineSymbol(c, d)
        return Request(
            kind,
            lambda: pw.operator_norm_estimate(pw.build_matrix(phi, a, n)),
            lambda est: self._check_norm(est, c, d, a, n),
        )

    @staticmethod
    def _check_norm(est, c, d, a, n) -> bool:
        """Against LAPACK on the benchmark's own section, inside the closed enclosure."""
        hi = math.exp(a * abs(complex(d).imag)) / math.sqrt(abs(c))
        if not (math.isfinite(est) and est <= hi * (1.0 + 1e-9)):
            return False
        return abs(est / section_oracle(c, a * d, n) - 1.0) <= 1e-5

    def radius(self, c, d) -> Request:
        """C3 root-norm sequence s_n inside the closed iterate bracket (3% section slack).

        Only |c| = 1/2, as in C3: at c = 1/4 a 65-node window stops resolving
        the iterates after n = 3 and the sequence drops below the bracket.
        """
        pw, a, n_max = self.pw, self.bandwidth(), 6
        phi = pw.AffineSymbol(c, d)

        def check(s) -> bool:
            lo = np.full(n_max, 1.0 / math.sqrt(abs(c)))
            hi = np.array([lo[0] * math.exp(a * abs(iterate(c, d, n)[1].imag) / n)
                           for n in range(1, n_max + 1)])
            return within(s, 0.97 * lo, 1.03 * hi, 0.0)

        return Request("radius", lambda: pw.spectral_radius_estimate(phi, a, 32, n_max), check)

    def cli_norm(self, c, d, n) -> Request:
        a = self.bandwidth()
        argv = ["--half-width", str(n), "norm", "--a", repr(a), "--c", repr(c),
                "--d", _fmt_complex(d)]

        def check(text) -> bool:
            rec = json.loads(text)
            closed = math.exp(a * abs(complex(d).imag)) / math.sqrt(abs(c))
            return close(rec["closed_form"], closed, 1e-12) and self._check_norm(
                rec["section_estimate"], c, d, a, n
            )

        return Request("cli_norm", self.cli(argv, self.scratch / "norm.json"), check)

    def edge_norm(self) -> Request:
        """The section norm at a|Im d| = 200, where A^H A leaves double range."""
        pw, a, n = self.pw, self.A, 16
        phi = pw.AffineSymbol(1.0, 200j)
        return Request(
            "edge_norm",
            lambda: pw.operator_norm_estimate(pw.build_matrix(phi, a, n)),
            lambda est: self._check_norm(est, 1.0, 200j, a, n),
            edge=True,
        )


WORKLOADS = {"resample": Resample, "orbits": Orbits, "sections": Sections}
