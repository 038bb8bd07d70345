"""Command-line front end.

Subcommands map one-to-one onto the library layers: kernel and norm work in
the sampling picture, spectrum and classify report closed forms, orbit and
cesaro trace growth, shadow runs the divergence experiment, and verify runs
the twelve-check acceptance battery.

Output formats: kernel, norm, spectrum, classify and verify --out write one
JSON record each, compact with sorted keys, complex values as [re, im] pairs
and floats as shortest round-trip decimals; orbit and cesaro write two-column
CSV under an n,norm or n,average header; shadow writes space-separated DAT
columns n D_n L_n with no header.

Determinism contract: with the same arguments, every subcommand writes
byte-identical output, ending in a newline on every platform.  Output goes
to the --out path when given, else to stdout.  An existing --out file is
overwritten in place from offset 0 and then trimmed, so it holds the bytes
stdout would get; a target that is not a regular file (/dev/null, a FIFO)
is written without trimming.  A write that fails still exits 2, and leaves
the file's contents undefined.

Exit codes: 0 success, 1 a check failed, 2 invalid configuration or
arguments, 3 overflow guard tripped.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from .core import (
    DEFAULT_SEED,
    AffineSymbol,
    OverflowGuardError,
    PwFunction,
    PwLabError,
    _bandwidth,
    _guard_size,
    grid,
    kernel_eval,
    kernel_norm_sq,
    scaled,
)
from .dynamics import build_pseudotrajectory, cesaro_averages, classify, orbit_norms, shadowing_divergence
from .probes import node_function, rough_probe, smooth_probe
from .spectral import _largest_singular_value, build_matrix, norm_closed, spectrum_closed_form
from .verify import run_all

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INVALID_CONFIG = 2
EXIT_OVERFLOW = 3


def parse_complex(text: str):
    """Parse 're+imi' literals, e.g. '0.5', '1i', '-0.3+2i'.

    One that starts with '-' attaches with '=' ('--d=-2-0.5I'), or argparse reads it as an option.
    """
    cleaned = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from None


def parse_int_literal(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse integer {text!r}") from None


def _emit(text: str, args: argparse.Namespace) -> None:
    payload = text if text.endswith("\n") else text + "\n"
    if not args.out:
        sys.stdout.write(payload)
        return
    data = memoryview(payload.encode("utf-8"))
    # no O_TRUNC: on ext4 mounted with discard, cutting a written file to zero
    # and rewriting it took about 110 us; writing over it and trimming took 7 us
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _pairs(arr) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(arr, dtype=np.complex128)]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _make_probe(args: argparse.Namespace):
    rng = np.random.default_rng(args.seed)
    if args.probe == "smooth":
        return smooth_probe(args.a, args.half_width, rng)
    if args.probe == "rough":
        return rough_probe(args.a, args.half_width, rng)
    return node_function(args.a, args.half_width, args.node)


def cmd_kernel(args: argparse.Namespace) -> int:
    _guard_size(2 * args.half_width + 1, "kernel points", 73)  # kernel_eval's budget, before grid builds the points
    f = PwFunction(args.a, kernel_eval(args.a, args.w, grid(args.a, args.half_width)))
    record = {
        "a": args.a,
        "w": [args.w.real, args.w.imag],
        "norm_sq": kernel_norm_sq(args.a, args.w),
        "function": {"a": f.a, "N": f.half_width, "samples": _pairs(f.samples)},
    }
    _emit(_dumps(record), args)
    return EXIT_OK


def cmd_norm(args: argparse.Namespace) -> int:
    phi = AffineSymbol(args.c, args.d)
    # the exact norm e^{a |Im d|}/sqrt|c|; a section is a compression, so it stays below
    closed = norm_closed(phi, args.a)
    entries = build_matrix(phi, args.a, args.half_width).entries
    norm = _largest_singular_value(entries)
    record = {
        "a": args.a,
        "c": phi.c,
        "d": [phi.d.real, phi.d.imag],
        "half_width": args.half_width,
        "closed_form": closed,
        "section_estimate": norm.value,
        "relative_deviation": abs(norm.value / closed - 1.0),
        "iterations": list(norm.steps),
        "certificate": norm.certificate,
        "residual": norm.residual,
    }
    _emit(_dumps(record), args)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    desc = spectrum_closed_form(AffineSymbol(args.c, args.d), args.a)
    record: dict = {"kind": desc.kind, "a": desc.a}
    if desc.kind == "closed-disk":
        record["radius"] = desc.radius
    if desc.kind == "exponential-arc":
        record["d"] = [desc.d.real, desc.d.imag]
    record["boundary"] = _pairs(desc.boundary_samples(args.boundary_count))
    _emit(_dumps(record), args)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    phi = AffineSymbol(args.c, args.d)
    report = classify(phi)
    record = {
        "a": _bandwidth(args.a),
        "c": phi.c,
        "d": [phi.d.real, phi.d.imag],
        "flags": report.flags(),
        "justifications": dict(report.justifications),
    }
    _emit(_dumps(record), args)
    return EXIT_OK


def cmd_orbit(args: argparse.Namespace) -> int:
    phi = AffineSymbol(args.c, args.d)
    f = _make_probe(args)
    trace = orbit_norms(phi, args.a, f, args.n_max)
    _emit("\n".join(["n,norm"] + [f"{n},{float(v)!r}" for n, v in enumerate(trace.norms)]), args)
    return EXIT_OK


def cmd_cesaro(args: argparse.Namespace) -> int:
    phi = AffineSymbol(args.c, args.d)
    f = _make_probe(args)
    averages = cesaro_averages(phi, args.a, f, args.n_max)
    _emit("\n".join(["n,average"] + [f"{n},{float(v)!r}" for n, v in enumerate(averages, 1)]), args)
    return EXIT_OK


def cmd_shadow(args: argparse.Namespace) -> int:
    if not 0.0 <= args.g_norm < math.inf:  # NaN fails both comparisons
        raise ValueError("g_norm must be nonnegative and finite")
    phi = AffineSymbol(args.c, args.d)
    f = _make_probe(args)
    P = build_pseudotrajectory(phi, args.a, f, args.delta, args.n_max)
    g_raw = rough_probe(args.a, args.half_width, np.random.default_rng(args.seed + 1))
    g = scaled(g_raw, args.g_norm / g_raw.norm())
    divergence, lower = shadowing_divergence(P, g, args.n_max)
    rows = zip(range(1, args.n_max + 1), divergence, lower)
    _emit("\n".join(f"{float(n)!r} {float(div)!r} {float(low)!r}" for n, div, low in rows), args)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # the acceptance battery always runs at its pinned configurations
    results = run_all()
    lines = [f"{r.check_id} {'PASS' if r.passed else 'FAIL'} {r.title}: {r.detail}" for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        summary = [
            {"id": r.check_id, "title": r.title, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        _emit(_dumps(summary), args)
    return EXIT_OK if n_pass == len(results) else EXIT_CHECK_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The pwlab parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="pwlab",
        description="Numerical laboratory for affine composition operators on "
        "bandlimited function spaces.",
    )
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--seed", type=parse_int_literal, default=DEFAULT_SEED, help="RNG seed for probes")
    parser.add_argument("--half-width", dest="half_width", type=int, default=128, help="window half width N")
    parser.add_argument("--n-max", dest="n_max", type=int, default=12, help="orbit horizon")

    sub = parser.add_subparsers(dest="command", required=True)

    def add_symbol_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--a", type=float, required=True, help="bandwidth a > 0")
        p.add_argument("--c", type=float, required=True, help="scaling part, real, 0 < |c| <= 1")
        p.add_argument("--d", type=parse_complex, default=0j, help="translation part, re+imi")

    p_kernel = sub.add_parser("kernel", help="sample a reproducing kernel")
    p_kernel.add_argument("--a", type=float, required=True)
    p_kernel.add_argument("--w", type=parse_complex, required=True, help="kernel point, re+imi")
    p_kernel.set_defaults(func=cmd_kernel)

    p_norm = sub.add_parser("norm", help="closed-form norm vs finite-section estimate")
    add_symbol_args(p_norm)
    p_norm.set_defaults(func=cmd_norm)

    p_spec = sub.add_parser("spectrum", help="closed-form spectrum descriptor")
    add_symbol_args(p_spec)
    p_spec.add_argument("--boundary-count", type=int, default=64)
    p_spec.set_defaults(func=cmd_spectrum)

    p_cls = sub.add_parser("classify", help="operator-theoretic property report")
    add_symbol_args(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    def add_probe_args(p: argparse.ArgumentParser, default: str = "smooth") -> None:
        p.add_argument("--probe", choices=("smooth", "rough", "node"), default=default)
        p.add_argument("--node", type=int, default=0, help="node index for --probe node")

    p_orbit = sub.add_parser("orbit", help="orbit norm trace ||C^n f||")
    add_symbol_args(p_orbit)
    add_probe_args(p_orbit)
    p_orbit.set_defaults(func=cmd_orbit)

    p_ces = sub.add_parser("cesaro", help="Cesaro averages of orbit norms")
    add_symbol_args(p_ces)
    add_probe_args(p_ces)
    p_ces.set_defaults(func=cmd_cesaro)

    p_shadow = sub.add_parser("shadow", help="pseudotrajectory divergence experiment")
    add_symbol_args(p_shadow)
    add_probe_args(p_shadow, default="node")
    p_shadow.add_argument("--delta", type=float, default=0.1, help="per-step defect size")
    p_shadow.add_argument("--g-norm", dest="g_norm", type=float, default=0.04,
                          help="norm of the candidate shadowing orbit seed")
    p_shadow.set_defaults(func=cmd_shadow)

    p_verify = sub.add_parser("verify", help="run the twelve-check acceptance battery")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad arguments, 0 on --help
        return EXIT_INVALID_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except OverflowGuardError as exc:
        print(f"overflow guard: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (PwLabError, ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    sys.exit(main())
