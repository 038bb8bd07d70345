"""Command-line front end.

Subcommands map one-to-one onto the library layers: kernel and norm work in
the sampling picture, spectrum and classify report closed forms, orbit and
cesaro trace growth, shadow runs the divergence experiment, and verify runs
the twelve-check acceptance battery.

Determinism contract: with the same arguments, profile, config file, and
seed, every subcommand writes byte-identical output.  Output goes to the
--out path when given, else to the path in the PWLAB_OUT environment
variable, else to stdout.

Exit codes: 0 success, 1 failed check or non-converged estimate, 2 invalid
configuration or arguments, 3 overflow guard tripped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import io as pwio
from .core import (
    AdmissibilityError,
    AffineSymbol,
    ConvergenceError,
    KernelPoint,
    OverflowGuardError,
    PwLabError,
    kernel_norm_sq,
    scaled,
)
from .dynamics import build_pseudotrajectory, cesaro_averages, classify, orbit_norms, shadowing_divergence
from .probes import node_function, rough_probe, smooth_probe
from .spectral import build_matrix, norm_bounds, operator_norm_estimate, spectrum_closed_form
from .verify import DEFAULT_SEED, run_all

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INVALID_CONFIG = 2
EXIT_OVERFLOW = 3


@dataclass
class RunConfig:
    half_width: int = 128
    n_max: int = 12
    seed: int = DEFAULT_SEED
    tol: float = 1e-10


_FAST_PROFILE = {"half_width": 48}
_INT_KEYS = {"half_width", "n_max", "seed"}
_FLOAT_KEYS = {"tol"}


def parse_complex(text: str):
    """Parse 're+imi' literals, e.g. '0.5', '1i', '-0.3+2i'."""
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


def load_config_file(path: str) -> dict:
    """Read key=value lines; '#' starts a comment.  Values override flags."""
    overrides: dict = {}
    known = {f.name for f in fields(RunConfig)}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {raw!r} is not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        if key in _INT_KEYS:
            overrides[key] = int(value, 0)
        elif key in _FLOAT_KEYS:
            overrides[key] = float(value)
    return overrides


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.fast:
        cfg = replace(cfg, **_FAST_PROFILE)
    for name in ("half_width", "n_max", "seed", "tol"):
        value = getattr(args, name, None)
        if value is not None:
            cfg = replace(cfg, **{name: value})
    if args.config:
        cfg = replace(cfg, **load_config_file(args.config))
    if cfg.half_width < 1 or cfg.n_max < 1:
        raise ValueError("half_width, n_max must be positive")
    if cfg.tol <= 0.0:
        raise ValueError("tol must be positive")
    return cfg


def _emit(text: str, args: argparse.Namespace) -> None:
    path = args.out or os.environ.get("PWLAB_OUT")
    payload = text if text.endswith("\n") else text + "\n"
    if path:
        Path(path).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _symbol(args: argparse.Namespace) -> AffineSymbol:
    return AffineSymbol(args.c, args.d)


def _make_probe(kind: str, a: float, half_width: int, seed: int, node: int):
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        return smooth_probe(a, half_width, rng)
    if kind == "rough":
        return rough_probe(a, half_width, rng)
    return node_function(a, half_width, node)


def cmd_kernel(args: argparse.Namespace, cfg: RunConfig) -> int:
    point = KernelPoint(args.a, args.w)
    f = point.to_pw(cfg.half_width)
    record = {
        "a": args.a,
        "w": [args.w.real, args.w.imag],
        "norm_sq": kernel_norm_sq(args.a, args.w),
        "function": json.loads(pwio.pw_to_json(f)),
    }
    _emit(pwio._dumps(record), args)
    return EXIT_OK


def cmd_norm(args: argparse.Namespace, cfg: RunConfig) -> int:
    phi = _symbol(args)
    # the upper edge of the enclosure is the closed-form norm
    lo, closed = norm_bounds(phi, args.a)
    estimate = operator_norm_estimate(
        build_matrix(phi, args.a, cfg.half_width), tol=cfg.tol, seed=cfg.seed
    )
    record = {
        "a": args.a,
        "c": phi.c,
        "d": [phi.d.real, phi.d.imag],
        "half_width": cfg.half_width,
        "closed_form": closed,
        "bracket": [lo, closed],
        "section_estimate": estimate,
        "relative_deviation": abs(estimate / closed - 1.0),
    }
    _emit(pwio._dumps(record), args)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace, cfg: RunConfig) -> int:
    desc = spectrum_closed_form(_symbol(args), args.a)
    _emit(pwio.descriptor_to_json(desc, boundary_count=args.boundary_count), args)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace, cfg: RunConfig) -> int:
    _emit(pwio.report_to_json(classify(_symbol(args), args.a)), args)
    return EXIT_OK


def cmd_orbit(args: argparse.Namespace, cfg: RunConfig) -> int:
    phi = _symbol(args)
    f = _make_probe(args.probe, args.a, cfg.half_width, cfg.seed, args.node)
    trace = orbit_norms(phi, args.a, f, cfg.n_max)
    _emit(pwio.trace_to_csv(trace.norms, start=0, header="n,norm"), args)
    return EXIT_OK


def cmd_cesaro(args: argparse.Namespace, cfg: RunConfig) -> int:
    phi = _symbol(args)
    f = _make_probe(args.probe, args.a, cfg.half_width, cfg.seed, args.node)
    averages = cesaro_averages(phi, args.a, f, cfg.n_max)
    _emit(pwio.trace_to_csv(averages, start=1, header="n,average"), args)
    return EXIT_OK


def cmd_shadow(args: argparse.Namespace, cfg: RunConfig) -> int:
    phi = _symbol(args)
    f = _make_probe(args.probe, args.a, cfg.half_width, cfg.seed, args.node)
    P = build_pseudotrajectory(phi, args.a, f, args.delta, cfg.n_max)
    g_raw = rough_probe(args.a, cfg.half_width, np.random.default_rng(cfg.seed + 1))
    g = scaled(g_raw, args.g_norm / g_raw.norm())
    divergence, lower = shadowing_divergence(P, g, cfg.n_max)
    steps = np.arange(1, cfg.n_max + 1, dtype=float)
    _emit(pwio.columns_to_dat(steps, divergence, lower), args)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    # the acceptance battery always runs at its pinned configurations
    results = run_all(seed=DEFAULT_SEED)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.check_id} {status} {r.title}: {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    report = "\n".join(lines)
    sys.stdout.write(report + "\n")
    path = args.out or os.environ.get("PWLAB_OUT")
    if path:
        summary = [
            {"id": r.check_id, "title": r.title, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        Path(path).write_text(pwio._dumps(summary) + "\n", encoding="utf-8")
    return EXIT_OK if n_pass == len(results) else EXIT_CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwlab",
        description="Numerical laboratory for affine composition operators on "
        "bandlimited function spaces.",
    )
    parser.add_argument("--fast", action="store_true", help="small-window profile (N=48)")
    parser.add_argument("--config", help="key=value file; entries override flags")
    parser.add_argument("--out", help="output path (default: $PWLAB_OUT or stdout)")
    parser.add_argument("--seed", type=parse_int_literal, help="RNG seed for probes")
    parser.add_argument("--half-width", dest="half_width", type=int, help="window half width N")
    parser.add_argument("--n-max", dest="n_max", type=int, help="orbit horizon")
    parser.add_argument("--tol", type=float, help="iteration tolerance")

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

    def add_probe_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--probe", choices=("smooth", "rough", "node"), default="smooth")
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
    p_shadow.add_argument("--probe", choices=("smooth", "rough", "node"), default="node")
    p_shadow.add_argument("--node", type=int, default=0)
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
        cfg = resolve_config(args)
        return args.func(args, cfg)
    except OverflowGuardError as exc:
        print(f"overflow guard: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except ConvergenceError as exc:
        print(f"no convergence: {exc} (estimate {exc.estimate!r})", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except (AdmissibilityError, PwLabError, ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    sys.exit(main())
