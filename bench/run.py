"""pwlab benchmark: one closed-loop client, one workload per process.

Run from the root of a pwlab checkout:

    python3 bench/run.py --workload resample --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics instead (see bench/README.md).  A run makes a fixed
number of rounds, set by ``--seconds`` and the workload, whatever the speed
of the code under test.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics with their units, the
request counts and the machine facts.

The library is imported from ``src/`` of the checkout and nowhere else, so
the benchmark exits with an error when run outside a checkout.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 5  # set-up is timed in this many fresh processes; the median is reported
MIN_REQUESTS = 100  # per cycle, so that p90 has at least ten samples above it
TRACE_ROUNDS = 1  # rounds of a traced run; each request runs once untraced and once traced
REFERENCE_S = 0.25e-3  # typical time of reference_s() on the machine the benchmark was written on
SPEED_WINDOW = 5  # a request's host speed is read from the reference runs this many either side
DEADLINE_S = 170.0  # every run, battery included, ends well inside 180 s
SLOWEST_CHECK = "C12"  # runs first in the battery, with a budget of its own
OTHER_CHECKS_S = 50.0  # kept back from it for the other eleven (about 37 s at seed state)

sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_pwlab():
    """Import pwlab from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "pwlab" / "__init__.py").is_file():
        sys.exit(f"bench: no pwlab sources under {src}; run from a pwlab checkout")
    sys.path.insert(0, str(src))
    import pwlab
    import pwlab.cli

    if Path(pwlab.__file__).resolve().parent != (src / "pwlab").resolve():
        sys.exit(f"bench: imported pwlab from {pwlab.__file__}, not from {src}")
    return pwlab


# -- machine facts -----------------------------------------------------------


def _openblas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(seed: int, loadavg: tuple[float, float, float]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _openblas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "loadavg_at_start": list(loadavg),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """This process's peak RSS (VmHWM), in MB.

    Unlike ru_maxrss, VmHWM starts afresh at exec, so it holds none of the
    parent's peak.
    """
    return _vm_hwm_mb("/proc/self/status")


def _vm_hwm_mb(status: str) -> float:
    with open(status, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


# -- running requests --------------------------------------------------------


@dataclass(slots=True)
class Outcome:
    """One executed request: its latency and whether it passed."""

    kind: str
    slot: int
    edge: bool
    latency: float
    ok: bool
    error: str | None
    scaled: float = math.nan  # latency at the reference host speed, set by closed_loop


def execute(req, pwlab_error, tracer: Tracer | None = None) -> Outcome:
    """Time one request, then check it outside the timed span.

    A request fails if it raises, returns a non-finite value or fails its
    check; a typed PwLabError is a success only on an edge request.
    """
    error = None
    start = time.perf_counter()
    try:
        out = tracer.request(req.call) if tracer else req.call()
    except Exception as exc:  # the loop must survive any library failure
        out, error = None, exc
    latency = time.perf_counter() - start
    if error is not None:
        ok = req.edge and isinstance(error, pwlab_error)
    else:
        try:
            ok = bool(req.check(out))
        except Exception as exc:  # a result the check cannot read is a failure
            ok, error = False, exc
    name = None if error is None else type(error).__name__
    return Outcome(req.kind, req.slot, req.edge, latency, ok, name)


def round_count(workload, seconds: float) -> int:
    """Rounds of a run: odd, at least 3, and fixed by ``seconds`` and the workload alone."""
    return max(3, 2 * round((seconds / workload.ROUND_S - 1.0) / 2.0) + 1)


_REFERENCE_X = np.linspace(-50.0, 50.0, 4001)


def reference_s() -> float:
    """Wall time of a fixed kernel that does not touch pwlab: numpy and interpreter work.

    It allocates no objects the garbage collector tracks and starts no BLAS
    threads, so nothing the code under test does to its own heap or thread
    pool changes it; only the host's speed does.
    """
    start = time.perf_counter()
    for _ in range(3):
        np.sinc(_REFERENCE_X * 1.0001).sum()
        sum(i * i for i in range(300))
    return time.perf_counter() - start


def closed_loop(workload, pwlab_error, rounds: int, between_rounds=None) -> list[list[Outcome]]:
    """``rounds`` rounds of one cycle each.

    After each request, outside its timed span, the reference kernel runs
    once.  A request's ``scaled`` latency is its wall time times
    REFERENCE_S over the median reference time of the SPEED_WINDOW requests
    on either side of it: the time it would have taken at the host's
    reference speed.  The host this benchmark was written on changes speed
    by up to 1.8x within seconds, and the reference kernel slows with it.
    ``between_rounds(i)`` runs after round i, outside the timed work.
    Returns the rounds; each is the executed requests' outcomes, in order.
    """
    done = []
    for i in range(rounds):
        outs, refs = [], []
        for req in workload.cycle():
            outs.append(execute(req, pwlab_error))
            refs.append(reference_s())
        for k, o in enumerate(outs):
            near = refs[max(0, k - SPEED_WINDOW):k + SPEED_WINDOW + 1]
            o.scaled = o.latency * REFERENCE_S / statistics.median(near)
        done.append(outs)
        if between_rounds is not None:
            between_rounds(i)
    return done


def slot_timings(outcomes: list[Outcome], attr: str) -> tuple[float, float, float, int]:
    """ops_per_s, p50 and p90 in ms, and the slot count, from each slot's median of ``attr``.

    Every slot runs once per round, with fresh inputs each time, so its
    median over the rounds is the typical cost of that request.  A slot
    that failed in any round misses every latency target.
    """
    times: dict[int, list[float]] = {}
    failed: set[int] = set()
    for o in outcomes:
        times.setdefault(o.slot, []).append(getattr(o, attr))
        if not o.ok:
            failed.add(o.slot)
    typical = {i: statistics.median(v) for i, v in times.items()}
    lat_ms = [math.inf if i in failed else t * 1e3 for i, t in typical.items()]
    ops = len(typical) / sum(typical.values())
    return ops, percentile(lat_ms, 0.50), percentile(lat_ms, 0.90), len(typical)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(outcomes: list[Outcome]) -> dict:
    """Per class: requests, failures and median latency in ms."""
    by_kind: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_kind.setdefault(o.kind, []).append(o)
    classes = {
        kind: [len(group), sum(not o.ok for o in group),
               round(statistics.median(o.latency for o in group) * 1e3, 3)]
        for kind, group in by_kind.items()
    }
    errors = sorted({f"{o.kind}:{o.error}" for o in outcomes if o.error})
    return {"classes [requests, failed, median ms]": classes, "errors": errors}


# -- child processes -----------------------------------------------------------


def _run_child(argv: list[str], timeout: float) -> tuple[str, float | None]:
    """Run this script in a fresh interpreter; return its output and the time to 'ready'."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    ready = None
    try:
        first = proc.stdout.readline()
        if first.strip() == "ready":
            ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(timeout - (time.perf_counter() - start), 1.0))
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.terminate()  # lets the child remove its scratch space
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited {proc.returncode}")
    return first + rest, ready


def setup_time(workload: str, seed: int, deadline: float) -> tuple[float, float]:
    """Process start to first timed request in a fresh process: at the reference speed, and raw.

    The reference kernel runs SPEED_WINDOW times just before the process
    starts and as many times just after it ends, while nothing else of the
    benchmark runs.
    """
    refs = [reference_s() for _ in range(SPEED_WINDOW)]
    _, ready = _run_child(["--workload", workload, "--seed", str(seed), "--setup-only"],
                          deadline - time.perf_counter())
    refs += [reference_s() for _ in range(SPEED_WINDOW)]
    if ready is None:
        raise RuntimeError("set-up child did not report readiness")
    return ready * REFERENCE_S / statistics.median(refs), ready


def battery(pwlab, deadline: float) -> dict[str, dict]:
    """Each acceptance check once, each in its own process, one after another.

    Check n is the n-th ``check_*`` function of pwlab.verify.  The slowest
    check runs first, with all the time but OTHER_CHECKS_S; each of the
    others gets what is left.  A check that runs out of time is stopped and
    recorded with ``timed_out``: its wall time is then a lower bound, and its
    peak RSS the one it had reached.  A check left no time at all is not
    started and is recorded with zeros.
    """
    names = [n for n, fn in vars(pwlab.verify).items() if n.startswith("check_") and callable(fn)]
    ids = [f"C{i}" for i in range(1, len(names) + 1)]
    order = sorted(zip(ids, names), key=lambda pair: pair[0] != SLOWEST_CHECK)
    results = {}
    for check_id, name in order:
        budget = deadline - time.perf_counter()
        if check_id == SLOWEST_CHECK:
            budget -= OTHER_CHECKS_S
        if budget < 1.0:
            results[check_id] = {"wall_s": 0.0, "peak_rss_mb": 0.0, "passed": False,
                                 "timed_out": True}
            continue
        results[check_id] = _battery_child(name, budget)
    return results


def _battery_child(name: str, budget: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--battery-check",
                             name], stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        try:
            peak = _vm_hwm_mb(f"/proc/{proc.pid}/status")
        except (OSError, RuntimeError):  # it ended just now
            peak = 0.0
        proc.kill()
        proc.wait()
        return {"wall_s": time.perf_counter() - start, "peak_rss_mb": peak, "passed": False,
                "timed_out": True}
    finally:
        if proc.poll() is None:  # this process is being stopped
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"battery check {name} exited {proc.returncode}")
    rec = json.loads(out.strip().splitlines()[-1])
    del rec["check_id"]
    rec["timed_out"] = False
    return rec


def battery_check(name: str) -> None:
    pwlab = import_pwlab()
    fn = getattr(pwlab.verify, name)
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    print(json.dumps({"check_id": result.check_id, "wall_s": wall, "peak_rss_mb": peak_rss_mb(),
                      "passed": result.passed}))


# -- the two kinds of run ----------------------------------------------------------


def prepare(name: str, seed: int, scratch: Path, tracer: Tracer | None = None):
    """Set-up: import, inputs from the seed, one untimed warm-up request per class."""
    pwlab = import_pwlab()
    warnings.simplefilter("ignore", RuntimeWarning)
    rng = np.random.default_rng(seed)
    probes_s = 0.0
    if tracer is None:
        workload = WORKLOADS[name](pwlab, rng, scratch)
        warm_up = workload.one_of_each()
    else:
        tracer.install(pwlab)
        tracer.enabled = True
        workload = WORKLOADS[name](pwlab, rng, scratch)
        warm_up = workload.one_of_each()
        tracer.enabled = False
        tracer.uninstall()
        probes_s = tracer.layer_self()["probes"]
        tracer.reset()
    warm = [execute(req, pwlab.PwLabError) for req in warm_up]
    return pwlab, workload, warm, probes_s


def end_to_end(args, scratch: Path) -> tuple[dict, list[Outcome], list[Outcome]]:
    pwlab, workload, warm, _ = prepare(args.workload, args.seed, scratch)
    rounds = round_count(workload, args.seconds)
    setups: list[tuple[float, float]] = []

    def measure_setup(i):
        # spread evenly over the run, so that the samples meet different machine load
        while len(setups) < math.ceil((i + 1) * SETUP_RUNS / rounds):
            setups.append(setup_time(args.workload, args.seed, PROCESS_START + DEADLINE_S))

    done = closed_loop(workload, pwlab.PwLabError, rounds, measure_setup)
    peak = peak_rss_mb()
    outcomes = [o for outs in done for o in outs]
    ops, p50, p90, slots = slot_timings(outcomes, "scaled")
    if slots < MIN_REQUESTS:
        raise RuntimeError(f"a cycle needs at least {MIN_REQUESTS} requests")
    raw = slot_timings(outcomes, "latency")
    slowdown = statistics.median(o.latency / o.scaled for o in outcomes if o.scaled > 0.0)
    print(f"# {rounds} rounds; percentiles over {slots} slots, each its median of "
          f"{rounds} runs; setup_s samples {json.dumps([round(x, 4) for x, _ in setups])}")
    print(f"# host speed: requests took {slowdown:.4f}x their time at the reference speed; "
          f"unscaled wall time gives ops_per_s {raw[0]:.6g}, latency_p50_ms {raw[1]:.6g}, "
          f"latency_p90_ms {raw[2]:.6g}, setup_s {statistics.median(r for _, r in setups):.6g}")
    metrics = {
        "ops_per_s": (ops, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak, "MB"),
        "setup_s": (statistics.median(x for x, _ in setups), "s"),
    }
    return metrics, outcomes, warm


def per_layer(args, scratch: Path) -> tuple[dict, list[Outcome], list[Outcome]]:
    tracer = Tracer()
    pwlab, workload, warm, probes_s = prepare(args.workload, args.seed, scratch, tracer)
    # every request twice, untraced and traced, back to back in alternating
    # order, so the overhead ratio compares runs made under the same machine
    # load; a fixed number of rounds, so the counts do not depend on speed
    untraced_wall, outcomes = 0.0, []
    for _ in range(TRACE_ROUNDS):
        for req in workload.cycle():
            for traced in ((False, True) if len(outcomes) % 2 else (True, False)):
                if not traced:
                    untraced_wall += execute(req, pwlab.PwLabError).latency
                    continue
                tracer.install(pwlab)
                try:
                    outcomes.append(execute(req, pwlab.PwLabError, tracer))
                finally:
                    tracer.uninstall()
    traced_wall = sum(o.latency for o in outcomes)
    checks = battery(pwlab, PROCESS_START + DEADLINE_S)

    def stat(key, name):
        return tracer.stats[key].get(name, 0.0) if key in tracer.stats else 0.0

    def share(key, name):
        calls = stat(key, "calls")
        return stat(key, name) / calls if calls else 0.0

    layer_self = tracer.layer_self()
    accounted = sum(layer_self.values())
    m: dict[str, tuple[float, str]] = {}
    for key, extra in (
        ("core.pw_eval", ("sinc_entries",)),
        ("core.compose_apply", ()),
        ("core.composed_inner_product", ("sinc_entries",)),
        ("core.composed_norm", ()),
        ("fourier.to_l2", ()),
        ("fourier.from_l2", ()),
        ("fourier.weighted_compose_apply", ()),
        ("spectral.build_matrix", ("entries",)),
        ("spectral.operator_norm_estimate", ("gram_flops",)),
        ("spectral.spectral_radius_estimate", ()),
        ("dynamics.orbit_norms", ()),
        ("dynamics.cesaro_averages", ()),
        ("dynamics.expansivity_certificate", ()),
        ("dynamics.build_pseudotrajectory", ()),
        ("dynamics.shadowing_divergence", ()),
        ("cli.main", ()),
    ):
        m[f"{key}.calls"] = (int(stat(key, "calls")), "count")
        m[f"{key}.self_s"] = (stat(key, "self_s"), "s")
        for name in extra:
            m[f"{key}.{name}"] = (int(stat(key, name)), "flop" if name == "gram_flops" else "count")
    m["core.composed_inner_product.same_symbol_share"] = (
        share("core.composed_inner_product", "same_symbol"), "ratio")
    m["core.compose_apply.unit_c_share"] = (share("core.compose_apply", "unit_c"), "ratio")
    m["fourier.weighted_compose_apply.offgrid_share"] = (
        share("fourier.weighted_compose_apply", "offgrid"), "ratio")
    for layer in ("core", "fourier", "spectral", "dynamics", "io", "cli"):
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["probes.self_s"] = (probes_s, "s")
    for layer in ("core", "fourier", "spectral", "dynamics"):
        m[f"{layer}.errors"] = (int(stat(layer, "errors")), "count")
    m["bench.self_s"] = (layer_self["bench"], "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.gap_s"] = (traced_wall - accounted, "s")
    m["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    for check_id, rec in sorted(checks.items(), key=lambda kv: int(kv[0][1:])):
        m[f"verify.{check_id}.wall_s"] = (rec["wall_s"], "s")
        m[f"verify.{check_id}.peak_rss_mb"] = (rec["peak_rss_mb"], "MB")
    timed_out = sorted((k for k, rec in checks.items() if rec["timed_out"]),
                       key=lambda k: int(k[1:]))
    parts = " + ".join(f"{k} {v:.4f}" for k, v in layer_self.items())
    print(f"# trace accounting: traced wall {traced_wall:.4f} s = {parts} + gap "
          f"{traced_wall - accounted:.6f} s; overhead {traced_wall / untraced_wall:.4f} "
          f"(untraced wall {untraced_wall:.4f} s, same {len(outcomes)} requests)")
    print("# battery " + json.dumps(checks, sort_keys=True))
    if timed_out:
        print(f"# battery ran out of time on {', '.join(timed_out)}: their wall_s is a lower "
              "bound (0 if not started)")
    return m, outcomes, warm


def _stop(signum, frame):
    # unwind, so that child processes are killed and the scratch space removed
    sys.exit(128 + signum)


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--battery-check", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.battery_check:
        battery_check(args.battery_check)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    scratch = Path(tempfile.mkdtemp(prefix=".bench-scratch-", dir=ROOT))
    try:
        if args.setup_only:
            prepare(args.workload, args.seed, scratch)
            print("ready", flush=True)
            return 0
        run = per_layer if args.trace else end_to_end
        metrics, outcomes, warm = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(not o.ok for o in outcomes)
    edge = sum(o.edge for o in outcomes)
    regular_ok = all(o.ok for o in warm + outcomes if not o.edge)
    summary = summarize(outcomes)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# machine " + json.dumps(machine_facts(args.seed, loadavg), sort_keys=True))
    print("# requests " + json.dumps(summary, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / len(outcomes):.6g} ratio "
          f"({failed}/{len(outcomes)} failed; edge share {edge / len(outcomes):.6g})")
    result = {
        "correct": regular_ok,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
