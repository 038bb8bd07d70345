"""Layer spans recorded from outside the library.

The tracer replaces the public functions of the pwlab modules with thin
wrappers, in every pwlab namespace that binds them (``pwlab``,
``pwlab.core``, ``pwlab.dynamics``, ...), so calls between modules are seen
as well as the benchmark's own calls.  Nothing under ``src/`` changes.  A
span's self time is its duration minus the durations of its child spans;
the root span of each request is the benchmark's own time.

Work counts (``sinc_entries``, ``entries``, ``gram_flops``) are computed
from argument sizes, not measured.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("core", "fourier", "spectral", "dynamics", "probes", "io", "cli")


def _count_pw_eval(stats, f, z):
    stats["sinc_entries"] += np.size(z) * f.samples.size


def _count_compose_apply(stats, phi, f, half_width=None, grow=False):
    stats["unit_c"] += abs(phi.c) == 1.0


def _count_composed_inner_product(stats, phi1, f, phi2, g):
    stats["sinc_entries"] += f.samples.size * g.samples.size
    stats["same_symbol"] += phi1 == phi2


def _count_weighted_compose_apply(stats, phi, F):
    stats["offgrid"] += abs(phi.c) != 1.0


def _count_build_matrix(stats, phi, a, half_width):
    stats["entries"] += (2 * half_width + 1) ** 2


def _count_operator_norm_estimate(stats, T, *args, **kwargs):
    # complex A^H A: n^3 multiply-adds of 8 real flops each
    n = T.entries.shape[0]
    stats["gram_flops"] += 8 * n**3


# Computed counts, keyed by "<layer>.<function>"; each receives the call's arguments.
COUNTERS = {
    "core.pw_eval": _count_pw_eval,
    "core.compose_apply": _count_compose_apply,
    "core.composed_inner_product": _count_composed_inner_product,
    "fourier.weighted_compose_apply": _count_weighted_compose_apply,
    "spectral.build_matrix": _count_build_matrix,
    "spectral.operator_norm_estimate": _count_operator_norm_estimate,
}


class Tracer:
    """Spans and counts for the wrapped pwlab functions.

    ``install`` wraps, ``uninstall`` restores the originals.  Spans are
    recorded only while ``enabled`` is true, so work done between requests
    (input checks) is never attributed to a layer.
    """

    def __init__(self):
        self.pwlab_error: type = Exception
        self.enabled = False
        self.stats: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self._stack: list[list] = []
        self._seen_errors: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, pwlab) -> None:
        self.pwlab_error = pwlab.PwLabError
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pwlab" or name.startswith("pwlab."))]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not self._traceable(attr, obj):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @staticmethod
    def _traceable(attr: str, obj) -> bool:
        if attr.startswith("_") or not inspect.isfunction(obj):
            return False
        layer = obj.__module__.rpartition(".")[2]
        if not obj.__module__.startswith("pwlab.") or layer not in LAYERS:
            return False
        # the command line is one layer: its entry point stands for it
        return layer != "cli" or obj.__name__ == "main"

    def _wrap(self, fn):
        layer = fn.__module__.rpartition(".")[2]
        key = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(key)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stats = tracer.stats[key]
            stats["calls"] += 1
            if counter is not None:
                counter(stats, *args, **kwargs)
            tracer.begin(key)
            try:
                return fn(*args, **kwargs)
            except tracer.pwlab_error as exc:
                # attribute a typed error to the innermost layer it leaves
                if id(exc) not in tracer._seen_errors:
                    tracer._seen_errors.add(id(exc))
                    tracer.stats[layer]["errors"] += 1
                raise
            finally:
                tracer.end()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # -- spans --------------------------------------------------------------

    def begin(self, key: str) -> None:
        self._stack.append([key, time.perf_counter(), 0.0])

    def end(self) -> float:
        key, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.stats[key]["self_s"] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def request(self, call):
        """Run one request under a root span named ``bench``."""
        self.enabled = True
        self.begin("bench")
        try:
            return call()
        finally:
            self.end()
            self.enabled = False
            self._seen_errors.clear()

    # -- summaries ----------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        """Self time per layer, plus ``bench`` for the benchmark's own time."""
        totals = {layer: 0.0 for layer in LAYERS}
        totals["bench"] = 0.0
        for key, stats in self.stats.items():
            layer = key.partition(".")[0]
            if layer in totals:
                totals[layer] += stats.get("self_s", 0.0)
        return totals

    def reset(self) -> None:
        self.stats.clear()
