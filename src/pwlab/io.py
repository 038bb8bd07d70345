"""The CLI's output encoders: JSON records and CSV/DAT tables.

Everything is NumPy-free on the wire: complex values travel as [re, im]
pairs, floats as shortest round-trip decimal strings.  JSON records are
compact with sorted keys, so the same value always produces the same bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .core import PwFunction
from .dynamics import PropertyReport
from .spectral import SpectrumDescriptor


def _pairs(arr) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(arr, dtype=np.complex128)]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pw_record(f: PwFunction) -> dict:
    """The JSON-ready record of f, for embedding in larger records."""
    return {"a": f.a, "N": f.half_width, "samples": _pairs(f.samples)}


def descriptor_to_json(desc: SpectrumDescriptor, boundary_count: int = 64) -> str:
    rec: dict = {"kind": desc.kind, "a": desc.a}
    if desc.kind == "closed-disk":
        rec["radius"] = desc.radius
    if desc.kind == "exponential-arc":
        rec["d"] = [desc.d.real, desc.d.imag]
    rec["boundary"] = _pairs(desc.boundary_samples(boundary_count))
    return _dumps(rec)


def report_to_json(report: PropertyReport) -> str:
    rec = {
        "a": report.a,
        "c": report.phi.c,
        "d": [report.phi.d.real, report.phi.d.imag],
        "flags": report.flags(),
        "justifications": dict(report.justifications),
    }
    return _dumps(rec)


def trace_to_csv(values, start: int = 0, header: str = "n,value") -> str:
    lines = [header]
    for k, v in enumerate(values):
        lines.append(f"{k + start},{float(v)!r}")
    return "\n".join(lines) + "\n"


def columns_to_dat(*cols) -> str:
    """Space-separated numeric columns, no header (plot-tool friendly)."""
    arrays = [np.asarray(c, dtype=float) for c in cols]
    if any(arr.shape != arrays[0].shape for arr in arrays):
        raise ValueError("columns must share a length")
    lines = [" ".join(f"{float(x)!r}" for x in row) for row in zip(*arrays)]
    return "\n".join(lines) + "\n"
