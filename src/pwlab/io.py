"""Portable serialization: JSON records, CSV/DAT tables, small binary formats.

Everything is NumPy-free on the wire: complex values travel as [re, im]
pairs, floats as shortest round-trip decimal strings, binaries as
little-endian f64 with fixed headers (magic "PWF1" for sample vectors,
"PWM1" for operator sections).  All encoders are deterministic: the same
value always produces the same bytes.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .core import AffineSymbol, PwFunction
from .dynamics import PropertyReport
from .fourier import L2Function
from .spectral import OperatorMatrix, SpectrumDescriptor

_PWF_MAGIC = b"PWF1"
_PWM_MAGIC = b"PWM1"


def _pairs(arr) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(arr, dtype=np.complex128)]


def _interleave(arr) -> bytes:
    return np.asarray(arr, dtype="<c16").tobytes()


def _deinterleave(buf: bytes) -> np.ndarray:
    # a complex dtype keeps signed zeros, which re + 1j*im would lose
    return np.frombuffer(buf, dtype="<c16")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# PwFunction


def pw_record(f: PwFunction) -> dict:
    """The JSON-ready record of f, for embedding in larger records."""
    return {"a": f.a, "N": f.half_width, "samples": _pairs(f.samples)}


def pw_to_json(f: PwFunction) -> str:
    return _dumps(pw_record(f))


def pw_from_json(text: str) -> PwFunction:
    rec = json.loads(text)
    samples = np.array([complex(re, im) for re, im in rec["samples"]])
    if samples.size != 2 * int(rec["N"]) + 1:
        raise ValueError("sample count does not match the declared window")
    return PwFunction(rec["a"], samples)


def pw_to_bytes(f: PwFunction) -> bytes:
    head = struct.pack("<4sdq", _PWF_MAGIC, f.a, f.half_width)
    return head + _interleave(f.samples)


def pw_from_bytes(buf: bytes) -> PwFunction:
    head = struct.calcsize("<4sdq")
    magic, a, n = struct.unpack("<4sdq", buf[:head])
    if magic != _PWF_MAGIC:
        raise ValueError("not a PWF1 record")
    samples = _deinterleave(buf[head:])
    if samples.size != 2 * n + 1:
        raise ValueError("sample count does not match the header")
    return PwFunction(a, samples)


# L2Function


def l2_to_json(F: L2Function) -> str:
    return _dumps({"a": F.a, "M": F.m_points, "values": _pairs(F.values)})


def l2_from_json(text: str) -> L2Function:
    rec = json.loads(text)
    values = np.array([complex(re, im) for re, im in rec["values"]])
    if values.size != int(rec["M"]):
        raise ValueError("value count does not match the declared grid size")
    return L2Function(rec["a"], values)


def l2_to_csv(F: L2Function) -> str:
    lines = ["t,re,im"]
    for t, v in zip(F.grid(), F.values):
        lines.append(f"{float(t)!r},{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"


# Operator sections


def matrix_to_csv(T: OperatorMatrix) -> str:
    lines = ["row,col,re,im"]
    n = T.half_width
    for i in range(2 * n + 1):
        for j in range(2 * n + 1):
            z = T.entries[i, j]
            lines.append(f"{i - n},{j - n},{float(z.real)!r},{float(z.imag)!r}")
    return "\n".join(lines) + "\n"


def matrix_to_bytes(T: OperatorMatrix) -> bytes:
    head = struct.pack(
        "<4sddddq", _PWM_MAGIC, T.a, T.phi.c, T.phi.d.real, T.phi.d.imag, T.half_width
    )
    return head + _interleave(T.entries.ravel())


def matrix_from_bytes(buf: bytes) -> OperatorMatrix:
    head = struct.calcsize("<4sddddq")
    magic, a, c, dre, dim, n = struct.unpack("<4sddddq", buf[:head])
    if magic != _PWM_MAGIC:
        raise ValueError("not a PWM1 record")
    size = 2 * n + 1
    entries = _deinterleave(buf[head:])
    if entries.size != size * size:
        raise ValueError("entry count does not match the header")
    return OperatorMatrix(AffineSymbol(c, complex(dre, dim)), a, n, entries.reshape(size, size))


# Spectra and reports


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


# Plain tables


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
