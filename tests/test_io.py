"""Serialization round trips and format validation."""

import json
import math

import numpy as np
import pytest

import pwlab
import pwlab.io as pwio
from pwlab import AffineSymbol

SEED = pwlab.DEFAULT_SEED


class TestPwRecords:
    def test_json_round_trip_is_exact(self):
        rng = np.random.default_rng(SEED)
        f = pwlab.rough_probe(1.5, 12, rng)
        back = pwio.pw_from_json(pwio.pw_to_json(f))
        assert back.a == f.a
        np.testing.assert_array_equal(back.samples, f.samples)

    def test_json_is_deterministic_and_compact(self):
        f = pwlab.node_function(1.0, 3)
        text1 = pwio.pw_to_json(f)
        text2 = pwio.pw_to_json(f)
        assert text1 == text2
        assert ": " not in text1 and "\n" not in text1
        rec = json.loads(text1)
        assert set(rec) == {"a", "N", "samples"}
        assert rec["N"] == 3 and len(rec["samples"]) == 7

    def test_json_length_mismatch_rejected(self):
        f = pwlab.node_function(1.0, 3)
        rec = json.loads(pwio.pw_to_json(f))
        rec["N"] = 5
        with pytest.raises(ValueError):
            pwio.pw_from_json(json.dumps(rec))

    def test_bytes_round_trip_is_exact(self):
        rng = np.random.default_rng(SEED + 1)
        f = pwlab.rough_probe(math.pi, 20, rng)
        buf = pwio.pw_to_bytes(f)
        assert buf[:4] == b"PWF1"
        back = pwio.pw_from_bytes(buf)
        assert back.a == f.a
        np.testing.assert_array_equal(back.samples, f.samples)

    def test_bytes_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            pwio.pw_from_bytes(b"XXXX" + bytes(16))

    def test_bytes_keep_signed_zeros(self):
        f = pwlab.PwFunction(1.0, [complex(1.0, -0.0), complex(-0.0, 2.0), complex(-0.0, -0.0)])
        buf = pwio.pw_to_bytes(f)
        back = pwio.pw_from_bytes(buf)
        assert pwio.pw_to_bytes(back) == buf
        np.testing.assert_array_equal(np.signbit(back.samples.view(float)), [0, 1, 1, 0, 1, 1])

    def test_bytes_truncation_rejected(self):
        f = pwlab.node_function(1.0, 2)
        buf = pwio.pw_to_bytes(f)
        with pytest.raises(ValueError):
            pwio.pw_from_bytes(buf[:-8])


class TestL2Records:
    def test_json_round_trip(self):
        rng = np.random.default_rng(SEED + 2)
        F = pwlab.to_l2(pwlab.rough_probe(1.0, 8, rng), 64)
        back = pwio.l2_from_json(pwio.l2_to_json(F))
        assert back.a == F.a
        np.testing.assert_array_equal(back.values, F.values)

    def test_csv_header_and_rows(self):
        F = pwlab.to_l2(pwlab.node_function(1.0, 2), 8)
        lines = pwio.l2_to_csv(F).splitlines()
        assert lines[0] == "t,re,im"
        assert len(lines) == 9
        t0 = float(lines[1].split(",")[0])
        assert abs(t0 - F.grid()[0]) < 1e-15


class TestMatrixRecords:
    def test_bytes_round_trip(self):
        T = pwlab.build_matrix(AffineSymbol(0.5, 0.3 + 0.2j), 1.0, 6)
        buf = pwio.matrix_to_bytes(T)
        assert buf[:4] == b"PWM1"
        back = pwio.matrix_from_bytes(buf)
        assert back.a == T.a
        assert back.phi == T.phi
        assert back.half_width == T.half_width
        np.testing.assert_array_equal(back.entries, T.entries)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            pwio.matrix_from_bytes(b"ZZZZ" + bytes(64))

    def test_bytes_keep_signed_zeros(self):
        entries = np.array([complex(-0.0, 1.0), complex(0.5, -0.0), complex(-0.0, -0.0)] * 3)
        T = pwlab.OperatorMatrix(AffineSymbol(1.0, 0.0), 1.0, 1, entries.reshape(3, 3))
        buf = pwio.matrix_to_bytes(T)
        back = pwio.matrix_from_bytes(buf)
        assert pwio.matrix_to_bytes(back) == buf
        np.testing.assert_array_equal(np.signbit(back.entries.view(float)), np.signbit(T.entries.view(float)))
        assert np.signbit(back.entries.view(float)).sum() == 12

    def test_csv_uses_basis_indices(self):
        T = pwlab.build_matrix(AffineSymbol(1.0, 0.0), 1.0, 1)
        lines = pwio.matrix_to_csv(T).splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert first[0] == "-1" and first[1] == "-1"
        assert float(first[2]) == 1.0


class TestDescriptorsAndReports:
    def test_descriptor_json_kinds(self):
        a = 1.0
        disk = json.loads(pwio.descriptor_to_json(
            pwlab.spectrum_closed_form(AffineSymbol(0.5, 1j), a)))
        assert disk["kind"] == "closed-disk"
        assert abs(disk["radius"] - math.sqrt(2.0)) < 1e-14
        arc = json.loads(pwio.descriptor_to_json(
            pwlab.spectrum_closed_form(AffineSymbol(1.0, 1j), a), boundary_count=9))
        assert arc["kind"] == "exponential-arc"
        assert len(arc["boundary"]) == 9
        pair = json.loads(pwio.descriptor_to_json(
            pwlab.spectrum_closed_form(AffineSymbol(-1.0, 1.0), a)))
        assert pair["kind"] == "two-point-set"

    def test_report_json_embeds_justifications(self):
        rec = json.loads(pwio.report_to_json(pwlab.classify(AffineSymbol(0.5, 1j), 2.0)))
        assert rec["a"] == 2.0 and rec["c"] == 0.5
        assert rec["flags"]["positively_expansive"] is True
        assert set(rec["justifications"]) == set(rec["flags"])
        assert all(isinstance(v, str) and v for v in rec["justifications"].values())


class TestTables:
    def test_trace_csv(self):
        text = pwio.trace_to_csv([1.0, 2.5, 4.0], start=0, header="n,norm")
        lines = text.splitlines()
        assert lines[0] == "n,norm"
        assert lines[1] == "0,1.0"
        assert lines[3] == "2,4.0"

    def test_columns_dat(self):
        text = pwio.columns_to_dat([1, 2], [0.5, 0.25])
        rows = [line.split() for line in text.splitlines()]
        assert len(rows) == 2
        assert float(rows[1][1]) == 0.25
        with pytest.raises(ValueError):
            pwio.columns_to_dat([1, 2], [1.0])
