"""The CLI's output encoders: JSON records and CSV/DAT tables."""

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
        # the kernel record's samples parse back to the same doubles
        rng = np.random.default_rng(SEED)
        f = pwlab.rough_probe(1.5, 12, rng)
        rec = json.loads(pwio._dumps(pwio.pw_record(f)))
        assert rec["a"] == f.a
        back = np.array([complex(re, im) for re, im in rec["samples"]])
        np.testing.assert_array_equal(back, f.samples)

    def test_json_is_deterministic_and_compact(self):
        f = pwlab.node_function(1.0, 3)
        text1 = pwio._dumps(pwio.pw_record(f))
        text2 = pwio._dumps(pwio.pw_record(f))
        assert text1 == text2
        assert ": " not in text1 and "\n" not in text1
        rec = json.loads(text1)
        assert set(rec) == {"a", "N", "samples"}
        assert rec["N"] == 3 and len(rec["samples"]) == 7


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
