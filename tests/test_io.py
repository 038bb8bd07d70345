"""The CLI's output formats: JSON records and CSV/DAT tables, written by pwlab.cli."""

import json
import math

from pwlab.cli import EXIT_OK, main


def run(capsys, *argv):
    code = main(list(argv))
    assert code == EXIT_OK, argv
    return capsys.readouterr().out


class TestDescriptorsAndReports:
    def test_descriptor_json_kinds(self, capsys):
        # the radius only for the disk, d only for the arc
        records = {}
        for c, d in (("0.5", "1i"), ("1", "1i"), ("-1", "1")):
            rec = json.loads(run(capsys, "spectrum", "--a", "1", "--c", c, "--d", d,
                                 "--boundary-count", "9"))
            records[rec["kind"]] = rec
        disk, arc, pair = records["closed-disk"], records["exponential-arc"], records["two-point-set"]
        assert set(disk) == {"kind", "a", "radius", "boundary"}
        assert abs(disk["radius"] - math.sqrt(2.0)) < 1e-14
        assert set(arc) == {"kind", "a", "d", "boundary"} and arc["d"] == [0.0, 1.0]
        assert set(pair) == {"kind", "a", "boundary"} and pair["boundary"] == [[-1.0, 0.0], [1.0, 0.0]]
        assert len(disk["boundary"]) == len(arc["boundary"]) == 9

    def test_report_json_embeds_justifications(self, capsys):
        rec = json.loads(run(capsys, "classify", "--a", "2", "--c", "0.5", "--d", "1i"))
        assert rec["a"] == 2.0 and rec["c"] == 0.5 and rec["d"] == [0.0, 1.0]
        assert rec["flags"]["positively_expansive"] is True
        assert set(rec["justifications"]) == set(rec["flags"])
        assert all(isinstance(v, str) and v for v in rec["justifications"].values())


class TestTables:
    def test_trace_csv(self, capsys):
        # row n holds n and the shortest decimal that parses back to its value
        lines = run(capsys, "--half-width", "48", "--n-max", "6", "orbit", "--a", "1",
                    "--c", "0.5", "--d", "0", "--probe", "smooth").splitlines()
        assert lines[0] == "n,norm"
        rows = [line.split(",") for line in lines[1:]]
        assert [n for n, _ in rows] == [str(n) for n in range(7)]
        assert all(repr(float(value)) == value for _, value in rows)
        # cesaro's trace starts at n = 1
        lines = run(capsys, "--n-max", "5", "cesaro", "--a", "1", "--c", "0.5", "--d", "1i",
                    "--probe", "rough").splitlines()
        assert lines[0] == "n,average"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4", "5"]

    def test_columns_dat(self, capsys):
        # three floats a row, no header, n written as a float too
        text = run(capsys, "--n-max", "10", "shadow", "--a", "3.141592653589793",
                   "--c", "0.5", "--d", "0", "--probe", "node")
        rows = [line.split() for line in text.splitlines()]
        assert len(rows) == 10 and all(len(row) == 3 for row in rows)
        assert [row[0] for row in rows] == [f"{n}.0" for n in range(1, 11)]
        assert all(repr(float(x)) == x for row in rows for x in row)
