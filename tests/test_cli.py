"""Command-line interface: subcommands, global flags, output routing, exit codes."""

import builtins
import io
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import pwlab
import pwlab.cli
from pwlab.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_INVALID_CONFIG,
    EXIT_OK,
    EXIT_OVERFLOW,
    _dumps,
    _pairs,
    main,
    parse_complex,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_complex_literals(self):
        assert parse_complex("0.5") == 0.5
        assert parse_complex("1i") == 1j
        assert parse_complex("-0.3+2i") == -0.3 + 2j
        assert parse_complex("2-1I") == 2 - 1j
        with pytest.raises(Exception):
            parse_complex("abc")

    def test_negative_literals_attach_with_equals(self, capsys):
        # argparse reads a separate value that starts with '-' as an option
        code, out, _ = run(capsys, "--half-width", "16", "norm", "--a", "1", "--c", "0.5",
                           "--d=-2-0.5I")
        assert code == EXIT_OK and json.loads(out)["d"] == [-2.0, -0.5]
        code, out, _ = run(capsys, "--half-width", "16", "kernel", "--a", "1", "--w=-1i")
        assert code == EXIT_OK and json.loads(out)["w"] == [-0.0, -1.0]
        code, _, err = run(capsys, "--half-width", "16", "norm", "--a", "1", "--c", "0.5",
                           "--d", "-2-0.5I")
        assert code == EXIT_INVALID_CONFIG and "expected one argument" in err


class TestSubcommands:
    def test_kernel_json(self, capsys):
        code, out, _ = run(capsys, "--half-width", "48", "kernel", "--a", "1", "--w", "1i")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert abs(rec["norm_sq"] - math.sinh(2.0) / (2.0 * math.pi)) < 1e-12
        assert rec["function"]["a"] == 1.0 and rec["function"]["N"] == 48
        # the samples are k_w on the grid, and their decimals parse back to the same doubles
        samples = np.array([complex(re, im) for re, im in rec["function"]["samples"]])
        np.testing.assert_array_equal(samples, pwlab.kernel_eval(1.0, 1j, pwlab.grid(1.0, 48)))

    def test_json_round_trip_is_exact(self):
        # full-mantissa samples parse back to the same doubles
        f = pwlab.rough_probe(1.5, 12, np.random.default_rng(pwlab.DEFAULT_SEED))
        back = np.array([complex(re, im) for re, im in json.loads(_dumps(_pairs(f.samples)))])
        np.testing.assert_array_equal(back, f.samples)

    # one argv per JSON writer
    RECORDS = [
        ["--half-width", "4", "kernel", "--a", "1", "--w", "0.5+1i"],
        ["--half-width", "16", "norm", "--a", "1", "--c", "0.5", "--d", "0.3+0.4i"],
        ["spectrum", "--a", "1", "--c", "0.5", "--d", "1i", "--boundary-count", "5"],
        ["classify", "--a", "2", "--c", "0.5", "--d", "1i"],
    ]

    def test_json_records_are_compact_and_sorted(self, tmp_path, capsys, monkeypatch):
        texts = []
        for argv in self.RECORDS:
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK and run(capsys, *argv)[1] == out, argv
            texts.append(out)
        # verify --out writes the same encoding; two stand-in results spare the battery
        results = [pwlab.CheckResult("C1", "first", True, "dev=0.00e+00"),
                   pwlab.CheckResult("C2", "second", False, "dev=1.00e+00")]
        monkeypatch.setattr(pwlab.cli, "run_all", lambda: results)
        target = tmp_path / "verify.json"
        code, out, _ = run(capsys, "--out", str(target), "verify")
        assert code == EXIT_CHECK_FAILURE and out.endswith("1/2 checks passed\n")
        texts.append(target.read_text())
        assert json.loads(texts[-1])[1] == {"id": "C2", "title": "second", "passed": False,
                                            "detail": "dev=1.00e+00"}
        for text in texts:
            assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    def test_norm_closed_vs_estimate(self, capsys):
        code, out, _ = run(capsys, "--half-width", "48", "norm", "--a", "1", "--c", "0.5", "--d", "0")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert abs(rec["closed_form"] - math.sqrt(2.0)) < 1e-12
        # the closed form is the library's exact norm, not a second formula
        assert rec["closed_form"] == pwlab.norm_closed(pwlab.AffineSymbol(0.5, 0.0), 1.0)
        assert "bracket" not in rec
        assert rec["relative_deviation"] < 1e-3
        # sections approach the norm from below
        assert rec["section_estimate"] <= rec["closed_form"] * (1 + 1e-9)
        # how the estimate was certified: Krylov steps per start, test, residual
        assert len(rec["iterations"]) == 2 and all(1 <= k <= 97 for k in rec["iterations"])
        assert rec["certificate"] in ("residual", "invariant")
        assert 0.0 <= rec["residual"] <= 1e-5

    def test_norm_does_not_read_the_seed(self, capsys):
        # --seed draws probes; the section norm's starts always come from DEFAULT_SEED
        argv = ["--half-width", "16", "norm", "--a", "1", "--c", "0.5", "--d", "0.3+0.4i"]
        outs = [run(capsys, *seed, *argv) for seed in ([], ["--seed", "7"])]
        assert outs[0][0] == EXIT_OK and outs[0] == outs[1]

    def test_spectrum_descriptor(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--a", "1", "--c", "1", "--d", "1i",
                           "--boundary-count", "7")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["kind"] == "exponential-arc"
        assert len(rec["boundary"]) == 7

    def test_classify_report(self, capsys):
        code, out, _ = run(capsys, "classify", "--a", "2", "--c", "-1", "--d", "0")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["flags"]["normal"] is True
        assert rec["flags"]["unitary"] is False
        assert rec["justifications"]["invertible"]

    def test_orbit_csv(self, capsys):
        code, out, _ = run(capsys, "--half-width", "48", "--n-max", "6", "orbit", "--a", "1",
                           "--c", "0.5", "--d", "0", "--probe", "node")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,norm"
        assert len(lines) == 8
        norms = [float(line.split(",")[1]) for line in lines[1:]]
        assert abs(norms[6] / norms[0] - 8.0) < 1e-9  # 2^{6/2}

    def test_cesaro_csv(self, capsys):
        code, out, _ = run(capsys, "--half-width", "48", "--n-max", "5", "cesaro", "--a", "1",
                           "--c", "-1", "--d", "0", "--probe", "rough")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,average"
        assert lines[1].startswith("1,")
        assert len(lines) == 6

    def test_shadow_dat(self, capsys):
        code, out, _ = run(capsys, "--n-max", "10", "shadow", "--a", "3.141592653589793",
                           "--c", "0.5", "--d", "0", "--probe", "node")
        assert code == EXIT_OK
        rows = [line.split() for line in out.strip().splitlines()]
        assert len(rows) == 10 and len(rows[0]) == 3
        divergence = [float(r[1]) for r in rows]
        lower = [float(r[2]) for r in rows]
        assert all(d >= l - 1e-8 for d, l in zip(divergence, lower))

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        # the run settings are the four global flags alone
        usage = capsys.readouterr().out.split("\n\n")[0]
        flags = {word.strip("[]") for word in usage.split() if word.startswith("[--")}
        assert flags == {"--out", "--seed", "--half-width", "--n-max"}


class TestOutputRouting:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "kernel.json"
        code, out, _ = run(capsys, "--out", str(target), "--half-width", "48", "kernel",
                           "--a", "1", "--w", "0")
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["norm_sq"] == pytest.approx(1 / math.pi)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        argv = ["--half-width", "48", "--n-max", "8", "orbit", "--a", "1", "--c", "0.5",
                "--d", "0.3+0.4i", "--probe", "rough"]
        assert main(["--out", str(p1)] + argv[0:]) == EXIT_OK
        assert main(["--out", str(p2)] + argv[0:]) == EXIT_OK
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    # one longer and one shorter call per format: JSON, CSV and DAT
    SHRINKING = [
        (["--half-width", "48", "kernel", "--a", "1", "--w", "0.5+1i"],
         ["--half-width", "8", "kernel", "--a", "1", "--w", "0.5+1i"]),
        (["--half-width", "16", "norm", "--a", "1", "--c", "0.5", "--d", "0.3+0.4i"],
         ["--half-width", "1", "norm", "--a", "1", "--c", "1", "--d", "0"]),
        (["--n-max", "40", "orbit", "--a", "1", "--c", "0.25", "--d", "0", "--probe", "node"],
         ["--n-max", "3", "orbit", "--a", "1", "--c", "0.25", "--d", "0", "--probe", "node"]),
        (["--half-width", "16", "--n-max", "30", "shadow", "--a", "1.3", "--c", "-0.5"],
         ["--half-width", "16", "--n-max", "3", "shadow", "--a", "1.3", "--c", "-0.5"]),
    ]

    @pytest.mark.parametrize("longer, shorter", SHRINKING, ids=["kernel", "norm", "orbit", "shadow"])
    def test_shorter_output_overwrites_longer(self, tmp_path, capsys, longer, shorter):
        target = tmp_path / "out"
        assert main(["--out", str(target), *longer]) == EXIT_OK
        first = target.read_bytes()
        code, out, _ = run(capsys, *shorter)
        assert code == EXIT_OK
        assert main(["--out", str(target), *shorter]) == EXIT_OK
        assert len(out.encode("utf-8")) < len(first)
        assert target.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_follows_umask(self, tmp_path, capsys, umask):
        target = tmp_path / "new.json"
        previous = os.umask(umask)
        try:
            code = main(["--out", str(target), "classify", "--a", "1", "--c", "0.5"])
        finally:
            os.umask(previous)
        capsys.readouterr()
        assert code == EXIT_OK
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_device_target(self, capsys):
        code, out, err = run(capsys, "--out", os.devnull, "--n-max", "3", "orbit",
                             "--a", "1", "--c", "0.5")
        assert (code, out, err) == (EXIT_OK, "", "")

    def test_unwritable_targets(self, tmp_path, capsys):
        for target in (tmp_path, tmp_path / "missing" / "out.csv"):
            code, out, err = run(capsys, "--out", str(target), "--n-max", "3", "orbit",
                                 "--a", "1", "--c", "0.5")
            assert code == EXIT_INVALID_CONFIG and not out
            assert "invalid configuration" in err and "Traceback" not in err

    def test_target_is_never_truncated_on_open(self, tmp_path, capsys, monkeypatch):
        # opening with O_TRUNC (or mode "w", as Path.write_text does) cuts the file to
        # zero first, which costs about 0.1 ms per call on some filesystems
        opened = []
        real_os_open, real_open, real_io_open = os.open, builtins.open, io.open

        def os_open(path, flags, *rest, **kw):
            opened.append(("os.open", os.fspath(path), flags))
            return real_os_open(path, flags, *rest, **kw)

        def checked(real):
            def wrapper(file, mode="r", *rest, **kw):
                if not isinstance(file, int):
                    opened.append(("open", os.fspath(file), mode))
                return real(file, mode, *rest, **kw)
            return wrapper

        monkeypatch.setattr(os, "open", os_open)
        monkeypatch.setattr(builtins, "open", checked(real_open))
        monkeypatch.setattr(io, "open", checked(real_io_open))
        target = tmp_path / "out"
        target.write_bytes(b"x" * 100_000)
        for argv in (["kernel", "--a", "1", "--w", "0"],
                     ["--half-width", "4", "norm", "--a", "1", "--c", "0.5"],
                     ["spectrum", "--a", "1", "--c", "1", "--d", "1i", "--boundary-count", "3"],
                     ["classify", "--a", "1", "--c", "0.5"],
                     ["--n-max", "3", "orbit", "--a", "1", "--c", "0.5"],
                     ["--n-max", "3", "cesaro", "--a", "1", "--c", "0.5"],
                     ["--half-width", "8", "--n-max", "3", "shadow", "--a", "1", "--c", "0.5"]):
            opened.clear()
            assert main(["--out", str(target), *argv]) == EXIT_OK, argv
            mine = [entry for entry in opened if entry[1] == str(target)]
            assert [kind for kind, _, _ in mine] == ["os.open"], argv
            assert not mine[0][2] & os.O_TRUNC, argv
        capsys.readouterr()
        assert target.stat().st_size < 100_000


class TestExitCodes:
    def test_inadmissible_symbol(self, capsys):
        code, _, err = run(capsys, "norm", "--a", "1", "--c", "1.5", "--d", "0")
        assert code == EXIT_INVALID_CONFIG
        assert "invalid configuration" in err

    def test_bad_argument_syntax(self, capsys):
        code = main(["norm", "--a", "1", "--c", "0.5", "--d", "xyz"])
        capsys.readouterr()
        assert code == EXIT_INVALID_CONFIG

    def test_overflow_guard(self, capsys):
        code, _, err = run(capsys, "orbit", "--a", "1", "--c", "1", "--d", "0+40i")
        assert code == EXIT_OVERFLOW
        assert "overflow guard" in err

    def test_norm_large_translation_is_not_zero(self, capsys):
        # entries near e^200: the section estimate stays finite and below the closed norm
        code, out, _ = run(capsys, "--half-width", "48", "norm", "--a", "1", "--c", "1", "--d", "200i")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert 0.1 * rec["closed_form"] < rec["section_estimate"] <= rec["closed_form"] * (1 + 1e-9)

    def test_norm_at_the_edges(self, capsys):
        # slopes down to 1e-3 and a |Im d| just inside and just past the guard's
        # limit of 300: a certified section below the exact norm, or exit code 3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for c in ("1", "-1", "0.5", "-0.5", "0.25", "0.9", "1e-3"):
                for d in ("0", "0.7", "1i", "0.3+250i", "0.3+299.99i", "0.3+300.01i"):
                    for n in ("1", "2", "3", "64"):
                        code, out, err = run(capsys, "--half-width", n, "norm",
                                             "--a", "1", "--c", c, "--d", d)
                        if d == "0.3+300.01i":
                            assert code == EXIT_OVERFLOW and "overflow guard" in err
                            continue
                        assert code == EXIT_OK
                        rec = json.loads(out)
                        assert rec["certificate"] in ("residual", "invariant")
                        assert math.isfinite(rec["section_estimate"])
                        assert rec["section_estimate"] <= rec["closed_form"] * (1.0 + 1e-9)

    def test_norm_overflow_guard(self, capsys):
        code, _, err = run(capsys, "norm", "--a", "1", "--c", "1", "--d", "800i")
        assert code == EXIT_OVERFLOW
        assert "overflow guard" in err
        # a value just past the limit prints its excess, not a rounded "300 > 300"
        code, _, err = run(capsys, "norm", "--a", "1", "--c", "0.5", "--d", "0.3+300.01i")
        assert code == EXIT_OVERFLOW
        assert "norm exponent 300.01 > 300" in err
        # a section too wide to allocate trips the guard, not a MemoryError
        code, _, err = run(capsys, "--half-width", "1048576", "norm", "--a", "1", "--c", "0.5")
        assert code == EXIT_OVERFLOW
        assert "section of" in err

    def test_zero_counts(self, capsys):
        # each subcommand's own count rule (core._count) decides a 0: a one-node kernel and
        # the n = 0 orbit row are records; a section, a Cesaro mean and a divergence need n >= 1
        code, out, _ = run(capsys, "--half-width", "0", "kernel", "--a", "1", "--w", "0")
        assert code == EXIT_OK and json.loads(out)["function"]["N"] == 0
        code, out, _ = run(capsys, "--n-max", "0", "orbit", "--a", "1", "--c", "0.5")
        assert code == EXIT_OK and [line.split(",")[0] for line in out.splitlines()] == ["n", "0"]
        for argv, what in ((["--half-width", "0", "norm"], "section half width"),
                           (["--n-max", "0", "cesaro"], "orbit horizon"),
                           (["--n-max", "0", "shadow"], "divergence horizon")):
            code, out, err = run(capsys, *argv, "--a", "1", "--c", "0.5")
            assert code == EXIT_INVALID_CONFIG and not out and f"{what} must be an integer >= 1" in err, argv

    def test_removed_knobs(self, capsys):
        # the frequency grid, the small-window profile, the config file and the section norm's
        # tolerance are gone
        for knob in (["--m-points", "1024"], ["--fast"], ["--config", "x.cfg"], ["--tol", "1e-8"]):
            code, out, err = run(capsys, *knob, "norm", "--a", "1", "--c", "0.5")
            assert code == EXIT_INVALID_CONFIG and not out and "usage: pwlab" in err

    def test_nonfinite_shadow_delta(self, capsys):
        for delta in ("nan", "inf", "-inf"):
            code, out, err = run(capsys, "--half-width", "48", "shadow", "--a", "3.14159", "--c", "0.5",
                                 f"--delta={delta}")
            assert code == EXIT_INVALID_CONFIG and not out
            assert "delta must be positive and finite" in err

    def test_shadow_g_norm_must_be_a_norm(self, capsys):
        for g_norm in ("-0.04", "nan", "inf", "-inf"):
            code, out, err = run(capsys, "--half-width", "16", "shadow", "--a", "1", "--c", "0.5",
                                 f"--g-norm={g_norm}")
            assert code == EXIT_INVALID_CONFIG and not out
            assert "g_norm must be nonnegative and finite" in err

    def test_sizes_past_their_caps(self, capsys):
        # each used to end in a MemoryError traceback; now the guard trips before any allocation
        huge = str(10**15)
        cases = [
            (["--half-width", huge, "orbit", "--a", "1", "--c", "0.5", "--probe", "rough"], "window half width"),
            (["--half-width", huge, "kernel", "--a", "1", "--w", "0"], "window half width"),
            (["--half-width", huge, "norm", "--a", "1", "--c", "0.5"], "section of"),
            (["spectrum", "--a", "1", "--c", "0.5", "--boundary-count", huge], "boundary count"),
            (["--n-max", huge, "orbit", "--a", "1", "--c", "-1", "--d", "0.3"], "orbit horizon"),
            (["--n-max", "100000", "shadow", "--a", "1", "--c", "-1", "--d", "0.3"],
             "pseudotrajectory gram entries"),
        ]
        for argv, what in cases:
            code, out, err = run(capsys, *argv)
            assert code == EXIT_OVERFLOW and not out, argv
            assert err.startswith("overflow guard: " + what), argv

    def test_empty_spectrum_boundary(self, capsys):
        for count in ("0", "-1"):
            code, out, err = run(capsys, "spectrum", "--a", "1", "--c", "0.5",
                                 f"--boundary-count={count}")
            assert code == EXIT_INVALID_CONFIG and not out
            assert "boundary count must be an integer >= 1" in err

    def test_nan_kernel_point(self, capsys):
        code, _, err = run(capsys, "kernel", "--a", "1", "--w", "nan")
        assert code == EXIT_INVALID_CONFIG
        assert "NaN" in err

    def test_bandwidth_outside_zero_inf(self, capsys):
        # a = 0 used to end in a ZeroDivisionError traceback, a = -1 in a record
        # of a space that does not exist, a = nan in NaN tokens
        commands = (["kernel", "--w", "1"], ["norm", "--c", "0.5"], ["spectrum", "--c", "1", "--d", "1i"],
                    ["classify", "--c", "0.5"], ["orbit", "--c", "0.5"])
        for command in commands:
            for a in ("0", "-1", "nan"):
                code, out, err = run(capsys, "--half-width", "8", command[0], f"--a={a}", *command[1:])
                assert code == EXIT_INVALID_CONFIG and not out, (command, a)
                assert "bandwidth must be positive and finite" in err

    def test_unknown_subcommand(self, capsys):
        code = main(["transmogrify"])
        capsys.readouterr()
        assert code == EXIT_INVALID_CONFIG


class TestRepeatedCalls:
    """main builds its parser once per process; no parse state may leak from one call to the next."""

    CALLS = [
        ("--half-width", "48", "kernel", "--a", "1", "--w", "0.5+1i"),
        ("kernel", "--a", "1", "--w", "0.5+1i"),  # a flag does not stick
        ("--half-width", "16", "norm", "--a", "1", "--c", "0.5", "--d", "0.3+0.4i"),
        ("--half-width", "16", "norm", "--a", "1", "--c", "0.5", "--d=-2-0.5I"),
        ("spectrum", "--a", "1", "--c", "0.5", "--d", "1i", "--boundary-count", "5"),
        ("classify", "--a", "2", "--c", "-1", "--d", "0"),
        ("--seed", "5", "--half-width", "16", "--n-max", "6", "orbit", "--a", "1",
         "--c", "0.5", "--d", "0.3+0.4i", "--probe", "rough"),
        ("--half-width", "16", "--n-max", "6", "orbit", "--a", "1", "--c", "0.5"),
        ("--half-width", "16", "--n-max", "6", "cesaro", "--a", "1", "--c", "-0.5",
         "--d", "1+1i", "--probe", "node", "--node", "3"),
        ("--half-width", "16", "--n-max", "8", "shadow", "--a", "1.3", "--c", "-0.5",
         "--d", "0.3+0.2i", "--probe", "rough"),
        ("--half-width", "16", "--n-max", "8", "shadow", "--a", "1.3", "--c", "-0.5"),
        # the battery runs at its pinned configurations whatever the flags; running it twice
        # would add seconds, so its parser alone is called
        ("verify", "--help"),
        ("norm", "--a", "1", "--c", "0.5", "--d", "xyz"),
        ("--help",),
        ("classify", "--a", "2", "--c", "-1"),
    ]

    def test_in_process_calls_match_fresh_processes(self, capsys, monkeypatch):
        # help text wraps at the terminal width, which COLUMNS fixes for both sides
        monkeypatch.setenv("COLUMNS", "80")
        inside = []
        for argv in self.CALLS:
            code = main(list(argv))
            captured = capsys.readouterr()
            inside.append((code, captured.out, captured.err))
        assert [code for code, _, _ in inside].count(EXIT_INVALID_CONFIG) == 1
        assert inside[-2][0] == EXIT_OK and inside[-2][1].startswith("usage: pwlab")

        env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(pwlab.__file__).parents[1]))

        def fresh(argv):
            proc = subprocess.run([sys.executable, "-m", "pwlab.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        with ThreadPoolExecutor(max_workers=4) as pool:
            outside = list(pool.map(fresh, self.CALLS))
        for argv, got, want in zip(self.CALLS, inside, outside):
            assert got == want, argv
