"""Command-line interface: subcommands, profiles, config, exit codes."""

import json
import math

import pytest

import pwlab
from pwlab.cli import (
    EXIT_INVALID_CONFIG,
    EXIT_OK,
    EXIT_OVERFLOW,
    load_config_file,
    main,
    parse_complex,
    resolve_config,
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

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("half_width = 16  # window\nseed = 0x10\n\ntol = 1e-8\n")
        overrides = load_config_file(str(path))
        assert overrides == {"half_width": 16, "seed": 16, "tol": 1e-8}
        bad = tmp_path / "bad.cfg"
        bad.write_text("mystery = 3\n")
        with pytest.raises(ValueError):
            load_config_file(str(bad))

    def test_profile_and_precedence(self, tmp_path):
        import argparse

        path = tmp_path / "run.cfg"
        path.write_text("half_width=200\n")
        ns = argparse.Namespace(
            fast=True, config=str(path), half_width=64,
            n_max=None, seed=None, tol=None,
        )
        cfg = resolve_config(ns)
        # fast profile < flag < config file
        assert cfg.half_width == 200
        ns.config = None
        assert resolve_config(ns).half_width == 64
        ns.half_width = None
        assert resolve_config(ns).half_width == 48


class TestSubcommands:
    def test_kernel_json(self, capsys):
        code, out, _ = run(capsys, "--fast", "kernel", "--a", "1", "--w", "1i")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert abs(rec["norm_sq"] - math.sinh(2.0) / (2.0 * math.pi)) < 1e-12
        assert rec["function"]["N"] == 48
        # the record embeds the standalone sample encoding byte for byte
        assert pwlab.io.pw_to_json(pwlab.KernelPoint(1.0, 1j).to_pw(48)) in out

    def test_norm_closed_vs_estimate(self, capsys):
        code, out, _ = run(capsys, "--fast", "norm", "--a", "1", "--c", "0.5", "--d", "0")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert abs(rec["closed_form"] - math.sqrt(2.0)) < 1e-12
        # the closed form is the upper edge of the enclosure, not a second formula
        assert rec["closed_form"] == rec["bracket"][1]
        assert rec["relative_deviation"] < 1e-3
        # sections approach the norm from below
        assert rec["bracket"][0] <= rec["closed_form"] <= rec["bracket"][1] * (1 + 1e-12)
        assert rec["section_estimate"] <= rec["closed_form"] * (1 + 1e-9)
        # how the estimate was certified: Krylov steps per start, test, residual
        assert len(rec["iterations"]) == 2 and all(1 <= k <= 97 for k in rec["iterations"])
        assert rec["certificate"] in ("residual", "stall", "invariant")
        assert 0.0 <= rec["residual"] <= 1e-5

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
        code, out, _ = run(capsys, "--fast", "--n-max", "6", "orbit", "--a", "1",
                           "--c", "0.5", "--d", "0", "--probe", "node")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,norm"
        assert len(lines) == 8
        norms = [float(line.split(",")[1]) for line in lines[1:]]
        assert abs(norms[6] / norms[0] - 8.0) < 1e-9  # 2^{6/2}

    def test_cesaro_csv(self, capsys):
        code, out, _ = run(capsys, "--fast", "--n-max", "5", "cesaro", "--a", "1",
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


class TestOutputRouting:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "kernel.json"
        code, out, _ = run(capsys, "--out", str(target), "--fast", "kernel",
                           "--a", "1", "--w", "0")
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["norm_sq"] == pytest.approx(1 / math.pi)

    def test_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "env.json"
        monkeypatch.setenv("PWLAB_OUT", str(target))
        code, out, _ = run(capsys, "--fast", "classify", "--a", "1", "--c", "1", "--d", "0")
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["flags"]["unitary"] is True

    def test_byte_identical_reruns(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        argv = ["--fast", "--n-max", "8", "orbit", "--a", "1", "--c", "0.5",
                "--d", "0.3+0.4i", "--probe", "rough"]
        assert main(["--out", str(p1)] + argv[0:]) == EXIT_OK
        assert main(["--out", str(p2)] + argv[0:]) == EXIT_OK
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_file_wins_over_flags(self, tmp_path, capsys):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("half_width = 16\n")
        code, out, _ = run(capsys, "--config", str(cfg), "--half-width", "64",
                           "norm", "--a", "1", "--c", "0.5", "--d", "0")
        assert code == EXIT_OK
        assert json.loads(out)["half_width"] == 16


class TestExitCodes:
    def test_inadmissible_symbol(self, capsys):
        code, _, err = run(capsys, "norm", "--a", "1", "--c", "1.5", "--d", "0")
        assert code == EXIT_INVALID_CONFIG
        assert "invalid configuration" in err

    def test_bad_argument_syntax(self, capsys):
        code = main(["norm", "--a", "1", "--c", "0.5", "--d", "xyz"])
        capsys.readouterr()
        assert code == EXIT_INVALID_CONFIG

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "--config", "/nonexistent/x.cfg", "norm",
                           "--a", "1", "--c", "0.5", "--d", "0")
        assert code == EXIT_INVALID_CONFIG

    def test_overflow_guard(self, capsys):
        code, _, err = run(capsys, "orbit", "--a", "1", "--c", "1", "--d", "0+40i")
        assert code == EXIT_OVERFLOW
        assert "overflow guard" in err

    def test_norm_large_translation_is_not_zero(self, capsys):
        # entries near e^200: the section estimate stays finite and below the closed norm
        code, out, _ = run(capsys, "--fast", "norm", "--a", "1", "--c", "1", "--d", "200i")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert 0.1 * rec["closed_form"] < rec["section_estimate"] <= rec["closed_form"] * (1 + 1e-9)

    def test_norm_overflow_guard(self, capsys):
        code, _, err = run(capsys, "norm", "--a", "1", "--c", "1", "--d", "800i")
        assert code == EXIT_OVERFLOW
        assert "overflow guard" in err

    def test_removed_frequency_grid_knob(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("m_points = 1024\n")
        code, _, err = run(capsys, "--config", str(cfg), "norm", "--a", "1", "--c", "0.5")
        assert code == EXIT_INVALID_CONFIG
        assert "unknown config key" in err
        code = main(["--m-points", "1024", "norm", "--a", "1", "--c", "0.5"])
        capsys.readouterr()
        assert code == EXIT_INVALID_CONFIG

    def test_tolerance_must_certify(self, capsys):
        for tol in ("nan", "inf", "2", "1", "0", "-1e-3"):
            code, _, err = run(capsys, "--tol", tol, "norm", "--a", "1", "--c", "0.5")
            assert code == EXIT_INVALID_CONFIG
            assert "tol" in err

    def test_nan_kernel_point(self, capsys):
        code, _, err = run(capsys, "kernel", "--a", "1", "--w", "nan")
        assert code == EXIT_INVALID_CONFIG
        assert "NaN" in err

    def test_unknown_subcommand(self, capsys):
        code = main(["transmogrify"])
        capsys.readouterr()
        assert code == EXIT_INVALID_CONFIG
