"""Command-line interface, driven in-process through cli.main()."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import octo_so8
from octo_so8 import SquareMatrix, cli
from octo_so8.cli import main
from octo_so8.fixtures import FIXTURE_FILES
from test_golden import AUDIT_GRID, ROTATE_GRID, audit_grid, cli_digest, \
    rotate_grid


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert rc == 0, err
    # canonical serialization: loads/dumps reproduces the bytes exactly
    payload = json.loads(out)
    assert json.dumps(payload, indent=2) + "\n" == out
    return payload


class TestTables:
    def test_markdown_sections(self, capsys):
        rc, out, _ = run(capsys, "tables")
        assert rc == 0
        assert "## Octonion multiplication table (fixture)" in out
        assert "## Derived E-matrix multiplication table" in out
        assert "| e1 | e1 | -e0 | e3 |" in out
        assert "identical: 44, sign-flipped: 20, structurally-different: 0" in out

    def test_json_payload(self, capsys):
        payload = run_json(capsys, "tables")
        assert set(payload) == {"octonion_table", "derived_e_table", "diff"}
        counts = payload["diff"]["counts"]
        assert sum(counts.values()) == 64
        assert len(payload["diff"]["cells"]) == 20
        assert len(payload["octonion_table"]) == 8


class TestVerify:
    def test_default_markdown(self, capsys):
        rc, out, _ = run(capsys, "verify")
        assert rc == 0
        assert out.startswith("# Verification report")
        assert "confirmed: 14, refuted: 5, degenerate: 0" in out

    def test_strict_exit_code(self, capsys):
        rc, out, _ = run(capsys, "verify", "--strict")
        assert rc == 1
        assert "refuted: 5" in out

    def test_json_summary(self, capsys):
        payload = run_json(capsys, "verify")
        assert payload["summary"] == {"confirmed": 14, "refuted": 5,
                                      "degenerate": 0}
        assert len(payload["claims"]) == 19
        assert len(payload["fixtures"]) == 11

    def test_tensor_variant(self, capsys):
        rc, out, _ = run(capsys, "verify", "--beta-variant", "tensor",
                         "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["summary"] == {"confirmed": 8, "refuted": 9,
                                      "degenerate": 2}

    def test_missing_fixture_dir(self, capsys):
        rc, _, err = run(capsys, "verify", "--fixtures", "/nonexistent/dir")
        assert rc == 2
        assert err.startswith("error:")

    def test_env_var_fixture_dir(self, capsys, data_copy, monkeypatch):
        # resolution is shared across subcommands; tables is the cheap one
        monkeypatch.setenv("OCTO_SO8_FIXTURES", str(data_copy))
        rc, out, _ = run(capsys, "tables")
        assert rc == 0 and "identical: 44" in out

    def test_flag_overrides_env(self, capsys, data_copy, monkeypatch):
        monkeypatch.setenv("OCTO_SO8_FIXTURES", "/nonexistent/dir")
        rc, _, _ = run(capsys, "tables", "--fixtures", str(data_copy))
        assert rc == 0

    def test_huge_number_cell_names_file_line_and_column(self, capsys,
                                                         data_copy):
        # past the interpreter's 4,300-digit int limit
        path = data_copy / "eq6_X.txt"
        rows = path.read_text("utf-8").split("\n")
        rows[0] = " ".join(["1" + "0" * 5000] + rows[0].split()[1:])
        path.write_text("\n".join(rows), encoding="utf-8")
        rc, out, err = run(capsys, "verify", "--fixtures", str(data_copy))
        assert (rc, out) == (2, "")
        assert err == ("error: eq6_X.txt:1: column 1: scalar atom "
                       "'100000000000...' has more than 4300 digits\n")


class TestNarrowReads:
    """tables reads table2.txt alone and symbolic rotate eq14_map.txt
    alone, with verify's passes and messages; only verify reads the
    whole set."""

    GRIDS = {"table2.txt": (AUDIT_GRID, [a for a in audit_grid()
                                         if a[0] == "tables"]),
             "eq14_map.txt": (ROTATE_GRID, [a for a in rotate_grid()
                                            if a[5] == "--format"])}
    BROKEN = {"table2.txt": ("e3", "e9", "table2.txt:1: basis index out of "
                             "range 0..7 in 'e9'"),
              "eq14_map.txt": ("f7: 2*f8", "f7: 2*f9", "eq14_map.txt:7: bad "
                               "scalar atom 'f9' in 'f9'")}

    @pytest.mark.parametrize("name", list(GRIDS))
    def test_no_other_file_is_read(self, capsys, data_copy, name):
        # every other file malformed: verify fails, and each argv of the
        # grid that reads name prints its golden bytes from the copy
        for other in FIXTURE_FILES:
            if other != name:
                (data_copy / other).write_text("not a fixture\n", "utf-8")
        path, argvs = self.GRIDS[name]
        want = json.loads(path.read_text("utf-8"))
        for argv in argvs:
            got = cli_digest(argv + ["--fixtures", str(data_copy)])
            assert got == want[" ".join(argv)], argv
        rc, out, err = run(capsys, "verify", "--fixtures", str(data_copy))
        assert (rc, out) == (2, "")
        assert err.startswith("error: eq2_sigma.txt:")

    @pytest.mark.parametrize("command, name", [
        (("tables",), "table2.txt"), (("verify",), "table2.txt"),
        (("rotate", "5", "6"), "eq14_map.txt"), (("verify",), "eq14_map.txt")])
    def test_a_malformed_file_is_named_as_verify_names_it(
            self, capsys, data_copy, command, name):
        old, new, message = self.BROKEN[name]
        path = data_copy / name
        path.write_text(path.read_text("utf-8").replace(old, new, 1), "utf-8")
        rc, out, err = run(capsys, *command, "--fixtures", str(data_copy))
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command, name", [
        (("tables",), "table2.txt"), (("rotate", "5", "6"), "eq14_map.txt"),
        (("rotate", "7", "8", "--format", "json"), "eq14_map.txt")])
    def test_a_missing_file_is_named(self, capsys, data_copy, command, name):
        (data_copy / name).unlink()
        rc, out, err = run(capsys, *command, "--fixtures", str(data_copy))
        assert (rc, out) == (2, "")
        assert err == f"error: missing fixture file: {data_copy / name}\n"


class TestRotate:
    def test_symbolic_map_flags_mismatches(self, capsys):
        rc, out, _ = run(capsys, "rotate", "1", "2")
        assert rc == 0
        assert out.count("[differs from stated") == 3
        assert "f1 -> f1 + theta*(2*f2)   [differs from stated 2*f2-2i*f4]" in out
        assert "f2 -> f2 + theta*(-2*f1)\n" in out
        assert "projection residual (per theta) nonzero at:" in out
        assert "(1,8): -2*f4" in out

    def test_duplicate_plane_same_map(self, capsys):
        _, out12, _ = run(capsys, "rotate", "1", "2")
        _, out56, _ = run(capsys, "rotate", "5", "6")
        tail12 = out12.splitlines()[1:]
        tail56 = out56.splitlines()[1:]
        assert tail12 == tail56
        assert out56.splitlines()[0] == "first-order component map for plane (5,6):"

    def test_numeric_exact_conjugation(self, capsys):
        payload = run_json(capsys, "rotate", "1", "2",
                           "--theta", "1/4", "--f", "1,0,0,0,0,0,0,0")
        assert payload["exact"]["f_prime"] == ["15/17", "-8/17",
                                               "0", "0", "0", "0", "0", "0"]
        assert payload["first_order"]["f_prime"][1] == "-1/2"
        assert payload["exact"]["residual_max"] == 0.0

    @pytest.mark.parametrize("plane", [("1", "2"), ("2", "5")])
    def test_zero_f_has_zero_residual(self, capsys, plane):
        # every residual cell is zero: the maxima are 0.0, not an error
        argv = ("rotate", *plane, "--theta=5/4", "--f=0,0,0,0,0,0,0,0")
        payload = run_json(capsys, *argv)
        assert payload["first_order"]["residual_max"] == 0.0
        assert payload["exact"]["residual_max"] == 0.0
        rc, out, err = run(capsys, *argv, "--format", "md")
        assert (rc, err) == (0, "")
        assert "  first-order residual max-entry: 0.0\n" in out
        assert out.endswith("  exact residual max-entry: 0.0\n")

    def test_theta_zero_is_identity(self, capsys):
        payload = run_json(capsys, "rotate", "1", "2",
                           "--theta", "0", "--f", "1,1,1,1,1,1,1,1")
        assert payload["exact"]["f_prime"] == ["1"] * 8
        assert payload["first_order"]["f_prime"] == ["1"] * 8

    def test_invalid_plane(self, capsys):
        rc, _, err = run(capsys, "rotate", "1", "1")
        assert rc == 2
        assert "error:" in err

    def test_malformed_f_vector(self, capsys):
        rc, _, err = run(capsys, "rotate", "1", "2", "--theta", "1/4",
                         "--f", "1,2,3")
        assert rc == 2
        assert err == ("error: --f=1,2,3: need exactly 8 comma-separated "
                       "f values\n")

    def test_non_dyadic_f_entry(self, capsys):
        rc, out, err = run(capsys, "rotate", "1", "2", "--theta=1/4",
                           "--f=1,0,0,0,0,0,0,1/3")
        assert (rc, out) == (2, "")
        assert err == ("error: --f=1,0,0,0,0,0,0,1/3: denominator 3 is not "
                       "a power of two\n")

    def test_negative_theta_residual_is_a_magnitude(self, capsys):
        argv = ("rotate", "1", "2", "--theta=-1/4", "--f=1,0,0,1,0,0,0,0")
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert "  first-order residual max-entry: 0.5\n" in out
        payload = run_json(capsys, *argv)
        assert payload["first_order"]["residual_max"] == 0.5

    @pytest.mark.parametrize("flag, value", [
        ("--theta", "1" + "0" * 5000),
        ("--f", "1,0,0,0,0,0,0,-1/1" + "0" * 5000)])
    def test_huge_number_names_the_flag(self, capsys, flag, value):
        rc, out, err = run(capsys, "rotate", "1", "2", "--theta=1/4",
                           "--f=1,0,0,0,0,0,0,0", f"{flag}={value}")
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {flag}={value}: scalar atom '")
        assert err.endswith("...' has more than 4300 digits\n")

    @pytest.mark.parametrize("fmt", ["md", "json"])
    def test_digit_limit_of_the_result_names_the_flags(self, capsys, fmt):
        # 2**10000 has 3,011 digits, but 1 + theta**2 needs 6,021
        theta = f"1/{2 ** 10000}"
        rc, out, err = run(capsys, "rotate", "1", "2", f"--theta={theta}",
                           "--f=1,0,0,0,0,0,0,0", "--format", fmt)
        assert (rc, out) == (2, "")
        assert err == (
            "error: --theta=1/1995063116880758384883742162683585083823496831"
            "886192454852<...3013 chars, sha256 05091ae0a3e7c2d4...>45580341"
            "6826949787141316063210686391511681774304792596709376 "
            "--f=1,0,0,0,0,0,0,0: an f' value has more than 4300 digits\n")

    def test_non_dyadic_theta(self, capsys):
        rc, _, err = run(capsys, "rotate", "1", "2", "--theta", "1/3",
                         "--f", "1,0,0,0,0,0,0,0")
        assert rc == 2
        assert err == "error: --theta=1/3: denominator 3 is not a power of two\n"

    def test_newline_inside_theta_is_rejected(self, capsys):
        # an atom may not end in a newline, as it may not end in a space
        rc, out, err = run(capsys, "rotate", "1", "2", "--theta=1\n+0i",
                           "--f=1,0,0,0,0,0,0,0")
        assert (rc, out) == (2, "")
        assert err == ("error: --theta=1\n+0i: bad scalar atom '1\\n' in "
                       "'1\\n+0i'\n")

    @pytest.mark.parametrize("argv, err", [
        (("--theta=1/3",),
         "error: --theta=1/3: denominator 3 is not a power of two\n"),
        (("--theta=abc",),
         "error: --theta=abc: bad scalar atom 'abc' in 'abc'\n"),
        (("--theta=1/3", "--f=1,0,0,0,0,0,0,0", "--beta-variant", "tensor"),
         "error: --theta=1/3: denominator 3 is not a power of two\n"),
        (("--theta=1/4", "--f=1,0", "--beta-variant", "tensor"),
         "error: --f=1,0: need exactly 8 comma-separated f values\n"),
    ], ids=["symbolic", "symbolic-garbage", "tensor-theta", "tensor-f"])
    def test_flags_checked_in_both_modes_before_the_reading(self, capsys,
                                                           argv, err):
        # a bad flag is reported in symbolic mode too, and before a
        # reading whose Gram matrix is singular
        assert run(capsys, "rotate", "1", "2", *argv) == (2, "", err)

    @pytest.mark.parametrize("fmt", ["md", "json"])
    @pytest.mark.parametrize("theta, f", [
        (str(2 ** 1100), "0,0,0,1,0,0,0,0"),
        ("1/4", f"0,0,0,{2 ** 1100},0,0,0,0"),
        (str(2 ** 1000), f"0,0,0,{2 ** 1000},0,0,0,0"),
    ], ids=["huge-theta", "huge-f4", "huge-product"])
    def test_residual_overflow_names_the_flags(self, capsys, theta, f, fmt):
        rc, out, err = run(capsys, "rotate", "1", "2", f"--theta={theta}",
                           f"--f={f}", "--format", fmt)
        assert (rc, out) == (2, "")
        assert err == (f"error: --theta={theta} --f={f}: residual max-entry "
                       "overflows binary64\n")

    @pytest.mark.parametrize("theta", [str(2 ** 1100), f"-{2 ** 1100}"],
                             ids=["huge", "minus-huge"])
    @pytest.mark.parametrize("k, l, f", [
        ("1", "2", "1,0,0,0,0,0,0,0"),    # beta_1 beta_2 beta_1 is in the span
        ("1", "2", "0,0,0,0,0,0,0,0"),
        ("5", "6", "0,0,0,0,0,0,0,0"),
    ])
    def test_zero_residual_past_binary64(self, capsys, k, l, f, theta):
        # a zero residual has maximum 0.0 at every theta, so a theta
        # past binary64 is never converted; f' is still exact.  N_56 =
        # N_12 = beta_1 beta_2 squares to -I and maps f_1 to -2 f_1 beta_2
        rc, out, err = run(capsys, "rotate", k, l, f"--theta={theta}",
                           f"--f={f}", "--format", "json")
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        t, f1 = Fraction(theta), int(f[0])
        assert doc["first_order"] == {
            "f_prime": [str(f1), str(-2 * t * f1)] + ["0"] * 6,
            "residual_max": 0.0}
        assert doc["exact"] == {
            "f_prime": [str(f1 * (1 - t * t) / (1 + t * t)),
                        str(-2 * t * f1 / (1 + t * t))] + ["0"] * 6,
            "residual_max": 0.0}
        rc, out, err = run(capsys, "rotate", k, l, f"--theta={theta}",
                           f"--f={f}", "--format", "md")
        assert (rc, err) == (0, "")
        assert out.count(" residual max-entry: 0.0\n") == 2

    def test_singular_rotation_names_plane_and_theta(self, capsys):
        rc, out, err = run(capsys, "rotate", "3", "7", "--theta", "1",
                           "--f", "1,0,0,0,0,0,0,0")
        assert rc == 2
        assert out == ""
        assert err == ("error: rotation of plane (3,7) with theta=1 is "
                       "singular\n")

    @pytest.mark.parametrize("argv", [
        ("3", "7"),                                         # symbolic
        ("3", "7", "--theta=1/4", "--f=1,0,0,0,0,0,0,0"),   # exact
    ])
    def test_tensor_degenerate_names_plane_and_reading(self, capsys, argv):
        rc, out, err = run(capsys, "rotate", *argv, "--beta-variant", "tensor")
        assert (rc, out) == (2, "")
        assert err == ("error: plane (3,7) under the tensor reading: "
                       "generator Gram matrix is singular\n")

    @pytest.mark.parametrize("argv", [
        ("1", "2", "--theta=1/4", "--f=1,0,0,0,0,0,0,0"),   # numeric
        ("3", "7"),              # symbolic, product differs from beta1 beta2
    ])
    def test_fixtures_read_only_where_needed(self, capsys, argv):
        rc, out, err = run(capsys, "rotate", *argv,
                           "--fixtures", "/nonexistent/dir")
        assert (rc, err) == (0, "")
        assert out == run(capsys, "rotate", *argv)[1]

    def test_eq14_plane_still_needs_fixtures(self, capsys):
        rc, _, err = run(capsys, "rotate", "5", "6",
                         "--fixtures", "/nonexistent/dir")
        assert rc == 2
        assert err.startswith("error: fixture directory not found")


SPINOR_F = "--f=0.3,-0.2,0.7,0.1,0,-0.5,0.4,0.9"


class TestSpinor:
    def test_zero_action_is_identity(self, capsys):
        rc, out, _ = run(capsys, "spinor", "--f", "0,0,0,0,0,0,0,0")
        assert rc == 0
        assert "psi1' = (1+0i)*e0   [|e0|=1]" in out
        assert out.count("psi") == 8

    def test_f8_diagonal_action(self, capsys):
        payload = run_json(capsys, "spinor",
                           "--f", f"0,0,0,0,0,0,0,{math.log(2.0)}")
        comp = {c["index"]: c["terms"] for c in payload["components"]}
        assert comp[1][0]["unit"] == "e0"
        assert comp[1][0]["re"] == pytest.approx(2.0, abs=1e-9)
        assert comp[3][0]["re"] == pytest.approx(0.5, abs=1e-9)

    def test_split_frame(self, capsys):
        rc, out, _ = run(capsys, "spinor", "--f", "0,0,0,0,0,0,0,0",
                         "--split")
        assert rc == 0
        assert "Y source: fixture sum (eq21_Y1 + eq21_Y2)" in out
        assert "phi1' = (0.5+0i)*e0 + (0+0.5i)*e7" in out
        assert "phi5' = (0.5+0i)*e0 + (0-0.5i)*e7" in out

    def test_json_round_trip(self, capsys):
        payload = run_json(capsys, "spinor", "--f", "0,0,0,0,0,0,0,1",
                           "--split")
        assert payload["split"]["y_source"] == "fixture sum (eq21_Y1 + eq21_Y2)"

    @pytest.mark.parametrize("fmt", ["md", "json"])
    def test_split_reads_no_file_but_the_two_y_files(self, capsys, data_copy,
                                                     fmt):
        # a bad token in table1.txt fails verify, which reads the whole
        # set, and leaves --split, which reads eq21_Y1 and eq21_Y2, as
        # it prints on the bundled set
        path = data_copy / "table1.txt"
        path.write_text(path.read_text("utf-8").replace("E0", "Q9", 1),
                        "utf-8")
        argv = ("spinor", SPINOR_F, "--split", "--format", fmt)
        rc, out, err = run(capsys, *argv, "--fixtures", str(data_copy))
        assert (rc, err) == (0, "")
        assert out == run(capsys, *argv)[1]
        rc, out, err = run(capsys, "verify", "--fixtures", str(data_copy))
        assert (rc, out) == (2, "")
        assert err == "error: table1.txt:1: bad cell token 'Q9'\n"

    @pytest.mark.parametrize("command", [("verify",),
                                         ("spinor", SPINOR_F, "--split")])
    def test_split_names_a_bad_y_file_as_verify_does(self, capsys, data_copy,
                                                     command):
        path = data_copy / "eq21_Y2.txt"
        rows = path.read_text("utf-8").split("\n")
        rows[4] = " ".join(["--f1"] + rows[4].split()[1:])
        path.write_text("\n".join(rows), "utf-8")
        rc, out, err = run(capsys, *command, "--fixtures", str(data_copy))
        assert (rc, out) == (2, "")
        assert err == ("error: eq21_Y2.txt:5: column 1: consecutive signs "
                       "in '--f1'\n")

    def test_split_names_a_missing_y_file(self, capsys, data_copy):
        (data_copy / "eq21_Y1.txt").unlink()
        rc, out, err = run(capsys, "spinor", SPINOR_F, "--split",
                           "--fixtures", str(data_copy))
        assert (rc, out) == (2, "")
        assert err == ("error: missing fixture file: "
                       f"{data_copy / 'eq21_Y1.txt'}\n")

    @pytest.mark.parametrize("argv", [
        ("--f=1000,0,0,0,0,0,0,0",),
        ("--f=0,0,0,0,0,0,0,-1500", "--split", "--beta-variant", "tensor"),
    ])
    def test_overflow_exits_2_naming_the_input(self, capsys, argv):
        rc, out, err = run(capsys, "spinor", *argv)
        assert rc == 2
        assert out == ""
        assert err == f"error: {argv[0]}: exponential overflows binary64\n"

    @pytest.mark.parametrize("split", [(), ("--split",)],
                             ids=["standard", "split"])
    @pytest.mark.parametrize("reading", ["sigma", "tensor"])
    @pytest.mark.parametrize("f", ["1000,0,0,0,0,0,0,0",
                                   "0,0,0,0,0,0,0,-1500"])
    def test_benchmark_overflow_inputs_every_mode(self, capsys, f, reading,
                                                  split):
        rc, out, err = run(capsys, "spinor", f"--f={f}", "--beta-variant",
                           reading, *split)
        assert (rc, out) == (2, "")
        assert err == f"error: --f={f}: exponential overflows binary64\n"

    @pytest.mark.parametrize("split", [(), ("--split",)],
                             ids=["standard", "split"])
    @pytest.mark.parametrize("f, message", [
        # the row-sum norm is inf
        ("1e308,1e308,0,0,0,0,0,0", "matrix norm overflows binary64"),
        # the norm is finite but above 2^1022
        ("1e308,0,0,0,0,0,0,0", "matrix norm overflows binary64"),
        ("inf,0,0,0,0,0,0,0", "matrix contains NaN or infinity"),
    ])
    def test_huge_or_non_finite_f_exits_2(self, f, message, split):
        # a child process with a timeout, so a hang fails this test
        # instead of stalling the suite; stderr must hold nothing else,
        # no RuntimeWarning in particular
        src = str(Path(octo_so8.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        p = subprocess.run([sys.executable, "-m", "octo_so8.cli", "spinor",
                            f"--f={f}", *split],
                           capture_output=True, text=True, env=env,
                           timeout=60)
        assert (p.returncode, p.stdout) == (2, "")
        assert p.stderr == f"error: --f={f}: {message}\n"

    @pytest.mark.parametrize("flag, message", [
        ("--f=1,0", "need exactly 8 comma-separated f values"),
        ("--f=1,0,0,0,0,0,0,1/3", "denominator 3 is not a power of two"),
    ])
    def test_bad_f_names_the_flag(self, capsys, flag, message):
        rc, out, err = run(capsys, "spinor", flag)
        assert (rc, out) == (2, "")
        assert err == f"error: {flag}: {message}\n"

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tol_rejected_before_any_series(self, capsys, monkeypatch,
                                                tol):
        def no_series(*_):
            raise AssertionError("a series ran")
        monkeypatch.setattr(cli, "spinor_transform", no_series)
        rc, out, err = run(capsys, "spinor", "--f=1,0,0,0,0,0,0,0",
                           f"--tol={tol}")
        assert (rc, out) == (2, "")
        assert err == f"error: --tol={tol}: must be positive and finite\n"

    def test_unmet_tol_names_the_flag(self, capsys):
        rc, out, err = run(capsys, "spinor", "--f=1,0,0,0,0,0,0,0",
                           "--tol=1e-200")
        assert (rc, out) == (2, "")
        assert err == ("error: --tol=1e-200: tol below 2^-53, the smallest "
                       "tolerance with a tabulated Taylor degree\n")


class TestSpinorJson:
    """The spinor JSON writer against json.dumps of the payload dict
    that the CLI built before it wrote from the term tuples."""

    @staticmethod
    def payload(fvals, tol, psi, phi=None) -> dict:
        def comps(rows):
            return [{"index": i, "terms": [
                {"unit": f"e{j}", "re": re, "im": im, "abs": mag}
                for j, re, im, mag in terms]} for i, terms in enumerate(rows, 1)]
        out = {"f": fvals, "tol": tol, "components": comps(psi)}
        if phi is not None:
            out["split"] = {"y_source": "fixture sum (eq21_Y1 + eq21_Y2)",
                            "components": comps(phi)}
        return out

    def test_every_json_argv_of_the_spinor_grid(self, capsys, monkeypatch):
        from test_golden import spinor_grid
        calls, real = [], cli._spinor_json
        monkeypatch.setattr(cli, "_spinor_json",
                            lambda *a: calls.append(a) or real(*a))
        written = 0
        for argv in spinor_grid():
            if argv[-1] != "json":
                continue
            calls.clear()
            rc, out, _ = run(capsys, *argv)
            if rc:
                assert (rc, out, calls) == (2, "", [])
                continue
            (args,) = calls
            assert out == json.dumps(self.payload(*args), indent=2) + "\n"
            assert ("split" in json.loads(out)) == ("--split" in argv)
            written += 1
        assert written == 22      # 36 json argvs less the 14 that overflow

    floats = st.floats(allow_nan=False, allow_infinity=False) | \
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1.0])
    rows = st.lists(st.lists(st.tuples(st.integers(0, 7), floats, floats,
                                       floats), max_size=8),
                    min_size=8, max_size=8)

    @settings(max_examples=150, deadline=None)
    @given(fvals=st.lists(floats, min_size=8, max_size=8), tol=floats,
           psi=rows, phi=st.none() | rows)
    def test_drawn_payloads(self, fvals, tol, psi, phi):
        assert cli._spinor_json(fvals, tol, psi, phi) == \
            json.dumps(self.payload(fvals, tol, psi, phi), indent=2)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_term_raises_as_dump_json_does(self, bad):
        psi = [[(0, 1.0, 0.0, 1.0)]] * 7 + [[(3, 0.5, bad, 2.0)]]
        with pytest.raises(ValueError) as want:
            cli.dump_json(self.payload([0.0] * 8, 1e-3, psi))
        with pytest.raises(ValueError) as got:
            cli._spinor_json([0.0] * 8, 1e-3, psi)
        assert str(got.value) == str(want.value)


class TestMonomialPathsOnly:
    """No command runs a dense SquareMatrix @ SquareMatrix product or a
    Gauss-Jordan inverse: the generator algebra runs on Pauli codes, and
    gram-orthogonality's singular fields are read off their (x, z)."""

    COMMANDS = [
        (["verify"], 0),
        (["verify", "--beta-variant", "tensor"], 0),
        (["rotate", "1", "2"], 0),
        (["rotate", "3", "7", "--theta=3/8", "--f=1,-1/2,3/4,0,2,-3,1/8,5"], 0),
        (["rotate", "3", "7", "--theta=1", "--f=1,0,0,0,0,0,0,0"], 2),
        (["gram"], 0),
        (["tables"], 0),
        (["spinor", "--f=0.5,0.25,0,0,0,0,0,1", "--split"], 0),
    ]

    def test_counted_calls(self, capsys, monkeypatch):
        dense, inverts = [], []
        matmul = SquareMatrix.__matmul__

        def counting_matmul(a, b):
            if isinstance(b, SquareMatrix):
                dense.append(sys._getframe(1).f_code.co_name)
            return matmul(a, b)

        invert = octo_so8.rotations.invert_exact

        def counting_invert(m):
            inverts.append(sys._getframe(1).f_code.co_name)
            return invert(m)

        monkeypatch.setattr(SquareMatrix, "__matmul__", counting_matmul)
        for name, mod in list(sys.modules.items()):
            if name.startswith("octo_so8") and \
                    getattr(mod, "invert_exact", None) is invert:
                monkeypatch.setattr(mod, "invert_exact", counting_invert)
        octo_so8.claims.context.cache_clear()   # build every context here
        for argv, want in self.COMMANDS:
            assert run(capsys, *argv)[0] == want, argv
        assert dense == []
        assert inverts == []


class TestGramAndDump:
    def test_gram_markdown(self, capsys):
        rc, out, _ = run(capsys, "gram")
        assert rc == 0
        assert "trace Gram matrix, sigma reading:" in out
        assert "anticommuting generator pairs: (1,2)," in out

    def test_gram_tensor_json(self, capsys):
        payload = run_json(capsys, "gram", "--beta-variant", "tensor")
        assert payload["variant"] == "tensor"
        assert payload["gram"][0][7] == "8"

    def test_dump_beta_markdown(self, capsys):
        rc, out, _ = run(capsys, "dump-beta", "8")
        assert rc == 0
        assert "beta8, sigma reading:" in out

    def test_dump_beta_json(self, capsys):
        payload = run_json(capsys, "dump-beta", "1",
                           "--beta-variant", "tensor")
        assert payload == {"generator": 1, "variant": "tensor",
                           "matrix": payload["matrix"]}
        assert len(payload["matrix"]) == 8

    def test_dump_beta_range_enforced(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dump-beta", "9"])
        assert exc.value.code == 2


def test_back_to_back_calls_print_what_a_fresh_call_prints(capsys):
    # main reuses one argparse tree; no call may see another's flags
    src = str(Path(octo_so8.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OCTO_SO8_FIXTURES", None)
    f = "--f=0.5,0.25,0,0,0,0,0,1"
    sequence = [["rotate"], ["gram"], ["spinor", f, "--split"],
                ["spinor", f], ["verify", "--strict"], ["verify"]]
    assert cli.build_parser() is cli.build_parser()
    for argv in sequence:
        try:
            rc = main(argv)
        except SystemExit as exc:       # argparse rejects the command line
            rc = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "octo_so8.cli", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert (rc, captured.out, captured.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_module_runs_as_script():
    src = str(Path(octo_so8.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    p = subprocess.run([sys.executable, "-m", "octo_so8.cli", "dump-beta", "8"],
                       capture_output=True, text=True, env=env, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout.startswith("beta8, sigma reading:")


@pytest.mark.parametrize("argv", [
    ["verify", "--format", "json"],             # fails inside print
    ["spinor", "--f", "0.5,0.25,0,0,0,0,0,1"],  # fails at the final flush
])
def test_closed_stdout_exits_141_quietly(argv):
    # stdout is a pipe whose read end is already closed, so the first
    # write fails with EPIPE whatever the output size
    src = str(Path(octo_so8.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        p = subprocess.run([sys.executable, "-m", "octo_so8.cli", *argv],
                           stdout=write_end, stderr=subprocess.PIPE,
                           env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (p.returncode, p.stderr) == (141, b"")
