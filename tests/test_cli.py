import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracles
from copulalg import (
    FGMCopula,
    StraightShuffle,
    grid_from_copula,
    shuffle_from_grid,
    write_grid_csv,
)
from copulalg.cli import _build_parser, _quad_config, format_value, main
from copulalg.products import ComputedCopula, QuadratureConfig


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


# ---------------------------------------------------------------------------
# number formatting


def test_format_value_twelve_significant_digits():
    assert format_value(0.0) == "0.000000000000"
    assert format_value(0.3) == "0.300000000000"
    assert format_value(0.5) == "0.500000000000"
    assert format_value(1.0) == "1.00000000000"
    assert format_value(0.0625) == "0.0625000000000"
    assert format_value(123.456) == "123.456000000"
    assert format_value(-0.5) == "-0.500000000000"
    assert format_value(0.13671875) == "0.136718750000"


# ---------------------------------------------------------------------------
# eval


def test_eval_goldens(capsys):
    rc, out, _ = run(capsys, "eval", "M", "0.3", "0.8")
    assert (rc, out) == (0, "0.300000000000\n")

    rc, out, _ = run(capsys, "eval", "fgm(1)", "0.5", "0.5")
    assert (rc, out) == (0, "0.312500000000\n")

    # a one-piece shuffle, M, has an empty cut list
    rc, out, _ = run(capsys, "eval", "shuffle(; 1; 0)", "0.3", "0.5")
    assert (rc, out) == (0, "0.300000000000\n")

    rc, out, _ = run(capsys, "eval",
                     "starc(fgm(1), pw(0.5: fgm(1), fgm(-1)), Pi)",
                     "0.25", "0.5")
    assert (rc, out) == (0, "0.136718750000\n")


def test_eval_product_expression(capsys):
    rc, out, _ = run(capsys, "eval", "star(M, fgm(0.5))", "0.5", "0.5")
    assert (rc, out) == (0, "0.281250000000\n")
    rc, out, _ = run(capsys, "eval", "star(fgm(1), fgm(1))", "0.5", "0.5",
                     "--qtol", "1e-10")
    assert (rc, out) == (0, "0.270833333333\n")


def test_eval_product_over_a_shuffle_product(capsys):
    # the right factor is a shuffle product: the quadrature runs over its
    # exact partials, split at the shuffle's cut, and agrees with the
    # product regrouped around the shuffle
    rc, out, err = run(capsys, "eval", "star(fgm(0.5), star(straight(0.3), fgm(0.5)))",
                       "0.5", "0.5")
    assert (rc, out, err) == (0, "0.248645833333\n", "")
    rc, out, _ = run(capsys, "eval", "star(star(fgm(0.5), straight(0.3)), fgm(0.5))",
                     "0.5", "0.5")
    assert (rc, out) == (0, "0.248645833333\n")
    rc, out, _ = run(capsys, "eval",
                     "starc(fgm(1), const(fgm(0.5)), star(straight(0.3), fgm(0.5)))",
                     "0.5", "0.5")
    assert rc == 0


def test_eval_no_fast_path_flag(capsys):
    rc, out, _ = run(capsys, "eval", "star(M, W)", "0.3", "0.8",
                     "--no-fast-path")
    assert (rc, out) == (0, "0.100000000000\n")


def test_quadrature_flag_defaults_are_the_config_defaults():
    args = _build_parser().parse_args(["eval", "M", "0.5", "0.5"])
    assert _quad_config(args) == QuadratureConfig()


def test_eval_parse_error_exit_1(capsys):
    rc, out, err = run(capsys, "eval", "fgm(0.5", "0.3", "0.8")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")


def test_eval_overflowing_integer_is_a_parse_error(capsys):
    rc, out, err = run(capsys, "eval", "shuffle(0.5; 1e999, 2; 0, 0)",
                       "0.5", "0.5")
    assert (rc, out) == (1, "")
    assert err.startswith("error: column 13: expected an integer")


def test_eval_semantic_error_exit_1(capsys):
    rc, _, err = run(capsys, "eval", "fgm(2)", "0.3", "0.8")
    assert rc == 1
    assert "error:" in err


def test_eval_shuffle_with_a_strip_of_no_width(capsys):
    # the refusal names the piece the user wrote, not cuts of the transpose
    rc, out, err = run(capsys, "eval", "star(fgm(0.5), shuffle(1e-20; 2,1; 0,0))",
                       "0.3", "0.5")
    assert (rc, out) == (1, "")
    assert err.startswith("error: piece 1 of width 1e-20 lands on [1.0, 1.0]")
    # a straight shuffle whose second strip has no width is M
    assert run(capsys, "eval", "straight(1e-17)", "0.3", "0.5") == \
        (0, "0.300000000000\n", "")


def test_eval_runs_one_quadrature(capsys, quad_counter):
    # the point asked for is integrated; the error probe is not run
    rc, out, _ = run(capsys, "eval", "star(fgm(0.5), fgm(-0.5))", "0.3", "0.7",
                     "--no-fast-path")
    assert rc == 0
    # fgm(a) * fgm(b) = fgm(ab / 3)
    assert out == format_value(FGMCopula(-1 / 12).eval(0.3, 0.7)) + "\n"
    assert quad_counter["calls"] == 1


def test_eval_polynomial_product_runs_no_quadrature(capsys, quad_counter):
    rc, out, _ = run(capsys, "eval", "star(fgm(0.5), fgm(-0.5))", "0.3", "0.7")
    assert rc == 0
    assert out == format_value(FGMCopula(-1 / 12).eval(0.3, 0.7)) + "\n"
    assert quad_counter["calls"] == 0


def test_eval_nonconvergence_exit_2(capsys):
    rc, out, err = run(capsys, "eval", "star(fgm(1), fgm(1))", "0.3", "0.7",
                       "--qtol", "1e-300", "--no-fast-path")
    assert rc == 2 and out == ""
    assert err.startswith("error: quadrature did not converge")


def test_infinite_qtol_exit_2(capsys, tmp_path):
    message = "error: adaptive_tol must be finite and positive\n"
    for argv in (("eval", "star(fgm(0.5), fgm(-0.3))", "0.5", "0.5", "--no-fast-path"),
                 ("grid", "M", "4", str(tmp_path / "g.csv")),
                 ("verify", "identity", "--out", str(tmp_path))):
        for qtol in ("inf", "nan"):
            rc, out, err = run(capsys, *argv, "--qtol", qtol)
            assert (rc, out, err) == (2, "", message), argv
    assert list(tmp_path.iterdir()) == []


def test_eval_malformed_grid_allocates_nothing_of_its_order(capsys, tmp_path):
    # 200000 one-entry rows: the order asks for a 298 GiB mass, which
    # is not allocated, since the first row already has the wrong width
    p = tmp_path / "f.csv"
    p.write_text("N=200000\n" + "0.5\n" * 200000)
    rc, out, err = run(capsys, "eval", f'grid("{p}")', "0.5", "0.5")
    assert (rc, out) == (2, "")
    assert err == "error: row 1 has 1 entries, expected 200000\n"


def test_grid_file_that_is_not_ascii_exit_2(capsys, tmp_path):
    # a BOM, an accented letter, and a 0xff byte after the last row
    for name, body in {"bom.csv": b"\xef\xbb\xbfN=2\n0.25,0.25\n0.25,0.25\n",
                       "accent.csv": b"N=2\n0.25,0.25\n0.25,0.2\xc3\xa9\n",
                       "ff.csv": b"N=2\n0.25,0.25\n0.25,0.25\n\xff"}.items():
        p = tmp_path / name
        p.write_bytes(body)
        error = f"not ASCII text: byte 0x{next(b for b in body if b > 127):02x}\n"
        rc, out, err = run(capsys, "eval", f'grid("{p}")', "0.5", "0.5")
        assert (rc, out, err) == (2, "", "error: " + error), name
        rc, out, err = run(capsys, "grid", f'grid("{p}")', "2", str(tmp_path / "out.csv"))
        assert (rc, out, err) == (2, "", "error: " + error), name
        rc, out, err = run(capsys, "verify", "identity", "--family", f'const(grid("{p}"))',
                           "--out", str(tmp_path))
        assert (rc, out, err) == (2, "", "error: bad --family: " + error), name


def test_eval_runtime_errors_exit_2(capsys):
    rc, _, err = run(capsys, "eval", 'grid("no-such.csv")', "0.3", "0.8")
    assert rc == 2
    rc, _, err = run(capsys, "eval", "M", "1.5", "0.5")
    assert rc == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# grid


def test_grid_golden_pi(capsys, tmp_path):
    out_path = tmp_path / "pi.csv"
    rc, _, _ = run(capsys, "grid", "Pi", "2", str(out_path))
    assert rc == 0
    assert out_path.read_text() == "N=2\n0.25,0.25\n0.25,0.25\n"


def test_grid_golden_m(capsys, tmp_path):
    out_path = tmp_path / "m.csv"
    rc, _, _ = run(capsys, "grid", "M", "2", str(out_path))
    assert rc == 0
    assert out_path.read_text() == "N=2\n0.5,0.0\n0.0,0.5\n"


def test_grid_shuffle_marginals(capsys, tmp_path):
    out_path = tmp_path / "s.csv"
    rc, _, _ = run(capsys, "grid", "straight(0.3)", "10", str(out_path))
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "N=10"
    mass = np.asarray([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert mass.shape == (10, 10)
    assert np.abs(mass.sum(axis=0) - 0.1).max() <= 1e-13
    assert np.abs(mass.sum(axis=1) - 0.1).max() <= 1e-13
    ref = grid_from_copula(StraightShuffle(0.3), 10)
    assert np.abs(mass - ref.mass).max() <= 1e-15


def test_grid_round_trip_through_expression(capsys, tmp_path):
    p = tmp_path / "g.csv"
    write_grid_csv(grid_from_copula(StraightShuffle(0.3), 8), p)
    rc, out, _ = run(capsys, "eval", f'grid("{p}")', "0.5", "0.5")
    assert rc == 0
    assert out == format_value(StraightShuffle(0.3).eval(0.5, 0.5)) + "\n"


def test_eval_grid_product_expression(capsys, tmp_path):
    a = grid_from_copula(FGMCopula(0.9), 8)
    coarse = grid_from_copula(StraightShuffle(0.3), 4)
    b = grid_from_copula(shuffle_from_grid(coarse), 8)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_grid_csv(a, pa)
    write_grid_csv(b, pb)
    expr = f'star(grid("{pa}"), grid("{pb}"))'
    for u, v in ((0.3, 0.7), (0.5, 0.375), (1.0, 0.6)):
        rc, out, _ = run(capsys, "eval", expr, str(u), str(v))
        assert rc == 0
        want = oracles.grid_star_grid(a.mass, b.mass, u, v)
        assert float(out) == pytest.approx(want, abs=1e-10)


def test_grid_order_range_exit_2(capsys, tmp_path):
    rc, _, err = run(capsys, "grid", "Pi", "0", str(tmp_path / "x.csv"))
    assert rc == 2
    rc, _, err = run(capsys, "grid", "Pi", "4097", str(tmp_path / "x.csv"))
    assert rc == 2
    assert "4096" in err


def test_grid_nonconvergence_exit_2(capsys, tmp_path):
    out_path = tmp_path / "out.csv"
    rc, out, err = run(capsys, "grid", "star(fgm(1), fgm(1))", "2", str(out_path),
                       "--qtol", "1e-300", "--no-fast-path")
    assert (rc, out) == (2, "")
    assert err.startswith("error: quadrature did not converge")
    assert not out_path.exists()


def test_grid_parse_error_exit_1(capsys, tmp_path):
    rc, _, _ = run(capsys, "grid", "fgm(", "4", str(tmp_path / "x.csv"))
    assert rc == 1


def test_grid_write_failure_exit_3(capsys, tmp_path):
    rc, _, err = run(capsys, "grid", "Pi", "2",
                     str(tmp_path / "missing-dir" / "x.csv"))
    assert rc == 3
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_writes_reports_and_exit_0(capsys, tmp_path):
    rc, out, _ = run(capsys, "verify", "zero-necessary",
                     "--out", str(tmp_path))
    assert rc == 0
    txt = (tmp_path / "verify_zero-necessary.txt").read_text()
    js = (tmp_path / "verify_zero-necessary.json").read_text()
    assert out == txt
    payload = json.loads(js)
    assert all(r["passed"] for r in payload["reports"])
    assert len(payload["reports"]) == 4


def test_verify_json_flag(capsys, tmp_path):
    rc, out, _ = run(capsys, "verify", "fgm", "--theta", "1.0",
                     "--out", str(tmp_path), "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["reports"][0]["name"] == "fgm-counterexample[theta=1]"


def test_verify_identity_with_family_flag(capsys, tmp_path):
    rc, out, _ = run(capsys, "verify", "identity", "--family", "const(Pi)",
                     "--lattice", "9", "--out", str(tmp_path))
    assert rc == 0
    assert out.count("\n") == 1
    assert out.startswith("identity[const(Pi)] | pass")


def test_verify_names_a_closed_form_family_as_it_was_asked_for(capsys, tmp_path):
    # star(W, fgm(0.5)) is evaluated as the transpose of fgm(0.5) * W
    rc, out, _ = run(capsys, "verify", "identity", "--family", "const(star(W, fgm(0.5)))",
                     "--lattice", "5", "--out", str(tmp_path))
    assert rc == 0
    assert out.startswith("identity[const(star(W, fgm(0.5)))] | pass")


def test_verify_family_members_take_the_quadrature_flags(capsys, tmp_path, monkeypatch):
    # a quadrature member of --family is built with the suite's settings
    seen = []
    monkeypatch.setattr("copulalg.cli.run_suite", lambda suite, q, lattice, thetas, families:
                        seen.append((q, families)) or [])
    g = tmp_path / "g.csv"
    g.write_text("N=2\n0.25,0.25\n0.25,0.25\n")
    family = f'const(star(fgm(0.5), grid("{g}")))'
    rc, _, _ = run(capsys, "verify", "identity", "--family", family, "--qtol", "1e-6",
                   "--subintervals", "8", "--out", str(tmp_path))
    want = QuadratureConfig(base_subintervals=8, adaptive_tol=1e-6)
    [(q, [F])] = seen
    assert (rc, q) == (0, want)
    assert isinstance(F.members[0], ComputedCopula) and F.members[0].q == want
    # a bad flag is still a configuration error, before the family is built
    rc, out, err = run(capsys, "verify", "identity", "--family", family, "--qtol", "0",
                       "--out", str(tmp_path))
    assert (rc, out, err) == (2, "", "error: adaptive_tol must be finite and positive\n")
    assert len(seen) == 1


def test_verify_failing_family_exit_1(capsys, tmp_path):
    # const(fgm(1)) does not average to Pi, so the check must fail
    rc, out, _ = run(capsys, "verify", "zero-necessary",
                     "--family", "const(fgm(1))", "--out", str(tmp_path))
    assert rc == 1
    assert "FAIL" in out
    # the report files are still written for inspection
    assert (tmp_path / "verify_zero-necessary.txt").exists()


def test_verify_config_errors_exit_2(capsys, tmp_path):
    rc, _, err = run(capsys, "verify", "fgm", "--lattice", "1",
                     "--out", str(tmp_path))
    assert rc == 2
    rc, _, err = run(capsys, "verify", "fgm", "--family", "const(",
                     "--out", str(tmp_path))
    assert rc == 2
    assert "bad --family" in err
    rc, _, err = run(capsys, "verify", "fgm", "--theta", "0.0",
                     "--out", str(tmp_path))
    assert rc == 2
    rc, _, err = run(capsys, "verify", "fgm",
                     "--out", str(tmp_path / "missing-dir"))
    assert rc == 2
    # a grid member that is missing or malformed, as in eval
    bad = tmp_path / "bad.csv"
    bad.write_text("N=2\n0.5,oops\n0.25,0.25\n")
    for path in (tmp_path / "missing.csv", bad):
        rc, out, err = run(capsys, "verify", "identity", "--family",
                           f'const(grid("{path}"))', "--out", str(tmp_path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: bad --family: ")
        assert "Traceback" not in err


def test_nesting_limit_through_the_cli(capsys, tmp_path):
    # an expression nested deeper than the parser's limit is a parse
    # error with its column, as a bad --family is a configuration error
    from copulalg.dsl import MAX_NESTING
    for depth in (MAX_NESTING, MAX_NESTING + 1, 1500):
        text = "t(" * depth + "M" + ")" * depth
        rc, out, err = run(capsys, "eval", text, "0.3", "0.4")
        family = "const(" + "t(" * (depth - 1) + "Pi" + ")" * depth
        vrc, vout, verr = run(capsys, "verify", "zero-necessary", "--family", family,
                              "--lattice", "9", "--out", str(tmp_path))
        if depth == MAX_NESTING:
            assert (rc, out) == (0, "0.300000000000\n")
            assert vrc == 0 and vout.startswith("zero-necessary[const(Pi)] | pass")
        else:
            column = 2 * MAX_NESTING + 2
            assert (rc, out) == (1, "")
            assert err.startswith(f"error: column {column}: expected at most {MAX_NESTING} ")
            assert (vrc, vout) == (2, "")
            assert verr.startswith(f"error: bad --family: column {column + 4}: ")


# the size flags are capped at 4096 and checked before any quadrature
# rule or lattice is built, so these tests allocate nothing of that size


def _rejects_above_cap(capsys, tmp_path, flag):
    for argv in (("eval", "star(fgm(0.5), fgm(-0.3))", "0.5", "0.5", "--no-fast-path"),
                 ("grid", "M", "4", str(tmp_path / "g.csv")),
                 ("verify", "identity", "--out", str(tmp_path))):
        rc, out, err = run(capsys, *argv, flag, "4097")
        assert (rc, out) == (2, ""), argv
        assert err == f"error: {flag} must be at most 4096, got 4097\n"
    assert list(tmp_path.iterdir()) == []
    # a bad expression still exits 1 first
    rc, _, err = run(capsys, "eval", "fgm(0.5", "0.5", "0.5", flag, "4097")
    assert rc == 1 and err.startswith("error: column 8:")
    # the cap itself is allowed; M takes no quadrature
    rc, out, _ = run(capsys, "eval", "M", "0.5", "0.5", flag, "4096")
    assert (rc, out) == (0, "0.500000000000\n")


def test_nodes_flag_capped(capsys, tmp_path):
    _rejects_above_cap(capsys, tmp_path, "--nodes")


def test_subintervals_flag_capped(capsys, tmp_path):
    _rejects_above_cap(capsys, tmp_path, "--subintervals")


def test_lattice_flag_capped(capsys, tmp_path):
    rc, out, err = run(capsys, "verify", "fgm", "--lattice", "4097",
                       "--out", str(tmp_path))
    assert (rc, out) == (2, "")
    assert err == "error: lattice must be in [2, 4096], got 4097\n"
    assert list(tmp_path.iterdir()) == []
    # the fgm suite checks fixed points, so the cap itself costs nothing
    rc, out, _ = run(capsys, "verify", "fgm", "--theta", "1", "--lattice", "4096",
                     "--out", str(tmp_path))
    assert rc == 0 and out.startswith("fgm-counterexample[theta=1] | pass")


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_rejects_no_fast_path_flag(capsys, tmp_path):
    # verify decides per check whether fast paths apply; the flag is
    # eval and grid only
    with pytest.raises(SystemExit) as exc:
        main(["verify", "fgm", "--no-fast-path", "--out", str(tmp_path)])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "usage:" in err
    assert "--no-fast-path" in err
    assert not (tmp_path / "verify_fgm.txt").exists()


def test_verify_deterministic_outputs(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    rc1, out1, _ = run(capsys, "verify", "fgm", "--theta", "0.5",
                       "--out", str(a))
    rc2, out2, _ = run(capsys, "verify", "fgm", "--theta", "0.5",
                       "--out", str(b))
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert (a / "verify_fgm.txt").read_bytes() == (b / "verify_fgm.txt").read_bytes()
    assert (a / "verify_fgm.json").read_bytes() == (b / "verify_fgm.json").read_bytes()


# ---------------------------------------------------------------------------
# installed entry points


def test_console_script_and_module_runner(tmp_path):
    exe = shutil.which("copulalg")
    assert exe, "console script not installed"
    r = subprocess.run([exe, "eval", "M", "0.3", "0.8"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout == "0.300000000000\n"

    r = subprocess.run(
        [sys.executable, "-m", "copulalg.cli", "eval", "W", "0.9", "0.8"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert r.stdout == "0.700000000000\n"
