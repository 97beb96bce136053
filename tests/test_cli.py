"""Command-line contract: output shapes, exit codes, determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from _frozen import mittag_leffler

import fwstates
from fwstates import cli, coherent
from fwstates.cli import main

NU_VACUUM_AT_1 = 2.2665345076998488351


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("params")

    def put(name, obj):
        p = d / name
        p.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        return str(p)

    out = {
        "vacuum": put("vacuum.json", {"upper": [], "lower": []}),
        "shift": put(
            "shift.json", {"upper": [[1.0, 0.0, 1.0]], "lower": [[2.0, 0.0, 1.0]]}
        ),
        "shift_k8": put(
            "shift_k8.json",
            {"upper": [[1.0, 0.0, 1.0]], "lower": [[2.0, 0.0, 1.0]], "K": 8},
        ),
        "exp": put("exp.json", {"upper": [[1.0, 0.0, 1.0]], "lower": [[1.0, 0.0, 1.0]]}),
        "disk": put(
            "disk.json", {"upper": [[1.0, 0.0, 2.0]], "lower": [[1.5, 0.0, 1.0]]}
        ),
        "ml": put("ml.json", {"upper": [[1.0, 0.0, 1.0]], "lower": [[1.5, 0.0, 0.7]]}),
        "bc_entire": put(
            "bc_entire.json",
            {
                "upper": [
                    {
                        "value": {"z1": [1.5, 0.0], "z2": [1.5, 0.0]},
                        "weight": {"c1": 1.0, "c2": 1.0},
                    }
                ],
                "lower": [
                    {
                        "value": {"z1": [1.0, 0.0], "z2": [1.0, 0.0]},
                        "weight": {"c1": 1.0, "c2": 1.0},
                    }
                ],
            },
        ),
        "bc_ball": put(
            "bc_ball.json",
            {
                "upper": [
                    {
                        "value": {"z1": [1.5, 0.0], "z2": [1.5, 0.0]},
                        "weight": {"c1": 2.0, "c2": 2.0},
                    }
                ],
                "lower": [
                    {
                        "value": {"z1": [1.0, 0.0], "z2": [1.0, 0.0]},
                        "weight": {"c1": 1.0, "c2": 1.0},
                    }
                ],
            },
        ),
        "bad_syntax": str(d / "bad_syntax.json"),
        "bad_schema": put("bad_schema.json", {"upper": [[1.0, 0.0]], "lower": []}),
    }
    (d / "bad_syntax.json").write_text('{"upper": [\n  nope\n', encoding="utf-8")
    return out


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_fw_eval_empty_params_is_exp(files, capsys):
    code, out, _ = run_cli(capsys, "fw", "eval", "--params", files["vacuum"], "--z", "1")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"value", "terms", "tail_bound"}
    assert obj["value"][0] == pytest.approx(math.e, rel=1e-13)
    assert obj["value"][1] == pytest.approx(0.0, abs=1e-16)


def test_fw_eval_mittag_leffler(files, capsys):
    code, out, _ = run_cli(capsys, "fw", "eval", "--params", files["ml"], "--z", "1")
    assert code == 0
    ref = mittag_leffler(0.7, 1.5, 1.0).real
    assert json.loads(out)["value"][0] == pytest.approx(ref, rel=1e-12)


def test_fw_eval_outside_radius_exit2(files, capsys):
    code, out, err = run_cli(
        capsys, "fw", "eval", "--params", files["disk"], "--z", "0.5"
    )
    assert code == 2
    assert out == ""
    assert "domain error" in err


def test_fw_eval_overflow_exit3(files, capsys):
    code, out, err = run_cli(
        capsys, "fw", "eval", "--params", files["vacuum"], "--z", "1000"
    )
    assert code == 3
    assert out == ""
    assert "numeric failure" in err


def test_fw_eval_sum_overflow_exit3(files, capsys):
    # every term of the exp series at z = 710 fits in a float; their sum does not
    code, out, err = run_cli(capsys, "fw", "eval", "--params", files["exp"], "--z", "710")
    assert (code, out) == (3, "")
    assert "numeric failure" in err


@pytest.mark.parametrize(
    "argv, text",
    [
        # each ran 10,000 terms and exited 3 with "no convergence", or
        # overflowed (exit 3)
        (("fw", "eval", "--params", "vacuum", "--z", "nan"), "z must be finite, got (nan+0j)"),
        (("fw", "eval", "--params", "disk", "--z", "inf"), "z must be finite, got (inf+0j)"),
        (("cs", "coeffs", "--params", "vacuum", "--z", "1,nan"), "z must be finite, got (1+nanj)"),
        (("cs", "overlap", "--params", "vacuum", "--z", "nan", "--zp", "1"),
         "z must be finite, got (nan+0j)"),
        (("cs", "overlap", "--params", "shift", "--z", "1", "--zp", "0,inf"),
         "zp must be finite, got infj"),
        (("cs", "overlap", "--params", "vacuum", "--z", "1e200", "--zp", "1e200"),
         "conj(z) zp must be finite, got (inf+0j)"),
        # walked the nu range ladder and exited 3, or printed NaN rows with exit 0
        (("nu", "eval", "--model", "shift", "--zeta", "0.5,inf"), "zeta must be finite, got inf"),
        (("bcfw", "region", "--params", "bc_ball", "--r1-max", "nan", "--r2-max", "0.5"),
         "grid needs finite nonnegative extents and >= 2 points per axis"),
        (("bcfw", "region", "--params", "bc_ball", "--r1-max", "0.5", "--r2-max", "inf"),
         "grid needs finite nonnegative extents and >= 2 points per axis"),
    ],
)
def test_non_finite_points_exit1(files, capsys, argv, text):
    argv = [files.get(a, a) for a in argv]  # model names to their files
    assert run_cli(capsys, *argv) == (1, "", f"error: {text}\n")


def test_fw_radius_output(files, capsys):
    code, out, _ = run_cli(capsys, "fw", "radius", "--params", files["disk"])
    assert code == 0
    obj = json.loads(out)
    assert obj["radius"] == 0.25
    assert obj["margin"] == 0.0
    code, out, _ = run_cli(capsys, "fw", "radius", "--params", files["vacuum"])
    assert json.loads(out)["radius"] == "inf"


def test_bad_json_syntax_exit1(files, capsys):
    code, out, err = run_cli(capsys, "fw", "radius", "--params", files["bad_syntax"])
    assert code == 1
    assert out == ""
    assert "line 2" in err and "column" in err


def test_bad_schema_exit1(files, capsys):
    code, out, err = run_cli(capsys, "fw", "radius", "--params", files["bad_schema"])
    assert code == 1
    assert "$.upper[0]" in err


def test_usage_errors_exit1(files, capsys):
    assert run_cli(capsys, "fw", "eval", "--params", files["vacuum"])[0] == 1
    assert run_cli(capsys, "fw", "bogus")[0] == 1
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "selftest", "--only", "bogus")[0] == 1


def test_bcfw_classify_output(files, capsys):
    code, out, _ = run_cli(capsys, "bcfw", "classify", "--params", files["bc_entire"])
    assert code == 0
    obj = json.loads(out)
    assert obj["domain"] == "EntireBC"
    assert obj["v_radius"] == ["inf", "inf"]
    code, out, _ = run_cli(capsys, "bcfw", "classify", "--params", files["bc_ball"])
    obj = json.loads(out)
    assert obj["domain"] == "HyperbolicBall"
    assert obj["v_radius"] == [0.25, 0.25]
    assert isinstance(obj["boundary_abs_convergent"], bool)


def test_bcfw_eval_output(files, capsys):
    code, out, _ = run_cli(
        capsys,
        "bcfw",
        "eval",
        "--params",
        files["bc_entire"],
        "--z",
        "0.5,0,0.25,0",
    )
    assert code == 0
    value = json.loads(out)["value"]
    assert set(value) == {"z1", "z2"}
    code, _, _ = run_cli(
        capsys, "bcfw", "eval", "--params", files["bc_ball"], "--z", "0.5,0,0.1,0"
    )
    assert code == 2


@pytest.mark.parametrize("short, full", [("0.5,0.1", "0.5,0.1,0.5,0.1"), ("0.5", "0.5,0,0.5,0")])
def test_bcfw_eval_scalar_point_takes_both_components(files, capsys, short, full):
    # re,im and re name the scalar embedding, the same number in both components
    argv = ("bcfw", "eval", "--params", files["bc_entire"], "--z")
    code, out, err = run_cli(capsys, *argv, short)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, *argv, full)


def test_bcfw_region_csv(files, capsys):
    code, out, _ = run_cli(
        capsys,
        "bcfw",
        "region",
        "--params",
        files["bc_ball"],
        "--r1-max",
        "0.5",
        "--r2-max",
        "0.5",
        "--n1",
        "5",
        "--n2",
        "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z1_abs,z2_abs,inside"
    marks = {}
    for line in lines[1:]:
        r1, r2, inside = line.split(",")
        marks[(float(r1), float(r2))] = inside
    assert marks[(0.125, 0.125)] == "true"
    assert marks[(0.375, 0.125)] == "false"
    code, out, _ = run_cli(
        capsys,
        "bcfw",
        "region",
        "--params",
        files["bc_entire"],
        "--r1-max",
        "2.0",
        "--r2-max",
        "2.0",
        "--n1",
        "4",
        "--n2",
        "4",
    )
    assert all(line.endswith("true") for line in out.splitlines()[1:])


def test_cs_coeffs_output_and_k(files, capsys):
    code, out, _ = run_cli(
        capsys, "cs", "coeffs", "--params", files["shift"], "--z", "0.5", "--K", "16"
    )
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"z", "coeffs", "tail"}
    assert obj["z"] == [0.5, 0.0]
    assert len(obj["coeffs"]) == 17
    assert obj["tail"] <= 1e-12
    # a K entry in the file wins over the flag default
    code, out, _ = run_cli(
        capsys, "cs", "coeffs", "--params", files["shift_k8"], "--z", "0.5"
    )
    assert len(json.loads(out)["coeffs"]) == 9


def test_cs_coeffs_at_a_z_whose_square_underflows(files, capsys):
    # |z|^2 = 1e-400 underflows to 0.0, and c_1 printed as 0.0 although
    # c_1 = z e^{-|z|^2/2} on the vacuum model is the normal float 1e-200
    code, out, err = run_cli(capsys, "cs", "coeffs", "--params", files["vacuum"], "--z", "1e-200", "--K", "2")
    assert (code, err) == (0, "")
    c0, c1, c2 = json.loads(out)["coeffs"]
    assert c0 == [pytest.approx(1.0, rel=1e-15), 0.0] and c2 == [0.0, 0.0]
    assert c1 == [pytest.approx(1e-200, rel=1e-10), 0.0]


def _shift_with_k(tmp_path, K):
    path = tmp_path / "shift_k.json"
    path.write_text(
        json.dumps({"upper": [[1.0, 0.0, 1.0]], "lower": [[2.0, 0.0, 1.0]], "K": K}),
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("argv", [
    ("cs", "coeffs", "--z", "0"),
    ("cs", "coeffs", "--z", "0.5"),
    ("cs", "verify", "--random", "2", "--seed", "7"),
])
def test_integral_float_k_acts_as_its_int(tmp_path, capsys, argv):
    # JSON Schema counts 2.0 as an integer, so the file passes its check
    def run(K):
        return run_cli(capsys, *argv[:2], "--params", _shift_with_k(tmp_path, K), *argv[2:])

    as_float = run(2.0)
    assert as_float[0] == 0
    assert as_float == run(2)


@pytest.mark.parametrize("K", [10**15, coherent.K_MAX + 1])
def test_k_above_k_max_exit1(tmp_path, capsys, K):
    code, out, err = run_cli(
        capsys, "cs", "coeffs", "--params", _shift_with_k(tmp_path, K), "--z", "0.5"
    )
    assert (code, out) == (1, "")
    assert err == f"error: truncation K must be <= 65536, got {K}\n"


def test_cs_overlap_csv(files, capsys):
    code, out, _ = run_cli(
        capsys,
        "cs",
        "overlap",
        "--params",
        files["shift"],
        "--z",
        "0.8,0.1",
        "--zp",
        "0.8,0.1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z_re,z_im,zp_re,zp_im,re,im,abs"
    cells = [float(c) for c in lines[1].split(",")]
    assert cells[4] == pytest.approx(1.0, abs=1e-12)
    assert cells[6] <= 1.0 + 1e-10


def test_cs_verify_pass_and_deterministic(files, capsys):
    args = ("cs", "verify", "--params", files["vacuum"], "--random", "2", "--seed", "7")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out1.splitlines()
    assert lines[0] == "model,check,worst,tol,pass"
    assert len(lines) == 1 + 4 * 3  # file model + 2 random, 4 checks each
    assert all(line.endswith(",pass") for line in lines[1:])
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_measure_check_table(files, capsys):
    code, out, _ = run_cli(
        capsys, "measure", "check", "--model", files["vacuum"], "--k", "0..6"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,lhs,rhs,rel_err,pass"
    assert len(lines) == 8
    for line in lines[1:]:
        k, lhs, rhs, rel_err, flag = line.split(",")
        assert float(rhs) == pytest.approx(float(math.factorial(int(k))), rel=1e-12)
        assert float(lhs) == pytest.approx(float(rhs), rel=1e-6)
        assert float(rel_err) <= 1e-6
        assert flag == "pass"


def test_measure_check_fail_exit4(files, capsys):
    code, out, _ = run_cli(
        capsys,
        "measure",
        "check",
        "--model",
        files["vacuum"],
        "--k",
        "2",
        "--tol",
        "1e-20",
    )
    assert code == 4
    assert out.splitlines()[1].endswith(",fail")


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_measure_check_refuses_bad_tol(files, capsys, monkeypatch, tol):
    # refused before any quadrature runs; it printed every row as fail, exit 4
    monkeypatch.setattr(cli, "moment_check", lambda *a: pytest.fail("quadrature ran"))
    code, out, err = run_cli(
        capsys, "measure", "check", "--model", files["vacuum"], "--k", "0,1", "--tol", tol
    )
    assert (code, out, err) == (1, "", "error: tol must be > 0\n")


def test_measure_check_with_a_zero_of_the_kernel_on_the_line(tmp_path, capsys):
    # upper (0.25, 0.5) puts 1/Gamma(-0.25 + s/2) = 0 at the abscissa 0.5;
    # this exited 3 with "kernel decays too slowly"
    path = tmp_path / "pole.json"
    path.write_text('{"upper": [[0.25, 0.0, 0.5]], "lower": [[1.0, 0.0, 1.0]]}\n')
    code, out, err = run_cli(capsys, "measure", "check", "--model", str(path), "--k", "0..2")
    assert (code, err) == (0, "")
    assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == ["pass"] * 3


def test_nu_eval_single(files, capsys):
    code, out, _ = run_cli(
        capsys, "nu", "eval", "--model", files["vacuum"], "--zeta", "1"
    )
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"value", "err_est", "scheme"}
    assert obj["scheme"] == "gk"
    assert obj["value"] == pytest.approx(NU_VACUUM_AT_1, rel=1e-9)
    code, out, _ = run_cli(
        capsys, "nu", "eval", "--model", files["vacuum"], "--zeta", "1", "--scheme", "ts"
    )
    assert json.loads(out)["value"] == pytest.approx(NU_VACUUM_AT_1, rel=1e-8)


# nu(800) on the vacuum model: the range search refuses it before either
# scheme integrates
NU_OVERFLOW_MESSAGE = "nu(zeta) is past the float range (log-integrand peak 711.3)"
# nu(711): every integrand value is finite, their sum is not; the scheme's
# one run, on the scaled integrand, finds it past the float range
NU_IN_GAP_MESSAGE = "nu(zeta) is past the float range (log-integrand peak 706.797)"


@pytest.mark.parametrize("scheme, out", [
    ("gk", '{"err_est": 2.1760950339359204e+297, "scheme": "gk", "value": 4.984716099444752e+307}\n'),
    ("ts", '{"err_est": 1.5037758604204823e+297, "scheme": "ts", "value": 4.984716099444482e+307}\n'),
])
def test_nu_eval_least_abs_tol_near_dbl_max(files, capsys, scheme, out):
    # nu(708.5) runs on the integrand times 2^-64, where --abs-tol 5e-324
    # times 2^-64 underflows to 0, which QuadConfig refuses: it takes the
    # least subnormal and prints what the unscaled tolerance gave
    argv = ("nu", "eval", "--model", files["vacuum"], "--zeta", "708.5", "--scheme", scheme, "--abs-tol", "5e-324")
    assert run_cli(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("scheme", ["gk", "ts"])
def test_nu_eval_overflow_is_numeric_failure(files, scheme):
    # nu(800) on the vacuum model is about e^800, nu(711) about e^711, both
    # past float64.  Run as a separate process, so a numpy RuntimeWarning
    # would reach stderr.
    for zeta, message in (("800", NU_OVERFLOW_MESSAGE), ("711", NU_IN_GAP_MESSAGE)):
        args = ("nu", "eval", "--model", files["vacuum"], "--zeta", zeta, "--scheme", scheme)
        proc = subprocess.run(
            [sys.executable, "-m", "fwstates.cli", *args],
            capture_output=True, env=_checkout_env(), timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert proc.stderr.decode() == f"numeric failure: {message}\n"


def test_nu_eval_ts_product_overflow_is_numeric_failure(tmp_path):
    # every integrand value is finite, but a tanh-sinh weight times one of
    # them overflows, and nu(40), about 1.4e309, is past the float range;
    # only the OverflowError may reach stderr
    path = tmp_path / "ts_overflow.json"
    path.write_text(
        json.dumps(
            {
                "upper": [[0.603, 0.0, 1.104], [1.594, 0.0, 1.095]],
                "lower": [[2.08, 0.0, 0.807], [2.896, 0.0, 0.966]],
            }
        ),
        encoding="utf-8",
    )
    args = ("nu", "eval", "--model", str(path), "--zeta", "40", "--scheme", "ts")
    proc = subprocess.run(
        [sys.executable, "-m", "fwstates.cli", *args],
        capture_output=True, env=_checkout_env(), timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stdout == b""
    message = "nu(zeta) is past the float range (log-integrand peak 707.669)"
    assert proc.stderr.decode() == f"numeric failure: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("fw", "eval", "--params", "vacuum", "--z", "712"),
        ("cs", "overlap", "--params", "vacuum", "--z", "26.7", "--zp", "26.7"),
    ],
)
def test_sum_past_the_float_range_is_numeric_failure(files, argv):
    # every term lies inside the float range but the running sum leaves
    # it; these printed Infinity and nan with exit 0.  Run as a separate
    # process, so a numpy RuntimeWarning would reach stderr.
    args = [files.get(a, a) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "fwstates.cli", *args],
        capture_output=True, env=_checkout_env(), timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        "numeric failure: series term exceeds the floating-point range; value not representable\n"
    )


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # about 1.3 MB of CSV, far past a pipe's buffer: the reader leaves
        # after one line, as `| head -1` does
        (("bcfw", "region", "--params", "bc_ball", "--r1-max", "0.5", "--r2-max", "0.5",
          "--n1", "200", "--n2", "200"), 1),
        # a few hundred bytes, which a pipe would buffer: the reader leaves first
        (("cs", "verify", "--params", "shift", "--random", "3", "--seed", "7"), 0),
        (("fw", "radius", "--params", "disk"), 0),
    ],
)
def test_closed_stdout_pipe_exits_without_traceback(files, argv, lines_read):
    # each ended in a BrokenPipeError traceback with exit 1, the code of a bad input
    read_end, write_end = os.pipe()
    reader = os.fdopen(read_end, "rb")
    if not lines_read:
        reader.close()  # before the command starts, so no write can land
    proc = subprocess.Popen(
        [sys.executable, "-m", "fwstates.cli", *(files.get(a, a) for a in argv)],
        stdout=write_end, stderr=subprocess.PIPE, env=_checkout_env(),
    )
    os.close(write_end)
    for _ in range(lines_read):
        assert reader.readline()
    reader.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_fw_eval_sum_near_the_float_range_keeps_its_value(files, capsys):
    code, out, err = run_cli(capsys, "fw", "eval", "--params", files["vacuum"], "--z", "700")
    assert code == 0 and err == ""
    assert out == (
        '{"tail_bound": 1.2831761564345894e+291, "terms": 910, '
        '"value": [1.0142320547348437e+304, 0.0]}\n'
    )


def test_nu_eval_grid_monotone(files, capsys):
    code, out, _ = run_cli(
        capsys, "nu", "eval", "--model", files["shift"], "--zeta", "0.5,1,2"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["zeta"] for r in rows] == [0.5, 1.0, 2.0]
    values = [r["value"] for r in rows]
    assert values[0] < values[1] < values[2]
    code, out, _ = run_cli(
        capsys, "measure", "check", "--model", files["vacuum"], "--k", "0..4"
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0", "1", "2", "3", "4"]


def test_repeat_runs_byte_identical(files, capsys):
    for args in (
        ("fw", "eval", "--params", files["ml"], "--z", "0.7,0.2"),
        ("bcfw", "region", "--params", files["bc_ball"], "--r1-max", "0.4",
         "--r2-max", "0.4", "--n1", "6", "--n2", "3"),
        ("cs", "coeffs", "--params", files["shift"], "--z", "1.1,-0.3"),
    ):
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second and first.endswith("\n")


def test_one_parser_serves_runs_around_a_usage_error(files, capsys):
    from fwstates.cli import _parser, build_parser

    good = ("cs", "overlap", "--params", files["shift"], "--z", "0.5", "--zp", "0.2,0.1")
    bad = ("cs", "overlap", "--params", files["shift"], "--z", "0.5")
    first = run_cli(capsys, *good)
    code, out, err = run_cli(capsys, *bad)
    assert first[0] == 0 and run_cli(capsys, *good) == first
    # the usage error reads as it does from a freshly built parser
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(list(bad))
    assert (code, out, err) == (info.value.code, "", capsys.readouterr().err)
    assert "the following arguments are required: --zp" in err
    assert _parser() is _parser()
    for argv in (["--help"], ["cs", "overlap", "--help"]):
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv)
    assert _parser().format_help() == build_parser().format_help()


def test_print_manifest_on_stderr(files, capsys):
    base = ("fw", "radius", "--params", files["disk"])
    _, plain_out, plain_err = run_cli(capsys, *base)
    code, out, err = run_cli(capsys, "--print-manifest", *base)
    assert code == 0
    assert out == plain_out
    manifest = json.loads(err)
    assert manifest["command"] == "fw radius"
    assert manifest["params_file"] == files["disk"]
    assert manifest["output_format"] == "json"


@pytest.mark.parametrize(
    "argv, command, tolerances",
    [
        (
            ("nu", "eval", "--model", "shift", "--zeta", "2.5", "--rel-tol", "1e-9",
             "--abs-tol", "1e-11"),
            "nu eval",
            '{"abs_tol": 1e-11, "rel_tol": 1e-09}',
        ),
        (
            ("cs", "coeffs", "--params", "shift", "--z", "0.7,0.2", "--tail", "1e-10"),
            "cs coeffs",
            '{"tail": 1e-10}',
        ),
    ],
)
def test_print_manifest_bytes(files, capsys, argv, command, tolerances):
    argv = tuple(files.get(a, a) for a in argv)
    code, _, err = run_cli(capsys, "--print-manifest", *argv)
    assert code == 0
    assert err == (
        f'{{"command": "{command}", "output_format": "json", "params_file": '
        f'{json.dumps(files["shift"])}, "seed": null, "tolerances": {tolerances}}}\n'
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fw", "eval", "--params", "vacuum", "--z", "1,x"), "cannot parse '1,x' as re[,im]"),
        (("fw", "eval", "--params", "vacuum", "--z", ""), "cannot parse '' as re[,im]"),
        (
            ("fw", "eval", "--params", "vacuum", "--z", "1,2,3"),
            "expected 1 or 2 comma-separated numbers, got 3",
        ),
        (
            ("bcfw", "eval", "--params", "bc_entire", "--z", "q,1"),
            "cannot parse 'q,1' as a bicomplex point",
        ),
        (
            ("bcfw", "eval", "--params", "bc_entire", "--z", "1,2,3"),
            "bicomplex point takes z1_re,z1_im,z2_re,z2_im (idempotent parts), re,im, or re",
        ),
        (
            ("bcfw", "eval", "--params", "bc_entire", "--z", "1,2,3,4,5"),
            "bicomplex point takes z1_re,z1_im,z2_re,z2_im (idempotent parts), re,im, or re",
        ),
        (("measure", "check", "--model", "vacuum", "--k", "5..3"), "empty order range '5..3'"),
        (("measure", "check", "--model", "vacuum", "--k", "a..b"), "cannot parse 'a..b' as moment orders"),
    ],
)
def test_bad_point_error_text(files, capsys, argv, message):
    argv = tuple(files.get(a, a) for a in argv)
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, attached",
    [
        (("fw", "eval", "--params", "exp", "--z", "-10,0.5"), ("fw", "eval", "--params", "exp", "--z=-10,0.5")),
        (
            ("cs", "overlap", "--params", "shift", "--z", "-0.5,0.2", "--zp", "-0.3,0.1"),
            ("cs", "overlap", "--params", "shift", "--z=-0.5,0.2", "--zp=-0.3,0.1"),
        ),
    ],
)
def test_a_point_with_a_negative_real_part_is_a_value(files, capsys, argv, attached):
    # argparse took "-10,0.5" after --z for an option: "expected one argument", exit 1
    got = run_cli(capsys, *(files.get(a, a) for a in argv))
    assert got[0] == 0 and got[1] and got[2] == ""
    assert got == run_cli(capsys, *(files.get(a, a) for a in attached))


@pytest.mark.parametrize(
    "orders, message",
    [
        ("0..1000000", "moment order k must lie in 0..8"),
        ("-1000000..3", "moment order k must be >= 0"),
        ("0,2,9", "moment order k must lie in 0..8"),
    ],
)
def test_measure_check_refuses_orders_before_any_check(files, capsys, monkeypatch, orders, message):
    """An order outside 0..8 is refused before any check runs, a range's by
    its two ends: `--k 0..30000000` built the whole order list and ran the
    nine in-range checks first, peaking at 1.18 GB RSS before exit code 1."""
    monkeypatch.setattr(cli, "moment_check", lambda model, k: pytest.fail(f"order {k} was checked"))
    tracemalloc.start()
    try:
        got = run_cli(capsys, "measure", "check", "--model", files["vacuum"], f"--k={orders}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (1, "", f"error: {message}\n")
    assert peak < 1 << 20


def test_selftest_subset(capsys):
    code, out, _ = run_cli(
        capsys, "selftest", "--only", "radius-law", "--only", "nine-case-classifier"
    )
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("[PASS]")) == 2
    assert lines[-1].startswith("2/2 criteria passed")


def _console_script_command():
    """Command line and environment that run the declared `fwstates` script."""
    exe = shutil.which("fwstates")
    if exe is not None:
        return [exe], None
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fwstates"]
    module, _, attr = target.partition(":")
    # the same wrapper pip writes for a console_scripts entry
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return [sys.executable, "-c", wrapper], _checkout_env()


def _checkout_env():
    """Environment that imports this checkout's package whatever PYTHONPATH pytest started with."""
    src = str(Path(fwstates.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_console_script_installed(files, capsys):
    """The declared console-script entry point works as a separate process.

    With `fwstates` on PATH (an installed environment) that executable runs;
    otherwise the `[project.scripts]` entry in pyproject.toml is run through
    the wrapper pip would generate for it.  Either way the check is on the
    declared entry point -- argv from sys.argv, real stdout, exit codes via
    sys.exit -- not on whether the package is installed.
    """
    cmd, env = _console_script_command()

    def run(*argv):
        return subprocess.run(
            [*cmd, *argv], capture_output=True, env=env, timeout=120
        )

    args = ("fw", "radius", "--params", files["disk"])
    proc = run(*args)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["radius"] == 0.25
    _, in_process, _ = run_cli(capsys, *args)
    assert proc.stdout == in_process.encode()  # bytes: no newline translation

    proc = run("fw", "eval", "--params", files["disk"], "--z", "0.5")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"domain error" in proc.stderr


def _fresh_python(code, *argv):
    """stdout of `code` run in a new interpreter on this checkout's package."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, env=_checkout_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


# prints the scipy and jsonschema modules loaded so far
_LOADED_DEPS = (
    "import sys; print(sorted(m for m in sys.modules"
    " if m.partition('.')[0] in ('scipy', 'jsonschema')))"
)


def test_cli_import_loads_no_scipy_or_jsonschema():
    # the package runs on numpy alone: its quadratures and oracles need no
    # scipy, and the parameter files are checked without jsonschema
    assert _fresh_python(f"import fwstates.cli; {_LOADED_DEPS}") == b"[]\n"


@pytest.mark.parametrize("argv", [
    ("fw", "eval", "--z", "0.5"),
    ("cs", "coeffs", "--z", "0.5"),
    ("bcfw", "classify"),
])
@pytest.mark.parametrize("valid", [True, False])
def test_file_commands_load_no_scipy_or_jsonschema(files, argv, valid):
    model = "bc_entire" if argv[0] == "bcfw" else "shift"
    path = files[model if valid else "bad_schema"]
    code = (
        "import sys\nfrom fwstates.cli import main\n"
        "print('exit', main(sys.argv[1:]))\n"
        f"{_LOADED_DEPS}\n"
    )
    out = _fresh_python(code, *argv[:2], "--params", path, *argv[2:]).decode()
    assert out.endswith(f"exit {0 if valid else 1}\n[]\n")


# reprs frozen at d5642ce, which imported scipy and jsonschema at module top
COLD_PATHS = {
    "oracle_bessel_j": ("oracle_bessel_j(0.5, 2.0)", "0.5130161365618278"),
    "nu_gk": ('nu(SHIFT, 2.5, scheme="gk")', "4.014732999111425"),
    "overlap_tilde": (
        "overlap_tilde(SHIFT, 1.1 + 0.3j, 0.7 - 0.2j)",
        "(0.8027890089308615-0.36827726527188526j)",
    ),
    "moment_check": (
        "moment_check(CoherentModel(FWParams(upper=[], lower=[])), 2)",
        "MomentResult(lhs=2.0000000000000013, rhs=1.9999999999999993,"
        " rel_err=9.992007221626413e-16)",
    ),
}


@pytest.mark.parametrize("name", COLD_PATHS)
def test_cold_path_output_unchanged(name):
    """The first call returns the same bits as when scipy and jsonschema were
    imported at module top, and loads neither."""
    call, expected = COLD_PATHS[name]
    code = (
        "from fwstates import CoherentModel, FWParams, moment_check, nu,"
        " oracle_bessel_j, overlap_tilde\n"
        "SHIFT = CoherentModel(FWParams(upper=[(1.0, 1.0)], lower=[(2.0, 1.0)]))\n"
        f"{_LOADED_DEPS}\n"
        f"print(repr({call}))\n"
        f"{_LOADED_DEPS}\n"
    )
    assert _fresh_python(code).decode() == f"[]\n{expected}\n[]\n"


# Gauss-Kronrod runs in the package, and so does selftest's norm check
@pytest.mark.parametrize("argv", [
    ("nu", "eval", "--model", "shift", "--zeta", "0.5,2.5,9", "--scheme", "gk"),
    ("measure", "check", "--model", "shift", "--k", "0..6"),
    ("selftest", "--only", "nu-function", "--only", "ml-bessel-conformance"),
])
def test_gauss_kronrod_commands_load_no_scipy_integrate(files, argv):
    argv = [files.get(a, a) for a in argv]
    code = f"import sys\nfrom fwstates.cli import main\nassert main(sys.argv[1:]) == 0\n{_LOADED_DEPS}\n"
    assert _fresh_python(code, *argv).decode().endswith("\n[]\n")


def test_cold_path_schema_error_unchanged(files):
    code = (
        "import sys\n"
        "from fwstates import ValidationError, load_fw_params\n"
        f"{_LOADED_DEPS}\n"
        "try:\n"
        "    load_fw_params(sys.argv[1])\n"
        "except ValidationError as exc:\n"
        "    print(exc)\n"
    )
    path = files["bad_schema"]
    out = _fresh_python(code, path)
    assert out == f"[]\n{path}: at $.upper[0]: [1.0, 0.0] is too short\n".encode()
