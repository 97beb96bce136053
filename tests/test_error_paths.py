"""Refusals: malformed arguments, eval_h's floor refusal, and the error
branches no other test reaches.

Every malformed argument is a ValidationError (exit 1 on the command
line), every numeric failure its own package error; none is a bare
Python or numpy error.  Some guards cannot be reached from real inputs
in a test's time (a quadrature range that never stops widening, a
scaled rerun that overflows again); those tests force the failure with
a monkeypatch and check the refusal's class and words.
"""

import io
import json
import math
import os
import re
import runpy
import sys

import numpy as np
import pytest

from fwstates import acceptance, cli, continuum, hfunction
from fwstates.bicomplex import Hyperbolic
from fwstates.coherent import (
    BCCoherentModel,
    CoherentModel,
    StateVector,
    annihilation_residual,
    f_factor,
    log_rho,
    make_state,
    normalization,
    rho,
)
from fwstates.continuum import QuadConfig
from fwstates.errors import (
    ContourFailure,
    MaxTermsExceeded,
    PoleError,
    QuadratureFailure,
    TruncationError,
    ValidationError,
)
from fwstates.foxwright import FWParams, as_pfq, evaluate, oracle_bessel_j, oracle_pfq
from fwstates.foxwright_bc import BCFWParams, Domain, GridSpec, region_sample
from fwstates.foxwright_bc import evaluate as evaluate_bc
from fwstates.gammafn import log_gamma, log_gamma_ratio, pochhammer
from fwstates.hfunction import ContourConfig, HWeightParams, eval_h, weight
from fwstates.schemas import load_fw_params

_UNIT = CoherentModel(FWParams([(1.0, 1.0)], [(2.0, 1.0)]))
_VACUUM = CoherentModel(FWParams())
_BC = BCFWParams.from_components(_UNIT.params, _UNIT.params)


# -- malformed arguments ---------------------------------------------------------


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.0, 1.0, 2.5, 3), "^n1 must be a whole number, got 2.5$"),
        ((1.0, 1.0, 3, 3.5), "^n2 must be a whole number, got 3.5$"),
        ((1.0, 1.0, "3", 3), "^n1 must be a real number, got '3'$"),
        (("1", 1.0), "^r1_max must be a real number, got '1'$"),
        ((1.0, 1.0, 1, 3), "^grid needs finite nonnegative extents and >= 2 points per axis$"),
    ],
)
def test_grid_spec_refuses_malformed_counts(args, message):
    # 2.5 was taken, and region_sample then failed in range()
    with pytest.raises(ValidationError, match=message):
        GridSpec(*args)


def test_grid_spec_takes_an_integral_float_as_its_int():
    assert GridSpec(1.0, 1.0, 3.0, 2).n1 == 3
    assert region_sample(_BC, GridSpec(1.0, 1.0, 3.0, 2)) == region_sample(_BC, GridSpec(1.0, 1.0, 3, 2))


@pytest.mark.parametrize("tol", ["a", 1j, None, np.complex128(1e-14)])
def test_evaluate_refuses_a_tol_that_is_not_real(tol):
    with pytest.raises(ValidationError, match="^tol must be a real number, got "):
        evaluate(_UNIT.params, 0.5, tol=tol)
    with pytest.raises(ValidationError, match="^component 1: tol must be a real number, got "):
        evaluate_bc(_BC, 0.5, tol=tol)


@pytest.mark.parametrize("kwargs", [{"rel_tol": "a"}, {"abs_tol": 1j}, {"rel_tol": None}])
def test_quad_config_refuses_a_tolerance_that_is_not_real(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(ValidationError, match=f"^{name} must be a real number, got "):
        QuadConfig(**kwargs)


@pytest.mark.parametrize("tail", ["a", 1j, None])
def test_make_state_refuses_a_tail_target_that_is_not_real(tail):
    with pytest.raises(ValidationError, match="^tail_target must be a real number, got "):
        make_state(_UNIT, 0.5, tail_target=tail)


@pytest.mark.parametrize("fn", [log_rho, rho])
@pytest.mark.parametrize("k", [1j, "2", None])
def test_log_rho_refuses_a_k_that_is_not_real(fn, k):
    with pytest.raises(ValidationError, match=f"^k must be a real number, got {k!r}$"):
        fn(_UNIT, k)


@pytest.mark.parametrize("call", [lambda x: eval_h(HWeightParams.from_model(_UNIT), x),
                                  lambda x: weight(_UNIT, x)], ids=["eval_h", "weight"])
@pytest.mark.parametrize("x", [1j, "x", None])
def test_kernel_refuses_an_x_that_is_not_real(call, x):
    with pytest.raises(ValidationError, match=f"^x must be a real number, got {x!r}$"):
        call(x)


@pytest.mark.parametrize(
    "call, message",
    [
        # each parsed the string: nu(_VACUUM, "2.0") returned 6.9975796291756645
        (lambda: continuum.nu(_VACUUM, "2.0"), "zeta must be a real number, got '2.0'"),
        (lambda: normalization(_VACUUM, "2.0"), "zeta must be a real number, got '2.0'"),
        (lambda: continuum.state_density(_VACUUM, 1.0, "0.5"), "E must be a real number, got '0.5'"),
        (lambda: pochhammer(1.5, "0.5"), "E must be a real number, got '0.5'"),
        (lambda: Hyperbolic("1", 2.0), "c1 must be a real number, got '1'"),
        (lambda: Hyperbolic(1.0, "2"), "c2 must be a real number, got '2'"),
        (lambda: ContourConfig(c_offset="1.5"), "c_offset must be a real number, got '1.5'"),
    ],
    ids=["nu", "normalization", "state_density", "pochhammer", "hyperbolic-c1", "hyperbolic-c2",
         "contour_config"],
)
def test_a_numeric_string_is_not_a_real_number(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("s", [1j, "a", None, [1.0, 2j]])
def test_f_factor_refuses_an_s_that_is_not_real(s):
    with pytest.raises(ValidationError, match="^s must be a real number, got "):
        f_factor(_UNIT, s)


@pytest.mark.parametrize(
    "A, k, message",
    [
        ("a", 2, "^A must be a real number, got 'a'$"),
        (1j, 2, "^A must be a real number, got 1j$"),
        (1.0, "a", "^k must be a real number, got 'a'$"),
        (1.0, 1j, "^k must be a real number, got 1j$"),
        (1.0, [1, 2j], r"^k must be a real number, got \(1\+0j\)$"),
    ],
)
def test_log_gamma_ratio_refuses_an_A_or_k_that_is_not_real(A, k, message):
    with pytest.raises(ValidationError, match=message):
        log_gamma_ratio(1.0, A, k)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: log_gamma_ratio(v, 1.0, 2), "a"),
        (lambda v: pochhammer(v, 1.0), "a"),
        (lambda v: log_gamma(v), "w"),
        (lambda v: evaluate(_UNIT.params, v), "z"),
    ],
    ids=["log_gamma_ratio", "pochhammer", "log_gamma", "evaluate"],
)
@pytest.mark.parametrize("value", ["x", "0.5", None, [1.0]])
def test_complex_arguments_refuse_what_is_not_a_number(call, name, value):
    # log_gamma_ratio raised a bare ValueError or TypeError, and a numeric
    # str was parsed as its number everywhere
    with pytest.raises(ValidationError, match=f"^{name} must be a complex number, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("a", [np.float32(1.5), np.int64(2), np.complex128(1.5 + 0.5j), 3])
def test_log_gamma_ratio_takes_a_numeric_scalar_a(a):
    assert log_gamma_ratio(a, 1.0, 2) == log_gamma_ratio(complex(a), 1.0, 2)


def test_run_all_refuses_an_unknown_criterion():
    with pytest.raises(ValidationError, match="^unknown criteria: x, y$"):
        acceptance.run_all(only=["y", "x", "radius-law"])


# -- eval_h's floor refusal ----------------------------------------------------------

_EXP = HWeightParams([], [(0.0, 1.0)])  # H(x) = e^-x


@pytest.mark.parametrize("c_offset", [20.0, 30.0, 100.0, 300.0, 1000.0])
def test_eval_h_refuses_a_line_with_no_correct_digit(c_offset):
    # returned -2.7e4, -1.1e20, 4.3e157, -inf and inf with no error: the
    # line sum is of size Gamma(c) 0.7^-c, and its roundoff floor passes its value
    with pytest.raises(ContourFailure, match=r"^no correct digit in H\(0\.7\): "):
        eval_h(_EXP, 0.7, ContourConfig(c_offset=c_offset))


@pytest.mark.parametrize("c_offset, tol", [(0.5, 1e-13), (1.5, 1e-13), (5.0, 1e-12), (10.0, 1e-8)])
def test_eval_h_keeps_the_lines_with_digits_left(c_offset, tol):
    # at c_offset 10 the floor is 1.2e-7 of the line sum and the value is off by 2.3e-9
    got = eval_h(_EXP, 0.7, ContourConfig(c_offset=c_offset))
    assert abs(got - math.exp(-0.7)) <= tol * math.exp(-0.7)


# -- error branches -----------------------------------------------------------------


def test_nine_case_reports_a_table_mismatch(monkeypatch):
    monkeypatch.setattr(acceptance, "_NINE_CASE_TABLE", [((1.0, 1.0), Domain.DIVERGENT)])
    res = acceptance.criterion_nine_case()
    assert not res.passed
    assert res.detail == "weights (1.0,1.0): EntireBC != DivergentEverywhere"


def test_a_standalone_determinism_run_times_the_other_criteria(monkeypatch):
    def fake(seed=acceptance.DEFAULT_SEED):
        return acceptance.CriterionResult("fake", True, "", 1000.0)

    criteria = {name: fake for name in acceptance.CRITERIA}
    criteria["radius-law"] = acceptance.CRITERIA["radius-law"]
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    res = acceptance.criterion_determinism()
    # seven fake criteria of 1,000 s each put the suite past its 120 s budget
    assert not res.passed
    assert res.detail.startswith("reruns identical, full suite 70")


def test_selftest_names_its_first_failing_criterion(monkeypatch, capsys):
    results = [acceptance.CriterionResult(name, name != "b", "d", 0.0) for name in "abc"]
    monkeypatch.setattr(cli.acceptance, "run_all", lambda seed, only: results)
    assert cli.main(["selftest"]) == cli.EXIT_VERIFY
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith("2/3 criteria passed in ")
    assert err == "first failing criterion: b\n"


@pytest.fixture
def unit_file(tmp_path):
    path = tmp_path / "unit.json"
    path.write_text('{"upper": [[1.0, 0.0, 1.0]], "lower": [[2.0, 0.0, 1.0]]}\n')
    return str(path)


def test_a_closed_stdout_sends_later_output_to_devnull(monkeypatch, unit_file):
    class ClosedPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError

        def fileno(self):
            return 99

    calls = []
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(os, "open", lambda path, flags: calls.append(("open", path)) or 98)
    monkeypatch.setattr(os, "dup2", lambda fd, fd2: calls.append(("dup2", fd, fd2)))
    assert cli.main(["fw", "radius", "--params", unit_file]) == cli.EXIT_BROKEN_PIPE
    assert calls == [("open", os.devnull), ("dup2", 98, 99)]


def test_the_module_runs_as_a_script(monkeypatch, capsys, unit_file):
    monkeypatch.setattr(sys, "argv", ["fwstates", "fw", "radius", "--params", unit_file])
    # runpy warns that it runs the imported module's code afresh, which is the point
    with pytest.warns(RuntimeWarning, match="found in sys.modules"), pytest.raises(SystemExit) as exc:
        runpy.run_module("fwstates.cli", run_name="__main__")
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["radius"] == "inf"


def test_hyperbolic_from_json_refuses_a_missing_component():
    with pytest.raises(ValidationError, match=r"^bad hyperbolic encoding \{'c1': 1\.0\}$"):
        Hyperbolic.from_json({"c1": 1.0})


def test_make_state_refuses_a_tail_above_target_at_k_max(monkeypatch):
    model = CoherentModel(FWParams(), 32)
    monkeypatch.setattr("fwstates.coherent.K_MAX", 64)
    # a Poisson(25) tail past k = 64 is about 1e-10
    with pytest.raises(TruncationError, match=r"^tail mass \S+ above target 1e-12 at K=64$"):
        make_state(model, 5.0)


def test_a_one_coefficient_state_has_no_residual():
    assert annihilation_residual(_UNIT, StateVector((1.0 + 0j,), 1.0, 0j, 0.0)) == 0.0


@pytest.mark.parametrize("p", [0, 3])
def test_component_indices_are_1_or_2(p):
    with pytest.raises(ValidationError, match="^component index must be 1 or 2$"):
        BCCoherentModel(_BC).component_model(p)
    with pytest.raises(ValidationError, match="^component index must be 1 or 2$"):
        _BC.component_params(p)


def test_e_max_gives_up_on_a_log_integrand_that_never_falls(monkeypatch):
    monkeypatch.setattr(continuum, "_rho_grid", lambda params, hi: (np.linspace(0.0, hi, 257), np.zeros(257)))
    with pytest.raises(QuadratureFailure, match="^could not locate a decaying tail"):
        continuum._e_max(_VACUUM, 0.0)


def test_nu_refuses_a_scaled_rerun_that_overflows_again(monkeypatch):
    def overflow(*args):
        raise OverflowError("integral inf")

    monkeypatch.setattr(continuum, "_integrate", overflow)
    # the log-integrand peaks near 700 - log(2 pi 700)/2, close enough to
    # DBL_MAX for the rerun on 2^-64 times the integrand
    with pytest.raises(OverflowError, match=r"^nu\(zeta\) is past the float range \(log-integrand peak 69[0-9.]+\)$"):
        continuum.nu(_VACUUM, 700.0)


def test_fw_params_from_json_refuses_a_short_entry():
    with pytest.raises(ValidationError, match="^bad FWParams encoding: "):
        FWParams.from_json({"upper": [[1.0, 0.0]], "lower": []})


def test_as_pfq_needs_unit_lower_weights():
    assert as_pfq(FWParams([(1.0, 1.0)], [(2.0, 1.5)])) is None


def test_oracles_refuse():
    with pytest.raises(PoleError, match="^pFq lower parameter produces zero factor at k=2$"):
        oracle_pfq([1.0], [-2.0], 0.5)
    # 1F0(1;;-1) = sum (-1)^k: the partial sums alternate 1, 0, 1, ...
    with pytest.raises(MaxTermsExceeded, match="^oracle_pfq did not converge$"):
        oracle_pfq([1.0], [], -1.0)
    with pytest.raises(ValidationError, match=r"^oracle_bessel_j expects v, y >= 0$"):
        oracle_bessel_j(-1.0, 1.0)
    # the terms pass the float range before they fall, and the sum turns NaN
    with pytest.raises(MaxTermsExceeded, match="^oracle_bessel_j did not converge$"):
        oracle_bessel_j(0.0, 2000.0)


def test_bc_params_refuse_malformed_entries():
    value = {"z1": [1.5, 0.0], "z2": [1.5, 0.0]}
    with pytest.raises(ValidationError, match="^bad BCFWParams encoding: 'weight'$"):
        BCFWParams.from_json({"upper": [{"value": value}], "lower": []})
    with pytest.raises(ValidationError, match=r"^upper entries must be \(value, weight\) pairs$"):
        BCFWParams(upper=[1.5])
    with pytest.raises(ValidationError, match="^lower weight must be hyperbolic, got 'x'$"):
        BCFWParams(lower=[(1.5, "x")])
    # a real weight is taken as the hyperbolic (w, w)
    assert BCFWParams(upper=[(1.5, 2.0)]).upper[0][1] == Hyperbolic(2.0, 2.0)


def test_pochhammer_refuses_poles():
    with pytest.raises(PoleError, match=r"^pochhammer base at gamma pole, a=\(-1\+0j\)$"):
        pochhammer(-1.0, 0.5)
    with pytest.raises(PoleError, match=r"^pochhammer shifted argument at gamma pole, a\+E=\(-1\+0j\)$"):
        pochhammer(0.5, -1.5)


def test_log_gamma_ratio_names_the_entry_past_the_float_range():
    # k = 0 is finite; at k = 1e4, w = 1 + 1e4 * 1e305 is past the float range
    with pytest.raises(OverflowError, match=r"^gamma argument a \+ kA = \(inf\+0j\) is not finite .* k=10000\.0\)$"):
        log_gamma_ratio(1.0, 1e305, [0, 10000])


def test_a_truncation_failure_off_a_zero_of_m_is_raised(monkeypatch):
    # no height can fall below -inf, so the line cannot be cut although M(c) != 0
    monkeypatch.setattr(hfunction, "_LOG_DECAY_TARGET", -math.inf)
    hp = HWeightParams([], [(0.25, 1.0)])
    for memo in (hfunction._level, hfunction._pair_calls, hfunction._h_value):
        memo.cache_clear()
    with pytest.raises(ContourFailure, match="^could not truncate the contour; kernel decays too slowly$"):
        eval_h(hp, 0.7)


def test_density_scan_refuses_an_integrand_that_never_falls():
    with pytest.raises(QuadratureFailure, match="^moment integrand does not decay below 1e-16 of its peak$"):
        hfunction._density_scan(lambda x: 1.0, 0)


def test_an_unreadable_parameter_file_is_bad_input(tmp_path):
    with pytest.raises(ValidationError, match="^cannot read .*missing.json: "):
        load_fw_params(tmp_path / "missing.json")
