"""The bit diff's report, on fixed records; no tree runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bitdiff.py"
_SPEC = importlib.util.spec_from_file_location("bitdiff", _PATH)
bitdiff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bitdiff)


def _records(**outs):
    return [{"id": cid, "out": out} for cid, out in outs.items()]


def test_unchanged_records_report_only_the_count():
    same = _records(a="1.0", b="OverflowError: nu(zeta) is past the float range")
    assert bitdiff.diff(same, list(same)) == ["0 of 2 outputs moved"]


def test_a_moved_text_and_a_one_sided_id_are_each_reported():
    parent = _records(a="1.0178016411077975e+299", b="2.5", gone="0")
    change = _records(a="1.5052538330637078e+306", b="2.5", new="3")
    assert bitdiff.diff(parent, change) == [
        "moved: a\n  parent: '1.0178016411077975e+299'\n  change: '1.5052538330637078e+306'",
        "only in parent: gone\n  parent: '0'",
        "only in change: new\n  change: '3'",
        "3 of 4 outputs moved",
    ]


def test_a_cli_record_compares_its_bytes():
    # a trailing newline or a changed exit code is a move
    parent = _records(**{"cli nu eval :stdout": '{"value": 1.0}\n', "cli nu eval :exit": "0"})
    change = _records(**{"cli nu eval :stdout": '{"value": 1.0}', "cli nu eval :exit": "3"})
    lines = bitdiff.diff(parent, change)
    assert lines[0] == "moved: cli nu eval :stdout\n  parent: '{\"value\": 1.0}\\n'\n  change: '{\"value\": 1.0}'"
    assert lines[1] == "moved: cli nu eval :exit\n  parent: '0'\n  change: '3'"
    assert lines[-1] == "2 of 2 outputs moved"


def test_times_are_cut_from_a_selftest_detail():
    class Result:
        passed = True
        detail = "reruns identical, full suite 3.7s, worst 0.08s, 12s"
        fingerprint = "fp"

    assert bitdiff._selftest(Result) == (True, "reruns identical, full suite <time>, worst <time>, <time>", "fp")


def test_an_outcome_is_a_repr_or_an_exception_text():
    assert bitdiff._outcome(divmod, (7, 2), {}) == "(3, 1)"
    assert bitdiff._outcome(divmod, (7, 0), {}) == "ZeroDivisionError: integer division or modulo by zero"
