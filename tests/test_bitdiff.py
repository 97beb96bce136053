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


# --expect: the moves of records present on both sides against the declared ids

_PARENT = _records(a="1.0", b="2.5", c="ContourFailure: no correct digit in H(0.7)")


def test_declared_moves_that_happened_pass_the_gate():
    change = _records(a="1.0000000000000002", b="2.5", c="0.31993250176128383")
    assert bitdiff.undeclared(_PARENT, change, {"a", "c"}) == []
    assert bitdiff.undeclared(_PARENT, list(_PARENT), set()) == []


def test_an_undeclared_move_fails_the_gate():
    change = _records(a="1.0000000000000002", b="2.5", c="0.31993250176128383")
    assert bitdiff.undeclared(_PARENT, change, {"a"}) == ["moved, not declared: c"]


def test_a_declared_move_that_did_not_happen_fails_the_gate():
    change = _records(a="1.0000000000000002", b="2.5", c="ContourFailure: no correct digit in H(0.7)")
    assert bitdiff.undeclared(_PARENT, change, {"a", "b"}) == ["declared, did not move: b"]
    # both differences at once, each named
    assert bitdiff.undeclared(_PARENT, _records(a="1.0", b="3.0", c="0.3"), {"a", "c"}) == [
        "moved, not declared: b",
        "declared, did not move: a",
    ]


def test_one_sided_records_are_reported_but_pass_the_gate():
    # a grown corpus: "d" only in the change, "c" only in the parent
    change = _records(a="1.0", b="2.5", d="0.5")
    assert bitdiff.undeclared(_PARENT, change, set()) == []
    lines = bitdiff.diff(_PARENT, change)
    assert lines[:2] == [
        "only in parent: c\n  parent: 'ContourFailure: no correct digit in H(0.7)'",
        "only in change: d\n  change: '0.5'",
    ]
    # a one-sided id counts as no move, so declaring it fails the gate
    assert bitdiff.undeclared(_PARENT, change, {"d"}) == ["declared, did not move: d"]


def test_the_ledger_lines_are_the_ledgers_ten_item16_cases():
    lines = list(bitdiff._ledger_lines())
    assert [name for name, *_ in lines] == ["ledger-item16"] + [
        f"ledger-item16-cold-draw{draw}" for draw in (10, 40, 56, 58, 71, 96, 175, 236, 285)
    ]
    assert lines[0] == (
        "ledger-item16", [(0.763, 0.840)], [(0.0, 1.0), (1.43, 1.47), (1.02, 1.48)], 1.0483,
    )
    assert lines[-1][3] == 0.36174138035684844
