"""The pair runner's summary arithmetic, gain-rule verdict and failed
table, on fixed result lines; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py"
_SPEC = importlib.util.spec_from_file_location("benchpairs", _PATH)
benchpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpairs)


def _line(rss, wall, failed=1, cold_start=0.25):
    return {
        "correct": True,
        "attempted": 100,
        "failed": failed,
        "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"}, "wall_s": {"value": wall, "unit": "s"}},
        "cold_start_s": cold_start,
    }


# ten pairs: the change's RSS is 1 MB lower in nine and 1 MB higher in one;
# its wall time is 30% higher in every pair, and its cold start 1/32 s
_PARENT_RSS = [60.0, 61.0, 62.0, 63.0, 64.0, 65.0, 66.0, 67.0, 68.0, 69.0]
_CHANGE_RSS = [59.0, 60.0, 61.0, 62.0, 63.0, 64.0, 65.0, 66.0, 67.0, 70.0]
_RUNS = {
    f"measure-{seed}": {
        "order": benchpairs.order(seed),
        "parent": _line(p, 1.0 + i / 10, cold_start=0.25 + i / 16),
        "change": _line(c, 1.3 * (1.0 + i / 10), cold_start=0.28125 + i / 16),
    }
    for i, (seed, p, c) in enumerate(zip(range(3900, 3910), _PARENT_RSS, _CHANGE_RSS))
}
_BETTER = {"peak_rss_mb": "lower", "wall_s": "lower"}


def test_pairs_alternate_which_side_runs_first():
    assert benchpairs.order(3900) == ["parent", "change"]
    assert benchpairs.order(3901) == ["change", "parent"]


def test_summary_arithmetic():
    summary = benchpairs.summarize(_RUNS, _BETTER)
    assert list(summary) == ["measure"]
    rss = summary["measure"]["peak_rss_mb"]
    # exclusive quartiles of 60..69: positions 2.75 and 8.25 of 10
    assert rss == {
        "parent_median": 64.5,
        "change_median": 63.5,
        "change_over_parent": 63.5 / 64.5,
        "parent_q1": 61.75,
        "parent_q3": 67.25,
        "parent_iqr": 5.5,
        "change_q1": 60.75,
        "change_q3": 66.25,
        "change_wins": 9,
        "pairs": 10,
    }
    assert summary["measure"]["wall_s"]["change_wins"] == 0
    assert summary["measure"]["failed_equal_every_pair"] is True


def test_cold_start_summary_without_a_verdict():
    summary = benchpairs.summarize(_RUNS, _BETTER)
    # exclusive quartiles of 0.25 + i/16, i < 10, and of the same plus 1/32
    assert summary["measure"]["cold_start_s"] == {
        "parent_median": 0.53125,
        "change_median": 0.5625,
        "change_over_parent": 0.5625 / 0.53125,
        "parent_q1": 0.359375,
        "parent_q3": 0.703125,
        "parent_iqr": 0.34375,
        "change_q1": 0.390625,
        "change_q3": 0.734375,
        "change_wins": 0,
        "pairs": 10,
    }
    lines = benchpairs.verdict_lines(summary, {"peak_rss_mb": ("lower", 0.1), "wall_s": ("lower", 0.2)})
    assert len(lines) == 3 and not any("cold_start_s" in line for line in lines)


def test_verdicts():
    stats = benchpairs.summarize(_RUNS, _BETTER)["measure"]
    rss, wall = stats["peak_rss_mb"], stats["wall_s"]
    # nine wins of ten, but a 1 MB median gap inside a 5.5 MB IQR, which
    # is 8.5% of the parent's median: within a 10% bound, unresolved at 5%
    assert benchpairs.verdict(rss, "lower", 0.1, True) == "within bound"
    assert benchpairs.verdict(rss, "lower", 0.05, True) == "unresolved"
    tight = dict(rss, parent_iqr=0.5)
    assert benchpairs.verdict(tight, "lower", 0.1, True) == "gain"
    assert benchpairs.verdict(tight, "lower", 0.1, False) == "within bound"
    assert benchpairs.verdict(dict(tight, change_wins=8), "lower", 0.1, True) == "within bound"
    assert benchpairs.verdict(dict(tight, pairs=9, change_wins=9), "lower", 0.1, True) == "within bound"
    # 30% slower against a 20% bound, and inside a 40% one
    assert benchpairs.verdict(wall, "lower", 0.2, True) == "past bound"
    assert benchpairs.verdict(wall, "lower", 0.4, True) == "within bound"
    assert benchpairs.verdict(dict(tight, change_over_parent=0.5), "higher", 0.1, True) == "past bound"


def test_unequal_failures_show_in_the_summary_and_the_verdict_lines():
    runs = dict(_RUNS, **{"measure-3910": {"order": ["parent", "change"], "parent": _line(60.0, 1.0, 2),
                                             "change": _line(59.0, 1.0, 3)}})
    summary = benchpairs.summarize(runs, _BETTER)
    assert summary["measure"]["failed_equal_every_pair"] is False
    lines = benchpairs.verdict_lines(summary, {"peak_rss_mb": ("lower", 0.1), "wall_s": ("lower", 0.2)})
    assert lines[-1] == "measure failed equal in every pair: False"
    assert lines[0].startswith("measure peak_rss_mb: parent 64 change 63 (-1.56%), wins 10/11, parent IQR ")


@pytest.mark.parametrize("text, seeds", [("7", [7]), ("3901-3904", [3901, 3902, 3903, 3904])])
def test_seed_ranges(text, seeds):
    assert benchpairs._seeds(text) == seeds


def _doc(failed_by_set):
    """A runner-written file whose sets hold pairs with these (parent, change) failed counts."""
    return {
        "runs": {
            name: {key: {"parent": _line(60.0, 1.0, p), "change": _line(60.0, 1.0, c)}
                   for key, (p, c) in pairs.items()}
            for name, pairs in failed_by_set.items()
        }
    }


def test_failed_table_gives_median_and_range_per_workload_and_side():
    old = _doc({
        "claim": {"series-1": (438, 437), "series-2": (433, 442), "series-3": (440, 440)},
        "others": {"states-1": (14, 9), "states-2": (7, 21)},
    })
    new = _doc({"no-regression": {"states-5": (3, 3)}, "claim": {"measure-5": (0, 1)}})
    assert benchpairs.failed_table({"BENCH_44.json": old, "BENCH_45.json": new}) == [
        "| workload | BENCH_44.json parent | BENCH_44.json change | BENCH_45.json parent | BENCH_45.json change |",
        "|---|---|---|---|---|",
        "| `series` | 438 (433–440) | 440 (437–442) | – | – |",
        "| `states` | 10.5 (7–14) | 15 (9–21) | 3 (3–3) | 3 (3–3) |",
        "| `measure` | – | – | 0 (0–0) | 1 (1–1) |",
    ]


def test_failed_table_from_the_command_line(tmp_path, capsys):
    paths = [tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"]
    for path, failed in zip(paths, (4, 5)):
        path.write_text(json.dumps(_doc({"claim": {"measure-7": (failed, failed)}})), encoding="utf-8")
    assert benchpairs.main(["--failed-table", *map(str, paths)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "| `measure` | 4 (4–4) | 4 (4–4) | 5 (5–5) | 5 (5–5) |"
    # an older layout, whose runs are not sets of pairs, is refused
    paths[0].write_text(json.dumps({"runs": {"measure": [1.0, 2.0]}}), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        benchpairs.main(["--failed-table", *map(str, paths)])
    assert exc.value.code == 2
    assert "BENCH_38.json onward" in capsys.readouterr().err
