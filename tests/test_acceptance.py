"""Acceptance battery: every primary criterion at its stated tolerance.

The battery runs once per session, as `fwstates selftest` runs it; each
test reads its own criterion from that run and prints a single
[PASS|FAIL] line with the measured detail, so the suite output doubles
as the acceptance report.
"""

import pytest

from fwstates.acceptance import CRITERIA, DEFAULT_SEED, run_all


@pytest.fixture(scope="session")
def battery():
    return {result.name: result for result in run_all(DEFAULT_SEED)}


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(battery, name):
    result = battery[name]
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {name} ({result.elapsed:.2f}s): {result.detail}")
    assert result.passed, f"{name} failed: {result.detail}"
