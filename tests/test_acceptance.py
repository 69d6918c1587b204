"""Acceptance suite: one test per criterion, each printing its
PASS/FAIL line with the measured quantities.

Run with `pytest tests/test_acceptance.py -v -s` for the full report, or
through the CLI as `logtorus verify <config>`.
"""

import pytest

from logtorus import verify


@pytest.mark.parametrize("criterion", verify.CRITERIA,
                         ids=[fn.__name__.replace("criterion_", "C")
                              for fn in verify.CRITERIA])
def test_criterion(criterion):
    result = criterion()
    line = (f"C{result.cid:02d} {'PASS' if result.passed else 'FAIL'} "
            f"({result.runtime:6.1f}s) {result.name}: {result.details}")
    print("\n" + line)
    assert result.passed, line


def test_missing_rho_is_a_failure_not_a_crash(monkeypatch):
    monkeypatch.setattr(verify, "rho_min", lambda mask: None)
    result = verify.criterion_04_strict_monotonicity()
    assert result.passed is False
    assert "None" in result.details
