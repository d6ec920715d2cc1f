"""Shared pytest wiring: surface the acceptance verdict lines.

The acceptance module records one PASS/FAIL line per criterion as it
runs; printing them from inside the tests would be swallowed by output
capture, so they are replayed here as a terminal-summary section.  The
digit_limit fixture pins the most digits int reads or writes.
"""

import sys

import pytest


@pytest.fixture
def digit_limit():
    """int's string limit set to the default 4300 digits for one test,
    and restored after it (Python 3.10.7 and later have the limit)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int string limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
