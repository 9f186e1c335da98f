"""Shared pytest infrastructure.

The acceptance tests (tests/test_acceptance.py) register a one-line
PASS/FAIL verdict per criterion through the ``acceptance`` fixture; the
``pytest_terminal_summary`` hook replays those lines after the run so they
survive pytest's per-test output capture.

Bit pins are keyed by numpy's CPU dispatch: the float64 loops of np.log,
np.exp and np.sinh round differently in the last bit on X86_V4 (AVX-512)
than on X86_V3 (AVX2), and the sampler's draws, the J0/Y0 kernel and
p_disk take them.  ``pinned`` picks the pin of this run's dispatch, and
the report header names it.
"""

import pytest

from trapprob.cli import _environment

# numpy's float64 dispatch target of (log, exp, sinh) in this process, and
# the two with pins: an AVX-512 CPU, and an AVX2 one (reproduced on an
# AVX-512 CPU with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
DISPATCH = tuple(_environment()["numpy_float64_dispatch"][name] for name in ("log", "exp", "sinh"))
X86_V4 = ("X86_V4", "X86_V4", "X86_V4")
X86_V3 = ("X86_V3", "X86_V3", "baseline(X86_V2)")


def pinned(pins, got):
    """``pins[DISPATCH]``; fails, never skips, where ``pins`` has no row for
    this dispatch, naming it and ``got``, what this run computed."""
    if DISPATCH not in pins:
        pytest.fail(f"no pin for numpy float64 dispatch (log, exp, sinh) {DISPATCH}; this run computed {got!r}")
    return pins[DISPATCH]


def pytest_report_header():
    return f"numpy float64 dispatch (log, exp, sinh): {DISPATCH}"

_ACCEPTANCE_LINES = {}


def _format_line(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:2d} {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    return line


@pytest.fixture
def acceptance():
    """Record (and print) the verdict line for one acceptance criterion."""

    def record(number, name, passed, detail=""):
        passed = bool(passed)
        line = _format_line(number, name, passed, detail)
        _ACCEPTANCE_LINES[number] = line
        print(line)
        return passed

    return record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[number])
