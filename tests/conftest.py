"""Shared fixtures: pinned seeds, prime contexts, and acceptance reporting.

Every randomized test derives its RNG from SEED so reruns are identical;
the two 62-bit primes are drawn once per session.  Acceptance tests
(named test_criterion_*) get one PASS/FAIL line each in the terminal
summary.
"""

from __future__ import annotations

import pytest

from secantry.linalg import derive_rng, make_contexts

from seeds import SEED

_acceptance_outcomes: dict[str, str] = {}


@pytest.fixture(scope="session")
def ctxs():
    return make_contexts(SEED)


@pytest.fixture()
def rng(request):
    return derive_rng(SEED, request.node.nodeid)


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_"):
        _acceptance_outcomes[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        terminalreporter.write_line(f"{name}: {_acceptance_outcomes[name]}")
