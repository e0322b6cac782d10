"""Shared fixtures plus the acceptance-criteria terminal summary."""
from __future__ import annotations

import pytest

from xformlens import analyze

from helpers import fixture_corpus

CRITERIA = {
    1: "corpus ignored-concepts table matches its golden render",
    2: "per-row profile group memberships match the expected sets",
    3: "the four reference rule snippets parse and classify correctly",
    4: "fixed-point detection separates forallRemoval from enumRemoval",
    5: "chain validation rejects a bare recordRemoval and accepts the prefixed chain",
    6: "planner output length matches exhaustive enumeration on random instances",
    7: "analysis invariants hold across randomized transformations",
    8: "metamodel text and table JSON round-trip losslessly",
}

_outcomes: dict[int, bool] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(n): test participates in acceptance criterion n",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    rep = yield
    marker = item.get_closest_marker("criterion")
    if marker is not None and rep.when in ("setup", "call"):
        n = marker.args[0]
        ok = not rep.failed and not rep.skipped
        _outcomes[n] = _outcomes.get(n, True) and ok
    return rep


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_outcomes):
        verdict = "PASS" if _outcomes[n] else "FAIL"
        terminalreporter.write_line(f"criterion {n}: {verdict} - {CRITERIA[n]}")


@pytest.fixture(autouse=True)
def _private_parse_cache(tmp_path, monkeypatch):
    """Each test's CLI runs, in process or in a child, keep parsed inputs in a directory of
    their own: never in the user's cache, and never warm from another test or another parser."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


@pytest.fixture(scope="session")
def corpus():
    return fixture_corpus()


@pytest.fixture(scope="session")
def pivot(corpus):
    return corpus[0]


@pytest.fixture(scope="session")
def transformations(corpus):
    return corpus[1]


@pytest.fixture(scope="session")
def reports(corpus):
    mm, ts = corpus
    return {t.name: analyze(t, mm, mm) for t in ts}
