"""Shared fixtures and the acceptance-criteria summary lines."""

from __future__ import annotations

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import settings

from obameter import KeywordTaxonomy, World, demo_taxonomy
from obameter.errors import ObameterError

# tier-1 runs hypothesis's default profile; `pytest --hypothesis-profile=deep`
# runs every property that sets no example count of its own 20 times longer
settings.register_profile("deep", max_examples=2000, deadline=None)

_CRITERION = re.compile(r"test_criterion_(\d+)")
_results: dict[int, str] = {}


@pytest.fixture(scope="session")
def taxonomy() -> KeywordTaxonomy:
    return demo_taxonomy()


@pytest.fixture(scope="session")
def tiny_taxonomy() -> KeywordTaxonomy:
    # depth 3: root, two branches, two leaves under one branch
    return KeywordTaxonomy.from_edges([
        ("top", "-"),
        ("animals", "top"),
        ("plants", "top"),
        ("dogs", "animals"),
        ("cats", "animals"),
    ])


@pytest.fixture
def fail_on_visit(monkeypatch):
    """fail_on_visit(n) makes the nth World.visit call from now on raise
    ObameterError; monkeypatch.undo() restores the real harvester."""

    def arm(n: int) -> None:
        calls = itertools.count(1)
        visit = World.visit

        def failing(world, browser, event):
            if next(calls) == n:
                raise ObameterError(f"harvester failed on visit {n}")
            return visit(world, browser, event)

        monkeypatch.setattr(World, "visit", failing)

    return arm


@pytest.fixture
def torn_writes(monkeypatch):
    """torn_writes(name) makes Path.write_text, on any file whose name
    contains `name`, write half of the text and then raise OSError, as a
    full disk would; monkeypatch.undo() restores it."""

    def arm(name: str) -> None:
        write_text = Path.write_text

        def torn(path, text, *args, **kwargs):
            if name not in path.name:
                return write_text(path, text, *args, **kwargs)
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError(f"no space left on device writing {path.name}")

        monkeypatch.setattr(Path, "write_text", torn)

    return arm


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.when == "call":
        _results[num] = "PASS" if report.passed else "FAIL"
    elif report.failed:  # setup or teardown error
        _results[num] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        terminalreporter.write_line(f"criterion {num}: {_results[num]}")
