"""Shared fixtures and the acceptance-criteria summary reporter."""
from __future__ import annotations

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import cotpace
from cotpace.corpus import parse_corpus

# Every run draws the same hypothesis examples and saves none of them.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
# Hypothesis still caches the constants it reads from the source, while it
# collects, under its home directory (.hypothesis/ in the working directory by
# default); a temporary one, removed at exit, keeps the checkout clean.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

PACKAGE_DATA = Path(cotpace.__file__).parent / "data"
BUNDLED_CORPUS = PACKAGE_DATA / "synthetic50.jsonl"
GOLDEN_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def bundled_corpus():
    return parse_corpus(BUNDLED_CORPUS)


@pytest.fixture(scope="session")
def bundled_corpus_path():
    return BUNDLED_CORPUS


@pytest.fixture(scope="session")
def golden_dir():
    return GOLDEN_DIR


# Each acceptance test is named test_criterion_<n>_<slug>; a report hook
# records its outcome so the terminal summary always carries exactly one
# PASS/FAIL line per criterion, even when the test dies before its last
# line. Tests add a human-readable note through the criterion_report
# fixture once their assertions have passed.
_CRITERION_PATTERN = re.compile(r"test_criterion_(\d+)_(\w+)")
_CRITERION_VERDICTS: dict[int, str] = {}
_CRITERION_NOTES: dict[int, str] = {}
_CRITERION_TITLES: dict[int, str] = {}


@pytest.fixture
def criterion_report():
    def record(num: int, title: str, detail: str = "") -> None:
        _CRITERION_TITLES[num] = title
        _CRITERION_NOTES[num] = detail

    return record


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    match = _CRITERION_PATTERN.match(item.name)
    if match and report.when == "call":
        num = int(match.group(1))
        _CRITERION_VERDICTS[num] = "PASS" if report.passed else "FAIL"
        _CRITERION_TITLES.setdefault(num, match.group(2).replace("_", " "))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERION_VERDICTS):
        line = f"[criterion {num}] {_CRITERION_VERDICTS[num]}: {_CRITERION_TITLES[num]}"
        note = _CRITERION_NOTES.get(num)
        if note:
            line += f" ({note})"
        terminalreporter.write_line(line)
