import os
from pathlib import Path

import pytest

import panelcsd

criteria_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criteria_lines:
        terminalreporter.section("acceptance criteria")
        for line in criteria_lines:
            terminalreporter.write_line(line)


def child_env():
    """Environment for a child interpreter that imports this suite's panelcsd,
    whatever the working directory is."""
    src = str(Path(panelcsd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


@pytest.fixture
def mc_pool():
    """One two-worker pool for every run_mc call of a test that asks for it,
    so its workers spawn and import the package once. Not autouse: some
    tests count the pools they build."""
    with panelcsd.worker_pool(2) as pool:
        yield pool
