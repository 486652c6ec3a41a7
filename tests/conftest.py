import os
import time
import tracemalloc
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


def traced_peak(call) -> int:
    """The peak of the memory traced by tracemalloc while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def live_group_members(pgid: int) -> list[int]:
    """The processes of group ``pgid`` that are not zombies, from /proc."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, _, group = fh.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue
        if int(group) == pgid and state != "Z":
            members.append(int(entry))
    return members


def group_left_after(pgid: int, seconds: float = 5.0) -> list[int]:
    """The live processes of group ``pgid`` once it is empty or ``seconds``
    have passed."""
    deadline = time.monotonic() + seconds
    while live_group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return live_group_members(pgid)
