"""Smoke test for the scripts under demos/: each runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # a fresh interpreter, with the same panelcsd the suite imports and a
    # throwaway working directory
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=child_env(), cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
