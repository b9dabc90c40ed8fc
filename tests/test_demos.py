"""The narrative demos run to completion and only print."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_writes_nothing(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = sorted(os.listdir(demo.parent))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert list(tmp_path.iterdir()) == []
    assert sorted(os.listdir(demo.parent)) == before
