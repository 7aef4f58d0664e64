"""Every demo runs to completion and prints something."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, src_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
