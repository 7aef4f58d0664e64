"""Every demo runs to completion and prints exactly its pinned bytes."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; the demos are deterministic, and demo 01
# prints the tower moduli, so a moved modulus shows here
STDOUT_SHA256 = {
    "01_field_tower.py": "e72e783cd7f0b78745709686e940bbc2c2ca0d3d16e494f37d936bf667cecabc",
    "02_planarity_scan.py": "4d6132a2a564f89f0a8a9e78c341edd515f52d8be974bc1634ce4f044dd3df55",
    "03_cubic_curves.py": "3401f0557fee991c1ff0c72253924a7631c5406d5939936b51f1e719b0de9c94",
    "04_family_catalog.py": "fb41dff3e8b9eebe17adbe40e1b086bcbfc532863c127c91600c42a597d6a5e2",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, src_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
