import os
from pathlib import Path

import pytest

from planarq import build_tower

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def src_env():
    """Environment for a subprocess that imports planarq from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def towers():
    """Shared towers, keyed by q."""
    cache = {}
    for p, m in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2)):
        t = build_tower(p, m)
        cache[t.q] = t
    return cache
