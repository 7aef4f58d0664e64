import os
from pathlib import Path

import numpy as np
import pytest

from planarq import build_tower
from planarq.planarity import _dets_at

SRC = Path(__file__).resolve().parents[1] / "src"


def det_sweep(tower, a_code, b_code):
    """Full-sweep oracle: the determinants for one pair at every shift C != 0,
    in code order (entry C - 1)."""
    return _dets_at(tower, a_code, b_code, np.arange(1, tower.fq3.order, dtype=np.int64))


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
