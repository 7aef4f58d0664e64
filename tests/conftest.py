import os
from pathlib import Path

import numpy as np
import pytest

from planarq import build_tower
from planarq.linearized import has_nonzero_root_subfield_coeffs, kernel_sizes
from planarq.planarity import _dets_at

SRC = Path(__file__).resolve().parents[1] / "src"


def pytest_addoption(parser):
    parser.addoption("--exhaustive", action="store_true",
                     help="also run the tests marked exhaustive (minutes each)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--exhaustive"):
        return
    skip = pytest.mark.skip(reason="exhaustive: run with --exhaustive")
    for item in items:
        if item.get_closest_marker("exhaustive"):
            item.add_marker(skip)


def det_sweep(tower, a_code, b_code):
    """Full-sweep oracle: the determinants for one pair at every shift C != 0,
    in code order (entry C - 1)."""
    return _dets_at(tower, a_code, b_code, np.arange(1, tower.fq3.order, dtype=np.int64))


def check_kernel_criterion(tower):
    """Every (alpha, beta, gamma) in F_q^3: the map alpha*x^(q^2) + beta*x^q +
    gamma*x has a nonzero kernel exactly when the cubic sum vanishes, and
    every kernel is an F_q-subspace."""
    q = tower.q
    alpha, beta, gamma = np.unravel_index(np.arange(q ** 3), (q, q, q))
    sizes = kernel_sizes(tower.fq3, gamma, beta, alpha)
    crit = has_nonzero_root_subfield_coeffs(tower.fq, alpha, beta, gamma)
    assert ((sizes > 1) == crit).all()
    assert set(sizes.tolist()) <= {1, q, q ** 2, q ** 3}


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
