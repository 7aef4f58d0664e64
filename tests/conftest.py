import os
import random
from pathlib import Path

import numpy as np
import pytest

from planarq import build_tower, find_normal_element, standard_extension
from planarq.curves import (MONOMIALS, _MIDX, LineFactor, _cubic_codes, _det_coeffs,
                            _evaluate, _expand_product, build_F_det, count_nonzero_fq_zeros,
                            find_linear_factors, transform_H, verify_branch_factorization)
from planarq.gf import _ops, orbit_reps
from planarq.linearized import has_nonzero_root_subfield_coeffs, kernel_sizes
from planarq.planarity import (_det_coefficients, _dets_at, _pair_cubic, det_witnesses,
                               is_planar_det)

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


def check_det_deciders_agree(tower):
    """``is_planar_det`` (one pair's cubic in the shift's digits) and
    ``det_witnesses`` (the determinant's coefficients in A and B at every
    shift) give the same verdict and witness on every pair."""
    q = tower.q
    witnesses = det_witnesses(tower).tolist()
    for pair, wit in enumerate(witnesses):
        assert is_planar_det(tower, *divmod(pair, q)) == (wit == 0, wit or None), divmod(pair, q)


def substitute_linear(field, coeffs, forms):
    """Substitution oracle: plug linear forms (u, v, w) ~ uX + vY + wT in for
    (X, Y, T) in the cubic with coefficient codes ``coeffs``: P(L0, L1, L2),
    expanded to its ten coefficient codes."""
    coeffs = _cubic_codes(field, coeffs)
    acc, ops = [0] * 10, _ops(field, *coeffs)
    for (i, j, k), c in zip(MONOMIALS, coeffs):
        if c:
            first, *rest = [forms[0]] * i + [forms[1]] * j + [forms[2]] * k
            _expand_product(ops, [ops[0](c, x) for x in first], *rest, acc)
    return tuple(acc)


def divides_by_substitution(field, coeffs, line):
    """Whether the line uX + vY + wT divides the cubic: solve the line for
    one variable, substitute it, and see every coefficient vanish."""
    f = field
    u, v, w = line
    if w != 0:
        inv = f.inv(w)
        forms = ((1, 0, 0), (0, 1, 0), (f.neg(f.mul(u, inv)), f.neg(f.mul(v, inv)), 0))
    elif v != 0:
        inv = f.inv(v)
        forms = ((1, 0, 0), (f.neg(f.mul(u, inv)), 0, 0), (0, 0, 1))
    elif u != 0:
        forms = ((0, 0, 0), (0, 1, 0), (0, 0, 1))
    else:
        raise ValueError("zero line")
    return not any(substitute_linear(f, coeffs, forms))


def all_lines(f):
    """Every projective line uX + vY + wT over f, leading coefficient 1."""
    yield (0, 0, 1)
    for w in range(f.order):
        yield (0, 1, w)
    for v in range(f.order):
        for w in range(f.order):
            yield (1, v, w)


def _two_points(f, line):
    """Two distinct points of a line yielded by ``all_lines``."""
    u, v, w = line
    if u:
        return (f.neg(v), 1, 0), (f.neg(w), 0, 1)
    if v:
        return (1, 0, 0), (0, f.neg(w), 1)
    return (1, 0, 0), (0, 1, 0)


def lines_by_enumeration(field, P, max_ext):
    """Lines that divide P by substitution over F_{q^k}, k <= max_ext, each
    at its least k.

    A line dividing P carries only zeros of P, so the substitution is tried
    just on the lines where P vanishes at two points; that prefilter drops no
    dividing line, and it keeps the symbolic checks few.
    """
    q = field.order
    found = []
    for ext in range(1, max_ext + 1):
        f = standard_extension(field, ext)
        lines = [line for line in all_lines(f) if ext == 1 or any(c >= q for c in line)]
        pts = np.array([_two_points(f, line) for line in lines])
        vals = _evaluate(f, P, pts[..., 0], pts[..., 1], pts[..., 2])
        found += [LineFactor(line, ext) for line, v in zip(lines, vals)
                  if not v.any() and divides_by_substitution(f, P, line)]
    return sorted(found, key=lambda lf: (lf.ext, lf.coeffs))


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


def check_det_coefficients(t):
    """The scan's determinant coefficients m_ij(R) of A^i B^j at every
    projective shift R, in the table's row order (row ``_MIDX[i, j, 3 - i - j]``):
    the sum is the determinant, the pure cubes are multiples of the norm,
    and m is the Leibniz cubic's."""
    f, q = t.fq3, t.q
    reps = orbit_reps(q, t.order_top)
    coeffs = _det_coefficients(t, reps)
    # sum m_ij A^i B^j is the determinant: on every pair at q = 3, on 8
    # sampled ones above
    pairs = range(q * q) if q == 3 else random.Random(f"expansion:{q}").sample(range(q * q), 8)
    for a, b in (divmod(pair, q) for pair in pairs):
        assert np.array_equal(_evaluate(f, coeffs, a, b, 1), _dets_at(t, a, b, reps)), (a, b)
    # the pure cubes: m_03 = 8 N(R) and m_30 = 2 N(R), N(R) = R R^q R^(q^2)
    norm = f.mul_vec(f.mul_vec(reps, f.frob_vec(reps, 1)), f.frob_vec(reps, 2))
    assert np.array_equal(coeffs[_MIDX[0, 3, 0]], f.mul_vec(t.fq.from_int(8), norm))
    assert np.array_equal(coeffs[_MIDX[3, 0, 0]], f.mul_vec(t.fq.from_int(2), norm))
    # the Leibniz cubic at (R, R^q, R^(q^2)) on the grid of nodes A, B in
    # 0..3 (every pair at q = 3): both sides have degree <= 3 in A and in B,
    # so agreeing there, they agree on every pair
    k = min(q, 4)
    a, b = (x[:, None] for x in np.divmod(np.arange(k * k), k))
    grid = _evaluate(f, coeffs[:, None], a, b, 1)
    leibniz = _evaluate(f, _det_coeffs(t.fq, a, b), reps, f.frob_vec(reps, 1),
                        f.frob_vec(reps, 2))
    assert np.array_equal(grid, leibniz)


def check_one_curve(tower):
    """On every pair, the pair's cubic in the shift's F_q digits
    (``_pair_cubic``) and ``transform_H``'s normal-basis H have as many
    nonzero F_q zeros: both are det(A, B, C), in two F_q coordinate systems
    of F_{q^3}."""
    fq, q = tower.fq, tower.q
    xi = find_normal_element(tower)
    for a, b in (divmod(pair, q) for pair in range(q * q)):
        H = transform_H(tower, build_F_det(tower, a, b), xi)
        assert (count_nonzero_fq_zeros(fq, _pair_cubic(tower, a, b))
                == count_nonzero_fq_zeros(fq, H)), (a, b)


def check_lines_exactly_on_the_loci(tower):
    """On every pair with F_det != 0, ``find_linear_factors`` finds a line
    exactly when the pair lies on a locus of ``verify_branch_factorization``."""
    q = tower.q
    for a, b in (divmod(pair, q) for pair in range(q * q)):
        F = build_F_det(tower, a, b)
        if any(F):
            on_locus = bool(verify_branch_factorization(tower, a, b, F)["checks"])
            assert bool(find_linear_factors(tower.fq, F)) == on_locus, (a, b)


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
