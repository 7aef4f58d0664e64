"""Tower construction, element arithmetic, Frobenius, moduli, square roots."""

import pickle
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planarq.gf as gf
from planarq import (
    DivisionByZero,
    Field,
    LevelMismatch,
    NotOddPrime,
    PrimeField,
    SizeLimit,
    build_tower,
    find_irreducible,
    find_normal_element,
    prime_ext_field,
)
from planarq.gf import (_chunk_tables, _decode, _encode, _fits, _least_code, _poly_divmod, det3,
                        is_irreducible)
from planarq.curves import (build_F_det, build_F_paper, count_nonzero_fq_zeros, divides,
                            find_linear_factors, transform_H,
                            verify_branch_factorization)
from planarq.linearized import (brute_kernel, dickson_matrix, difference_matrix_direct,
                                difference_triple)
from planarq.planarity import classify_pair, f_poly, is_planar_det, prop1_necessary


def test_build_tower_orders():
    t = build_tower(5, 1)
    assert (t.q, t.order_top) == (5, 125)
    t = build_tower(3, 2)
    assert (t.q, t.order_top) == (9, 729)


def test_build_tower_rejects_non_odd_primes():
    with pytest.raises(NotOddPrime):
        build_tower(2, 1)
    with pytest.raises(NotOddPrime):
        build_tower(9, 1)
    with pytest.raises(NotOddPrime):
        build_tower(1, 1)


def test_size_limit_and_env_override(monkeypatch):
    with pytest.raises(SizeLimit):
        build_tower(3, 7)
    build_tower(3, 3)  # 3^9 fits the default bound
    monkeypatch.setenv("PLANARQ_MAX_Q3", "100")
    with pytest.raises(SizeLimit):
        build_tower(5, 1)
    monkeypatch.setenv("PLANARQ_MAX_Q3", "200")
    build_tower(5, 1)


def test_fits_is_the_power_comparison():
    for p in (3, 5, 7):
        for n in range(61):
            for limit in (4, 100, 2 ** 24, 2 ** 48):
                assert _fits(p, n, limit) == (p ** n <= limit)


def test_prime_fields_are_shared():
    # one F_p per process, so the extensions cached on it are shared too
    assert PrimeField(7) is PrimeField(7)
    assert build_tower(7, 2).fq3 is build_tower(7, 2).fq3


def test_prime_field_arith():
    f5 = PrimeField(5)
    assert f5.add(3, 4) == 2
    assert f5.inv(3) == 2
    assert f5.mul(3, f5.inv(3)) == 1
    with pytest.raises(DivisionByZero):
        f5.inv(0)


def test_vector_ops_never_wrap_int64():
    p = 2 ** 32 - 5  # prime, and (p - 1)^2 > 2^63
    f = prime_ext_field(p, 1)
    assert f.mul(p - 1, p - 1) == 1
    with pytest.raises(SizeLimit):
        f.mul_vec([p - 1], [p - 1])


def test_mid_field_generator_square():
    # F_9 = F_3[t]/(t^2 + 1): t * t = -1 = 2
    t9 = build_tower(3, 2)
    assert t9.mid_modulus == (1, 0, 1)
    assert t9.fq.mul(3, 3) == 2  # t has coords (0, 1), so code 3


def test_field_ops_on_codes_and_level_mismatch():
    t = build_tower(5, 1)
    f, a, b = t.fq3, 7, 9
    assert f.sub(f.add(a, b), b) == a
    assert f.div(f.mul(a, b), b) == a
    assert f.neg(f.neg(a)) == a
    assert f.pow(a, 0) == 1
    with pytest.raises(LevelMismatch):
        classify_pair(t, a, 2)  # a code of F_{q^3} outside F_q
    with pytest.raises(DivisionByZero):
        f.inv(0)


# every entry point that takes the pair (a, b) of F_q codes; c is a code of
# F_{q^3}, the shift or the normal element where the entry point takes one
_PAIR_ENTRY_POINTS = {
    "f_poly": lambda t, a, b, c: (lambda poly: (poly.field, poly.terms))(f_poly(t, a, b)),
    "classify_pair": lambda t, a, b, c: classify_pair(t, a, b),
    "is_planar_det": lambda t, a, b, c: is_planar_det(t, a, b),
    "prop1_necessary": lambda t, a, b, c: prop1_necessary(t, a, b),
    "build_F_det": lambda t, a, b, c: build_F_det(t, a, b),
    "build_F_paper": lambda t, a, b, c: build_F_paper(t, a, b),
    "verify_branch_factorization":
        lambda t, a, b, c: verify_branch_factorization(t, a, b, build_F_det(t, 1, 1)),
    "difference_triple": lambda t, a, b, c: difference_triple(t, a, b, c),
    "difference_matrix_direct": lambda t, a, b, c: difference_matrix_direct(t, a, b, c),
    "dickson_matrix": lambda t, a, b, c: dickson_matrix(t.fq3, *difference_triple(t, a, b, c)),
    "brute_kernel": lambda t, a, b, c: brute_kernel(t.fq3, *difference_triple(t, a, b, c)),
}
_SHIFT_ENTRY_POINTS = ("difference_triple", "difference_matrix_direct")


@pytest.mark.parametrize("name", _PAIR_ENTRY_POINTS)
def test_pair_entry_points_check_code_levels(towers, name):
    t = towers[5]
    call = _PAIR_ENTRY_POINTS[name]
    xi = find_normal_element(t)
    # (1, 1) lies on the trace line and is not planar, so every entry point
    # has a result, and is_planar_det a witness
    want = call(t, 1, 1, xi)
    assert call(t, np.int64(1), np.int64(1), np.int64(xi)) == want
    for a, b in ((t.q, 1), (1, t.q), (-1, 1), (1, t.order_top - 1)):
        with pytest.raises(LevelMismatch):
            call(t, a, b, xi)
    if name in _SHIFT_ENTRY_POINTS:
        for c in (t.order_top, -1):
            with pytest.raises(LevelMismatch):
                call(t, 1, 1, c)


# every entry point that takes a cubic's ten coefficient codes over F_q
_CUBIC_ENTRY_POINTS = {
    "find_linear_factors": find_linear_factors,
    "count_nonzero_fq_zeros": count_nonzero_fq_zeros,
    "divides": lambda field, coeffs: divides(field, coeffs, (1, 1, 1)),
    # the cubic is taken as the pair (1, 1)'s, over the prime field F_q
    "verify_branch_factorization": lambda field, coeffs: verify_branch_factorization(
        build_tower(field.order), 1, 1, coeffs),
}


@pytest.mark.parametrize("name", _CUBIC_ENTRY_POINTS)
def test_cubic_entry_points_check_code_levels(towers, name):
    t = towers[5]
    call = _CUBIC_ENTRY_POINTS[name]
    F = build_F_det(t, 1, 1)  # on the trace line: nonzero, with F_q points and lines
    want = call(t.fq, F)
    assert call(t.fq, tuple(np.int64(c) for c in F)) == want
    for bad in (t.q, -1, t.order_top - 1):
        with pytest.raises(LevelMismatch):
            call(t.fq, F[:9] + (bad,))
    with pytest.raises(ValueError):
        call(t.fq, F[:9])


def test_transform_H_checks_code_levels(towers):
    # the cubic's codes must lie in F_q and the normal element's in F_{q^3}
    t = towers[5]
    xi = find_normal_element(t)
    F = build_F_det(t, 1, 1)
    want = transform_H(t, F, xi)
    assert transform_H(t, tuple(np.int64(c) for c in F), np.int64(xi)) == want
    for bad in (t.q, -1, t.order_top - 1):
        with pytest.raises(LevelMismatch):
            transform_H(t, F[:9] + (bad,), xi)
    for c in (t.order_top, -1):
        with pytest.raises(LevelMismatch):
            transform_H(t, F, c)
    with pytest.raises(ValueError):
        transform_H(t, F[:9], xi)


def test_encode_decode_roundtrip():
    t = build_tower(3, 2)
    for f in (t.fq, t.fq3):
        for code in range(f.order):
            assert f.encode(f.coords(code)) == code


@pytest.mark.parametrize("p, c, n", [(3, 3, 7), (5, 2, 5), (7, 2, 3), (11, 1, 3), (23, 1, 2),
                                     (67, 1, 2)])
def test_chunk_tables_add_and_sub_like_the_field(p, c, n):
    # c is the largest width with p^(2c) <= 2^12, or 1 (p = 67); n is not a
    # multiple of c, so the top chunk is short where c > 1
    width, add, sub = _chunk_tables(p)
    assert width == c and add.shape == sub.shape == (p ** c, p ** c)
    f = prime_ext_field(p, n)
    rng = np.random.default_rng(p)
    u, v = rng.integers(0, f.order, size=(2, 2000))
    radix, chunks = p ** c, -(-n // c)
    pairs = list(zip(_decode(u, radix, chunks), _decode(v, radix, chunks)))
    assert np.array_equal(_encode([add[x, y] for x, y in pairs], radix), f.add_vec(u, v))
    assert np.array_equal(_encode([sub[x, y] for x, y in pairs], radix), f.sub_vec(u, v))


def test_find_irreducible_examples():
    f3, f5 = PrimeField(3), PrimeField(5)
    assert find_irreducible(f3, 2) == (1, 0, 1)        # t^2 + 1
    assert find_irreducible(f5, 3) == (1, 1, 0, 1)     # x^3 + x + 1
    assert find_irreducible(f3, 3) == (1, 2, 0, 1)     # x^3 + 2x + 1
    # determinism
    assert find_irreducible(f3, 5) == find_irreducible(f3, 5)


# The moduli fix every code, so these pin every report byte downstream.
_PINNED_IRREDUCIBLES = {
    (3, 1): {2: (1, 0, 1), 3: (1, 2, 0, 1), 4: (2, 1, 0, 0, 1), 5: (1, 2, 0, 0, 0, 1),
             6: (2, 1, 0, 0, 0, 0, 1), 7: (2, 0, 1, 0, 0, 0, 0, 1)},
    (5, 1): {2: (2, 0, 1), 3: (1, 1, 0, 1), 4: (2, 0, 0, 0, 1), 5: (1, 4, 0, 0, 0, 1)},
    (23, 1): {2: (1, 0, 1), 3: (3, 1, 0, 1)},
    (3, 2): {3: (3, 1, 0, 1)},
    (5, 2): {3: (6, 0, 0, 1)},
}


def test_find_irreducible_pinned():
    for (p, m), by_degree in _PINNED_IRREDUCIBLES.items():
        base = build_tower(p, m).fq
        for degree, modulus in by_degree.items():
            assert find_irreducible(base, degree) == modulus


def test_poly_divmod_needs_monic_divisor():
    f5 = PrimeField(5)
    assert _poly_divmod(f5, [1, 0, 1], [4, 1]) == ([1, 1], [2])  # x^2 + 1 = (x+1)(x-1) + 2
    for divisor in ([1, 2], [0, 0], []):
        with pytest.raises(ValueError):
            _poly_divmod(f5, [1, 0, 1], divisor)


def test_is_irreducible_matches_root_existence_on_cubics():
    f5 = PrimeField(5)
    for k in range(125):
        coeffs = [k % 5, (k // 5) % 5, (k // 25) % 5, 1]
        has_root = any(
            f5.add(f5.add(f5.pow(x, 3), f5.mul(coeffs[2], f5.mul(x, x))),
                   f5.add(f5.mul(coeffs[1], x), coeffs[0])) == 0
            for x in range(5))
        assert is_irreducible(f5, coeffs) == (not has_root)


def _trial_division_irreducible(base, poly):
    """Oracle: no monic divisor of degree 1..deg/2, by exhaustive division."""
    d = len(poly) - 1
    for e in range(1, d // 2 + 1):
        for k in range(base.order ** e):
            divisor = [(k // base.order ** i) % base.order for i in range(e)] + [1]
            if not _poly_divmod(base, poly, divisor)[1]:
                return False
    return True


@pytest.mark.parametrize("p, m, degrees", [(3, 1, (1, 2, 3, 4)), (5, 1, (1, 2, 3, 4)),
                                           (3, 2, (2, 3))], ids=["F3", "F5", "F9"])
def test_is_irreducible_matches_trial_division(p, m, degrees):
    base = build_tower(p, m).fq
    s = base.order
    for d in degrees:
        for k in range(s ** d):
            poly = [(k // s ** i) % s for i in range(d)] + [1]
            assert is_irreducible(base, poly) == _trial_division_irreducible(base, poly), poly


def test_field_axioms_exhaustive_small():
    # exhaustive triples over F_{q^3} for q = 3, vectorized per fixed c
    f = build_tower(3, 1).fq3
    codes = np.arange(f.order)
    A = codes[:, None]
    B = codes[None, :]
    AB = f.mul_vec(A, B)
    ApB = f.add_vec(A, B)
    assert np.array_equal(AB, f.mul_vec(B, A))
    assert np.array_equal(ApB, f.add_vec(B, A))
    for c in range(f.order):
        assert np.array_equal(f.mul_vec(AB, c), f.mul_vec(A, f.mul_vec(B, c)))
        assert np.array_equal(f.add_vec(ApB, c), f.add_vec(A, f.add_vec(B, c)))
        assert np.array_equal(f.mul_vec(ApB, c),
                              f.add_vec(f.mul_vec(A, c), f.mul_vec(B, c)))


def test_field_axioms_random_large():
    f = build_tower(5, 2).fq3  # 15625 elements, beyond the exhaustive cutoff
    rng = np.random.default_rng(7)
    n = 10_000
    a, b, c = (rng.integers(0, f.order, n) for _ in range(3))
    assert np.array_equal(f.mul_vec(f.mul_vec(a, b), c), f.mul_vec(a, f.mul_vec(b, c)))
    assert np.array_equal(f.mul_vec(a, f.add_vec(b, c)),
                          f.add_vec(f.mul_vec(a, b), f.mul_vec(a, c)))
    nz = a[a != 0]
    assert np.all(f.mul_vec(nz, f.pow_vec(nz, -1)) == 1)


def test_inverses_exhaustive():
    f = build_tower(3, 1).fq3
    for code in range(1, f.order):
        assert f.mul(code, f.inv(code)) == 1


def test_frobenius_properties(towers):
    t = towers[5]
    f = t.fq3
    rng = random.Random(11)
    for _ in range(200):
        x, y = rng.randrange(f.order), rng.randrange(f.order)
        lam = rng.randrange(t.q)  # subfield scalar
        assert f.frob(f.add(x, y)) == f.add(f.frob(x), f.frob(y))
        assert f.frob(f.mul(x, y)) == f.mul(f.frob(x), f.frob(y))
        assert f.frob(f.mul(lam, x)) == f.mul(lam, f.frob(x))
        assert f.frob(x, 1) == f.pow(x, t.q)  # matches generic exponentiation
        assert f.frob(x, 3) == x
    # subfield elements are fixed for any k
    for code in range(t.q):
        assert f.frob(code, 1) == code
        assert f.frob(code, 2) == code
    f9 = towers[9].fq3  # the nested tower, m = 2
    assert f9.frob(500, 1) == f9.pow(500, 9)
    assert f9.frob(500, 3) == 500


def test_fixed_field_size(towers):
    for q in (3, 5, 9):
        f = towers[q].fq3
        tab = f.frob_table(1)
        fixed = np.flatnonzero(tab == np.arange(f.order))
        assert len(fixed) == q
        assert np.all(fixed < q)  # the subfield embeds as an initial code segment


def test_unit_group_order(towers):
    for q in (3, 5):
        f = towers[q].fq3
        for code in range(1, f.order):
            assert f.pow(code, f.order - 1) == 1


def test_normal_element(towers):
    for q in (3, 5, 9):
        t = towers[q]
        xi = find_normal_element(t)
        assert xi == find_normal_element(t)  # deterministic
        assert xi >= t.q  # subfield elements can never be normal
        # independent oracle: the conjugates span, checked by enumerating all
        # q^3 F_q-combinations through generic exponentiation
        f = t.fq3
        conj = [xi, f.pow(xi, t.q), f.pow(xi, t.q ** 2)]
        span = set()
        for c0 in range(t.q):
            for c1 in range(t.q):
                base = f.add(f.mul(c0, conj[0]), f.mul(c1, conj[1]))
                for c2 in range(t.q):
                    span.add(f.add(base, f.mul(c2, conj[2])))
        assert len(span) == t.order_top
        # first-in-code-order contract
        for code in range(xi):
            cj = [code, f.pow(code, t.q), f.pow(code, t.q ** 2)]
            vecs = [f.coords(c) for c in cj]
            assert det3(t.fq, vecs) == 0


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1),
                                  (23, 1), (5, 2), (3, 3), (7, 2)])
def test_normal_element_is_first_nonzero_det_over_the_field(p, m):
    # the windowed search agrees with one det3 over every code of F_{q^3},
    # conjugates by generic exponentiation
    t = build_tower(p, m)
    f = t.fq3
    codes = np.arange(f.order)
    vecs = [f.coords(codes), f.coords(f.pow_vec(codes, t.q)),
            f.coords(f.pow_vec(codes, t.q ** 2))]
    assert find_normal_element(t) == np.flatnonzero(det3(t.fq, vecs))[0]


def test_normal_element_is_searched_once_per_tower(monkeypatch):
    t = build_tower(7, 1)
    xi = find_normal_element(t)
    searches = []
    monkeypatch.setattr(gf, "_least_code", lambda *args: searches.append(args))
    assert find_normal_element(t) == xi and searches == []
    # the bound is read on every call, also once the element is cached
    monkeypatch.setenv("PLANARQ_MAX_Q3", "4")
    with pytest.raises(SizeLimit):
        find_normal_element(t)


def test_least_code_tries_doubling_windows():
    windows = []

    def at_least(k):
        def test(codes):
            windows.append((int(codes[0]), int(codes[-1]) + 1))
            return codes >= k
        return test

    # the answer is the first code of the second window
    assert _least_code(4, 100, at_least(8)) == 8
    assert windows == [(4, 8), (8, 16)]
    # no code passes: every window up to stop, which cuts the last one short
    windows.clear()
    assert _least_code(4, 20, at_least(20)) is None
    assert windows == [(4, 8), (8, 16), (16, 20)]
    # an empty range tests nothing
    windows.clear()
    assert _least_code(5, 5, at_least(0)) is None
    assert windows == []


def test_sqrt_examples():
    t7 = build_tower(7, 1)
    assert t7.fq.sqrt_code(4) == 2  # 4 = -3 mod 7
    t5 = build_tower(5, 1)
    assert t5.fq.sqrt_code(2) is None  # squares mod 5 are {0, 1, 4}
    assert t5.fq.sqrt_code(0) == 0


def test_sqrt_full_properties(towers):
    for q in (7, 9, 13):
        t = towers[q]
        fq = t.fq
        squares = 0
        for a in range(q):
            r = fq.sqrt_code(a)
            if r is not None:
                squares += 1
                assert fq.mul(r, r) == a
                if a != 0:
                    other = fq.neg(r)
                    assert r <= other  # smaller root by canonical code
        assert squares == (q - 1) // 2 + 1


def test_tower_pickles_to_same_tower(towers):
    t = towers[9]
    t2 = pickle.loads(pickle.dumps(t))
    assert t2 == t
    # a field on its own pickles by value
    f = pickle.loads(pickle.dumps(t.fq3))
    assert f == t.fq3 and f.mul(17, 23) == t.fq3.mul(17, 23)


@pytest.mark.parametrize("p, m", [(3, 1), (5, 2)])
def test_unpickled_tower_shares_the_process_fields(p, m):
    t = build_tower(p, m)
    t2 = pickle.loads(pickle.dumps(t))
    assert t2 == t and hash(t2) == hash(t)
    assert t2.fq is t.fq and t2.fq3 is t.fq3


# ---------------------------------------------------------------------------
# code contract at m >= 2, against plain nested polynomial arithmetic
# ---------------------------------------------------------------------------

def _poly_mulmod(mul, add, sub, zero, a, b, mod):
    """a * b modulo the monic mod, coefficients combined by the given ops."""
    d = len(mod) - 1
    prod = [zero] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = add(prod[i + j], mul(x, y))
    for k in range(2 * d - 2, d - 1, -1):
        for l in range(d):
            prod[k - d + l] = sub(prod[k - d + l], mul(prod[k], mod[l]))
    return prod[:d]


def _digits(x, radix, count):
    out = []
    for _ in range(count):
        out.append(x % radix)
        x = x // radix
    return out


def _nested_mul(t, a, b):
    """fq3 product of codes (ints or arrays) in F_p[t]/(mid)[s]/(top), the
    moduli read from t: a tower, or a namespace with p, m, q and the moduli."""
    p, m, q = t.p, t.m, t.q

    def fp_add(x, y):
        return (x + y) % p

    def fp_sub(x, y):
        return (x - y) % p

    def fp_mul(x, y):
        return x * y % p

    def fq_add(x, y):
        return [fp_add(u, v) for u, v in zip(x, y)]

    def fq_sub(x, y):
        return [fp_sub(u, v) for u, v in zip(x, y)]

    def fq_mul(x, y):
        return _poly_mulmod(fp_mul, fp_add, fp_sub, 0, x, y, t.mid_modulus)

    def split(code):
        return [_digits(c, p, m) for c in _digits(code, q, 3)]

    top = [_digits(c, p, m) for c in t.top_modulus]
    prod = _poly_mulmod(fq_mul, fq_add, fq_sub, [0] * m, split(a), split(b), top)
    return sum(sum(d * p ** j for j, d in enumerate(c)) * q ** i for i, c in enumerate(prod))


def test_mul_matches_nested_oracle_exhaustive_q9():
    t = build_tower(3, 2)
    codes = np.arange(t.fq3.order, dtype=np.int64)
    A, B = codes[:, None], codes[None, :]
    assert np.array_equal(t.fq3.mul_vec(A, B), _nested_mul(t, A, B))
    rng = random.Random(9)
    for _ in range(2000):
        a, b = rng.randrange(t.fq3.order), rng.randrange(t.fq3.order)
        assert t.fq3.mul(a, b) == _nested_mul(t, a, b)


@pytest.mark.parametrize("p, m", [(5, 2), (3, 3)])
def test_mul_matches_nested_oracle_sampled(p, m):
    t = build_tower(p, m)
    f = t.fq3
    rng = np.random.default_rng(p ** m)
    a, b = (rng.integers(0, f.order, 20_000) for _ in range(2))
    assert np.array_equal(f.mul_vec(a, b), _nested_mul(t, a, b))
    for x, y in zip(a[:500].tolist(), b[:500].tolist()):
        assert f.mul(x, y) == _nested_mul(t, x, y)


@pytest.mark.parametrize("p, m", [(3, 2), (5, 2), (3, 3)])
def test_frobenius_is_power_q(p, m):
    t = build_tower(p, m)
    f = t.fq3
    rng = random.Random(p * m)
    for x in [rng.randrange(f.order) for _ in range(300)]:
        for k in (1, 2):
            assert f.frob(x, k) == f.pow(x, t.q ** k)
        assert f.frob(x, 3) == x
    if f.order <= 729:
        codes = np.arange(f.order, dtype=np.int64)
        for k in (1, 2):
            assert np.array_equal(f.frob_table(k), f.pow_vec(codes, t.q ** k))


def _monic(s, d):
    """Monic polynomials of degree d with coefficient codes below s."""
    return st.tuples(*[st.integers(0, s - 1)] * d).map(lambda c: c + (1,))


@st.composite
def _towers(draw):
    """Small towers with moduli drawn at random, rejected until irreducible,
    as namespaces holding what :func:`_nested_mul` reads and F_{q^3}."""
    p, m = draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]))
    q, fq, mid = p ** m, PrimeField(p), (0, 1)
    if m > 1:
        mid = draw(_monic(p, m).filter(lambda f: is_irreducible(fq, f)))
        fq = Field(p, fq, mid)
    top = draw(_monic(q, 3).filter(lambda f: is_irreducible(fq, f)))
    return SimpleNamespace(p=p, m=m, q=q, mid_modulus=mid, top_modulus=top,
                           fq3=Field(p, fq, top))


@settings(max_examples=40, deadline=None)
@given(t=_towers(), data=st.data())
def test_field_axioms_and_frobenius_property(t, data):
    f = t.fq3
    a, b, c = (data.draw(st.integers(0, f.order - 1)) for _ in range(3))
    assert f.mul(a, b) == f.mul(b, a) == _nested_mul(t, a, b)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.sub(f.add(a, b), b) == a and f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1
    assert f.frob(f.add(a, b)) == f.add(f.frob(a), f.frob(b))
    assert f.frob(f.mul(a, b)) == f.mul(f.frob(a), f.frob(b))
    assert f.frob(f.frob(f.frob(a))) == a
    assert f.mul_vec([a, b], [c, c]).tolist() == [f.mul(a, c), f.mul(b, c)]
