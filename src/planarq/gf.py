"""Arithmetic for the tower F_p < F_q = F_{p^m} < F_{q^3}.

Every field element is identified by a canonical integer code.  An element of
a degree-d extension over a base field of order s has a coordinate vector
(c_0, ..., c_{d-1}) over the base (c_i multiplying t^i, t the residue class of
the generator) and its code is the little-endian packing sum(code(c_i) * s^i).
Consequences used throughout the package:

  * codes are reproducible across runs and machines once the moduli are fixed,
  * embedding a subfield element into the extension is the identity on codes,
  * ``code < s`` tests membership in the base field.

Since s is a power of p, the code of an element of F_{p^n} is also the
little-endian base-p packing of n flat F_p-digits, however the field was
built.  Arithmetic works on those digits alone.  Each field stores the digits
of every product of two flat basis elements (its F_p structure tensor),
computed once at construction from the base field and the modulus, and
builds the F_p matrix of each Frobenius power on first use; no operation goes
back through the base field.

Moduli are chosen deterministically (lexicographically smallest monic
irreducible, see :func:`find_irreducible`) unless explicit moduli are passed
for cross-checking against external tables.  :func:`standard_extension`
builds each deterministic extension once per base field, so the tower's
F_{q^3} is the same object the line oracle searches in.

Each operation is one kernel written with ``divmod``, ``+``, ``*`` and ``%``
only, so the same body runs on plain Python ints (the scalar methods, which
return ints) and on int64 numpy arrays (the ``*_vec`` methods, which accept
anything ``np.asarray`` handles and broadcast like ordinary numpy ufuncs).
Array entry points refuse a field whose digit products could pass 2^63.
:func:`det3` and the evaluations built on this module (linearized maps,
ternary cubics) take codes the same way, an int or an array, and go through
the ``*_vec`` entry points, so that guard covers them too; code that runs the
scalar kernels on ints takes its operations from :func:`_ops`, which hands it
the ``*_vec`` entry points as soon as an operand is an array.

Fields are immutable after construction apart from monotone internal caches,
so a tower can be shared freely across worker processes or threads.  The one
size policy, the enumeration bound of :func:`max_enumeration_order`, is read
from the environment at each check and is never stored on a field.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZero, LevelMismatch, NotOddPrime, PlanarqError, SizeLimit

DEFAULT_MAX_Q3 = 2 ** 24
MAX_Q3_ENV = "PLANARQ_MAX_Q3"


def max_enumeration_order() -> int:
    """Bound on the size of any set enumerated element by element: the
    PLANARQ_MAX_Q3 environment variable, or 2^24."""
    raw = os.environ.get(MAX_Q3_ENV)
    if raw is None:
        return DEFAULT_MAX_Q3
    try:
        return int(raw)
    except ValueError:
        raise PlanarqError(f"{MAX_Q3_ENV} must be an integer, got {raw!r}") from None


def _fits(p: int, n: int, limit: int) -> bool:
    """Whether p^n <= limit, for p >= 2.  Since p^n >= 2^n, an n of limit's
    bit length or more fails without forming p^n."""
    return n < limit.bit_length() and p ** n <= limit


def _check_enumerable(order: int, what: str) -> None:
    """Raise SizeLimit when ``what`` would enumerate more than the bound allows."""
    limit = max_enumeration_order()
    if order > limit:
        raise SizeLimit(f"{what} over {order} elements exceeds the enumeration bound {limit}")


def _is_prime(n: int) -> bool:
    """Trial division; n >= 2^48 (beyond any field this package builds) is refused."""
    if n < 2:
        return False
    if n >= 2 ** 48:
        raise SizeLimit(f"{n} is too large to test for primality (limit 2^48)")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1 in increasing order, by trial division."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


def _mult_order(field: Field, code: int) -> int:
    """Multiplicative order of a code in ``field`` (0 for the zero code)."""
    if code == 0:
        return 0
    n = field.order - 1
    order = n
    for ell in _prime_factors(n):
        while order % ell == 0 and field.pow(code, order // ell) == 1:
            order //= ell
    return order


# ---------------------------------------------------------------------------
# dense polynomials over an arbitrary coefficient field (little-endian lists)
# ---------------------------------------------------------------------------

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_divmod(field, a, b):
    """Quotient and remainder of a by the monic polynomial b."""
    b = _poly_trim(list(b))
    if not b or b[-1] != 1:
        raise ValueError(f"polynomial division needs a monic divisor, got {b}")
    db = len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    rem = list(a)
    for i in range(len(rem) - 1, db - 1, -1):
        coeff = rem[i]
        if coeff == 0:
            continue
        quo[i - db] = coeff
        for j in range(db + 1):
            rem[i - db + j] = field.sub(rem[i - db + j], field.mul(coeff, b[j]))
    return _poly_trim(quo), _poly_trim(rem)


def _poly_mulmod(field, a, b, f):
    """a * b modulo the monic polynomial f."""
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = field.add(prod[i + j], field.mul(x, y))
    return _poly_divmod(field, prod, f)[1]


def _poly_gcd(field, a, b):
    """Greatest common divisor of a and b; monic unless b is zero."""
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        lead = field.inv(b[-1])
        b = [field.mul(c, lead) for c in b]
        a, b = b, _poly_divmod(field, a, b)[1]
    return a


def is_irreducible(base, poly) -> bool:
    """Ben-Or's test: f of degree d over F_s is irreducible iff
    gcd(f, x^(s^i) - x) = 1 for 1 <= i <= d/2.

    x^(s^i) - x is the product of the monic irreducibles of degree dividing
    i, so a factor of f of degree i <= d/2 shows up at step i.
    """
    poly = _poly_trim(list(poly))
    d = len(poly) - 1
    if d < 1:
        return False
    lead = base.inv(poly[-1])
    f = [base.mul(c, lead) for c in poly]
    power = [0, 1]  # x^(s^i) mod f
    for _ in range(d // 2):
        acc, sq, e = [1], power, base.order
        while e:
            if e & 1:
                acc = _poly_mulmod(base, acc, sq, f)
            e >>= 1
            if e:
                sq = _poly_mulmod(base, sq, sq, f)
        power = acc
        x_term = power + [0] * (2 - len(power))
        x_term[1] = base.sub(x_term[1], 1)
        if len(_poly_gcd(base, f, x_term)) > 1:
            return False
    return True


def find_irreducible(base, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree.

    Candidates are ordered by the integer k whose base-|F| digits give the
    non-leading coefficients, digit i being the coefficient of t^i; this is
    ascending lexicographic order on (c_{d-1}, ..., c_0).
    """
    degree = int(degree)
    if degree < 1:
        raise ValueError("degree must be positive")
    for k in range(base.order ** degree):
        coeffs = _decode(k, base.order, degree) + [1]
        if is_irreducible(base, coeffs):
            return tuple(coeffs)
    raise AssertionError("unreachable: irreducibles of every degree exist")


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _decode(x, radix: int, count: int) -> list:
    """The ``count`` little-endian base-``radix`` digits of x (int or array)."""
    digits = []
    for _ in range(count):
        x, r = divmod(x, radix)
        digits.append(r)
    return digits


def _encode(digits, radix: int):
    """Inverse of :func:`_decode`."""
    acc = 0
    for d in reversed(digits):
        acc = acc * radix + d
    return acc


_CHUNK_CELLS = 2 ** 12


@functools.cache
def _chunk_tables(p: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(c, add, sub): add[u, v] and sub[u, v] are the digit-wise sum and
    difference mod p of two chunks u, v of c base-p digits, as read-only
    p^c x p^c int64 tables.  c is the largest width with p^(2c) <=
    _CHUNK_CELLS, or 1 for the primes p > 64 that have none.  Any code, split
    into base-p^c digits with :func:`_decode`, is a little-endian list of
    such chunks."""
    c = 1
    while p ** (2 * c + 2) <= _CHUNK_CELLS:
        c += 1
    u = _decode(np.arange(p ** c, dtype=np.int64), p, c)
    add = _encode([(x[:, None] + x) % p for x in u], p)
    sub = _encode([(x[:, None] - x) % p for x in u], p)
    add.setflags(write=False)
    sub.setflags(write=False)
    return c, add, sub


class Field:
    """F_{p^n} on flat base-p digits; built by PrimeField or ExtensionField.

    ``base`` and ``modulus`` record how the field was built.  They fix
    ``coords``/``encode`` (coordinates over the immediate base), equality and
    pickling; no operation uses the base after construction.
    """

    def __init__(self, char: int, base: Field | None = None, modulus=None):
        self.char = p = char
        self.base = base
        self.modulus = modulus
        self._cache: dict = {}
        if base is None:
            self.degree, n, self._radix = 1, 1, p
            products = {1: [(0, 0)]}
        else:
            d, m = len(modulus) - 1, base._n
            self.degree, n, self._radix = d, m * d, base.order
            # s^e modulo the modulus, as coordinates over the base
            red = [_poly_divmod(base, [0] * e + [1], modulus)[1] for e in range(2 * d - 1)]
            # flat basis element k has code p^k = p^a * s^i with (i, a) = divmod(k, m)
            products = {}
            for k1 in range(n):
                i1, a1 = divmod(k1, m)
                for k2 in range(n):
                    i2, a2 = divmod(k2, m)
                    c = base._mul(p ** a1, p ** a2)
                    code = _encode([base._mul(c, r) for r in red[i1 + i2]], base.order)
                    products.setdefault(code, []).append((k1, k2))
        self._n = n
        self.order = p ** n
        # the structure tensor: digit pairs (i, j) grouped by the product of
        # basis elements p^i * p^j, each group with that product's nonzero digits
        self._plan = tuple(
            (tuple(pairs), tuple((k, c) for k, c in enumerate(_decode(code, p, n)) if c))
            for code, pairs in products.items())
        # before its final reduction, output digit k of _mul is at most peak[k] * (p-1)^2
        peak = [0] * n
        for pairs, terms in self._plan:
            for k, c in terms:
                peak[k] += c * len(pairs)
        self._wraps = max(peak) * (p - 1) ** 2 >= 2 ** 63

    def __repr__(self):
        return f"F{self.order}"

    def __eq__(self, other):
        return other is self or (isinstance(other, Field) and other.char == self.char
                                 and other.base == self.base
                                 and other.modulus == self.modulus)

    def __hash__(self):
        return hash((self.char, self.base, self.modulus))

    def __reduce__(self):
        if self.base is None:
            return (PrimeField, (self.char,))
        return (ExtensionField, (self.base, self.modulus))

    # -- kernels: one body for Python ints and int64 arrays ------------------
    def _add(self, a, b):
        p = self.char
        if self._n == 1:
            return (a + b) % p
        da, db = _decode(a, p, self._n), _decode(b, p, self._n)
        return _encode([(x + y) % p for x, y in zip(da, db)], p)

    def _sub(self, a, b):
        p = self.char
        if self._n == 1:
            return (a - b) % p
        da, db = _decode(a, p, self._n), _decode(b, p, self._n)
        return _encode([(x - y) % p for x, y in zip(da, db)], p)

    def _neg(self, a):
        p = self.char
        if self._n == 1:
            return -a % p
        return _encode([-x % p for x in _decode(a, p, self._n)], p)

    def _mul(self, a, b):
        p = self.char
        if self._n == 1:
            return a * b % p
        da, db = _decode(a, p, self._n), _decode(b, p, self._n)
        out = [0] * self._n
        for pairs, terms in self._plan:
            s = 0
            for i, j in pairs:
                s = s + da[i] * db[j]
            for k, c in terms:
                out[k] = out[k] + (s if c == 1 else c * s)
        return _encode([x % p for x in out], p)

    def _pow(self, a, e):
        e = int(e)
        if e < 0:
            a, e = self._inv(a), -e
        result = a * 0 + 1
        while e:
            if e & 1:
                result = self._mul(result, a)
            e >>= 1
            if e:
                a = self._mul(a, a)
        return result

    def _inv(self, a):
        if np.any(a == 0):
            raise DivisionByZero("0 has no inverse")
        return self._pow(a, self.order - 2)

    def _frob(self, a, k=1):
        """a^(s^k), s the base order: an F_p-linear map of the digits."""
        k %= self.degree
        if k == 0:
            return a
        p = self.char
        da = _decode(a, p, self._n)
        out = []
        for col in self._frob_cols(k):
            acc = 0
            for i, c in col:
                acc = acc + c * da[i]
            out.append(acc % p)
        return _encode(out, p)

    def _frob_cols(self, k):
        """Nonzero entries (i, c) of each column of the matrix of x -> x^(s^k)."""
        cols = self._cache.get(("frob", k))
        if cols is None:
            p, n = self.char, self._n
            images = [_decode(self._pow(p ** i, self._radix ** k), p, n) for i in range(n)]
            cols = tuple(tuple((i, images[i][j]) for i in range(n) if images[i][j])
                         for j in range(n))
            self._cache[("frob", k)] = cols
        return cols

    # -- scalar entry points ---------------------------------------------------
    # The kernels themselves.  Kernels call each other by their private names,
    # so one public call is one field operation.
    add, sub, neg, mul, pow, inv, frob = _add, _sub, _neg, _mul, _pow, _inv, _frob

    def div(self, a: int, b: int) -> int:
        return self._mul(a, self._inv(b))

    def coords(self, a: int) -> tuple[int, ...]:
        """Coordinates of a over the immediate base field."""
        return tuple(_decode(a, self._radix, self.degree))

    def encode(self, coords) -> int:
        return _encode(coords, self._radix)

    def from_int(self, k: int) -> int:
        """Code of the constant k * 1 (an F_p multiple of the identity)."""
        return int(k) % self.char

    # -- array entry points ----------------------------------------------------
    def _arr(self, a):
        if self._wraps:
            raise SizeLimit(f"array arithmetic over {self!r} could overflow int64")
        return np.asarray(a, dtype=np.int64)

    def add_vec(self, a, b):
        return self._add(self._arr(a), self._arr(b))

    def sub_vec(self, a, b):
        return self._sub(self._arr(a), self._arr(b))

    def mul_vec(self, a, b):
        return self._mul(self._arr(a), self._arr(b))

    def pow_vec(self, a, e):
        return self._pow(self._arr(a), e)

    def frob_vec(self, a, k: int = 1):
        return self._frob(self._arr(a), k)

    # -- cached tables ---------------------------------------------------------
    def frob_table(self, k: int = 1):
        """Permutation array code -> code^(s^k) over the whole field."""
        k %= self.degree
        tabs = self._cache.setdefault("frobtab", {})
        if k not in tabs:
            _check_enumerable(self.order, "Frobenius table")
            tabs[k] = self._frob(self._arr(np.arange(self.order)), k)
        return tabs[k]

    def sqrt_code(self, a: int) -> int | None:
        """Smaller square root by code, or None when a is a non-square."""
        _check_enumerable(self.order, "square-root search")
        return next((c for c in range(self.order) if self._mul(c, c) == a), None)


def _ops(field: Field, *codes):
    """The field's (mul, add, sub) for the given codes: the scalar kernels on
    ints, the guarded ``*_vec`` entry points as soon as one code is an array."""
    if any(isinstance(c, np.ndarray) for c in codes):
        return field.mul_vec, field.add_vec, field.sub_vec
    return field.mul, field.add, field.sub


def orbit_reps(s: int, order: int) -> np.ndarray:
    """One code per orbit of F^* under scaling by F_s^*, for a field F of the
    given order whose codes are base-s packings of coordinates over its
    subfield F_s (s = p, or the order of the immediate base).

    These are the codes whose top nonzero base-s digit is 1, in increasing
    order: scaling by lambda in F_s^* scales every coordinate, so each orbit
    holds exactly one of them, (order - 1)/(s - 1) in all.  The other members
    have a top digit >= 2 at the same position, so each is the least code of
    its orbit.
    """
    blocks, k = [], 1
    while k < order:
        blocks.append(np.arange(k, 2 * k))
        k *= s
    return np.concatenate(blocks)


def PrimeField(p: int) -> Field:
    """F_p for an odd prime p; codes are the residues 0..p-1."""
    p = int(p)
    if p == 2 or not _is_prime(p):
        raise NotOddPrime(f"p must be an odd prime, got {p}")
    return Field(p)


def ExtensionField(base: Field, modulus) -> Field:
    """Degree-d extension of an existing field by a monic irreducible modulus."""
    modulus = tuple(int(c) for c in modulus)
    if len(modulus) < 3:
        raise ValueError("extension degree must be >= 2")
    if any(not 0 <= c < base.order for c in modulus):
        raise ValueError("modulus coefficients out of range")
    if modulus[-1] != 1:
        raise ValueError("modulus must be monic")
    if not is_irreducible(base, modulus):
        raise ValueError(f"modulus {modulus} is reducible over {base!r}")
    return Field(base.char, base, modulus)


def standard_extension(base: Field, degree: int) -> Field:
    """The degree-d extension of base by :func:`find_irreducible`, built once per base.

    Degree 1 is the base itself.  The field is cached on ``base``, so every
    caller asking for the same extension of the same field gets one object.
    The modulus is irreducible by construction, so it is not tested again.
    """
    if degree == 1:
        return base
    key = ("ext", degree)
    if key not in base._cache:
        base._cache[key] = Field(base.char, base, find_irreducible(base, degree))
    return base._cache[key]


def prime_ext_field(p: int, n: int) -> Field:
    """F_{p^n} over the prime field, with the deterministic modulus."""
    fp = PrimeField(p)
    if n > 1 and not _fits(p, n, 2 ** 48):
        raise SizeLimit(f"field order {p}^{n} too large to construct")
    return standard_extension(fp, n)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Elt:
    """A field element: its field plus the canonical integer code."""

    field: Field
    code: int

    def __post_init__(self):
        if not 0 <= self.code < self.field.order:
            raise ValueError(f"code {self.code} out of range for {self.field!r}")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coordinate vector over the immediate base field."""
        return self.field.coords(self.code)

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.code == other
        return (isinstance(other, Elt) and other.field == self.field
                and other.code == self.code)

    def __hash__(self):
        return hash(self.code)  # agrees with __eq__, which equates an Elt with its int code

    def __repr__(self):
        return f"{self.field!r}({self.code})"


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------

class FieldTower:
    """Immutable description of F_p < F_q = F_{p^m} < F_{q^3}."""

    def __init__(self, p, m, fp, fq, fq3, mid_modulus, top_modulus):
        self.p = p
        self.m = m
        self.q = p ** m
        self.order_top = self.q ** 3
        self.fp = fp
        self.fq = fq
        self.fq3 = fq3
        self.mid_modulus = mid_modulus
        self.top_modulus = top_modulus

    def __repr__(self):
        return f"FieldTower(p={self.p}, m={self.m}, q={self.q})"

    def __eq__(self, other):
        return (isinstance(other, FieldTower) and other.p == self.p and other.m == self.m
                and other.mid_modulus == self.mid_modulus
                and other.top_modulus == self.top_modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.mid_modulus, self.top_modulus))

    def __reduce__(self):
        return (build_tower, (self.p, self.m, self.mid_modulus, self.top_modulus))

    # -- element constructors -------------------------------------------------
    def eq(self, code: int) -> Elt:
        """Element of F_q from its canonical code."""
        return Elt(self.fq, int(code))

    def eq3(self, code: int) -> Elt:
        """Element of F_{q^3} from its canonical code."""
        return Elt(self.fq3, int(code))

    def embed(self, x: Elt) -> Elt:
        """Embed an F_q element into F_{q^3} (identity on codes)."""
        if x.field != self.fq:
            raise LevelMismatch(f"expected an F_q element, got {x.field!r}")
        return Elt(self.fq3, x.code)


def build_tower(p: int, m: int = 1, mid_modulus=None, top_modulus=None) -> FieldTower:
    """Construct the tower with deterministic (or explicitly supplied) moduli."""
    p, m = int(p), int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    limit = max_enumeration_order()
    # size first, so a huge p or m fails at once, before the primality test
    if p > 1 and not _fits(p, 3 * m, limit):
        raise SizeLimit(f"q^3 = {p}^{3 * m} exceeds the enumeration bound {limit}")
    fp = PrimeField(p)  # rejects p = 2 and composites
    if m == 1:
        fq = fp
        if mid_modulus is None:
            mid_modulus = (0, 1)
        mid_modulus = tuple(int(c) % p for c in mid_modulus)
        if len(mid_modulus) != 2 or mid_modulus[1] != 1:
            raise ValueError("mid modulus must be monic of degree 1 when m = 1")
    elif mid_modulus is None:
        fq = standard_extension(fp, m)
        mid_modulus = fq.modulus
    else:
        mid_modulus = tuple(int(c) for c in mid_modulus)
        if len(mid_modulus) != m + 1:
            raise ValueError(f"mid modulus must have degree {m}")
        fq = ExtensionField(fp, mid_modulus)
    if top_modulus is None:
        fq3 = standard_extension(fq, 3)
    else:
        top_modulus = tuple(int(c) for c in top_modulus)
        if len(top_modulus) != 4:
            raise ValueError("top modulus must have degree 3")
        fq3 = ExtensionField(fq, top_modulus)
    return FieldTower(p, m, fp, fq, fq3, mid_modulus, fq3.modulus)


def find_normal_element(tower: FieldTower) -> Elt:
    """First xi in code order whose conjugates {xi, xi^q, xi^(q^2)} form a basis.

    One ``det3`` per window [lo, hi) of codes, each twice as long as the
    codes before it, with the conjugates from ``frob_vec``; the first window
    holding a normal element gives the first one overall.  Normal elements
    always exist, and the codes below q (F_q itself) never are one, so the
    windows start at q and the search ends near the first normal code
    instead of at the field's end.
    """
    f = tower.fq3
    _check_enumerable(f.order, "normal-element search")  # the windows may reach the end
    lo, hi = tower.q, 2 * tower.q
    while True:
        codes = np.arange(lo, min(hi, f.order))
        vecs = [f.coords(codes), f.coords(f.frob_vec(codes, 1)), f.coords(f.frob_vec(codes, 2))]
        hits = np.flatnonzero(det3(tower.fq, vecs))
        if hits.size:
            return Elt(f, lo + int(hits[0]))
        lo, hi = hi, 2 * hi


def det3(field: Field, rows):
    """Determinant of a 3x3 matrix of codes (ints or arrays), by cofactor expansion."""
    (a, b, c), (d, e, g), (h, i, j) = rows
    mul, sub = field.mul_vec, field.sub_vec
    t1 = mul(a, sub(mul(e, j), mul(g, i)))
    t2 = mul(b, sub(mul(d, j), mul(g, h)))
    t3 = mul(c, sub(mul(d, i), mul(e, h)))
    return field.add_vec(sub(t1, t2), t3)
