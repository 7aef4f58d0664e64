"""Arithmetic for the tower F_p < F_q = F_{p^m} < F_{q^3}.

Every field element is identified by a canonical integer code.  An element of
a degree-d extension over a base field of order s has a coordinate vector
(c_0, ..., c_{d-1}) over the base (c_i multiplying t^i, t the residue class of
the generator) and its code is the little-endian packing sum(code(c_i) * s^i).
Consequences used throughout the package:

  * codes are reproducible across runs and machines, the moduli being fixed,
  * embedding a subfield element into the extension is the identity on codes,
  * ``code < s`` tests membership in the base field.

Elements are passed around as their codes alone.  An entry point that takes
the pair (A, B) in F_q^2 or a shift in F_{q^3} checks each code's level with
:func:`_codes_in`, a range check that raises LevelMismatch.

Since s is a power of p, the code of an element of F_{p^n} is also the
little-endian base-p packing of n flat F_p-digits, however the field was
built.  Arithmetic works on those digits alone.  Each field stores the digits
of every product of two flat basis elements (its F_p structure tensor),
computed once at construction from the base field and the modulus, and
builds the F_p matrix of each Frobenius power on first use; no operation goes
back through the base field.

Fields come from :func:`PrimeField` and :func:`standard_extension`, whose
moduli are chosen deterministically (lexicographically smallest monic
irreducible, see :func:`find_irreducible`), so a tower is determined by
(p, m).  :func:`standard_extension` builds each extension once per base
field, so the tower's F_{q^3} is the same object the line oracle searches in.
The least code that passes a test, a generator of F^* or a normal element,
comes from one windowed search, :func:`_least_code`.

Each operation is one kernel written with ``divmod``, ``+``, ``*`` and ``%``
only, so the same body runs on plain Python ints (the scalar methods, which
return ints) and on int64 numpy arrays (the ``*_vec`` methods, which accept
anything ``np.asarray`` handles and broadcast like ordinary numpy ufuncs).
Array entry points refuse a field whose digit products could pass 2^63.
Above this module a linearized map is its three coefficient codes and a
ternary cubic its ten, each passed with its field.  A core that takes codes
as ints or arrays (:func:`det3`, the determinant sweep's matrix, a cubic's
``curves._evaluate``) takes its mul, add, sub and frob from :func:`_ops`,
the one place that chooses: the scalar kernels on ints, so ints give ints,
and the guarded ``*_vec`` entry points as soon as an operand is an array, so
the guard covers every array pass.

Fields are immutable after construction apart from internal caches, which
hold only values fixed by the field's construction: the F_p matrix of each
Frobenius power, each extension built on it, the 10 x 10 substitution
matrix of each normal element given to ``curves.transform_H``, the least
generator of F^* (``"generator"``, from :func:`_generator`), and, on a
tower's F_{q^3}, its least normal element (``"normal"``, from
:func:`find_normal_element`) and the determinant's (10, 10) table of F_q
codes (``"det_table"``, from ``planarity._det_table``).  No cache
holds a whole-field table or a value that depends on one pair, so a tower can
be shared freely across worker processes or threads.  :func:`PrimeField`
returns one object per p, so every tower over p in a process, an unpickled
one included, shares its fields and their caches.  The one size policy, the
enumeration bound of :func:`max_enumeration_order`, is read from the
environment at each check and is never stored on a field.
"""

from __future__ import annotations

import functools
import operator
import os

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


def _least_code(lo: int, stop: int, test) -> int | None:
    """The least code in [lo, stop), lo >= 1, that passes ``test`` (codes ->
    bools, on an array), or None.  It is tried on the windows [lo, 2 lo),
    [2 lo, 4 lo), ..., so a search whose answer is near lo stops near it."""
    while lo < stop:
        hi = min(2 * lo, stop)
        hits = np.flatnonzero(test(np.arange(lo, hi)))
        if hits.size:
            return lo + int(hits[0])
        lo = hi
    return None


def _generator(f: Field) -> int:
    """The least code that generates F^*: g^(n/l) != 1 for every prime l of
    n = |F^*|, by :func:`_least_code` from the base field's order (2 for a
    prime field), as no code of the base field generates F^*; kept on F."""
    n, lo = f.order - 1, f.base.order if f.base else 2
    if "generator" not in f._cache:
        f._cache["generator"] = _least_code(lo, f.order, lambda c: np.all(
            [f.pow_vec(c, n // ell) != 1 for ell in _prime_factors(n)], axis=0))
    return f._cache["generator"]


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
    """F_{p^n} on flat base-p digits; F_p from PrimeField, an extension of
    ``base`` by the monic irreducible ``modulus`` from standard_extension.

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
        return (Field, (self.char, self.base, self.modulus))

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

    # -- whole-field enumerations ---------------------------------------------
    def frob_table(self, k: int = 1):
        """Permutation array code -> code^(s^k) over the whole field, built on
        each call; array callers apply :meth:`frob_vec` to the codes they hold."""
        _check_enumerable(self.order, "Frobenius table")
        return self.frob_vec(np.arange(self.order), k)

    def sqrt_code(self, a: int) -> int | None:
        """Smaller square root by code, or None when a is a non-square."""
        _check_enumerable(self.order, "square-root search")
        return next((c for c in range(self.order) if self._mul(c, c) == a), None)


def _ops(field: Field, *codes):
    """The field's (mul, add, sub, frob) for the given codes: the scalar
    kernels on ints, the guarded ``*_vec`` entry points as soon as one code is
    an array.  This is the one place that chooses between the two."""
    if any(isinstance(c, np.ndarray) for c in codes):
        return field.mul_vec, field.add_vec, field.sub_vec, field.frob_vec
    return field.mul, field.add, field.sub, field.frob


def _codes_in(field: Field, *codes) -> tuple[int, ...]:
    """The codes as ints, once each is checked to be a code of ``field``.

    Codes are Python or numpy integers; one outside [0, |field|) raises
    LevelMismatch, which is how an entry point refuses an F_{q^3} code where
    an element of F_q belongs.
    """
    out = tuple(operator.index(c) for c in codes)
    for c in out:
        if not 0 <= c < field.order:
            raise LevelMismatch(f"code {c} is not an element of {field!r}")
    return out


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


def frob_orbit_reps(field: Field) -> np.ndarray:
    """One code per orbit of F^* under scaling by F_s^* and x -> x^s, F_s the
    field ``field`` was built over (F_p for a prime field, where x -> x^p is
    the identity): the least code of each orbit, in increasing order.

    x -> x^s maps each F_s^* orbit onto one, as (lambda a)^s = lambda a^s for
    lambda in F_s, so it permutes the codes of :func:`orbit_reps`: the image
    of a rep, scaled by the inverse of its top nonzero base-s digit, is the
    rep of the image's orbit.  A rep is kept when it is the least along its
    cycle of that permutation, whose length divides the field's degree.
    """
    s = field._radix
    reps = orbit_reps(s, field.order)
    images = field.frob_vec(reps, 1)
    digits = np.stack(_decode(images, s, field.degree))
    top = digits[field.degree - 1 - np.argmax(digits[::-1] != 0, axis=0), np.arange(len(reps))]
    inverses = field.pow_vec(np.arange(s), s - 2)  # inverses in F_s, by code
    step = np.searchsorted(reps, field.mul_vec(inverses[top], images))
    least = at = np.arange(len(reps))
    for _ in range(field.degree - 1):
        at = step[at]
        least = np.minimum(least, at)
    return reps[least == np.arange(len(reps))]


def PrimeField(p: int) -> Field:
    """F_p for an odd prime p; codes are the residues 0..p-1.

    There is one F_p object per p and process, so the extensions that
    :func:`standard_extension` caches on it, and their own caches, are built
    once and shared by every tower over p.
    """
    p = int(p)
    if p == 2 or not _is_prime(p):
        raise NotOddPrime(f"p must be an odd prime, got {p}")
    return _prime_field(p)


@functools.cache
def _prime_field(p: int) -> Field:
    return Field(p)


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
# the tower
# ---------------------------------------------------------------------------

class FieldTower:
    """Immutable description of F_p < F_q = F_{p^m} < F_{q^3}, determined by (p, m).

    The fields are the process's shared ones from :func:`standard_extension`,
    and a tower pickles as (p, m), so an unpickled tower shares them too.
    """

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.q = p ** m
        self.order_top = self.q ** 3
        self.fq = standard_extension(PrimeField(p), m)
        self.fq3 = standard_extension(self.fq, 3)

    @property
    def mid_modulus(self) -> tuple[int, ...]:
        """The modulus of F_q over F_p; (0, 1), the polynomial t, when m = 1."""
        return self.fq.modulus if self.m > 1 else (0, 1)

    @property
    def top_modulus(self) -> tuple[int, ...]:
        """The modulus of F_{q^3} over F_q."""
        return self.fq3.modulus

    def __repr__(self):
        return f"FieldTower(p={self.p}, m={self.m}, q={self.q})"

    def __eq__(self, other):
        return isinstance(other, FieldTower) and (other.p, other.m) == (self.p, self.m)

    def __hash__(self):
        return hash((self.p, self.m))

    def __reduce__(self):
        return (build_tower, (self.p, self.m))


def build_tower(p: int, m: int = 1) -> FieldTower:
    """The tower over F_p with F_q = F_{p^m}, its moduli the deterministic ones."""
    p, m = int(p), int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    limit = max_enumeration_order()
    # size first, so a huge p or m fails at once, before the primality test
    if p > 1 and not _fits(p, 3 * m, limit):
        raise SizeLimit(f"q^3 = {p}^{3 * m} exceeds the enumeration bound {limit}")
    return FieldTower(p, m)  # PrimeField rejects p = 2 and composites


def find_normal_element(tower: FieldTower) -> int:
    """First xi in code order whose conjugates {xi, xi^q, xi^(q^2)} form a basis.

    :func:`_least_code` from q, as the codes below (F_q itself) are never
    normal, with one ``det3`` per window on the conjugates from ``frob_vec``.
    Normal elements always exist, so the search ends near the first one.
    The result is fixed by the tower, so it is searched for once and kept on
    F_{q^3}; the enumeration bound is still checked on every call.
    """
    f = tower.fq3
    _check_enumerable(f.order, "normal-element search")  # the windows may reach the end
    if "normal" not in f._cache:
        f._cache["normal"] = _least_code(tower.q, f.order, lambda codes: det3(tower.fq, [
            f.coords(codes), f.coords(f.frob_vec(codes, 1)), f.coords(f.frob_vec(codes, 2))]) != 0)
    return f._cache["normal"]


def det3(field: Field, rows):
    """Determinant of a 3x3 matrix of codes by cofactor expansion: ints give an int."""
    (a, b, c), (d, e, g), (h, i, j) = rows
    mul, add, sub, _ = _ops(field, a, b, c, d, e, g, h, i, j)
    t1 = mul(a, sub(mul(e, j), mul(g, i)))
    t2 = mul(b, sub(mul(d, j), mul(g, h)))
    t3 = mul(c, sub(mul(d, i), mul(e, h)))
    return add(sub(t1, t2), t3)
