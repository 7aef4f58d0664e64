"""Catalog of the known planar-polynomial families, with validation and checks.

The catalog is data.  Each entry (a ``Family``) holds its id, formula,
integer parameters and ambient-field shape F_{p^n}; its published integer
conditions; its element parameters, each a rule giving the condition a field
code must meet, the violation message and the search description; T3.3's set
condition, which needs the whole field enumerated; and the exponent ->
coefficient terms of its sparse polynomial.  ``family_report`` is the one
route into the catalog, and one pass of it serves every entry: check the
integer conditions, build the ambient field, check the supplied elements and
the set condition, fill each missing element with the first code in code
order that satisfies it, build the polynomial and brute-check it
(``brute_check_family``), each stage once.

Conditions are implemented exactly as published, even the two suspicious
ones (the mod-4 congruence in T3.2 and the garbled set condition in T3.3,
implemented as {a != 0 : a^(p^m) = -a and a^(p^s) = -a} empty); brute-force
planarity at small sizes is the arbiter, and an instance that validates but
fails the brute check is reported as a flagged discrepancy, never silently
patched.

Instances whose ambient field exceeds the enumeration budget are validated
structurally only: the integer conditions are checked, supplied elements too
while the field can be built, and element searches and the set condition are
skipped; the instance is marked not desk-verifiable.  Huge parameters never
become huge integers: desk-verifiability is decided from bit lengths, the
congruences use modular powers, and every p-power exponent p^j is formed as
p^(j mod n), which acts the same on F_{p^n} and is never 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .errors import ValidationFailed
from .gf import Field, _fits, _is_prime, _mult_order, max_enumeration_order, prime_ext_field
from .planarity import SparsePoly, brute_is_planar


@dataclass(frozen=True)
class FamilySpec:
    """A family id plus its parameter assignment (element params by code)."""

    id: str
    params: dict = dc_field(default_factory=dict)


def _odd(n: int) -> bool:
    return n % 2 == 1


class Cond(NamedTuple):
    """A published condition on an instance ``x`` and the message when it fails.

    A failed ``guard`` ends the checks, because the conditions after it
    assume it.
    """

    holds: Callable
    message: str
    guard: bool = False


class ElemParam(NamedTuple):
    """An element parameter, searched when not supplied.

    ``rule(x)`` gives, for the instance ``x`` with its field ``x.F``, the test
    a code must pass, the violation message and the search description.
    """

    name: str
    rule: Callable


@dataclass(frozen=True)
class Family:
    """One catalog entry; ``x`` below is an instance (see ``_instance``)."""

    id: str
    formula: str
    int_params: tuple                   # (name, doc) pairs
    shape: Callable                     # x -> (p, n) of the ambient F_{p^n}
    terms: Callable                     # x -> (exponent, coefficient) pairs
    conditions: tuple = ()              # Cond on the integer parameters
    elem_params: tuple = ()             # ElemParam
    set_condition: Cond | None = None   # needs the whole field enumerated

    def field_shape(self, params: dict) -> tuple[int, int]:
        """(characteristic, extension degree) of the ambient field."""
        return self.shape(SimpleNamespace(**params))


def _instance(fam: Family, params: dict, field: Field) -> SimpleNamespace:
    """The parameters as attributes, the field ``F`` and ``pw(j)``, which is
    p^j as an exponent: p^n = 1 modulo p^n - 1, so p^(j mod n) acts the same."""
    x = SimpleNamespace(**params)
    p, n = fam.shape(x)
    x.F, x.pw = field, lambda j: p ** (j % n)
    return x


# -- shared catalog data ------------------------------------------------------

_ODD_PRIME = Cond(lambda x: x.p != 2 and _is_prime(x.p), "p must be an odd prime")
_K_S_POSITIVE = Cond(lambda x: x.k >= 1 and x.s >= 1, "k and s must be >= 1", guard=True)
_K_GCD_ODD = Cond(lambda x: _odd(x.k // math.gcd(x.k, x.s)), "k/gcd(k, s) must be odd")


def _three_or_congruent(r: int) -> Cond:
    """3 | (s+k)/gcd(k, s), or p^k = p^s = 1 (mod r): r = 3 in T3.1, r = 4 in T3.2."""
    def holds(x):
        g = math.gcd(x.k, x.s)
        return (x.s // g + x.k // g) % 3 == 0 or pow(x.p, x.k, r) == 1 == pow(x.p, x.s, r)
    return Cond(holds, f"neither 3 | (s/gcd + k/gcd) nor p^k = p^s = 1 (mod {r})")


def _of_order(name: str, order: Callable, violation: str, search: str) -> ElemParam:
    """An element of multiplicative order ``order(x)``; the messages are
    formatted with that order."""
    def rule(x):
        n = order(x)
        return (lambda c: _mult_order(x.F, c) == n), violation.format(n), search.format(n)
    return ElemParam(name, rule)


_U_PRIMITIVE = _of_order("u", lambda x: x.F.order - 1, "u must be primitive",
                         "primitive element")
# ord(v) is p^(2k)+p^k+1 on F_{p^(3k)} (T3.1) and p^(3k)+p^(2k)+p^k+1 on
# F_{p^(4k)} (T3.2): (|F| - 1)/(p^k - 1) in both
_V_OF_ORDER = _of_order("v", lambda x: (x.F.order - 1) // (x.p ** x.k - 1),
                        "v must have multiplicative order {}", "element of order {}")


def _omega(x):
    # searched codes start at 1: omega = 0 satisfies the condition verbatim but
    # collapses the polynomial to a monomial
    return (lambda c: x.F.add(c, x.F.pow(c, x.pw(x.m))) == 0,
            "omega + omega^(p^m) = 0 fails", "nonzero omega with omega + omega^(p^m) = 0")


def _beta(x):
    # (p^(2m)-1)/gcd(p^m+1, p^s+1), with p^s+1 taken modulo p^m+1
    pm1 = x.p ** x.m + 1
    e = (x.F.order - 1) // math.gcd(pm1, pow(x.p, x.s, pm1) + 1)
    return (lambda c: x.F.pow(c, e) != 1,
            "beta^((p^(2m)-1)/gcd(p^m+1, p^s+1)) != 1 fails", "beta failing the power condition")


def _t33_set_empty(x):
    F, pm, ps = x.F, x.pw(x.m), x.pw(x.s)
    return not any(F.pow(a, pm) == F.neg(a) == F.pow(a, ps) for a in range(1, F.order))


def _t33_terms(x):
    F, w, b = x.F, x.omega, x.beta
    return [(x.pw(x.m) + 1, 1), (x.pw(x.s) + 1, F.mul(w, b)),
            (x.pw(x.m + x.s) + x.pw(x.m), F.mul(w, F.pow(b, x.pw(x.m))))]


def _t34_terms(x):
    # h sums x^(q^t) over t = 2i (i <= k) and t = 2j + 1 (j <= k - 1), that is
    # over t < m; G(x^(q^2+1)) = h(y - y^(q^m)) with y = x^(q^2+1), and the
    # coefficients +-1 are fixed by every p-power Frobenius
    m = 2 * x.k + 1

    def q(j):  # q^j, q = p^e
        return x.pw(x.e * j)

    out = [(2, 1), (2 * q(m), 1)]
    for t in range(m):
        out += [(q(t + 2) + q(t), 1), (q(m + t + 2) + q(m + t), x.F.neg(1))]
    return out


_TRINOMIAL = dict(
    int_params=(("n", "extension degree, >= 5 odd"),),
    shape=lambda x: (3, x.n),
    conditions=(Cond(lambda x: x.n >= 5, "n must be >= 5"),
                Cond(lambda x: _odd(x.n), "n must be odd")),
)

_P_K_S = (("p", "odd prime"), ("k", "third of the degree"), ("s", "twist"))

FAMILIES: dict[str, Family] = {fam.id: fam for fam in (
    Family(
        "T2.1", "x^2 in F_{p^n}",
        int_params=(("p", "odd prime"), ("n", "extension degree >= 1")),
        shape=lambda x: (x.p, x.n),
        conditions=(_ODD_PRIME, Cond(lambda x: x.n >= 1, "n must be >= 1")),
        terms=lambda x: [(2, 1)],
    ),
    Family(
        "T2.2", "x^(p^k+1) in F_{p^n}, k <= n/2, n/gcd(k, n) odd",
        int_params=(("p", "odd prime"), ("n", "extension degree"), ("k", "twist exponent")),
        shape=lambda x: (x.p, x.n),
        conditions=(_ODD_PRIME,
                    Cond(lambda x: x.k >= 1, "k must be >= 1", guard=True),
                    Cond(lambda x: 2 * x.k <= x.n, "k <= n/2 fails"),
                    Cond(lambda x: _odd(x.n // math.gcd(x.k, x.n)), "n/gcd(k, n) must be odd")),
        terms=lambda x: [(x.pw(x.k) + 1, 1)],
    ),
    Family(
        "T2.3", "x^10 + x^6 - x^2 in F_{3^n}, n >= 5 odd", **_TRINOMIAL,
        terms=lambda x: [(10, 1), (6, 1), (2, x.F.neg(1))],
    ),
    Family(
        "T2.4", "x^10 - x^6 - x^2 in F_{3^n}, n >= 5 odd", **_TRINOMIAL,
        terms=lambda x: [(10, 1), (6, x.F.neg(1)), (2, x.F.neg(1))],
    ),
    Family(
        "T2.5", ("x^(p^s+1) - u^(p^k-1) * x^(p^k + p^(2k+s)) in F_{p^(3k)}, "
                 "gcd(k, 3) = 1, k = s (mod 3), s != k, k/gcd(k, s) odd, u primitive"),
        int_params=_P_K_S,
        shape=lambda x: (x.p, 3 * x.k),
        conditions=(_ODD_PRIME, _K_S_POSITIVE,
                    Cond(lambda x: math.gcd(x.k, 3) == 1, "gcd(k, 3) = 1 fails"),
                    Cond(lambda x: x.k % 3 == x.s % 3, "k = s (mod 3) fails"),
                    Cond(lambda x: x.s != x.k, "s != k fails"),
                    _K_GCD_ODD),
        elem_params=(_U_PRIMITIVE,),
        terms=lambda x: [(x.pw(x.s) + 1, 1),
                         (x.pw(x.k) + x.pw(2 * x.k + x.s),
                          x.F.neg(x.F.pow(x.u, x.pw(x.k) - 1)))],
    ),
    Family(
        "T2.6", "x^((3^k+1)/2) in F_{3^n}, k >= 3 odd, gcd(k, n) = 1",
        int_params=(("n", "extension degree"), ("k", "odd exponent parameter")),
        shape=lambda x: (3, x.n),
        conditions=(Cond(lambda x: x.n >= 1, "n must be >= 1", guard=True),
                    Cond(lambda x: x.k >= 3, "k must be >= 3"),
                    Cond(lambda x: _odd(x.k), "k must be odd"),
                    Cond(lambda x: math.gcd(x.k, x.n) == 1, "gcd(k, n) = 1 fails")),
        # (3^k+1)/2 modulo 3^n - 1, from 3^k modulo twice that
        terms=lambda x: [((pow(3, x.k, 2 * (x.F.order - 1)) + 1) // 2, 1)],
    ),
    Family(
        "T3.1", ("x^(p^s+1) - v * x^(p^(2k) + p^(k+s)) in F_{p^(3k)}, k/gcd(k, s) odd, "
                 "ord(v) = p^(2k)+p^k+1, and 3 | (s+k)/gcd(k, s) or p^k = p^s = 1 (mod 3)"),
        int_params=_P_K_S,
        shape=lambda x: (x.p, 3 * x.k),
        conditions=(_ODD_PRIME, _K_S_POSITIVE, _K_GCD_ODD, _three_or_congruent(3)),
        elem_params=(_V_OF_ORDER,),
        terms=lambda x: [(x.pw(x.s) + 1, 1),
                         (x.pw(2 * x.k) + x.pw(x.k + x.s), x.F.neg(x.v))],
    ),
    Family(
        "T3.2", ("x^(p^s+1) - v * x^(p^(3k) + p^(k+s)) in F_{p^(4k)}, 2k/gcd(2k, s) odd, "
                 "ord(v) = p^(3k)+p^(2k)+p^k+1, and 3 | (s+k)/gcd(k, s) or "
                 "p^k = p^s = 1 (mod 4)"),
        int_params=(("p", "odd prime"), ("k", "quarter of the degree"), ("s", "twist")),
        shape=lambda x: (x.p, 4 * x.k),
        # the mod-4 congruence is in the published conditions; kept verbatim
        conditions=(_ODD_PRIME, _K_S_POSITIVE,
                    Cond(lambda x: _odd(2 * x.k // math.gcd(2 * x.k, x.s)),
                         "2k/gcd(2k, s) must be odd"),
                    _three_or_congruent(4)),
        elem_params=(_V_OF_ORDER,),
        terms=lambda x: [(x.pw(x.s) + 1, 1),
                         (x.pw(3 * x.k) + x.pw(x.k + x.s), x.F.neg(x.v))],
    ),
    Family(
        "T3.3", ("x^(p^m+1) + w*b * x^(p^s+1) + w*b^(p^m) * x^(p^m(p^s+1)) in F_{p^(2m)}, "
                 "w + w^(p^m) = 0, s > 0, b^((p^(2m)-1)/gcd(p^m+1, p^s+1)) != 1, "
                 "{a != 0 : a^(p^m) = -a = a^(p^s)} empty"),
        int_params=(("p", "odd prime"), ("m", "half of the degree"), ("s", "twist")),
        shape=lambda x: (x.p, 2 * x.m),
        conditions=(_ODD_PRIME, Cond(lambda x: x.m >= 1, "m must be >= 1"),
                    Cond(lambda x: x.s > 0, "s > 0 fails")),
        elem_params=(ElemParam("omega", _omega), ElemParam("beta", _beta)),
        set_condition=Cond(_t33_set_empty, "{a != 0 : a^(p^m) = -a = a^(p^s)} is nonempty"),
        terms=_t33_terms,
    ),
    Family(
        "T3.4", ("x^2 + x^(2q^m) + G(x^(q^2+1)) in F_{q^(2m)}, q = p^e, m = 2k+1, "
                 "G(y) = h(y - y^(q^m)), h = sum x^(q^(2i)), i <= k, plus "
                 "sum x^(q^(2j+1)), j <= k-1"),
        int_params=(("p", "odd prime"), ("e", "q = p^e"), ("k", "m = 2k + 1, k >= 0")),
        shape=lambda x: (x.p, 2 * x.e * (2 * x.k + 1)),
        conditions=(_ODD_PRIME, Cond(lambda x: x.e >= 1, "e must be >= 1"),
                    Cond(lambda x: x.k >= 0, "k must be >= 0")),
        terms=_t34_terms,
    ),
    Family(
        "T3.5", "x^2 + x^90 in F_{3^5}",
        int_params=(),
        shape=lambda x: (3, 5),
        terms=lambda x: [(2, 1), (90, 1)],
    ),
)}


# -- the stages ---------------------------------------------------------------

def _name_violations(fam: Family, params: dict) -> list[str]:
    known = {n for n, _ in fam.int_params} | {e.name for e in fam.elem_params}
    return ([f"unknown parameter {name!r}" for name in params if name not in known]
            + [f"missing parameter {name!r}" for name, _ in fam.int_params
               if name not in params])


def _conditions(fam: Family, params: dict) -> list[str]:
    """The violations that need no field: parameter names, integer conditions."""
    out = _name_violations(fam, params)
    if out:
        return out
    x = SimpleNamespace(**params)
    for cond in fam.conditions:
        if not cond.holds(x):
            out.append(cond.message)
            if cond.guard:
                break
    return out


def _elem_violations(fam: Family, params: dict, field: Field) -> list[str]:
    """Supplied elements failing their rule, then the set condition when the
    field is small enough to enumerate.  A supplied code outside [0, |F|)
    names no element, so it raises instead of being read modulo |F|."""
    x = _instance(fam, params, field)
    out = []
    for elem in fam.elem_params:
        if elem.name in params:
            if not 0 <= params[elem.name] < field.order:
                raise ValidationFailed(f"{elem.name} must be a code in [0, {field.order}), "
                                       f"got {params[elem.name]}")
            test, violation, _ = elem.rule(x)
            if not test(params[elem.name]):
                out.append(violation)
    cond = fam.set_condition
    if cond is not None and _fits(field.order, 1, max_enumeration_order()) and not cond.holds(x):
        out.append(cond.message)
    return out


def _resolve(fam: Family, params: dict, field: Field) -> dict:
    """The parameters with each missing element set to the first code in code
    order that passes its rule."""
    x = _instance(fam, params, field)
    out = dict(params)
    for elem in fam.elem_params:
        if elem.name not in out:
            test, _, what = elem.rule(x)
            out[elem.name] = next((c for c in range(1, field.order) if test(c)), None)
            if out[elem.name] is None:
                raise ValidationFailed(f"no {what} exists in F_{field.order}")
    return out


# -- public entry points ------------------------------------------------------

def desk_verifiable(spec: FamilySpec) -> bool:
    """Whether p^n is within the enumeration budget, decided without forming a
    huge p^n."""
    p, n = FAMILIES[spec.id].field_shape(spec.params)
    return _fits(p, n, max_enumeration_order())


def brute_check_family(poly: SparsePoly) -> bool:
    """Planarity of an instance's polynomial by the definition-level
    exhaustive check."""
    return brute_is_planar(poly)


def family_report(spec: FamilySpec, brute: bool = True) -> dict:
    """Validation + instantiation + brute outcome for one instance.

    An id that names no catalog entry raises ValidationFailed.
    """
    fam = FAMILIES.get(spec.id)
    if fam is None:
        raise ValidationFailed(f"unknown family id {spec.id!r}; see `planarq families list`")
    report: dict = {"id": spec.id, "formula": fam.formula, "params": dict(spec.params),
                    "violations": _conditions(fam, spec.params), "desk_verifiable": None,
                    "planar": None, "flagged": False}
    if report["violations"]:
        return report
    desk = desk_verifiable(spec)
    if desk or any(e.name in spec.params for e in fam.elem_params):
        field = prime_ext_field(*fam.field_shape(spec.params))
        report["violations"] = _elem_violations(fam, spec.params, field)
        if report["violations"]:
            return report
    report["desk_verifiable"] = desk
    if not desk:
        return report
    params = _resolve(fam, spec.params, field)
    poly = SparsePoly(field, fam.terms(_instance(fam, params, field)))
    report["params"] = params
    report["polynomial"] = repr(poly)
    if brute:
        # within the bound desk_verifiable checks, so the value table fits
        report["planar"] = brute_check_family(poly)
        report["flagged"] = report["planar"] is False
    return report
