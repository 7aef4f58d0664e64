"""Catalog validation, instantiation, and brute verification of the families."""

import contextlib
import hashlib
import io
import time

import pytest

from planarq import ValidationFailed, prime_ext_field
from planarq.cli import main
from planarq.families import FAMILIES, FamilySpec, desk_verifiable, family_report


def _violations(spec):
    return family_report(spec, brute=False)["violations"]


def test_catalog_has_eleven_entries():
    ids = list(FAMILIES)
    assert len(ids) == 11
    assert ids == ["T2.1", "T2.2", "T2.3", "T2.4", "T2.5", "T2.6",
                   "T3.1", "T3.2", "T3.3", "T3.4", "T3.5"]


def test_validate_t22_even_quotient():
    spec = FamilySpec("T2.2", {"p": 3, "n": 4, "k": 2})
    assert _violations(spec) == ["n/gcd(k, n) must be odd"]


def test_validate_t26_and_t35():
    assert _violations(FamilySpec("T2.6", {"n": 5, "k": 3})) == []
    assert _violations(FamilySpec("T3.5", {})) == []


def test_family_report_rejects_an_unknown_id():
    with pytest.raises(ValidationFailed) as exc:
        family_report(FamilySpec("T9.9", {}))
    assert str(exc.value) == "unknown family id 'T9.9'; see `planarq families list`"


def test_validate_unknown_and_missing(capsys):
    # the command reports the catalog's rejection of an unknown id
    assert main(["families", "check", "--id", "T9.9"]) == 1
    assert "unknown family id 'T9.9'" in capsys.readouterr().err
    out = _violations(FamilySpec("T2.2", {"p": 3}))
    assert any("missing parameter" in v for v in out)
    out = _violations(FamilySpec("T3.5", {"bogus": 1}))
    assert any("unknown parameter" in v for v in out)


def test_instantiate_trinomials():
    # coefficient codes over F_3^5: 2 is -1
    for spec, poly in ((FamilySpec("T2.3", {"n": 5}), "SparsePoly(x^10 + x^6 + 2*x^2)"),
                       (FamilySpec("T2.4", {"n": 5}), "SparsePoly(x^10 + 2*x^6 + 2*x^2)"),
                       (FamilySpec("T3.5", {}), "SparsePoly(x^90 + x^2)"),
                       (FamilySpec("T2.6", {"n": 5, "k": 3}), "SparsePoly(x^14)")):
        assert family_report(spec, brute=False)["polynomial"] == poly


def test_instantiate_x2_anywhere():
    for p, n in ((3, 1), (7, 2), (5, 3)):
        rep = family_report(FamilySpec("T2.1", {"p": p, "n": n}))
        assert rep["polynomial"] == "SparsePoly(x^2)"
        assert rep["planar"] is True


def test_element_search_is_deterministic():
    spec = FamilySpec("T2.5", {"p": 3, "k": 1, "s": 4})
    field = prime_ext_field(*FAMILIES[spec.id].field_shape(spec.params))
    r1 = family_report(spec, brute=False)["params"]
    assert family_report(spec, brute=False)["params"] == r1
    u = r1["u"]
    # u is the first primitive element in code order
    from planarq.gf import _mult_order

    assert _mult_order(field, u) == field.order - 1
    for code in range(1, u):
        assert _mult_order(field, code) != field.order - 1


def test_supplied_element_params_are_validated():
    spec = FamilySpec("T2.5", {"p": 3, "k": 1, "s": 4, "u": 1})  # 1 is not primitive
    assert _violations(spec) == ["u must be primitive"]
    spec = FamilySpec("T3.1", {"p": 3, "k": 1, "s": 2, "v": 2})
    assert _violations(spec) == ["v must have multiplicative order 13"]


def test_brute_checks_small_instances():
    cases = [
        FamilySpec("T2.2", {"p": 3, "n": 3, "k": 1}),
        FamilySpec("T2.5", {"p": 3, "k": 1, "s": 4}),
        FamilySpec("T3.1", {"p": 3, "k": 1, "s": 2}),
        FamilySpec("T3.3", {"p": 3, "m": 1, "s": 2}),
        FamilySpec("T3.4", {"p": 3, "e": 1, "k": 0}),
    ]
    for spec in cases:
        assert family_report(spec)["planar"] is True, spec


def test_t34_small_instances_expand_correctly():
    # k = 0 collapses to 2x^2 over F_9
    rep = family_report(FamilySpec("T3.4", {"p": 3, "e": 1, "k": 0}), brute=False)
    assert rep["polynomial"] == "SparsePoly(2*x^2)"
    # k = 1 over F_3^6 stays planar
    assert family_report(FamilySpec("T3.4", {"p": 3, "e": 1, "k": 1}))["planar"] is True


def test_t32_flagged_discrepancy():
    # the published side conditions admit p = 3, k = 1, s = 2, but no element
    # of the prescribed order yields a planar instance; the report must flag
    # the discrepancy rather than hide it
    rep = family_report(FamilySpec("T3.2", {"p": 3, "k": 1, "s": 2}))
    assert rep["violations"] == []
    assert rep["planar"] is False
    assert rep["flagged"] is True


def test_t32_good_instance_at_p5():
    # with p = 5 the mod-4 side condition holds and instances are planar
    rep = family_report(FamilySpec("T3.2", {"p": 5, "k": 1, "s": 2}))
    assert rep["violations"] == []
    assert rep["planar"] is True and rep["flagged"] is False


def test_t33_set_condition_excludes_bad_s():
    # s = 1 makes {a != 0 : a^(p^m) = -a = a^(p^s)} nonempty over F_9
    out = _violations(FamilySpec("T3.3", {"p": 3, "m": 1, "s": 1}))
    assert any("nonempty" in v for v in out)
    assert _violations(FamilySpec("T3.3", {"p": 3, "m": 1, "s": 2})) == []


def test_structural_only_validation_for_large_fields():
    spec = FamilySpec("T2.6", {"n": 25, "k": 7})
    assert _violations(spec) == []
    assert not desk_verifiable(spec)
    rep = family_report(spec)
    assert rep["desk_verifiable"] is False and rep["planar"] is None


def test_desk_verifiable_follows_the_bound(monkeypatch):
    spec = FamilySpec("T3.2", {"p": 5, "k": 1, "s": 2})
    assert desk_verifiable(spec)
    monkeypatch.setenv("PLANARQ_MAX_Q3", "4")
    assert not desk_verifiable(spec)


def test_b_zero_monomial_matches_family_shape(towers):
    # the B = 0 planar branch is the x^(q^2+1) monomial; the classifier and
    # the definition-level check must agree on it
    from planarq.planarity import SparsePoly, brute_is_planar, classify_pair

    t = towers[5]
    assert classify_pair(t, 0, 0).planar
    assert brute_is_planar(SparsePoly(t.fq3, {t.q ** 2 + 1: 1}))


# `planarq families <args>`: exit code and SHA-256 of stdout + stderr, recorded
# before the catalog became data; the report bytes must not move
_REPORT_DIGESTS = [
    ("list", 0,
     "fc53c2af968b61f6b6927efc22e8d61abba63d468336018d1734a0cb47635fcf"),
    # smallest valid instance of every entry (brute on)
    ("check --id T2.1 --p 3 --n 1", 0,
     "867adc9734a8c6370b3ad1f11a5dd5a2fd3f0b391bf6477f480c8e961643107b"),
    ("check --id T2.2 --p 3 --n 3 --k 1", 0,
     "d67aa0b00e6ea2fcadb94a9c1a91b8c39508f1c9d02be35f914fb7fe7c94a432"),
    ("check --id T2.3 --n 5", 0,
     "66bbea1702d6c3488d921011bf4e08070e0a401904c56d9bf72b00579db2f2c1"),
    ("check --id T2.4 --n 5", 0,
     "c795c43faa5a3d612b6e61598b4c08665eb43fa0a1236335a32a661c5bb884be"),
    ("check --id T2.5 --p 3 --k 1 --s 4", 0,
     "26d9f99572464a6dc1caa5eefeadc7c2b6fff1ae257cbf7cf9fb8d3eec172cff"),
    ("check --id T2.6 --n 1 --k 3", 0,
     "e54537d9ec361e38fa9733b2694ed66818859c36bfb5cd53875c7273d57e9844"),
    ("check --id T3.1 --p 3 --k 1 --s 2", 0,
     "52de4475d6b99f4ad839816f8cad51b11e1134078dad4fea62c5cb0ca32f65b3"),
    ("check --id T3.2 --p 3 --k 1 --s 2", 2,
     "cdeb2f0e962ccd8004761fed41ee75a943207196944c6d946dec954abf27af63"),
    ("check --id T3.3 --p 3 --m 1 --s 2", 0,
     "e7e4f824926c30bd7274e07808aac22d664bdd35d8c7db946966a3d89a58da5c"),
    ("check --id T3.4 --p 3 --e 1 --k 0", 0,
     "38811d83d10d762c4e84de76e3e9ee90e8a9a2554503d22607990c8ecd65c158"),
    ("check --id T3.5", 0,
     "64d5d1fd7f80d86c3a625928069444a66523dc4c33f69b0502bd929d9df410ca"),
    # one violating instance per entry with conditions (and the guards that
    # end the integer checks early)
    ("check --id T2.1 --p 4 --n 0", 0,
     "cc0d1270ddf762134ce52bfb78d6e45d50853756f1df1a5709164370c55c5e5e"),
    ("check --id T2.2 --p 3 --n 4 --k 2", 0,
     "151d57c943eef5e1bb738a1f47c9e8e0ea9a2ad99996637d33ab93ac072c3359"),
    ("check --id T2.2 --p 9 --n 0 --k 0", 0,
     "43170e6dcf5cbfdae8f0e4967f9f99df6742c220dbf114d8defc997b7e22360a"),
    ("check --id T2.3 --n 4", 0,
     "94f7c17a44beee6ff96bf96e83bfebcb0e2bbc02ce8a7f8eb80a03581abd14df"),
    ("check --id T2.4 --n 6", 0,
     "c5b30a9e68e948e523659957c015853b34cc6387cc1b1b5cb8aba66e02b3a20e"),
    ("check --id T2.5 --p 3 --k 3 --s 1", 0,
     "da22b59a6f0e826440417c783cdf71a960fc916b128135adf61f5ffa0be49ba2"),
    ("check --id T2.5 --p 3 --k 0 --s 1", 0,
     "a0e7e0d2e6d44f0b78f5e3fdd66d2ff1aed4d4213e64c05f99280a82a898177b"),
    ("check --id T2.6 --n 6 --k 2", 0,
     "07c90aa604399dfc6c819b995e3fbd97083496728017140e678d63cf72bf12df"),
    ("check --id T3.1 --p 3 --k 1 --s 1", 0,
     "799c408e3015e76b1751971083e8ff316e3f274791655276230d8673faa715db"),
    ("check --id T3.1 --p 3 --k 0 --s 2", 0,
     "967644126f2216b0e127d1d73a909f001248ac62326e9beeea209f803c2b88f9"),
    ("check --id T3.2 --p 3 --k 1 --s 1", 0,
     "42e212981994b4b0c2d93d7f46eca82e35fd2d51a9116316140d0b58fa4eea5a"),
    ("check --id T3.3 --p 3 --m 1 --s 1", 0,
     "950c21acf4316a28ce13b6687714e09a4d998f809b4ab4650b8202c4bab0d66d"),
    ("check --id T3.3 --p 9 --m 0 --s 0", 0,
     "15094b689f377772f30f89f203c465ad25da602f818be04bc496172ebbe58689"),
    ("check --id T3.4 --p 3 --e 0 --k -1", 0,
     "b94d956656601a7f24436428edc165af548d47037d41c6c17fa5104d98f6e824"),
    # the good p = 5 instance of T3.2 (p = 3 above is flagged, exit 2)
    ("check --id T3.2 --p 5 --k 1 --s 2", 0,
     "6f5fcfa9f2cd9192ae662734a9c56d9c821af9a0e705640d7f9221953dd6b343"),
    # structural only: beyond the enumeration budget; supplied elements are
    # still checked while the field can be built (up to 2^48), else exit 1
    ("check --id T2.6 --n 25 --k 7", 0,
     "c78f297bbea2ce2598323f63d63971741922369bc8cb259c4e68011171ac2019"),
    ("check --id T2.5 --p 257 --k 1 --s 4 --u 1", 0,
     "29ddf463c05f6ba1cf63e32901b2e633c0b8f77f328d82274852a92f785a8e10"),
    ("check --id T3.1 --p 257 --k 1 --s 2 --v 2", 0,
     "4144e31e0e3e2c229d7636209f3ee754260f0a3ef792c3aac95e1d9eec35f4ff"),
    ("check --id T3.3 --p 4099 --m 1 --s 2 --omega 1 --beta 1", 0,
     "ba97e7cea2f5ce5ef9872673d39a4efdd195890854a1c607f1032a27ff267796"),
    ("check --id T3.3 --p 4099 --m 1 --s 2", 0,
     "9624eb64118b909bb77bfc3e72eead37893481d0ab477c78a7238ea3a060858c"),
    ("check --id T2.5 --p 3 --k 11 --s 2 --u 2", 1,
     "1a47379a8f9c647fd82c9093ab5252c73c8be623efd0b705903b2b73ecd03d7f"),
    # supplied element parameters, failing and satisfying their conditions
    ("check --id T2.5 --p 3 --k 1 --s 4 --u 1", 0,
     "e8c0a6fe4479cccfa1de38a263471f9c3e134461965e1e707a1e9adafaf145c7"),
    ("check --id T2.5 --p 3 --k 1 --s 4 --u 5", 0,
     "f07aa19099ddcde812ad07e4bdb8f13b218e55bc1ba9298c0a5a8cac18c92018"),
    ("check --id T3.1 --p 3 --k 1 --s 2 --v 2", 0,
     "426a818656e06735303a9dec3176ae8005c41e06b92f29bc2514a8bd46065cb3"),
    ("check --id T3.1 --p 3 --k 1 --s 2 --v 3", 0,
     "ce2c48b60e6dc7cf3bd52c0d460309c5a4ddcb13139460a4225dda952a03b37f"),
    ("check --id T3.3 --p 3 --m 1 --s 2 --omega 3 --beta 4", 0,
     "e7e4f824926c30bd7274e07808aac22d664bdd35d8c7db946966a3d89a58da5c"),
    ("check --id T3.3 --p 3 --m 1 --s 2 --omega 1 --beta 1", 0,
     "9bdc4adb3a0d569cd195798eb4759a631794ce47a0d040c013f60a3b95296776"),
    # no brute check
    ("check --id T2.5 --p 3 --k 1 --s 4 --no-brute", 0,
     "3ff6beb1b949765638b2e88ef23372c11802fed8a5498c19d4f98e4503b2a478"),
    # unknown id (exit 1, stderr), unknown parameter, missing parameter
    ("check --id T9.9", 1,
     "30691ea8771aa2dc495d73442cd4dab6dd6bba1b33c152460a488d051665cb0d"),
    ("check --id T3.4 --p 3 --e 1 --k 0 --u 3", 0,
     "952f858c64c680dd0f9d7ac438d81b4998176a4c4b053a6b0d917a50d20c20c3"),
    ("check --id T2.2 --p 3", 0,
     "c7b2ae1a05b1705c5a6f89fde470ba04676e3292153702551e46b9b4e3e07d9d"),
]


@pytest.mark.parametrize("args, code, digest", _REPORT_DIGESTS,
                         ids=[a for a, _, _ in _REPORT_DIGESTS])
def test_report_bytes_are_pinned(args, code, digest):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["families"] + args.split()) == code
    assert hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest() == digest


def test_large_field_supplied_element_is_fast():
    # F_{3^21} is built to check u; its degree-21 modulus comes from Ben-Or's
    # test, and the field is not tested for irreducibility a second time
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main("families check --id T2.5 --p 3 --k 7 --s 1 --u 2".split())
    assert time.perf_counter() - start < 5
    assert code == 0
    assert hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest() == \
        "9a0bbfe536920fdea5e68b9b9d74a10bd8f08d4a36e544bfb20e0049f8c8f910"


@pytest.mark.parametrize("spec", [
    FamilySpec("T2.5", {"p": 3, "k": 1, "s": 4}),
    FamilySpec("T3.1", {"p": 3, "k": 1, "s": 2}),
    FamilySpec("T3.3", {"p": 3, "m": 1, "s": 2}),
], ids=lambda spec: spec.id)
def test_report_runs_each_stage_once(monkeypatch, spec):
    import planarq.families as families

    calls = {}

    def counted(name):
        original = getattr(families, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(families, name, wrapper)

    for name in ("_conditions", "prime_ext_field", "_elem_violations", "_resolve",
                 "SparsePoly", "brute_check_family", "brute_is_planar"):
        counted(name)
    rep = family_report(spec)
    assert rep["planar"] is True
    assert calls == {"_conditions": 1, "prime_ext_field": 1, "_elem_violations": 1,
                     "_resolve": 1, "SparsePoly": 1, "brute_check_family": 1,
                     "brute_is_planar": 1}
