"""CLI surface: flags, report files, exit codes."""

import functools
import inspect
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import det_sweep

import planarq.cli as cli
import planarq.curves as curves
import planarq.gf as gf
import planarq.linearized as linearized
import planarq.planarity as planarity
from planarq import build_tower
from planarq.cli import main
from planarq.identities import run_identities
from planarq.linearized import brute_kernel, difference_triple


def run_cli(*argv):
    return main(list(argv))


def test_scan_json_report(tmp_path):
    out = tmp_path / "scan.json"
    code = run_cli("scan", "--p", "5", "--m", "1",
                   "--methods", "theorem,det,brute", "--output", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["meta"] == {"p": 5, "m": 1, "q": 5, "seed": 0, "version": data["meta"]["version"]}
    assert data["summary"]["planar_count"] == 9
    assert data["summary"]["expected_count"] == 9
    assert data["summary"]["disagreements"] == []
    assert len(data["pairs"]) == 25
    rec = data["pairs"][0]
    assert set(rec) == {"A", "B", "verdicts", "branch", "witness"}


def test_scan_csv_report(tmp_path):
    out = tmp_path / "scan.csv"
    code = run_cli("scan", "--p", "5", "--format", "csv", "--output", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "A,B,theorem,det,brute,branch,witness"
    assert len(lines) == 26
    assert lines[1].startswith("0,0,true,true,,BranchBZero,")


def test_scan_determinism_across_workers(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("scan", "--p", "5", "--methods", "theorem,det,brute",
                   "--workers", "1", "--output", str(a)) == 0
    assert run_cli("scan", "--p", "5", "--methods", "theorem,det,brute",
                   "--workers", "3", "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_q3_policy(tmp_path):
    out = tmp_path / "q3.json"
    code = run_cli("scan", "--p", "3", "--methods", "theorem,brute",
                   "--output", str(out))
    assert code == 0  # subset holds; count equality is not asserted at q = 3
    data = json.loads(out.read_text())
    assert data["summary"]["planar_count"] >= 3
    assert "beyond_theorem" in data["summary"]


def test_verify_planar_pair(tmp_path):
    out = tmp_path / "v.json"
    assert run_cli("verify", "--p", "5", "--A", "2", "--B", "1",
                   "--output", str(out)) == 0
    d = json.loads(out.read_text())
    assert d["classification"] == {"planar": True, "branch": "BranchCubic"}
    assert d["det"]["planar"] and d["det"]["witness"] is None
    assert d["brute"]["planar"] is True
    assert len(d["curve"]["linear_factors"]) == 3
    assert d["curve"]["point_count_H"] == 0
    assert d["consistent"]


def test_verify_trace_line_pair(tmp_path):
    out = tmp_path / "v11.json"
    assert run_cli("verify", "--p", "5", "--A", "1", "--B", "1",
                   "--output", str(out)) == 0
    d = json.loads(out.read_text())
    assert not d["classification"]["planar"]
    assert d["det"]["witness"] is not None
    assert {"coeffs": [1, 1, 1], "ext": 1} in d["curve"]["linear_factors"]


def test_verify_irreducible_pair(tmp_path):
    out = tmp_path / "v22.json"
    assert run_cli("verify", "--p", "5", "--A", "2", "--B", "2",
                   "--output", str(out)) == 0
    d = json.loads(out.read_text())
    assert not d["classification"]["planar"]
    assert d["curve"]["linear_factors"] == []
    assert d["curve"]["point_count_H"] > 0


def test_identities_pass(capsys):
    assert run_cli("identities", "--p", "5", "--samples", "500", "--seed", "42") == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 4


def test_identities_pass_on_extension_tower(capsys):
    assert run_cli("identities", "--p", "3", "--m", "2", "--samples", "300",
                   "--seed", "7") == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 4


def test_identities_detect_tampering(monkeypatch, capsys):
    # deliberate sign flip in the Leibniz expansion must trip the batteries
    original = curves._det_coeffs

    def tampered(fq, a, b):
        return [fq.sub_vec(0, c) for c in original(fq, a, b)]

    monkeypatch.setattr(curves, "_det_coeffs", tampered)
    assert run_cli("identities", "--p", "3", "--samples", "200", "--seed", "1") == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[1].split()[0] for line in lines] == ["FAIL", "FAIL", "pass", "pass"]


def test_identities_default_run_on_extension_tower(capsys):
    assert run_cli("identities", "--p", "5", "--m", "2", "--seed", "0") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(": pass (" in line for line in lines)


def test_identities_stderr_reports_battery_times(capsys):
    assert run_cli("identities", "--p", "3", "--samples", "100", "--seed", "0") == 0
    cap = capsys.readouterr()
    assert cap.out == ("determinant identity: pass (243 checks)\n"
                       "X<->Y coefficient relation: pass (9 checks)\n"
                       "kernel criterion vs brute kernel: pass (27 checks)\n"
                       "matrix convention: pass (100 checks)\n")
    assert re.fullmatch(r"identities q=3: samples=100 seed=0 \(determinant identity \d+\.\d{3}s, "
                        r"X<->Y coefficient relation \d+\.\d{3}s, kernel criterion vs brute "
                        r"kernel \d+\.\d{3}s, matrix convention \d+\.\d{3}s\)\n", cap.err)


def test_identities_samples_past_the_bound_exit_one(monkeypatch, capsys):
    monkeypatch.setenv("PLANARQ_MAX_Q3", "1000")
    assert run_cli("identities", "--p", "7", "--samples", "2000") == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: identity samples over 2000 elements exceeds")
    assert run_cli("identities", "--p", "7", "--samples", "1000") == 0


def test_families_list(capsys):
    assert run_cli("families", "list") == 0
    out = capsys.readouterr().out
    for fid in ("T2.1", "T2.6", "T3.5"):
        assert fid in out


def test_families_check_good(capsys):
    assert run_cli("families", "check", "--id", "T3.5") == 0
    d = json.loads(capsys.readouterr().out)
    assert d["planar"] is True


def test_families_check_violations(capsys):
    assert run_cli("families", "check", "--id", "T2.2",
                   "--p", "3", "--n", "4", "--k", "2") == 0
    d = json.loads(capsys.readouterr().out)
    assert d["violations"] == ["n/gcd(k, n) must be odd"]


@pytest.mark.parametrize("n, k", [(-1, 3), (-5, 7)])
def test_families_check_t26_nonpositive_n(capsys, n, k):
    # gcd(k, n) = 1 holds for these, so only the n guard keeps the field unbuilt
    assert run_cli("families", "check", "--id", "T2.6", "--n", str(n), "--k", str(k)) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert json.loads(out)["violations"] == ["n must be >= 1"]


@pytest.mark.parametrize("args, message", [
    ("--id T2.5 --p 3 --k 1 --s 4 --u 100000", "u must be a code in [0, 27), got 100000"),
    ("--id T3.1 --p 3 --k 1 --s 2 --v 27", "v must be a code in [0, 27), got 27"),
    ("--id T3.3 --p 3 --m 1 --s 2 --omega -1", "omega must be a code in [0, 9), got -1"),
    ("--id T3.3 --p 3 --m 1 --s 2 --beta 9", "beta must be a code in [0, 9), got 9"),
    # not desk-verifiable, but the field is built to check the supplied code
    ("--id T2.5 --p 257 --k 1 --s 4 --u -5", "u must be a code in [0, 16974593), got -5"),
])
def test_families_check_code_out_of_range_exits_one(capsys, args, message):
    assert run_cli("families", "check", *args.split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_families_check_flagged(capsys):
    assert run_cli("families", "check", "--id", "T3.2",
                   "--p", "3", "--k", "1", "--s", "2") == 2


# huge parameters form no huge integer: structural-only instances, and
# desk-verifiable ones whose p-power exponents are reduced modulo p^n - 1
_HUGE_FAMILY_PARAMS = [
    ("--id T2.1 --p 3 --n 100000000", None),
    ("--id T2.3 --n 100000001", None),
    ("--id T3.4 --p 3 --e 1 --k 30000000", None),
    ("--id T2.6 --n 7 --k 100000001", "SparsePoly(x^14)"),          # as k = 3
    ("--id T3.1 --p 3 --k 1 --s 100000001", "SparsePoly(4*x^10)"),  # as s = 2
    ("--id T2.5 --p 3 --k 1 --s 100000000 --no-brute", "SparsePoly(19*x^4)"),  # as s = 4
    ("--id T3.3 --p 3 --m 1 --s 100000002", "SparsePoly(4*x^6 + x^4 + 5*x^2)"),  # as s = 2
    ("--id T3.2 --p 5 --k 1 --s 100000002 --no-brute",
     "SparsePoly(120*x^250 + x^26)"),                               # as s = 2
]


@pytest.mark.parametrize("args, polynomial", _HUGE_FAMILY_PARAMS,
                         ids=[a for a, _ in _HUGE_FAMILY_PARAMS])
def test_families_check_huge_parameters(capsys, args, polynomial):
    start = time.perf_counter()
    assert run_cli("families", "check", *args.split()) == 0
    assert time.perf_counter() - start < 5.0
    d = json.loads(capsys.readouterr().out)
    assert d["violations"] == []
    assert d["desk_verifiable"] is (polynomial is not None)
    assert d.get("polynomial") == polynomial


def test_scan_workers_capped(monkeypatch):
    # a fake pool records its size and maps serially: no process is started
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    tower = build_tower(3)
    serial = planarity.scan(tower, methods=("brute",), workers=1)
    for cpus, want in ((4, 4), (64, 9)):  # q^2 = 9 pairs
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report = planarity.scan(tower, methods=("brute",), workers=10 ** 9)
        assert sizes[-1] == want
        assert report.pairs == serial.pairs
        assert report.brute_shifts == serial.brute_shifts
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    sizes.clear()
    assert planarity.scan(tower, methods=("brute",), workers=10 ** 9).pairs == serial.pairs
    assert sizes == []  # one CPU: the serial path


def test_scan_without_brute_starts_no_pool(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a theorem,det scan started a worker pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert run_cli("scan", "--p", "5", "--methods", "theorem,det", "--workers", "4") == 0
    assert json.loads(capsys.readouterr().out)["summary"]["disagreements"] == []


def test_usage_errors_exit_one(capsys):
    assert run_cli("scan") == 1                      # missing --p
    assert run_cli("scan", "--p", "4") == 1          # not an odd prime
    assert run_cli("scan", "--p", "5", "--methods", "magic") == 1
    assert run_cli("verify", "--p", "5", "--A", "7", "--B", "0") == 1
    assert run_cli("families", "check", "--id", "nope") == 1
    assert run_cli("scan", "--p", "5", "--workers", "0") == 1
    assert run_cli("scan", "--p", "5", "--workers", "-3") == 1
    assert run_cli("scan", "--p", "3", "--m", "0") == 1
    assert run_cli("scan", "--p", "3", "--m", "-1") == 1
    assert run_cli("verify", "--p", "3", "--m", "0", "--A", "0", "--B", "0") == 1
    assert run_cli("identities", "--p", "3", "--m", "0") == 1
    assert run_cli("scan", "--p", "3", "--methods", ",") == 1
    assert run_cli("identities", "--p", "3", "--m", "2", "--samples", "0") == 1
    assert run_cli("identities", "--p", "3", "--samples", "-5") == 1
    assert run_cli("verify", "--p", "5", "--A", "2", "--B", "1", "--format", "csv") == 1
    huge = "1000000000000000000000007"  # far past every size bound: refused at once
    assert run_cli("scan", "--p", huge) == 1
    assert run_cli("verify", "--p", huge, "--A", "0", "--B", "0") == 1
    assert run_cli("families", "check", "--id", "T2.1", "--p", huge, "--n", "1") == 1
    assert run_cli("scan", "--p", "3", "--m", "1000000000000") == 1
    # a supplied element needs the field, and F_{3^300000003} is past 2^48
    assert run_cli("families", "check", "--id", "T2.5", "--p", "3", "--k", "100000001",
                   "--s", "100000004", "--u", "2") == 1


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.json")
    assert run_cli("scan", "--p", "3", "--output", out) == 1
    assert "error:" in capsys.readouterr().err
    assert run_cli("verify", "--p", "3", "--A", "0", "--B", "0", "--output", out) == 1
    assert "error:" in capsys.readouterr().err


def test_size_limit_is_config_error():
    assert run_cli("scan", "--p", "3", "--m", "7") == 1


def test_console_entrypoint_runs(src_env):
    proc = subprocess.run([sys.executable, "-m", "planarq.cli", "--version"],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0


def test_env_var_override(tmp_path, monkeypatch):
    monkeypatch.setenv("PLANARQ_MAX_Q3", "abc")
    assert run_cli("scan", "--p", "5") == 1  # not an integer: config error, no traceback
    monkeypatch.setenv("PLANARQ_MAX_Q3", "100")
    assert run_cli("scan", "--p", "5") == 1
    monkeypatch.setenv("PLANARQ_MAX_Q3", "200")
    assert run_cli("scan", "--p", "5", "--max-q3", "200") == 1  # the variable is the one knob
    out = tmp_path / "s.json"
    assert run_cli("scan", "--p", "5", "--output", str(out)) == 0


# -- the exit-2 tripwire: a wrong decider must fail the run ----------------

def _closed_form_overridden(monkeypatch, verdicts):
    """Make the closed form answer ``verdicts[(A, B)]`` for the listed pairs.

    It patches the core ``planarity._branches``, so ``classify_pair`` and
    ``scan``'s array pass both see the change; a pair turned planar is put on
    BranchSquare.
    """
    original = planarity._branches

    def patched(fq, a, b):
        hits = [np.array(h) for h in np.broadcast_arrays(*original(fq, a, b))]
        for (A, B), planar in verdicts.items():
            flip = (a == A) & (b == B) & (np.any(hits, axis=0) != planar)
            for h in hits:
                h[flip] = False
            hits[-1][flip] = planar
        return tuple(hits)

    monkeypatch.setattr(planarity, "_branches", patched)


def _scan_summary(tmp_path, p, methods, expect_exit, *extra):
    out = tmp_path / "scan.json"
    assert run_cli("scan", "--p", str(p), "--methods", methods, "--workers", "1",
                   "--output", str(out), *extra) == expect_exit
    return json.loads(out.read_text())["summary"]


def test_scan_flipped_closed_form_exits_two(tmp_path, monkeypatch):
    _closed_form_overridden(monkeypatch, {(2, 1): False})
    summary = _scan_summary(tmp_path, 5, "theorem,det", 2)
    assert summary["disagreements"] == [[2, 1]]


def test_scan_q3_missed_pair_is_beyond_theorem(tmp_path, monkeypatch):
    _closed_form_overridden(monkeypatch, {(0, 0): False})
    summary = _scan_summary(tmp_path, 3, "theorem,brute", 0)  # lower-bound policy
    assert summary["beyond_theorem"] == [[0, 0]]
    assert summary["disagreements"] == []


def test_scan_q3_false_planar_claim_exits_two(tmp_path, monkeypatch):
    _closed_form_overridden(monkeypatch, {(1, 1): True})
    summary = _scan_summary(tmp_path, 3, "theorem,brute", 2)
    assert summary["disagreements"] == [[1, 1]]
    assert summary["beyond_theorem"] == []


@pytest.mark.parametrize("p, m, planar", [(7, 2, 133), (101, 1, 297)], ids=["q49", "q101"])
def test_scan_reach(tmp_path, p, m, planar):
    summary = _scan_summary(tmp_path, p, "theorem,det", 0, "--m", str(m))
    assert summary["planar_count"] == summary["expected_count"] == planar
    assert summary["disagreements"] == []


_CORNER = (curves._MIDX[0, 0, 3], curves._MIDX[3, 0, 0])


def _table_corner_plus_one(fq, table):
    # the coefficient of c0^3 in det(0, 0, C) plus 1: every pair's cubic is wrong
    table[_CORNER] = fq.add(int(table[_CORNER]), 1)


def _b_cubed_zeroed(fq, table):
    # the B^3 coefficient m_03 is 8 N(R), never 0 at a shift R != 0
    table[curves._MIDX[0, 3, 0]] = 0


def _tamper_table(monkeypatch, edit):
    """Every reader of ``planarity._det_table`` gets a copy changed by edit."""
    original = planarity._det_table

    def patched(tower):
        table = original(tower).copy()
        edit(tower.fq, table)
        return table
    monkeypatch.setattr(planarity, "_det_table", patched)


@pytest.mark.parametrize("p, edit, message", [
    (5, _table_corner_plus_one, "scan q=5: planar=0 expected=9 disagreements=9 "),
    (3, _table_corner_plus_one, "scan q=3: planar=0 expected=3 disagreements=3 "),
    (5, _b_cubed_zeroed, "error: the B^3 coefficient"),
], ids=["tensor-corner", "tensor-corner-q3", "b-cubed"])
def test_scan_determinant_check_exits_two(monkeypatch, capsys, p, edit, message):
    _tamper_table(monkeypatch, edit)
    assert run_cli("scan", "--p", str(p), "--workers", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err
    # the cached table is untouched: unpatched, the scan passes again
    monkeypatch.undo()
    assert run_cli("scan", "--p", str(p), "--workers", "1") == 0


def test_identities_tampered_table_exits_two(monkeypatch, capsys):
    # the determinant battery checks the table the deciders read
    argv = ("identities", "--p", "3", "--samples", "100")
    _tamper_table(monkeypatch, _table_corner_plus_one)
    assert run_cli(*argv) == 2
    assert capsys.readouterr().out.startswith("determinant identity: FAIL")
    monkeypatch.undo()
    assert run_cli(*argv) == 0


def test_identities_print_the_same_bytes_without_the_dickson_oracle(monkeypatch, capsys):
    argvs = [("identities", "--p", "3", "--samples", "100"),
             ("identities", "--p", "5", "--m", "2", "--samples", "10")]
    plain = []
    for argv in argvs:
        assert run_cli(*argv) == 0
        plain.append(capsys.readouterr().out)

    def refuse(*args):
        raise AssertionError("identities called the Dickson oracle _dets_at")
    monkeypatch.setattr(planarity, "_dets_at", refuse)
    for argv, out in zip(argvs, plain):
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == out


def test_deciders_print_the_same_bytes_without_dickson(monkeypatch, capsys):
    # the Dickson matrix is the oracle's alone: neither decider builds one
    argvs = [("scan", "--p", "5", "--methods", "theorem,det"),
             ("verify", "--p", "5", "--A", "2", "--B", "1", "--brute", "off")]
    plain = []
    for argv in argvs:
        assert run_cli(*argv) == 0
        plain.append(capsys.readouterr().out)

    def refuse(*args):
        raise AssertionError("a decider built a Dickson matrix")
    monkeypatch.setattr(linearized, "_dickson", refuse)
    monkeypatch.setattr(planarity, "_dickson", refuse)
    for argv, out in zip(argvs, plain):
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == out


def test_scan_prints_the_same_bytes_without_public_curves_functions(monkeypatch, capsys):
    # a traced scan-det or brute bench run rejects any curves.* span, so the
    # scan may use the private curves._evaluate but no public curves function
    argv = ("scan", "--p", "5", "--methods", "theorem,det,brute", "--workers", "1")
    assert run_cli(*argv) == 0
    plain = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("the scan called a public curves function")
    public = {id(obj) for name, obj in vars(curves).items()
              if not name.startswith("_") and inspect.isfunction(obj)
              and obj.__module__ == curves.__name__}
    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "planarq"]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in public:
                monkeypatch.setattr(mod, name, refuse)
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == plain


def test_verify_tampered_determinant_exits_two(monkeypatch, capsys):
    # the per-pair step with (A, B) swapped: (2, 1) is planar, (1, 2) is not
    original = planarity._pair_cubic
    monkeypatch.setattr(planarity, "_pair_cubic", lambda t, a, b: original(t, b, a))
    assert run_cli("verify", "--p", "5", "--A", "2", "--B", "1") == 2
    out, err = capsys.readouterr()
    assert "closed form disagrees with determinant sweep" in json.loads(out)["inconsistencies"]
    assert "Traceback" not in err
    # the cached table is untouched: unpatched, the pair verifies again
    monkeypatch.undo()
    assert run_cli("verify", "--p", "5", "--A", "2", "--B", "1") == 0


def test_scan_stderr_reports_phase_times(capsys):
    assert run_cli("scan", "--p", "5") == 0
    err = capsys.readouterr().err
    assert re.search(r"\(det \d+\.\d\ds, pairs \d+\.\d\ds, scan \d+\.\d\ds\)", err)
    assert "brute shifts" not in err
    # with brute, the shifts its sweeps took, summed over the pairs
    assert run_cli("scan", "--p", "5", "--methods", "theorem,det,brute") == 0
    cap = capsys.readouterr()
    assert re.search(r"\(det \d+\.\d\ds, pairs \d+\.\d\ds, scan \d+\.\d\ds\)", cap.err)
    t = build_tower(5, 1)
    shifts = planarity.scan(t, methods=("theorem", "det", "brute")).brute_shifts
    # each of the 9 planar pairs sweeps all 11 orbits of F_5^* scaling and x -> x^5
    assert shifts >= 9 * len(gf.frob_orbit_reps(t.fq3)) == 99
    assert cap.err.endswith(f") brute shifts {shifts}\n")
    assert "shifts" not in cap.out


def test_verify_stderr_reports_phase_times(capsys):
    assert run_cli("verify", "--p", "5", "--A", "2", "--B", "1") == 0
    cap = capsys.readouterr()
    assert json.loads(cap.out)["consistent"]
    assert re.fullmatch(r"verify q=5 A=2 B=1: planar=True consistent=True \(tower \d+\.\d{3}s, "
                        r"det \d+\.\d{3}s, lines \d+\.\d{3}s, normal \d+\.\d{3}s, "
                        r"points \d+\.\d{3}s\)\n",
                        cap.err)


@pytest.mark.parametrize("argv, message", [
    (("verify", "--p", "5", "--A", "7", "--B", "0"),
     "error: A and B must be codes in [0, 5), got A=7, B=0\n"),
    (("verify", "--p", "5", "--A", "1", "--B", "-1"),
     "error: A and B must be codes in [0, 5), got A=1, B=-1\n"),
    (("scan", "--p", "5", "--methods", "magic"),
     "error: --methods needs names from theorem,det,brute, got 'magic'\n"),
    (("families", "check", "--id", "NOPE"),
     "error: unknown family id 'NOPE'; see `planarq families list`\n"),
])
def test_argument_value_errors_exit_one(capsys, argv, message):
    assert run_cli(*argv) == 1
    assert capsys.readouterr() == ("", message)


def _fail_factorizations(monkeypatch):
    original = curves.verify_branch_factorization

    def patched(tower, A, B, F):
        rep = original(tower, A, B, F)
        return {"checks": [dict(c, verified=False) for c in rep["checks"]], "ok": False}

    monkeypatch.setattr(curves, "verify_branch_factorization", patched)


def _non_root_witness(monkeypatch):
    def patched(tower, A, B):
        dets = det_sweep(tower, A, B)
        return False, int(np.flatnonzero(dets != 0)[0]) + 1

    monkeypatch.setattr(cli, "is_planar_det", patched)


# (A, B) over q = 5, a way to break one check, and the one message it must raise
_VERIFY_TRIPS = [
    pytest.param((2, 1), lambda mp: _closed_form_overridden(mp, {(2, 1): False}),
                 "closed form disagrees with determinant sweep", id="closed-form"),
    pytest.param((2, 1), lambda mp: mp.setattr(cli, "brute_is_planar", lambda poly: False),
                 "brute force disagrees with determinant sweep", id="brute"),
    pytest.param((2, 1), lambda mp: mp.setattr(cli, "prop1_necessary", lambda t, A, B: False),
                 "planar pair fails the necessary bijectivity condition", id="prop1"),
    pytest.param((2, 1), lambda mp: mp.setattr(curves, "count_nonzero_fq_zeros",
                                                lambda field, H: 4),
                 "point count contradicts the determinant sweep", id="point-count"),
    pytest.param((2, 1), _fail_factorizations,
                 "a claimed factorization failed to verify", id="factorization"),
    # (2, 1) is on the cubic branch: three verified F_5 lines that the oracle now misses
    pytest.param((2, 1), lambda mp: mp.setattr(curves, "find_linear_factors",
                                                lambda field, F: []),
                 "a verified branch line is missing from the line oracle", id="line-oracle"),
    pytest.param((1, 1), _non_root_witness,
                 "witness does not kill the determinant", id="witness"),
]


@pytest.mark.parametrize("pair, tamper, message", _VERIFY_TRIPS)
def test_verify_inconsistency_exits_two(tmp_path, monkeypatch, pair, tamper, message):
    tamper(monkeypatch)
    out = tmp_path / "v.json"
    assert run_cli("verify", "--p", "5", "--A", str(pair[0]), "--B", str(pair[1]),
                   "--output", str(out)) == 2
    d = json.loads(out.read_text())
    assert not d["consistent"]
    assert d["inconsistencies"] == [message]


@pytest.mark.parametrize("pair, tamper, message", _VERIFY_TRIPS)
def test_tampering_leaves_nothing_in_shared_caches(monkeypatch, capsys, pair, tamper, message):
    argv = ("verify", "--p", "5", "--A", str(pair[0]), "--B", str(pair[1]))
    assert run_cli(*argv) == 0
    clean = capsys.readouterr().out
    with monkeypatch.context() as mp:
        tamper(mp)
        assert run_cli(*argv) == 2
        assert json.loads(capsys.readouterr().out)["inconsistencies"] == [message]
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == clean


def test_H_coefficient_outside_fq_exits_two(monkeypatch, capsys):
    # every substitution column times q, a code of F_125 outside F_5: each
    # nonzero coefficient of H leaves F_5
    argv = ("verify", "--p", "5", "--A", "2", "--B", "1")
    assert run_cli(*argv) == 0
    clean = capsys.readouterr().out
    original = curves._substitution_matrix
    with monkeypatch.context() as mp:
        mp.setattr(curves, "_substitution_matrix",
                   lambda f3, xi: f3.mul_vec(original(f3, xi), 5))
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(r"error: coefficient code \d+ is not in F_5\n", err)
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == clean


def test_shared_fields_cache_only_what_their_construction_fixes(capsys):
    assert run_cli("verify", "--p", "5", "--A", "1", "--B", "4") == 0
    run_identities(build_tower(5, 2), samples=10)
    t = build_tower(5, 1)
    brute_kernel(t.fq3, *difference_triple(t, 1, 1, 1))
    # every field over F_5 is reached through the ("ext", d) entries
    fields, kinds, generated = [gf.PrimeField(5)], set(), []
    while fields:
        f = fields.pop()
        for key, value in f._cache.items():
            kind = key[0] if isinstance(key, tuple) else key
            kinds.add(kind)
            if kind == "ext":
                fields.append(value)
            elif kind == "generator":
                generated.append(f)
    assert kinds == {"frob", "ext", "H_matrix", "det_table", "normal", "generator"}
    for f in generated:  # the cached generator is what a fresh search finds
        n = f.order - 1

        def generates(codes):
            return np.all([f.pow_vec(codes, n // ell) != 1 for ell in gf._prime_factors(n)],
                          axis=0)
        lo = f.base.order if f.base else 2
        assert f._cache["generator"] == gf._least_code(lo, f.order, generates)
    table = t.fq3._cache["det_table"]
    assert table.shape == (10, 10) and table.max() < t.q
    f = t.fq3
    assert f._cache["normal"] == gf._least_code(t.q, f.order, lambda codes: gf.det3(t.fq, [
        f.coords(codes), f.coords(f.frob_vec(codes, 1)), f.coords(f.frob_vec(codes, 2))]) != 0)


# at q = 23 and 9: (1, 4) has no line, (2, 1) is planar; no pair at q = 9
# searches F_{q^2} for lines, and at q = 23 only (1, 11) does
_SHARED_ARGVS = [("verify", "--p", p, "--m", m, "--A", a, "--B", b)
                 for a, b in (("1", "4"), ("2", "1")) for p, m in (("23", "1"), ("3", "2"))]


def test_verify_in_one_process_prints_the_bytes_of_fresh_processes(src_env, capsys):
    fresh = [subprocess.run([sys.executable, "-m", "planarq.cli", *argv],
                            capture_output=True, text=True, env=src_env)
             for argv in _SHARED_ARGVS]
    # two rounds alternating the towers: the second reads only shared fields
    for _ in range(2):
        for argv, proc in zip(_SHARED_ARGVS, fresh):
            assert run_cli(*argv) == proc.returncode == 0
            assert capsys.readouterr().out == proc.stdout


def test_second_verify_at_a_tower_builds_no_field(monkeypatch, capsys):
    # a process that has built no field yet
    monkeypatch.setattr(gf, "_prime_field", functools.cache(gf._prime_field.__wrapped__))
    degrees = []
    original = gf.find_irreducible

    def spy(base, degree):
        degrees.append(degree)
        return original(base, degree)

    monkeypatch.setattr(gf, "find_irreducible", spy)
    assert run_cli("verify", "--p", "23", "--A", "1", "--B", "11") == 0
    assert sorted(degrees) == [2, 3]  # F_{q^2} for the line search, F_{q^3} for the tower
    degrees.clear()
    assert run_cli("verify", "--p", "23", "--A", "1", "--B", "8") == 0
    assert degrees == []


def test_one_verify_expands_the_cubic_once(monkeypatch, capsys):
    calls = []
    original = curves._det_coeffs

    def spy(fq, a, b):
        calls.append((a, b))
        return original(fq, a, b)

    monkeypatch.setattr(curves, "_det_coeffs", spy)
    # (1, 1) lies on the trace line, so the locus checks run on the cubic too
    assert run_cli("verify", "--p", "5", "--A", "1", "--B", "1") == 0
    assert json.loads(capsys.readouterr().out)["factorization"]["ok"]
    assert calls == [(1, 1)]
