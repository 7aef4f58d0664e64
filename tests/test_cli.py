"""CLI surface: flags, report files, exit codes."""

import dataclasses
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
import planarq.planarity as planarity
from planarq import build_tower
from planarq.cli import main


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
    serial = planarity.scan(tower, workers=1)
    for cpus, want in ((4, 4), (64, 9)):  # q^2 = 9 pairs
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report = planarity.scan(tower, workers=10 ** 9)
        assert sizes[-1] == want
        assert report.pairs == serial.pairs
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    sizes.clear()
    assert planarity.scan(tower, workers=10 ** 9).pairs == serial.pairs
    assert sizes == []  # one CPU: the serial path


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

def _closed_form_overridden(monkeypatch, module, verdicts):
    """Make ``module.classify_pair`` answer ``verdicts[(A, B)]`` for the listed pairs."""
    original = planarity.classify_pair

    def patched(tower, A, B):
        cls = original(tower, A, B)
        planar = verdicts.get((A.code, B.code), cls.planar)
        return cls if planar == cls.planar else planarity.PairClass(planar)

    monkeypatch.setattr(module, "classify_pair", patched)


def _scan_summary(tmp_path, p, methods, expect_exit, *extra):
    out = tmp_path / "scan.json"
    assert run_cli("scan", "--p", str(p), "--methods", methods, "--workers", "1",
                   "--output", str(out), *extra) == expect_exit
    return json.loads(out.read_text())["summary"]


def test_scan_flipped_closed_form_exits_two(tmp_path, monkeypatch):
    _closed_form_overridden(monkeypatch, planarity, {(2, 1): False})
    summary = _scan_summary(tmp_path, 5, "theorem,det", 2)
    assert summary["disagreements"] == [[2, 1]]


def test_scan_q3_missed_pair_is_beyond_theorem(tmp_path, monkeypatch):
    _closed_form_overridden(monkeypatch, planarity, {(0, 0): False})
    summary = _scan_summary(tmp_path, 3, "theorem,brute", 0)  # lower-bound policy
    assert summary["beyond_theorem"] == [[0, 0]]
    assert summary["disagreements"] == []


def test_scan_q3_false_planar_claim_exits_two(tmp_path, monkeypatch):
    _closed_form_overridden(monkeypatch, planarity, {(1, 1): True})
    summary = _scan_summary(tmp_path, 3, "theorem,brute", 2)
    assert summary["disagreements"] == [[1, 1]]
    assert summary["beyond_theorem"] == []


@pytest.mark.parametrize("p, m, planar", [(7, 2, 133), (101, 1, 297)], ids=["q49", "q101"])
def test_scan_reach(tmp_path, p, m, planar):
    summary = _scan_summary(tmp_path, p, "theorem,det", 0, "--m", str(m))
    assert summary["planar_count"] == summary["expected_count"] == planar
    assert summary["disagreements"] == []


def _dets_outside_fq(tower, a, b, c):
    return np.full(np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(c)), tower.q)


def _dets_times_a(original):
    # values stay in F_q, but A * det has an A^1 B^3 term
    return lambda tower, a, b, c: tower.fq.mul_vec(original(tower, a, b, c), a)


def _b_cubed_zeroed(original):
    # the B^3 coefficient m[0, 3] is 8 N(R), never 0 at a shift R != 0
    def patched(tower, reps):
        m = original(tower, reps)
        m[0, 3, -1] = 0
        return m
    return patched


@pytest.mark.parametrize("p, name, patch, message", [
    (5, "_dets_at", lambda original: _dets_outside_fq, "is not in F_q"),
    (3, "_dets_at", lambda original: _dets_outside_fq, "is not in F_q"),
    (5, "_dets_at", _dets_times_a, "i + j > 3"),
    (5, "_det_coefficients", _b_cubed_zeroed, "B^3 coefficient"),
], ids=["outside-fq", "outside-fq-q3", "degree", "b-cubed"])
def test_scan_determinant_check_exits_two(monkeypatch, capsys, p, name, patch, message):
    monkeypatch.setattr(planarity, name, patch(getattr(planarity, name)))
    assert run_cli("scan", "--p", str(p), "--workers", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_verify_determinant_outside_fq_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(planarity, "_dets_at", _dets_outside_fq)
    assert run_cli("verify", "--p", "5", "--A", "2", "--B", "1") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "is not in F_q" in err
    assert "Traceback" not in err


def test_scan_stderr_reports_phase_times(capsys):
    assert run_cli("scan", "--p", "5") == 0
    assert re.search(r"\(det \d+\.\d\ds, pairs \d+\.\d\ds, scan \d+\.\d\ds\)",
                     capsys.readouterr().err)


def test_verify_stderr_reports_phase_times(capsys):
    assert run_cli("verify", "--p", "5", "--A", "2", "--B", "1") == 0
    cap = capsys.readouterr()
    assert json.loads(cap.out)["consistent"]
    assert re.fullmatch(r"verify q=5 A=2 B=1: planar=True consistent=True \(det \d+\.\d{3}s, "
                        r"lines \d+\.\d{3}s, normal \d+\.\d{3}s, points \d+\.\d{3}s\)\n",
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

    def patched(tower, A, B):
        rep = original(tower, A, B)
        rep.checks = [dataclasses.replace(c, verified=False) for c in rep.checks]
        return rep

    monkeypatch.setattr(curves, "verify_branch_factorization", patched)


def _non_root_witness(monkeypatch):
    def patched(tower, A, B):
        dets = det_sweep(tower, A.code, B.code)
        return False, tower.eq3(int(np.flatnonzero(dets != 0)[0]) + 1)

    monkeypatch.setattr(cli, "is_planar_det", patched)


# (A, B) over q = 5, a way to break one check, and the one message it must raise
_VERIFY_TRIPS = [
    pytest.param((2, 1), lambda mp: _closed_form_overridden(mp, cli, {(2, 1): False}),
                 "closed form disagrees with determinant sweep", id="closed-form"),
    pytest.param((2, 1), lambda mp: mp.setattr(cli, "brute_is_planar", lambda poly: False),
                 "brute force disagrees with determinant sweep", id="brute"),
    pytest.param((2, 1), lambda mp: mp.setattr(cli, "prop1_necessary", lambda t, A, B: False),
                 "planar pair fails the necessary bijectivity condition", id="prop1"),
    pytest.param((2, 1), lambda mp: mp.setattr(curves, "count_nonzero_fq_zeros", lambda H: 4),
                 "point count contradicts the determinant sweep", id="point-count"),
    pytest.param((2, 1), _fail_factorizations,
                 "a claimed factorization failed to verify", id="factorization"),
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
