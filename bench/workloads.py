"""The four benchmark workloads: their commands, set-up and output checks.

Every command is one ``planarq.cli.main(argv)`` call.  A workload's argv
lists are a pure function of the workload seed; scan reports do not depend
on it, so the scan digests below hold on every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re

# SHA-256 of the JSON scan report on stdout, recorded from the seed code.
# They pin every verdict, branch and witness (report byte-identity).
SCAN_DIGESTS = {
    (11, 1, "theorem,det"): "ac0d98ad75be806b6d048e0743213210bfaa7d0d1cb2ac1ebf8b8a4118d0dbd6",
    (13, 1, "theorem,det"): "0111539455d2901717a6da9763ce9cd556f5501e1f42305d4e2f9f2a60acb6bb",
    (17, 1, "theorem,det"): "1f9ffe8a10c0f3712c1ec48869df04dd457b7b17e7f44e79d4d6df455a1d783b",
    (7, 1, "theorem,det,brute"): "61a75738ad292df834553873ad68e068e70a47d6b8ac88457f0050196c942026",
    (3, 2, "theorem,det"): "a5b844b222771771c40c3171bb7966a03d9adca89b9a3a393073c98b571f3214",
}

DOSSIER_P = 23
# Distinct (A, B) pairs in one dossier pass; a run makes at least three passes
DOSSIER_PAIRS = 50

_BATTERY_LINE = re.compile(r"^[^:]+: pass \(\d+ checks\)$")


def count_formula(q: int) -> int:
    return 3 * q - 2 - 4 * math.gcd(3, q - 1)


def closed_form_planar(p: int, a: int, b: int) -> bool:
    """The three-branch criterion over the prime field F_p, in plain integers."""
    a3 = pow(a, 3, p)
    if b == 0 and (a3 + 1) % p:
        return True
    if (a3 - 2 * a * b + 1) % p == 0 and a3 != 1 and a3 != p - 1:
        return True
    return a == b * b % p and pow(b, 3, p) != 1


def _locus(p: int, a: int, b: int) -> str:
    if b == 0:
        return "b_zero"
    if (pow(a, 3, p) - 2 * a * b + 1) % p == 0:
        return "cubic"
    if a == b * b % p:
        return "square"
    if (a - 2 * b + 1) % p == 0:
        return "trace"
    return "other"


def _slopes(p: int, a: int, b: int) -> int:
    """F_p roots s of F_det(1, s, 0) = 2AB(1 + s^3) + (4AB^2 + 2B)s + (2A^2B + 4B^2)s^2.

    These are the slopes the line oracle walks, so they set most of the
    spread in verify latency between pairs off every locus.
    """
    c0, c1, c2 = 2 * a * b, 4 * a * b * b + 2 * b, 2 * a * a * b + 4 * b * b
    return sum(1 for s in range(p) if (c0 * (1 + s ** 3) + c1 * s + c2 * s * s) % p == 0)


def dossier_pairs(seed: int) -> list[tuple[int, int]]:
    """A seed-drawn sample of DOSSIER_PAIRS (A, B) codes, uniform over F_p^2.

    The sample is stratified by (locus, slope count), which sets most of the
    spread in verify latency: each stratum gets its share of the p^2 pairs
    (largest remainder), and the pairs within it are drawn at random.  So the
    traffic is that of uniformly random pairs, and the latency percentiles
    move little with the seed.
    """
    p, n = DOSSIER_P, DOSSIER_PAIRS
    strata: dict[tuple, list] = {}
    for a in range(p):
        for b in range(p):
            strata.setdefault((_locus(p, a, b), _slopes(p, a, b)), []).append((a, b))
    share = {k: n * len(v) / (p * p) for k, v in strata.items()}
    counts = {k: int(x) for k, x in share.items()}
    for k in sorted(share, key=lambda k: counts[k] - share[k])[:n - sum(counts.values())]:
        counts[k] += 1
    rng = random.Random(f"dossier:{seed}")
    pairs = [pair for k, v in strata.items() for pair in rng.sample(v, counts[k])]
    rng.shuffle(pairs)
    return pairs


def _scan(p, m, methods):
    return ["scan", "--p", str(p), "--m", str(m), "--methods", methods, "--workers", "1"]


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass of the workload."""
    if workload == "scan-det":
        return [_scan(p, 1, "theorem,det") for p in (11, 13, 17)]
    if workload == "brute":
        return [_scan(7, 1, "theorem,det,brute"),
                ["families", "check", "--id", "T2.6", "--n", "7", "--k", "3"],
                ["families", "check", "--id", "T2.1", "--p", "5", "--n", "5"]]
    if workload == "tower":
        rng = random.Random(f"tower:{seed}")
        return [_scan(3, 2, "theorem,det"),
                ["identities", "--p", "3", "--m", "2", "--samples", "100",
                 "--seed", str(rng.randrange(2 ** 31))],
                ["identities", "--p", "5", "--m", "2", "--samples", "10",
                 "--seed", str(rng.randrange(2 ** 31))]]
    if workload == "dossier":
        return [["verify", "--p", str(DOSSIER_P), "--A", str(a), "--B", str(b),
                 "--brute", "off"] for a, b in dossier_pairs(seed)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("scan-det", "brute", "tower", "dossier")

# Span-name prefixes a workload must never reach (checked on every traced run)
BYPASS = {
    "scan-det": ("curves.", "planarity.brute_is_planar", "linearized.brute_kernel"),
    "brute": ("curves.", "linearized.brute_kernel"),
    "tower": ("planarity.brute_is_planar",),
    "dossier": ("planarity.brute_is_planar", "linearized.brute_kernel"),
}


def _opt(argv, flag):
    return int(argv[argv.index(flag) + 1])


def setup_spec(argvs: list[list[str]]) -> dict:
    """The (p, m) towers and the (p, n) family fields that the commands use."""
    from planarq.families import FAMILIES

    towers, fields = set(), set()
    for argv in argvs:
        if argv[0] == "families":
            params = {flag[2:]: int(v) for flag, v in zip(argv[4::2], argv[5::2])}
            fields.add(FAMILIES[argv[argv.index("--id") + 1]].field_shape(params))
        else:
            towers.add((_opt(argv, "--p"), _opt(argv, "--m") if "--m" in argv else 1))
    return {"towers": sorted(towers), "fields": sorted(fields)}


def check(argv: list[str], rc: int, out: str) -> str | None:
    """None when the command's exit code and output are right, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    kind = argv[0]
    if kind == "scan":
        p, m = _opt(argv, "--p"), _opt(argv, "--m")
        q = p ** m
        rep = json.loads(out)
        s = rep["summary"]
        if len(rep["pairs"]) != q * q:
            return f"{len(rep['pairs'])} pairs, expected {q * q}"
        if not s["planar_count"] == s["expected_count"] == count_formula(q):
            return f"planar_count {s['planar_count']} != {count_formula(q)}"
        if s["disagreements"]:
            return f"disagreements {s['disagreements'][:5]}"
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != SCAN_DIGESTS[(p, m, argv[argv.index("--methods") + 1])]:
            return f"report digest {digest} differs from the recorded one"
        return None
    if kind == "verify":
        p, a, b = _opt(argv, "--p"), _opt(argv, "--A"), _opt(argv, "--B")
        d = json.loads(out)
        want = closed_form_planar(p, a, b)
        if not d["consistent"]:
            return f"inconsistent: {d['inconsistencies']}"
        if d["det"]["planar"] != want or d["classification"]["planar"] != want:
            return f"verdict differs from the closed form ({want})"
        return None
    if kind == "identities":
        lines = out.splitlines()
        if len(lines) != 4 or not all(_BATTERY_LINE.match(l) for l in lines):
            return f"battery lines {lines}"
        return None
    if kind == "families":
        rep = json.loads(out)
        if rep.get("planar") is not True or rep.get("flagged"):
            return f"family planar={rep.get('planar')} flagged={rep.get('flagged')}"
        return None
    return f"no check for {kind!r}"
