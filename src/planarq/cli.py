"""Command-line front end: scans, single-pair dossiers, identity batteries,
family checks, with machine-readable JSON/CSV reports.

Exit codes: 0 all checks pass, 1 usage or configuration error, 2 mathematical
disagreement (the CI tripwire).  Report files are byte-identical for
identical (config, seed) whatever the worker count; wall-clock timings go to
stderr only.  The environment variable PLANARQ_MAX_Q3 (default 2^24) is the
one size setting, read by every command: no command enumerates more elements
than it allows.  A tower past it exits 1; a family past it is reported with
``desk_verifiable`` false.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import __version__
from .errors import Disagreement, NotOnLocus, PlanarqError
from .families import FAMILIES, FamilySpec, family_report
from .gf import build_tower, det3, find_normal_element
from .identities import run_identities
from .planarity import (
    ALL_METHODS,
    brute_is_planar,
    classify_pair,
    f_poly,
    is_planar_det,
    prop1_necessary,
    scan,
)

USAGE_EXIT = 1
DISAGREE_EXIT = 2

# brute decider joins a verify dossier automatically up to this field size
_AUTO_BRUTE_MAX = 4096

# integer parameters a catalog family may take (`families check --<name>`)
_FAMILY_PARAMS = ("p", "n", "k", "s", "e", "m", "u", "v", "omega", "beta")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _add_tower_args(p):
    p.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    p.add_argument("--m", type=_positive_int, default=1, help="q = p^m (default 1)")


def _add_output_args(p):
    p.add_argument("--output", type=str, default=None,
                   help="report file path (default: stdout)")
    p.add_argument("--seed", type=int, default=0, help="seed recorded in reports")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="planarq")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="classify every (A, B) pair")
    _add_tower_args(p_scan)
    _add_output_args(p_scan)
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    p_scan.add_argument("--methods", type=str, default="theorem,det",
                        help="comma list from theorem,det,brute")
    p_scan.add_argument("--workers", type=_positive_int, default=1)

    p_verify = sub.add_parser("verify", help="full dossier for one pair")
    _add_tower_args(p_verify)
    _add_output_args(p_verify)
    p_verify.add_argument("--A", type=int, required=True, help="canonical code of A")
    p_verify.add_argument("--B", type=int, required=True, help="canonical code of B")
    p_verify.add_argument("--brute", choices=("auto", "on", "off"), default="auto")

    p_ident = sub.add_parser("identities", help="run the identity batteries")
    _add_tower_args(p_ident)
    p_ident.add_argument("--samples", type=_positive_int, default=1000)
    p_ident.add_argument("--seed", type=int, default=0)

    p_fam = sub.add_parser("families", help="known planar families")
    fam_sub = p_fam.add_subparsers(dest="family_command", required=True)
    fam_sub.add_parser("list", help="list catalog entries and parameters")
    p_check = fam_sub.add_parser("check", help="validate/instantiate/brute-check")
    p_check.add_argument("--id", type=str, required=True)
    for name in _FAMILY_PARAMS:
        p_check.add_argument(f"--{name}", type=int, default=None)
    p_check.add_argument("--no-brute", action="store_true",
                         help="skip the exhaustive planarity check")
    return parser


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _scan_csv(report_dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["A", "B", "theorem", "det", "brute", "branch", "witness"])
    for rec in report_dict["pairs"]:
        v = rec["verdicts"]
        row = [rec["A"], rec["B"]]
        for method in ALL_METHODS:
            val = v.get(method)
            row.append("" if val is None else str(val).lower())
        row.append(rec["branch"] or "")
        row.append("" if rec["witness"] is None else rec["witness"])
        writer.writerow(row)
    return buf.getvalue()


def cmd_scan(args) -> int:
    methods = tuple(s.strip() for s in args.methods.split(",") if s.strip())
    bad = [m for m in methods if m not in ALL_METHODS]
    if bad or not methods:
        print(f"error: --methods needs names from {','.join(ALL_METHODS)}, "
              f"got {args.methods!r}", file=sys.stderr)
        return USAGE_EXIT
    tower = build_tower(args.p, args.m)
    report = scan(tower, methods=methods, workers=args.workers)
    rd = report.to_report_dict(seed=args.seed, version=__version__)
    _emit(_json_text(rd) if args.format == "json" else _scan_csv(rd), args.output)
    print(f"scan q={report.q}: planar={report.planar_count} "
          f"expected={report.expected_count} disagreements={len(report.disagreements)} "
          f"(det {report.timings['det']:.2f}s, pairs {report.timings['pairs']:.2f}s, "
          f"scan {report.timings['scan']:.2f}s)", file=sys.stderr)
    if report.disagreements:
        return DISAGREE_EXIT
    if report.q > 3 and report.planar_count != report.expected_count:
        return DISAGREE_EXIT
    return 0


def cmd_verify(args) -> int:
    from .curves import (
        build_F_det,
        count_nonzero_fq_zeros,
        find_linear_factors,
        transform_H,
        verify_branch_factorization,
    )

    tower = build_tower(args.p, args.m)
    if not (0 <= args.A < tower.q and 0 <= args.B < tower.q):
        print(f"error: A and B must be codes in [0, {tower.q}), got A={args.A}, B={args.B}",
              file=sys.stderr)
        return USAGE_EXIT
    A, B = tower.eq(args.A), tower.eq(args.B)
    cls = classify_pair(tower, A, B)
    clock = time.perf_counter()
    det_ok, witness = is_planar_det(tower, A, B)
    timings = {"det": time.perf_counter() - clock}
    run_brute = args.brute == "on" or (args.brute == "auto"
                                       and tower.order_top <= _AUTO_BRUTE_MAX)
    brute_ok = brute_is_planar(f_poly(tower, A, B)) if run_brute else None

    clock = time.perf_counter()
    F = build_F_det(tower, A, B)
    degenerate = F.is_zero()
    factors = None if degenerate else [
        {"coeffs": list(lf.coeffs), "ext": lf.ext}
        for lf in find_linear_factors(F)
    ]
    timings["lines"] = time.perf_counter() - clock
    try:
        branch_report = verify_branch_factorization(tower, A, B)
        factorization = {
            "checks": [{"name": c.name, "verified": c.verified, "scalar": c.scalar,
                        "alpha": c.alpha, "lines": [list(l) for l in c.lines],
                        "note": c.note} for c in branch_report.checks],
            "ok": branch_report.ok,
        }
    except NotOnLocus:
        branch_report = None
        factorization = {"checks": [], "ok": None}

    clock = time.perf_counter()
    xi = find_normal_element(tower)
    timings["normal"] = time.perf_counter() - clock
    clock = time.perf_counter()
    point_count = count_nonzero_fq_zeros(transform_H(tower, A, B, xi))
    timings["points"] = time.perf_counter() - clock

    inconsistencies = []
    if det_ok != cls.planar:
        inconsistencies.append("closed form disagrees with determinant sweep")
    if brute_ok is not None and brute_ok != det_ok:
        inconsistencies.append("brute force disagrees with determinant sweep")
    prop_ok = prop1_necessary(tower, A, B)
    if cls.planar and not prop_ok:
        inconsistencies.append("planar pair fails the necessary bijectivity condition")
    if (point_count == 0) != det_ok:
        inconsistencies.append("point count contradicts the determinant sweep")
    if branch_report is not None and not branch_report.ok:
        inconsistencies.append("a claimed factorization failed to verify")
    if witness is not None:
        from .linearized import dickson_matrix, difference_triple

        if det3(tower.fq3, dickson_matrix(difference_triple(tower, A, B, witness))) != 0:
            inconsistencies.append("witness does not kill the determinant")

    dossier = {
        "meta": {"p": tower.p, "m": tower.m, "q": tower.q, "seed": args.seed,
                 "version": __version__},
        "pair": {"A": args.A, "B": args.B},
        "classification": {"planar": cls.planar, "branch": cls.branch},
        "prop_necessary": prop_ok,
        "det": {"planar": det_ok,
                "witness": None if witness is None else witness.code,
                "witness_coeffs": None if witness is None else list(witness.coeffs)},
        "brute": {"planar": brute_ok, "ran": run_brute},
        "curve": {"degenerate_zero": degenerate, "linear_factors": factors,
                  "point_count_H": point_count, "xi": xi.code},
        "factorization": factorization,
        "consistent": not inconsistencies,
        "inconsistencies": inconsistencies,
    }
    _emit(_json_text(dossier), args.output)
    print(f"verify q={tower.q} A={args.A} B={args.B}: planar={det_ok} "
          f"consistent={not inconsistencies} "
          f"({', '.join(f'{k} {v:.3f}s' for k, v in timings.items())})", file=sys.stderr)
    return 0 if not inconsistencies else DISAGREE_EXIT


def cmd_identities(args) -> int:
    tower = build_tower(args.p, args.m)
    results = run_identities(tower, samples=args.samples, seed=args.seed)
    for r in results:
        print(r.line())
    times = ", ".join(f"{r.name} {r.seconds:.3f}s" for r in results)
    print(f"identities q={tower.q}: samples={args.samples} seed={args.seed} ({times})",
          file=sys.stderr)
    return 0 if all(r.passed for r in results) else DISAGREE_EXIT


def cmd_families(args) -> int:
    if args.family_command == "list":
        for fam in FAMILIES.values():
            names = [n for n, _ in fam.int_params] + [n for n, _ in fam.elem_params]
            print(f"{fam.id}: {fam.formula}")
            print(f"    parameters: {', '.join(names) if names else '(none)'}")
        return 0
    if args.id not in FAMILIES:
        print(f"error: unknown family id {args.id!r}; see `planarq families list`",
              file=sys.stderr)
        return USAGE_EXIT
    params = {name: getattr(args, name) for name in _FAMILY_PARAMS
              if getattr(args, name) is not None}
    report = family_report(FamilySpec(args.id, params), brute=not args.no_brute)
    print(_json_text(report), end="")
    return DISAGREE_EXIT if report["flagged"] else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        if args.command == "scan":
            return cmd_scan(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "identities":
            return cmd_identities(args)
        if args.command == "families":
            return cmd_families(args)
    except Disagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DISAGREE_EXIT
    except (PlanarqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
