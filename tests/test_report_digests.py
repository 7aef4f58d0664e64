"""Report bytes of `verify`, `identities` and `scan`, pinned by digest.

Each case runs `planarq.cli.main` in this process on every argv of its group
and hashes, per run, the exit code and stdout (stderr carries wall-clock
times and is left out).  A refactor that moves any byte of these reports
changes a digest.
"""

import contextlib
import hashlib
import io

import pytest

from planarq.cli import main


def _verify_argvs(p, m, brute="on"):
    q = p ** m
    return [["verify", "--p", str(p), "--m", str(m), "--A", str(a), "--B", str(b),
             "--brute", brute] for a in range(q) for b in range(q)]


def _identities_argvs(p, m):
    return [["identities", "--p", str(p), "--m", str(m), "--samples", "100",
             "--seed", str(seed)] for seed in (0, 1)]


def _scan_argvs(p, m, methods="theorem,det,brute"):
    return [["scan", "--p", str(p), "--m", str(m), "--methods", methods]]


# (group, (p, m), SHA-256 over "<exit code>\n<stdout>" of every run in order)
_DIGESTS = [
    ("verify", (3, 1),
     "3be7d27e42b40e45aeb83f9aa750b4427769e64e6ecc52ad7bb47f0a278046a3"),
    ("verify", (5, 1),
     "d78a671e77d35f3bf84980fd5a38281ef246d4e648794930d13e0c77dd454bbd"),
    ("verify", (7, 1),
     "0dab960ba538b3fddc09046118aa250f310f2d055441751096c0542b73b5b056"),
    ("verify", (3, 2),
     "bdbbc8b9b952aee925e087ad2b8ff05fe3eb4eced2d4305a08b35e22e7499812"),
    # --brute off, as the benchmark's dossier runs, at a q with X<->Y notes
    ("verify-nobrute", (13, 1),
     "f2af557837370a87464e7ebc45bc7f1eafc0e90b42dc921892adfe6d66122586"),
    ("identities", (3, 1),
     "d5d8bdb26ae697af549d037c55baf3ca0d6a12072d05f35e519d28736d455737"),
    ("identities", (5, 2),
     "6e2b6ab93184754cbb81ba613a91fa64abfcb3ad5051296a79c38a170f2b2033"),
    ("scan", (5, 1),
     "99e62f9e99f6e14bf00c04f9466fb743c6c0837b48347e4c405f41209bf49262"),
    ("scan", (7, 1),
     "abe05ce763d124442b89125aaf3d156c42693816e574fb3ea04adf9bd232fa85"),
    ("scan", (3, 2),
     "d2c08a25f56ff026ac8d937d049eeadfbf7547b75051b680f5592371f389c0fe"),
    ("scan", (3, 1),
     "7fef9fffce4f2ed3d26ea2820fafe14d2766d9607f67de9a7e3c871b2e113970"),
    # the determinant authority alone: characteristic-3 twists at q = 27, and
    # q = 101 (about 0.6 s)
    ("scan-det", (3, 3),
     "759ea73b6c56e4beaff72b3584415f063c0d24438ad7dd99207daf84013d0430"),
    ("scan-det", (101, 1),
     "eaad21e84f0310f9a29519f0a9ed2c96ab03c768899ca98aeeaac19c13ece317"),
]
_ARGVS = {"verify": _verify_argvs, "identities": _identities_argvs, "scan": _scan_argvs,
          "verify-nobrute": lambda p, m: _verify_argvs(p, m, brute="off"),
          "scan-det": lambda p, m: _scan_argvs(p, m, methods="theorem,det")}


def _digest(argvs):
    h = hashlib.sha256()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        h.update(f"{code}\n{out.getvalue()}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("group, tower, digest", _DIGESTS,
                         ids=[f"{g}-{p}^{m}" for g, (p, m), _ in _DIGESTS])
def test_report_bytes_are_pinned(group, tower, digest):
    assert _digest(_ARGVS[group](*tower)) == digest
