"""planarq benchmark: drives ``planarq.cli.main(argv)`` as one closed-loop client.

    python3 bench/run.py --workload scan-det --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/``; no
install step is needed.  One run is one process and one workload:

* ``--trace 0`` makes at least three passes over the workload's commands,
  and more while another pass fits in ``--seconds`` of command time.  Between
  commands it samples set-up (fresh processes that import planarq and build
  the workload's towers), timed apart from the passes.  It reports the
  ``end_to_end`` metrics of BENCHMARK.json.
* ``--trace 1`` makes one pass with span wrappers on every layer module
  (see ``tracing.py``) and reports the ``per_layer`` metrics of one pass.

Every command's exit code and output are checked (``workloads.check``).  The
last stdout line is the result object; the full record, with the environment
block and the generated argv lists, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_SAMPLES = 9
MIN_PASSES = 3

# Runs in a fresh interpreter: import the package, build the workload's
# towers with both Frobenius tables and the normal element, print seconds.
_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import planarq.cli, planarq.curves
from planarq.gf import build_tower, find_normal_element, prime_ext_field
spec = json.loads(sys.argv[2])
for p, m in spec["towers"]:
    tower = build_tower(p, m)
    tower.fq3.frob_table(1)
    tower.fq3.frob_table(2)
    find_normal_element(tower)
for p, n in spec["fields"]:
    prime_ext_field(p, n)
print(time.perf_counter() - t0)
"""


def environment() -> dict:
    import numpy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "machine": platform.machine(),
           "cpu_model": None, "loadavg": list(os.getloadavg()), "commit": None}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((l.split(":", 1)[1].strip() for l in fh
                                     if l.startswith("model name")), None)
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        env["commit"] = ref
    return env


def measure_setup(spec: str) -> float:
    """Seconds a fresh interpreter spends on set-up (``workloads.setup_spec`` as JSON)."""
    done = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), spec],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
    return float(done.stdout)


def run_command(argv: list[str]) -> dict:
    """One closed-loop request: call the CLI, time it, check its output."""
    cli = sys.modules["planarq.cli"]
    out, err = io.StringIO(), io.StringIO()
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:
        problem = traceback.format_exc(limit=4)
    else:
        problem = None
    seconds = time.perf_counter() - start
    if problem is None:
        try:
            problem = workloads.check(argv, rc, out.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
    if problem is not None:
        problem += f" | stderr: {err.getvalue()[-500:]}"
    return {"argv": argv, "rc": rc, "seconds": seconds, "problem": problem}


def run_pass(argvs, results, tracer=None, between=None) -> float:
    """Runs each command once; returns their summed time, ``between`` left out."""
    seconds = 0.0
    for argv in argvs:
        if between is not None:
            between()
        if tracer is not None:
            tracer.command = len(results)
        results.append(run_command(argv))
        seconds += results[-1]["seconds"]
    return seconds


def quantile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def untraced(workload: str, argvs, seconds: float, record: dict) -> dict:
    results, pass_times, setup = [], [], []
    spec = json.dumps(workloads.setup_spec(argvs))
    # set-up samples are spread over the command time, between commands, so
    # that one slow spell of the machine reaches few of them
    spacing = seconds / SETUP_SAMPLES

    def sample_setup():
        if sum(r["seconds"] for r in results) >= spacing * len(setup):
            setup.append(measure_setup(spec))

    while len(pass_times) < MIN_PASSES or sum(pass_times) + pass_times[-1] <= seconds:
        pass_times.append(run_pass(argvs, results, between=sample_setup))
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(spec))
    n = len(argvs)
    # each request's latency is its median over the passes; a pass is
    # timed as the sum of those medians
    latency = [statistics.median(r["seconds"] for r in results[i::n]) for i in range(n)]
    by_kind: dict[str, float] = {}
    for argv, lat in zip(argvs, latency):
        by_kind[argv[0]] = by_kind.get(argv[0], 0.0) + lat
    record.update(results=results, pass_times=pass_times, setup_times=setup)
    detail = {f"{k}_s": v for k, v in by_kind.items()}
    detail["passes"] = len(pass_times)
    if workload == "dossier":
        detail.update(verify_p50_s=quantile(latency, 50), verify_p90_s=quantile(latency, 90),
                      verify_samples=len(latency), verify_requests=len(results))
    record["detail"] = detail
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(latency),
        "req_p50_s": quantile(latency, 50),
        "req_p90_s": quantile(latency, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(workload: str, seed: int, argvs, record: dict) -> dict:
    tracer = tracing.Tracer()
    results = []
    tracer.install()
    try:
        wall = run_pass(argvs, results, tracer)
    finally:
        tracer.uninstall()
    # layers the pass never reached report zero
    metrics = dict.fromkeys(tracer.metric_names(), 0)
    metrics.update(tracer.layer_metrics(), **{"trace.wall_s": wall})
    reached = [name for name, calls in tracer.calls.items() if calls
               and name.startswith(workloads.BYPASS[workload])]
    record.update(results=results, detail={"bypass_violations": reached})
    untraced_file = OUT / f"{workload}-seed{seed}-trace0.json"
    if untraced_file.is_file():
        base = json.loads(untraced_file.read_text())["metrics"]["wall_s"]
        record["detail"]["trace.overhead_s"] = wall - base
    tracer.write_spans(OUT / f"{workload}.spans.jsonl.gz")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "planarq" / "cli.py").is_file() or not spec_file.is_file():
        print(f"no planarq sources under {SRC} (or no BENCHMARK.json); "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    sys.path.insert(0, str(SRC))
    import planarq.cli  # noqa: F401  (first import also writes bytecode caches)
    import planarq.curves  # noqa: F401
    OUT.mkdir(exist_ok=True)

    argvs = workloads.commands(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "argv": argvs}
    if args.trace:
        measured = traced(args.workload, args.seed, argvs, record)
        wanted = spec["per_layer"]
        unknown = [m["name"] for m in wanted if m["name"] not in measured]
        if unknown:
            print(f"BENCHMARK.json names layer metrics the tracer cannot produce: {unknown}",
                  file=sys.stderr)
            return 2
    else:
        measured = untraced(args.workload, argvs, args.seconds, record)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failures = [r for r in record["results"] if r["problem"]]
    correct = not failures and not record["detail"].get("bypass_violations")
    attempted = len(record["results"])
    record["detail"].update(attempted=attempted, failed=len(failures),
                            fail_ratio=len(failures) / attempted)
    record["metrics"] = {k: v["value"] for k, v in metrics.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    for r in failures[:5]:
        print(f"FAILED {' '.join(r['argv'])}: {r['problem']}", file=sys.stderr)
    if record["detail"].get("bypass_violations"):
        print(f"layer bypass violated: {record['detail']['bypass_violations']}",
              file=sys.stderr)
    print(json.dumps({"detail": record["detail"], "env": record["env"]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
