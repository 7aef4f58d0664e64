"""The benchmark's own checks pass on this tree, and its tracer still reports
every per-layer metric it declares.  These tests read bench/ and
BENCHMARK.json only; they write nothing there."""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_traced_bench_covers_every_declared_per_layer_metric(monkeypatch):
    # a public name renamed or removed in a layer module drops its span, and
    # the traced bench run then exits 2
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    for layer in tracing.LAYERS:
        importlib.import_module(f"planarq.{layer}")
    declared = [m["name"] for m in SPEC["per_layer"]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        names = tracer.metric_names()
    finally:
        tracer.uninstall()
    assert [name for name in declared if name not in names] == []


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_bench_workload_pass_and_setup_succeed(monkeypatch, workload):
    # one pass of the workload's commands through the benchmark's own runner
    # and output checks (scan digests included), then one set-up sample, which
    # imports what the benchmark's set-up imports from planarq
    monkeypatch.syspath_prepend(str(BENCH))
    importlib.import_module("planarq.cli")
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    argvs = workloads.commands(workload, 1)
    problems = [(r["argv"], r["problem"]) for r in map(run.run_command, argvs)
                if r["problem"] is not None]
    assert problems == []
    assert run.measure_setup(json.dumps(workloads.setup_spec(argvs))) > 0
