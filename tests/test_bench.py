"""The traced benchmark still reports every per-layer metric it declares."""

import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_traced_bench_covers_every_declared_per_layer_metric(monkeypatch):
    # a public name renamed or removed in a layer module drops its span, and
    # the traced bench run then exits 2; this reads bench/ and BENCHMARK.json only
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    for layer in tracing.LAYERS:
        importlib.import_module(f"planarq.{layer}")
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        names = tracer.metric_names()
    finally:
        tracer.uninstall()
    assert [name for name in declared if name not in names] == []
