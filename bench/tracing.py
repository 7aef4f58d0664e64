"""Span tracer installed from outside the program for one traced run.

``Tracer.install()`` wraps the public functions and methods of every layer
module (``planarq.gf``, ``linearized``, ``planarity``, ``curves``,
``identities``, ``families``, ``cli``) and puts each wrapper at every
attribute a caller resolves: the defining module, every other ``planarq``
module that imported the name, and the class dict for methods.
``uninstall()`` puts the originals back.

Each wrapped call records a span ``(id, name, start, end, parent id, command
id)``.  Self time is the span's duration minus the time its child spans
cover; it is accumulated while the run goes, and the spans themselves are
kept in memory and written out by ``write_spans`` at the end.

Scalar ``gf`` operations (``add``, ``mul``, ``frob``, ... on single codes)
run millions of times; they are counted without spans, so their time lands in
the self time of the span that called them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("gf", "linearized", "planarity", "curves", "identities", "families", "cli")

# gf names that get spans: whole-array kernels, tables and tower construction
_GF_SPANNED = {"build_tower", "prime_ext_field", "find_irreducible",
               "is_irreducible", "find_normal_element", "add_index_table"}
_GF_SPANNED_SUFFIXES = ("_vec", "_table", "_matrix")
# configuration lookups and generators: neither spans nor op counts
_UNWRAPPED = {"enum_bound", "max_enumeration_order", "elements"}


def _elems_unary(args):
    return int(np.size(args[1]))


def _elems_encode(args):
    return int(np.size(args[1][0]))


def _elems_binary(args):
    return int(np.prod(np.broadcast_shapes(np.shape(args[1]), np.shape(args[2]))))


# work counters measured where the work happens, keyed by span name
_ELEMS = {
    "gf.decode_vec": ("gf.codec.elems", _elems_unary),
    "gf.encode_vec": ("gf.codec.elems", _elems_encode),
    "gf.mul_vec": ("gf.mul_vec.elems", _elems_binary),
}


_COUNTERS = ("gf.codec.elems", "gf.mul_vec.elems", "gf.scalar.calls",
             "planarity.brute_is_planar.shifts", "planarity.brute_is_planar.sweep_max",
             "planarity.is_planar_det.shifts")


class Tracer:
    """Spans and counters for the calls a run makes into the layer modules."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []   # [span id, name, start, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.command = -1
        self.span_names: set[str] = set()
        self._undo: list[tuple] = []

    # -- wrappers ----------------------------------------------------------
    def _span(self, name, fn):
        self.span_names.add(name)
        stack, spans = self.stack, self.spans
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        elems = _ELEMS.get(name)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if elems is not None:
                counts[elems[0]] += elems[1](args)
            if name == "gf.sub_vec" and stack and stack[-1][1] == "planarity.brute_is_planar":
                counts["planarity.brute_is_planar.shifts"] += 1
            elif name == "planarity.brute_is_planar":
                counts["planarity.brute_is_planar.sweep_max"] += args[0].field.order - 1
            sid = len(spans)
            spans.append(None)
            frame = [sid, name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                if stack:
                    stack[-1][3] += dur
                    parent = stack[-1][0]
                else:
                    parent = -1
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[3]
                spans[sid] = (sid, name, frame[2], end, parent, self.command)

        return wrapper

    def _scalar(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["gf.scalar.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _det_shifts(self, fn):
        """Count the shifts ``_dets_at`` evaluates on behalf of is_planar_det."""
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(tower, a_codes, b_codes, c_codes):
            if stack and stack[-1][1] == "planarity.is_planar_det":
                counts["planarity.is_planar_det.shifts"] += int(np.size(c_codes))
            return fn(tower, a_codes, b_codes, c_codes)

        return wrapper

    def _wrap(self, layer, name, fn):
        if layer == "gf" and (name in _GF_SPANNED or name.endswith(_GF_SPANNED_SUFFIXES)):
            return self._span(f"gf.{name}", fn)
        if layer == "gf":
            return self._scalar(fn)
        return self._span(f"{layer}.{name}", fn)

    # -- installation ------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of the layer modules."""
        modules = {layer: sys.modules[f"planarq.{layer}"] for layer in LAYERS}
        importers = [m for n, m in sorted(sys.modules.items())
                     if m is not None and (n == "planarq" or n.startswith("planarq."))]
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in _UNWRAPPED:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
        planarity = modules["planarity"]
        dets_at = planarity._dets_at
        replaced[id(dets_at)] = (dets_at, self._det_shifts(dets_at))
        for mod in importers:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _wrap_methods(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") or name in _UNWRAPPED:
                continue
            if inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._set(cls, name, self._wrap(layer, name, raw))

    def uninstall(self):
        """Restore every attribute ``install`` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-name and per-layer aggregates, named as in BENCHMARK.json."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.s"] = self.total_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self.self_s.items()
                                         if k.split(".", 1)[0] == layer)
        out["gf.codec.self_s"] = (self.self_s.get("gf.decode_vec", 0.0)
                                  + self.self_s.get("gf.encode_vec", 0.0))
        out.update(self.counts)
        sweep_max = self.counts.get("planarity.brute_is_planar.sweep_max", 0)
        out["planarity.brute_is_planar.sweep_frac"] = (
            self.counts.get("planarity.brute_is_planar.shifts", 0) / sweep_max
            if sweep_max else 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def metric_names(self) -> set[str]:
        """Every name ``layer_metrics`` can report after this install."""
        names = {f"{layer}.self_s" for layer in LAYERS} | set(_COUNTERS)
        names |= {"gf.codec.self_s", "planarity.brute_is_planar.sweep_frac",
                  "trace.spans", "trace.wall_s"}
        for span in self.span_names:
            names |= {f"{span}.calls", f"{span}.self_s", f"{span}.s"}
        return names

    def write_spans(self, path):
        """Spans as gzipped JSON lines: [id, name, start, end, parent, command]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
