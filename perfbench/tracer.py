"""Spans around etale_kit's public functions, installed from outside the program.

`Tracer.install` wraps every public function of the traced modules and
rebinds the wrapper in every `etale_kit.*` namespace that holds the original,
so calls between modules are traced too; `FiniteGroupoid.__init__` is wrapped
as the span `groupoid.FiniteGroupoid`.  Generator functions get no span of
their own: their bodies run inside the span of whoever consumes them.
`uninstall` restores every binding.  Spans stay in memory, each with its
parent and the operation it belongs to, and self time (a span minus its
direct children) is summed per function name as spans close.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
import tracemalloc
import weakref
from array import array
from collections import defaultdict

LAYERS = ("groupoid", "mutate", "inverse_semigroup", "cocycles", "aut_group",
          "cstar", "decomposition", "io", "families", "cli", "selftest")


class Tracer:
    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.peak_bytes = 0
        self._stack: list[list] = []  # [span id, child ns, name]
        self._patched: list[tuple] = []
        self._semigroups = weakref.WeakSet()

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def add_span(self, name: str, parent: int, start: int, end: int,
                 op: int | None = None) -> int:
        sid = len(self.span_start)
        self.span_op.append(self.op if op is None else op)
        self.span_parent.append(parent)
        self.span_name.append(self._name_id(name))
        self.span_start.append(start)
        self.span_end.append(end)
        return sid

    def parent_name(self) -> str | None:
        return self._stack[-1][2] if self._stack else None

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        # the span id is taken now so that children can name their parent;
        # its times are filled in when it closes
        frame = [self.add_span(name, parent, 0, 0), 0, name]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.span_start[frame[0]] = start
            self.span_end[frame[0]] = end
            self.self_ns[name] += end - start - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += end - start

    # -- installation ----------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        after = _AFTER.get(name)
        memory = name == "decomposition.validate_hom"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if memory:
                tracemalloc.start()
            try:
                result = tracer.call(name, fn, args, kwargs)
            finally:
                if memory:
                    tracer.peak_bytes = max(tracer.peak_bytes,
                                            tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"etale_kit.{layer}")
            public = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr, None)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "etale_kit" and not modname.startswith("etale_kit."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))
        from etale_kit.groupoid import FiniteGroupoid
        init = FiniteGroupoid.__init__
        FiniteGroupoid.__init__ = self._wrap("groupoid.FiniteGroupoid", init)
        self._patched.append((FiniteGroupoid, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- export ----------------------------------------------------------

    def aggregates(self) -> dict:
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls),
                "counts": dict(self.counts), "peak_bytes": self.peak_bytes,
                "spans": [[self.span_parent[i], self.names[self.span_name[i]],
                           self.span_start[i], self.span_end[i]]
                          for i in range(len(self.span_start))]}

    def merge(self, agg: dict, op: int) -> None:
        """Add the aggregates of a traced child process as operation `op`."""
        for key, value in agg["self_ns"].items():
            self.self_ns[key] += value
        for key, value in agg["calls"].items():
            self.calls[key] += value
        for key, value in agg["counts"].items():
            self.counts[key] += value
        self.peak_bytes = max(self.peak_bytes, agg["peak_bytes"])
        base = len(self.span_start)
        for parent, name, start, end in agg["spans"]:
            self.add_span(name, parent + base if parent >= 0 else -1,
                          start, end, op)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps({
                    "op": self.span_op[i], "id": i,
                    "parent": self.span_parent[i],
                    "name": self.names[self.span_name[i]],
                    "start_ns": self.span_start[i],
                    "end_ns": self.span_end[i]}) + "\n")

    # -- per-layer metrics -----------------------------------------------

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation figures of every layer; see README.md for which
        end-to-end metric each should move."""
        def ms(*names):
            return sum(self.self_ns.get(n, 0) for n in names) / 1e6 / ops

        def layer_ms(layer):
            return sum(v for n, v in self.self_ns.items()
                       if n.startswith(layer + ".")) / 1e6 / ops

        def per_op(key):
            return self.counts.get(key, 0) / ops

        built = self.counts.get("mutate.mutants_built", 0)
        used = self.counts.get("mutate.mutants_used", 0)
        return {
            "groupoid.construct_calls": (self.calls.get("groupoid.FiniteGroupoid", 0) / ops, "count/op"),
            "groupoid.construct_ms": (ms("groupoid.FiniteGroupoid"), "ms/op"),
            "groupoid.validate_ms": (ms("groupoid.validation_report"), "ms/op"),
            "groupoid.enum_ms": (ms("groupoid.enumerate_homomorphisms",
                                    "groupoid.enumerate_automorphisms"), "ms/op"),
            "groupoid.enum_results": (per_op("groupoid.enum_results"), "count/op"),
            "mutate.self_ms": (layer_ms("mutate"), "ms/op"),
            "mutate.mutants_built": (built / ops, "count/op"),
            "mutate.mutants_used": (used / ops, "count/op"),
            "mutate.use_ratio": (used / built if built else 0.0, "ratio"),
            "inverse_semigroup.bisections_ms": (ms(
                "inverse_semigroup.enumerate_bisections",
                "inverse_semigroup.bisection_product",
                "inverse_semigroup.bisection_inverse"), "ms/op"),
            "inverse_semigroup.germ_ms": (ms(
                "inverse_semigroup.canonical_action",
                "inverse_semigroup.germ_groupoid",
                "inverse_semigroup.canonical_germ_iso",
                "inverse_semigroup.induced_germ_hom"), "ms/op"),
            "inverse_semigroup.elements": (per_op("inverse_semigroup.elements"), "count/op"),
            "inverse_semigroup.table_cells": (per_op("inverse_semigroup.table_cells"), "count/op"),
            "cocycles.enum_ms": (ms("cocycles.enumerate_cocycles"), "ms/op"),
            "cocycles.enumerated": (per_op("cocycles.enumerated"), "count/op"),
            "aut_group.self_ms": (layer_ms("aut_group"), "ms/op"),
            "aut_group.pairs_checked": (self.calls.get("aut_group.fixes_diagonal", 0) / ops, "count/op"),
            "cstar.self_ms": (layer_ms("cstar"), "ms/op"),
            "cstar.calls": (sum(v for n, v in self.calls.items()
                                if n.startswith("cstar.")) / ops, "count/op"),
            "decomposition.validate_ms": (ms("decomposition.validate_hom"), "ms/op"),
            "decomposition.validate_peak_mb": (self.peak_bytes / 2 ** 20, "MB"),
            "decomposition.decompose_ms": (ms("decomposition.decompose"), "ms/op"),
            "decomposition.rigidity_ms": (ms("decomposition.rigidity_check"), "ms/op"),
            "decomposition.cells": (per_op("decomposition.cells"), "count/op"),
            "decomposition.refusals": (per_op("decomposition.refusals"), "count/op"),
            "io.parse_ms": (ms("io.groupoid_from_doc", "io.element_from_doc",
                               "io.hom_from_doc", "io.load_groupoid",
                               "io.load_hom"), "ms/op"),
            "io.bytes_parsed": (per_op("io.bytes_parsed"), "B/op"),
            "families.self_ms": (layer_ms("families"), "ms/op"),
            "cli.import_ms": (per_op("cli.import_ns") / 1e6, "ms/op"),
            "cli.main_ms": (layer_ms("cli"), "ms/op"),
            "cli.process_ms": (per_op("cli.process_ns") / 1e6, "ms/op"),
            "cli.numpy_loaded": (per_op("cli.numpy_loaded"), "count/op"),
            "selftest.self_ms": (layer_ms("selftest"), "ms/op"),
        }


# -- counts taken from results at the layer boundary ---------------------------


def _after_construct(tracer, args, result):
    if (tracer.parent_name() or "").startswith("mutate."):
        tracer.counts["mutate.mutants_built"] += 1


def _after_sample(tracer, args, result):
    tracer.counts["mutate.mutants_used"] += len(result)


def _after_homs(tracer, args, result):
    tracer.counts["groupoid.enum_results"] += len(result)


def _after_bisections(tracer, args, result):
    # enumerate_bisections caches its result on the groupoid; count each
    # semigroup once
    if result not in tracer._semigroups:
        tracer._semigroups.add(result)
        tracer.counts["inverse_semigroup.elements"] += len(result)
        tracer.counts["inverse_semigroup.table_cells"] += len(result) ** 2


def _after_cocycles(tracer, args, result):
    tracer.counts["cocycles.enumerated"] += len(result)


def _after_validate_hom(tracer, args, result):
    hm = args[0]
    rows, cols = hm.entries.shape
    tracer.counts["decomposition.cells"] += rows * cols * cols
    if not result.ok:
        tracer.counts["decomposition.refusals"] += 1


_AFTER = {
    "groupoid.FiniteGroupoid": _after_construct,
    "mutate.sample_mutations": _after_sample,
    "groupoid.enumerate_homomorphisms": _after_homs,
    "inverse_semigroup.enumerate_bisections": _after_bisections,
    "cocycles.enumerate_cocycles": _after_cocycles,
    "decomposition.validate_hom": _after_validate_hom,
}
