"""Span tracing of the dpdp layers, installed from outside the package.

Each target is a public function or method.  Its wrapper replaces every
binding of the original in the loaded dpdp modules, so a caller that
looks the name up at call time (``from .x import f`` followed by ``f()``,
a recursive call through the module global, or ``g.edge_between``) goes
through the wrapper and internal calls are counted too.

A span records name, start, end, parent span and item id.  Spans are
kept in flat arrays and written out by ``save`` when the pass ends.  The
self time of a span is its duration minus the part covered by its traced
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (metric name, module, attribute); "Class.method" patches the class.
TARGETS = [
    ("cli.main", "dpdp.cli", "main"),
    ("domination.has_perfect_matching_on", "dpdp.domination", "has_perfect_matching_on"),
    ("domination.find_dp_pair", "dpdp.domination", "find_dp_pair"),
    ("domination.enumerate_dp_pairs", "dpdp.domination", "enumerate_dp_pairs"),
    ("domination.is_dp_pair", "dpdp.domination", "is_dp_pair"),
    ("goodsub.find_good_subgraph", "dpdp.goodsub", "find_good_subgraph"),
    ("goodsub.verify_good_certificate", "dpdp.goodsub", "verify_good_certificate"),
    ("minimality.is_minimal_by_deletion", "dpdp.minimality", "is_minimal_by_deletion"),
    ("minimality.deletion_witness", "dpdp.minimality", "deletion_witness"),
    ("minimality.xcheck", "dpdp.minimality", "xcheck"),
    ("subdivision.build_s2", "dpdp.subdivision", "build_s2"),
    ("subdivision.invert_s2", "dpdp.subdivision", "invert_s2"),
    ("catalog.enumerate_connected_simple", "dpdp.catalog", "enumerate_connected_simple"),
    ("catalog.enumerate_connected_multigraphs", "dpdp.catalog", "enumerate_connected_multigraphs"),
    ("catalog.enumerate_connected_cubic", "dpdp.catalog", "enumerate_connected_cubic"),
    ("catalog.read_graph6", "dpdp.catalog", "read_graph6"),
    ("catalog.read_graph6_file", "dpdp.catalog", "read_graph6_file"),
    ("catalog.read_edge_list", "dpdp.catalog", "read_edge_list"),
    # metric names start with a letter: "canon" is the module dpdp._canon
    ("canon.classes_by_isomorphism", "dpdp._canon", "classes_by_isomorphism"),
    ("canon.is_isomorphic", "dpdp._canon", "is_isomorphic"),
    ("canon.refined_colors", "dpdp._canon", "refined_colors"),
    ("graph.Multigraph", "dpdp.graph", "Multigraph.__init__"),
    ("graph.edge_between", "dpdp.graph", "Multigraph.edge_between"),
    ("graph.delete_edge", "dpdp.graph", "Multigraph.delete_edge"),
]

# Outcome that counts as useful, per span name.
OUTCOMES = {
    "domination.has_perfect_matching_on": lambda r: r is not None,
    "goodsub.find_good_subgraph": lambda r: r is not None,
    "goodsub.verify_good_certificate": lambda r: bool(r[0]),
    "subdivision.invert_s2": lambda r: r is not None,
    "canon.is_isomorphic": bool,
}

DELETION_ROUTINES = ("minimality.is_minimal_by_deletion", "minimality.deletion_witness")


class Tracer:
    def __init__(self) -> None:
        self.names = [name for name, _, _ in TARGETS]
        k = len(self.names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.positive = [0] * k
        self.missing: list[str] = []
        self.item = -1
        # per-span columns
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # derived counters, measured where the work happens
        self.counters = {
            "catalog.candidates_in": 0,
            "catalog.classes_out": 0,
            "cli.dp_searches": 0,
            "minimality.dp_searches_under_deletion": 0,
        }
        self._stack: list[list] = []  # frames: [name index, span id, child time]

    def install(self) -> None:
        for idx, (name, module, attr) in enumerate(TARGETS):
            mod = importlib.import_module(module)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = (owner.__dict__ if owner_name else vars(owner)).get(member)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(idx, original)
            if owner_name:
                setattr(owner, member, wrapper)
                continue
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == "dpdp" or mname.startswith("dpdp.")):
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        stack = self._stack
        calls, self_s, positive = self.calls, self.self_s, self.positive
        s_name, s_parent, s_item = self.span_name, self.span_parent, self.span_item
        s_start, s_end = self.span_start, self.span_end
        perf = time.perf_counter
        outcome = OUTCOMES.get(name)
        counters = self.counters
        tracer = self
        deletion_idx = {self.names.index(n) for n in DELETION_ROUTINES}
        cli_idx = self.names.index("cli.main")
        on_entry = on_exit = None
        if name == "domination.find_dp_pair":

            def on_entry(args):
                if stack and stack[-1][0] == cli_idx:
                    counters["cli.dp_searches"] += 1
                if any(f[0] in deletion_idx for f in stack):
                    counters["minimality.dp_searches_under_deletion"] += 1

        elif name == "canon.classes_by_isomorphism":

            def on_entry(args):
                if args and hasattr(args[0], "__len__"):
                    counters["catalog.candidates_in"] += len(args[0])

            def on_exit(result):
                if hasattr(result, "__len__"):
                    counters["catalog.classes_out"] += len(result)

        def wrapper(*args, **kwargs):
            if on_entry is not None:
                on_entry(args)
            parent = stack[-1] if stack else None
            sid = len(s_start)
            frame = [idx, sid, 0.0]
            s_name.append(idx)
            s_parent.append(parent[1] if parent is not None else -1)
            s_item.append(tracer.item)
            s_end.append(0.0)
            stack.append(frame)
            t0 = perf()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                s_end[sid] = t1
                self_s[idx] += dur - frame[2]
                calls[idx] += 1
                if parent is not None:
                    parent[2] += dur
            if outcome is not None and outcome(result):
                positive[idx] += 1
            if on_exit is not None:
                on_exit(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def summary(self) -> dict:
        """Counts and self times by span name, plus the derived counters."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "positive": dict(zip(self.names, self.positive)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counters": dict(self.counters),
            "missing": list(self.missing),
            "spans": len(self.span_start),
        }

    def save(self, path_stem: str) -> None:
        """Write the spans as raw columns plus a JSON header."""
        columns = ("span_name", "span_parent", "span_item", "span_start", "span_end")
        with open(path_stem + ".spans", "wb") as f:
            for col in columns:
                getattr(self, col).tofile(f)
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
        }
        with open(path_stem + ".json", "w", encoding="utf-8") as f:
            json.dump(header, f, indent=1)
