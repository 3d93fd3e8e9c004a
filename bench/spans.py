"""Spans around the calls into each `multinerve` layer, from outside the program.

``Tracer.install`` wraps every public function of the eight layer modules on
*every* ``multinerve.*`` module attribute that binds it (modules import each
other's functions by name, so patching one binding would miss the calls
through the others), plus ``SimplicialPoset.induced_with_map`` and
``SimplicialComplex.__init__``.  Per-element accessors such as ``leq``,
``faces_of`` and ``_check_cell`` are methods and are left alone: they run
about 10^6 times per batch and wrapping them would swamp the measurement.

A span records its name, start, end, parent span and the CLI call it belongs
to.  Spans stay in memory in flat arrays and are written out when the run
ends.  Work counts are taken at the same boundaries, from the arguments or
the result, outside the span: the time they and the span bookkeeping take
is kept per span as hook time, which counts neither to the span nor to its
parent's self time, and is reported as ``trace.hook_s``.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
import weakref
from array import array
from collections import defaultdict

LAYERS = ("cli", "formats", "verify", "nerve", "families", "leray",
          "homology", "poset")

# metrics reported per traced pass, beyond the per-layer self_s totals
REPORTED = {
    "leray.j_index": ("calls", "self_s"),
    "leray.leray_number": ("calls", "self_s"),
    "poset.induced_with_map": ("calls",),
    "poset.order_complex": ("calls", "self_s", "simplices"),
    "homology.sparse_rank": ("calls", "self_s", "rows", "cols", "nnz"),
    "homology.chain_complex": ("calls", "self_s", "cells"),
    "homology.top_nonzero_betti": ("calls", "self_s"),
    "homology.reduced_betti": ("calls", "self_s"),
    "poset.build_poset": ("calls", "self_s", "cells"),
    "poset.SimplicialComplex": ("calls", "self_s"),
    "families.region_is_empty": ("calls", "self_s", "repeat_ratio"),
    "families.region_betti": ("calls", "self_s"),
    "families.components": ("calls", "self_s"),
    "families.component_containing": ("calls", "self_s", "repeat_ratio"),
    "families.is_acyclic_with_slack": ("calls", "self_s"),
    "families.max_components": ("calls", "self_s"),
    "nerve.multinerve": ("calls", "self_s", "cells"),
    "nerve.reduced_multinerve": ("calls", "self_s"),
    "nerve.nerve": ("calls", "self_s"),
    "nerve.canonical_projection": ("calls", "self_s"),
    "nerve.validate_map": ("calls", "self_s"),
    "verify.helly_number": ("calls", "self_s"),
    "verify.verify_projection_bound": ("calls", "self_s"),
    "verify.verify_multinerve_theorem": ("calls", "self_s"),
    "verify.verify_helly_bound": ("calls", "self_s"),
    "verify.instance_id": ("calls", "self_s"),
    "formats.load_path": ("calls", "self_s"),
    "formats.parse_family": ("calls", "self_s"),
    "formats.write_family": ("calls", "self_s"),
    "formats.write_poset": ("calls", "self_s"),
    "formats.write_betti": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}

UNITS = {"calls": "count", "self_s": "s", "simplices": "count",
         "rows": "count", "cols": "count", "nnz": "count", "cells": "count",
         "repeat_ratio": "1"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric of a traced run, with its unit."""
    out = [(f"{fn}.{stat}", UNITS[stat])
           for fn, stats in REPORTED.items() for stat in stats]
    out.extend((f"{layer}.self_s", "s") for layer in LAYERS)
    out.extend([("trace.batch_s", "s"), ("trace.overhead_s", "s"),
                ("trace.hook_s", "s")])
    return out


# -- work counts at the boundary -----------------------------------------------


def _rank_work(args, kwargs, add):
    rows = args[0]
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
        args = (rows,) + args[1:]
    cols: set = set()
    nnz = 0
    for r in rows:
        cols.update(r)
        nnz += len(r)
    add("rows", len(rows))
    add("cols", len(cols))
    add("nnz", nnz)
    return args, kwargs


class _RepeatCounter:
    """Counts calls whose (family, index set) pair was already seen."""

    def __init__(self):
        self.seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def __call__(self, args, kwargs, add):
        F, A = args[0], args[1]
        A = tuple(sorted(set(A)))
        done = self.seen.setdefault(F, set())
        if A in done:
            add("repeats", 1)
        else:
            done.add(A)
        return args, kwargs


AFTER = {
    "poset.order_complex": lambda r, add: add("simplices", len(r.simplices)),
    "homology.chain_complex": lambda r, add: add("cells", sum(r.sizes.values())),
    "poset.build_poset": lambda r, add: add("cells", r.n_cells),
    "nerve.multinerve": lambda r, add: add("cells", r.poset.n_cells),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hook = array("d")
        self.stack: list[int] = []
        self.call_index = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.before = {
            "homology.sparse_rank": _rank_work,
            "families.region_is_empty": _RepeatCounter(),
            "families.component_containing": _RepeatCounter(),
        }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("multinerve")]
        modules += [importlib.import_module(f"multinerve.{m}") for m in LAYERS]
        targets = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    setattr(mod, attr, targets[id(obj)])
        poset = sys.modules["multinerve.poset"]
        cls = poset.SimplicialPoset
        cls.induced_with_map = self._wrap("poset.induced_with_map",
                                          cls.induced_with_map)
        cls = poset.SimplicialComplex
        cls.__init__ = self._wrap("poset.SimplicialComplex", cls.__init__)

    def _wrap(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        before, after = self.before.get(name), AFTER.get(name)
        counts = self.counts
        clock = time.perf_counter

        def add(stat, value):
            counts[f"{name}.{stat}"] += value

        def wrapper(*args, **kwargs):
            h0 = clock()
            if before is not None:
                args, kwargs = before(args, kwargs, add)
            sid = len(self.start)
            self.name.append(ix)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.call.append(self.call_index)
            self.end.append(0.0)
            self.hook.append(0.0)
            self.stack.append(sid)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[sid] = t1
                self.stack.pop()
            if after is not None:
                after(result, add)
            self.hook[sid] = (t0 - h0) + (clock() - t1)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- results ---------------------------------------------------------------

    def mark(self) -> int:
        """Span count so far; spans after a mark belong to the next pass."""
        return len(self.start)

    def pass_metrics(self, first: int, scale: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``first``, with
        times multiplied by ``scale``; the work counts are then reset."""
        n = len(self.start)
        child = [0.0] * (n - first)
        dur = [self.end[i] - self.start[i] for i in range(first, n)]
        for k in range(n - first):
            p = self.parent[first + k]
            if p >= first:
                # a child's hook time runs inside the parent's span
                child[p - first] += dur[k] + self.hook[first + k]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for k in range(n - first):
            name = self.names[self.name[first + k]]
            calls[name] += 1
            self_s[name] += (dur[k] - child[k]) * scale
        out: dict[str, float] = {}
        for fn, stats in REPORTED.items():
            for stat in stats:
                if stat == "calls":
                    v = calls[fn]
                elif stat == "self_s":
                    v = self_s[fn]
                elif stat == "repeat_ratio":
                    v = self.counts[f"{fn}.repeats"] / calls[fn] if calls[fn] else 0.0
                else:
                    v = self.counts[f"{fn}.{stat}"]
                out[f"{fn}.{stat}"] = v
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                         if k.split(".", 1)[0] == layer)
        out["trace.hook_s"] = sum(self.hook[first:n]) * scale
        self.counts.clear()
        return out

    def write(self, path) -> None:
        """All spans as gzip-compressed tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\tcall\tname\tstart_s\tend_s\thook_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.call[i]}\t"
                         f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.hook[i]:.9f}\n")
