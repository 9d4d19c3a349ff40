"""Span tracing from outside the package.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper in every ``stonelab`` module namespace that binds the
original, so calls through ``from .orders import final_segments`` are
traced too.  A span is ``(name, start, end, parent index, op id)``; spans
stay in memory until the run writes them out.  Counters that do not depend
on the machine (nodes, segments, edges, ...) are read off return values at
the same boundaries.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("solver", "orders", "dot", "combinators", "families", "algebra",
          "trees", "freeseq", "freealg", "cli")


def _mode(args, kwargs):
    return kwargs.get("mode", args[1] if len(args) > 1 else "exact")


# Span name refinements: the solver's exact and greedy modes share a function.
NAMERS = {"solver.min_max_order": lambda a, kw: "solver.min_max_order:" + _mode(a, kw)}


def _decision(c, r):
    c["solver.nodes"] += r.nodes_explored
    c["solver.decision_infeasible"] += not r.achievable


def _members(c, system):
    c["combinators.members_out"] += system.family.size


# Counters read off return values, keyed by span name.
COUNTERS = {
    "solver.decision_max_order_at_most": _decision,
    "orders.final_segments": lambda c, r: c.update({"orders.segments": r.size}),
    "dot.hasse_dot": lambda c, r: c.update({"dot.hasse_edges": r.count(" -> ")}),
    "combinators.product_system": _members,
    "combinators.sum_with_point": _members,
    "combinators.alexandrov_duplication": _members,
    "combinators.porcupine": lambda c, r: _members(c, r.system),
    "trees.sigma_system": lambda c, r: c.update({"trees.paths": r.points.size}),
    "freeseq.sigma_tree": lambda c, r: c.update({"freeseq.sigma_nodes": r.size}),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters = defaultdict(Counter)  # op id -> counts
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, fn, name):
        spans, stack, counters = self.spans, self._stack, self.counters
        namer, counter = NAMERS.get(name), COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            label = namer(args, kwargs) if namer else name
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.op_id)
            if counter:
                counter(counters[self.op_id], result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"stonelab.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for modname, module in list(sys.modules.items()):
            if modname != "stonelab" and not modname.startswith("stonelab."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, obj in self._restore:
            setattr(module, attr, obj)
        self._restore.clear()
