"""Outside-in span tracing of the library's public functions.

The library's modules import each other's functions by name
(``from stackelberg_search.solver import solve_milp``), so wrapping a
function means replacing every module attribute that refers to it, not just
the one in its defining module.  ``Tracer.install`` does that for each
target below and ``Tracer.uninstall`` puts the originals back.

A span is one call: name, start, end and the index of the enclosing traced
call (-1 at top level).  Spans stay in memory and are written out once, when
the run ends.  A span's self time is its duration minus the durations of its
children; calls here are nested and sequential (one thread), so the
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Optional

PACKAGE = "stackelberg_search"

# (span name, defining module, attribute).  "solver.linprog" is the solver
# module's binding of scipy's linprog: the boundary to HiGHS.
TARGETS = (
    ("solver.linprog", "solver", "linprog"),
    ("solver.solve_lp", "solver", "solve_lp"),
    ("solver.solve_milp", "solver", "solve_milp"),
    ("search.partition_subgames", "search", "partition_subgames"),
    ("search.compute_subgame_quantities", "search",
     "compute_subgame_quantities"),
    ("search.compute_bounds", "search", "compute_bounds"),
    ("search.build_constrained_milp", "search", "build_constrained_milp"),
    ("search.build_full_milp", "search", "build_full_milp"),
    ("search.solve_subgame", "search", "solve_subgame"),
    ("games.generate", "games", "generate"),
    ("efg.build_treeplex", "efg", "build_treeplex"),
    ("efg.validate_game", "efg", "validate_game"),
    ("efg.check_flow", "efg", "RealizationPlan.check_flow"),
    ("blueprint.make_blueprint", "blueprint", "make_blueprint"),
    ("response.compute_brvs", "response", "compute_brvs"),
    ("response.best_response", "response", "best_response"),
    ("harness.compose_strategy", "harness", "compose_strategy"),
    ("harness.evaluate_leader", "harness", "evaluate_leader"),
    ("harness.safe_search", "harness", "safe_search"),
    ("harness.run_single", "harness", "run_single"),
)

# The spans the cap check needs.  Untraced runs of capped workloads record
# only these: a few thousand spans of about 1 us each, against LPs of
# milliseconds.
CAP_TARGETS = ("solver.linprog", "solver.solve_milp", "search.solve_subgame")

MODULES = ("efg", "games", "response", "solver", "blueprint", "search",
           "gadget", "harness")


def _model_size(model) -> tuple[int, int, int]:
    lp = model.problem.lp
    return lp.n_vars, len(lp.rows), len(model.problem.binaries)


# Facts read from a traced call's return value and kept on its span.
OBSERVERS: dict[str, Callable] = {
    "search.build_constrained_milp": _model_size,
    "search.solve_subgame": lambda solution: solution.status,
}


class Tracer:
    """Records spans while ``active``; wrappers pass straight through
    otherwise, so set-up and correctness checks can run untraced."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, observed fact or None].
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                span[4] = observe(result)
            return result

        return traced

    def install(self, names: Optional[tuple[str, ...]] = None) -> list[str]:
        """Wrap every target, or those of the given span names; returns the
        span names whose binding is gone."""
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        modules.append(importlib.import_module(PACKAGE))
        absent = []
        for name, home, attr in TARGETS:
            if names is not None and name not in names:
                continue
            owner = importlib.import_module(f"{PACKAGE}.{home}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = modules
            original = getattr(owner, attr, None)
            if original is None:
                absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for holder in holders:
                if vars(holder).get(attr) is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        return absent

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, fact in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "fact": fact}) + "\n")


def span_cost(repeats: int = 20000) -> float:
    """Seconds a traced call adds over a plain one, measured on a no-op."""
    tracer = Tracer()
    tracer.active = True
    noop = lambda: None  # noqa: E731
    traced = tracer._wrap("noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(repeats):
        noop()
    plain = clock() - start
    start = clock()
    for _ in range(repeats):
        traced()
    wrapped = clock() - start
    return max(0.0, (wrapped - plain) / repeats)


class SpanTable:
    """Per-name call counts, inclusive seconds and self seconds over a
    contiguous slice of a tracer's spans."""

    def __init__(self, spans: list[list], lo: int, hi: int) -> None:
        self.spans = spans
        self.lo, self.hi = lo, hi
        child = {}
        for i in range(lo, hi):
            parent = spans[i][3]
            if parent >= lo:
                child[parent] = child.get(parent, 0.0) + \
                    spans[i][2] - spans[i][1]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        for i in range(lo, hi):
            name, start, end = spans[i][0], spans[i][1], spans[i][2]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + end - start
            self.self_time[name] = self.self_time.get(name, 0.0) + \
                end - start - child.get(i, 0.0)

    def indices(self, name: str) -> list[int]:
        return [i for i in range(self.lo, self.hi) if self.spans[i][0] == name]

    def ancestor(self, index: int, name: str) -> Optional[int]:
        parent = self.spans[index][3]
        while parent >= self.lo:
            if self.spans[parent][0] == name:
                return parent
            parent = self.spans[parent][3]
        return None
