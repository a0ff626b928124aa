"""Per-layer spans recorded from outside holobrace.

`Tracer.install` wraps the public entry point of each layer and rebinds the
wrapper in every `holobrace.*` namespace that holds the original, so calls
that go through `from .x import f` bindings are seen as well.  Each call
becomes a span (name, start, end, parent, op) kept in memory; `write` dumps
them as JSON lines.  Nothing is installed unless a traced pass asks for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, attribute, span name).  "Class.method" patches the class itself.
ENTRY_POINTS = (
    ("holobrace.cli", "main", "cli"),
    ("holobrace.counts", "census", "counts.census"),
    ("holobrace.counts", "two_power_census", "counts.two_power_census"),
    ("holobrace.counts", "hgs_reduce", "counts.hgs_reduce"),
    ("holobrace.counts", "table1_report", "counts.table"),
    ("holobrace.counts", "table3_report", "counts.table"),
    ("holobrace.counts", "table4_report", "counts.table"),
    ("holobrace.oddpart", "reduce_counts", "oddpart.reduce"),
    ("holobrace.structured", "solve_family", "structured.solve"),
    ("holobrace.regular", "search_regular", "regular.search"),
    ("holobrace.regular", "classify", "regular.classify"),
    ("holobrace.kernel", "get_kernel", "kernel.get_kernel"),
    ("holobrace.kernel", "HolKernel.full_pool", "kernel.pool"),
    ("holobrace.kernel", "HolKernel.sylow_pool", "kernel.pool"),
    ("holobrace.endo", "enumerate_aut", "endo.enumerate_aut"),
    ("holobrace.endo", "AutGroup.generators", "endo.generators"),
    ("holobrace.brace", "brace_from_subgroup", "brace.from_subgroup"),
    ("holobrace.brace", "verify_brace", "brace.verify"),
    ("holobrace.brace", "ybe_solution", "brace.ybe"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op]
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._seen: dict[int, object] = {}  # counted results, kept alive so ids stay unique

    def install(self) -> None:
        for module_name, attr, span in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), span))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span)
            for name, mod in list(sys.modules.items()):
                if name == "holobrace" or name.startswith("holobrace."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, fn, name: str):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def first_time(self, result) -> bool:
        """True the first time a (cached) result object is returned."""
        if id(result) in self._seen:
            return False
        self._seen[id(result)] = result
        return True

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def _count_pool(tracer: Tracer, args, pool) -> None:
    tracer.add("kernel.pool_elements", len(pool))


def _count_aut(tracer: Tracer, args, aut_group) -> None:
    if tracer.first_time(aut_group):
        tracer.add("endo.aut_elements", aut_group.order)


def _count_search(tracer: Tracer, args, result) -> None:
    if tracer.first_time(result):
        tracer.add("regular.subgroups", result.r)
        tracer.add("regular.classes", result.c)


def _count_verify(tracer: Tracer, args, ok) -> None:
    # Associativity and the brace relation each visit every triple once.
    tracer.add("brace.verify.triples", 2 * args[0].size ** 3)


_COUNTERS = {
    "kernel.pool": _count_pool,
    "endo.enumerate_aut": _count_aut,
    "regular.search": _count_search,
    "brace.verify": _count_verify,
}
