"""Per-layer tracing of symcheck, applied from outside the program.

``Tracer.install`` replaces public functions and methods of the modules
``cli``, ``operators``, ``groebner``, ``exact``, ``analysis`` and
``numerics`` with wrappers, rebinding every name in the package that refers
to the same function (``analysis`` imports ``zero_dim_origin`` by name, for
instance). A wrapper records a span -- name, start, end, parent -- in
memory; a few hooks only count (Groebner basis builds, symbol builds, grid
values) and record no span, so that their time stays with the caller.

A layer's self time is the duration of its spans minus the time covered by
their child spans. Its call count counts only spans whose parent has another
name: ``PolyMatrix.evaluate`` calls ``MultiPoly.evaluate`` for every entry,
both under ``exact.evaluate``, and one matrix evaluation is one call, so
that the count follows the points evaluated and not how the calls nest.
Metrics cover the spans recorded after ``begin_window`` and are given per
pass.
"""

from __future__ import annotations

import array
import gzip
import sys
import time
from collections import Counter

from symcheck import analysis, cli, exact, groebner, numerics, operators


def _count_minors(counts, args, result):
    counts["exact.minors.count"] += len(result)


# (span name, owner, attribute, post-call hook)
SPANS = [
    ("cli.main", cli, "main", None),
    ("operators.load_op", operators, "load_op", None),
    ("groebner.zero_dim_origin", groebner, "zero_dim_origin", None),
    ("groebner.module_member", groebner, "module_member_with_coeffs", None),
    ("exact.minors", exact.PolyMatrix, "minors", _count_minors),
    ("exact.evaluate", exact.MultiPoly, "evaluate", None),
    ("exact.evaluate", exact.PolyMatrix, "evaluate", None),
    ("exact.charpoly", exact.PolyMatrix, "charpoly", None),
    ("exact.polymatmul", exact.PolyMatrix, "__matmul__", None),
] + [
    ("exact.echelon", exact.ScalarMatrix, name, None)
    for name in ("rank", "kernel_basis", "solve", "column_space_basis")
] + [
    (f"analysis.{name}", analysis, name, None)
    for name in ("rank_profile", "is_elliptic", "kernel_inclusion", "find_witness",
                 "construct_L", "compute_W", "construct_annihilator", "construct_Cbeta",
                 "polynomial_lift")
] + [
    (f"numerics.{name}", numerics, name, None)
    for name in ("korn_constant_p2", "counterexample_blowup", "bb_ratio_experiment",
                 "sobolev_ratio_experiment")
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct_bases: set = set()
        self.window = 0
        self._restore: list = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn, post):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack)
        counts, clock = self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                post(counts, args, result)
            return result

        return wrapper

    def _basis_built(self, fn):
        counts, distinct = self.counts, self.distinct_bases

        def wrapper(basis, gens, order):
            fn(basis, gens, order)
            counts["groebner.basis.builds"] += 1
            distinct.add((order.kind, tuple(basis.input_gens)))
            counts["groebner.basis.size_max"] = max(
                counts["groebner.basis.size_max"], len(basis.generators))

        return wrapper

    def _symbol_built(self, fn):
        counts = self.counts

        def wrapper(op):
            if op._symbol is None:
                counts["operators.symbol.builds"] += 1
            return fn(op)

        return wrapper

    def _grid_values(self, fn):
        counts = self.counts

        def wrapper(field):
            fn(field)
            counts["numerics.grid_values"] += field.values.size

        return wrapper

    def _patch(self, owner, attr, wrapped):
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("symcheck"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapped)

    def install(self):
        for name, owner, attr, post in SPANS:
            self._patch(owner, attr, self._span(name, owner.__dict__[attr], post))
        self._patch(groebner.GroebnerBasis, "__init__",
                    self._basis_built(groebner.GroebnerBasis.__init__))
        self._patch(operators.DiffOp, "symbol", self._symbol_built(operators.DiffOp.symbol))
        self._patch(numerics.GridField, "__post_init__",
                    self._grid_values(numerics.GridField.__post_init__))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def begin_window(self):
        """Metrics from here on: the warm-up pass is left out."""
        self.window = len(self.start)
        self.counts.clear()
        self.distinct_bases.clear()

    def self_times(self):
        n = len(self.start)
        children = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += self.end[i] - self.start[i]
        calls, self_s = Counter(), Counter()
        for i in range(self.window, n):
            nid, p = self.span_name[i], self.parent[i]
            name = self.names[nid]
            if p < 0 or self.span_name[p] != nid:
                calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - children[i]
        return calls, self_s

    def metrics(self, passes: int) -> dict:
        """Per-pass values: calls, counts and self seconds of every layer."""
        calls, self_s = self.self_times()
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
        for key, value in self.counts.items():
            out[key] = value if key.endswith("_max") else value / passes
        for key in ("groebner.basis.builds", "groebner.basis.size_max",
                    "operators.symbol.builds", "numerics.grid_values", "exact.minors.count"):
            out.setdefault(key, 0)
        out["groebner.basis.builds_distinct"] = len(self.distinct_bases)
        return out

    def write(self, path):
        """All spans, one per line: name, start, end, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")
