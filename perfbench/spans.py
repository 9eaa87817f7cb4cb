"""Spans and call counts recorded around calls into the layers of ``rbu3``.

The wrappers live here, in the benchmark, not in the program.  ``install``
puts a wrapper in place of each listed function or method in every ``rbu3``
module namespace and class that binds it, so calls made inside the package
(``catalog`` calling ``buchberger``, ``buchberger`` calling ``autoreduce``)
are recorded as well as the benchmark's own calls.

Spans are kept in memory as four parallel arrays (name id, parent span id,
start, end) and written out at the end of the run.  A span's self time is its
duration minus the durations of its direct children.  Functions called far
too often for a span each (``mono_divides``, ``MonomialOrder.key``) are only
counted.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, metric, kind): kind "span" records a span per call and
# gives calls and self_s; kind "count" only counts calls.
LAYER_CALLS = (
    ("poly", "mono_divides", "poly.mono_divides", "count"),
    ("poly", "MonomialOrder.key", "poly.order_key", "count"),
    ("poly", "MultiPoly.__mul__", "poly.mul", "span"),
    ("poly", "MultiPoly.substitute", "poly.substitute", "span"),
    ("poly", "MultiPoly.retable", "poly.retable", "count"),
    ("groebner", "buchberger", "groebner.buchberger", "span"),
    ("groebner", "autoreduce", "groebner.autoreduce", "span"),
    ("groebner", "normal_form", "groebner.normal_form", "span"),
    ("groebner", "s_polynomial", "groebner.s_polynomial", "span"),
    ("matrices", "solve_exact", "matrices.solve_exact", "span"),
    ("matrices", "exact_rank", "matrices.exact_rank", "count"),
    ("matrices", "UTMatrix.__mul__", "matrices.utmatrix_mul", "span"),
    ("operators", "rb_residual", "operators.rb_residual", "span"),
    ("operators", "generate_system", "operators.generate_system", "span"),
    ("transform", "AlgebraMap.__init__", "transform.algebra_map_init", "span"),
    ("transform", "AlgebraMap.inverse_columns", "transform.inverse_columns", "span"),
    ("transform", "build_psi", "transform.build_psi", "count"),
    ("transform", "theta13", "transform.theta13", "count"),
    ("transform", "conjugate_operator", "transform.conjugate_operator", "span"),
    ("transform", "find_conjugation", "transform.find_conjugation", "span"),
    ("catalog", "run_case", "catalog.run_case", "span"),
    ("catalog", "verify_all", "catalog.verify_all", "span"),
)

PACKAGE = "rbu3"
GB_STATS = ("pairs_considered", "pairs_reduced", "zero_reductions", "restarts",
            "basis_size")


def _namespaces():
    """Every module of the package, and every class those modules define."""
    modules = [m for name, m in sys.modules.items()
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    seen = set()
    for module in modules:
        yield module
        for value in list(vars(module).values()):
            if (isinstance(value, type) and id(value) not in seen
                    and value.__module__.startswith(PACKAGE)):
                seen.add(id(value))
                yield value


class Tracer:
    """Records spans and counts while installed; aggregates them per pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._counts = {}
        self._gb = Counter()
        self._patched = []
        self._pass_first_span = 0
        self._pass_start = 0.0
        self.passes = []          # one dict of layer totals per traced pass
        self.pass_bounds = []     # (first span id, end span id) per traced pass

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, metric, fn, observe=None):
        nid = self.name_id(metric)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def count_wrapper(self, metric, fn):
        cell = self._counts.setdefault(metric, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe_gb(self, gb):
        for field in GB_STATS:
            self._gb[field] += getattr(gb.stats, field)

    def install(self):
        """Wrap every listed callable wherever the package binds it."""
        for module_name, attr, metric, kind in LAYER_CALLS:
            original = sys.modules[f"{PACKAGE}.{module_name}"]
            for part in attr.split("."):
                original = getattr(original, part)
            if kind == "count":
                wrapper = self.count_wrapper(metric, original)
            else:
                observe = self._observe_gb if metric == "groebner.buchberger" else None
                wrapper = self.span_wrapper(metric, original, observe)
            bound = 0
            for holder in _namespaces():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))
                        bound += 1
            if not bound:
                raise RuntimeError(f"{module_name}.{attr} is bound nowhere")

    def uninstall(self):
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    # -- passes ------------------------------------------------------------

    def begin_pass(self):
        self._pass_first_span = len(self.span_start)
        self._pass_start = time.perf_counter()
        for cell in self._counts.values():
            cell[0] = 0
        self._gb.clear()

    def end_pass(self, probe):
        """Aggregate the pass.  The speed probe's samples interrupt whatever
        call is running; their time is taken out of that call's self time."""
        first, end = self._pass_first_span, len(self.span_start)
        self_s = defaultdict(float)
        calls = Counter()
        for sid in range(first, end):
            duration = self.span_end[sid] - self.span_start[sid]
            name = self.names[self.span_name[sid]]
            self_s[name] += duration
            calls[name] += 1
            parent = self.span_parent[sid]
            if parent >= 0:
                self_s[self.names[self.span_name[parent]]] -= duration
        starts = self.span_start[first:end].tolist()
        for p_start, p_end in zip(probe.starts, probe.ends):
            if p_start < self._pass_start:
                continue
            # the innermost running span is the last one started, or one of
            # its ancestors
            sid = first + bisect.bisect_right(starts, p_start) - 1
            while sid >= first and self.span_end[sid] < p_end:
                sid = self.span_parent[sid]
            if sid >= first:
                self_s[self.names[self.span_name[sid]]] -= p_end - p_start
        totals = {"self_s": dict(self_s), "calls": dict(calls),
                  "gb": dict(self._gb)}
        totals["calls"].update({m: cell[0] for m, cell in self._counts.items()})
        self.passes.append(totals)
        self.pass_bounds.append((first, end))

    def write(self, path):
        """Header line of JSON, then the four span arrays as raw bytes."""
        header = {
            "format": "perfbench spans 1",
            "spans": len(self.span_start),
            "arrays": [["name", self.span_name.typecode],
                       ["parent", self.span_parent.typecode],
                       ["start_s", self.span_start.typecode],
                       ["end_s", self.span_end.typecode]],
            "byteorder": sys.byteorder,
            "names": self.names,
            "passes": self.pass_bounds,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
