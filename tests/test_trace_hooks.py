"""The benchmark's trace hooks still find every function they wrap.

``perfbench/spans.py`` wraps the functions named in its ``LAYER_CALLS`` and
refuses to run when one of them is bound nowhere in the package, so moving
or renaming such a function would break the benchmark.  It also reads each
``GBStats`` field named in its ``GB_STATS`` from every traced ``buchberger``
result, so deleting such a field would too.  The file is only imported
here, never edited.  A traced ``disjoint`` search shows the route it took:
one ``find_conjugation`` span and no ``buchberger`` span.
"""

import importlib.util
import pathlib
from types import SimpleNamespace

import rbu3.catalog  # noqa: F401  (imports every layer the hooks name)
from rbu3 import groebner, transform
from rbu3.operators import Operator
from rbu3.poly import VarTable, parse_poly

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_call_is_bound_and_restored():
    spans = _load_spans()
    original = groebner.buchberger
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises if a listed function is bound nowhere
        assert groebner.buchberger is not original
    finally:
        tracer.uninstall()
    assert groebner.buchberger is original


def test_a_traced_buchberger_gives_every_counter_the_benchmark_reads():
    spans = _load_spans()
    table = VarTable(["x", "y", "z"])
    system = groebner.PolySystem(table, tuple(
        parse_poly(t, table) for t in ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y")))
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.begin_pass()
        gb = groebner.buchberger(system)  # the wrapper reads every GB_STATS field
        tracer.end_pass(SimpleNamespace(starts=[], ends=[]))  # no speed probe
    finally:
        tracer.uninstall()
    counters = tracer.passes[-1]["gb"]
    assert set(counters) == set(spans.GB_STATS)
    assert counters == {name: getattr(gb.stats, name) for name in spans.GB_STATS}
    assert counters["restarts"] == 0 and counters["basis_size"] == len(gb.basis)


def test_a_traced_disjoint_search_runs_no_groebner_engine():
    spans = _load_spans()
    source = Operator.from_images({"e12": "e11"})  # R5
    target = Operator.from_images({"e13": "e11"})
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.begin_pass()
        result = transform.find_conjugation(source, target)
        tracer.end_pass(SimpleNamespace(starts=[], ends=[]))
    finally:
        tracer.uninstall()
    assert result.status == "disjoint"
    calls = tracer.passes[-1]["calls"]
    assert calls["transform.find_conjugation"] == 1
    assert calls.get("groebner.buchberger", 0) == 0
