"""The benchmark's trace hooks still find every function they wrap.

``perfbench/spans.py`` wraps the functions named in its ``LAYER_CALLS`` and
refuses to run when one of them is bound nowhere in the package, so moving
or renaming such a function would break the benchmark.  The file is only
imported here, never edited.
"""

import importlib.util
import pathlib

import rbu3.catalog  # noqa: F401  (imports every layer the hooks name)
from rbu3 import groebner

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
