"""The benchmark's per-layer tracer (perfbench/tracing.py) wraps package
functions by name; a renamed or merged function would drop its layer from
traced runs without failing them. This checks, without tracing anything,
that every site the tracer names still resolves."""

import importlib.util
import os
import sys

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def test_tracer_sees_every_layer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer().absent == {}
