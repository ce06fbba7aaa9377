"""The benchmark's per-layer tracer (perfbench/tracing.py) wraps package
functions by name; a renamed or merged function would drop its layer from
traced runs without failing them. This checks that every site the tracer
names still resolves, and that every figure export passes through one."""

import importlib.util
import os
import sys

import pytest

from nucaug import experiment, report

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer(tracing):
    assert tracing.Tracer().absent == {}


def test_tracer_sees_every_figure_export(tracing):
    # a figure routed past the traced builders would leave its time out of
    # the benchmark's report.export_s
    rows = [dict(zip(experiment.RESULTS_COLUMNS, ["32-16-8", technique, str(k), "adam", "relu",
                                                  "0", "2.0", "2.5", "0.1", "3500", "64", "ok"]))
            for technique, k in (("none", 0), ("error", 0), ("gaussian", 2), ("gaussian", 5))]
    tracer = tracing.Tracer()
    tracer.begin_unit()
    try:
        for build in report.FIGURES.values():
            build(rows)
    finally:
        tracer.end_unit()
    assert tracer.summary()["calls"]["report.export"] == len(report.FIGURES)
