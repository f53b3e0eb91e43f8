"""The benchmark names package functions and runs CLI commands; a change
that breaks either must fail here, not only in a benchmark run.

``perfbench/tracer.py`` wraps the public functions of each layer module
and the ``TrigAverages`` methods listed in ``TRIG_METHODS``, and
``perfbench/workloads.py`` lists the spans each workload must (and must
not) produce.  A span whose function no longer exists would only show in
a traced run, as missing coverage or as a predicted-zero span that is
zero for the wrong reason.  Every seed-0 operation of the three workloads
is run once here and put through ``perfbench/gate.py``'s own checks.  The
files are read by path, never modified.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

import maserline
from maserline import ExponentialTau, MaserParams, TrigAverages
from maserline.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the defining module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
TRACER = _load("tracer")
SPANS = sorted(
    {span for table in (WORKLOADS.EXPECTED_SPANS, WORKLOADS.PREDICTED_ZERO) for names in table.values() for span in names}
)


@pytest.mark.parametrize("span", SPANS)
def test_span_resolves_to_a_traced_function(span):
    layer, attr = span.split(".", 1)
    assert layer in TRACER.LAYERS
    if span == "averages.trig":
        assert any(method in vars(TrigAverages) for method in TRACER.TRIG_METHODS)
        return
    module = importlib.import_module(f"maserline.{layer}")
    fn = vars(module).get(attr)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, f"{span} is not a function of {module.__name__}"
    assert not attr.startswith("_") or span in TRACER.PRIVATE_SPANS


def test_closed_form_point_data_raises_value_error():
    # the tracer's count of trig evaluations catches exactly this error
    params = MaserParams(1.0, 0.0, 50.0, 0.3, ExponentialTau(1.0))
    with pytest.raises(ValueError):
        TrigAverages.for_params(params).point_data


GATE = _load("gate")
OPS = [op for workload in WORKLOADS.WORKLOADS for op in WORKLOADS.build_ops(workload, 0)]


@pytest.mark.parametrize("op", OPS, ids=[op.key for op in OPS])
def test_benchmark_operation_runs(op, capsys):
    """Every seed-0 operation of the benchmark runs and passes the output
    gate's own checks, so a signature change or a new CLI refusal that
    would fail the benchmark fails here too."""
    if op.point is not None:
        text = GATE.point_text(WORKLOADS.run_point(maserline, op.point))
    else:
        code = main(list(op.argv))
        captured = capsys.readouterr()
        assert code == 0, captured.err
        text = captured.out
    assert GATE.check_output(text, op.command) == []
