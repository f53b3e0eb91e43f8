"""The benchmark names package functions and runs CLI commands; a change
that breaks either must fail here, not only in a benchmark run.

``perfbench/tracer.py`` wraps the public functions of each layer module
and the ``TrigAverages`` methods listed in ``TRIG_METHODS``, and
``perfbench/workloads.py`` lists the spans each workload must (and must
not) produce.  A span whose function no longer exists would only show in
a traced run, as missing coverage or as a predicted-zero span that is
zero for the wrong reason.  Every seed-0 operation of the three workloads
is run once here, put through ``perfbench/gate.py``'s own checks and
compared with its golden output in ``perfbench/golden``.  The files are
read by path, never modified.
"""

import gzip
import importlib
import importlib.util
import inspect
import json
import pathlib
import subprocess
import sys

import pytest

import maserline
import maserline.cli
from maserline import DiscreteTau, ExponentialTau, FixedTau, MaserParams, TrigAverages
from maserline.linewidth import jump_operator_matrices

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


def test_trig_methods_name_family_methods():
    # the tracer skips a listed name with no method, so a renamed method would
    # silently drop out of the averages.trig span; sin_cos alone has none
    missing = {method for method in TRACER.TRIG_METHODS if method not in vars(TrigAverages)}
    assert missing <= {"sin_cos"}


def test_closed_form_point_data_raises_value_error():
    # the tracer's count of trig evaluations catches exactly this error
    params = MaserParams(1.0, 0.0, 50.0, 0.3, ExponentialTau(1.0))
    with pytest.raises(ValueError):
        TrigAverages.for_params(params).point_data


# (params, n_nodes) of the families the crosscheck traces: fixed tau with
# and without thermal photons, a node list and a Gauss-Laguerre rule
OPERATOR_SETS = [
    (MaserParams(1.0, 0.0, 50.0, 0.3, FixedTau(1.0)), None),
    (MaserParams(1.0, 0.1, 200.0, 0.4665, FixedTau(1.0)), None),
    (MaserParams(1.0, 0.0, 50.0, 0.3, DiscreteTau([0.5, 1.0, 1.5], [0.25, 0.5, 0.25])), None),
    (MaserParams(1.0, 0.0, 50.0, 0.3, ExponentialTau(1.0)), 128),
]


@pytest.mark.parametrize("params, n_nodes", OPERATOR_SETS, ids=["fixed", "fixed_n_th", "three_nodes", "exp_128"])
def test_jump_operator_set_is_what_the_tracer_counts(params, n_nodes):
    # the tracer counts linewidth.jump_operator_matrices.matrices as len(ops)
    # and sizes the trace's flop and byte estimates from ops[0].shape[0]
    family = TrigAverages.for_params(params, n_nodes)
    dim = 41
    ops = jump_operator_matrices(params, dim, family)
    assert isinstance(ops, list)
    assert len(ops) == 1 + (params.n_th > 0) + 2 * family.point_data[0].size
    assert all(op.shape == (dim, dim) for op in ops)


GATE = _load("gate")
OPS = [op for workload in WORKLOADS.WORKLOADS for op in WORKLOADS.build_ops(workload, 0)]


def _golden(workload):
    with gzip.open(PERFBENCH / "golden" / f"{workload}.json.gz", "rt") as fh:
        return json.load(fh)


GOLDEN = {key: text for workload in WORKLOADS.WORKLOADS for key, text in _golden(workload).items()}


def _op_text(op, capsys):
    if op.point is not None:
        return GATE.point_text(WORKLOADS.run_point(maserline, op.point))
    # looked up on the module, so a traced run sees the wrapped function
    code = maserline.cli.main(list(op.argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize("op", OPS, ids=[op.key for op in OPS])
def test_benchmark_operation_runs(op, capsys):
    """Every seed-0 operation of the benchmark runs, passes the output
    gate's own checks and matches its golden output, so a signature
    change, a new CLI refusal, a drift past the golden tolerance or an
    expected refusal that starts to succeed fails here too."""
    text = _op_text(op, capsys)
    assert GATE.check_output(text, op.command) == []
    assert GATE.compare_golden(text, GOLDEN[op.key], op.command) == []


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_traced_workload_spans(workload, capsys):
    """The seed-0 operations of each workload produce every span the
    benchmark expects and none it predicts to be zero, as the traced
    benchmark run checks."""
    spans = TRACER.Tracer()
    spans.install()
    try:
        for op in WORKLOADS.build_ops(workload, 0):
            _op_text(op, capsys)
    finally:
        spans.uninstall()
    seen = spans.spans()
    assert set(WORKLOADS.EXPECTED_SPANS[workload]) <= seen
    assert not seen & set(WORKLOADS.PREDICTED_ZERO[workload])


def test_operations_in_one_process_match_a_fresh_process_each(capsys):
    """``main`` reuses one parser within a process: the seed-0 spectrum
    operations and one scan-theta operation, run one after another here,
    give the bytes each gives in a fresh interpreter."""
    ops = [*WORKLOADS.build_ops("spectrum", 0),
           next(op for op in WORKLOADS.build_ops("scan", 0) if op.command == "scan-theta")]
    fresh = [subprocess.Popen([sys.executable, "-m", "maserline", *op.argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) for op in ops]
    try:
        in_process = []
        for op in ops:
            code = maserline.cli.main(list(op.argv))
            captured = capsys.readouterr()
            in_process.append((code, captured.out.encode(), captured.err.encode()))
        separate = []
        for proc in fresh:
            out, err = proc.communicate(timeout=60)
            separate.append((proc.returncode, out, err))
    finally:
        for proc in fresh:
            proc.kill()
            proc.wait()
    for op, outcome, expected in zip(ops, in_process, separate):
        assert outcome == expected, op.key
        assert outcome[0] == 0
