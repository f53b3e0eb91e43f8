"""maserline benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 0 --seconds 30 --trace 0

``--workload`` is ``scan``, ``spectrum`` or ``crosscheck`` (see
workloads.py for what each runs and why).  The run imports maserline from
``src/`` of the checkout, pins BLAS and OpenMP to one thread, runs one
untimed pass of the seed-0 operations against the golden outputs, proves
the output gate catches perturbed outputs, and then runs passes of the
seeded operations for ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced (tracer.py) and reports the per-layer
metrics, each per pass, plus the tracing overhead.  Summary lines and the
environment go to stdout first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# before numpy is imported: one BLAS / OpenMP thread (multi-thread runs
# spread 10x wider between passes on a 2-core machine)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = HERE / "golden"
SETUP_SAMPLES = 15
# os._exit: interpreter teardown is not set-up, so it is left out of the time
SETUP_CODE = "import os, maserline.cli; maserline.cli.build_parser(); os._exit(0)"
TAIL_BEYOND = 10  # samples a reported percentile must have above it


def import_maserline():
    """The maserline package from this checkout's ``src/``, never another copy."""
    if not (SRC / "maserline" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'maserline'} not found; run from a maserline checkout")
    sys.path.insert(0, str(SRC))
    import maserline
    import maserline.cli

    if Path(maserline.__file__).resolve().parent != SRC / "maserline":
        raise SystemExit(f"error: imported maserline from {maserline.__file__}, not {SRC}")
    return maserline


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json.gz"


def load_golden(workload: str) -> dict:
    with gzip.open(golden_path(workload), "rt") as fh:
        return json.load(fh)


class Runner:
    """Runs operations in-process and checks their outputs."""

    def __init__(self, m):
        self.m = m

    def run_op(self, op):
        """(output text or None, error or None, seconds) of one operation."""
        if op.point is not None:
            start = time.perf_counter()
            try:
                result = workloads.run_point(self.m, op.point)
            except Exception as exc:  # a failed operation, counted and reported
                return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
            return gate.point_text(result), None, time.perf_counter() - start
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.m.cli.main(list(op.argv))
        except Exception as exc:  # a failed operation, counted and reported
            return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if code != 0:
            return None, err.getvalue().strip() or f"exit code {code}", elapsed
        return out.getvalue(), None, elapsed

    def golden_pass(self, workload: str, golden: dict):
        """One untimed pass of the seed-0 operations against the goldens.

        Returns (outputs by key, problems).  Also warms caches and lazy imports.
        """
        outputs, problems = {}, []
        for op in workloads.build_ops(workload, 0):
            text, error, _ = self.run_op(op)
            if error:
                problems.append(f"{op.key} (seed 0): {error}")
                continue
            found = gate.check_output(text, op.command) + gate.compare_golden(text, golden[op.key], op.command)
            problems += [f"{op.key} (seed 0): {p}" for p in found]
            outputs[op.key] = text
        return outputs, problems

    def passes(self, ops, seconds: float, reference: dict, golden: dict, setup_samples: int = 0):
        """Closed-loop passes over ``ops`` for ``seconds`` seconds.

        Each output must equal ``reference[key]`` byte for byte; a key not
        yet there is checked by the gate (against ``golden[key]`` too, where
        there is one) and becomes the reference.  With
        ``setup_samples``, that many set-up times are measured between
        passes, spread over the run, outside the pass timing and the
        ``seconds`` budget.
        """
        result = {"pass_s": [], "command_s": [], "attempted": 0, "failed": 0, "problems": [],
                  "setup_s": []}
        if setup_samples:
            measure_setup()  # the first fresh interpreter also writes bytecode caches
        start = time.perf_counter()
        setup_time = 0.0
        while not result["pass_s"] or time.perf_counter() - start - setup_time < seconds:
            gc.collect()
            total, per_command = 0.0, defaultdict(float)
            for op in ops:
                text, error, elapsed = self.run_op(op)
                total += elapsed
                per_command[op.command] += elapsed
                result["attempted"] += 1
                if error is None and op.key not in reference:
                    found = gate.check_output(text, op.command)
                    if op.key in golden:
                        found += gate.compare_golden(text, golden[op.key], op.command)
                    if found:
                        error = "; ".join(found[:3])
                    else:
                        reference[op.key] = text
                elif error is None and text != reference[op.key]:
                    error = "output differs from an earlier repeat"
                if error:
                    result["failed"] += 1
                    if len(result["problems"]) < 10:
                        result["problems"].append(f"{op.key}: {error}")
            result["pass_s"].append(total)
            result["command_s"].append(per_command)
            due = (time.perf_counter() - start - setup_time) * setup_samples / seconds
            if len(result["setup_s"]) < min(due, setup_samples):
                result["setup_s"].append(measure_setup())
                setup_time += result["setup_s"][-1]
        while len(result["setup_s"]) < setup_samples:
            result["setup_s"].append(measure_setup())
        return result


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing maserline and building the CLI parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def tail(samples):
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples
    above it, or (None, None) when that percentile is not above the median."""
    n = len(samples)
    if n <= 2 * TAIL_BEYOND:
        return None, None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def openblas_runtime():
    """Configuration string and thread count reported by each loaded OpenBLAS."""
    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        pattern = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs", "*openblas*")
        for path in sorted(glob.glob(pattern)):
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    config = getattr(lib, f"{prefix}get_config{suffix}", None)
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                    if config is not None and threads is not None:
                        config.restype = ctypes.c_char_p
                        threads.restype = ctypes.c_int
                        found[os.path.basename(path)] = {"config": config().decode(), "threads": threads()}
    return found or "no OpenBLAS library found"


def cache_sizes():
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [Path(index, f).read_text().strip() for f in ("level", "type", "size")]
        except OSError:
            continue
        sizes[f"L{fields[0]} {fields[1]}"] = fields[2]
    return sizes or "unavailable"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_runtime(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "jobs": 1,
        "caches": cache_sizes(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    m = import_maserline()
    workload = args.workload
    runner = Runner(m)
    golden = load_golden(workload)
    print("# env " + json.dumps(environment()))

    outputs0, problems = runner.golden_pass(workload, golden)
    commands = {op.key: op.command for op in workloads.build_ops(workload, 0)}
    if not problems:
        missed = gate.self_test(outputs0, golden, commands)
        problems += [f"gate self-test: {miss}" for miss in missed]
        print(f"# golden check: {len(outputs0)} outputs match; gate self-test: "
              + ("ok" if not missed else f"{len(missed)} perturbations undetected"))

    ops = workloads.build_ops(workload, args.seed)
    reference = {}
    golden_now = golden if args.seed == 0 else {}  # goldens hold seed-0 inputs only
    print(f"# workload {workload}, seed {args.seed}, operation order: {[op.key for op in ops]}")

    if args.trace == 0:
        run = runner.passes(ops, args.seconds, reference, golden_now, SETUP_SAMPLES)
        metrics = {
            "setup_s": metric(statistics.median(run["setup_s"]), "s"),
            "pass_s": metric(statistics.median(run["pass_s"]), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        _print_summary(run, ops, reference)
    else:
        half = args.seconds / 2.0
        plain = runner.passes(ops, half, reference, golden_now)
        spans = tracer.Tracer()
        spans.install()
        try:
            run = runner.passes(ops, half, reference, golden_now)
        finally:
            spans.uninstall()
        texts = [reference.get(op.key, "") for op in ops if op.point is None]
        layer = spans.layer_metrics(
            len(run["pass_s"]),
            rows_out=sum(max(text.count("\n") - 2, 0) for text in texts),
            bytes_out=sum(len(text.encode()) for text in texts),
        )
        overhead = statistics.median(run["pass_s"]) / statistics.median(plain["pass_s"]) - 1.0
        layer["trace.overhead_frac"] = (overhead, "frac")
        metrics = {name: metric(value, unit) for name, (value, unit) in layer.items()}
        _print_summary(plain, ops, reference)
        seen = spans.spans()
        missing = [s for s in workloads.EXPECTED_SPANS[workload] if s not in seen]
        unexpected = [s for s in workloads.PREDICTED_ZERO[workload] if s in seen]
        print(f"# traced passes: {len(run['pass_s'])}; outputs byte-identical to untraced: "
              + ("yes" if not run["failed"] else "no"))
        print(f"# coverage: expected spans missing {missing or 'none'}; "
              f"predicted-zero spans present {unexpected or 'none'}")
        problems += [f"coverage: expected span {s} missing" for s in missing]
        problems += [f"coverage: predicted-zero span {s} present" for s in unexpected]
        problems += plain["problems"]
        run["attempted"] += plain["attempted"]
        run["failed"] += plain["failed"]

    problems += run["problems"]
    for problem in problems:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


def _print_summary(run, ops, outputs):
    passes = run["pass_s"]
    pct, value = tail(passes)
    tail_text = (f"p{pct:.0f} {value:.6g} s" if pct
                 else f"no percentile above the median has {TAIL_BEYOND} passes above it")
    print(f"pass_s {statistics.median(passes):.6g} s median; {tail_text}; n={len(passes)} passes")
    for command in dict.fromkeys(op.command for op in ops):
        name = command.replace("-", "_") + "_s"
        print(f"{name} {statistics.median(c[command] for c in run['command_s']):.6g} s per pass (median)")
    refused = sum(op.point is not None and op.key in outputs
                  and json.loads(outputs[op.key])["eigen"] == "SpectralError" for op in ops)
    print(f"fail_frac {run['failed'] / run['attempted']:.6g} ({run['failed']}/{run['attempted']} operations)")
    if refused:
        print(f"refused_frac {refused / len(ops):.6g} (eigen route refuses with SpectralError, "
              "counted as a typed refusal, not a failure)")


if __name__ == "__main__":
    sys.exit(main())
