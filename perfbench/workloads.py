"""Workloads of the maserline benchmark: what one pass runs, and why.

Every workload is a closed loop with one client.  The operations of a
pass run one after another in the benchmark process, and the next pass
starts when the last operation of the previous one has returned.  An
operation is either one CLI command, called in-process through
``maserline.cli.main(argv)`` with ``--jobs 1``, or one library point.

scan -- the figure-making traffic
    Three ``scan-theta`` scans at r/kappa = 50, 1000 and 5000 (basis sizes
    N = 200, 4000 and 20000), one ``fock-resolved`` command and one
    ``uniform-convergence`` scan.  Chosen because it does most of its work
    in the truncation search, the recurrence, the pump weights, the
    generator build, the slope, ``uniform`` and output formatting, across
    basis sizes from 200 to 20000.  It runs no correlation, no eigen solve
    and no dense trace.

spectrum -- the operating-point traffic
    Three ``spectrum`` commands (fixed tau at r=50 and r=200, exponential
    tau at r=50).  Chosen because about 95 % of its time is
    ``regression.correlate`` (an explicit DOP853 solve with 47k-205k
    generator applications per command), plus the eigen solve and the
    FWHM bisection; truncation and weights are a small share.

crosscheck -- the verification traffic, i.e. the paper's own claim
    Five library points.  Each runs ``steady_state``,
    ``linewidth_components``, ``linewidth_from_slope``,
    ``spectral_decomposition`` and, where listed,
    ``linewidth_lindblad_trace``, and the routes must agree.  Chosen
    because it uses ``averages`` differently from ``scan``: through the
    Gauss-Laguerre node ladder and literal dense jump matrices rather than
    one node or closed forms.  Most of its time is the O(N^3) trace.  At
    the r=1000, N=4000 point the eigen route refuses with a typed
    ``SpectralError`` (its amplitudes span more than double precision
    holds); the benchmark expects that refusal, counts it, and requires
    agreement instead should the route start to succeed.

Left out on purpose: r/kappa = 1e4, where the truncation search fails
with ``ResourceLimitError`` in about 1 ms, and the jump-operator trace at
N >= 1000.  A fix that turned either into a multi-second success would
read as a latency regression; they belong in the change that adds them.

The seed sets the order of the operations within a pass and small
jitters of the inputs: scan endpoints within +-2 %, spectrum g*tau within
+-2 % (+-0.5 % at r=50 and [-2 %, 0] at r=200, see ``_spectrum_ops``) and
crosscheck theta within [2.3 pi, 2.7 pi].  Seed 0 runs the inputs exactly as listed,
in the listed order; the golden outputs were captured from it, and its
baseline numbers are in README.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("scan", "spectrum", "crosscheck")


@dataclass(frozen=True)
class Point:
    """One crosscheck point: a parameter set and the routes it runs."""

    dist: str  # "fixed", "exp" or "discrete"
    rate: float
    n_th: float
    g_tau: float  # g * tau for fixed and discrete (mean tau = 1), g * tau_bar for exp
    N: int | None = None
    trace: bool = True
    eigen_may_refuse: bool = False


@dataclass(frozen=True)
class Op:
    """One operation: ``argv`` for a CLI command, ``point`` for a library point."""

    key: str
    command: str
    argv: tuple[str, ...] = ()
    point: Point | None = None


# three-node interaction-time list of the crosscheck point, mean tau = 1
DISCRETE_TAUS = (0.7, 1.0, 1.3)
DISCRETE_WEIGHTS = (0.3, 0.4, 0.3)


def _num(x: float) -> str:
    return repr(float(x))


def _jitter(rng: random.Random | None, value: float, rel: float) -> float:
    return value if rng is None else value * (1.0 + rel * rng.uniform(-1.0, 1.0))


def _theta_g_tau(rng: random.Random | None, rate: float) -> float:
    """g*tau of the point whose pump parameter theta is 2.5 pi (seed 0) or
    drawn from [2.3 pi, 2.7 pi]."""
    theta = 2.5 * math.pi if rng is None else rng.uniform(2.3, 2.7) * math.pi
    return theta / math.sqrt(rate)


def _scan_ops(rng):
    ops = []
    for rate, steps in ((50, 200), (1000, 50), (5000, 20)):
        lo, hi = _jitter(rng, 0.1, 0.02), _jitter(rng, 4.0, 0.02)
        argv = ("scan-theta", "--rate", str(rate), "--nth", "0.01",
                "--min", _num(lo), "--max", _num(hi), "--steps", str(steps))
        ops.append(Op(f"scan_theta_r{rate}", "scan-theta", argv))
    ops.append(Op("fock_resolved", "fock-resolved",
                  ("fock-resolved", "--rate", "200", "--nth", "0.1",
                   "--g-tau", "0.4665", "--g-tau", "0.4887")))
    lo, hi = _jitter(rng, 0.2, 0.02), _jitter(rng, 3.0, 0.02)
    ops.append(Op("uniform_convergence", "uniform-convergence",
                  ("uniform-convergence", "--dist", "exp",
                   "--min", _num(lo), "--max", _num(hi), "--steps", "60")))
    return ops


def _spectrum_ops(rng):
    # (key, flags, g*tau, lowest and highest jitter factor).  The jitter is
    # narrower where the work of the correlation solve is steep in g*tau, so
    # the seed-to-seed spread of pass_s stays well inside its bound.  At r=50
    # the generator applications change by 3 % per 1 % of g*tau; at r=200 they
    # are 1.1x seed 0's at g*tau x 1.005 and 2.1x at x 1.02, but stay within
    # 4 % of it below.
    specs = (
        ("spectrum_fixed_r50", ("--rate", "50", "--nth", "0.01"), 0.35, 0.995, 1.005),
        ("spectrum_fixed_r200", ("--rate", "200", "--nth", "0.1"), 0.4665, 0.98, 1.0),
        ("spectrum_exp_r50", ("--rate", "50", "--dist", "exp"), 0.3, 0.98, 1.02),
    )
    ops = []
    for key, flags, g_tau, low, high in specs:
        if rng is not None:
            g_tau *= rng.uniform(low, high)
        ops.append(Op(key, "spectrum", ("spectrum", *flags, "--g-tau", _num(g_tau))))
    return ops


def _crosscheck_ops(rng):
    points = (
        ("point_fixed_r50", Point("fixed", 50.0, 0.01, _theta_g_tau(rng, 50.0))),
        ("point_fixed_r200_N800", Point("fixed", 200.0, 0.1, 0.4665, N=800)),
        ("point_exp_r50", Point("exp", 50.0, 0.0, 0.3)),
        ("point_discrete_r50", Point("discrete", 50.0, 0.01, _theta_g_tau(rng, 50.0))),
        ("point_fixed_r1000_N4000", Point("fixed", 1000.0, 0.01, _theta_g_tau(rng, 1000.0),
                                          N=4000, trace=False, eigen_may_refuse=True)),
    )
    return [Op(key, "crosscheck", point=point) for key, point in points]


_OPS_BY_WORKLOAD = {"scan": _scan_ops, "spectrum": _spectrum_ops, "crosscheck": _crosscheck_ops}


def build_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one pass, in the order the seed gives them."""
    rng = None if seed == 0 else random.Random(seed)
    ops = _OPS_BY_WORKLOAD[workload](rng)
    if rng is not None:
        rng.shuffle(ops)
    return [
        Op(op.key, op.command, (*op.argv, "--jobs", "1"), op.point) if op.argv else op
        for op in ops
    ]


def run_point(m, point: Point) -> dict:
    """Every route of one crosscheck point; ``m`` is the ``maserline`` package."""
    if point.dist == "fixed":
        dist = m.FixedTau(1.0)
    elif point.dist == "exp":
        dist = m.ExponentialTau(1.0)
    else:
        dist = m.DiscreteTau(list(DISCRETE_TAUS), list(DISCRETE_WEIGHTS))
    params = m.MaserParams(kappa=1.0, n_th=point.n_th, r=point.rate, g=point.g_tau, tau_dist=dist)
    stats = m.steady_state(params, point.N)
    result = {"N": stats.N, "n_mean": stats.mean}
    result["exact"] = m.linewidth_components(params, stats).total
    gen = m.build_sideband_generator(params, stats.N)
    v0 = m.initial_sideband(stats)
    result["slope"] = m.linewidth_from_slope(gen, v0)
    try:
        result["eigen"] = m.spectral_decomposition(gen, v0).linewidth
    except m.SpectralError:
        if not point.eigen_may_refuse:
            raise
        result["eigen"] = "SpectralError"
    if point.trace:
        result["trace"] = m.linewidth_lindblad_trace(params, stats)
    return result


# Span names (see tracer.py) that each workload must exercise, and those
# it must not touch.  Reported by the traced run.
EXPECTED_SPANS = {
    "scan": (
        "steady.auto_truncation", "steady.steady_state", "averages.trig",
        "linewidth.pump_weights", "linewidth.mcgowan_weights", "linewidth.linewidth_components",
        "regression.build_sideband_generator", "regression.linewidth_from_slope",
        "uniform.build_uniform_lindblad", "uniform.uniform_steady_state",
        "uniform.uniform_generator", "uniform.uniform_linewidth", "cli.main", "cli._emit",
    ),
    "spectrum": (
        "steady.steady_state", "regression.build_sideband_generator", "regression.correlate",
        "regression.spectral_decomposition", "regression.spectrum_and_fwhm",
        "regression.linewidth_from_slope", "cli.main", "cli._emit",
    ),
    "crosscheck": (
        "steady.steady_state", "averages.trig", "averages.refine_until_stable",
        "averages.quadrature_nodes", "linewidth.linewidth_components",
        "linewidth.linewidth_lindblad_trace", "linewidth.jump_operator_matrices",
        "regression.build_sideband_generator", "regression.spectral_decomposition",
        "regression.linewidth_from_slope",
    ),
}
PREDICTED_ZERO = {
    "scan": ("regression.correlate", "linewidth.linewidth_lindblad_trace",
             "linewidth.jump_operator_matrices"),
    "spectrum": ("linewidth.linewidth_lindblad_trace", "linewidth.jump_operator_matrices",
                 "uniform.build_uniform_lindblad"),
    "crosscheck": ("regression.correlate", "uniform.build_uniform_lindblad", "cli.main"),
}
