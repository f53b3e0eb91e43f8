"""The exact routes and the initial slope against a 40-digit reference.

Each point evaluates p, <n> and the exact trace formula for D in mpmath
from the same float parameters (:func:`oracle.reference_linewidth`), so
the error asserted is each route's own, not a gap between two float
routes.  Largest errors measured when the bounds were set:
``linewidth_components`` 6.1e-15 (its sine part at fixed tau, r=1000,
theta=2.5 pi), ``linewidth_exp_closed`` 7.8e-16, and the slope 2.0e-11
(fixed tau, r=1000, theta=pi), whose G v0 sums terms about r/D times
larger than its result.
"""

import math

import pytest

from maserline import (
    DiscreteTau,
    ExponentialTau,
    FixedTau,
    MaserParams,
    build_sideband_generator,
    initial_sideband,
    linewidth_components,
    linewidth_exp_closed,
    linewidth_from_slope,
    steady_state,
)
from oracle import reference_linewidth, relative_error

EXACT_TOL = 1e-14
SLOPE_TOL = 1e-10
THREE_NODES = DiscreteTau([0.5, 1.0, 1.5], [0.25, 0.5, 0.25])


def _maser(theta_over_pi, r, tau_dist=FixedTau(1.0)):
    """n_th = 0.01, with theta at the unit (mean) interaction time."""
    return MaserParams(1.0, 0.01, r, theta_over_pi * math.pi / math.sqrt(r), tau_dist)


POINTS = {
    "fixed_r50_pi": _maser(1.0, 50.0),
    "fixed_r50_2.5pi": _maser(2.5, 50.0),
    "fixed_r1000_pi": _maser(1.0, 1000.0),
    "fixed_r1000_2.5pi": _maser(2.5, 1000.0),
    "three_nodes_r50_pi": _maser(1.0, 50.0, THREE_NODES),
    "three_nodes_r50_2.5pi": _maser(2.5, 50.0, THREE_NODES),
    "exp_r50_gbar0.3": MaserParams(1.0, 0.0, 50.0, 0.3, ExponentialTau(1.0)),
    "exp_r1000_gbar0.1": MaserParams(1.0, 0.0, 1000.0, 0.1, ExponentialTau(1.0)),
}


@pytest.mark.parametrize("params", POINTS.values(), ids=POINTS.keys())
def test_routes_match_the_40_digit_reference(params):
    stats = steady_state(params)
    ref = reference_linewidth(params, stats.N)
    breakdown = linewidth_components(params, stats)
    errors = {
        "mean": relative_error(stats.mean, ref.mean),
        "cosine": relative_error(breakdown.cosine, ref.cosine),
        "sine": relative_error(breakdown.sine, ref.sine),
        "total": relative_error(breakdown.total, ref.total),
    }
    if isinstance(params.tau_dist, ExponentialTau):
        errors["exp_closed"] = relative_error(linewidth_exp_closed(params, stats), ref.total)
    assert max(errors.values()) <= EXACT_TOL, errors
    slope = linewidth_from_slope(build_sideband_generator(params, stats.N), initial_sideband(stats))
    assert relative_error(slope, ref.total) <= SLOPE_TOL
