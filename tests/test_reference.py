"""The exact routes and the initial slope against a 40-digit reference.

Each point evaluates p, <n> and the exact trace formula for D in mpmath
from the same float parameters (:func:`oracle.reference_linewidth`), so
the error asserted is each route's own, not a gap between two float
routes.  Largest errors measured when the bounds were set:
``linewidth_components`` 6.1e-15 (its sine part at fixed tau, r=1000,
theta=2.5 pi), ``linewidth_exp_closed`` 7.8e-16, and the slope 2.0e-11
(fixed tau, r=1000, theta=pi), whose G v0 sums terms about r/D times
larger than its result.  The three-node list at r=1000 came to 7.5e-15
(sine part, theta=2.5 pi) and a slope of 5.9e-12 (theta=pi).

Fixed tau at r=5000 (N=20000) has its own bounds, since its rounding
grows past those (ROADMAP item 2): the cosine and sine parts at
theta=2.5 pi were 1.7e-14 and 1.8e-14 off while their total was 2.5e-15
off, and the slope at theta=pi was 1.3e-10 off (9.3e-12 at 2.5 pi).
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
R5000_EXACT_TOL = 5e-14
R5000_SLOPE_TOL = 5e-10
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
    "three_nodes_r1000_pi": _maser(1.0, 1000.0, THREE_NODES),
    "three_nodes_r1000_2.5pi": _maser(2.5, 1000.0, THREE_NODES),
    "exp_r50_gbar0.3": MaserParams(1.0, 0.0, 50.0, 0.3, ExponentialTau(1.0)),
    "exp_r1000_gbar0.1": MaserParams(1.0, 0.0, 1000.0, 0.1, ExponentialTau(1.0)),
}


R5000_POINTS = {
    "fixed_r5000_pi": _maser(1.0, 5000.0),
    "fixed_r5000_2.5pi": _maser(2.5, 5000.0),
}


def _errors(params):
    """Relative errors of the exact routes' parts and of the slope
    against the 40-digit reference on the searched truncation."""
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
    slope = linewidth_from_slope(build_sideband_generator(params, stats.N), initial_sideband(stats))
    return errors, relative_error(slope, ref.total)


@pytest.mark.parametrize("params", POINTS.values(), ids=POINTS.keys())
def test_routes_match_the_40_digit_reference(params):
    errors, slope_error = _errors(params)
    assert max(errors.values()) <= EXACT_TOL, errors
    assert slope_error <= SLOPE_TOL


@pytest.mark.parametrize("params", R5000_POINTS.values(), ids=R5000_POINTS.keys())
def test_routes_match_the_40_digit_reference_at_r5000(params):
    errors, slope_error = _errors(params)
    assert max(errors.values()) <= R5000_EXACT_TOL, errors
    assert slope_error <= R5000_SLOPE_TOL
