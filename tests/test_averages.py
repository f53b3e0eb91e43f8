"""Oracle checks for the interaction-time averaging machinery.

The closed forms are validated against brute-force quadrature on a dense
grid, and the quadrature rule against moments of the exponential density
integrated by a high-resolution trapezoid oracle.
"""

import math

import numpy as np
import pytest

from maserline import (
    DiscreteTau,
    ExponentialTau,
    FixedTau,
    MaserParams,
    QuadratureError,
    TrigAverages,
    quadrature_nodes,
    refine_until_stable,
)

_TRIG = {"cos_cos": (np.cos, np.cos), "sin_sin": (np.sin, np.sin)}

# the closed exponential family at unit g_bar: its averages take a and b directly
CLOSED = TrigAverages(g_bar=1.0)


def brute_force_average(kind, a, b, t_max=50.0, n=131072):
    """Simpson integration of exp(-t) trig(a t) trig(b t) over [0, t_max]."""
    from scipy.integrate import simpson

    f, g = _TRIG[kind]
    t = np.linspace(0.0, t_max, n + 1)
    return simpson(np.exp(-t) * f(a * t) * g(b * t), x=t)


def test_trivial_values():
    assert CLOSED.sin_sin(0.0, 0.0) == 0.0
    assert CLOSED.cos_cos(0.0, 0.0) == 1.0


def test_equal_argument_sine_closed_form():
    # independent oracle: adaptive quadrature (good to ~1e-10 here)
    from scipy.integrate import quad

    for a in (0.2, 1.0, 2.7):
        expected = quad(lambda t: math.exp(-t) * math.sin(a * t) ** 2, 0.0, 80.0, limit=400)[0]
        got = CLOSED.sin_sin(a, a)
        assert got == pytest.approx(2 * a**2 / (1 + 4 * a**2), rel=1e-14)
        assert got == pytest.approx(expected, abs=1e-9)


def test_closed_forms_against_brute_force_quadrature():
    rng = np.random.default_rng(20240817)
    pairs = rng.uniform(0.0, 10.0, size=(100, 2))
    for a, b in pairs:
        for kind in _TRIG:
            assert getattr(CLOSED, kind)(a, b) == pytest.approx(
                brute_force_average(kind, a, b), abs=1e-9
            )


def test_fixed_tau_maps_to_point_mass():
    nodes = quadrature_nodes(FixedTau(0.1), 1)
    np.testing.assert_array_equal(nodes.taus, [0.1])
    np.testing.assert_array_equal(nodes.weights, [1.0])


def test_one_node_rule_is_the_mean():
    nodes = quadrature_nodes(ExponentialTau(1.0), 1)
    assert nodes.taus[0] == pytest.approx(1.0, rel=1e-14)
    assert nodes.weights[0] == pytest.approx(1.0, rel=1e-14)


def test_discrete_passthrough():
    d = DiscreteTau(np.array([0.5, 1.5]), np.array([0.25, 0.75]))
    assert quadrature_nodes(d, 1) is d


@pytest.mark.parametrize(
    "dist, n_nodes",
    [(FixedTau(0.1), 17), (DiscreteTau(np.array([0.5, 1.5]), np.array([0.25, 0.75])), 99)],
    ids=["fixed", "discrete"],
)
def test_quadrature_nodes_rejects_a_node_count_that_selects_no_rule(dist, n_nodes):
    with pytest.raises(ValueError, match="selects no rule"):
        quadrature_nodes(dist, n_nodes)


def test_gauss_laguerre_moments():
    # the rule must hit the exact moments to 1e-12; the trapezoid oracle
    # independently confirms those moments at its own O(h^2) accuracy
    nodes = quadrature_nodes(ExponentialTau(1.0), 32)
    assert float(nodes.weights @ nodes.taus) == pytest.approx(1.0, abs=1e-12)
    assert float(nodes.weights @ nodes.taus**2) == pytest.approx(2.0, abs=1e-12)
    t = np.linspace(0.0, 60.0, 2_000_001)
    w = np.exp(-t)
    assert np.trapezoid(w * t, t) == pytest.approx(float(nodes.weights @ nodes.taus), abs=1e-9)
    assert np.trapezoid(w * t * t, t) == pytest.approx(float(nodes.weights @ nodes.taus**2), abs=1e-9)


@pytest.mark.parametrize("n_nodes", [2, 8, 64, 512])
def test_quadrature_weights_sum_to_one(n_nodes):
    nodes = quadrature_nodes(ExponentialTau(2.3), n_nodes)
    assert abs(nodes.weights.sum() - 1.0) <= 1e-12
    assert np.all(nodes.weights > 0)


def test_quadrature_rejects_zero_nodes():
    with pytest.raises(ValueError):
        quadrature_nodes(ExponentialTau(1.0), 0)


def test_gain_reconstruction_matches_rational_form():
    """The exponential average of theta^2 sinc^2(g tau sqrt(n+1)) must equal
    2 theta_bar^2 / (1 + 4 g_bar^2 (n+1)) identically."""
    n = np.arange(101, dtype=float)
    s = np.sqrt(n + 1.0)
    for g_bar in (0.1, 0.3, 1.0):
        for theta_bar in (0.5, 1.0, 2.5):
            n_ex = (theta_bar / g_bar) ** 2
            lhs = n_ex * CLOSED.sin_sin(g_bar * s, g_bar * s) / (n + 1.0)
            rhs = 2.0 * theta_bar**2 / (1.0 + 4.0 * g_bar**2 * (n + 1.0))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_trig_averages_closed_vs_nodes():
    p = MaserParams(kappa=1.0, n_th=0.0, r=25.0, g=0.3, tau_dist=ExponentialTau(1.0))
    closed = TrigAverages.for_params(p)
    discrete = TrigAverages.for_params(p, n_nodes=256)
    x = np.sqrt(np.arange(1.0, 60.0))
    y = np.sqrt(np.arange(2.0, 61.0))
    np.testing.assert_allclose(closed.cos_cos(x, y), discrete.cos_cos(x, y), atol=1e-12)
    np.testing.assert_allclose(closed.sin_sin(x, y), discrete.sin_sin(x, y), atol=1e-12)
    np.testing.assert_allclose(
        closed.pump_gain(x), discrete.pump_gain(x), rtol=1e-10, atol=1e-15
    )


@pytest.mark.parametrize(
    "dist, n_nodes",
    [(FixedTau(0.7), None), (DiscreteTau(np.array([0.5, 1.5]), np.array([0.25, 0.75])), None), (ExponentialTau(1.3), 16)],
    ids=["fixed", "discrete", "laguerre16"],
)
def test_node_family_holds_the_rabi_angles(dist, n_nodes):
    """A node family is its Rabi angles g*tau_k and weights, exactly."""
    p = MaserParams(kappa=1.0, n_th=0.0, r=25.0, g=0.3, tau_dist=dist)
    gtaus, weights = TrigAverages.for_params(p, n_nodes).point_data
    nodes = quadrature_nodes(dist, n_nodes or 1)
    np.testing.assert_array_equal(gtaus, p.g * nodes.taus)
    np.testing.assert_array_equal(weights, nodes.weights)


@pytest.mark.parametrize(
    "dist", [FixedTau(1.0), DiscreteTau(np.array([0.5, 1.5]), np.array([0.25, 0.75]))], ids=["fixed", "discrete"]
)
def test_for_params_rejects_a_node_count_that_selects_no_rule(dist):
    """Fixed tau and a node list have their own nodes: a node count
    selects no rule and is refused, not ignored."""
    p = MaserParams(kappa=1.0, n_th=0.0, r=25.0, g=0.3, tau_dist=dist)
    with pytest.raises(ValueError):
        TrigAverages.for_params(p, 8)


def test_refine_until_stable_converges():
    params = MaserParams(kappa=1.0, n_th=0.0, r=25.0, g=0.3, tau_dist=ExponentialTau(1.0))
    s = np.sqrt(np.arange(1.0, 30.0))

    def evaluate(av):
        return av.pump_gain(s)

    value = refine_until_stable(params, evaluate, rel_tol=1e-10)
    target = TrigAverages(g_bar=0.3).pump_gain(s)
    np.testing.assert_allclose(value, target, rtol=1e-9)


def test_refine_until_stable_reports_exhaustion():
    params = MaserParams(kappa=1.0, n_th=0.0, r=25.0, g=0.3, tau_dist=ExponentialTau(1.0))
    rng = np.random.default_rng(3)

    def never_converges(family):
        return rng.standard_normal()

    with pytest.raises(QuadratureError):
        refine_until_stable(params, never_converges, rel_tol=1e-12)
