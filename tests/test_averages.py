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


@pytest.mark.parametrize("g, tau", [
    (0.3, 1.0), (1.0 / 3.0, 0.7), (math.pi / math.sqrt(50.0), 1.0), (2.5e-3, 1e3 / 7.0), (1e5, 1.1e-5),
])
def test_fixed_tau_family_is_the_point_mass_node_list(g, tau):
    """The fixed-tau family holds the Rabi angle and weight of the
    ``quadrature_nodes`` point mass, bit for bit."""
    params = MaserParams(1.0, 0.0, 50.0, g, FixedTau(tau))
    gtaus, weights = TrigAverages.for_params(params).point_data
    nodes = quadrature_nodes(params.tau_dist, 1)
    assert gtaus.dtype == weights.dtype == np.float64
    assert gtaus.tobytes() == (params.g * nodes.taus).tobytes()
    assert weights.tobytes() == nodes.weights.tobytes()


def test_gauss_laguerre_rule_is_solved_once_per_node_count(monkeypatch):
    """A second exponential trace reuses the ladder's rules: it runs no
    eigen solve and gives the first value bit for bit.  The kept arrays
    are read-only, so no caller can change a later caller's rule."""
    import scipy.linalg

    from maserline import averages, linewidth_lindblad_trace, steady_state

    params = MaserParams(1.0, 0.0, 50.0, 0.3, ExponentialTau(1.0))
    stats = steady_state(params)
    solves = []
    solve = scipy.linalg.eigh_tridiagonal

    def counted(d, e, *args, **kwargs):
        solves.append(d.size)
        return solve(d, e, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
    averages._gauss_laguerre.cache_clear()
    first = linewidth_lindblad_trace(params, stats)
    assert solves[:2] == [8, 16]
    ladder = list(solves)
    solves.clear()
    second = linewidth_lindblad_trace(params, stats)
    assert solves == []
    assert second.hex() == first.hex()
    x, w = averages._gauss_laguerre(ladder[-1])
    for array in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("broken", ["raises", "non-finite"])
def test_a_failed_gauss_laguerre_rule_raises_on_every_call(monkeypatch, broken):
    """A failed rule is a QuadratureError each time it is asked for; the
    failure is not kept, so the rule is solved again once the solver works."""
    import scipy.linalg

    from maserline import averages

    calls = []

    def failing(d, e):
        calls.append(d.size)
        if broken == "raises":
            raise np.linalg.LinAlgError("no convergence")
        return np.full(d.size, np.nan), np.eye(d.size)

    averages._gauss_laguerre.cache_clear()
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", failing)
    for _ in range(2):
        with pytest.raises(QuadratureError, match="with 5 nodes"):
            quadrature_nodes(ExponentialTau(1.0), 5)
    assert calls == [5, 5]
    monkeypatch.undo()
    nodes = quadrature_nodes(ExponentialTau(1.0), 5)
    assert float(nodes.weights @ nodes.taus) == pytest.approx(1.0, abs=1e-13)


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


def test_block_family_holds_the_node_lists_of_its_records():
    """A block's records give one node list with a row axis in one step:
    row i has the bits of record i's own family, for fixed-tau records
    (two of whose taus differ) and for three-node records that share their
    weights (two of whose node lists differ)."""
    gs = (0.31, 1.7, 2.9)
    fixed = [MaserParams(1.0, 0.01, 50.0, g, FixedTau(tau)) for g, tau in zip(gs, (1.0, 1.0, 0.6))]
    weights = [0.3, 0.4, 0.3]
    dists = [DiscreteTau([0.7, 1.0, 1.3], weights)] * 2 + [DiscreteTau([0.5, 1.0, 1.5], weights)]
    nodes = [MaserParams(1.0, 0.01, 50.0, g, dist) for g, dist in zip(gs, dists)]
    s = np.sqrt(np.arange(1.0, 40.0))
    for records in (fixed, nodes):
        block = TrigAverages.for_params(records)
        assert block.rows == len(records)
        gtaus, block_weights = block.point_data
        for i, params in enumerate(records):
            one = TrigAverages.for_params(params)
            assert np.array_equal(gtaus[i], one.point_data[0]) and np.array_equal(block_weights, one.point_data[1])
            assert np.array_equal(block.pump_gain(s)[i], one.pump_gain(s))


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


def _node_values(gtau, x, y):
    """The per-node value of each node-list method at angles g*tau."""
    sinc = np.sinc(gtau * x / np.pi)
    return {
        "cos_cos": np.cos(gtau * x) * np.cos(gtau * y),
        "sin_sin": np.sin(gtau * x) * np.sin(gtau * y),
        "pump_gain": gtau**2 * sinc * sinc,
        "one_minus_cos_diff": 2.0 * np.sin(0.5 * gtau * (y - x)) ** 2,
    }


def _family_values(family, x, y):
    return {
        "cos_cos": family.cos_cos(x, y),
        "sin_sin": family.sin_sin(x, y),
        "pump_gain": family.pump_gain(x),
        "one_minus_cos_diff": family.one_minus_cos_diff(y - x),
    }


def test_node_contractions_are_the_weighted_node_sums():
    """One node of weight 1 gives its node values bit for bit; three nodes
    give the exactly rounded weighted sum (math.fsum) within 1e-15 of the
    sum of the magnitudes of the terms."""
    x = np.sqrt(np.arange(0.0, 300.0))
    y = np.sqrt(np.arange(1.0, 301.0))
    single = _family_values(TrigAverages(gtaus=[0.73], weights=[1.0]), x, y)
    for name, expected in _node_values(0.73, x, y).items():
        np.testing.assert_array_equal(single[name], expected, err_msg=name)

    gtaus, weights = (0.41, 0.73, 1.9), (0.3, 0.45, 0.25)
    found = _family_values(TrigAverages(gtaus=gtaus, weights=weights), x, y)
    per_node = [_node_values(gtau, x, y) for gtau in gtaus]
    for name, values in found.items():
        terms = np.array([w * nodes[name] for w, nodes in zip(weights, per_node)])
        reference = np.array([math.fsum(column) for column in terms.T])
        scale = np.sum(np.abs(terms), axis=0)
        assert np.all(np.abs(values - reference) <= 1e-15 * scale), name


@pytest.mark.parametrize("gtaus, weights", [([2.0], [1.0]), ([0.6], [0.7]), ([[2.0], [0.6], [1.3]], [1.0])],
                         ids=["one-node", "weight-0.7", "row-axis"])
def test_one_node_averages_have_the_bits_of_the_einsum_sum(gtaus, weights):
    """With one node the contraction skips einsum and forms einsum's sum,
    0 + weight * value, itself: the same bits, where the node's product is
    -0.0 too (sin(0) sin(4) at x = 0, g tau = 2), and per row of a row axis."""
    family = TrigAverages(gtaus=gtaus, weights=weights)
    g = np.asarray(gtaus)
    subscripts = "k,rk...->r..." if g.ndim == 2 else "k,k...->..."
    x = np.sqrt(np.arange(0.0, 50.0))
    y = np.concatenate(([2.0], x[1:] + 0.5))
    for args in ((x, y), (7.0, 7.0)):
        a, b = np.multiply.outer(g, args[0]), np.multiply.outer(g, args[1])
        for name, values in (("sin_sin", np.sin(a) * np.sin(b)), ("cos_cos", np.cos(a) * np.cos(b))):
            expected = np.einsum(subscripts, weights, values)
            found = getattr(family, name)(*args)
            assert np.array_equal(found, expected), name
            assert np.array_equal(np.signbit(found), np.signbit(expected)), name
    assert not np.signbit(TrigAverages(gtaus=[2.0], weights=[1.0]).sin_sin(x, y)[0])
