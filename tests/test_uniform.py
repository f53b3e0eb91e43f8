"""Orthonormal-polynomial expansion of the pump and its truncated model."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_laguerre

from maserline import (
    ExponentialTau,
    FixedTau,
    LaguerreAverages,
    MaserParams,
    TrigAverages,
    build_sideband_generator,
    build_uniform_lindblad,
    initial_sideband,
    linewidth_exp_closed,
    linewidth_from_slope,
    quadrature_nodes,
    steady_state,
    uniform_generator,
    uniform_linewidth,
    uniform_steady_state,
)
from maserline.linewidth import jump_operator_matrices, pump_weights
from oracle import DenseLindblad, embed_sideband, extract_sideband, offsector_mass


# -- coefficient family -------------------------------------------------------


def coeffs(x, order):
    """Cosine and sine coefficient tables k = 0..order at x, as the
    builders read them from a unit-g_bar family."""
    return LaguerreAverages(1.0, order, order)._tables(x)


def test_coeffs_at_zero_argument():
    cos, sin = coeffs(0.0, 5)
    np.testing.assert_array_equal(cos, [1, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(sin, np.zeros(6))


def test_lowest_order_closed_forms():
    x = np.array([0.3, 1.0, 3.0])
    cos, sin = coeffs(x, 1)
    np.testing.assert_allclose(cos[0], 1.0 / (1.0 + x**2), rtol=1e-14)
    np.testing.assert_allclose(sin[0], x / (1.0 + x**2), rtol=1e-14)
    # degree 1 from the generating transform: -ix/(1-ix)^2
    np.testing.assert_allclose(cos[1], 2.0 * x**2 / (1.0 + x**2) ** 2, rtol=1e-13)
    np.testing.assert_allclose(sin[1], x * (x**2 - 1.0) / (1.0 + x**2) ** 2, rtol=1e-13)


@pytest.mark.parametrize("x", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("kind,f", [("cos", math.cos), ("sin", math.sin)])
def test_coeffs_against_adaptive_quadrature(x, kind, f):
    got = coeffs(x, 4)[0 if kind == "cos" else 1]
    for k in range(5):
        expected = quad(
            lambda t: math.exp(-t) * eval_laguerre(k, t) * f(x * t), 0.0, 80.0, limit=500
        )[0]
        assert got[k] == pytest.approx(expected, abs=5e-11)


@pytest.mark.parametrize("x", [0.3, 1.0, 3.0])
def test_parseval_monotone_from_below(x):
    # the tail decays like (x^2/(1+x^2))^order, so order 400 leaves
    # less than 1e-18 even at x = 3
    for kind, c in zip(("cos", "sin"), coeffs(x, 400)):
        partial = np.cumsum(c**2)
        target = getattr(TrigAverages(g_bar=1.0), f"{kind}_{kind}")(x, x)
        assert np.all(np.diff(partial) >= 0.0)
        assert np.all(partial <= target + 1e-12)
        assert partial[-1] == pytest.approx(target, rel=1e-12)


def test_polynomial_family_is_orthonormal():
    # Gram matrix of the first nine polynomials under the exponential
    # measure, integrated by a rule exact far beyond degree 16
    nodes = quadrature_nodes(ExponentialTau(1.0), 64)
    table = np.stack([eval_laguerre(k, nodes.taus) for k in range(9)])
    gram = (table * nodes.weights) @ table.T
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-10)


def test_weak_coupling_coefficients():
    # sin family at small x: degree 0 and 1 both reduce to +/- x
    x = 1e-6
    sin = coeffs(x, 1)[1]
    assert sin[0] == pytest.approx(x, rel=1e-9)
    assert sin[1] == pytest.approx(-x, rel=1e-9)


# -- truncated jump families ---------------------------------------------------


def laser(theta_bar, g_bar=0.3, n_th=0.0):
    return MaserParams(1.0, n_th, (theta_bar / g_bar) ** 2, g_bar, ExponentialTau(1.0))


def test_order_pairing_validation():
    p = laser(1.0)
    with pytest.raises(ValueError):
        build_uniform_lindblad(p, (2, 1))
    with pytest.raises(ValueError):
        build_uniform_lindblad(p, (3, 3))


def test_uniform_requires_exponential():
    p = MaserParams(1.0, 0.0, 10.0, 0.3, FixedTau(1.0))
    with pytest.raises(ValueError):
        build_uniform_lindblad(p, (1, 0))


def test_gain_converges_to_exact_with_order():
    # levels up to n = 40 keep g_bar sqrt(n+1) <= 2, where order 15
    # leaves a mean-square tail of about (0.79)^16 ~ 2%
    p = laser(1.0)
    n = np.arange(41.0)
    exact = 2.0 * p.g_bar**2 / (1.0 + 4.0 * p.g_bar**2 * (n + 1.0)) * (n + 1.0)
    previous = None
    for order in (1, 3, 7, 15):
        fam = build_uniform_lindblad(p, (order, order - 1))
        s1 = np.sqrt(n + 1.0)
        err = np.max(np.abs(fam.sin_sin(s1, s1) - exact) / exact)
        if previous is not None:
            assert err < previous
        previous = err
    assert previous < 0.05


def test_truncated_statistics_positive_and_close_to_exact():
    # mean-photon-number agreement of the (7,6) model, oracle-pinned:
    # 2% up to theta_bar = 1.6, 5% up to 2.0
    for theta_bar, tol in ((0.8, 0.02), (1.2, 0.02), (1.6, 0.02), (2.0, 0.05)):
        p = laser(theta_bar)
        exact = steady_state(p)
        stats = uniform_steady_state(p, build_uniform_lindblad(p, (7, 6)), exact.N)
        assert np.all(stats.p >= 0.0)
        assert abs(stats.mean - exact.mean) / exact.mean < tol


def test_trace_preservation_under_truncated_set():
    p = laser(1.0)
    dense = DenseLindblad(jump_operator_matrices(p, 81, averages=build_uniform_lindblad(p, (3, 2))))
    p0 = np.exp(-np.arange(81.0) / 6.0)
    rho0 = np.diag(p0 / p0.sum())
    states = dense.evolve(rho0, np.linspace(0.0, 10.0, 5), rtol=1e-12)
    traces = np.trace(states, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1.0)) < 1e-12


def test_uniform_slope_equals_detailed_balance_weights():
    """The truncated model obeys its own detailed balance, so the slope
    route must reproduce the Fock-resolved weight trace exactly."""
    for theta_bar, n_th in ((1.0, 0.0), (2.0, 0.0)):
        p = laser(theta_bar, n_th=n_th)
        fam = build_uniform_lindblad(p, (3, 2))
        N = steady_state(p).N
        stats = uniform_steady_state(p, fam, N)
        d_slope = uniform_linewidth(p, fam, N)
        cos_w, sin_w = pump_weights(p, N, fam)
        d_weights = (n_th + float(stats.p @ (cos_w + sin_w))) / stats.mean
        assert d_slope == pytest.approx(d_weights, rel=1e-12)


def test_uniform_generator_matches_dense_oracle():
    rng = np.random.default_rng(31)
    p = laser(1.0)
    fam = build_uniform_lindblad(p, (3, 2))
    gen = uniform_generator(p, fam, 40)
    dense = DenseLindblad(jump_operator_matrices(p, 41, averages=fam))

    v = rng.standard_normal(40)
    dP = dense.apply(embed_sideband(v, 41))
    np.testing.assert_allclose(extract_sideband(dP), gen.apply(v), atol=1e-12 * 200)
    assert offsector_mass(dP) == 0.0


def test_linewidth_error_shrinks_with_order_at_strong_pump():
    p = laser(3.0)
    exact_stats = steady_state(p)
    d_exact = linewidth_exp_closed(p, exact_stats)
    errors = []
    for orders in ((1, 0), (3, 2), (7, 6)):
        d_order = uniform_linewidth(p, build_uniform_lindblad(p, orders), exact_stats.N)
        errors.append(abs(d_order - d_exact) / d_exact)
    assert errors[0] > errors[1] > errors[2]


def test_order_seven_tracks_exact_near_threshold():
    # oracle-pinned: 0.3% at theta_bar = 1, worst 4.6% for theta_bar <= 1.5
    for theta_bar in (0.8, 1.0, 1.25, 1.5):
        p = laser(theta_bar)
        stats = steady_state(p)
        d_exact = linewidth_exp_closed(p, stats)
        d_order = uniform_linewidth(p, build_uniform_lindblad(p, (7, 6)), stats.N)
        assert abs(d_order - d_exact) / d_exact < 0.10


def test_admissible_pump_range_grows_with_order():
    """Largest theta_bar keeping the linewidth error at or below 10%:
    bisected crossings near 1.07, 1.16, 1.58, with strictly increasing
    gains from order to order."""

    def error_at(theta_bar, orders):
        p = laser(theta_bar)
        stats = steady_state(p)
        d_exact = linewidth_exp_closed(p, stats)
        return abs(uniform_linewidth(p, build_uniform_lindblad(p, orders), stats.N) - d_exact) / d_exact

    crossings = []
    for orders in ((1, 0), (3, 2), (7, 6)):
        lo, hi = 0.8, 2.5
        for _ in range(22):
            mid = 0.5 * (lo + hi)
            if error_at(mid, orders) <= 0.10:
                lo = mid
            else:
                hi = mid
        crossings.append(lo)
    assert crossings[0] < crossings[1] < crossings[2]
    assert crossings[2] - crossings[1] > crossings[1] - crossings[0]


def test_exact_statistics_flag():
    p = laser(2.0)
    fam = build_uniform_lindblad(p, (3, 2))
    N = steady_state(p).N
    self_consistent = uniform_linewidth(p, fam, N)
    with_exact = linewidth_from_slope(uniform_generator(p, fam, N), initial_sideband(steady_state(p, N)))
    assert math.isfinite(with_exact)
    assert with_exact != self_consistent


def test_weak_coupling_gain_operator_reduces_to_laser_form():
    # orders (1, 0) at g_bar -> 0: the sine-family jump operators reduce
    # to +/- sqrt(r) g_bar adag, i.e. the weak-coupling laser gain
    p = laser(0.5, g_bar=1e-5)
    fam = build_uniform_lindblad(p, (1, 0))
    phi = np.sqrt(np.arange(1.0, 32.0))
    # row m+1 of the band sqrt(r) adag ck_sin(gb phi)/phi holds sqrt(r) ck_sin(gb phi_m),
    # so one extra level gives the values at every phi_m
    ops = jump_operator_matrices(p, phi.size + 1, averages=fam)
    sine = [L.values[1:] / math.sqrt(p.r) for L in ops[1:] if L.k == -1]
    assert len(sine) == 2
    np.testing.assert_allclose(sine[0] / (p.g_bar * phi), 1.0, rtol=1e-8)
    np.testing.assert_allclose(sine[1] / (p.g_bar * phi), -1.0, rtol=1e-8)


# -- the three families of tau averages ------------------------------------------


@pytest.mark.parametrize("n_th", [0.0, 0.01])
def test_laguerre_family_reaches_the_closed_family(n_th):
    """Parseval limit: at order (400, 399) and g_bar sqrt(N+2) <= 2 the
    truncated tail is below (4/5)^400 ~ 1e-39, so the Laguerre family must
    give the closed exponential family's generator, statistics and
    weights through the same builders."""
    N = 40
    p = laser(1.0, n_th=n_th)
    assert p.g_bar * math.sqrt(N + 2) <= 2.0
    closed = TrigAverages.for_params(p)
    laguerre = LaguerreAverages(p.g_bar, 400, 399)
    gen_l = build_sideband_generator(p, N, laguerre)
    gen_c = build_sideband_generator(p, N, closed)
    for band in ("sub", "diag", "sup"):
        np.testing.assert_allclose(getattr(gen_l, band), getattr(gen_c, band), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(steady_state(p, N, laguerre).p, steady_state(p, N, closed).p, rtol=1e-12, atol=0.0)
    for w_l, w_c in zip(pump_weights(p, N, laguerre), pump_weights(p, N, closed)):
        np.testing.assert_allclose(w_l, w_c, rtol=1e-12, atol=0.0)


def test_anticommutator_norm_per_family():
    """Node lists and the closed form average over a probability measure:
    <cos^2 + sin^2> is exactly 1.  The truncated sums fall below it."""
    s = np.sqrt(np.arange(1.0, 60.0))
    exp = laser(1.0)
    fixed = MaserParams(1.0, 0.01, 50.0, 0.4, FixedTau(1.0))
    for family in (TrigAverages.for_params(exp), TrigAverages.for_params(exp, 16), TrigAverages.for_params(fixed)):
        assert family.anticommutator_norm(s) == 1.0
    laguerre = build_uniform_lindblad(exp, (3, 2))
    assert np.all(laguerre.anticommutator_norm(s) < 1.0)


def test_a_family_builds_equal_generators_twice():
    """Two generator builds from one family give equal arrays."""
    p = MaserParams(kappa=1.0, n_th=0.05, r=40.0, g=0.3, tau_dist=ExponentialTau(1.0))
    family = build_uniform_lindblad(p, (3, 2))
    gen = build_sideband_generator(p, 120, family)
    again = build_sideband_generator(p, 120, family)
    for name in ("sub", "diag", "sup"):
        np.testing.assert_array_equal(getattr(again, name), getattr(gen, name))


def test_family_reused_for_rows_of_another_rate_gives_the_bits_of_a_fresh_family():
    """cos_cos, sin_sin and anticommutator_norm depend on their arguments
    alone: a second uniform-convergence row at another rate on the same
    basis, served by the first row's family, gets the bits of a fresh
    family."""
    first = MaserParams(kappa=1.0, n_th=0.0, r=40.0, g=0.3, tau_dist=ExponentialTau(1.0))
    second = dataclasses.replace(first, r=90.0)
    family = build_uniform_lindblad(first, (3, 2))
    uniform_linewidth(first, family, 200)
    shared = uniform_linewidth(second, family, 200)
    assert shared == uniform_linewidth(second, build_uniform_lindblad(second, (3, 2)), 200)
