"""Steady-state statistics: limits, trapping support, detailed balance,
and the dense brute-force fixed-point oracle."""

import math

import numpy as np
import pytest

import maserline.steady
from maserline import (
    DenseLindblad,
    DiscreteTau,
    ExponentialTau,
    FixedTau,
    MaserParams,
    PhotonStatistics,
    ResourceLimitError,
    TrigAverages,
    TruncationError,
    VacuumStateError,
    auto_truncation,
    build_sideband_generator,
    initial_sideband,
    linewidth_components,
    linewidth_from_slope,
    linewidth_mcgowan,
    linewidth_scully,
    schawlow_townes_ratio,
    steady_state,
)
from maserline.linewidth import jump_operator_matrices
from maserline.steady import recurrence_ratios


def local_maxima(p):
    return [n for n in range(1, len(p) - 1) if p[n] > p[n - 1] and p[n] >= p[n + 1] and p[n] > 1e-4 * p.max()]


def test_vacuum_fixed_point():
    p = MaserParams(kappa=1.0, n_th=0.0, r=0.0, g=1.0, tau_dist=FixedTau(1.0))
    stats = steady_state(p, 5)
    np.testing.assert_array_equal(stats.p, [1, 0, 0, 0, 0, 0])
    assert (stats.mean, stats.variance) == (0.0, 0.0)


def test_thermal_geometric_series(thermal_params):
    stats = steady_state(thermal_params(1.0))
    n = np.arange(stats.N + 1)
    np.testing.assert_allclose(stats.p, 0.5 ** (n + 1.0), rtol=1e-13)
    mean, var = stats.mean, stats.variance
    assert mean == pytest.approx(1.0, rel=1e-12)
    assert var == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("n_trap", [4, 9])
def test_trapping_state_support_is_exact(n_trap):
    g_tau = math.pi / math.sqrt(n_trap + 1.0)
    p = MaserParams(kappa=1.0, n_th=0.0, r=200.0, g=g_tau, tau_dist=FixedTau(1.0))
    stats = steady_state(p)
    assert np.all(stats.p[n_trap + 1 :] == 0.0)
    assert stats.p[: n_trap + 1].sum() == pytest.approx(1.0, abs=1e-14)
    assert stats.tail_mass_bound == 0.0


def test_trapping_state_accepts_minimal_truncation():
    g_tau = math.pi / math.sqrt(10.0)
    p = MaserParams(kappa=1.0, n_th=0.0, r=200.0, g=g_tau, tau_dist=FixedTau(1.0))
    stats = steady_state(p, 9)  # support is exactly 0..9
    assert stats.N == 9
    assert stats.p.sum() == pytest.approx(1.0, abs=1e-14)
    assert stats.p[9] > 1e-3  # the edge level carries real weight here


def test_inadequate_truncation_reported():
    p = MaserParams(kappa=1.0, n_th=0.01, r=50.0, g=2.5 * math.pi / math.sqrt(50.0), tau_dist=FixedTau(1.0))
    with pytest.raises(TruncationError):
        steady_state(p, 25)


def test_bimodal_statistics_match_dense_evolution_oracle():
    """Pump just above the first trapping transition: the statistics are
    bimodal; peak positions must agree with long-time dense evolution of
    the literal diagonal rate matrix on 401 levels."""
    from scipy.integrate import solve_ivp

    p = MaserParams(kappa=1.0, n_th=0.1, r=200.0, g=2.1 * math.pi / math.sqrt(200.0), tau_dist=FixedTau(1.0))
    stats = steady_state(p, 400)
    assert local_maxima(stats.p) == [33, 131]

    rates = DenseLindblad(jump_operator_matrices(p, 401)).diagonal_rate_matrix()
    # exact fixed point of the brute-force path
    assert np.max(np.abs(rates @ stats.p)) < 1e-10 * p.kappa
    # evolve from a flat state long enough for the peaks to form
    sol = solve_ivp(lambda t, y: rates @ y, (0.0, 60.0), np.full(401, 1.0 / 401), method="DOP853", rtol=1e-9, atol=1e-14)
    evolved = sol.y[:, -1]
    assert local_maxima(evolved) == [33, 131]
    mean = stats.mean
    assert 33 < mean < 131


def test_detailed_balance_residual(maser_params):
    p = maser_params(2.5)
    stats = steady_state(p)
    av = TrigAverages.for_params(p)
    n = np.arange(stats.N, dtype=float)
    gain = p.n_ex * av.pump_gain(np.sqrt(n + 1.0))
    lhs = (1.0 + p.n_th) * stats.p[1:]
    rhs = (p.n_th + gain) * stats.p[:-1]
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    ok = scale > 0
    assert np.max(np.abs(lhs - rhs)[ok] / scale[ok]) < 1e-12


def test_diagonal_fixed_point_of_dense_master_equation(maser_params):
    p = maser_params(2.5)
    stats = steady_state(p)
    dense = DenseLindblad(jump_operator_matrices(p, stats.N + 1))
    rho_dot = dense.apply(np.diag(stats.p))
    assert np.max(np.abs(np.diagonal(rho_dot))) < 1e-10 * p.kappa
    off = rho_dot - np.diag(np.diagonal(rho_dot))
    assert np.max(np.abs(off)) == 0.0  # diagonal states stay diagonal


def test_exponential_closed_form_matches_quadrature(laser_params):
    p = laser_params(2.0)
    closed = steady_state(p)
    quad = steady_state(p, closed.N, TrigAverages.for_params(p, n_nodes=256))
    np.testing.assert_allclose(closed.p, quad.p, rtol=0, atol=1e-10)


def test_exponential_statistics_are_dense_fixed_point(laser_params):
    p = laser_params(2.0)
    stats = steady_state(p)
    jumps = jump_operator_matrices(p, stats.N + 1, TrigAverages.for_params(p, 128))
    rates = DenseLindblad(jumps).diagonal_rate_matrix()
    assert np.max(np.abs(rates @ stats.p)) < 1e-10 * p.kappa


def test_exponential_ratio_contracts_beyond_crossing(laser_params):
    p = laser_params(2.0)  # g_bar = 0.3, theta_bar = 2
    stats = steady_state(p)
    crossing = (2.0 * p.theta_bar**2 - 1.0) / (4.0 * p.g_bar**2)
    ratios = stats.p[1:] / np.where(stats.p[:-1] > 0, stats.p[:-1], 1.0)
    n = np.arange(stats.N)
    beyond = (n > crossing) & (stats.p[:-1] > 0)
    assert np.all(ratios[beyond] < 1.0)


@pytest.mark.parametrize("theta_bar, g_bar", [(0.5, 0.3), (2.0, 0.3), (3.0, 0.1), (1.5, 1.0)])
def test_exponential_closed_ratio(laser_params, theta_bar, g_bar):
    """At n_th = 0 the exponential average closes the recurrence:
    p_{n+1} / p_n = 2 theta_bar^2 / (1 + 4 g_bar^2 (n+1))."""
    p = laser_params(theta_bar, g_bar=g_bar)
    stats = steady_state(p)
    n = np.arange(stats.N, dtype=float)
    closed = 2.0 * p.theta_bar**2 / (1.0 + 4.0 * p.g_bar**2 * (n + 1.0))
    # both levels normal floats: a subnormal p_n keeps too few bits for the ratio
    normal = stats.p >= np.finfo(float).tiny
    both = normal[:-1] & normal[1:]
    assert both.sum() > 10
    ratio = stats.p[1:][both] / stats.p[:-1][both]
    # p_n = exp(log p_n) carries about eps |log p_n| of rounding: 1.6e-13 near underflow
    tol = np.maximum(1e-13, 4.0 * np.finfo(float).eps * np.abs(np.log(stats.p[1:][both])))
    assert np.all(np.abs(ratio / closed[both] - 1.0) <= tol)


def test_exponential_zero_pump_is_vacuum():
    p = MaserParams(kappa=1.0, n_th=0.0, r=0.0, g=0.3, tau_dist=ExponentialTau(1.0))
    stats = steady_state(p, 4)
    np.testing.assert_array_equal(stats.p, [1, 0, 0, 0, 0])


def test_auto_truncation_thermal():
    p = MaserParams(kappa=1.0, n_th=0.1, r=0.0, g=1.0, tau_dist=FixedTau(1.0))
    assert auto_truncation(p).N >= 50


def test_auto_truncation_exponential(laser_params):
    p = laser_params(3.0)  # (2*9-1)/(4*0.09) = 47.2
    assert auto_truncation(p).N >= 4 * math.ceil((2.0 * 9.0 - 1.0) / (4.0 * 0.09)) - 8
    assert auto_truncation(p).N >= 189


def test_auto_truncation_hard_limit():
    p = MaserParams(kappa=1.0, n_th=0.0, r=1e8, g=1e-4, tau_dist=FixedTau(1.0))
    with pytest.raises(ResourceLimitError):
        auto_truncation(p)


def test_recurrence_ratio_contract(maser_params):
    p = maser_params(2.0)
    n_auto = auto_truncation(p).N
    ratios = recurrence_ratios(p, n_auto)
    assert np.all(ratios[n_auto // 4 :] < 1.0)


def test_statistics_validation():
    with pytest.raises(ValueError):
        PhotonStatistics(np.array([0.5, 0.6]), 1, 0.0)  # not normalized
    with pytest.raises(ValueError):
        PhotonStatistics(np.array([1.2, -0.2]), 1, 0.0)  # negative entry
    with pytest.raises(ValueError):
        PhotonStatistics(np.array([math.nan, math.nan]), 1, 0.0)
    with pytest.raises(ValueError):
        PhotonStatistics.from_probabilities([1.0, math.nan])


@pytest.mark.parametrize(
    "dist, g", [(ExponentialTau(1.0), 1.0), (FixedTau(1.0), 1e-153)], ids=["exp", "fixed"]
)
def test_auto_truncation_crossing_beyond_float_range(dist, g):
    """At r/kappa = 1e308 four times the crossing overflows a float; the
    search still refuses with its typed limit."""
    p = MaserParams(kappa=1.0, n_th=0.0, r=1e308, g=g, tau_dist=dist)
    with pytest.raises(ResourceLimitError):
        auto_truncation(p)


def test_overflow_safety_far_above_threshold():
    # statistics span hundreds of orders of magnitude below the peak
    p = MaserParams(kappa=1.0, n_th=0.0, r=2000.0, g=3.0 / math.sqrt(2000.0), tau_dist=FixedTau(1.0))
    stats = steady_state(p)
    assert np.isfinite(stats.p).all()
    assert stats.p.sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.p[0] == 0.0 or stats.p[0] < 1e-200


def test_unit_rescaling_invariance():
    base = MaserParams(kappa=1.0, n_th=0.05, r=50.0, g=0.4, tau_dist=FixedTau(1.0))
    scaled = MaserParams(kappa=2.0, n_th=0.05, r=100.0, g=0.8, tau_dist=FixedTau(0.5))
    s1 = steady_state(base, 300)
    s2 = steady_state(scaled, 300)
    np.testing.assert_allclose(s1.p, s2.p, rtol=0, atol=1e-15)


# -- one truncation search -----------------------------------------------------

SEARCH_CASES = {
    "fixed_r50": MaserParams(1.0, 0.01, 50.0, 2.5 * math.pi / math.sqrt(50.0), FixedTau(1.0)),
    "fixed_r5000": MaserParams(1.0, 0.01, 5000.0, 2.5 * math.pi / math.sqrt(5000.0), FixedTau(1.0)),
    "exponential": MaserParams(1.0, 0.0, (2.0 / 0.3) ** 2, 0.3, ExponentialTau(1.0)),
    "three_nodes": MaserParams(1.0, 0.01, 50.0, 2.5 * math.pi / math.sqrt(50.0),
                               DiscreteTau([0.7, 1.0, 1.3], [0.3, 0.4, 0.3])),
    "thermal_r0": MaserParams(1.0, 0.1, 0.0, 1.0, FixedTau(1.0)),
    "trapping_nth0": MaserParams(1.0, 0.0, 200.0, math.pi / math.sqrt(10.0), FixedTau(1.0)),
}


@pytest.mark.parametrize("params", SEARCH_CASES.values(), ids=SEARCH_CASES.keys())
def test_steady_state_takes_the_search_result(params):
    """steady_state(params) is the statistics the truncation search accepts,
    and they are the same bits as solving again at that N."""
    stats = steady_state(params)
    searched = auto_truncation(params)
    assert searched.N == stats.N
    assert np.array_equal(searched.p, stats.p)
    assert searched.tail_mass_bound == stats.tail_mass_bound
    reference = steady_state(params, searched.N)
    assert stats.N == reference.N
    assert np.array_equal(stats.p, reference.p)
    assert stats.tail_mass_bound == reference.tail_mass_bound


def test_steady_state_evaluates_the_recurrence_once(monkeypatch):
    calls = []
    original = maserline.steady.recurrence_ratios

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(maserline.steady, "recurrence_ratios", counted)
    stats = steady_state(SEARCH_CASES["fixed_r50"])
    assert calls == [stats.N + 1]  # the first candidate is accepted


# -- cut to the nonzero support ------------------------------------------------


def _scan_row_quantities(params, stats):
    breakdown = linewidth_components(params, stats)
    gen = build_sideband_generator(params, stats.N)
    return [
        stats.mean,
        breakdown.total,
        breakdown.thermal,
        breakdown.cosine,
        breakdown.sine,
        linewidth_scully(params, stats),
        linewidth_mcgowan(params, stats),
        linewidth_from_slope(gen, initial_sideband(stats)),
        schawlow_townes_ratio(params, stats, breakdown.total)[0],
    ]


@pytest.mark.parametrize("theta_over_pi", [1.0, 2.5])
@pytest.mark.parametrize("r, n_th", [(1000.0, 0.01), (1000.0, 0.0), (5000.0, 0.01), (5000.0, 0.0)])
def test_support_cut_keeps_every_scan_quantity(maser_params, r, n_th, theta_over_pi):
    p = maser_params(theta_over_pi, r=r, n_th=n_th)
    full = steady_state(p)
    cut = full.on_support()
    assert cut.N < full.N  # the cut happens, so the comparison is not vacuous
    assert cut.p[-1] == 0.0 and cut.p[-2] > 0.0
    assert cut.tail_mass_bound == full.tail_mass_bound == 0.0
    np.testing.assert_allclose(
        _scan_row_quantities(p, cut), _scan_row_quantities(p, full), rtol=1e-13, atol=0.0
    )


def test_support_cut_is_identity_on_full_support(maser_params):
    stats = steady_state(maser_params(2.5, r=50.0, n_th=0.01))
    assert np.all(stats.p > 0.0)
    assert stats.on_support() is stats


@pytest.mark.parametrize(
    "p, n_cut",
    [([1.0, 0.0, 0.0, 0.0], 2), ([0.5, 0.5, 0.0, 0.0, 0.0], 2), ([0.5, 0.25, 0.25, 0.0, 0.0], 3), ([1.0, 0.0], 1)],
)
def test_support_cut_keeps_two_sideband_components(p, n_cut):
    cut = PhotonStatistics.from_probabilities(p).on_support()
    assert cut.N == n_cut
    np.testing.assert_array_equal(cut.p, p[: n_cut + 1])


def test_support_cut_near_vacuum_builds_the_generator():
    # g tau = pi traps the field at n = 0: p = (1, 0, 0, ...)
    p = MaserParams(1.0, 0.0, 50.0, math.pi, FixedTau(1.0))
    cut = steady_state(p).on_support()
    assert cut.N == 2
    gen = build_sideband_generator(p, cut.N)
    with pytest.raises(VacuumStateError):
        linewidth_from_slope(gen, initial_sideband(cut))
    with pytest.raises(VacuumStateError):
        linewidth_components(p, cut)
