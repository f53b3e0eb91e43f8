"""Steady-state statistics: limits, trapping support, detailed balance,
and the dense brute-force fixed-point oracle."""

import math
import warnings

import numpy as np
import pytest

import maserline.cli
from maserline import (
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
    build_uniform_lindblad,
    initial_sideband,
    linewidth_components,
    linewidth_from_slope,
    linewidth_mcgowan,
    linewidth_scully,
    schawlow_townes_ratio,
    steady_state,
)
from maserline.linewidth import jump_operator_matrices
from oracle import DenseLindblad
from maserline.steady import HARD_LIMIT, TAIL_TOL, recurrence_ratios, search_rows, search_width, steady_states


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


def test_auto_truncation_below_threshold_starts_at_the_floor(maser_params, recurrence_calls):
    """With the pump r/kappa (g tau_max)^2 below 1 every link ratio is below
    1, so the search starts at 4*50 levels whatever r/kappa is."""
    p = MaserParams(kappa=1.0, n_th=0.0, r=1e308, g=1e-160, tau_dist=FixedTau(1.0))
    assert steady_state(p).N == 200
    calls = recurrence_calls
    calls.clear()
    stats = steady_state(maser_params(0.305, r=5000.0))
    assert calls[0] == 201 and stats.N == calls[-1] - 1 < 4 * 5000


def test_auto_truncation_refuses_a_slow_tail_below_threshold():
    """At a pump just below 1 and r/kappa = 1e300 the link ratios stay near
    1 and the bound n_ex/(n+1) stays above 1 within the hard limit; the
    candidates double to it and the search refuses with its typed limit."""
    p = MaserParams(kappa=1.0, n_th=0.0, r=1e300, g=0.99999 / math.sqrt(1e300), tau_dist=FixedTau(1.0))
    with pytest.raises(ResourceLimitError):
        auto_truncation(p)


THREE_NODES = DiscreteTau([0.7, 1.0, 1.3], [0.3, 0.4, 0.3])


def test_truncation_sweep_succeeds_or_refuses_only_above_threshold():
    """Seeded sweep over r/kappa in [10, 1e4], theta/pi in [0.05, 4] and n_th:
    each point gives adequate statistics on which the exact and slope
    linewidths agree, or a typed refusal where the pump r/kappa
    (g tau_max)^2 is at least 1 and 4 r/kappa levels exceed the hard limit."""
    rng = np.random.default_rng(0)
    outcomes = []
    for _ in range(40):
        nodes = rng.random() < 0.5
        n_ex = 10.0 ** rng.uniform(1.0, 4.0)
        theta = math.pi * 10.0 ** rng.uniform(math.log10(0.05), math.log10(4.0))
        n_th = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-3.0, math.log10(3.0))
        g = theta / math.sqrt(n_ex)  # tau = 1 is the fixed tau and the mean node
        params = MaserParams(1.0, n_th, n_ex, g, THREE_NODES if nodes else FixedTau(1.0))
        pump = n_ex * (g * (1.3 if nodes else 1.0)) ** 2
        try:
            stats = steady_state(params)
        except ResourceLimitError:
            assert pump >= 1.0 and 4.0 * n_ex > HARD_LIMIT, (n_ex, theta, n_th, nodes)
            outcomes.append("refused")
            continue
        assert np.all(stats.p >= 0.0) and abs(stats.p.sum() - 1.0) <= 1e-12
        assert stats.p[-1] == 0.0 or stats.p[-1] <= TAIL_TOL * stats.p.max()
        exact = linewidth_components(params, stats).total
        slope = linewidth_from_slope(build_sideband_generator(params, stats.N), initial_sideband(stats))
        assert slope == pytest.approx(exact, rel=1e-9, abs=0.0), (n_ex, theta, n_th, nodes)
        outcomes.append("below" if pump < 1.0 and 4.0 * n_ex > HARD_LIMIT else "ok")
    # the sweep reaches both outcomes and the rows the floor start rescues
    assert {"ok", "refused", "below"} <= set(outcomes), outcomes


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


def test_steady_state_evaluates_the_recurrence_once(recurrence_calls):
    calls = recurrence_calls
    stats = steady_state(SEARCH_CASES["fixed_r50"])
    assert calls == [stats.N + 1]  # the first candidate is accepted


def _search_sample():
    """Seeded records of every family the search serves: multi-lobe points
    at r/kappa = 3000, theta near 2 pi and n_th <= 1e-3, whose statistics
    have lobes beyond deep valleys below r/kappa; fixed tau and the
    three-node list with n_th = 0 among them; the exponential closed form;
    and r = 0."""
    rng = np.random.default_rng(20)
    sample = []
    for _ in range(24):
        theta = rng.uniform(1.9, 2.0) * math.pi
        n_th = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-4.0, -3.0)
        sample.append(MaserParams(1.0, n_th, 3000.0, theta / math.sqrt(3000.0), FixedTau(1.0)))
    for _ in range(40):
        n_ex = 10.0 ** rng.uniform(0.0, 3.7)
        theta = rng.uniform(0.05, 4.0) * math.pi
        n_th = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-4.0, 0.5)
        dist = FixedTau(1.0) if rng.random() < 0.5 else THREE_NODES
        sample.append(MaserParams(1.0, n_th, n_ex, theta / math.sqrt(n_ex), dist))
    for _ in range(12):
        g_bar, theta_bar = rng.uniform(0.1, 1.0), rng.uniform(0.3, 4.0)
        n_th = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 0.0)
        sample.append(MaserParams(1.0, n_th, (theta_bar / g_bar) ** 2, g_bar, ExponentialTau(1.0)))
    for _ in range(6):
        sample.append(MaserParams(1.0, 10.0 ** rng.uniform(-3.0, 1.0), 0.0, 1.0, FixedTau(1.0)))
    return sample


def _whole_truncation(params, N):
    """p and the tail bound of the recurrence solved whole on levels 0..N,
    written out here apart from the library's evaluator: the log ratios of
    links 0..N-1, one cumsum from level 0, exp(log p - max) divided by its
    sum over the N + 1 levels, and the geometric tail from the edge link."""
    ratios = recurrence_ratios(params, N + 1)
    with np.errstate(divide="ignore"):  # a trapping zero has log ratio -inf
        log_p = np.concatenate(([0.0], np.cumsum(np.log(ratios[:N]))))
    p = np.exp(log_p - np.max(log_p))
    p /= p.sum()
    edge = ratios[N]
    return p, (0.0 if p[-1] == 0.0 else p[-1] * edge / (1.0 - edge))


def test_search_gives_the_bits_of_the_whole_truncation_on_a_sample():
    """The search evaluates the recurrence only until every later p_n is
    exactly zero; on a seeded sample its statistics are still the bits of
    solving the accepted truncation whole, and the ratios it did not
    evaluate contract as the bound says."""
    for params in _search_sample():
        searched = auto_truncation(params)
        p, tail_mass_bound = _whole_truncation(params, searched.N)
        assert np.array_equal(searched.p, p), params
        assert searched.tail_mass_bound == tail_mass_bound, params
        ratios = recurrence_ratios(params, searched.N)
        assert np.all(ratios[searched.N // 4 :] < 1.0), params


def _stacked_samples():
    """Seeded blocks of every kind the row axis serves, each a list of
    records, and the N of the given-truncation blocks (None: the search)."""
    rng = np.random.default_rng(26)
    blocks = []
    for n_th in (0.0, 0.01):
        gs = list(np.sort(rng.uniform(0.05, 4.0, 25)) * math.pi / math.sqrt(50.0))
        # g tau sqrt(k) = pi: a trapping state at n = k, exact at n_th = 0
        gs[::6] = [math.pi / math.sqrt(k) for k in (4, 9, 25, 49, 100)]
        blocks.append(([MaserParams(1.0, n_th, 50.0, g, FixedTau(1.0)) for g in gs], None))
    thetas = rng.uniform(0.1, 4.0, 9) * math.pi
    blocks.append(([MaserParams(1.0, 0.01, 40.0, t / math.sqrt(40.0), THREE_NODES) for t in thetas], None))
    theta_bars = rng.uniform(0.2, 3.0, 12)
    blocks.append(([MaserParams(1.0, 0.0, (tb / 0.3) ** 2, 0.3, ExponentialTau(1.0)) for tb in theta_bars], None))
    n_th = 10.0 ** rng.uniform(-3.0, -1.0)
    rates = rng.uniform(1.0, 200.0, 6)
    blocks.append(([MaserParams(1.0, n_th, r, 0.3, ExponentialTau(1.0)) for r in rates], 300))
    return blocks


def _assert_statistics_bits(stats, records, N=None, averages=None):
    assert len(stats) == len(records)
    for row_stats, record in zip(stats, records):
        one = steady_state(record, N, averages)
        assert np.array_equal(row_stats.p, one.p), record
        assert row_stats.N == one.N and row_stats.tail_mass_bound == one.tail_mass_bound, record


def test_stacked_statistics_are_the_bits_of_each_record():
    """A block searched or solved with a row axis gives every row the p
    bits, N and tail bound of its one-record call: fixed-tau rows in g with
    trapping zeros, three-node rows in g, closed-form rows in r, and the
    Laguerre families' rows in r on a given truncation."""
    trapped = 0
    for records, N in _stacked_samples():
        if N is None:
            stats = search_rows(records)
        else:
            stats = steady_states(records, N)
        _assert_statistics_bits(stats, records, N)
        trapped += sum(row_stats.on_support().N < row_stats.N for row_stats in stats)
    assert trapped >= 5
    records = _stacked_samples()[-1][0]
    for orders in ((1, 0), (7, 6)):
        family = build_uniform_lindblad(records[0], orders)
        _assert_statistics_bits(steady_states(records, 250, family), records, 250, family)


def test_stacked_search_falls_back_to_each_record_on_its_own(monkeypatch, recurrence_calls):
    """A row whose first candidate is rejected runs its own search, which
    doubles it; a record at r = 0 or with a first candidate beyond one
    chunk is searched on its own, and the scan's runs keep the row order."""
    # below threshold at n_th = 1: link ratios near (1 + pump)/2, so a pump
    # of 0.99 leaves a tail too long for 200 levels, and one of 0.01 does not
    fast, slow = (MaserParams(1.0, 1.0, r, 0.01, FixedTau(1.0)) for r in (100.0, 9900.0))
    assert search_width(fast) == search_width(slow) == 201
    stats = search_rows([fast, slow, fast])
    assert [s.N for s in stats] == [200, stats[1].N, 200] and stats[1].N >= 400
    _assert_statistics_bits(stats, [fast, slow, fast])
    assert recurrence_calls[:2] == [201, 201] and 401 in recurrence_calls
    maser = MaserParams(1.0, 0.01, 50.0, 2.5 * math.pi / math.sqrt(50.0), FixedTau(1.0))
    thermal = MaserParams(1.0, 0.5, 0.0, 1.0, FixedTau(1.0))
    wide = MaserParams(1.0, 0.01, 1000.0, 2.5 * math.pi / math.sqrt(1000.0), FixedTau(1.0))
    assert search_width(thermal) is None and search_width(wide) is None
    with pytest.raises(ValueError, match="one first candidate"):
        search_rows([maser, thermal])
    records = [maser, thermal, slow, wide, maser, maser]
    stacks = []

    def recorded(run):
        stacks.append(list(run))
        return search_rows(run)

    monkeypatch.setattr(maserline.cli, "search_rows", recorded)
    rows = list(maserline.cli._row_statistics(records, None))
    assert [i for i, _ in rows] == list(range(6))
    # rows 1 and 3 are searched on their own; the last two rows form one stack
    assert stacks == [[maser], [slow], [maser, maser]]
    _assert_statistics_bits([stats for _, stats in rows], records)


def test_stacked_statistics_refuse_mixed_records(maser_params, laser_params):
    """A block's records must share kappa, n_th and the distribution, and
    differ in g only across the rows of a family with a row axis."""
    rows = [maser_params(theta) for theta in (0.5, 2.5)]
    with pytest.raises(ValueError, match="n_th"):
        steady_states([rows[0], maser_params(0.5, n_th=0.1)], 200)
    with pytest.raises(ValueError, match="kappa"):
        steady_states([rows[0], maser_params(0.5, kappa=2.0)], 200)
    with pytest.raises(ValueError, match="tau_dist"):
        steady_states([laser_params(2.0), MaserParams(1.0, 0.0, 44.0, 0.3, FixedTau(1.0))], 200)
    with pytest.raises(ValueError, match="differ in g"):
        steady_states(rows, 200, TrigAverages.for_params(rows[0]))
    with pytest.raises(ValueError, match="2 rows cannot serve 3 records"):
        steady_states(rows + rows[:1], 200, TrigAverages.for_params(rows))


def test_steady_state_refuses_negative_recurrence_ratios():
    """A family with a negative weight gives negative link ratios; the
    given-truncation path refuses them with a ValueError, not with a
    warning from their logs."""
    params = MaserParams(1.0, 0.0, 50.0, 0.3, FixedTau(1.0))
    averages = TrigAverages(gtaus=[0.3], weights=[-1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^recurrence ratios must be non-negative$"):
            steady_state(params, 40, averages)


def test_search_evaluates_the_recurrence_to_the_support(maser_params, recurrence_calls):
    """At r/kappa = 5000, theta = 2.5 pi the statistics end near n = 3000 of
    a 20000-level truncation; the search evaluates at most twice
    max(r/kappa, support) levels, not the whole candidate."""
    stats = auto_truncation(maser_params(2.5, r=5000.0))
    support = int(np.flatnonzero(stats.p)[-1]) + 1
    assert stats.N == 20000 and support < 5000
    assert 0 < recurrence_calls.levels <= 2 * max(5000, support)


def test_search_evaluates_the_edge_link_with_the_links_below_it():
    """At r/kappa = 64 the first candidate of a pumped record is 256 levels,
    where the first chunk of the recurrence ends; the edge link is then
    evaluated with that chunk, not alone, so on this sample of three-node
    records every search gives the bits of ``steady_state(params, N)``, its
    tail bound included."""
    dist = DiscreteTau([0.7, 1.0, 1.3], [0.3, 0.4, 0.3])
    records = [MaserParams(1.0, n_th, 64.0, theta / 8.0, dist)
               for n_th in (0.0, 0.01, 0.1, 1.0) for theta in np.linspace(0.5, 4.0, 200) * math.pi]
    at_chunk_end = 0
    for params in records:
        searched = auto_truncation(params)
        at_chunk_end += searched.N == maserline.steady.FIRST_CHUNK
        given = steady_state(params, searched.N)
        assert np.array_equal(searched.p, given.p), params
        assert searched.tail_mass_bound == given.tail_mass_bound, params
    assert at_chunk_end > 400


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
