"""Linewidth routes: exactness, cross-route agreement, classic formulas."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from maserline import (
    DiscreteTau,
    ExponentialTau,
    FixedTau,
    MaserParams,
    PhotonStatistics,
    TrigAverages,
    VacuumStateError,
    build_sideband_generator,
    build_uniform_lindblad,
    initial_sideband,
    linewidth_components,
    linewidth_exp_closed,
    linewidth_exp_scully,
    linewidth_from_slope,
    linewidth_lindblad_trace,
    linewidth_mcgowan,
    linewidth_scully,
    quadrature_nodes,
    refine_until_stable,
    schawlow_townes_ratio,
    steady_state,
    uniform_linewidth,
)
import maserline.linewidth
from maserline.linewidth import (
    _Band,
    _basis_size,
    _lowering_operator,
    jump_operator_matrices,
    mcgowan_weights,
    pump_weights,
)
from maserline.model import block_rates
from maserline.steady import search_rows, steady_states
from oracle import DenseLindblad, to_dense


def point_statistics(n0, size=None):
    p = np.zeros((size or n0 + 6))
    p[n0] = 1.0
    return PhotonStatistics.from_probabilities(p)


# -- thermal limit ----------------------------------------------------------


@pytest.mark.parametrize("n_th", [0.01, 0.1, 1.0])
def test_thermal_linewidth_is_kappa(thermal_params, n_th):
    p = thermal_params(n_th)
    stats = steady_state(p)
    bd = linewidth_components(p, stats)
    assert bd.total == pytest.approx(1.0, rel=1e-12)
    assert bd.cosine == 0.0 and bd.sine == 0.0
    assert linewidth_lindblad_trace(p, stats) == pytest.approx(1.0, rel=1e-12)


def test_thermal_linewidth_respects_kappa_units(thermal_params):
    p = thermal_params(0.1, kappa=3.5)
    stats = steady_state(p)
    assert linewidth_components(p, stats).total == pytest.approx(3.5, rel=1e-12)


def test_vacuum_raises(maser_params):
    p = MaserParams(kappa=1.0, n_th=0.0, r=0.0, g=1.0, tau_dist=FixedTau(1.0))
    stats = steady_state(p, 3)
    with pytest.raises(VacuumStateError):
        linewidth_components(p, stats)
    with pytest.raises(VacuumStateError):
        linewidth_scully(dataclasses.replace(p, r=1.0), stats)


# -- Fock-resolved weights ---------------------------------------------------


def test_weight_at_zero_photons(maser_params):
    p = maser_params(2.0, r=120.0)
    cos_w, sin_w = pump_weights(p, 10)
    g_tau = p.g * p.tau_dist.tau
    assert cos_w[0] == 0.0
    assert sin_w[0] == pytest.approx(p.r * math.sin(g_tau) ** 2, rel=1e-13)


def test_weights_are_non_negative(maser_params):
    p = maser_params(2.7)
    cos_w, sin_w = pump_weights(p, 400)
    assert np.all(cos_w >= 0) and np.all(sin_w >= 0)


def test_point_and_closed_weights_agree(laser_params):
    # 512 nodes resolve the oscillatory integrands up to x = g_bar sqrt(n) ~ 3
    p = laser_params(1.5)
    closed_cos, closed_sin = pump_weights(p, 100)
    nodes_av = TrigAverages.for_params(p, n_nodes=512)
    node_cos, node_sin = pump_weights(p, 100, nodes_av)
    np.testing.assert_allclose(closed_cos, node_cos, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(closed_sin, node_sin, rtol=1e-10, atol=1e-13)


def test_fock_resolved_consistency(maser_params):
    p = maser_params(2.1, r=200.0, n_th=0.1)
    stats = steady_state(p)
    cos_w, sin_w = pump_weights(p, stats.N)
    bd = linewidth_components(p, stats)
    assert stats.p.sum() == pytest.approx(1.0, abs=1e-12)
    pump_trace = float(stats.p @ (cos_w + sin_w))
    assert pump_trace == pytest.approx(bd.total * bd.n_mean - p.kappa * p.n_th, rel=1e-12)
    mc_trace = float(stats.p @ mcgowan_weights(p, stats.N))
    assert mc_trace == pytest.approx(linewidth_mcgowan(p, stats) * bd.n_mean, rel=1e-12)


def test_undulating_versus_flat_weights(maser_params):
    """The exact weight oscillates over the statistics support while the
    multi-eigenvalue weight is essentially flat there (variance ratio
    pinned by the pre-freeze oracle run: ~160x)."""
    for theta in (2.1, 2.2):
        p = maser_params(theta, r=200.0, n_th=0.1)
        stats = steady_state(p)
        main = sum(pump_weights(p, stats.N))
        mcgowan = mcgowan_weights(p, stats.N)
        window = stats.p > 1e-3 * stats.p.max()
        assert np.var(mcgowan[window]) <= 0.2 * np.var(main[window])


# -- route equivalence -------------------------------------------------------


def routes(params, stats, averages=None):
    bd = linewidth_components(params, stats, averages)
    trace = linewidth_lindblad_trace(params, stats)
    gen = build_sideband_generator(params, stats.N, averages)
    slope = linewidth_from_slope(gen, initial_sideband(stats))
    return bd.total, trace, slope


def test_route_equivalence_fixed_tau(maser_params):
    for theta in (0.6, 1.3, 2.0, 2.6, 3.4):
        p = maser_params(theta)
        stats = steady_state(p)
        values = routes(p, stats)
        assert max(values) - min(values) < 1e-8 * values[0]


def test_route_equivalence_exponential_shared_nodes(laser_params):
    # thirty pump points; all routes share one node list so the
    # comparison isolates formula differences from quadrature error
    for theta_bar in np.linspace(0.3, 3.0, 30):
        base = laser_params(theta_bar)
        nodes = quadrature_nodes(base.tau_dist, 64)
        p = dataclasses.replace(base, tau_dist=nodes)
        stats = steady_state(p)
        values = routes(p, stats)
        assert max(values) - min(values) < 1e-8 * values[0]


def test_route_equivalence_exponential_closed_forms(laser_params):
    # same grid with the closed-form averages feeding both the weights
    # and the generator
    for theta_bar in np.linspace(0.3, 3.0, 30):
        p = laser_params(theta_bar)
        stats = steady_state(p)
        d13 = linewidth_components(p, stats).total
        gen = build_sideband_generator(p, stats.N)
        d_slope = linewidth_from_slope(gen, initial_sideband(stats))
        assert abs(d13 - d_slope) < 1e-8 * d13


def test_breakdown_components_sum_and_signs(maser_params):
    p = maser_params(2.5)
    stats = steady_state(p)
    bd = linewidth_components(p, stats)
    assert bd.total == pytest.approx(bd.thermal + bd.cosine + bd.sine, rel=1e-12)
    assert bd.thermal >= 0 and bd.cosine >= 0 and bd.sine >= 0


# -- dissipator shift invariance ----------------------------------------------


def test_hermitian_jump_shift_leaves_dissipator_invariant(maser_params):
    rng = np.random.default_rng(11)
    p = maser_params(2.0)
    dim = 24
    jumps = [to_dense(L) for L in jump_operator_matrices(p, dim)]
    rho = rng.standard_normal((dim, dim))
    rho = rho + rho.T
    base = DenseLindblad(jumps).apply(rho)
    for shift in (0.0, 1.0, -3.0):
        shifted = [op.copy() for op in jumps]
        shifted[2] = shifted[2] + shift * np.eye(dim)  # the Hermitian cosine operator
        np.testing.assert_allclose(DenseLindblad(shifted).apply(rho), base, atol=1e-11)


def test_hermitian_jump_shift_leaves_linewidth_invariant(maser_params):
    p = maser_params(2.0)
    stats = steady_state(p)
    dim = stats.N + 1
    a = np.zeros((dim, dim))
    idx = np.arange(dim - 1)
    a[idx, idx + 1] = np.sqrt(idx + 1.0)
    a_rho = a * stats.p[None, :]

    def trace_value(shift):
        total = 0.0
        for k, L in enumerate(jump_operator_matrices(p, dim)):
            L = to_dense(L)
            if k == 2:
                L = L + shift * np.eye(dim)
            Ldag = L.T
            comm1 = a.T @ L - L @ a.T
            comm2 = Ldag @ a.T - a.T @ Ldag
            total -= np.trace(Ldag @ comm1 @ a_rho) + np.trace(comm2 @ L @ a_rho)
        return total / stats.mean

    base = trace_value(0.0)
    for shift in (1.0, -3.0):
        assert trace_value(shift) == pytest.approx(base, rel=1e-10)


# -- jump-operator trace on single-band matrices --------------------------------

# (id, params, n_nodes): fixed tau, a three-node list, fixed tau at n_th > 0,
# and exponential tau on 24 Gauss-Laguerre nodes; the family under test is
# TrigAverages.for_params(params, n_nodes)
JUMP_MODELS = [
    ("fixed", MaserParams(1.0, 0.0, 50.0, 2.5 * math.pi / math.sqrt(50.0), FixedTau(1.0)), None),
    ("three_nodes", MaserParams(1.0, 0.0, 50.0, 0.3, DiscreteTau([0.5, 1.0, 1.5], [0.25, 0.5, 0.25])), None),
    ("fixed_n_th", MaserParams(1.0, 0.1, 50.0, 0.35, FixedTau(1.0)), None),
    ("exp_24_nodes", MaserParams(1.0, 0.0, 50.0, 0.3, ExponentialTau(1.0)), 24),
]


def dense_jump_operators(params, dim, n_nodes):
    """The jump-operator set built as dense ndarrays, entry by entry."""
    a = np.zeros((dim, dim))
    idx = np.arange(dim - 1)
    a[idx, idx + 1] = np.sqrt(idx + 1.0)
    adag = a.T.copy()
    phi = np.sqrt(np.arange(1.0, dim + 1.0))
    ops = [np.sqrt(params.kappa * (1.0 + params.n_th)) * a]
    if params.n_th > 0:
        ops.append(np.sqrt(params.kappa * params.n_th) * adag)
    nodes = quadrature_nodes(params.tau_dist, n_nodes or 1)
    for tau, dp in zip(nodes.taus, nodes.weights):
        amp = np.sqrt(params.r * dp)
        arg = params.g * tau * phi
        ops.append(amp * np.diag(np.cos(arg)))
        ops.append(amp * adag @ np.diag(np.sinc(arg / np.pi) * params.g * tau))
    return ops


def dense_trace_linewidth(jumps, stats):
    """The double-commutator trace on dense ndarrays, divided by <n>."""
    dim = stats.N + 1
    a = np.zeros((dim, dim))
    idx = np.arange(dim - 1)
    a[idx, idx + 1] = np.sqrt(idx + 1.0)
    a_rho = a * stats.p[None, :]
    total = 0.0
    for L in jumps:
        Ldag = L.T
        comm1 = a.T @ L - L @ a.T
        comm2 = Ldag @ a.T - a.T @ Ldag
        total -= np.trace(Ldag @ comm1 @ a_rho) + np.trace(comm2 @ L @ a_rho)
    return total / stats.mean


@pytest.mark.parametrize("model", JUMP_MODELS, ids=[m[0] for m in JUMP_MODELS])
def test_band_jump_operators_are_the_literal_matrices(model):
    _, params, n_nodes = model
    dim = 30
    band = jump_operator_matrices(params, dim, TrigAverages.for_params(params, n_nodes))
    dense = dense_jump_operators(params, dim, n_nodes)
    assert len(band) == len(dense)
    for L, ref in zip(band, dense):
        assert L.shape == (dim, dim)
        np.testing.assert_allclose(to_dense(L), ref, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(to_dense(L.T), ref.T, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("model", JUMP_MODELS, ids=[m[0] for m in JUMP_MODELS])
def test_band_trace_matches_dense_trace(model):
    _, params, n_nodes = model
    family = TrigAverages.for_params(params, n_nodes)
    stats = steady_state(params, 150)
    dense = dense_trace_linewidth([to_dense(L) for L in jump_operator_matrices(params, 151, family)], stats)
    assert linewidth_lindblad_trace(params, stats, family) == pytest.approx(dense, rel=1e-12)


def test_trace_takes_a_gauss_laguerre_family():
    """An exponential tau with a given family traces that family's
    operators (no node ladder): equal to the dense trace over the jump
    operators of the same 64-node rule, built entry by entry."""
    p = MaserParams(1.0, 0.0, 50.0, 0.3, ExponentialTau(1.0))
    stats = steady_state(p, 100)
    dense = dense_trace_linewidth(dense_jump_operators(p, 101, 64), stats)
    assert linewidth_lindblad_trace(p, stats, TrigAverages.for_params(p, 64)) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("r, N", [(1000.0, 4000), (5000.0, None)])
def test_trace_route_at_large_basis(maser_params, r, N):
    """Basis sizes the dense O(N^3) trace could not reach: the trace must
    still agree with the exact route."""
    p = maser_params(2.5, r=r, n_th=0.01)
    stats = steady_state(p, N)
    assert stats.N == (N or 20000)
    exact = linewidth_components(p, stats).total
    assert linewidth_lindblad_trace(p, stats) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("dist", [FixedTau(1.0), ExponentialTau(1.0)], ids=["fixed", "exp"])
def test_jump_operator_matrices_rejects_zero_nodes(dist):
    p = MaserParams(1.0, 0.0, 50.0, 0.3, dist)
    with pytest.raises(ValueError):
        jump_operator_matrices(p, 20, TrigAverages.for_params(p, 0))


def test_jump_operator_matrices_exponential_needs_nodes(laser_params):
    """The exponential distribution has no finite operator set; without
    explicit nodes it must be refused, not replaced by a one-node rule."""
    p = laser_params(1.0)
    with pytest.raises(ValueError):
        jump_operator_matrices(p, 20)
    assert len(jump_operator_matrices(p, 20, TrigAverages.for_params(p, 8))) == 1 + 2 * 8


def _exp_laser(n_th=0.0):
    return MaserParams(1.0, n_th, 50.0, 0.3, ExponentialTau(1.0))


# (id, params, family): the trace stacks the operators of one band offset,
# so each family is traced again one operator at a time
STACKED_MODELS = [
    ("fixed", JUMP_MODELS[0][1], None),
    ("three_nodes", JUMP_MODELS[1][1], None),
    ("laguerre_3_2", _exp_laser(0.01), build_uniform_lindblad(_exp_laser(0.01), (3, 2))),
    ("gauss_laguerre_128", _exp_laser(), TrigAverages.for_params(_exp_laser(), 128)),
    ("gauss_laguerre_512", _exp_laser(), TrigAverages.for_params(_exp_laser(), 512)),
]


@pytest.mark.parametrize("model", STACKED_MODELS, ids=[m[0] for m in STACKED_MODELS])
def test_stacked_trace_is_the_sum_over_single_operators(model):
    """The stacked, blocked trace equals the literal body run on each jump
    operator alone, summed exactly: a dropped, repeated or misplaced row
    of a stack shows here."""
    _, params, family = model
    stats = steady_state(params, 150)
    a = _lowering_operator(stats.N + 1)
    adag = a.T
    a_rho = a @ _Band(0, stats.p)
    terms = []
    for L in jump_operator_matrices(params, stats.N + 1, family):
        Ldag = L.T
        comm1 = adag @ L - L @ adag
        comm2 = Ldag @ adag - adag @ Ldag
        terms.append(-((Ldag @ comm1 @ a_rho).trace() + (comm2 @ L @ a_rho).trace()))
    single = math.fsum(terms) / stats.mean
    assert linewidth_lindblad_trace(params, stats, family) == pytest.approx(single, rel=1e-13, abs=0.0)


def test_trace_memory_stays_within_twice_the_operator_set():
    """Exponential tau at r=1000 on a 256-node rule and 4001 levels: the
    operator set is built in place and the stacked products run in bounded
    blocks, so the peak allocation of the trace stays within twice the
    bytes of the jump-operator set."""
    p = MaserParams(1.0, 0.0, 1000.0, 0.05, ExponentialTau(1.0))
    stats = steady_state(p, 4000)
    family = TrigAverages.for_params(p, 256)
    set_bytes = sum(L.values.nbytes for L in jump_operator_matrices(p, stats.N + 1, family))
    tracemalloc.start()
    try:
        linewidth_lindblad_trace(p, stats, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * set_bytes


# -- row axis: blocks of records that differ in g only --------------------------


def test_block_weight_rows_are_the_one_row_weights(row_block):
    """pump_weights and mcgowan_weights of a family with one row per record
    are (rows, N + 1) arrays whose row i has the bits of record i's own call."""
    rows, N, block = row_block
    cos_w, sin_w = pump_weights(rows[0], N, block)
    mcgowan = mcgowan_weights(rows[0], N, block)
    assert cos_w.shape == sin_w.shape == mcgowan.shape == (len(rows), N + 1)
    for params, cos_row, sin_row, mcgowan_row in zip(rows, cos_w, sin_w, mcgowan):
        one_cos, one_sin = pump_weights(params, N)
        assert np.array_equal(cos_row, one_cos)
        assert np.array_equal(sin_row, one_sin)
        assert np.array_equal(mcgowan_row, mcgowan_weights(params, N))


def test_block_linewidths_are_the_one_row_linewidths(row_block):
    """A block of statistics on one basis size gives, row by row, the
    breakdown and the McGowan value of the one-row calls, bit for bit."""
    rows, N, block = row_block
    stats = [steady_state(params, N) for params in rows]
    assert linewidth_components(rows[0], stats, block) == [linewidth_components(p, s) for p, s in zip(rows, stats)]
    assert linewidth_mcgowan(rows[0], stats, block) == [linewidth_mcgowan(p, s) for p, s in zip(rows, stats)]


def test_block_of_node_lists_matches_the_one_row_families(maser_params):
    """Three-node records that differ in g only give a (rows, 3) family;
    its weights keep each record's bits."""
    dist = DiscreteTau([0.7, 1.0, 1.3], [0.3, 0.4, 0.3])
    rows = [dataclasses.replace(maser_params(theta), tau_dist=dist) for theta in (0.4, 1.7, 2.9)]
    block = TrigAverages.for_params(rows)
    stats = [steady_state(p, 200) for p in rows]
    cos_w, sin_w = pump_weights(rows[0], 200, block)
    for i, params in enumerate(rows):
        one_cos, one_sin = pump_weights(params, 200)
        assert np.array_equal(cos_w[i], one_cos) and np.array_equal(sin_w[i], one_sin)
        assert np.array_equal(mcgowan_weights(rows[0], 200, block)[i], mcgowan_weights(params, 200))
    assert linewidth_components(rows[0], stats, block) == [linewidth_components(p, s) for p, s in zip(rows, stats)]


def test_blocks_are_checked(maser_params, laser_params):
    rows = [maser_params(theta) for theta in (0.5, 2.5)]
    block = TrigAverages.for_params(rows)
    with pytest.raises(ValueError, match="one basis size"):
        linewidth_components(rows[0], [steady_state(rows[0], 200), steady_state(rows[1], 220)], block)
    with pytest.raises(ValueError):  # two rows of averages, three statistics
        linewidth_components(rows[0], [steady_state(rows[0], 200)] * 3, block)
    with pytest.raises(VacuumStateError):
        linewidth_mcgowan(rows[0], [steady_state(rows[0], 200), point_statistics(0, 201)], block)
    # a block's family: node lists must share their weights, the records
    # one kind of distribution, and a block selects no quadrature rule
    discrete = dataclasses.replace(rows[0], tau_dist=DiscreteTau([0.5, 1.5], [0.5, 0.5]))
    skewed = dataclasses.replace(rows[1], tau_dist=DiscreteTau([0.5, 1.5], [0.25, 0.75]))
    with pytest.raises(ValueError, match="share their weights"):
        TrigAverages.for_params([discrete, skewed])
    for mixed in ([rows[0], discrete], [rows[0], laser_params(2.0)], [laser_params(2.0), discrete]):
        with pytest.raises(ValueError, match="share tau_dist"):
            TrigAverages.for_params(mixed)
    for block_rows in (rows, [laser_params(1.0), laser_params(2.0)]):
        with pytest.raises(ValueError, match="n_nodes=8"):
            TrigAverages.for_params(block_rows, 8)


def test_block_entry_points_check_their_records(maser_params, laser_params):
    """Every block entry point serves the records it is given or refuses
    them, naming the field: kappa, n_th or the distribution that differs,
    g that differs across a family without a row axis, and a family whose
    row count is not the record count."""
    rows = [maser_params(theta) for theta in (0.5, 2.5)]
    stats = [steady_state(p, 200) for p in rows]
    stacked = TrigAverages.for_params(rows)
    lasers = [laser_params(theta_bar) for theta_bar in (1.0, 2.0)]
    laser_stats = [steady_state(p, 200) for p in lasers]
    family = build_uniform_lindblad(lasers[0], (3, 2))
    entry_points = {
        "components": lambda records, averages: linewidth_components(records, stats, averages),
        "mcgowan": lambda records, averages: linewidth_mcgowan(records, stats, averages),
        "pump_weights": lambda records, averages: pump_weights(records, 200, averages),
        "mcgowan_weights": lambda records, averages: mcgowan_weights(records, 200, averages),
        "generator": lambda records, averages: build_sideband_generator(records, 200, averages),
        "steady_states": lambda records, averages: steady_states(records, 200, averages),
    }
    mixed = {
        "kappa": [rows[0], maser_params(2.5, kappa=2.0)],
        "n_th": [rows[0], maser_params(2.5, n_th=0.1)],
        "tau_dist": [rows[0], dataclasses.replace(rows[1], tau_dist=FixedTau(0.5))],
    }
    for name, build in entry_points.items():
        for field, records in mixed.items():
            with pytest.raises(ValueError, match=f"share {field}$"):
                build(records, stacked)
        with pytest.raises(ValueError, match="differ in g, and the family has no row axis"):
            build(rows, TrigAverages.for_params(rows[0]))
        with pytest.raises(ValueError, match="a family of 2 rows cannot serve 3 records"):
            build(rows + rows[:1], stacked)
    laser_entry_points = (
        lambda records: uniform_linewidth(records, family, 200),
        lambda records: linewidth_exp_closed(records, laser_stats),
        lambda records: linewidth_exp_scully(records, laser_stats),
    )
    for build in laser_entry_points:
        with pytest.raises(ValueError, match="differ in g"):
            build([lasers[0], laser_params(2.0, g_bar=0.4)])
        with pytest.raises(ValueError, match="share kappa$"):
            build([lasers[0], laser_params(2.0, kappa=2.0)])
    with pytest.raises(ValueError, match="exponential"):
        linewidth_exp_closed([rows[1]] * 2, stats)


def test_blocks_in_rate_are_the_one_row_results(maser_params, laser_params):
    """Records that differ in r (and in g across a stacked family) are
    built at their own rates: every route gives each row the bits of its
    one-record call."""
    rows = [maser_params(theta, r=r) for theta, r in ((0.4, 50.0), (2.5, 20.0), (3.1, 45.0))]
    stats = [steady_state(p, 200) for p in rows]
    stacked = TrigAverages.for_params(rows)
    assert linewidth_components(rows, stats, stacked) == [linewidth_components(p, s) for p, s in zip(rows, stats)]
    assert linewidth_mcgowan(rows, stats, stacked) == [linewidth_mcgowan(p, s) for p, s in zip(rows, stats)]
    slopes = linewidth_from_slope(build_sideband_generator(rows, 200, stacked), initial_sideband(stats))
    assert slopes == [linewidth_from_slope(build_sideband_generator(p, 200), initial_sideband(s))
                      for p, s in zip(rows, stats)]
    lasers = [laser_params(theta_bar) for theta_bar in (0.9, 1.7, 2.6, 2.6)]
    laser_stats = [steady_state(p, 200) for p in lasers]
    for route in (linewidth_exp_closed, linewidth_exp_scully):
        assert route(lasers, laser_stats) == [route(p, s) for p, s in zip(lasers, laser_stats)]
    for orders in ((1, 0), (7, 6)):
        family = build_uniform_lindblad(lasers[0], orders)
        assert uniform_linewidth(lasers, family, 200) == [uniform_linewidth(p, family, 200) for p in lasers]
    # one record for every row of a block: its rates and g serve them all
    assert linewidth_exp_closed(lasers[0], laser_stats) == [linewidth_exp_closed(lasers[0], s) for s in laser_stats]


# -- the weighted levels: builders on a level range ----------------------------

# the crosscheck's three-node interaction-time list, mean tau 1
THREE_NODES = DiscreteTau([0.7, 1.0, 1.3], [0.3, 0.4, 0.3])


def _weighted_level_records(count):
    """Seeded records: fixed tau or THREE_NODES, r/kappa log-uniform in
    [10, 5000], n_th in {0, 0.01, 0.1, 1} (trapping zeros at n_th = 0),
    theta in [0.1, 4] pi."""
    rng = np.random.default_rng(27)
    records = []
    for _ in range(count):
        r = 10.0 ** rng.uniform(1.0, math.log10(5000.0))
        n_th = float(rng.choice([0.0, 0.01, 0.1, 1.0]))
        theta = rng.uniform(0.1, 4.0) * math.pi
        dist = FixedTau(1.0) if rng.random() < 0.5 else THREE_NODES
        records.append(MaserParams(1.0, n_th, r, theta / math.sqrt(r), dist))
    return records


def _routes(params, stats, averages=None):
    """The exact breakdown, McGowan, the slope with the generator on the
    weighted levels (as scan-theta builds it), and that generator's G v0."""
    gen = build_sideband_generator(params, _basis_size(stats), averages, maserline.linewidth._weighted_levels(stats))
    v0 = initial_sideband(stats)
    return (linewidth_components(params, stats, averages), linewidth_mcgowan(params, stats, averages),
            linewidth_from_slope(gen, v0), gen.apply(v0))


def _assert_bits_of_the_whole_range(monkeypatch, params, stats, averages=None):
    N = _basis_size(stats)
    lo, hi = maserline.linewidth._weighted_levels(stats)
    exact, mcgowan, slope, g_v0 = _routes(params, stats, averages)
    with monkeypatch.context() as whole:
        whole.setattr(maserline.linewidth, "_weighted_levels", lambda stats: (0, N + 1))
        exact_whole, mcgowan_whole, slope_whole, g_v0_whole = _routes(params, stats, averages)
    assert exact == exact_whole and mcgowan == mcgowan_whole and slope == slope_whole, params
    # every component whose row reads a weighted level has the whole build's bits
    built = slice(max(lo - 2, 0), min(hi, N))
    assert np.array_equal(g_v0[..., built], g_v0_whole[..., built]), params


def test_weighted_levels_give_the_bits_of_the_whole_range(monkeypatch):
    """On a seeded sample, cut to the support and uncut, and on a stacked
    r=50 block, the exact route, McGowan and the slope with weights and
    generator built on the weighted levels give the bits of the same calls
    built on every level: each sum keeps its length and order."""
    narrowed = 0
    for params in _weighted_level_records(300):
        searched = steady_state(params)
        for stats in {searched, searched.on_support()}:
            if stats.mean == 0.0:
                continue
            lo, hi = stats.weighted_levels
            narrowed += hi - lo < stats.N + 1
            _assert_bits_of_the_whole_range(monkeypatch, params, stats)
    assert narrowed > 400  # most statistics have levels outside their weighted range
    records = [MaserParams(1.0, 0.01, 50.0, t * math.pi / math.sqrt(50.0), FixedTau(1.0))
               for t in np.linspace(0.1, 4.0, 40)]
    stats = search_rows(records)
    assert {row_stats.N for row_stats in stats} == {200}
    lo, hi = maserline.linewidth._weighted_levels(stats)
    assert hi - lo < 201 and (lo, hi) == (min(s.weighted_levels[0] for s in stats),
                                          max(s.weighted_levels[1] for s in stats))
    _assert_bits_of_the_whole_range(monkeypatch, records, stats, TrigAverages.for_params(records))


def test_weighted_levels_hold_every_level_above_the_floor():
    """weighted_levels is the levels with p_n >= 1e-40 of the peak, one
    more on each side within [0, N]."""
    p = np.zeros(41)
    p[[3, 4, 10]] = [1e-41, 1.0, 2e-40]
    assert PhotonStatistics.from_probabilities(p).weighted_levels == (3, 12)
    p = np.zeros(11)
    p[[0, 10]] = [1.0, 1e-40]
    assert PhotonStatistics.from_probabilities(p).weighted_levels == (0, 11)


def _whole_builds(params, N, averages):
    """The weights and the generator arrays on every level, as the
    builders formed them before they took a level range."""
    averages = averages or TrigAverages.for_params(params)
    kappa, n_th, r = block_rates(params, averages)
    n = np.arange(N + 1, dtype=float)
    cos_sq, sin_sq = averages.squared_differences(n)
    cos_w, sin_w = r / kappa * n * cos_sq, r / kappa * sin_sq
    s, s1 = np.sqrt(n), np.sqrt(n + 1.0)
    pump = r / kappa * averages.one_minus_cos_diff(1.0 / (s + s1))
    down = 0.25 / (n - 0.5 + np.sqrt(n * np.maximum(n - 1.0, 0.0)))
    mcgowan = 2.0 * n * (pump + (1.0 + n_th) * down + n_th * (0.25 / (n + 0.5 + s * s1)))
    n = n[:-1]
    s, s1, s2 = np.sqrt(n), np.sqrt(n + 1.0), np.sqrt(n + 2.0)
    sub = kappa * n_th * s * s1 + r * averages.sin_sin(s, s1)
    diag = (-kappa * (1.0 + n_th) * (n + 0.5) - kappa * n_th * (n + 1.5)
            - 0.5 * r * (averages.anticommutator_norm(s1) + averages.anticommutator_norm(s2))
            + r * averages.cos_cos(s1, s2))
    sup = kappa * (1.0 + n_th) * s1 * s2
    sup[-1] = 0.0
    top = np.sqrt(N + 1.0)
    diag[..., -1:] += kappa * n_th * (N + 1.0) / 2.0 + 0.5 * r * np.asarray(averages.sin_sin(top, top))[..., None]
    return cos_w, sin_w, mcgowan, sub, diag, sup


def _builds(params, N, averages, levels=None):
    gen = build_sideband_generator(params, N, averages, levels)
    return (*pump_weights(params, N, averages, levels), mcgowan_weights(params, N, averages, levels),
            gen.sub, gen.diag, gen.sup)


@pytest.mark.parametrize("case", ["fixed", "three-nodes", "stacked", "rates", "exp", "uniform"])
def test_builders_without_a_range_keep_their_arrays(case, maser_params, laser_params):
    """Without a level range the builders return the arrays of every level
    bit for bit; with one they keep that shape, hold those bits on the
    range (the generator on the components whose rows read it) and exact
    zeros elsewhere."""
    N = 600
    thetas = (0.4, 1.7, 2.9)
    rows = [maser_params(t, r=200.0) for t in thetas]
    params, averages = {
        "fixed": (maser_params(2.5, r=1000.0), None),
        "three-nodes": (dataclasses.replace(maser_params(1.3, r=200.0, n_th=0.1), tau_dist=THREE_NODES), None),
        "stacked": (rows, TrigAverages.for_params(rows)),
        "rates": ([laser_params(t) for t in thetas], None),
        "exp": (laser_params(2.0, n_th=0.1), None),
        "uniform": (laser_params(2.0), build_uniform_lindblad(laser_params(2.0), (3, 2))),
    }[case]
    whole = _builds(params, N, averages)
    for built, expected in zip(whole, _whole_builds(params, N, averages)):
        assert np.array_equal(built, expected)
    for lo, hi in ((0, N + 1), (0, 40), (150, 152), (233, 420), (550, N + 1), (N - 1, N + 1)):
        ranged = _builds(params, N, averages, (lo, hi))
        components = slice(max(lo - 2, 0), min(hi, N))
        for on_levels, levels, in_range in zip(ranged, whole, [slice(lo, hi)] * 3 + [components] * 3):
            assert on_levels.shape == levels.shape
            assert np.array_equal(on_levels[..., in_range], levels[..., in_range])
            outside = np.ones(levels.shape[-1], dtype=bool)
            outside[in_range] = False
            assert not np.any(on_levels[..., outside])
    for bad in ((-1, 10), (10, 10), (10, 11), (0, N + 2)):
        for build in (pump_weights, mcgowan_weights, build_sideband_generator):
            with pytest.raises(ValueError, match="level range"):
                build(params, N, averages, bad)


# -- classic formulas ----------------------------------------------------------


def test_scully_frozen_value():
    # kappa=1, n_th=0, <n>=25, r=100, g tau=pi:
    # 0.01 + 400 sin^2(pi/20), recomputed independently before freezing
    p = MaserParams(kappa=1.0, n_th=0.0, r=100.0, g=math.pi, tau_dist=FixedTau(1.0))
    stats = point_statistics(25, 40)
    assert linewidth_scully(p, stats) == pytest.approx(9.798696740969286, rel=1e-12)


def test_scully_small_angle_limit():
    p = MaserParams(kappa=1.0, n_th=0.2, r=100.0, g=1e-9, tau_dist=FixedTau(1.0))
    stats = point_statistics(25, 40)
    assert linewidth_scully(p, stats) == pytest.approx((1 + 0.4) / 100.0, rel=1e-6)


def test_scully_requires_fixed_tau(laser_params):
    p = laser_params(1.0)
    with pytest.raises(ValueError):
        linewidth_scully(p, steady_state(p))


def test_scully_and_mcgowan_practically_coincide(maser_params):
    """The two classic approximations track each other above threshold
    away from the trapping windows (this, not agreement with the exact
    route, is what the scan data support)."""
    for theta in (1.4, 1.7, 2.5, 3.0, 3.5):
        p = maser_params(theta)
        stats = steady_state(p)
        d14 = linewidth_scully(p, stats)
        d15 = linewidth_mcgowan(p, stats)
        assert abs(d14 - d15) / d15 < 0.07


def test_scully_and_mcgowan_split_far_below_threshold(maser_params):
    # far below threshold the two approximations separate widely
    # (oracle: 2.32 vs 0.85 at theta = 0.1 pi)
    p = maser_params(0.1)
    stats = steady_state(p)
    d14 = linewidth_scully(p, stats)
    d15 = linewidth_mcgowan(p, stats)
    assert abs(d14 - d15) / d15 > 0.5


def test_mcgowan_matches_dominant_decay_rate(maser_params):
    """Away from transitions the multi-eigenvalue formula approximates
    the dominant decay rate of the coherence sector to a few percent."""
    from maserline import spectral_decomposition

    for theta in (2.7, 3.0, 3.3):
        p = maser_params(theta)
        stats = steady_state(p)
        gen = build_sideband_generator(p, stats.N)
        dec = spectral_decomposition(gen, initial_sideband(stats))
        dominant = dec.mu.real[int(np.argmax(np.abs(dec.weights)))]
        assert abs(linewidth_mcgowan(p, stats) - dominant) / dominant < 0.04


def test_mcgowan_thermal_state_value(thermal_params):
    # finite value on a pure thermal state, pinned by direct evaluation
    p = thermal_params(0.1)
    stats = steady_state(p)
    w = mcgowan_weights(p, stats.N)
    expected = float(stats.p @ w) / stats.mean
    assert linewidth_mcgowan(p, stats) == pytest.approx(expected, rel=1e-14)
    assert 0.0 < expected < 10.0


def test_inverse_square_agreement_of_exact_and_mcgowan():
    """Synthetic narrow statistics in the fixed-Rabi-phase regime: the
    exact and multi-eigenvalue routes converge as 1/n0^2 once the O(1)
    and O(1/n) terms are balanced away (n_th = 1/2, tuned rate)."""
    u0 = 1.0
    rate = 1.0 / (2.0 * (u0 * math.sin(2 * u0) + math.sin(u0) ** 2))
    rel = []
    for n0 in (100, 1000, 10000):
        p = MaserParams(kappa=1.0, n_th=0.5, r=rate, g=u0 / math.sqrt(n0), tau_dist=FixedTau(1.0))
        stats = point_statistics(n0)
        d13 = linewidth_components(p, stats).total
        d15 = linewidth_mcgowan(p, stats)
        rel.append(abs(d13 - d15) / d13)
    exponent = -np.polyfit(np.log10([100.0, 1000.0, 10000.0]), np.log10(rel), 1)[0]
    assert exponent == pytest.approx(2.0, abs=0.3)


def test_exp_closed_summand_at_zero():
    gb2 = 0.09
    n = 0.0
    numer = 1.0 + gb2 * 2.0 + gb2 * gb2
    denom = (1.0 + 4.0 * gb2) * (1.0 + 2.0 * gb2 + gb2 * gb2)
    assert numer / denom == pytest.approx(1.0 / (1.0 + 4.0 * gb2), rel=1e-14)


def test_exp_closed_weak_pump_limit(laser_params):
    # the summand tends to 1 for g_bar -> 0, so D -> kappa in the
    # weak-pump limit (D <n> = 2 theta_bar^2 <summand> and <n> -> 2 theta_bar^2)
    p = laser_params(0.01, g_bar=0.01)
    stats = steady_state(p)
    assert linewidth_exp_closed(p, stats) == pytest.approx(1.0, rel=1e-3)


def test_exp_closed_matches_quadrature_averaged_route(laser_params):
    p = laser_params(2.0)
    stats = steady_state(p)
    d17 = linewidth_exp_closed(p, stats)

    def evaluate(family):
        return linewidth_components(p, stats, family).total

    d13 = refine_until_stable(p, evaluate)
    assert abs(d13 - d17) / d17 < 1e-6


def test_exp_closed_preconditions(laser_params, maser_params):
    with pytest.raises(ValueError):
        linewidth_exp_closed(maser_params(2.0), steady_state(maser_params(2.0)))
    p = dataclasses.replace(laser_params(1.0), n_th=0.3)
    stats = steady_state(laser_params(1.0))
    with pytest.raises(ValueError):
        linewidth_exp_closed(p, stats)


def test_exp_scully_zero_pump():
    p = MaserParams(kappa=1.0, n_th=0.1, r=0.0, g=0.3, tau_dist=ExponentialTau(1.0))
    stats = steady_state(p)
    assert linewidth_exp_scully(p, stats) == pytest.approx(1.0 / (4.0 * stats.mean), rel=1e-12)


def test_exp_scully_agreement_above_threshold(laser_params):
    # oracle-pinned: 2% at theta_bar = 2, 0.1% at 3; >20% far below threshold
    for theta_bar in (2.0, 3.0):
        p = laser_params(theta_bar)
        stats = steady_state(p)
        d17 = linewidth_exp_closed(p, stats)
        assert abs(linewidth_exp_scully(p, stats) - d17) / d17 < 0.20
    p = laser_params(0.2)
    stats = steady_state(p)
    d17 = linewidth_exp_closed(p, stats)
    assert abs(linewidth_exp_scully(p, stats) - d17) / d17 > 0.20


# -- Schawlow-Townes ratio -----------------------------------------------------


def test_st_ratio_thermal(thermal_params):
    p = thermal_params(0.1)
    stats = steady_state(p)
    d = linewidth_components(p, stats).total
    ratio, _ = schawlow_townes_ratio(p, stats, d)
    assert ratio == pytest.approx(0.1, rel=1e-12)


def test_st_reference_at_zero_pump():
    p = MaserParams(kappa=1.0, n_th=0.0, r=0.0, g=1.0, tau_dist=FixedTau(1.0))
    stats = point_statistics(3, 8)
    _, reference = schawlow_townes_ratio(p, stats, 1.0)
    assert reference == 0.25


def test_unit_invariance_of_linewidth():
    base = MaserParams(kappa=1.0, n_th=0.05, r=50.0, g=0.4, tau_dist=FixedTau(1.0))
    scaled = MaserParams(kappa=2.0, n_th=0.05, r=100.0, g=0.8, tau_dist=FixedTau(0.5))
    d1 = linewidth_components(base, steady_state(base, 300)).total
    d2 = linewidth_components(scaled, steady_state(scaled, 300)).total
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)
