"""Sideband generator, sector closure, slope/eigen routes, spectrum."""

import dataclasses
import math

import numpy as np
import pytest

from maserline import (
    ExponentialTau,
    FixedTau,
    MaserParams,
    SidebandGenerator,
    SpectralDecomposition,
    SpectralError,
    TrigAverages,
    VacuumStateError,
    build_sideband_generator,
    correlate,
    initial_sideband,
    linewidth_components,
    linewidth_from_slope,
    quadrature_nodes,
    spectral_decomposition,
    spectrum_and_fwhm,
    steady_state,
)
from maserline import regression
from maserline.linewidth import jump_operator_matrices
from maserline.regression import coherence_weights, coherence_window
from oracle import DenseLindblad, embed_sideband, extract_sideband, generator_matrix, offsector_mass


def dense_for(params, dim):
    return DenseLindblad(jump_operator_matrices(params, dim))


# -- generator construction ---------------------------------------------------


@pytest.mark.parametrize(
    "params",
    [
        MaserParams(1.0, 0.1, 50.0, 0.35, FixedTau(1.0)),
        MaserParams(1.3, 0.0, 120.0, 0.3, FixedTau(0.8)),
        MaserParams(1.0, 0.05, 30.0, 0.3, quadrature_nodes(ExponentialTau(1.0), 24)),
    ],
)
def test_generator_matches_single_dense_application(params):
    """A vector embedded on the coherence sector, pushed once through the
    literal dense superoperator, must reproduce G v on that sector and
    leave every other sector exactly zero."""
    rng = np.random.default_rng(5)
    N = 40
    gen = build_sideband_generator(params, N)
    dense = dense_for(params, N + 1)
    for _ in range(3):
        v = rng.standard_normal(N)
        dP = dense.apply(embed_sideband(v, N + 1))
        np.testing.assert_allclose(extract_sideband(dP), gen.apply(v), rtol=0, atol=1e-12 * np.max(np.abs(v)) * 100)
        assert offsector_mass(dP) == 0.0


def test_generator_rejects_tiny_sector():
    with pytest.raises(ValueError):
        build_sideband_generator(MaserParams(1.0, 0.0, 1.0, 0.3, FixedTau(1.0)), 1)


def test_pure_damping_left_eigenvector_identity():
    """r = 0, n_th = 0: w is exactly a left eigenvector, so the coherence
    decays as exp(-kappa t / 2) regardless of the initial vector."""
    p = MaserParams(kappa=1.0, n_th=0.0, r=1e-300, g=1.0, tau_dist=FixedTau(1.0))
    p = dataclasses.replace(p, r=0.0)
    N = 30
    gen = build_sideband_generator(p, N)
    w = coherence_weights(N)
    np.testing.assert_allclose(generator_matrix(gen).T @ w, -0.5 * w, rtol=0, atol=1e-13)


def test_thermal_left_eigenvector_identity_interior():
    # with n_th > 0 the identity holds exactly on all interior columns;
    # the last column carries the truncation-edge terms
    p = MaserParams(kappa=1.0, n_th=0.3, r=0.0, g=1.0, tau_dist=FixedTau(1.0))
    N = 40
    gen = build_sideband_generator(p, N)
    w = coherence_weights(N)
    lhs = generator_matrix(gen).T @ w
    np.testing.assert_allclose(lhs[: N - 1], -0.5 * w[: N - 1], rtol=0, atol=1e-12)


# -- coherence window -------------------------------------------------------------


def test_window_drops_edge_couplings_and_keeps_fock_levels(maser_params):
    p = maser_params(2.5, r=200.0)
    gen = build_sideband_generator(p, 300)
    sub = gen.window(40, 90)
    assert (sub.N, sub.n_lo) == (50, 40)
    assert sub.sub[0] == 0.0 and sub.sup[-1] == 0.0
    np.testing.assert_array_equal(sub.sub[1:], gen.sub[41:90])
    np.testing.assert_array_equal(sub.diag, gen.diag[40:90])
    np.testing.assert_array_equal(sub.sup[:-1], gen.sup[40:89])
    # the interior rows are those of the full generator
    v = np.zeros(gen.N)
    v[40:90] = np.random.default_rng(3).standard_normal(50)
    np.testing.assert_array_equal(sub.apply(v[40:90])[1:-1], gen.apply(v)[41:89])
    # a window of a window counts levels from the full basis
    assert sub.window(10, 20).n_lo == 50
    np.testing.assert_array_equal(coherence_weights(50, 40), coherence_weights(90)[40:])
    assert gen.window(0, gen.N) is gen
    for lo, hi in ((-1, 10), (5, 5), (0, gen.N + 1)):
        with pytest.raises(ValueError):
            gen.window(lo, hi)


def test_coherence_window_edges():
    v0 = np.array([0.0, 1e-30, 1e-20, 0.5, 1.0, 1e-19, 1e-21, 0.0, 0.0])
    assert coherence_window(v0) == (1, 7)
    assert coherence_window(np.array([1.0, 0.3, 1e-25])) == (0, 3)


def test_windowed_routes_match_the_full_basis(maser_params):
    """The slope, the eigen route and g(t) on the window read the Fock
    weights of their levels and agree with the full basis."""
    p = maser_params(2.5, r=200.0, n_th=0.1)
    stats = steady_state(p)
    gen = build_sideband_generator(p, stats.N)
    v0 = initial_sideband(stats)
    lo, hi = coherence_window(v0)
    assert lo > 0 and hi < gen.N  # the window cuts on both sides
    win, v0_win = gen.window(lo, hi), v0[lo:hi]
    full, part = spectral_decomposition(gen, v0), spectral_decomposition(win, v0_win)
    assert part.weights.sum().real == pytest.approx(full.weights.sum().real, rel=1e-13)
    assert part.linewidth == pytest.approx(full.linewidth, rel=1e-10)
    assert linewidth_from_slope(win, v0_win) == pytest.approx(linewidth_from_slope(gen, v0), rel=1e-10)
    t = np.linspace(0.0, 8.0 / full.linewidth, 33)
    np.testing.assert_allclose(correlate(part, t), correlate(full, t), rtol=1e-10)


# -- sector closure -------------------------------------------------------------


def test_sector_closure_under_dense_evolution(maser_params):
    """The master equation never transfers weight between off-diagonal
    sectors: evolving P(0) = a rho for random diagonal rho keeps all
    other sectors numerically silent."""
    rng = np.random.default_rng(17)
    p = maser_params(2.3)
    N = 40
    dense = dense_for(p, N + 1)
    a = np.zeros((N + 1, N + 1))
    idx = np.arange(N)
    a[idx, idx + 1] = np.sqrt(idx + 1.0)
    for _ in range(3):
        diag = rng.random(N + 1)
        diag /= diag.sum()
        P0 = a @ np.diag(diag)
        states = dense.evolve(P0, np.linspace(0.0, 5.0, 6))
        for P in states:
            assert offsector_mass(P) < 1e-12


# -- initial condition and slope ---------------------------------------------


def test_initial_sideband_values(thermal_params):
    p = thermal_params(1.0)
    stats = steady_state(p)
    v0 = initial_sideband(stats)
    n = np.arange(stats.N)
    np.testing.assert_allclose(v0, np.sqrt(n + 1.0) * 0.5 ** (n + 2.0), rtol=1e-12)
    assert float(coherence_weights(stats.N) @ v0) == pytest.approx(stats.mean, rel=1e-12)


def test_initial_sideband_vacuum():
    p = MaserParams(1.0, 0.0, 0.0, 1.0, FixedTau(1.0))
    stats = steady_state(p, 4)
    assert np.all(initial_sideband(stats) == 0.0)


def test_slope_thermal_and_damping(thermal_params):
    for n_th in (0.1, 1.0):
        p = thermal_params(n_th)
        stats = steady_state(p)
        gen = build_sideband_generator(p, stats.N)
        assert linewidth_from_slope(gen, initial_sideband(stats)) == pytest.approx(1.0, rel=1e-12)


def test_slope_equals_exact_route(maser_params):
    p = maser_params(2.0)
    stats = steady_state(p)
    gen = build_sideband_generator(p, stats.N)
    d13 = linewidth_components(p, stats).total
    assert linewidth_from_slope(gen, initial_sideband(stats)) == pytest.approx(d13, rel=1e-8)


def test_slope_vacuum_raises():
    p = MaserParams(1.0, 0.0, 0.0, 1.0, FixedTau(1.0))
    stats = steady_state(p, 4)
    gen = build_sideband_generator(p, 4)
    with pytest.raises(VacuumStateError):
        linewidth_from_slope(gen, initial_sideband(stats))


def test_block_generator_and_slope_rows_are_the_one_row_results(row_block):
    """A family with one row per record builds one stacked generator: its
    bands are (rows, N) (sup, rates only, is shared), row i holds the bits
    of record i's generator, last-row correction included, and the slope
    of each row is the one-row slope, bit for bit."""
    rows, N, block = row_block
    stats = [steady_state(params, N) for params in rows]
    gen = build_sideband_generator(rows[0], N, block)
    assert gen.sub.shape == gen.diag.shape == (len(rows), N)
    slopes = linewidth_from_slope(gen, np.array([initial_sideband(s) for s in stats]))
    for i, (params, row_stats) in enumerate(zip(rows, stats)):
        one = build_sideband_generator(params, N)
        assert np.array_equal(gen.sub[i], one.sub)
        assert np.array_equal(gen.diag[i], one.diag)
        assert np.array_equal(np.broadcast_to(gen.sup, gen.diag.shape)[i], one.sup)
        assert slopes[i] == linewidth_from_slope(one, initial_sideband(row_stats))
    assert len(slopes) == len(rows)


def test_stacked_generator_applies_per_row(maser_params):
    rows = [maser_params(theta) for theta in (0.7, 2.5)]
    block = TrigAverages.for_params(rows)
    gen = build_sideband_generator(rows[0], 60, block)
    v = np.random.default_rng(3).standard_normal((2, 60))
    for i, params in enumerate(rows):
        one = build_sideband_generator(params, 60)
        np.testing.assert_array_equal(gen.apply(v)[i], one.apply(v[i]))
    with pytest.raises(VacuumStateError):
        linewidth_from_slope(gen, np.vstack([v[0], np.zeros(60)]))
    with pytest.raises(ValueError, match="shape"):
        SidebandGenerator(np.zeros((2, 5)), np.zeros((2, 5)), np.zeros(6), 5)


# -- time evolution -------------------------------------------------------------


def test_correlation_decay_pure_damping():
    """A hand-made, non-steady profile under pure damping decays as
    exp(-kappa t / 2), read off the dense master equation stepped in time.
    Its eigenvector basis is nearly defective, so the eigen route refuses
    it with a typed error."""
    p = MaserParams(kappa=1.0, n_th=0.0, r=0.0, g=1.0, tau_dist=FixedTau(1.0))
    N = 30
    gen = build_sideband_generator(p, N)
    n = np.arange(N)
    v0 = np.sqrt(n + 1.0) * 0.4**n  # any decaying coherence profile
    with pytest.raises(SpectralError, match="condition"):
        spectral_decomposition(gen, v0)
    t = np.linspace(0.0, 5.0, 26)
    states = dense_for(p, N + 1).evolve(embed_sideband(v0, N + 1), t)
    g_t = np.array([coherence_weights(N) @ extract_sideband(P) for P in states])
    g0 = float(coherence_weights(N) @ v0)
    np.testing.assert_allclose(g_t / g0, np.exp(-0.5 * t), rtol=0, atol=1e-9)


def test_correlation_asymptotic_slope_matches_slowest_mode(maser_params):
    p = maser_params(1.5)
    stats = steady_state(p)
    gen = build_sideband_generator(p, stats.N)
    v0 = initial_sideband(stats)
    dec = spectral_decomposition(gen, v0)
    keep = np.abs(dec.weights) > 1e-6 * stats.mean
    mu_min = float(dec.mu.real[keep].min())
    t1, t2 = 6.0 / mu_min, 9.0 / mu_min
    g_t = correlate(dec, np.array([0.0, t1, t2]))
    slope = (math.log(g_t[2]) - math.log(g_t[1])) / (t2 - t1)
    assert slope == pytest.approx(-mu_min / 2.0, rel=1e-6)


def test_correlate_validates_grid():
    dec = SpectralDecomposition(np.array([1.0 + 0j]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        correlate(dec, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        correlate(dec, np.array([0.0, 1.0, 0.5]))


@pytest.mark.parametrize(
    "params, N, complex_modes",
    [
        (MaserParams(1.0, 0.1, 10.0, 1.0 * math.pi / math.sqrt(10.0), FixedTau(1.0)), 40, False),
        (MaserParams(1.0, 0.0, 20.0, 3.0 * math.pi / math.sqrt(20.0), FixedTau(1.0)), 60, True),
    ],
)
def test_eigen_correlation_matches_dense_evolution(params, N, complex_modes):
    """The eigen expansion of g(t) against w . v(t) read off the literal
    dense master equation stepped in time, on both eigen branches."""
    stats = steady_state(params, N)
    gen = build_sideband_generator(params, N)
    v0 = initial_sideband(stats)
    dec = spectral_decomposition(gen, v0)
    assert np.any(np.abs(dec.mu.imag) > 1e-8) == complex_modes
    t = np.linspace(0.0, 8.0 / linewidth_from_slope(gen, v0), 9)
    g_t = correlate(dec, t)
    states = dense_for(params, N + 1).evolve(embed_sideband(v0, N + 1), t)
    oracle = np.array([coherence_weights(N) @ extract_sideband(P) for P in states])
    np.testing.assert_allclose(g_t, oracle, rtol=1e-8, atol=0)


# -- spectral decomposition ------------------------------------------------------


def test_pure_damping_spectrum_single_dominant_pair():
    p = MaserParams(kappa=1.0, n_th=0.0, r=0.0, g=1.0, tau_dist=FixedTau(1.0))
    N = 16
    gen = build_sideband_generator(p, N)
    n = np.arange(N)
    v0 = np.sqrt(n + 1.0) * 0.3**n
    dec = spectral_decomposition(gen, v0)
    g0 = float(coherence_weights(N) @ v0)
    # only the mu = kappa mode carries weight; D equals kappa exactly
    dominant = int(np.argmax(np.abs(dec.weights)))
    assert dec.mu[dominant].real == pytest.approx(1.0, rel=1e-12)
    assert abs(dec.weights[dominant] - g0) < 1e-10 * g0
    assert dec.linewidth == pytest.approx(1.0, rel=1e-10)


def test_eigen_mean_equals_slope(maser_params):
    for theta in (0.8, 1.9, 3.1):
        p = maser_params(theta)
        stats = steady_state(p)
        gen = build_sideband_generator(p, stats.N)
        v0 = initial_sideband(stats)
        d_slope = linewidth_from_slope(gen, v0)
        dec = spectral_decomposition(gen, v0)
        assert dec.linewidth == pytest.approx(d_slope, rel=1e-8)
        assert complex(dec.weights.sum()).real == pytest.approx(stats.mean, rel=1e-10)
        assert abs(complex(dec.weights.sum()).imag) < 1e-10 * stats.mean


def test_decay_rates_are_dissipative(maser_params, laser_params):
    for p in (maser_params(2.4), maser_params(3.0, n_th=0.0), laser_params(1.5)):
        stats = steady_state(p)
        gen = build_sideband_generator(p, stats.N)
        dec = spectral_decomposition(gen, initial_sideband(stats))
        assert np.all(dec.mu.real >= -1e-10 * p.kappa)


def test_complex_rates_come_in_conjugate_pairs(maser_params):
    # n_th = 0 with strong pumping gives genuinely complex sector modes
    p = maser_params(3.0, n_th=0.0)
    stats = steady_state(p)
    gen = build_sideband_generator(p, stats.N)
    dec = spectral_decomposition(gen, initial_sideband(stats))
    cplx = np.abs(dec.mu.imag) > 1e-8
    assert np.any(cplx), "expected complex modes at these parameters"
    mus = dec.mu[cplx]
    wts = dec.weights[cplx]
    order = np.lexsort((mus.imag, mus.real))
    mus, wts = mus[order], wts[order]
    for j in range(0, len(mus), 2):
        assert mus[j + 1] == pytest.approx(np.conj(mus[j]), rel=1e-9)
        assert wts[j + 1] == pytest.approx(np.conj(wts[j]), rel=1e-6, abs=1e-12)


def test_two_significant_weights_near_trapping_transition():
    # theta pinned by scanning: relative weights 0.60 and 0.40 at 2.13 pi
    p = MaserParams(1.0, 0.1, 200.0, 2.13 * math.pi / math.sqrt(200.0), FixedTau(1.0))
    stats = steady_state(p)
    gen = build_sideband_generator(p, stats.N)
    dec = spectral_decomposition(gen, initial_sideband(stats))
    rel = np.abs(dec.weights.real) / stats.mean
    assert np.sum(rel > 0.1) >= 2


def test_defective_generator_reported():
    gen = SidebandGenerator(
        sub=np.array([0.0, 0.0]),
        diag=np.array([-1.0, -1.0]),
        sup=np.array([1.0, 0.0]),
        N=2,
    )
    with pytest.raises(SpectralError):
        spectral_decomposition(gen, np.array([1.0, 1.0]))


def test_growing_mode_reported():
    """A growing mode on the symmetric branch is a typed refusal, not a
    decomposition whose g(t) diverges."""
    gen = SidebandGenerator(
        sub=np.array([0.0, 0.1, 0.1, 0.1, 0.1]),
        diag=np.array([-1.0, -1.0, 0.5, -1.0, -1.0]),
        sup=np.array([0.1, 0.1, 0.1, 0.1, 0.0]),
        N=5,
    )
    with pytest.raises(SpectralError, match="non-decaying"):
        spectral_decomposition(gen, np.ones(5))


def test_shift_identity_on_matrices():
    """adag F(phi) = F(sqrt(nhat)) adag holds entrywise exactly: both
    sides carry sqrt(n+1) F(sqrt(n+1)) at (n+1, n)."""
    rng = np.random.default_rng(23)
    N = 30
    dim = N + 1
    adag = np.zeros((dim, dim))
    idx = np.arange(dim - 1)
    adag[idx + 1, idx] = np.sqrt(idx + 1.0)
    phi = np.sqrt(np.arange(1.0, dim + 1.0))
    sqrt_n = np.sqrt(np.arange(0.0, dim))
    for _ in range(5):
        c = rng.standard_normal(4)

        def F(x):
            return c[0] * np.sin(c[1] * x) + c[2] * np.cos(x) + c[3] * x**2

        left = adag @ np.diag(F(phi))
        right = np.diag(F(sqrt_n)) @ adag
        np.testing.assert_array_equal(left, right)


# -- spectrum and FWHM ------------------------------------------------------------


def test_single_lorentzian_fwhm():
    dec = SpectralDecomposition(np.array([0.7 + 0j]), np.array([2.5 + 0j]))
    spectrum, fwhm = spectrum_and_fwhm(dec, np.linspace(-2.0, 2.0, 401))
    assert fwhm == pytest.approx(0.7, rel=1e-10)
    assert spectrum[200] == pytest.approx(2.5 / 0.35, rel=1e-12)  # peak 2 w / mu


def test_two_equal_weight_modes_fwhm():
    """Frozen from the quadratic half-maximum condition solved by hand:
    FWHM = 2 sqrt((-9/4 + sqrt(145)/4)/2) ~ 1.2332, strictly between the
    narrow width 1 and the arithmetic mean 2.5 (and far from the
    geometric mean 2)."""
    dec = SpectralDecomposition(np.array([1.0 + 0j, 4.0 + 0j]), np.array([1.0 + 0j, 1.0 + 0j]))
    _, fwhm = spectrum_and_fwhm(dec, np.linspace(-3.0, 3.0, 601))
    assert fwhm == pytest.approx(1.2332061017511013, rel=1e-9)
    assert 1.0 < fwhm < 2.5


def test_non_decaying_mode_rejected():
    with pytest.raises(SpectralError):
        dec = SpectralDecomposition(np.array([-0.1 + 0j, 1.0 + 0j]), np.array([1.0 + 0j, 1.0 + 0j]))
        spectrum_and_fwhm(dec, np.linspace(-2.0, 2.0, 101))


def test_micromaser_fwhm_close_to_linewidth(maser_params):
    # oracle-pinned: ~14% above the first trapping transition
    for theta in (2.5, 3.0):
        p = maser_params(theta)
        stats = steady_state(p)
        gen = build_sideband_generator(p, stats.N)
        dec = spectral_decomposition(gen, initial_sideband(stats))
        d = dec.linewidth
        _, fwhm = spectrum_and_fwhm(dec, np.linspace(-4.0 * d, 4.0 * d, 801))
        assert abs(fwhm - d) / d < 0.15


def _half_crossing_100_steps(f, start, step, half, max_doublings=200):
    """The bisection with a fixed 100 halvings, as a reference."""
    inner = start
    outer = start + step
    for _ in range(max_doublings):
        if f(outer) < half:
            break
        inner = outer
        step *= 2.0
        outer += step
    for _ in range(100):
        mid = 0.5 * (inner + outer)
        if f(mid) >= half:
            inner = mid
        else:
            outer = mid
    return 0.5 * (inner + outer)


@pytest.mark.parametrize("theta, r, n_th", [(2.5, 50.0, 0.01), (2.1, 200.0, 0.1), (1.2, 200.0, 0.5), (3.3, 500.0, 1.0)])
def test_half_crossing_stops_when_the_bracket_stops_shrinking(monkeypatch, maser_params, theta, r, n_th):
    p = maser_params(theta, r=r, n_th=n_th)
    stats = steady_state(p)
    dec = spectral_decomposition(build_sideband_generator(p, stats.N), initial_sideband(stats))
    omega = np.linspace(-4.0 * dec.linewidth, 4.0 * dec.linewidth, 513)
    evaluations = 0
    stopping = regression._half_crossing

    def counted(f, *args):
        def f_counted(x):
            nonlocal evaluations
            evaluations += 1
            return f(x)

        return stopping(f_counted, *args)

    monkeypatch.setattr(regression, "_half_crossing", counted)
    spectrum, fwhm = spectrum_and_fwhm(dec, omega)
    monkeypatch.setattr(regression, "_half_crossing", _half_crossing_100_steps)
    spectrum_ref, fwhm_ref = spectrum_and_fwhm(dec, omega)
    assert fwhm == fwhm_ref  # bit for bit
    np.testing.assert_array_equal(spectrum, spectrum_ref)
    if r == 200.0:
        assert evaluations <= 120  # both flanks; the 100-step loop takes over 200


def _complex_spectrum_and_fwhm(decomp, omega_grid):
    """The spectrum and FWHM from the complex formula
    S(w) = Re g . (mu/2 - i w)^(-1), a matmul over modes per evaluation,
    with the library's searches: the reference for the real-arithmetic one."""
    keep = np.abs(decomp.weights) > regression.WEIGHT_FLOOR * np.sum(np.abs(decomp.weights))
    mu, g = decomp.mu[keep], decomp.weights[keep]

    def value(omega):
        return np.real(g @ (1.0 / (mu[:, None] / 2.0 - 1j * np.atleast_1d(omega)[None, :])))

    def scalar(omega):
        return float(value(omega)[0])

    spectrum = value(omega_grid)
    i = int(np.argmax(spectrum))
    lo, hi = omega_grid[max(i - 1, 0)], omega_grid[min(i + 1, omega_grid.size - 1)]
    peak_omega, peak = regression._golden_max(scalar, lo, hi)
    step = max((omega_grid[-1] - omega_grid[0]) / (omega_grid.size - 1), np.min(mu.real) / 8.0)
    left = regression._half_crossing(scalar, peak_omega, -step, peak / 2.0)
    right = regression._half_crossing(scalar, peak_omega, step, peak / 2.0)
    return spectrum, right - left


@pytest.mark.parametrize(
    "r, n_th, g_tau, tau_dist, complex_modes",
    [
        (50.0, 0.01, 0.35, FixedTau(1.0), False),
        (200.0, 0.1, 0.4665, FixedTau(1.0), False),
        (50.0, 0.0, 0.3, ExponentialTau(1.0), False),
        (50.0, 0.01, 1.2, FixedTau(1.0), True),
        (50.0, 0.01, 1.35, FixedTau(1.0), True),
    ],
    ids=["fixed_r50", "fixed_r200", "exp_r50", "complex_1.2", "complex_1.35"],
)
def test_real_spectrum_matches_the_complex_formula(r, n_th, g_tau, tau_dist, complex_modes):
    """At the points of the spectrum command (its window and grids), S(w)
    within 1e-13 of the peak and the FWHM within 1e-13 relative of the
    complex formula, on real and complex modes."""
    p = MaserParams(1.0, n_th, r, g_tau, tau_dist)
    stats = steady_state(p)
    v0 = initial_sideband(stats)
    lo, hi = coherence_window(v0)
    dec = spectral_decomposition(build_sideband_generator(p, stats.N).window(lo, hi), v0[lo:hi])
    keep = np.abs(dec.weights) > regression.WEIGHT_FLOOR * np.sum(np.abs(dec.weights))
    assert bool(np.any(dec.mu[keep].imag)) == complex_modes
    d = dec.linewidth
    omega = np.linspace(-4.0 * d, 4.0 * d, 513)
    spectrum, fwhm = spectrum_and_fwhm(dec, omega)
    spectrum_ref, fwhm_ref = _complex_spectrum_and_fwhm(dec, omega)
    assert np.max(np.abs(spectrum - spectrum_ref)) <= 1e-13 * spectrum_ref.max()
    assert fwhm == pytest.approx(fwhm_ref, rel=1e-13, abs=0)
