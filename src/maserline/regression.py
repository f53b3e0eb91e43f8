"""Quantum-regression route: sideband generator, slope, spectrum.

The field correlation function g(t) = <adag(t) a(0)> follows from the
master equation applied to a skew operator P with initial condition
P(0) = a rho_ss.  Because the equation never mixes off-diagonal sectors,
P stays supported on the matrix elements v_n = <n|P|n+1>, and the full
superoperator restricts to a real tridiagonal generator G acting on v:

    dv_n/dt =   [ kappa n_th sqrt(n(n+1)) + r <sin(gt sqrt(n)) sin(gt sqrt(n+1))> ] v_{n-1}
              + [ -kappa (1+n_th)(n+1/2) - kappa n_th (n+3/2)
                  - r + r <cos(gt sqrt(n+1)) cos(gt sqrt(n+2))> ] v_n
              + [ kappa (1+n_th) sqrt((n+1)(n+2)) ] v_{n+1}

(gt is g tau; all tau averages use the shared machinery).  The linewidth
is read off the initial slope, D = -2 g'(0)/g(0), or equivalently from
the weighted mean of the generator's decay rates.  g(t) and the spectrum
are read from the eigen expansion of :func:`spectral_decomposition`, with
no time stepping; where that refuses, the answer is the window below.
S(omega) is evaluated in real arithmetic on per-mode arrays, and so are
the peak and half-maximum searches of the FWHM.

The boundary entries follow the truncated-operator convention (operators
are literal matrices on N+1 levels), so G is exactly the literal
superoperator on N+1 levels restricted to the coherence sector,
including the last row.

The window convention: :meth:`SidebandGenerator.window` restricts G to
the components v_lo..v_{hi-1} and drops both edge couplings, the ones
from v_{lo-1} and from v_hi; the diagonal keeps its full-basis values.
The ``spectrum`` command takes the window of :func:`coherence_window`,
the components with |v0_n| >= 10^-WINDOW_DECADES of the peak plus one on
each side, so the dropped couplings act on amplitudes below 1e-20 of the
peak.  A window's component v_n keeps the weight w_n = sqrt(n+1) of its
Fock level n (``n_lo`` is the level of its first component).

The anticommutator convention: the ``- r`` of the diagonal is
-r/2 (<cos^2 + sin^2> at sqrt(n+1) + the same at sqrt(n+2)), from the
family's ``anticommutator_norm``.  That norm is exactly 1 for node lists
and the closed form, and below 1 for the truncated Laguerre sums of the
uniform approximation, whose jump-operator set is truncated.

The row axis: the records of a block (:func:`maserline.model.block_rates`)
have their generators built at once, as one stacked
:class:`SidebandGenerator`.  Records that differ in g (the rows of a
``scan-theta`` block) take a family with a row axis
(:meth:`TrigAverages.for_params` of the records); records that differ in r (the rows of a
``uniform-convergence`` block) take their rates as a column, beside one
shared family.  :func:`linewidth_from_slope` then reduces each row on its
own slice, with the bits of the one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averages import TrigAverages
from .errors import SpectralError, VacuumStateError
from .model import MaserParams, block_rates
from .steady import PhotonStatistics, _level_range, _on_levels

SUM_RULE_TOL = 1e-10
RESIDUAL_TOL = 1e-8
COND_LIMIT = 1e12
WEIGHT_FLOOR = 1e-14
# decades below the peak |v0_n| at which the spectrum window cuts; at 20 the
# windowed eigen route came within 1.1e-11 of the exact route at r/kappa=1e4
# (6.2e-10 at 16 decades)
WINDOW_DECADES = 20


@dataclass(frozen=True, eq=False)
class SidebandGenerator:
    """Real tridiagonal generator of the first off-diagonal sector.

    ``sub[n]`` couples v_{n-1} into dv_n (sub[0] is zero), ``diag[n]``
    couples v_n, and ``sup[n]`` couples v_{n+1} (sup[N-1] is zero).
    Component n is the Fock coherence v_{n_lo + n}.

    Leading axes stack generators of one size N, one per row of a family
    with a row axis (:func:`build_sideband_generator`).  The three arrays
    index components along their last axis and broadcast against each
    other (``sup`` holds rates only and is shared by the rows), and
    ``apply`` acts on every stacked generator.  ``window`` and the eigen
    route take a single generator.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    N: int
    n_lo: int = 0

    def __post_init__(self):
        for name in ("sub", "diag", "sup"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape[-1:] != (self.N,):
                raise ValueError(f"{name} must have shape (..., {self.N})")

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        out = self.diag * v
        out[..., 1:] += self.sub[..., 1:] * v[..., :-1]
        out[..., :-1] += self.sup[..., :-1] * v[..., 1:]
        return out

    def window(self, lo: int, hi: int) -> "SidebandGenerator":
        """The generator on components lo..hi-1, with the couplings across
        both edges dropped; ``self`` when that is the whole range."""
        if lo == 0 and hi == self.N:
            return self
        if not 0 <= lo < hi <= self.N:
            raise ValueError(f"window [{lo}, {hi}) is not within [0, {self.N})")
        sub, sup = self.sub[lo:hi].copy(), self.sup[lo:hi].copy()
        sub[0] = sup[-1] = 0.0
        return SidebandGenerator(sub, self.diag[lo:hi], sup, hi - lo, self.n_lo + lo)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Decay rates mu_j = -2 eigenvalue and weights g_j of the expansion
    g(t) = sum_j g_j exp(-mu_j t / 2), with sum_j g_j = <n>.  Every mode
    decays: Re mu_j <= 0 is a :class:`SpectralError`."""

    mu: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.mu.real <= 0.0):
            raise SpectralError(f"non-decaying mode (min Re mu = {self.mu.real.min():.3g}); g(t) is undefined")

    @property
    def linewidth(self) -> float:
        """Weighted arithmetic mean of the decay rates; equals the slope D."""
        return float(np.real(self.weights @ self.mu) / np.real(self.weights.sum()))


def coherence_weights(N: int, n_lo: int = 0) -> np.ndarray:
    """The vector w with g(t) = w . v(t): w_n = sqrt(n+1) for n = n_lo..n_lo+N-1."""
    return np.sqrt(np.arange(n_lo + 1.0, n_lo + N + 1.0))


def coherence_window(v0: np.ndarray) -> tuple[int, int]:
    """Components [lo, hi) of v0 where |v0_n| >= 10^-WINDOW_DECADES of the
    peak, widened by one component on each side."""
    mag = np.abs(np.asarray(v0, dtype=float))
    inside = np.flatnonzero(mag >= 10.0**-WINDOW_DECADES * mag.max())
    return max(int(inside[0]) - 1, 0), min(int(inside[-1]) + 2, mag.size)


def build_sideband_generator(
    params: MaserParams,
    N: int,
    averages: TrigAverages | None = None,
    levels: tuple[int, int] | None = None,
) -> SidebandGenerator:
    """Generator of the coherence sector on v_0..v_{N-1} (N+1 Fock levels).

    A family with a row axis, or a block's records that differ in r, gives
    a stacked generator, ``sub`` and ``diag`` of shape (rows, N): row i at
    the rates of record i (or of the one record) and the Rabi angles of the
    family's row i, its last-row correction included.

    ``levels`` = (lo, hi), a range of the Fock levels 0..N, builds only the
    components whose row reads a level in it: component n reads v_{n-1},
    v_n and v_{n+1}, that is p_n, p_{n+1} and p_{n+2} of v0 = a rho, so
    the components [lo - 2, hi) within [0, N).  The arrays keep their
    shape, with exact zeros in every other component, and each built
    component has the bits of the whole build; the last-row correction is
    added when the range reaches component N - 1."""
    if N < 2:
        raise ValueError(f"the sideband sector needs at least 2 components, got {N}")
    if averages is None:
        averages = TrigAverages.for_params(params)
    kappa, n_th, r = block_rates(params, averages)
    lo, hi = _level_range(levels, N + 1)
    components = max(lo - 2, 0), min(hi, N)  # whose rows read those levels
    n = np.arange(*components, dtype=float)
    s = np.sqrt(n)
    s1 = np.sqrt(n + 1.0)
    s2 = np.sqrt(n + 2.0)
    sub = _on_levels(np.add, kappa * n_th * s * s1, r * averages.sin_sin(s, s1), components, N)
    diag = _on_levels(
        np.add,
        -kappa * (1.0 + n_th) * (n + 0.5)
        - kappa * n_th * (n + 1.5)
        - 0.5 * r * (averages.anticommutator_norm(s1) + averages.anticommutator_norm(s2)),
        r * averages.cos_cos(s1, s2),
        components,
        N,
    )
    sup = _on_levels(np.multiply, kappa * (1.0 + n_th) * s1, s2, components, N)
    if components[1] == N:
        sup[-1] = 0.0
        # truncated-operator convention: the anticommutator halves living on
        # level N+1 are absent from the literal matrices
        # (a column of rows, as the rates are)
        top = np.sqrt(N + 1.0)
        edge = np.asarray(averages.sin_sin(top, top))[..., None]
        diag[..., -1:] += kappa * n_th * (N + 1.0) / 2.0 + 0.5 * r * edge
    return SidebandGenerator(sub, diag, sup, N)


def initial_sideband(stats: PhotonStatistics) -> np.ndarray:
    """v(0) from P(0) = a rho_ss: v_n = sqrt(n+1) p_{n+1}.  A block's
    statistics on one basis size give one row per statistics."""
    if isinstance(stats, PhotonStatistics):
        return coherence_weights(stats.N) * stats.p[1:]
    return coherence_weights(stats[0].N) * np.array([row_stats.p for row_stats in stats])[:, 1:]


def linewidth_from_slope(gen: SidebandGenerator, v0: np.ndarray) -> float:
    """D = -2 (w . G v0) / (w . v0): one generator application, no stepping.

    A stacked generator and v0 of shape (rows, N) give the list of the
    rows' D, each reduced on its own row with the bits of a one-row call."""
    w = coherence_weights(gen.N, gen.n_lo)
    v0 = np.asarray(v0)
    g0 = [float(w @ row) for row in v0.reshape(-1, gen.N)]
    if 0.0 in g0:
        raise VacuumStateError("g(0) = 0: no coherence to decay")
    slopes = [-2.0 * float(w @ row) / norm for row, norm in zip(gen.apply(v0).reshape(-1, gen.N), g0)]
    return slopes[0] if v0.ndim == 1 else slopes


def correlate(decomp: SpectralDecomposition, t_grid) -> np.ndarray:
    """g(t) = Re sum_j g_j exp(-mu_j t / 2) on the given grid, which must be
    ascending and start at 0.  ``decomp`` is the
    :func:`spectral_decomposition` of the generator and v(0)."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be ascending and start at 0")
    mu, weights = decomp.mu, decomp.weights
    if not np.any(mu.imag):  # all modes real: real arithmetic, half the work
        mu, weights = mu.real, weights.real
    return np.real(np.exp(np.outer(-0.5 * t_grid, mu)) @ weights)


def _scaling_exponents(sub: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Log of the diagonal similarity that balances the off-diagonal pair
    magnitudes (the coherence-sector analogue of detailed-balance scaling).

    ell_n - ell_{n-1} = (ln|sup_{n-1}| - ln|sub_n|)/2 where both couplings
    are nonzero, 0 otherwise; the result is centered so its exponential
    stays representable.
    """
    n = sub.size
    steps = np.zeros(n)
    both = (sub[1:] != 0.0) & (sup[:-1] != 0.0)
    steps[1:][both] = 0.5 * (np.log(np.abs(sup[:-1][both])) - np.log(np.abs(sub[1:][both])))
    ell = np.cumsum(steps)
    span = float(ell.max() - ell.min())
    if span > 1300.0:
        raise SpectralError(
            f"coherence amplitudes span e^{span:.0f}; the eigen route cannot "
            "represent this dynamic range in double precision"
        )
    return ell - 0.5 * (ell.max() + ell.min())


def spectral_decomposition(gen: SidebandGenerator, v0: np.ndarray) -> SpectralDecomposition:
    """Eigen-expansion of the correlation function.

    Decay rates are mu_j = -2 lambda_j; weights follow from expanding v0
    in right eigenvectors and projecting through w.  The generator is
    first rescaled by the diagonal similarity that equalizes its
    off-diagonal pairs.  When every sub*sup product is positive the
    rescaled matrix is symmetric tridiagonal and the decomposition is
    orthogonal (perfectly conditioned); otherwise a general balanced
    solve is used, guarded by per-pair residuals and the basis condition
    number (a defective generator is reported, not silently
    approximated).  The sum rule sum_j g_j = <n> is enforced as a
    post-check either way.  Complex eigenvalues of the real generator
    come in conjugate pairs with conjugate weights.
    """
    import scipy.linalg  # imported on use: off the package's import path

    v0 = np.asarray(v0, dtype=float)
    w = coherence_weights(gen.N, gen.n_lo)
    g0 = float(w @ v0)
    if g0 == 0.0:
        raise VacuumStateError("g(0) = 0: no coherence to decompose")
    sub, diag, sup = gen.sub, gen.diag, gen.sup
    ell = _scaling_exponents(sub, sup)
    w_scaled = w * np.exp(-ell)
    with np.errstate(divide="ignore"):
        v0_scaled = np.where(v0 != 0.0, np.sign(v0) * np.exp(ell + np.log(np.abs(v0))), 0.0)
    products = sub[1:] * sup[:-1]

    if products.size and np.all(products > 0.0):
        lam, q = scipy.linalg.eigh_tridiagonal(diag, np.sqrt(products))
        weights = ((w_scaled @ q) * (q.T @ v0_scaled)).astype(complex)
        mu = (-2.0 * lam).astype(complex)
    else:
        # sign-preserving balanced form: |T_sub| = |T_sup| = sqrt|sub*sup|
        t_sub = np.where(sup[:-1] != 0.0, np.sign(sub[1:]) * np.sqrt(np.abs(products)), sub[1:])
        t_sup = np.where(sub[1:] != 0.0, np.sign(sup[:-1]) * np.sqrt(np.abs(products)), sup[:-1])
        t = np.diag(diag) + np.diag(t_sub, -1) + np.diag(t_sup, 1)
        lam, vecs = scipy.linalg.eig(t)
        scale = max(np.linalg.norm(t, np.inf), 1.0)
        residual = np.linalg.norm(t @ vecs - vecs * lam[None, :], axis=0)
        col_norm = np.linalg.norm(vecs, axis=0)
        if np.any(residual > RESIDUAL_TOL * scale * col_norm):
            worst = float(np.max(residual / (scale * col_norm)))
            raise SpectralError(f"eigenpair residual {worst:.2e} exceeds {RESIDUAL_TOL:.0e}")
        cond = np.linalg.cond(vecs)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise SpectralError(
                f"eigenvector basis condition {cond:.2e} exceeds {COND_LIMIT:.0e}; "
                "the generator is defective or nearly so"
            )
        coeffs = np.linalg.solve(vecs, v0_scaled.astype(complex))
        weights = (w_scaled @ vecs) * coeffs
        mu = -2.0 * lam

    total = weights.sum()
    if abs(total - g0) > SUM_RULE_TOL * abs(g0):
        raise SpectralError(
            f"sum rule violated: sum g_j = {complex(total):.15g} vs g(0) = {g0:.15g}"
        )
    order = np.argsort(mu.real, kind="stable")
    return SpectralDecomposition(mu[order], weights[order])


def spectrum_and_fwhm(decomp: SpectralDecomposition, omega_grid) -> tuple[np.ndarray, float]:
    """One-sided spectrum S(w) = sum_j Re[g_j (mu_j/2 - i w)^(-1)] and its
    full width at half maximum (located by bisection on each flank).

    Modes with |g_j| below ``WEIGHT_FLOOR`` of sum_j |g_j| are dropped;
    every mode decays, as the decomposition guarantees.  S is evaluated in
    real arithmetic on per-mode arrays (:func:`_lorentzian_sum`).
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    keep = np.abs(decomp.weights) > WEIGHT_FLOOR * np.sum(np.abs(decomp.weights))
    mu = decomp.mu[keep]
    value = _lorentzian_sum(mu, decomp.weights[keep])

    def scalar(omega):
        return float(value(omega))

    spectrum = value(omega_grid[:, None])

    # refine the peak around the best grid point, then bisect each flank
    i = int(np.argmax(spectrum))
    lo = omega_grid[max(i - 1, 0)]
    hi = omega_grid[min(i + 1, omega_grid.size - 1)]
    peak_omega, peak = _golden_max(scalar, lo, hi)
    half = peak / 2.0
    step = max((omega_grid[-1] - omega_grid[0]) / max(omega_grid.size - 1, 1), np.min(mu.real) / 8.0)
    left = _half_crossing(scalar, peak_omega, -step, half)
    right = _half_crossing(scalar, peak_omega, step, half)
    return spectrum, right - left


def _lorentzian_sum(mu: np.ndarray, g: np.ndarray):
    """S as a function of omega (a float, or a column omega[:, None] for a
    grid): per mode, with a = mu/2 and d = a_i - omega,

        Re[g / (a - i omega)] = (g_r a_r + g_i d) / (a_r^2 + d^2),

    summed over the modes on the last axis (``np.add.reduce``: ``np.sum``
    costs as much again per scalar call)."""
    a_r = 0.5 * mu.real
    a_r2 = a_r * a_r
    ga_r = g.real * a_r
    if not (np.any(mu.imag) or np.any(g.imag)):  # all modes real: d^2 = omega^2, no g_i term
        return lambda omega: np.add.reduce(ga_r / (a_r2 + omega * omega), axis=-1)
    a_i, g_i = 0.5 * mu.imag, g.imag

    def value(omega):
        d = a_i - omega
        return np.add.reduce((ga_r + g_i * d) / (a_r2 + d * d), axis=-1)

    return value


def _golden_max(f, lo, hi, iters=80):
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _half_crossing(f, start, step, half, max_doublings=200):
    """March from the peak until below half level, then bisect until the
    bracket stops shrinking (at most 100 halvings)."""
    inner = start
    outer = start + step
    for _ in range(max_doublings):
        if f(outer) < half:
            break
        inner = outer
        step *= 2.0
        outer += step
    else:
        raise SpectralError("could not bracket the half-maximum crossing")
    for _ in range(100):
        mid = 0.5 * (inner + outer)
        if not min(inner, outer) < mid < max(inner, outer):
            # adjacent doubles: f(inner) >= half > f(outer), so further
            # steps would reassign an end to itself
            break
        if f(mid) >= half:
            inner = mid
        else:
            outer = mid
    return 0.5 * (inner + outer)

