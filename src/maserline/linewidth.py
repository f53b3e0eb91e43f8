"""Linewidth of the maser field by every closed-form route.

All routes express the linewidth D as an average over the steady-state
photon statistics:

* ``linewidth_components`` evaluates the exact trace formula whose pump
  part splits into a cosine (dephasing) and a sine (gain) contribution,

      D <n> = kappa n_th
              + r < [cos(g tau sqrt(n+1)) - cos(g tau sqrt(n))]^2 n >
              + r < [sqrt(n+1) sin(g tau sqrt(n+1)) - sqrt(n) sin(g tau sqrt(n))]^2 >,

  with the tau average taken over the interaction-time distribution.
* ``linewidth_lindblad_trace`` evaluates the generic double-commutator
  trace over the full jump-operator set with literal truncated matrices;
  it must agree with the formula above whenever p is the true steady
  state (detailed balance), which makes it a powerful cross-check.
  Every jump operator, and every product the trace takes, has a single
  nonzero band, so the matrices are held as single-band matrices.  The
  operators of one band offset are stacked, in blocks of bounded size, and
  each product runs once per block at O(N) per operator.
* ``linewidth_scully`` and ``linewidth_mcgowan`` are the classic
  narrow-distribution and multi-eigenvalue approximations.
* ``linewidth_exp_closed`` and ``linewidth_exp_scully`` are the closed
  forms for an exponentially distributed interaction time.

Trigonometric differences are evaluated through product identities
(never as differences of O(1) averages), so the weights stay accurate to
machine precision at photon numbers of 1e4 and beyond.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .averages import TrigAverages, refine_until_stable
from .model import ExponentialTau, FixedTau, MaserParams, block_rates
from .steady import PhotonStatistics, require_excitation


@dataclass(frozen=True)
class LinewidthBreakdown:
    """Total linewidth and its thermal / cosine-dephasing / sine-gain parts.

    All rates are in the units of the input ``kappa``.  The components are
    averages of manifestly non-negative operators, and
    ``total = thermal + cosine + sine`` holds by construction.
    """

    total: float
    thermal: float
    cosine: float
    sine: float
    n_mean: float


def pump_weights(
    params: MaserParams,
    n_max: int,
    averages: TrigAverages | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fock-resolved pump weights (cosine part, sine part) for n = 0..n_max.

    The weights are in units of kappa, normalized so that

        D <n> / kappa = n_th + sum_n p_n (cos_w[n] + sin_w[n]).

    A family with a row axis, or a block's records that differ in r
    (:func:`maserline.model.block_rates`), gives arrays (rows, n_max + 1):
    row i at the rates of record i (or of the one record) and the Rabi
    angles of the family's row i.
    """
    if averages is None:
        averages = TrigAverages.for_params(params)
    kappa, _, r = block_rates(params, averages)
    n_ex = r / kappa
    n = np.arange(n_max + 1, dtype=float)
    cos_sq, sin_sq = averages.squared_differences(n)
    return n_ex * n * cos_sq, n_ex * sin_sq


def mcgowan_weights(
    params: MaserParams,
    n_max: int,
    averages: TrigAverages | None = None,
) -> np.ndarray:
    """Fock-resolved weight of the multi-eigenvalue approximation.

    Normalized like :func:`pump_weights`, and with its row axis:
    D <n> / kappa = sum_n p_n w[n].  Unlike the exact route the damping
    terms sit inside the weight here; they are evaluated with the
    rationalized square-root differences

        n - 1/2 - sqrt(n(n-1)) = 1/4 / (n - 1/2 + sqrt(n(n-1))),
        n + 1/2 - sqrt(n(n+1)) = 1/4 / (n + 1/2 + sqrt(n(n+1))).
    """
    if averages is None:
        averages = TrigAverages.for_params(params)
    kappa, n_th, r = block_rates(params, averages)
    n = np.arange(n_max + 1, dtype=float)
    s = np.sqrt(n)
    s1 = np.sqrt(n + 1.0)
    pump = r / kappa * averages.one_minus_cos_diff(1.0 / (s + s1))
    down = 0.25 / (n - 0.5 + np.sqrt(n * np.maximum(n - 1.0, 0.0)))
    up = 0.25 / (n + 0.5 + s * s1)
    return 2.0 * n * (pump + (1.0 + n_th) * down + n_th * up)


def _by_row(reduce, stats, *weights):
    """``reduce(stats, mean, *weights)`` for one statistics, else the list of
    ``reduce(stats[i], mean_i, *(w[i] for w in weights))`` over a block's
    rows.  Each row is reduced on its own slice, so it keeps the bits of a
    one-row call."""
    if isinstance(stats, PhotonStatistics):
        return reduce(stats, require_excitation(stats), *weights)
    means = [require_excitation(row_stats) for row_stats in stats]
    # records that share every rate and a family without rows give one row of weights
    weights = [np.broadcast_to(w, (len(stats), w.shape[-1])) if isinstance(w, np.ndarray) else w for w in weights]
    return [reduce(*row) for row in zip(stats, means, *weights, strict=True)]


def _basis_size(stats) -> int:
    """N of one statistics, or the N that a block's statistics share."""
    if isinstance(stats, PhotonStatistics):
        return stats.N
    N = stats[0].N
    if any(row_stats.N != N for row_stats in stats):
        raise ValueError(f"a block's statistics must share one basis size, got {[s.N for s in stats]}")
    return N


def _first(params) -> MaserParams:
    """The one record, or the first record of a block."""
    return params if isinstance(params, MaserParams) else params[0]


def linewidth_components(
    params: MaserParams,
    stats: PhotonStatistics,
    averages: TrigAverages | None = None,
) -> LinewidthBreakdown:
    """Exact linewidth with its thermal / dephasing / gain breakdown.

    ``stats`` must be the steady state for ``params`` (caller's
    responsibility; the exactness of this route rests on detailed
    balance).  Raises :class:`VacuumStateError` on a vacuum state.

    ``stats`` may also be a block: a sequence of statistics on one basis
    size, with one row of ``averages`` per statistics
    (:meth:`TrigAverages.stack`), or with ``params`` the block's records
    (:func:`maserline.model.block_rates`).  The weights are built once for
    the block, and the result is the list of the rows' breakdowns.
    """
    cos_w, sin_w = pump_weights(params, _basis_size(stats), averages)
    first = _first(params)  # pump_weights has checked that the records share kappa and n_th
    kappa, n_th = first.kappa, first.n_th

    def breakdown(row_stats, mean, cos_row, sin_row):
        scale = kappa / mean
        thermal = n_th * scale
        cosine = float(row_stats.p @ cos_row) * scale
        sine = float(row_stats.p @ sin_row) * scale
        return LinewidthBreakdown(
            total=thermal + cosine + sine,
            thermal=thermal,
            cosine=cosine,
            sine=sine,
            n_mean=mean,
        )

    return _by_row(breakdown, stats, cos_w, sin_w)


def linewidth_mcgowan(
    params: MaserParams,
    stats: PhotonStatistics,
    averages: TrigAverages | None = None,
) -> float:
    """Multi-eigenvalue approximation, tau-averaged, traced against stats;
    a block gives the list of its rows' values (see
    :func:`linewidth_components`)."""
    w = mcgowan_weights(params, _basis_size(stats), averages)
    kappa = _first(params).kappa

    def traced(row_stats, mean, w_row):
        return float(row_stats.p @ w_row) * kappa / mean

    return _by_row(traced, stats, w)


def linewidth_scully(params: MaserParams, stats: PhotonStatistics) -> float:
    """Narrow-distribution closed formula for a fixed interaction time,

        D = kappa (1 + 2 n_th) / (4 <n>) + 4 r sin^2(g tau / (4 sqrt(<n>))).

    The classic printed form leaves kappa out of the first term, which is
    then dimensionally incomplete; it is restored here.
    """
    if not isinstance(params.tau_dist, FixedTau):
        raise ValueError("linewidth_scully is stated per fixed interaction time")
    mean = require_excitation(stats)
    loss = params.kappa * (1.0 + 2.0 * params.n_th) / (4.0 * mean)
    arg = params.g * params.tau_dist.tau / (4.0 * np.sqrt(mean))
    return loss + 4.0 * params.r * np.sin(arg) ** 2


def _exponential_rows(params, stats, route: str) -> list[MaserParams] | MaserParams:
    """The records of the exponential closed forms, one per statistics of
    a block: checked to share kappa, n_th, g and the exponential tau."""
    block_rates(params)
    if not isinstance(_first(params).tau_dist, ExponentialTau):
        raise ValueError(f"{route} requires an exponential distribution")
    if isinstance(params, MaserParams) and not isinstance(stats, PhotonStatistics):
        return [params] * len(stats)
    return params


def linewidth_exp_closed(params: MaserParams, stats: PhotonStatistics) -> float:
    """Closed form of the exact route for exponential tau at n_th = 0:

        D <n> = 2 theta_bar^2 kappa
                < [1 + gb^2 (3n+2) + gb^4 (n+1)(4n+1)]
                  / ([1 + 4 gb^2 (n+1)] [1 + 2 gb^2 (2n+1) + gb^4]) >

    with gb = g tau_bar.  The pump prefactor 2 theta_bar^2 is required
    for consistency with the slope and trace routes; through the
    detailed-balance recurrence it is equivalent to evaluating the
    summand against p_{n+1} with the first denominator factor dropped.

    A block (records that differ in r, with their statistics on one
    basis size) builds the summand, which depends on gb and N only, once,
    and gives the list of its rows' values, each with the bits of its
    one-row call.
    """
    records = _exponential_rows(params, stats, "linewidth_exp_closed")
    first = _first(params)
    if first.n_th != 0.0:
        raise ValueError("the closed form holds for n_th = 0 only")
    kappa, gb2 = first.kappa, first.g_bar**2
    n = np.arange(_basis_size(stats) + 1, dtype=float)
    numer = 1.0 + gb2 * (3.0 * n + 2.0) + gb2 * gb2 * (n + 1.0) * (4.0 * n + 1.0)
    denom = (1.0 + 4.0 * gb2 * (n + 1.0)) * (1.0 + 2.0 * gb2 * (2.0 * n + 1.0) + gb2 * gb2)
    summand = numer / denom

    def closed(row_stats, mean, record):
        pump = 2.0 * record.theta_bar**2
        return pump * kappa * float(row_stats.p @ summand) / mean

    return _by_row(closed, stats, records)


def linewidth_exp_scully(params: MaserParams, stats: PhotonStatistics) -> float:
    """Above-threshold approximation for exponential tau:
    D = kappa (1 + 2 theta_bar^2) / (4 <n>); a block gives the list of its
    rows' values (see :func:`linewidth_exp_closed`)."""
    records = _exponential_rows(params, stats, "linewidth_exp_scully")

    def approximation(row_stats, mean, record):
        return record.kappa * (1.0 + 2.0 * record.theta_bar**2) / (4.0 * mean)

    return _by_row(approximation, stats, records)


def schawlow_townes_ratio(params: MaserParams, stats: PhotonStatistics, linewidth: float) -> tuple[float, float]:
    """Deviation from the Schawlow-Townes limit, D <n> / kappa, plus the
    quadratic reference curve (theta^2 + 1 + 2 n_th) / 4.

    ``theta`` is the pump parameter of the distribution: sqrt(r/kappa)
    g tau for fixed tau, its tau_bar analogue for the exponential, and
    the mean-tau value for a node list.
    """
    ratio = linewidth * stats.mean / params.kappa
    dist = params.tau_dist
    if isinstance(dist, FixedTau):
        theta = params.theta(dist.tau)
    elif isinstance(dist, ExponentialTau):
        theta = params.theta_bar
    else:
        theta = params.theta(float(dist.weights @ dist.taus))
    reference = (theta**2 + 1.0 + 2.0 * params.n_th) / 4.0
    return ratio, reference


# ---------------------------------------------------------------------------
# Generic jump-operator trace (independent route)
# ---------------------------------------------------------------------------


class _Band:
    """Square matrix with one nonzero band: ``M[i, i + k] = values[i]``.

    ``values`` is indexed by row along its last axis; entries whose column
    ``i + k`` falls outside the matrix are zero.  Leading axes of
    ``values`` stack matrices that share the offset ``k``: products,
    ``.T``, ``-`` and ``.trace()`` act on each stacked matrix, and an
    unstacked operand broadcasts against a stack.  Every operator of the
    jump-operator trace, and every product of them, is of this form (the
    ladder operators sit on offsets +-1, the cosine operators on the
    diagonal), so the trace runs as literal matrix algebra at O(N) per
    product and matrix.
    """

    # numpy scalars and arrays defer to the methods below: ``np.float64 * band``
    # goes straight to ``__rmul__`` instead of through numpy's object path.
    __array_ufunc__ = None

    def __init__(self, k: int, values: np.ndarray):
        self.k = k
        self.values = values

    @property
    def shape(self) -> tuple[int, ...]:
        dim = self.values.shape[-1]
        return self.values.shape[:-1] + (dim, dim)

    @property
    def T(self) -> "_Band":
        return _Band(-self.k, _shifted(self.values, -self.k))

    def __matmul__(self, other):
        if not isinstance(other, _Band):
            return NotImplemented
        return _Band(self.k + other.k, self.values * _shifted(other.values, self.k))

    def __sub__(self, other):
        if not isinstance(other, _Band):
            return NotImplemented
        if other.k != self.k:
            raise ValueError(f"bands at offsets {self.k} and {other.k} do not make one band")
        return _Band(self.k, self.values - other.values)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        return _Band(self.k, scalar * self.values)

    __rmul__ = __mul__

    def trace(self):
        """The trace, one per stacked matrix (a scalar for a single matrix)."""
        if self.k == 0:
            return self.values.sum(axis=-1)
        return np.zeros(self.values.shape[:-1])[()]


def _shifted(values: np.ndarray, k: int) -> np.ndarray:
    """``values[..., i + k]`` at every i, zero where i + k is out of range."""
    out = np.zeros(values.shape, values.dtype)  # np.zeros_like costs twice as much per call
    dim = values.shape[-1]
    if k >= 0:
        out[..., : max(dim - k, 0)] = values[..., k:]
    elif -k < dim:
        out[..., -k:] = values[..., : dim + k]
    return out


# Matrices per stacked block: rows * dim stays near 2^16 entries (512 KiB),
# so the temporaries of a stacked product are bounded whatever the basis
# size and the operator count, and stay in cache.
_BLOCK_ENTRIES = 1 << 16


def _block_rows(dim: int) -> int:
    """Rows of ``dim`` entries in one block: about _BLOCK_ENTRIES / dim."""
    return max(1, _BLOCK_ENTRIES // dim)


def _blocks(items, dim: int):
    """Consecutive slices of ``items`` holding ``_block_rows(dim)`` each."""
    step = _block_rows(dim)
    return (items[start : start + step] for start in range(0, len(items), step))


def _lowering_operator(dim: int) -> _Band:
    values = np.zeros(dim)
    values[:-1] = np.sqrt(np.arange(1.0, dim))
    return _Band(1, values)


def jump_operator_matrices(
    params: MaserParams,
    dim: int,
    averages: TrigAverages | None = None,
) -> list[_Band]:
    """The full jump-operator set as literal dim x dim matrices.

    Two thermal operators plus the pump operators of the family
    ``averages`` (default ``TrigAverages.for_params(params)``): per node
    tau_k with weight dp_k a Hermitian cosine operator sqrt(r dp_k)
    cos(g tau_k phi) and a gain operator sqrt(r dp_k) g tau_k adag
    sinc(g tau_k phi), phi the diagonal sqrt(n+1), or the uniform family's
    Laguerre operators (:meth:`TrigAverages.jump_diagonals`).  The scalar
    freedom of shifting the Hermitian operator by a multiple of the
    identity is fixed to zero; a real shift provably leaves the dissipator
    unchanged.

    Each operator has a single nonzero band (the diagonal or the first
    off-diagonal) and is returned as a single-band matrix that supports
    ``@``, ``-``, scalar ``*``, ``.T`` and ``.trace()`` at O(dim) cost.
    The pump operators are rows of one array: the family's diagonals,
    scaled in place, with the gain rows multiplied by adag in blocks of
    stacked rows.

    The closed exponential form has no finite operator set and raises
    ``ValueError``; a Gauss-Laguerre family ``for_params(params, n)`` has one.
    """
    a = _lowering_operator(dim)
    adag = a.T
    ops = [np.sqrt(params.kappa * (1.0 + params.n_th)) * a]
    if params.n_th > 0:
        ops.append(np.sqrt(params.kappa * params.n_th) * adag)
    if params.r > 0:
        if averages is None:
            averages = TrigAverages.for_params(params)
        weights, values, raising = averages.jump_diagonals(np.sqrt(np.arange(1.0, dim + 1.0)))
        amp = np.sqrt(params.r * weights)[:, None]
        # in place, and the gain rows in blocks, so no temporary approaches the
        # size of the set; the gain rows keep the literal order (amp adag) @ diag
        np.multiply(amp, values, out=values, where=~raising[:, None])
        for rows in _blocks(np.flatnonzero(raising), dim):
            values[rows] = (_Band(-1, amp[rows] * adag.values) @ _Band(0, values[rows])).values
        ops += [_Band(-1 if up else 0, row) for up, row in zip(raising, values)]
    return ops


def linewidth_lindblad_trace(
    params: MaserParams,
    stats: PhotonStatistics,
    averages: TrigAverages | None = None,
) -> float:
    """Linewidth from the generic jump-operator trace,

        D <n> = - sum_L tr{ Ldag [adag, L] a rho + [Ldag, adag] L a rho },

    evaluated with literal truncated matrices.  Independent of the
    detailed-balance reduction, so it cross-checks
    :func:`linewidth_components` route for any steady state.

    Every operator in the sum, and every product of them, has a single
    nonzero band, so the products are taken on single-band matrices (see
    :func:`jump_operator_matrices`) at O(N) per operator instead of the
    O(N^3) of dense products.  The operators of one band offset are
    stacked, in blocks of bounded size, and the trace runs once per block.

    The jump operators are those of the family ``averages``.  Without
    one, an exponential tau (no finite operator set) runs the 8..512-node
    ladder of :func:`refine_until_stable` until the result is stable to
    1e-8 relative; fixed tau and node lists use their own nodes.
    """
    mean = require_excitation(stats)

    def evaluate(family):
        return _lindblad_trace_value(params, stats, family)

    if averages is None and isinstance(params.tau_dist, ExponentialTau):
        total = refine_until_stable(params, evaluate)
    else:
        total = _lindblad_trace_value(params, stats, averages)
    return float(total) / mean


def _lindblad_trace_value(params: MaserParams, stats: PhotonStatistics, averages: TrigAverages | None) -> float:
    dim = stats.N + 1
    a = _lowering_operator(dim)
    adag = a.T
    a_rho = a @ _Band(0, stats.p)  # a @ diag(p)
    ops = jump_operator_matrices(params, dim, averages)
    total = 0.0
    for k in (1, 0, -1):
        for block in _blocks([op.values for op in ops if op.k == k], dim):
            L = _Band(k, np.array(block))
            Ldag = L.T
            comm1 = adag @ L - L @ adag
            comm2 = Ldag @ adag - adag @ Ldag
            total -= float(((Ldag @ comm1 @ a_rho).trace() + (comm2 @ L @ a_rho).trace()).sum())
    return total
