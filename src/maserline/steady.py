"""Steady-state photon statistics via detailed-balance recurrences.

The stationary state of the micromaser master equation is diagonal in the
photon-number basis and satisfies, link by link,

    (1 + n_th) p_{n+1} = [ n_th + n_ex <(g tau)^2 sinc^2(g tau sqrt(n+1))>_tau ] p_n

with n_ex = r/kappa.  The recurrence is evaluated in log space with a
final renormalization because p_n spans hundreds of orders of magnitude
below threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averages import TrigAverages
from .errors import ResourceLimitError, TruncationError, VacuumStateError
from .model import ExponentialTau, MaserParams

# Adequacy: the top retained level must be negligible against the peak,
# unless it is an exact trapping-state zero.
TAIL_TOL = 1e-12
NORMALIZATION_TOL = 1e-12
# largest basis the truncation search may choose
HARD_LIMIT = 20000


@dataclass(frozen=True, eq=False)
class PhotonStatistics:
    """Normalized steady-state diagonal p_0..p_N on a truncated Fock basis."""

    p: np.ndarray
    N: int
    tail_mass_bound: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 1 or p.size != self.N + 1:
            raise ValueError("p must be a 1-d array of length N + 1")
        if not np.all(p >= 0):
            raise ValueError("probabilities must be non-negative")
        total = p.sum()
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"probabilities must sum to 1 within {NORMALIZATION_TOL}, got {total!r}")
        top = p[-1]
        # tail_mass_bound == 0 marks exact trapping-state support (nothing
        # beyond the edge), where a large p_N is legitimate
        if self.tail_mass_bound != 0.0 and top > TAIL_TOL * p.max():
            raise TruncationError(
                f"p_N = {top:.3e} exceeds {TAIL_TOL} of the peak; increase the truncation"
            )

    @classmethod
    def from_probabilities(cls, p) -> "PhotonStatistics":
        """Normalized statistics with nothing beyond the top level (tail bound 0)."""
        p = np.asarray(p, dtype=float)
        return cls(p / p.sum(), p.size - 1, 0.0)

    @property
    def mean(self) -> float:
        return float(np.arange(self.p.size) @ self.p)

    @property
    def variance(self) -> float:
        n = np.arange(self.p.size)
        m = float(n @ self.p)
        return float((n * n) @ self.p) - m * m

    def on_support(self) -> "PhotonStatistics":
        """The same statistics cut to N' = max(last nonzero level + 1, 2).

        Returns ``self`` when N' is not below N.  The cut keeps p_{N'} = 0
        as its top level, so it is exact for everything that sums p_n
        against finite per-level weights (mean, the exact and classic
        linewidth routes) and for the initial slope w . G v0: v0 vanishes
        from component N'-1 on, so the rows of G that the cut drops or
        changes (the last-row truncation correction) multiply zeros.  The
        tail bound carries over; it is 0.0 whenever a cut happens, since
        p_N = 0 there.  Dynamics beyond t = 0 (the correlation function,
        the eigen expansion) can move probability into the dropped levels
        and need the full basis.
        """
        nonzero = np.flatnonzero(self.p)
        n_cut = max(int(nonzero[-1]) + 1, 2)
        if n_cut >= self.N:
            return self
        return PhotonStatistics(self.p[: n_cut + 1].copy(), n_cut, self.tail_mass_bound)


def recurrence_ratios(params: MaserParams, N: int, averages: TrigAverages | None = None) -> np.ndarray:
    """Ratios p_{n+1}/p_n for n = 0..N-1 of the detailed-balance recurrence."""
    if averages is None:
        averages = TrigAverages.for_params(params)
    n = np.arange(N, dtype=float)
    s_up = np.sqrt(n + 1.0)
    gain = params.n_ex * averages.pump_gain(s_up, snap_trapping=(params.n_th == 0.0))
    return (params.n_th + gain) / (1.0 + params.n_th)


def statistics_from_ratios(ratios: np.ndarray) -> np.ndarray:
    """Normalized p from link ratios, in log space; zero ratios propagate
    as hard zeros (trapping-state support)."""
    ratios = np.asarray(ratios, dtype=float)
    if np.any(ratios < 0):
        raise ValueError("recurrence ratios must be non-negative")
    with np.errstate(divide="ignore"):
        log_r = np.log(ratios)
    log_p = np.concatenate(([0.0], np.cumsum(log_r)))
    log_p -= np.max(log_p)
    p = np.exp(log_p)
    return p / p.sum()


def _tail_bound(p: np.ndarray, next_ratio: float) -> float:
    """Geometric bound on the mass truncated away above level N."""
    top = float(p[-1])
    if top == 0.0:
        return 0.0
    if not (0.0 <= next_ratio < 1.0):
        raise TruncationError(
            f"recurrence ratio {next_ratio:.3f} at the truncation edge is not contracting"
        )
    return top * next_ratio / (1.0 - next_ratio)


def steady_state(
    params: MaserParams,
    N: int | None = None,
    averages: TrigAverages | None = None,
) -> PhotonStatistics:
    """Steady state for any supported interaction-time distribution.

    The tau average in the gain uses ``averages`` when given (e.g. a
    fixed Gauss-Laguerre discretization), otherwise the distribution's
    default: exact point mass, node list, or the closed exponential form.

    Without ``N`` this is :func:`auto_truncation`, whose accepted candidate
    already holds p.  With ``averages`` and no ``N``, the truncation is the
    one that search picks with the default averages, and the recurrence is
    evaluated again with ``averages`` on it.
    """
    if N is None:
        stats = auto_truncation(params)
        if averages is None:
            return stats
        N = stats.N
    if N < 1:
        raise ValueError(f"truncation must be at least 1, got {N}")
    ratios = recurrence_ratios(params, N + 1, averages)
    p = statistics_from_ratios(ratios[:N])
    return PhotonStatistics(p, N, _tail_bound(p, float(ratios[N])))


def auto_truncation(params: MaserParams) -> PhotonStatistics:
    """Statistics on a truncation N with the recurrence contracting on
    N/4 <= n < N and an adequately small tail, from default averages.

    Candidates double on failure up to :data:`HARD_LIMIT` levels.  The
    recurrence is evaluated on N + 1 links per candidate, so the accepted
    one already holds p and the ratio at the edge for the tail bound.
    """
    n_ex = params.n_ex
    if params.r == 0.0:
        if params.n_th == 0.0:
            return PhotonStatistics(np.array([1.0, 0.0]), 1, 0.0)
        # thermal geometric tail: ratio q = n_th/(1+n_th) forever
        q = params.n_th / (1.0 + params.n_th)
        needed = math.ceil(-12.0 * math.log(10.0) / math.log(q)) if q > 0 else 1
        candidate = max(50, 2 * needed)
    elif isinstance(params.tau_dist, ExponentialTau):
        # the ratio contracts beyond the crossing, <= 0 unless 2 theta_bar^2 > 1;
        # a crossing beyond the hard limit only needs to exceed it
        excess = 2.0 * params.theta_bar**2 - 1.0
        crossing = excess / (4.0 * params.g_bar**2) if excess > 0.0 else 0.0
        candidate = math.ceil(4.0 * max(50.0, min(crossing, HARD_LIMIT)))
    else:
        # gain(n) <= n_ex/(n+1) and gain(n) <= pump = n_ex (g tau_max)^2, so the
        # ratio contracts beyond n_ex, and everywhere when the pump is below 1
        angle = params.g * params.tau_scale
        reach = min(n_ex, HARD_LIMIT) if n_ex * (angle * angle) >= 1.0 else 0.0
        candidate = math.ceil(4.0 * max(50.0, reach))

    while True:
        if candidate > HARD_LIMIT:
            raise ResourceLimitError(
                f"adequate truncation exceeds the hard limit of {HARD_LIMIT} levels"
            )
        ratios = recurrence_ratios(params, candidate + 1, None)
        if np.all(ratios[candidate // 4 : candidate] < 1.0):
            p = statistics_from_ratios(ratios[:candidate])
            top = p[-1]
            if top == 0.0 or top <= TAIL_TOL * p.max():
                return PhotonStatistics(p, candidate, _tail_bound(p, float(ratios[candidate])))
        candidate *= 2


def require_excitation(stats: PhotonStatistics) -> float:
    """Mean photon number, raising :class:`VacuumStateError` when zero."""
    mean = stats.mean
    if mean == 0.0:
        raise VacuumStateError("vacuum state: no phase coherence, linewidth undefined")
    return mean
