"""Steady-state photon statistics via detailed-balance recurrences.

The stationary state of the micromaser master equation is diagonal in the
photon-number basis and satisfies, link by link,

    (1 + n_th) p_{n+1} = [ n_th + n_ex <(g tau)^2 sinc^2(g tau sqrt(n+1))>_tau ] p_n

with n_ex = r/kappa.  The recurrence is evaluated in log space with a
final renormalization because p_n spans hundreds of orders of magnitude
below threshold.  One evaluator takes those logs and their running sum,
for a given truncation and for each candidate of the truncation search.

The row axis: a block of records that differ in g and/or in r
(:func:`maserline.model.block_rates`) is evaluated at once when one chunk
takes all its links: on a given truncation (:func:`steady_states`), or on
a first search candidate that one chunk takes whole
(:func:`search_rows`).  The logs, the running sum and the normalization
then carry a leading row axis, and each row keeps the bits of its
one-record call.  Every other evaluation runs one record at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .averages import TrigAverages
from .errors import ResourceLimitError, TruncationError, VacuumStateError
from .model import ExponentialTau, MaserParams, block_rates

# Adequacy: the top retained level must be negligible against the peak,
# unless it is an exact trapping-state zero.
TAIL_TOL = 1e-12
NORMALIZATION_TOL = 1e-12
# largest basis the truncation search may choose
HARD_LIMIT = 20000
# exp(x) is exactly 0.0 for x below about -745.13: log p this far below the
# peak is a level whose p_n is zero
UNDERFLOW_LOG = 746.0
# fewest links in the first chunk of an evaluation of the recurrence
FIRST_CHUNK = 256


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

    @functools.cached_property
    def mean(self) -> float:
        """Mean photon number, computed on first read (p is fixed)."""
        return float(np.arange(self.p.size) @ self.p)

    @property
    def variance(self) -> float:
        n = np.arange(self.p.size)
        m = self.mean
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
        # the first nonzero level from the top is the last one
        last = self.N - int((self.p != 0.0)[::-1].argmax())
        n_cut = max(last + 1, 2)
        if n_cut >= self.N:
            return self
        return PhotonStatistics(self.p[: n_cut + 1].copy(), n_cut, self.tail_mass_bound)


def recurrence_ratios(
    params: MaserParams, N: int, averages: TrigAverages | None = None, lo: int = 0
) -> np.ndarray:
    """Ratios p_{n+1}/p_n for n = lo..N-1 of the detailed-balance recurrence.

    Each ratio depends on its own level only, so a range gives the same
    bits as the slice of the ratios from 0.  A block's records give one
    row of ratios per record (:func:`maserline.model.block_rates`)."""
    if averages is None:
        averages = TrigAverages.for_params(params)
    kappa, n_th, r = block_rates(params, averages)
    s_up = np.sqrt(np.arange(lo + 1.0, N + 1.0))
    gain = r / kappa * averages.pump_gain(s_up, snap_trapping=(n_th == 0.0))
    return (n_th + gain) / (1.0 + n_th)


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

    With ``N``, the search's evaluator takes links 0..N whole, in one
    :func:`recurrence_ratios` call.  Without ``N`` this is
    :func:`auto_truncation`, whose accepted candidate already holds p.
    With ``averages`` and no ``N``, the truncation is the one that search
    picks with the default averages, and the recurrence is evaluated again
    with ``averages`` on it.
    """
    if N is None:
        stats = auto_truncation(params)
        if averages is None:
            return stats
        N = stats.N
    if N < 1:
        raise ValueError(f"truncation must be at least 1, got {N}")
    ratios, p = _recurrence(params, N, N + 1, averages)
    return PhotonStatistics(p, N, _tail_bound(p, float(ratios[N])))


def steady_states(records, N: int, averages: TrigAverages | None = None) -> list[PhotonStatistics]:
    """``steady_state(record, N, averages)`` of each record of a block, from
    one evaluation of the recurrence with a row axis: the statistics of
    each row have the bits of the one-record call.

    ``averages`` defaults to the records' family
    (:meth:`TrigAverages.for_params` of the records); a family without a
    row axis serves records that share g, and rates may differ between
    records (:func:`maserline.model.block_rates`).
    """
    if N < 1:
        raise ValueError(f"truncation must be at least 1, got {N}")
    if averages is None:
        averages = TrigAverages.for_params(records)
    ratios, p = _recurrence(records, N, N + 1, averages)
    return [PhotonStatistics(row_p, N, _tail_bound(row_p, float(row_ratios[N])))
            for row_ratios, row_p in zip(ratios, p)]


def _fallen_by(params: MaserParams, lo: int, gap: float, limit: int) -> int:
    """A level by which log p has fallen by more than ``gap`` below log p_lo,
    or ``limit`` if that is lower.

    Every link ratio is at most b(n) = (n_th + n_ex/(n+1)) / (1 + n_th),
    since the gain is at most n_ex/(n+1) for any tau, and b falls with n;
    so each link of a run from n on lowers log p by at least -log b(n).
    """
    n, fall = lo, 0.0
    step = max(FIRST_CHUNK // 4, lo // 8)
    while fall <= gap and n < limit:
        bound = (params.n_th + params.n_ex / (n + 1.0)) / (1.0 + params.n_th)
        if bound < 1.0:
            fall -= step * math.log(bound)
        n += step
    return min(n + 1, limit)


def _recurrence(params, N: int, settled: int, averages: TrigAverages | None):
    """Ratios of the links 0..L-1 from level 0 and the normalized p_0..p_N
    they give, on a truncation N whose links from ``settled`` on contract.

    Each chunk of links continues one running sum of log ratios from
    log p_0 = 0, with the bits of one cumsum from level 0.  Evaluation
    stops at the level L <= N + 1 where both hold: (i) L >= ``settled``;
    (ii) log p_L lies more than :data:`UNDERFLOW_LOG` below its running
    maximum, or a trapping zero was hit.  The first chunk reaches
    ``settled`` and at least :data:`FIRST_CHUNK` links; each later one ends
    where the bound n_ex/(n+1) makes (ii) certain, or after the edge link.
    From L on log p only falls, so every later p_n is exactly 0.0, as when
    every link is evaluated.  p is zero-filled there and normalized over
    all N + 1 levels, so the pairwise blocks of its sum, and its bits, are
    those of the whole-length array.

    The row axis: a block's records, told ``settled = N + 1`` so that the
    first chunk takes all N + 1 links, give ratios and p with a leading row
    axis.  Each row's log, running sum and normalization run along its own
    last axis, with the bits of its one-record evaluation.
    """
    rows = () if isinstance(params, MaserParams) else (len(params),)
    ratio_chunks, log_chunks = [], [np.zeros(rows + (1,))]  # log p_0 = 0
    hi, peak = 0, 0.0  # links 0..hi-1 are evaluated; running maximum of log p
    zero_beyond = False  # every level past hi has p_n == 0
    # a trapping zero has log ratio -inf; a negative ratio (averages with
    # negative weights) has log nan, which the running sum carries to the end
    with np.errstate(divide="ignore", invalid="ignore"):
        while hi <= N and not zero_beyond:
            lo = hi
            if lo == 0:
                hi = min(max(FIRST_CHUNK, settled), N + 1)
            else:
                gap = float(log_chunks[-1][-1]) - peak + UNDERFLOW_LOG
                hi = _fallen_by(params, lo, gap, N + 1)
            chunk = recurrence_ratios(params, hi, averages, lo)
            if rows:  # records that share every rate and a family without rows give one row
                chunk = np.broadcast_to(chunk, rows + chunk.shape[-1:])
            log_chunk = np.log(chunk)
            # continue the running sum: the bits of one cumsum from level 0
            # (.T[0]: the first link, of every row when there is a row axis)
            log_chunk.T[0] += log_chunks[-1].T[-1]
            log_chunk.cumsum(axis=-1, out=log_chunk)
            top = float(log_chunk.max())  # nan once any running sum is
            if math.isnan(top):
                raise ValueError("recurrence ratios must be non-negative")
            ratio_chunks.append(chunk)
            log_chunks.append(log_chunk)
            if rows:  # one chunk took every link
                break
            peak = max(peak, top)
            zero_beyond = hi >= settled and log_chunk[-1] < peak - UNDERFLOW_LOG
    log_p = np.concatenate(log_chunks, axis=-1)[..., : N + 1]
    p = np.zeros(rows + (N + 1,))
    np.exp(log_p - log_p.max(axis=-1, keepdims=True), out=p[..., : log_p.shape[-1]])
    p /= p.sum(axis=-1, keepdims=True)
    return np.concatenate(ratio_chunks, axis=-1), p


def _search_start(params: MaserParams) -> tuple[int, int]:
    """The first candidate of the truncation search at r > 0 or n_th > 0,
    and the level ``settled`` from which every link ratio contracts.

    Candidates are 4 max(50, reach) for the level ``reach`` past which the
    bound the rule rests on makes every ratio contract: the gain is at most
    n_ex/(n+1) for any tau, and at most the pump n_ex (g tau_max)^2 for a
    fixed tau or a node list; the closed exponential gain is below 1 past
    the crossing.  A thermal field starts from its geometric tail.
    """
    if params.r == 0.0:
        # thermal geometric tail: ratio q = n_th/(1+n_th) forever
        q = params.n_th / (1.0 + params.n_th)
        needed = math.ceil(-12.0 * math.log(10.0) / math.log(q)) if q > 0 else 1
        return max(50, 2 * needed), 0
    if isinstance(params.tau_dist, ExponentialTau):
        # the ratio contracts beyond the crossing, <= 0 unless 2 theta_bar^2 > 1;
        # a crossing beyond the hard limit only needs to exceed it
        excess = 2.0 * params.theta_bar**2 - 1.0
        crossing = excess / (4.0 * params.g_bar**2) if excess > 0.0 else 0.0
        reach = min(crossing, HARD_LIMIT)
    else:
        # gain(n) <= n_ex/(n+1) and gain(n) <= pump = n_ex (g tau_max)^2, so the
        # ratio contracts beyond n_ex, and everywhere when the pump is below 1
        angle = params.g * params.tau_scale
        reach = min(params.n_ex, HARD_LIMIT) if params.n_ex * (angle * angle) >= 1.0 else 0.0
    return math.ceil(4.0 * max(50.0, reach)), math.ceil(reach)  # every link n >= settled contracts


def _adequate(ratios: np.ndarray, p: np.ndarray, candidate: int):
    """Whether a candidate's recurrence contracts on [N/4, N) and its tail
    is adequately small: one bool, or one per row of a row axis."""
    # p is normalized, so its maximum is positive and p_N = 0 passes too
    contracts = (ratios[..., candidate // 4 : candidate] < 1.0).all(axis=-1)
    return contracts & (p[..., -1] <= TAIL_TOL * p.max(axis=-1))


def _candidate_statistics(ratios: np.ndarray, p: np.ndarray, candidate: int) -> PhotonStatistics:
    # p_N == 0 when the edge link was not evaluated: the bound reads no ratio
    edge = float(ratios[candidate]) if ratios.size > candidate else 0.0
    return PhotonStatistics(p, candidate, _tail_bound(p, edge))


def auto_truncation(params: MaserParams) -> PhotonStatistics:
    """Statistics on a truncation N with the recurrence contracting on
    N/4 <= n < N and an adequately small tail, from default averages.

    Candidates start at :func:`_search_start` and double on failure up to
    :data:`HARD_LIMIT` levels.  Each one runs the evaluator of
    ``steady_state(params, N)`` from level 0, told the level past which
    every link ratio contracts by the bound the candidate rule rests on.
    So it stops where p underflows past that level, and p, N and the tail
    bound are the bits of ``steady_state(params, N)``.  The numeric
    contraction check runs on the evaluated links of [N/4, N), the bound
    on the rest.  A candidate evaluated to its edge has the edge ratio
    for the tail bound; one stopped before it has p_N = 0 and bound 0.
    """
    if params.r == 0.0 and params.n_th == 0.0:
        return PhotonStatistics(np.array([1.0, 0.0]), 1, 0.0)
    candidate, settled = _search_start(params)
    averages = TrigAverages.for_params(params)
    while True:
        if candidate > HARD_LIMIT:
            raise ResourceLimitError(
                f"adequate truncation exceeds the hard limit of {HARD_LIMIT} levels"
            )
        ratios, p = _recurrence(params, candidate, settled, averages)
        if _adequate(ratios, p, candidate):
            return _candidate_statistics(ratios, p, candidate)
        candidate *= 2


def search_width(params: MaserParams) -> int | None:
    """The levels of the first candidate of the search of ``params`` when
    one chunk takes them whole, else None: such records form the blocks of
    :func:`search_rows`, and any other is searched on its own.  A record at
    r = 0 is searched on its own too."""
    if params.r == 0.0:
        return None
    candidate, settled = _search_start(params)
    return candidate + 1 if candidate + 1 <= max(FIRST_CHUNK, settled) else None


def search_rows(records) -> tuple[list[PhotonStatistics], TrigAverages]:
    """``auto_truncation`` of each record of a block, and the records'
    family (:meth:`TrigAverages.for_params`), which the block's builders
    may share.

    The records must share one :func:`search_width`, else ``ValueError``.
    Their first candidate is evaluated once, with a row axis, and each
    row takes the acceptance test of the search; a row whose candidate is
    rejected runs :func:`auto_truncation` on its own.  p, N and the tail
    bound of every row are the bits of ``auto_truncation(record)``.
    """
    widths = {search_width(record) for record in records}
    if len(widths) != 1 or None in widths:
        raise ValueError(f"a block search needs one first candidate that one chunk takes whole, got widths {widths}")
    candidate = widths.pop() - 1
    averages = TrigAverages.for_params(records)
    ratios, p = _recurrence(records, candidate, candidate + 1, averages)
    stats = [
        _candidate_statistics(row_ratios, row_p, candidate) if accepted else auto_truncation(record)
        for record, row_ratios, row_p, accepted in zip(records, ratios, p, _adequate(ratios, p, candidate))
    ]
    return stats, averages


def require_excitation(stats: PhotonStatistics) -> float:
    """Mean photon number, raising :class:`VacuumStateError` when zero."""
    mean = stats.mean
    if mean == 0.0:
        raise VacuumStateError("vacuum state: no phase coherence, linewidth undefined")
    return mean
