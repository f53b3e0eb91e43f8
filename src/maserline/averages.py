"""Interaction-time averages of trigonometric products.

The pump terms of the master equation only ever enter through averages of
the form ``<trig(g tau x) trig(g tau y)>_tau`` where x, y are square roots
of photon numbers.  Each family of averages is a :class:`TrigAverages`
instance, built from the Rabi angles it reads; three evaluation modes
cover the supported distributions:

* point mass / node list: plain weighted products over the Rabi angles
  ``g tau_k`` and their weights,
* exponential: closed rational forms, held as ``g_bar = g tau_bar``, in
  ``a = g_bar x``, ``b = g_bar y`` (unit-mean exponential measure in
  t = tau/tau_bar):

  .. math::

      \\int_0^\\infty  e^{-t} \\cos(a t) \\cos(b t)\\,dt
          = \\tfrac12 \\left[ \\frac{1}{1+(a-b)^2} + \\frac{1}{1+(a+b)^2} \\right]

      \\int_0^\\infty  e^{-t} \\sin(a t) \\sin(b t)\\,dt
          = \\frac{2ab}{(1+(a-b)^2)\\,(1+(a+b)^2)}

* Gauss-Laguerre node lists generated from the exponential weight, for
  cross-checking the closed forms against generic quadrature.

Both the closed-form and the quadrature path are kept on purpose; they
act as independent error detectors for each other.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import QuadratureError
from .model import DiscreteTau, ExponentialTau, FixedTau, InteractionTimeDistribution, MaserParams

# A Gauss-Laguerre weight that underflowed to zero carries no information;
# such nodes are dropped so DiscreteTau's positivity invariant holds.
_WEIGHT_FLOOR = 1e-300

# |sinc| below this is treated as an exact trapping zero (n_th = 0 only).
TRAPPING_SINC_TOL = 1e-15
# np.sinc evaluates sin(y)/y at this y where y == 0
_SINC_EPS = np.finfo(float).eps


def _sinc(arg, out=None):
    """sin(arg)/arg in the steps (and bits) of np.sinc(arg / pi), into ``out``
    or the buffer of ``arg``: y = pi (arg / pi), _SINC_EPS where y == 0,
    then sin(y) / y, whose sin(y) is the one temporary of that size."""
    y = np.divide(arg, np.pi, out=arg if out is None else out)
    np.multiply(np.pi, y, out=y)
    np.copyto(y, _SINC_EPS, where=y == 0.0)
    return np.divide(np.sin(y), y, out=y)


# node counts of the Gauss-Laguerre refinement ladder
_LADDER = (8, 16, 32, 64, 128, 256, 512)


@functools.lru_cache(maxsize=32)
def _gauss_laguerre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Golub-Welsch rule for the weight exp(-x) on [0, inf).

    The Jacobi matrix of the Laguerre recurrence has diagonal 2k+1 and
    off-diagonal k; nodes are its eigenvalues and each weight is the
    squared first eigenvector component (the measure has unit mass).
    Stable at large n where upstream recurrence evaluations overflow.

    The rule depends on ``n_nodes`` alone, so it is solved once per node
    count and its arrays are read-only; a failure raises and is not kept.
    """
    from scipy.linalg import eigh_tridiagonal  # imported on use: off the package's import path

    k = np.arange(n_nodes, dtype=float)
    try:
        x, q = eigh_tridiagonal(2.0 * k + 1.0, k[1:])
    except Exception as exc:  # pragma: no cover - LAPACK failure path
        raise QuadratureError(f"Gauss-Laguerre rule with {n_nodes} nodes failed: {exc}") from exc
    w = q[0, :] ** 2
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise QuadratureError(f"Gauss-Laguerre rule with {n_nodes} nodes returned non-finite data")
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def quadrature_nodes(dist: InteractionTimeDistribution, n_nodes: int) -> DiscreteTau:
    """Discretize an interaction-time distribution into quadrature nodes.

    * Fixed tau maps to a single node with unit weight.
    * Discrete node lists pass through unchanged.
    * Neither has a rule to select: ``n_nodes`` other than 1 raises
      ``ValueError``.
    * Exponential maps to the ``n_nodes``-point Gauss-Laguerre rule scaled
      by the mean, exact for polynomials up to degree ``2 n_nodes - 1``
      against the density ``exp(-tau/tau_bar)/tau_bar``.  Nodes whose
      weight underflowed to zero are dropped.
    """
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    if isinstance(dist, (FixedTau, DiscreteTau)) and n_nodes != 1:
        raise ValueError(f"{type(dist).__name__} has its own nodes; n_nodes={n_nodes} selects no rule")
    if isinstance(dist, FixedTau):
        return DiscreteTau(np.array([dist.tau]), np.array([1.0]))
    if isinstance(dist, DiscreteTau):
        return dist
    if isinstance(dist, ExponentialTau):
        x, w = _gauss_laguerre(n_nodes)
        keep = w > _WEIGHT_FLOOR
        return DiscreteTau(dist.tau_bar * x[keep], w[keep])
    raise TypeError(f"unsupported distribution: {dist!r}")


def refine_until_stable(
    params: MaserParams,
    evaluate: Callable[[TrigAverages], np.ndarray | float],
    rel_tol: float = 1e-8,
):
    """Node-doubling ladder 8, 16, ..., 512, re-evaluating until stable.

    ``evaluate`` is called with the families ``TrigAverages.for_params(params, n)``
    of successively finer Gauss-Laguerre rules until two consecutive
    results agree to ``rel_tol`` (relative to the largest magnitude).  The
    integrands downstream oscillate at frequencies that grow with
    g*tau*sqrt(n), so no fixed node count is safe a priori.  Only an
    exponential tau has rules to refine; others raise ``ValueError``.

    Returns the converged value; raises :class:`QuadratureError` if the
    ladder is exhausted.
    """
    previous = None
    for n in _LADDER:
        value = np.asarray(evaluate(TrigAverages.for_params(params, n)), dtype=float)
        if previous is not None and previous.shape == value.shape:
            scale = max(float(np.max(np.abs(value))), 1e-300)
            if float(np.max(np.abs(value - previous))) <= rel_tol * scale:
                return value if value.shape else float(value)
        previous = value
    raise QuadratureError(f"node doubling did not stabilize to {rel_tol} within {_LADDER[-1]} nodes")


class TrigAverages:
    """Averages <trig(g tau x) trig(g tau y)> for one parameter record.

    Instances are immutable and safe to share.  ``x``/``y`` arguments are
    the sqrt-photon-number factors.  A node list is held as its Rabi
    angles ``gtaus`` = g*tau_k and ``weights``; the closed form as
    ``g_bar`` = g*tau_bar.

    An instance is one family of tau averages: a node list (point mass,
    discrete list, Gauss-Laguerre rule) or the closed exponential form.
    The builders of the statistics, the generator, the pump weights and
    the jump operators use only the methods below, so a third family (the
    truncated Laguerre sums of :mod:`maserline.uniform`) overrides them.

    A node list may carry a leading row axis (:meth:`for_params` of a
    block's records): ``gtaus`` of shape (rows, K) with one shared
    ``weights`` (K,), one record per row that differs from the others in g.
    Every average then has that leading axis, ``(rows,) + x.shape``, and
    each row holds the bits of its record's own family; without a row axis
    the shape is ``x.shape``.  The closed form and the Laguerre sums have
    no row axis: they serve records that share g, whose rates the builders
    take as a column (:func:`maserline.model.block_rates`).
    """

    def __init__(self, *, gtaus=None, weights=None, g_bar: float | None = None):
        if (gtaus is None) == (g_bar is None):
            raise ValueError("exactly one of node list or g_bar must be given")
        self._gtaus = None if gtaus is None else np.asarray(gtaus, dtype=float)
        self._weights = None if gtaus is None else np.asarray(weights, dtype=float)
        self._g_bar = None if g_bar is None else float(g_bar)
        # the contraction over the node axis k, behind the row axis r where
        # there is one, and with a single node the index of its entry
        self._subscripts, self._one_node = "k,k...->...", None
        if gtaus is not None:
            row_axes = self._gtaus.ndim - 1
            self._subscripts = "k,rk...->r..." if row_axes else "k,k...->..."
            if self._weights.size == 1:
                self._one_node = (slice(None),) * row_axes + (0,)

    @classmethod
    def for_params(cls, params: MaserParams, n_nodes: int | None = None) -> "TrigAverages":
        """The family of a parameter record's distribution: the one place
        a distribution becomes a family.

        Fixed tau is its point mass and a node list its own nodes; neither
        has a rule to select, so a given ``n_nodes`` raises ``ValueError``.
        The exponential distribution is the closed form, or with
        ``n_nodes`` the Gauss-Laguerre rule of that many nodes.

        A block's records (:func:`maserline.model.block_rates`) give the
        closed form of the first record, which the block's records share
        when they share g, or else one node list with a row axis: row i is
        the Rabi angles of record i, with the bits of its own family, and
        the weights are shared.  Records of different kinds of
        distribution, node lists with different weights and a block with
        ``n_nodes`` raise ``ValueError``.
        """
        if not isinstance(params, MaserParams):
            if n_nodes is not None:
                raise ValueError(f"a block's records select no rule; n_nodes={n_nodes} must not be given")
            dists = [record.tau_dist for record in params]
            kind = type(dists[0])
            if any(type(dist) is not kind for dist in dists):
                raise ValueError("the records of a block must share tau_dist")
            if kind is ExponentialTau:
                return cls.for_params(params[0])
            if kind is FixedTau:
                taus, weights = np.array([[dist.tau] for dist in dists]), np.array([1.0])
            else:
                weights = dists[0].weights
                if not all(np.array_equal(dist.weights, weights) for dist in dists[1:]):
                    raise ValueError("the node lists of a block must share their weights")
                taus = np.array([dist.taus for dist in dists])
            # row i is g_i tau_ik, the products of record i's own family
            return cls(gtaus=np.array([record.g for record in params])[:, None] * taus, weights=weights)
        dist = params.tau_dist
        if isinstance(dist, ExponentialTau):
            if n_nodes is None:
                return cls(g_bar=params.g_bar)
        elif n_nodes is not None:
            raise ValueError(f"{type(dist).__name__} has its own nodes; n_nodes={n_nodes} selects no rule")
        if isinstance(dist, FixedTau):
            # the point mass of quadrature_nodes, without building a node list
            return cls(gtaus=np.array([params.g * dist.tau]), weights=np.array([1.0]))
        nodes = quadrature_nodes(dist, 1 if n_nodes is None else n_nodes)
        return cls(gtaus=params.g * nodes.taus, weights=nodes.weights)

    @property
    def rows(self) -> int | None:
        """The length of the row axis, None without one."""
        if self._gtaus is None or self._gtaus.ndim == 1:
            return None
        return self._gtaus.shape[0]

    @property
    def point_data(self) -> tuple[np.ndarray, np.ndarray]:
        """Rabi angles g*tau_k and weights of the node list."""
        if self._gtaus is None:
            raise ValueError("closed-form averages carry no node list")
        return self._gtaus, self._weights

    # -- elementary products ------------------------------------------------

    def _outer(self, x):
        """g tau_k x at every node (and row): a new array, in whose buffer
        the methods below form their products.  IEEE products and sums
        commute, so the bits are those of the plain expressions, and fewer
        arrays of this size are alive at once, which bounds the memory of
        a block of rows."""
        return np.multiply.outer(self._gtaus, np.asarray(x, dtype=float))

    def _contract(self, values):
        """sum_k weights[k] values[(r,) k, ...]; einsum without ``optimize``
        calls no BLAS, whose threads can cost milliseconds per call on a
        fresh process.  With one node einsum's sum is 0 + weight * values,
        which is formed directly at half the cost per call, with the same
        bits (signed zeros included)."""
        if self._one_node is None:
            return np.einsum(self._subscripts, self._weights, values)
        out = np.multiply(self._weights[0], values[self._one_node])
        out += 0.0
        return out

    def cos_cos(self, x, y):
        if self._gtaus is None:
            a = self._g_bar * np.asarray(x, dtype=float)
            b = self._g_bar * np.asarray(y, dtype=float)
            dm = a - b
            dp = a + b
            return 0.5 * (1.0 / (1.0 + dm * dm) + 1.0 / (1.0 + dp * dp))
        a, b = self._outer(x), self._outer(y)
        return self._contract(np.multiply(np.cos(a, out=a), np.cos(b, out=b), out=a))

    def sin_sin(self, x, y):
        if self._gtaus is None:
            a = self._g_bar * np.asarray(x, dtype=float)
            b = self._g_bar * np.asarray(y, dtype=float)
            dm = a - b
            dp = a + b
            # product form: no cancellation for a ~ b
            return 2.0 * a * b / ((1.0 + dm * dm) * (1.0 + dp * dp))
        a, b = self._outer(x), self._outer(y)
        return self._contract(np.multiply(np.sin(a, out=a), np.sin(b, out=b), out=a))

    def anticommutator_norm(self, s):
        """<cos^2(g tau s) + sin^2(g tau s)>, the weight of the pump
        dissipator's anticommutator term at sqrt-level s: exactly 1 for
        averages over a probability measure (node lists, closed form)."""
        return 1.0

    # -- stable compound averages used by the recurrence and the weights ----

    def pump_gain(self, s, snap_trapping: bool = False):
        """<(g tau)^2 sinc^2(g tau s)>, the per-atom gain factor at sqrt-level s.

        With ``snap_trapping`` every node whose |sinc| falls below
        ``TRAPPING_SINC_TOL`` contributes an exact zero, so trapping
        states truncate the photon statistics with hard zeros.
        """
        s = np.asarray(s, dtype=float)
        if self._gtaus is None:
            a = self._g_bar * s
            return 2.0 * self._g_bar**2 / (1.0 + 4.0 * a * a)
        sinc = _sinc(self._outer(s))
        if snap_trapping:
            sinc[np.abs(sinc) < TRAPPING_SINC_TOL] = 0.0
        # (g tau)^2 sinc^2, multiplied in that order
        gain = np.multiply((self._gtaus**2)[..., None], sinc)
        gain *= sinc
        return self._contract(gain)

    def squared_differences(self, n):
        """The squared trig differences of the pump weights at photon
        numbers ``n``, free of cancellation at large n: <(cos A - cos B)^2>
        and <(sqrt(n+1) sin A - sqrt(n) sin B)^2>, A = g tau sqrt(n+1),
        B = g tau sqrt(n)."""
        n = np.asarray(n, dtype=float)
        s = np.sqrt(n)
        s1 = np.sqrt(n + 1.0)
        sigma = s + s1
        if self._gtaus is None:
            # cancellation-free closed forms of the exponential tau averages;
            # every building block below is a sum or product of same-sign terms
            x = self._g_bar * self._g_bar
            m_geo = s * s1                      # sqrt(n (n+1))
            sigma2 = sigma * sigma              # = 2n + 1 + 2 m_geo
            d2 = x / sigma2                     # (g_bar (s1 - s))^2
            m = x * sigma2                      # (g_bar (s1 + s))^2
            p4 = 4.0 * x * n
            q4 = 4.0 * x * (n + 1.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                gap = 2.0 * n / (m_geo + n)     # 2 (m_geo - n), stable; 0/0 at n=0
            gap = np.where(n == 0.0, 0.0, gap)
            m_minus_p = x * (1.0 + gap)
            m_minus_q = x * (gap - 3.0)
            cos_comb = (
                d2 / (1.0 + d2)
                + 0.5 * m_minus_p / ((1.0 + p4) * (1.0 + m))
                + 0.5 * m_minus_q / ((1.0 + q4) * (1.0 + m))
            )
            lead = (1.0 + (2.0 * n + 1.0) * x) / (2.0 * sigma2 * (1.0 + d2))
            tail = -((1.0 - 2.0 * x * m_geo) * (1.0 - 4.0 * x * m_geo) / sigma2 + x) / (
                2.0 * (1.0 + m) * (1.0 + p4) * (1.0 + q4)
            )
            return cos_comb, lead + tail
        # per-node evaluation through the product identities
        #   cos A - cos B = -2 sin((A+B)/2) sin((A-B)/2)
        #   s1 sin A - s sin B = 2 s1 cos((A+B)/2) sin((A-B)/2) + sin(B)/sigma
        # with A - B = g tau / sigma; at most four arrays of the outer
        # product's size are alive.
        mid = self._outer(sigma)
        mid *= 0.5
        sin_half = self._outer(1.0 / sigma)
        sin_half *= 0.5
        np.sin(sin_half, out=sin_half)
        cos_diff = np.sin(mid)
        cos_diff *= -2.0
        cos_diff *= sin_half
        cos_diff *= cos_diff
        sin_diff = np.cos(mid, out=mid)
        sin_diff *= 2.0 * s1
        sin_diff *= sin_half
        sin_b = np.sin(self._outer(s), out=sin_half)
        sin_b /= sigma
        sin_diff += sin_b
        sin_diff *= sin_diff
        return self._contract(cos_diff), self._contract(sin_diff)

    def one_minus_cos_diff(self, inv_sigma):
        """<1 - cos(g tau / sigma)> with 1/sigma = x - y supplied stably.

        Used by the narrow-distribution pump weight; evaluated through
        sin^2 (point nodes) or d^2/(1+d^2) (closed form) so no subtractive
        cancellation occurs at large photon number.
        """
        inv_sigma = np.asarray(inv_sigma, dtype=float)
        if self._gtaus is None:
            d = self._g_bar * inv_sigma
            return d * d / (1.0 + d * d)
        half = self._outer(inv_sigma)
        half *= 0.5
        s = np.sin(half, out=half)
        return self._contract(np.multiply(2.0 * s, s, out=s))

    def jump_diagonals(self, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pump jump operators at phi = sqrt(n+1) as arrays ``(weights (M,),
        diagonals (M, phi.size), raising (M,) bool)``: operator m is
        sqrt(r weights[m]) diag(diagonals[m]), preceded by adag where
        ``raising[m]``.  Per node in turn a cosine operator cos(g tau_k phi)
        and a gain operator g tau_k sinc(g tau_k phi); the closed form has no
        finite set and raises ``ValueError``.

        ``diagonals`` is a new array, which the caller may overwrite.  Its
        rows are computed in place from one outer product, so the largest
        temporary is half its size."""
        gtaus, weights = self.point_data
        phi = np.asarray(phi, dtype=float)
        rows = np.empty((gtaus.size, 2, phi.size))
        cos, gain = rows[:, 0], rows[:, 1]
        np.multiply.outer(gtaus, phi, out=cos)
        _sinc(cos, out=gain)
        np.cos(cos, out=cos)
        gain *= gtaus[:, None]
        return np.repeat(weights, 2), rows.reshape(-1, phi.size), np.tile([False, True], gtaus.size)
