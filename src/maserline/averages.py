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

from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import QuadratureError
from .model import DiscreteTau, ExponentialTau, FixedTau, InteractionTimeDistribution, MaserParams

# A Gauss-Laguerre weight that underflowed to zero carries no information;
# such nodes are dropped so DiscreteTau's positivity invariant holds.
_WEIGHT_FLOOR = 1e-300

# |sinc| below this is treated as an exact trapping zero (n_th = 0 only).
TRAPPING_SINC_TOL = 1e-15

# node counts of the Gauss-Laguerre refinement ladder
_LADDER = (8, 16, 32, 64, 128, 256, 512)


def _gauss_laguerre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Golub-Welsch rule for the weight exp(-x) on [0, inf).

    The Jacobi matrix of the Laguerre recurrence has diagonal 2k+1 and
    off-diagonal k; nodes are its eigenvalues and each weight is the
    squared first eigenvector component (the measure has unit mass).
    Stable at large n where upstream recurrence evaluations overflow.
    """
    k = np.arange(n_nodes, dtype=float)
    try:
        x, q = eigh_tridiagonal(2.0 * k + 1.0, k[1:])
    except Exception as exc:  # pragma: no cover - LAPACK failure path
        raise QuadratureError(f"Gauss-Laguerre rule with {n_nodes} nodes failed: {exc}") from exc
    w = q[0, :] ** 2
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise QuadratureError(f"Gauss-Laguerre rule with {n_nodes} nodes returned non-finite data")
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
    """

    def __init__(self, *, gtaus=None, weights=None, g_bar: float | None = None):
        if (gtaus is None) == (g_bar is None):
            raise ValueError("exactly one of node list or g_bar must be given")
        self._gtaus = None if gtaus is None else np.asarray(gtaus, dtype=float)
        self._weights = None if gtaus is None else np.asarray(weights, dtype=float)
        self._g_bar = None if g_bar is None else float(g_bar)

    @classmethod
    def for_params(cls, params: MaserParams, n_nodes: int | None = None) -> "TrigAverages":
        """The family of a parameter record's distribution: the one place
        a distribution becomes a family.

        Fixed tau is its point mass and a node list its own nodes; neither
        has a rule to select, so a given ``n_nodes`` raises ``ValueError``.
        The exponential distribution is the closed form, or with
        ``n_nodes`` the Gauss-Laguerre rule of that many nodes.
        """
        dist = params.tau_dist
        if isinstance(dist, ExponentialTau):
            if n_nodes is None:
                return cls(g_bar=params.g_bar)
        elif n_nodes is not None:
            raise ValueError(f"{type(dist).__name__} has its own nodes; n_nodes={n_nodes} selects no rule")
        nodes = quadrature_nodes(dist, 1 if n_nodes is None else n_nodes)
        return cls(gtaus=params.g * nodes.taus, weights=nodes.weights)

    @property
    def point_data(self) -> tuple[np.ndarray, np.ndarray]:
        """Rabi angles g*tau_k and weights of the node list."""
        if self._gtaus is None:
            raise ValueError("closed-form averages carry no node list")
        return self._gtaus, self._weights

    # -- elementary products ------------------------------------------------

    def _outer(self, x):
        return np.multiply.outer(self._gtaus, np.asarray(x, dtype=float))

    def cos_cos(self, x, y):
        if self._gtaus is None:
            a = self._g_bar * np.asarray(x, dtype=float)
            b = self._g_bar * np.asarray(y, dtype=float)
            dm = a - b
            dp = a + b
            return 0.5 * (1.0 / (1.0 + dm * dm) + 1.0 / (1.0 + dp * dp))
        return np.tensordot(self._weights, np.cos(self._outer(x)) * np.cos(self._outer(y)), axes=(0, 0))

    def sin_sin(self, x, y):
        if self._gtaus is None:
            a = self._g_bar * np.asarray(x, dtype=float)
            b = self._g_bar * np.asarray(y, dtype=float)
            dm = a - b
            dp = a + b
            # product form: no cancellation for a ~ b
            return 2.0 * a * b / ((1.0 + dm * dm) * (1.0 + dp * dp))
        return np.tensordot(self._weights, np.sin(self._outer(x)) * np.sin(self._outer(y)), axes=(0, 0))

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
        arg = self._outer(s)
        sinc = np.sinc(arg / np.pi)  # numpy sinc is sin(pi x)/(pi x)
        if snap_trapping:
            sinc = np.where(np.abs(sinc) < TRAPPING_SINC_TOL, 0.0, sinc)
        return np.tensordot(self._weights, (self._gtaus**2)[:, None] * sinc * sinc, axes=(0, 0))

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
        # with A - B = g tau / sigma.
        mid = 0.5 * np.multiply.outer(self._gtaus, sigma)
        half_diff = 0.5 * np.multiply.outer(self._gtaus, 1.0 / sigma)
        sin_half = np.sin(half_diff)
        cos_diff = -2.0 * np.sin(mid) * sin_half
        sin_diff = 2.0 * s1[None, :] * np.cos(mid) * sin_half + np.sin(np.multiply.outer(self._gtaus, s)) / sigma[None, :]
        return (
            np.tensordot(self._weights, cos_diff * cos_diff, axes=(0, 0)),
            np.tensordot(self._weights, sin_diff * sin_diff, axes=(0, 0)),
        )

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
        half = 0.5 * self._outer(inv_sigma)
        s = np.sin(half)
        return np.tensordot(self._weights, 2.0 * s * s, axes=(0, 0))

    def jump_diagonals(self, phi) -> list[tuple[float, np.ndarray, bool]]:
        """Pump jump operators at phi = sqrt(n+1) as ``(weight, diagonal,
        raising)``: sqrt(r weight) diag(diagonal), preceded by adag if
        ``raising``.  Per node a cosine operator cos(g tau_k phi) and a gain
        operator g tau_k sinc(g tau_k phi); the closed form has no finite
        set and raises ``ValueError``."""
        gtaus, weights = self.point_data
        ops = []
        for gtau, dp in zip(gtaus, weights):
            arg = gtau * phi
            ops.append((dp, np.cos(arg), False))
            ops.append((dp, np.sinc(arg / np.pi) * gtau, True))
        return ops
