"""Interaction-time averages of trigonometric products.

The pump terms of the master equation only ever enter through averages of
the form ``<trig(g tau x) trig(g tau y)>_tau`` where x, y are square roots
of photon numbers.  Three evaluation modes cover the supported
distributions:

* point mass / node list: plain weighted products,
* exponential: closed rational forms in ``a = g tau_bar x``,
  ``b = g tau_bar y`` (unit-mean exponential measure in t = tau/tau_bar):

  .. math::

      \\int_0^\\infty  e^{-t} \\cos(a t) \\cos(b t)\\,dt
          = \\tfrac12 \\left[ \\frac{1}{1+(a-b)^2} + \\frac{1}{1+(a+b)^2} \\right]

      \\int_0^\\infty  e^{-t} \\sin(a t) \\sin(b t)\\,dt
          = \\frac{2ab}{(1+(a-b)^2)\\,(1+(a+b)^2)}

      \\int_0^\\infty  e^{-t} \\sin(a t) \\cos(b t)\\,dt
          = \\tfrac12 \\left[ \\frac{a+b}{1+(a+b)^2} + \\frac{a-b}{1+(a-b)^2} \\right]

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


def exp_average_trig(kind: str, a, b):
    """Average of a product of trigs over the unit-mean exponential measure.

    Evaluates ``int_0^inf exp(-t) trig(a t) trig(b t) dt`` exactly as a
    rational function of ``a`` and ``b``.

    Parameters
    ----------
    kind:
        One of ``"cos_cos"``, ``"sin_sin"``, ``"sin_cos"`` (first trig
        takes ``a``, second takes ``b``).
    a, b:
        Dimensionless frequency-time products; scalars or arrays.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("exp_average_trig requires finite arguments")
    dm = a - b
    dp = a + b
    one_m = 1.0 + dm * dm
    one_p = 1.0 + dp * dp
    if kind == "cos_cos":
        out = 0.5 * (1.0 / one_m + 1.0 / one_p)
    elif kind == "sin_sin":
        # product form: no cancellation for a ~ b
        out = 2.0 * a * b / (one_m * one_p)
    elif kind == "sin_cos":
        out = 0.5 * (dp / one_p + dm / one_m)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return out if out.shape else float(out)


def _gauss_laguerre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Golub-Welsch rule for the weight exp(-x) on [0, inf).

    The Jacobi matrix of the Laguerre recurrence has diagonal 2k+1 and
    off-diagonal k; nodes are its eigenvalues and each weight is the
    squared first eigenvector component (the measure has unit mass).
    Stable at large n where upstream recurrence evaluations overflow.
    """
    if n_nodes == 1:
        return np.array([1.0]), np.array([1.0])
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

    * Fixed tau maps to a single node with unit weight (any ``n_nodes``).
    * Discrete node lists pass through unchanged.
    * Exponential maps to the ``n_nodes``-point Gauss-Laguerre rule scaled
      by the mean, exact for polynomials up to degree ``2 n_nodes - 1``
      against the density ``exp(-tau/tau_bar)/tau_bar``.  Nodes whose
      weight underflowed to zero are dropped.
    """
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
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
    dist: InteractionTimeDistribution,
    evaluate: Callable[[DiscreteTau], np.ndarray | float],
    rel_tol: float = 1e-8,
    start: int = 8,
    max_nodes: int = 512,
):
    """Node-doubling ladder: 8, 16, ..., re-evaluating until stable.

    ``evaluate`` is called with successively finer discretizations until
    two consecutive results agree to ``rel_tol`` (relative to the largest
    magnitude).  The integrands downstream oscillate at frequencies that
    grow with g*tau*sqrt(n), so no fixed node count is safe a priori.

    Returns the converged value; raises :class:`QuadratureError` if the
    ladder is exhausted.
    """
    previous = None
    n = start
    while n <= max_nodes:
        value = np.asarray(evaluate(quadrature_nodes(dist, n)), dtype=float)
        if previous is not None and previous.shape == value.shape:
            scale = max(float(np.max(np.abs(value))), 1e-300)
            if float(np.max(np.abs(value - previous))) <= rel_tol * scale:
                return value if value.shape else float(value)
        previous = value
        n *= 2
    raise QuadratureError(
        f"node doubling did not stabilize to {rel_tol} within {max_nodes} nodes"
    )


class TrigAverages:
    """Averages <trig(g tau x) trig(g tau y)> for one parameter record.

    Instances are immutable and safe to share.  ``x``/``y`` arguments are
    the sqrt-photon-number factors; the Rabi frequency and the
    distribution are folded in at construction.

    When two arguments differ by a numerically delicate amount (e.g.
    sqrt(n+1) - sqrt(n) at large n) the caller may pass the stable
    difference explicitly via ``diff``.
    """

    def __init__(self, g: float, *, taus=None, weights=None, g_bar: float | None = None):
        if (taus is None) == (g_bar is None):
            raise ValueError("exactly one of node list or g_bar must be given")
        self._g = float(g)
        if taus is not None:
            self._gtaus = self._g * np.asarray(taus, dtype=float)
            self._weights = np.asarray(weights, dtype=float)
            self._g_bar = None
        else:
            self._gtaus = None
            self._weights = None
            self._g_bar = float(g_bar)

    @classmethod
    def for_params(cls, params: MaserParams, n_nodes: int | None = None) -> "TrigAverages":
        """Default averages for a parameter record.

        Fixed and Discrete distributions use their own nodes.  The
        exponential distribution uses the closed forms unless ``n_nodes``
        requests a Gauss-Laguerre discretization.
        """
        dist = params.tau_dist
        if isinstance(dist, ExponentialTau) and n_nodes is None:
            return cls(params.g, g_bar=params.g_bar)
        nodes = quadrature_nodes(dist, 1 if n_nodes is None else n_nodes)
        return cls(params.g, taus=nodes.taus, weights=nodes.weights)

    @classmethod
    def from_nodes(cls, g: float, nodes: DiscreteTau) -> "TrigAverages":
        return cls(g, taus=nodes.taus, weights=nodes.weights)

    @property
    def is_closed_form(self) -> bool:
        return self._g_bar is not None

    @property
    def nodes(self) -> DiscreteTau:
        if self._gtaus is None:
            raise ValueError("closed-form averages carry no node list")
        return DiscreteTau(self._gtaus / self._g, self._weights)

    @property
    def point_data(self) -> tuple[np.ndarray, np.ndarray]:
        """Rabi angles g*tau_k and weights of the node list."""
        if self._gtaus is None:
            raise ValueError("closed-form averages carry no node list")
        return self._gtaus, self._weights

    @property
    def g_bar(self) -> float:
        if self._g_bar is None:
            raise ValueError("node-list averages carry no g_bar")
        return self._g_bar

    # -- elementary products ------------------------------------------------

    def _outer(self, x):
        return np.multiply.outer(self._gtaus, np.asarray(x, dtype=float))

    def cos_cos(self, x, y):
        if self.is_closed_form:
            return exp_average_trig("cos_cos", self._g_bar * np.asarray(x, float), self._g_bar * np.asarray(y, float))
        return np.tensordot(self._weights, np.cos(self._outer(x)) * np.cos(self._outer(y)), axes=(0, 0))

    def sin_sin(self, x, y):
        if self.is_closed_form:
            return exp_average_trig("sin_sin", self._g_bar * np.asarray(x, float), self._g_bar * np.asarray(y, float))
        return np.tensordot(self._weights, np.sin(self._outer(x)) * np.sin(self._outer(y)), axes=(0, 0))

    def sin_cos(self, x, y):
        if self.is_closed_form:
            return exp_average_trig("sin_cos", self._g_bar * np.asarray(x, float), self._g_bar * np.asarray(y, float))
        return np.tensordot(self._weights, np.sin(self._outer(x)) * np.cos(self._outer(y)), axes=(0, 0))

    # -- stable compound averages used by the recurrence and the weights ----

    def pump_gain(self, s, snap_trapping: bool = False):
        """<(g tau)^2 sinc^2(g tau s)>, the per-atom gain factor at sqrt-level s.

        With ``snap_trapping`` every node whose |sinc| falls below
        ``TRAPPING_SINC_TOL`` contributes an exact zero, so trapping
        states truncate the photon statistics with hard zeros.
        """
        s = np.asarray(s, dtype=float)
        if self.is_closed_form:
            a = self._g_bar * s
            return 2.0 * self._g_bar**2 / (1.0 + 4.0 * a * a)
        arg = self._outer(s)
        sinc = np.sinc(arg / np.pi)  # numpy sinc is sin(pi x)/(pi x)
        if snap_trapping:
            sinc = np.where(np.abs(sinc) < TRAPPING_SINC_TOL, 0.0, sinc)
        return np.tensordot(self._weights, (self._gtaus**2)[:, None] * sinc * sinc, axes=(0, 0))

    def one_minus_cos_diff(self, inv_sigma):
        """<1 - cos(g tau / sigma)> with 1/sigma = x - y supplied stably.

        Used by the narrow-distribution pump weight; evaluated through
        sin^2 (point nodes) or d^2/(1+d^2) (closed form) so no subtractive
        cancellation occurs at large photon number.
        """
        inv_sigma = np.asarray(inv_sigma, dtype=float)
        if self.is_closed_form:
            d = self._g_bar * inv_sigma
            return d * d / (1.0 + d * d)
        half = 0.5 * self._outer(inv_sigma)
        s = np.sin(half)
        return np.tensordot(self._weights, 2.0 * s * s, axes=(0, 0))
