"""Physical parameters and interaction-time distributions.

Every computation in this package consumes a single :class:`MaserParams`
record: cavity decay rate ``kappa``, thermal occupation ``n_th``, atom
injection rate ``r``, one-photon Rabi frequency ``g`` and a distribution
for the atom-cavity interaction time.  Physics only depends on the
dimensionless combinations ``r/kappa``, ``g*tau`` and ``n_th``; ``kappa``
fixes the unit in which rates (and the linewidth) are expressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_WEIGHT_SUM_TOL = 1e-12

# The closed exponential forms multiply up to three factors (g tau_bar)^2 (n+1);
# at g tau_bar <= G_BAR_MAX they stay finite at every level n below 1e20.
G_BAR_MAX = 1e40


@dataclass(frozen=True)
class FixedTau:
    """Point mass: every atom interacts for exactly ``tau``."""

    tau: float

    def __post_init__(self):
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError(f"interaction time must be positive and finite, got {self.tau}")


@dataclass(frozen=True)
class ExponentialTau:
    """Exponentially distributed interaction time with mean ``tau_bar``."""

    tau_bar: float

    def __post_init__(self):
        if not (self.tau_bar > 0 and math.isfinite(self.tau_bar)):
            raise ValueError(f"mean interaction time must be positive and finite, got {self.tau_bar}")


@dataclass(frozen=True, eq=False)
class DiscreteTau:
    """Finite node list ``(tau_k, dp_k)`` with weights summing to one."""

    taus: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        taus = np.atleast_1d(np.asarray(self.taus, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "weights", weights)
        if taus.shape != weights.shape or taus.ndim != 1 or taus.size == 0:
            raise ValueError("nodes and weights must be matching non-empty 1-d sequences")
        if not np.all(np.isfinite(taus)) or not np.all(taus > 0):
            raise ValueError("all interaction times must be positive and finite")
        if not np.all(weights > 0):
            raise ValueError("all node weights must be positive")
        total = weights.sum()
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"node weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")


InteractionTimeDistribution = FixedTau | ExponentialTau | DiscreteTau


@dataclass(frozen=True)
class MaserParams:
    """Rates of the micromaser master equation plus the tau distribution.

    Parameters
    ----------
    kappa:
        Cavity decay rate, > 0.  Sets the unit of every returned rate.
    n_th:
        Thermal occupation of the cavity environment, >= 0.
    r:
        Injection rate of excited atoms (Poissonian beam), >= 0.
    g:
        One-photon Rabi frequency, > 0.
    tau_dist:
        Interaction-time distribution.  (g*tau)^2 and r/kappa*(g*tau)^2 must
        be finite, and an exponential one needs g*tau_bar <= G_BAR_MAX.
    """

    kappa: float
    n_th: float
    r: float
    g: float
    tau_dist: InteractionTimeDistribution

    def __post_init__(self):
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if not (self.n_th >= 0 and math.isfinite(self.n_th)):
            raise ValueError(f"n_th must be non-negative and finite, got {self.n_th}")
        if not (self.r >= 0 and math.isfinite(self.r)):
            raise ValueError(f"r must be non-negative and finite, got {self.r}")
        if not (self.g > 0 and math.isfinite(self.g)):
            raise ValueError(f"g must be positive and finite, got {self.g}")
        if not isinstance(self.tau_dist, (FixedTau, ExponentialTau, DiscreteTau)):
            raise TypeError(f"unsupported interaction-time distribution: {self.tau_dist!r}")
        angle = self.g * self.tau_scale
        angle2 = angle * angle
        pump = self.n_ex * angle2
        if not (math.isfinite(angle2) and math.isfinite(pump)):
            raise ValueError(f"(g*tau)^2 and r/kappa*(g*tau)^2 must be finite, got {angle2!r} and {pump!r}")
        if isinstance(self.tau_dist, ExponentialTau) and angle > G_BAR_MAX:
            raise ValueError(f"g*tau_bar must be at most {G_BAR_MAX:g} for the closed exponential forms, got {angle!r}")

    @property
    def n_ex(self) -> float:
        """Atoms injected per cavity lifetime, r / kappa."""
        return self.r / self.kappa

    @property
    def tau_scale(self) -> float:
        """The fixed tau, the mean tau or the largest node."""
        dist = self.tau_dist
        if isinstance(dist, DiscreteTau):
            return float(dist.taus.max())
        return dist.tau if isinstance(dist, FixedTau) else dist.tau_bar

    def theta(self, tau: float) -> float:
        """Pump parameter sqrt(r/kappa) * g * tau for a given interaction time."""
        return math.sqrt(self.n_ex) * self.g * tau

    @property
    def g_bar(self) -> float:
        """Rabi angle per mean interaction time, g * tau_bar (exponential only)."""
        if not isinstance(self.tau_dist, ExponentialTau):
            raise ValueError("g_bar is defined for exponentially distributed interaction times")
        return self.g * self.tau_dist.tau_bar

    @property
    def theta_bar(self) -> float:
        """Pump parameter sqrt(r/kappa) * g * tau_bar (exponential only)."""
        return math.sqrt(self.n_ex) * self.g_bar
