import math
import warnings

import numpy as np
import pytest

from maserline import (
    DiscreteTau,
    ExponentialTau,
    FixedTau,
    MaserParams,
    PhotonStatistics,
    TrigAverages,
    linewidth_exp_closed,
)
from maserline.model import G_BAR_MAX


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kappa=0.0),
        dict(kappa=-1.0),
        dict(n_th=-0.1),
        dict(r=-5.0),
        dict(g=0.0),
        dict(g=math.inf),
        # (g*tau)^2 or r/kappa*(g*tau)^2 beyond float range, tau the fixed
        # tau, the mean or the largest node
        dict(g=1e155),
        dict(g=1e155, tau_dist=ExponentialTau(1.0)),
        dict(r=1e300, g=1e5, tau_dist=ExponentialTau(1.0)),
        dict(g=1e150, tau_dist=DiscreteTau(np.array([1.0, 1e6]), np.array([0.5, 0.5]))),
    ],
)
def test_params_validation(kwargs):
    base = dict(kappa=1.0, n_th=0.1, r=10.0, g=0.5, tau_dist=FixedTau(1.0))
    base.update(kwargs)
    with pytest.raises(ValueError):
        MaserParams(**base)


def test_exponential_g_tau_bar_bound():
    """The bound applies to g*tau_bar only, is inclusive, and keeps every
    closed exponential form finite and warning-free up to level 1e19."""
    with pytest.raises(ValueError, match="g\\*tau_bar"):
        MaserParams(1.0, 0.0, 3.0, 2.0 * G_BAR_MAX, ExponentialTau(1.0))
    MaserParams(1.0, 0.0, 3.0, 2.0 * G_BAR_MAX, FixedTau(1.0))
    p = MaserParams(1.0, 0.0, 3.0, G_BAR_MAX, ExponentialTau(1.0))
    family = TrigAverages.for_params(p)
    n = np.array([0.0, 1.0, 1e6, 1e19])
    s = np.sqrt(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [
            family.cos_cos(s, s + 1.0), family.sin_sin(s, s + 1.0), family.pump_gain(s + 1.0),
            *family.squared_differences(n), family.one_minus_cos_diff(1.0 / (s + np.sqrt(n + 1.0))),
        ]
        closed = linewidth_exp_closed(p, PhotonStatistics.from_probabilities(np.array([0.5, 0.5])))
    assert all(np.all(np.isfinite(v)) for v in values) and math.isfinite(closed)


def test_distribution_validation():
    with pytest.raises(ValueError):
        FixedTau(0.0)
    with pytest.raises(ValueError):
        ExponentialTau(-1.0)
    with pytest.raises(ValueError):
        DiscreteTau(np.array([1.0, 2.0]), np.array([0.7, 0.2]))  # sums to 0.9
    with pytest.raises(ValueError):
        DiscreteTau(np.array([1.0, -2.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscreteTau(np.array([1.0, 2.0]), np.array([1.0, 0.0]))


def test_theta_definition():
    p = MaserParams(kappa=2.0, n_th=0.0, r=100.0, g=0.5, tau_dist=FixedTau(1.0))
    assert p.theta(1.0) == pytest.approx(math.sqrt(50.0) * 0.5, rel=1e-15)
    pe = MaserParams(kappa=1.0, n_th=0.0, r=4.0, g=0.3, tau_dist=ExponentialTau(2.0))
    assert pe.g_bar == pytest.approx(0.6)
    assert pe.theta_bar == pytest.approx(1.2)


def test_g_bar_requires_exponential():
    p = MaserParams(kappa=1.0, n_th=0.0, r=1.0, g=0.5, tau_dist=FixedTau(1.0))
    with pytest.raises(ValueError):
        _ = p.g_bar

