import math

import numpy as np
import pytest

from maserline import (
    DiscreteTau,
    ExponentialTau,
    FixedTau,
    MaserParams,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kappa=0.0),
        dict(kappa=-1.0),
        dict(n_th=-0.1),
        dict(r=-5.0),
        dict(g=0.0),
        dict(g=math.inf),
    ],
)
def test_params_validation(kwargs):
    base = dict(kappa=1.0, n_th=0.1, r=10.0, g=0.5, tau_dist=FixedTau(1.0))
    base.update(kwargs)
    with pytest.raises(ValueError):
        MaserParams(**base)


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


def test_canonical_preserves_dimensionless_combinations():
    p = MaserParams(kappa=2.5, n_th=0.2, r=80.0, g=0.7, tau_dist=FixedTau(0.9))
    c = p.canonical()
    assert c.kappa == 1.0
    assert c.n_ex == pytest.approx(p.n_ex, rel=1e-15)
    assert c.g * c.tau_dist.tau == pytest.approx(p.g * p.tau_dist.tau, rel=1e-15)
    ce = MaserParams(kappa=4.0, n_th=0.0, r=64.0, g=1.2, tau_dist=ExponentialTau(0.25)).canonical()
    assert ce.theta_bar == pytest.approx(math.sqrt(16.0) * 0.3, rel=1e-15)
