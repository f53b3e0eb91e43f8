import math

import pytest

import maserline.steady
from maserline import ExponentialTau, FixedTau, MaserParams, TrigAverages


@pytest.fixture
def thermal_params():
    def make(n_th, kappa=1.0):
        return MaserParams(kappa=kappa, n_th=n_th, r=0.0, g=1.0, tau_dist=FixedTau(0.5))

    return make


@pytest.fixture
def maser_params():
    """Fixed-tau micromaser with theta specified in units of pi."""

    def make(theta_over_pi, r=50.0, n_th=0.01, kappa=1.0):
        g_tau = theta_over_pi * math.pi / math.sqrt(r / kappa)
        return MaserParams(kappa=kappa, n_th=n_th, r=r, g=g_tau * kappa, tau_dist=FixedTau(1.0 / kappa))

    return make


# the pump parameters of a block's rows, in units of pi: below threshold,
# at a trapping angle and on the plateau
ROW_THETAS = (0.3, 1.0, 2.5, 3.7)


@pytest.fixture(params=[(r, n_th) for r in (50.0, 1000.0, 5000.0) for n_th in (0.0, 0.01)],
                ids=lambda case: f"r{case[0]:g}-nth{case[1]:g}")
def row_block(request, maser_params):
    """Fixed-tau records that differ in g only, one per theta of
    ROW_THETAS, at r/kappa 50, 1000, 5000 and n_th 0, 0.01; the basis size
    4 max(50, r/kappa) the truncation search starts from; and the family
    with one row per record."""
    r, n_th = request.param
    rows = [maser_params(theta, r=r, n_th=n_th) for theta in ROW_THETAS]
    N = 4 * int(max(50.0, r))
    return rows, N, TrigAverages.for_params(rows)


@pytest.fixture
def laser_params():
    """Exponential-tau laser with pump set through theta_bar at g_bar fixed."""

    def make(theta_bar, g_bar=0.3, n_th=0.0, kappa=1.0):
        r = (theta_bar / g_bar) ** 2 * kappa
        return MaserParams(kappa=kappa, n_th=n_th, r=r, g=g_bar * kappa, tau_dist=ExponentialTau(1.0 / kappa))

    return make


class _RecurrenceCalls(list):
    """End level N of each ``recurrence_ratios`` call, in call order."""

    levels = 0  # ratios returned over all calls


@pytest.fixture
def recurrence_calls(monkeypatch):
    """Counts the calls of ``maserline.steady.recurrence_ratios``: the list
    holds each call's end level N, ``.levels`` the ratios they returned."""
    calls = _RecurrenceCalls()
    original = maserline.steady.recurrence_ratios

    def counted(*args, **kwargs):
        ratios = original(*args, **kwargs)
        calls.append(args[1])
        calls.levels += ratios.size
        return ratios

    monkeypatch.setattr(maserline.steady, "recurrence_ratios", counted)
    return calls
