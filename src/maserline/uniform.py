"""Uniform few-operator approximation of the exponentially averaged pump.

For an exponentially distributed interaction time the continuum of pump
operators can be traded for a small discrete family.  Writing t =
tau/tau_bar, the standard Laguerre polynomials L_k(t) are orthonormal
under the unit-mean exponential measure, and

    cos(x t) = sum_k ck_cos(x) L_k(t),   sin(x t) = sum_k ck_sin(x) L_k(t),

with coefficients that follow from the Laplace transform of L_k:

    int_0^inf e^{-t} L_k(t) e^{ixt} dt = (-ix)^k / (1 - ix)^(k+1),

so ck_cos and ck_sin are its real and imaginary parts: rational in x with
denominator (1 + x^2)^(k+1).  By orthonormality the tau-integrated pump
dissipator collapses exactly to one dissipator per retained degree, with
jump operators

    cosine family:  sqrt(r)  ck_cos(gb phi)            (Hermitian, diagonal)
    sine family:    sqrt(r)  adag  ck_sin(gb phi)/phi

where gb = g tau_bar and phi is the diagonal sqrt(n+1).  Truncating the
two families at finite degree gives a master equation in explicitly
trace-preserving dissipator form.  Successive coefficients shrink by the
ratio x/sqrt(1+x^2), so the truncated tail beyond degree K goes like
(x^2/(1+x^2))^K ~ exp(-K/x^2): accuracy degrades once the photon
statistics reach levels with gb^2 n proportional to the retained order,
i.e. gb sqrt(n) grows only like the square root of the order.

The truncated model differs from the exact one only in its tau averages,
which become truncated Parseval sums: it is a family of averages
(:class:`LaguerreAverages`) next to node lists and the closed form, served
by the generic builders, not a separate set of builders.
"""

from __future__ import annotations

import numpy as np

from .averages import TrigAverages
from .model import ExponentialTau, MaserParams
from .regression import SidebandGenerator, build_sideband_generator, initial_sideband, linewidth_from_slope
from .steady import PhotonStatistics, steady_state, steady_states


# entries a LaguerreAverages keeps before it starts afresh: a row of
# uniform-convergence reads the tables of 5 distinct arguments and 6 sums
_MEMO_SIZE = 16


def _key(x) -> tuple:
    """The memo key of an argument: its float64 shape and bytes."""
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


def _read_only(value) -> np.ndarray:
    value = np.asarray(value)
    value.flags.writeable = False
    return value


def _laguerre_powers(x: np.ndarray, order: int) -> np.ndarray:
    """Complex coefficients z_k = (-ix)^k / (1 - ix)^(k+1), k = 0..order.

    Evaluated by the stable multiplicative recurrence
    z_{k+1} = z_k * (-ix)/(1 - ix) starting from z_0 = 1/(1 - ix); the
    ratio has modulus x/sqrt(1+x^2) < 1, so no growth occurs.
    """
    z = 1.0 / (1.0 - 1j * x)
    ratio = -1j * x * z
    out = np.empty((order + 1,) + x.shape, dtype=complex)
    current = z
    for k in range(order + 1):
        out[k] = current
        current = current * ratio
    return out


class LaguerreAverages(TrigAverages):
    """Tau averages of the uniform approximation: truncated Parseval sums.

    The exponential average of trig(g tau x) trig(g tau y) becomes
    sum_k c_k(gb x) c_k(gb y) over the Laguerre coefficients of the two
    factors, with the cosine family kept to degree ``order_cos`` and the
    sine family to ``order_sin``.  ``<cos^2 + sin^2>`` then falls below 1,
    which is all that sets the generator of the truncated model apart.

    ``one_minus_cos_diff`` is inherited from the closed form:
    <cos(d t)> = <cos(d t) L_0(t)> has only its degree-0 coefficient, so
    the truncated sum is the closed form at every order.
    """

    def __init__(self, g_bar: float, order_sin: int, order_cos: int):
        super().__init__(g_bar=g_bar)
        self.order_sin = order_sin
        self.order_cos = order_cos
        # read-only entries: argument (shape, bytes) -> coefficient tables, and
        # (method, argument keys) -> the sums of cos_cos, sin_sin and
        # anticommutator_norm, which depend on the arguments alone
        self._memo: dict[tuple, tuple[np.ndarray, np.ndarray] | np.ndarray] = {}

    def _memoized(self, key, compute):
        """The memo's entry at ``key``, computed on first use."""
        value = self._memo.get(key)
        if value is None:
            value = compute()
            if len(self._memo) >= _MEMO_SIZE:
                self._memo.clear()
            self._memo[key] = value
        return value

    def _tables(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Cosine and sine coefficient tables [k, ...] at gb x, from one
        recurrence per distinct argument; the tables are read-only."""
        x = np.asarray(x, dtype=float)

        def tables():
            z = _read_only(_laguerre_powers(self._g_bar * x, max(self.order_sin, self.order_cos)))
            return z.real[: self.order_cos + 1], z.imag[: self.order_sin + 1]

        return self._memoized(_key(x), tables)

    def cos_cos(self, x, y):
        return self._memoized(
            ("cos_cos", _key(x), _key(y)),
            lambda: _read_only(np.sum(self._tables(x)[0] * self._tables(y)[0], axis=0)),
        )

    def sin_sin(self, x, y):
        return self._memoized(
            ("sin_sin", _key(x), _key(y)),
            lambda: _read_only(np.sum(self._tables(x)[1] * self._tables(y)[1], axis=0)),
        )

    def anticommutator_norm(self, s):
        def norm():
            cos, sin = self._tables(s)
            return _read_only(np.sum(cos * cos, axis=0) + np.sum(sin * sin, axis=0))

        return self._memoized(("anticommutator_norm", _key(s)), norm)

    def pump_gain(self, s, snap_trapping: bool = False):
        # rational in s with no zero at s > 0: no trapping states to snap
        s = np.asarray(s, dtype=float)
        return self.sin_sin(s, s) / (s * s)

    def squared_differences(self, n):
        n = np.asarray(n, dtype=float)
        s = np.sqrt(n)
        s1 = np.sqrt(n + 1.0)
        cos_up, sin_up = self._tables(s1)
        cos_dn, sin_dn = self._tables(s)
        return np.sum((cos_up - cos_dn) ** 2, axis=0), np.sum((s1 * sin_up - s * sin_dn) ** 2, axis=0)

    def jump_diagonals(self, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One cosine operator per cosine degree, then one gain operator
        adag ck_sin(gb phi)/phi per sine degree, each at weight 1, as the
        arrays ``(weights, diagonals, raising)`` of
        :meth:`TrigAverages.jump_diagonals`."""
        cos, sin = self._tables(phi)
        counts = [len(cos), len(sin)]
        return np.ones(sum(counts)), np.concatenate((cos, sin / phi)), np.repeat([False, True], counts)


def build_uniform_lindblad(params: MaserParams, orders: tuple[int, int]) -> LaguerreAverages:
    """The truncated family for given (order_sin, order_cos).

    The pairing keeps the sine family one degree ahead of the cosine
    family with an odd sine order, e.g. (1, 0), (3, 2), (7, 6); any other
    raises ``ValueError``.  Another pairing is a
    ``LaguerreAverages(g_bar, order_sin, order_cos)`` family built
    directly and passed to the generic builders.
    """
    if not isinstance(params.tau_dist, ExponentialTau):
        raise ValueError("the uniform approximation applies to exponential distributions")
    order_sin, order_cos = orders
    if order_sin < 1 or order_sin % 2 == 0 or order_cos != order_sin - 1:
        raise ValueError(f"orders {orders} violate the (odd sine, sine-1 cosine) pairing")
    return LaguerreAverages(params.g_bar, order_sin, order_cos)


def uniform_steady_state(params: MaserParams, averages: LaguerreAverages, N: int) -> PhotonStatistics:
    """Stationary statistics of the truncated model (its own detailed balance):

        (1 + n_th) p_{n+1} = [ n_th + n_ex sum_k ck_sin^2 / (n+1) ] p_n

    A block's records, which share g and differ in r, give the list of
    their statistics from one evaluation of the recurrence with their
    rates as a column (:func:`maserline.steady.steady_states`)."""
    if isinstance(params, MaserParams):
        return steady_state(params, N, averages)
    return steady_states(params, N, averages)


def uniform_generator(params: MaserParams, averages: LaguerreAverages, N: int) -> SidebandGenerator:
    """Coherence-sector generator of the truncated model; a block's
    records give one stacked generator whose rows carry their rates."""
    return build_sideband_generator(params, N, averages)


def uniform_linewidth(params: MaserParams, averages: LaguerreAverages, N: int) -> float:
    """Linewidth of the truncated model on levels 0..N from the initial-slope
    formula, seeded by the truncated model's own steady state.

    A block's records (rows of one N that differ in r) give the list of
    their linewidths: the statistics and the generator are built once for
    the block, and each row is reduced on its own slice, with the bits of
    its one-record call."""
    stats = uniform_steady_state(params, averages, N)
    gen = uniform_generator(params, averages, N)
    return linewidth_from_slope(gen, initial_sideband(stats))
