"""Reference implementations the tests check the library against.

* The dense brute-force oracle: :class:`DenseLindblad` assembles the
  literal superoperator from dense jump matrices and knows nothing about
  sectors, recurrences or detailed balance.  The banded generator shares
  its truncated-operator boundary convention, so one dense application
  reproduces G exactly, including the last row.  ``to_dense`` and
  ``generator_matrix`` give the dense matrices of a single-band operator
  and of a sideband generator.
* A 40-digit reference: :func:`reference_linewidth` evaluates the
  detailed-balance recurrence, <n> and the exact trace formula for D in
  mpmath from the same float inputs, with the tau averages taken from
  their definitions (per-node trig terms, or the closed rational averages
  of the exponential measure) rather than from the library's
  cancellation-free identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from maserline import ExponentialTau, FixedTau

# ---------------------------------------------------------------------------
# Dense brute-force oracle
# ---------------------------------------------------------------------------


def to_dense(band) -> np.ndarray:
    """The dense matrix, or stack of matrices, of a single-band operator
    (``M[i, i + k] = values[i]``)."""
    dim = band.values.shape[-1]
    dense = np.zeros(band.shape, band.values.dtype)
    rows = np.arange(max(0, -band.k), min(dim, dim - band.k))
    dense[..., rows, rows + band.k] = band.values[..., rows]
    return dense


def generator_matrix(gen) -> np.ndarray:
    """The dense tridiagonal matrix of a ``SidebandGenerator``."""
    return np.diag(gen.diag) + np.diag(gen.sub[1:], -1) + np.diag(gen.sup[:-1], 1)


class DenseLindblad:
    """Literal dense superoperator built from a list of jump matrices,
    dense arrays or single-band operators."""

    def __init__(self, jumps):
        if not jumps:
            raise ValueError("need at least one jump operator")
        self.jumps = [np.asarray(L, dtype=float) if isinstance(L, np.ndarray) else to_dense(L) for L in jumps]
        self.anticom = sum(L.T @ L for L in self.jumps)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """d rho / dt for the full density matrix."""
        out = -0.5 * (self.anticom @ rho + rho @ self.anticom)
        for L in self.jumps:
            out += L @ rho @ L.T
        return out

    def diagonal_rate_matrix(self) -> np.ndarray:
        """Rate matrix R of the diagonal dynamics, dp/dt = R p.

        diag(L diag(p) L^T) = (L o L) p, so R is assembled from the
        literal jump matrices without any recurrence knowledge; it is the
        brute-force path restricted to the photon-number populations.
        """
        gain = sum(L * L for L in self.jumps)
        return gain - np.diag(np.diagonal(self.anticom))

    def evolve(self, rho0: np.ndarray, t_grid, rtol: float = 1e-10) -> np.ndarray:
        """Density matrices at the requested times, shape (len(t), dim, dim);
        ``AssertionError`` if the stepper stops before the end of the grid."""
        from scipy.integrate import solve_ivp

        t_grid = np.asarray(t_grid, dtype=float)
        shape = rho0.shape
        sol = solve_ivp(
            lambda t, y: self.apply(y.reshape(shape)).ravel(),
            (float(t_grid[0]), float(t_grid[-1])),
            np.asarray(rho0, dtype=float).ravel(),
            method="DOP853",
            t_eval=t_grid,
            rtol=rtol,
            atol=1e-13,
        )
        if not sol.success:
            reached = float(sol.t[-1]) if sol.t.size else float(t_grid[0])
            raise AssertionError(f"dense evolution stalled at t = {reached:g}: {sol.message}")
        return sol.y.T.reshape(len(t_grid), *shape)


def embed_sideband(v: np.ndarray, dim: int) -> np.ndarray:
    """Place v on the matrix elements (n, n+1) of a dim x dim operator."""
    P = np.zeros((dim, dim))
    idx = np.arange(len(v))
    P[idx, idx + 1] = v
    return P


def extract_sideband(P: np.ndarray) -> np.ndarray:
    """Read the coherence sector back: the (n, n+1) elements."""
    return np.diagonal(P, offset=1).copy()


def offsector_mass(P: np.ndarray) -> float:
    """Total |P_ij| outside the first upper off-diagonal."""
    mask = np.ones_like(P, dtype=bool)
    idx = np.arange(P.shape[0] - 1)
    mask[idx, idx + 1] = False
    return float(np.sum(np.abs(P[mask])))


# ---------------------------------------------------------------------------
# 40-digit reference
# ---------------------------------------------------------------------------

REFERENCE_DIGITS = 40
# levels below this share of the probability mass are left out of the D sum,
# and the recurrence stops at the first such level past which p can only fall
P_FLOOR = 1e-60


@dataclass(frozen=True)
class ReferenceLinewidth:
    """<n>, the thermal / cosine / sine parts of D and their sum, as
    40-digit mpmath numbers."""

    mean: mpmath.mpf
    thermal: mpmath.mpf
    cosine: mpmath.mpf
    sine: mpmath.mpf
    total: mpmath.mpf


def relative_error(value: float, reference: mpmath.mpf) -> float:
    """|value - reference| / |reference|, evaluated at the reference's precision."""
    with mpmath.workdps(REFERENCE_DIGITS):
        return float(abs(mpmath.mpf(value) - reference) / abs(reference))


def _node_averages(gtaus, weights):
    """The pump averages of a node list from per-node sinc and trig terms:
    gain(s) = <sin^2(g tau s)> / s^2 = <(g tau)^2 sinc^2(g tau s)>, and at
    level n, A = g tau sqrt(n+1), B = g tau sqrt(n),
    <(cos A - cos B)^2> and <(sqrt(n+1) sin A - sqrt(n) sin B)^2>."""
    nodes = [(mpmath.mpf(gt), mpmath.mpf(w)) for gt, w in zip(gtaus, weights)]

    def gain(s):
        return mpmath.fsum(w * mpmath.sin(gt * s) ** 2 for gt, w in nodes) / (s * s)

    def squared_differences(n):
        s, s1 = mpmath.sqrt(n), mpmath.sqrt(n + 1)
        cos_sq = mpmath.fsum(w * (mpmath.cos(gt * s1) - mpmath.cos(gt * s)) ** 2 for gt, w in nodes)
        sin_sq = mpmath.fsum(w * (s1 * mpmath.sin(gt * s1) - s * mpmath.sin(gt * s)) ** 2 for gt, w in nodes)
        return cos_sq, sin_sq

    return gain, squared_differences


def _exponential_averages(g_bar):
    """The same averages for an exponential tau from the closed rational
    forms <cos(a t) cos(b t)> and <sin(a t) sin(b t)>, expanded as plain
    sums of products (the cancellation costs a few of the 40 digits)."""
    g_bar = mpmath.mpf(g_bar)

    def cos_cos(a, b):
        return (1 / (1 + (a - b) ** 2) + 1 / (1 + (a + b) ** 2)) / 2

    def sin_sin(a, b):
        return 2 * a * b / ((1 + (a - b) ** 2) * (1 + (a + b) ** 2))

    def gain(s):
        return sin_sin(g_bar * s, g_bar * s) / (s * s)

    def squared_differences(n):
        s, s1 = mpmath.sqrt(n), mpmath.sqrt(n + 1)
        A, B = g_bar * s1, g_bar * s
        cos_sq = cos_cos(A, A) + cos_cos(B, B) - 2 * cos_cos(A, B)
        sin_sq = (n + 1) * sin_sin(A, A) + n * sin_sin(B, B) - 2 * s * s1 * sin_sin(A, B)
        return cos_sq, sin_sq

    return gain, squared_differences


def reference_linewidth(params, N: int) -> ReferenceLinewidth:
    """<n> and the exact trace formula

        D <n> = kappa n_th + r sum_n p_n [ n <(cos A - cos B)^2>
                                          + <(sqrt(n+1) sin A - sqrt(n) sin B)^2> ]

    at 40 digits, with p from the detailed-balance recurrence
    p_{n+1}/p_n = (n_th + (r/kappa) gain(sqrt(n+1))) / (1 + n_th) on
    levels 0..N.  The recurrence stops at the first level past which every
    link ratio is below 1 (gain <= 1/(n+1) for any tau) and p is below
    ``P_FLOOR`` of its running peak, so every later level is smaller still.
    """
    dist = params.tau_dist
    with mpmath.workdps(REFERENCE_DIGITS):
        kappa, n_th = mpmath.mpf(params.kappa), mpmath.mpf(params.n_th)
        n_ex = mpmath.mpf(params.r) / kappa
        if isinstance(dist, ExponentialTau):
            gain, squared_differences = _exponential_averages(params.g * dist.tau_bar)
        elif isinstance(dist, FixedTau):
            gain, squared_differences = _node_averages([params.g * dist.tau], [1.0])
        else:
            gain, squared_differences = _node_averages(params.g * dist.taus, dist.weights)
        p = [mpmath.mpf(1)]
        peak = p[0]
        for n in range(N):
            p.append(p[-1] * (n_th + n_ex * gain(mpmath.sqrt(n + 1))) / (1 + n_th))
            peak = max(peak, p[-1])
            # every link from level n + 1 on has ratio < 1 once n + 2 > r/kappa
            if n + 2 > params.n_ex and p[-1] < P_FLOOR * peak:
                break
        mass = mpmath.fsum(p)
        p = [pn / mass for pn in p]
        mean = mpmath.fsum(n * pn for n, pn in enumerate(p))
        cos_terms, sin_terms = [], []
        for n, pn in enumerate(p):
            if pn >= P_FLOOR:
                cos_sq, sin_sq = squared_differences(n)
                cos_terms.append(pn * n * cos_sq)
                sin_terms.append(pn * sin_sq)
        scale = kappa / mean
        thermal = n_th * scale
        cosine = n_ex * mpmath.fsum(cos_terms) * scale
        sine = n_ex * mpmath.fsum(sin_terms) * scale
        return ReferenceLinewidth(mean, thermal, cosine, sine, thermal + cosine + sine)
