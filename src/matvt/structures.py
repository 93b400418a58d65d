"""Constrained mean and scatter updates shared by both fitters.

The mean updates are closed forms in the weighted sufficient statistics
S_S = sum_i S_i and S_SX = sum_i S_i X_i (with S_i = Sigma^-1 for the
normal fit).  A scatter update maximizes the direct form
c log|S| - tr(S T)/2 (the t fit's row scatter, which enters its Wishart
part) or the inverse form -c log|S| - tr(S^-1 A)/2 (every other update).
The inverse form is the direct form in S^-1, so one profile search fits
an AR(1) or compound-symmetry scatter scale * R(rho) in either form, and
each of its evaluations is scalar arithmetic on sums of the statistic.
"""

from functools import reduce

import numpy as np
from scipy.optimize import minimize_scalar

from .datamodel import Ar1Matrix, CsMatrix, MeanStructure, ScatterStructure, corr_logdet
from .errors import SingularUpdateError
from .linalg import symmetrize

_RHO_TOL = 1e-7
# points of the grid that checks the rho search for a better mode
_RHO_GRID = 21


def constrained_mean(s_s, s_sx, omega, mean_structure, p, q):
    """M-step mean under a structure constraint.

    ``omega`` is the column scatter used to weight across columns; it only
    enters the constant and row-constant cases.
    """
    if mean_structure == MeanStructure.FREE:
        return np.linalg.solve(s_s, s_sx)
    if mean_structure == MeanStructure.COLUMN_CONSTANT:
        mu = s_sx.sum(axis=0) / s_s.sum()
        return np.tile(mu, (p, 1))
    w = np.linalg.solve(omega, np.ones(q))
    if mean_structure == MeanStructure.CONSTANT:
        num = np.ones(p) @ s_sx @ w
        den = s_s.sum() * w.sum()
        return (num / den) * np.ones((p, q))
    if mean_structure == MeanStructure.ROW_CONSTANT:
        mu = np.linalg.solve(s_s, s_sx) @ w / w.sum()
        return np.outer(mu, np.ones(q))
    raise ValueError(f"unknown mean structure {mean_structure!r}")


def _maximize_rho(profile, kind, d):
    """Maximize ``profile`` over rho on its bounds, for d > 1.

    The profile need not be unimodal: when a point of a grid uniform in
    atanh(rho) beats the bounded search, the search reruns between that
    point's neighbours.  It stops about xatol short of a bound, so the
    nearer bound is taken when it does no worse.
    """
    lo = -0.99 if kind == ScatterStructure.AR1 else -1.0 / (d - 1) + 1e-3
    hi = 0.99

    def search(a, b):
        res = minimize_scalar(
            lambda r: -profile(r), bounds=(a, b), method="bounded",
            options={"xatol": _RHO_TOL},
        )
        return -float(res.fun), float(res.x)

    best, rho = search(lo, hi)
    grid = np.tanh(np.linspace(np.arctanh(lo), np.arctanh(hi), _RHO_GRID))
    values = [profile(r) for r in grid]
    i = int(np.argmax(values))
    if values[i] > best:
        best, rho = search(grid[max(i - 1, 0)], grid[min(i + 1, _RHO_GRID - 1)])
    edge = lo if rho - lo < hi - rho else hi
    return edge if profile(edge) >= best else rho


def _trace_form(stat, kind, d, direct):
    """rho -> tr(P stat), P = R(rho) (direct) or R(rho)^-1, from sums of ``stat`` taken once.

    AR(1): tr(R T) is a polynomial in T's band sums, and R^-1 is tridiagonal.
    CS: both forms need only tr(stat) and 1^T stat 1 (R^-1 by Sherman-Morrison).
    """
    t = float(np.trace(stat))
    if kind == ScatterStructure.CS:
        s = float(stat.sum())
        if direct:
            return lambda r: (1.0 - r) * t + r * s
        return lambda r: (t - r * s / (1.0 + (d - 1) * r)) / (1.0 - r)
    idx = np.arange(d)
    # bands[k] sums both k-th off-diagonals of stat (bands[0] is its trace, bands[d] is 0)
    bands = np.bincount(abs(idx[:, None] - idx).ravel(), weights=stat.ravel(), minlength=d + 1)
    if direct:
        coeffs = bands[:d][::-1].tolist()
        return lambda r: reduce(lambda acc, b: acc * r + b, coeffs, 0.0)
    # R^-1 (1 - rho^2) has 1 + rho^2 on the diagonal but 1 at both corners, -rho beside it
    off, ends = float(bands[1]), float(t - stat[0, 0] - stat[-1, -1])
    return lambda r: (t + r * r * ends - r * off) / (1.0 - r * r)


def _structured(stat, c, kind, d, direct):
    """Maximize the direct (``direct=True``) or inverse form over scale * R(rho).

    Both read c log|P| - tr(P stat)/2, with P = u R (direct, S = P) or
    P = u R^-1 (inverse, S = P^-1).  At each rho the scale u = 2cd / tr(P stat)
    is closed form and the profile is c (d log u + log|R^+-1|).  d = 1 has rho = 0
    and no search.  A zero statistic (no positive u) raises SingularUpdateError.
    """
    trace = _trace_form(stat, kind, d, direct)
    sign = 1.0 if direct else -1.0

    def profile(rho):
        tr = trace(rho)
        if not tr > 0:
            return -np.inf
        return c * (d * np.log(2.0 * c * d / tr) + sign * corr_logdet(kind, d, rho))

    rho = _maximize_rho(profile, kind, d) if d > 1 else 0.0
    tr = trace(rho)
    if not tr > 0:
        raise SingularUpdateError(f"{kind.value} scatter update is not positive definite")
    u = 2.0 * c * d / tr
    cls = Ar1Matrix if kind == ScatterStructure.AR1 else CsMatrix
    return cls(d, rho, u if direct else 1.0 / u)


def structured_scatter_direct(T, c1, kind, d):
    """The structured S maximizing c1*log|S| - tr(S T)/2, as a matrix object."""
    return _structured(T, c1, kind, d, direct=True)


def update_scatter_direct(T, c1, kind, d):
    """Dense S maximizing c1*log|S| - tr(S T)/2; FREE is 2 c1 T^-1."""
    if kind == ScatterStructure.FREE:
        return symmetrize(2.0 * c1 * np.linalg.inv(T))
    return structured_scatter_direct(T, c1, kind, d).full()


def update_scatter_inverse(A, c2, kind, d):
    """Dense S maximizing -c2*log|S| - tr(S^-1 A)/2; FREE is A / (2 c2)."""
    if kind == ScatterStructure.FREE:
        return A / (2.0 * c2)
    return _structured(A, c2, kind, d, direct=False).full()
