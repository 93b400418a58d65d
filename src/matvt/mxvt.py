"""ECME estimation of the matrix-variate t parameters.

Each iteration runs an expectation step over the latent Wishart weight
matrices, a conditional maximization of (M, Sigma, Omega) in closed form,
and, when the degrees of freedom are estimated, a one-dimensional solve of
the ML estimating equation against the observed log-likelihood.  Several
groups can be fitted together: each keeps its own mean and all share
Sigma, Omega and nu (the pooled discriminant model).
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .datamodel import (
    MatrixStack,
    MeanStructure,
    MxvtParams,
    ScatterStructure,
    StructureSpec,
    normalize_identifiability,
)
from .distributions import t_bracket
from .linalg import cholesky_logdet, safe_cholesky, symmetrize
from .mxvn import FitConfig, FitResult, _relative_change, as_groups, check_sample_size
from .specfun import lmvgamma, mvdigamma
from .structures import constrained_mean, structured_scatter_direct, update_scatter_inverse

_LOG_PI = np.log(np.pi)
_LOG_2 = np.log(2.0)

NU_ESTIMATE = "estimate"


@dataclass(frozen=True)
class EcmeConfig(FitConfig):
    """Fit configuration; ``nu`` is either a fixed value or ``"estimate"``."""

    nu: object = NU_ESTIMATE
    nu_bounds: tuple = (2.0, 1000.0)
    nu_solver_tol: float = 1e-6

    def __post_init__(self):
        super().__post_init__()
        lo, hi = self.nu_bounds
        if not (1.0 <= lo < hi):
            raise ValueError(f"nu_bounds must lie in [1, inf), got {self.nu_bounds}")
        if not self.estimate_nu and not (np.isfinite(self.nu) and self.nu >= 1):
            raise ValueError(f"fixed nu must be a real >= 1, got {self.nu!r}")

    @property
    def estimate_nu(self):
        return isinstance(self.nu, str) and self.nu == NU_ESTIMATE


@dataclass
class SufficientStats:
    """Accumulated E-step statistics of one stack.

    The matrix statistics are the sums over the expected weight matrices
    with kappa = nu + p + q - 1 factored out (the form the degrees-of-freedom
    solver uses); multiply by ``kappa`` for the plain sums.  ``s_logdet`` is
    the accumulated expected log-determinant and ``sum_logdet_z`` the sum
    of log|Z_i|.
    """

    s_s: np.ndarray
    s_sx: np.ndarray
    s_xsx: np.ndarray
    s_logdet: float
    kappa: float
    sum_logdet_z: float
    n: int


def estep(data, params):
    """Expectation step: accumulate the expected weight-matrix statistics.

    The per-observation weight is
    S_i = kappa * [(X_i - M) Omega^-1 (X_i - M)^T + Sigma]^-1 with
    kappa = nu + p + q - 1, and
    E(log|S_i|) = psi_p(kappa/2) + p log 2 + log|S_i / kappa|.
    """
    if not isinstance(data, MatrixStack):
        data = MatrixStack(np.asarray(data))
    n, p, q = data.n, data.p, data.q
    if (p, q) != (params.p, params.q):
        raise ValueError(f"data is {p}x{q} but params are {params.p}x{params.q}")
    kappa = params.nu + p + q - 1
    C, logdet_c = t_bracket(data.data, params)
    Z = symmetrize(np.linalg.inv(C))
    X = data.data
    sum_logdet_z = float(-logdet_c.sum())
    return SufficientStats(
        s_s=Z.sum(axis=0),
        s_sx=(Z @ X).sum(axis=0),
        s_xsx=symmetrize(np.einsum("nio,nij,njt->ot", X, Z, X)),
        s_logdet=n * (mvdigamma(p, kappa / 2.0) + p * _LOG_2) + sum_logdet_z,
        kappa=kappa,
        sum_logdet_z=sum_logdet_z,
        n=n,
    )


def _pool_stats(stats):
    """The statistics of several groups taken at one nu, added up."""
    return SufficientStats(
        s_s=sum(st.s_s for st in stats),
        s_sx=sum(st.s_sx for st in stats),
        s_xsx=sum(st.s_xsx for st in stats),
        s_logdet=sum(st.s_logdet for st in stats),
        kappa=stats[0].kappa,
        sum_logdet_z=sum(st.sum_logdet_z for st in stats),
        n=sum(st.n for st in stats),
    )


def cme1(stats, nu, n, p, q, structure=None, prev_omega=None):
    """First conditional maximization: update the means, Sigma and Omega.

    ``stats`` holds one :class:`SufficientStats` per group, all taken at
    ``nu``, and ``n`` is the number of observations in all of them.  Each
    group gets its own mean; Sigma and Omega are shared.  Unconstrained
    updates are the closed forms in the sufficient statistics; constrained
    means use their closed forms (weighted by the previous column scatter
    where one is required) and structured scatter matrices are fitted by
    the 1-D profile search.  Returns ``(means, Sigma, Omega)``.
    """
    structure = structure or StructureSpec()
    omega_w = prev_omega if prev_omega is not None else np.eye(q)
    means, A, s_s_all = [], 0, 0
    for st in stats:
        k = st.kappa
        s_s, s_sx, s_xsx = k * st.s_s, k * st.s_sx, k * st.s_xsx
        if structure.mean == MeanStructure.FREE:
            M = np.linalg.solve(s_s, s_sx)
            A = A + (s_xsx - s_sx.T @ M)
        else:
            M = constrained_mean(s_s, s_sx, omega_w, structure.mean, p, q)
            A = A + (s_xsx - s_sx.T @ M - M.T @ s_sx + M.T @ s_s @ M)
        means.append(M)
        s_s_all = s_s_all + s_s
    A = symmetrize(A)

    Omega = update_scatter_inverse(A, n * p / 2.0, structure.col_scatter, q)
    safe_cholesky(Omega, "column scatter")

    if structure.row_scatter == ScatterStructure.FREE:
        Sigma = symmetrize(n * (nu + p - 1) * np.linalg.inv(s_s_all))
    else:
        Sigma = structured_scatter_direct(
            s_s_all, n * (nu + p - 1) / 2.0, structure.row_scatter, p
        ).full()
    safe_cholesky(Sigma, "row scatter")
    return means, Sigma, Omega


def nu_estimating_function(nu, stats, n, p, q):
    """The factored ML estimating equation for the degrees of freedom.

    Zero at the conditional ML estimate of nu.  Proportional to the
    negative derivative of the profile log-likelihood, so it is increasing
    in nu and negative where the profile still rises.
    """
    kappa = nu + p + q - 1
    _, logdet_zs = cholesky_logdet(stats.s_s)
    return (
        mvdigamma(p, (nu + p - 1) / 2.0)
        - mvdigamma(p, kappa / 2.0)
        - stats.sum_logdet_z / n
        - p * np.log(n * (nu + p - 1) / kappa)
        + logdet_zs
    )


def solve_nu(stats, n, p, q, bounds=(2.0, 1000.0), tol=1e-6):
    """Solve the degrees-of-freedom estimating equation on ``bounds``.

    Returns ``(nu, interior)``; when the estimating function has no sign
    change in the interval, the boundary with the higher objective is
    returned and ``interior`` is False.  The factored equation already
    encodes the conditional Sigma update.
    """
    lo, hi = bounds
    eps = 1e-9 * (hi - lo)
    g = lambda v: nu_estimating_function(v, stats, n, p, q)
    g_lo, g_hi = g(lo + eps), g(hi - eps)
    if g_lo < 0 < g_hi:
        root = brentq(g, lo + eps, hi - eps, xtol=tol * 1e-3, rtol=8.9e-16)
        return float(root), True
    # g is the negative profile slope: all-negative means the objective
    # still rises at the top, all-positive that it falls from lo
    return (hi, False) if g_hi < 0 else (lo, False)


def _obs_loglik_from_bracket(nu, n, p, q, logdet_s, logdet_o, sum_logdet_c):
    """Observed log-likelihood as a function of nu for a fixed bracket."""
    kappa = nu + p + q - 1
    return (
        n * lmvgamma(p, kappa / 2.0)
        - n * lmvgamma(p, (nu + p - 1) / 2.0)
        - 0.5 * n * p * q * _LOG_PI
        - 0.5 * n * p * logdet_o
        - 0.5 * n * q * logdet_s
        - 0.5 * kappa * (sum_logdet_c - n * logdet_s)
    )


def mxvt_fit(data, config=None):
    """Fit the matrix-variate t by ECME.

    ``data`` is one stack, or a list of group stacks that get one mean
    each and share Sigma, Omega and nu; ``params`` of the result is then
    the list of per-group parameters.

    When ``config.nu == "estimate"``, the second CM step solves the
    estimating equation and keeps the candidate only if it does not lower
    the observed log-likelihood (falling back on a direct bounded search
    otherwise, which is the exact Either step), so the log-likelihood trace
    is non-decreasing.  When nu is fixed the second CM step is skipped.

    A nu estimate landing on a bound is reported with ``converged=False``
    and ``nu_at_bound=True`` rather than raising.
    """
    groups, single = as_groups(data)
    config = config or EcmeConfig()
    if not isinstance(config, EcmeConfig):
        raise TypeError("mxvt_fit needs an EcmeConfig")
    structure = config.structure
    p, q = groups[0].p, groups[0].q
    n = sum(g.n for g in groups)
    # each group's mean uses up one observation
    check_sample_size(n - len(groups) + 1, p, q, structure)

    estimate = config.estimate_nu
    lo, hi = config.nu_bounds
    nu = 10.0 if estimate else float(config.nu)
    nu = min(max(nu, lo + 1e-3), hi - 1e-3) if estimate else nu
    Sigma, Omega = np.eye(p), np.eye(q)
    params = [MxvtParams(nu, g.data.mean(axis=0), Sigma, Omega) for g in groups]

    trace = []
    prev_ll = -np.inf
    converged = False
    nu_interior = True
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        stats = [estep(g, prm) for g, prm in zip(groups, params)]
        means, Sigma, Omega = cme1(
            stats, nu, n, p, q, structure, prev_omega=Omega
        )

        _, logdet_s = cholesky_logdet(Sigma)
        _, logdet_o = cholesky_logdet(Omega)
        sum_logdet_c = sum(
            float(t_bracket(g.data, MxvtParams(max(nu, 1.0), M, Sigma, Omega))[1].sum())
            for g, M in zip(groups, means)
        )
        ll_of = lambda v: _obs_loglik_from_bracket(
            v, n, p, q, logdet_s, logdet_o, sum_logdet_c
        )

        if estimate:
            cand, nu_interior = solve_nu(
                _pool_stats(stats), n, p, q, config.nu_bounds, config.nu_solver_tol
            )
            if ll_of(cand) < ll_of(nu):
                # exact Either step: maximize the observed log-likelihood
                res = minimize_scalar(
                    lambda v: -ll_of(v), bounds=(lo + 1e-9, hi - 1e-9),
                    method="bounded", options={"xatol": config.nu_solver_tol},
                )
                cand = float(res.x)
                if ll_of(cand) < ll_of(nu):
                    cand = nu
                nu_interior = lo + 1e-6 < cand < hi - 1e-6
            nu = cand

        params = [MxvtParams(nu, M, Sigma, Omega) for M in means]
        ll = float(ll_of(nu))
        trace.append(ll)
        if _relative_change(ll, prev_ll) < config.tolerance:
            converged = True
            break
        prev_ll = ll

    at_bound = estimate and not nu_interior
    params = [normalize_identifiability(prm) for prm in params]
    return FitResult(
        params=params[0] if single else params,
        log_lik=trace[-1],
        iterations=iterations,
        converged=converged and not at_bound,
        log_lik_trace=np.array(trace),
        nu_at_bound=at_bound,
    )
