"""ECME estimation of the matrix-variate t parameters.

Each iteration runs an expectation step over the latent Wishart weight
matrices, a conditional maximization of (M, Sigma, Omega) in closed form,
and, when the degrees of freedom are estimated, a bounded one-dimensional
maximization of the observed log-likelihood over nu with (M, Sigma, Omega)
held at their new values (the ECME step of Liu and Rubin, 1994).  Several
groups can be fitted together: each keeps its own mean and all share
Sigma, Omega and nu (the pooled discriminant model).

The E-step weights and the log-likelihood share the bracket C_i, which does
not depend on nu.  It is taken once per group per iteration, after the CM
step: log|C_i| gives the log-likelihood and C the next iteration's E-step.

ECME converges linearly at a rate near 1, so a fit with free Sigma and Omega
hands the iteration driver coordinates for SQUAREM (see
:func:`matvt.mxvn._iterate`): the group means, the log-diagonal and the
below-diagonal of the Cholesky factors of Sigma and Omega, which each step
keeps, and logit(nu) on ``nu_bounds`` when nu is estimated.  Mapping an
extrapolated point back takes its brackets, which give its log-likelihood
and serve the E-step of the step from it.  AR(1) and compound-symmetry
scatters take the plain step, as does a state with nu on a bound.
"""

from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import expit, logit

from .datamodel import MatrixStack, MeanStructure, MxvtParams, ScatterStructure, StructureSpec
from .distributions import _mxvt_loglik, t_bracket
from .errors import SingularUpdateError
from .linalg import safe_cholesky, symmetrize
from .mxvn import FitConfig, _iterate, as_groups, check_fit_data
from .structures import constrained_mean, update_scatter_direct, update_scatter_inverse

NU_ESTIMATE = "estimate"

# xatol of the nu search; the log-likelihood is flat below rounding for nu
# steps under about sqrt(eps) * nu, so a tighter value only adds noise
NU_TOL = 1e-6


@dataclass(frozen=True)
class EcmeConfig(FitConfig):
    """Fit configuration; ``nu`` is a fixed value or ``"estimate"`` on ``nu_bounds``."""

    nu: object = NU_ESTIMATE
    nu_bounds: tuple = (2.0, 1000.0)

    def __post_init__(self):
        super().__post_init__()
        lo, hi = self.nu_bounds
        if not (1.0 <= lo < hi < np.inf):
            raise ValueError(f"nu_bounds must be finite with 1 <= lo < hi, got {self.nu_bounds}")
        fixed_ok = isinstance(self.nu, Real) and np.isfinite(self.nu) and self.nu >= 1
        if not (self.estimate_nu or fixed_ok):
            raise ValueError(f"nu must be {NU_ESTIMATE!r} or a finite real >= 1, got {self.nu!r}")

    @property
    def estimate_nu(self):
        return isinstance(self.nu, str) and self.nu == NU_ESTIMATE


@dataclass
class SufficientStats:
    """Accumulated E-step statistics of one stack of n p-by-q matrices.

    With S_i the expected weight matrix of observation i: ``s_s`` is
    sum S_i (p x p), ``s_sx`` is sum S_i X_i (p x q) and ``s_xsx`` is
    sum X_i^T S_i X_i (q x q).
    """

    s_s: np.ndarray
    s_sx: np.ndarray
    s_xsx: np.ndarray
    n: int


def estep(data, C, nu):
    """Expectation step: accumulate the expected weight-matrix statistics.

    ``C`` is the stack of brackets C_i = (X_i - M) Omega^-1 (X_i - M)^T + Sigma
    at the current (M, Sigma, Omega), as :func:`t_bracket` returns it, and
    the per-observation weight is S_i = kappa * C_i^-1 with
    kappa = nu + p + q - 1.
    """
    if not isinstance(data, MatrixStack):
        data = MatrixStack(np.asarray(data))
    n, p, q = data.n, data.p, data.q
    if C.shape != (n, p, p):
        raise ValueError(f"brackets are {C.shape} but data needs {(n, p, p)}")
    Z = symmetrize(np.linalg.inv(C))
    X = data.data
    ZX = Z @ X
    kappa = nu + p + q - 1
    return SufficientStats(
        s_s=kappa * Z.sum(axis=0),
        s_sx=kappa * ZX.sum(axis=0),
        s_xsx=kappa * symmetrize(X.reshape(n * p, q).T @ ZX.reshape(n * p, q)),
        n=n,
    )


def cme1(stats, nu, structure=None, prev_omega=None):
    """First conditional maximization: update the means, Sigma and Omega.

    ``stats`` holds one :class:`SufficientStats` per group, all taken at
    ``nu``, which also give n, p and q.  Each group gets its own mean;
    Sigma and Omega are shared.  The updates themselves live in
    :mod:`matvt.structures`; constrained means are weighted by the previous
    column scatter where one is required.  Returns ``(means, Sigma, Omega)``.
    """
    structure = structure or StructureSpec()
    p, q = stats[0].s_sx.shape
    n = sum(st.n for st in stats)
    omega_w = prev_omega if prev_omega is not None else np.eye(q)
    means, A, s_s_all = [], 0, 0
    for st in stats:
        s_s, s_sx, s_xsx = st.s_s, st.s_sx, st.s_xsx
        M = constrained_mean(s_s, s_sx, omega_w, structure.mean, p, q)
        if structure.mean == MeanStructure.FREE:
            A = A + (s_xsx - s_sx.T @ M)
        else:
            A = A + (s_xsx - s_sx.T @ M - M.T @ s_sx + M.T @ s_s @ M)
        means.append(M)
        s_s_all = s_s_all + s_s
    A = symmetrize(A)

    Omega = update_scatter_inverse(A, n * p / 2.0, structure.col_scatter, q)
    Sigma = update_scatter_direct(s_s_all, n * (nu + p - 1) / 2.0, structure.row_scatter, p)
    return means, Sigma, Omega


def solve_nu(ll_of, nu, bounds=(2.0, 1000.0)):
    """Maximize the observed log-likelihood ``ll_of`` over nu on ``bounds``.

    ``ll_of`` is the log-likelihood as a function of nu alone, with the
    other parameters fixed, and ``nu`` the current value, which is kept
    when the search does not beat it.  Returns ``(nu, interior)``, where
    ``interior`` is False for a value on a bound.
    """
    lo, hi = bounds
    res = minimize_scalar(
        lambda v: -ll_of(v), bounds=bounds, method="bounded", options={"xatol": NU_TOL}
    )
    cand, best = float(res.x), -float(res.fun)
    # the search stops about sqrt(eps) * hi short of a bound; ll_of is
    # strictly concave in nu, so a bound that does no worse is the maximum
    edge = lo if cand - lo < hi - cand else hi
    ll_edge = ll_of(edge)
    if ll_edge >= best:
        cand, best = edge, ll_edge
    if best < ll_of(nu):
        cand = nu
    return cand, lo < cand < hi


def mxvt_fit(data, config=None):
    """Fit the matrix-variate t by ECME.

    ``data`` is one stack, or a list of group stacks that get one mean
    each and share Sigma, Omega and nu; ``params`` of the result is then
    the list of per-group parameters.

    When ``config.nu == "estimate"``, the second CM step maximizes the
    observed log-likelihood over nu by :func:`solve_nu` and never lowers
    it, so the log-likelihood trace is non-decreasing.  When nu is fixed
    the second CM step is skipped.  With free Sigma and Omega the steps run
    in SQUAREM cycles (see the module docstring); ``iterations`` still
    counts ECME steps.

    A nu estimate landing on a bound is reported with ``converged=False``
    and ``nu_at_bound=True`` rather than raising.  A row scatter that makes
    a bracket C_i singular raises :class:`SingularUpdateError`.
    """
    groups, single = as_groups(data)
    config = config or EcmeConfig()
    if not isinstance(config, EcmeConfig):
        raise TypeError("mxvt_fit needs an EcmeConfig")
    structure = config.structure
    p, q = groups[0].p, groups[0].q
    n = sum(g.n for g in groups)
    check_fit_data(groups, structure)

    estimate = config.estimate_nu
    lo, hi = config.nu_bounds

    def brackets_at(params):
        # C_i = D_i Omega^-1 D_i^T + Sigma is singular only through Sigma
        try:
            return [t_bracket(g.data, prm) for g, prm in zip(groups, params)]
        except np.linalg.LinAlgError:
            raise SingularUpdateError("row scatter makes a bracket C_i singular") from None

    def ecme(state):
        params, nu_interior, brackets, _ = state
        nu = params[0].nu
        stats = [estep(g, C, nu) for g, (C, _) in zip(groups, brackets)]
        means, Sigma, Omega = cme1(stats, nu, structure, prev_omega=params[0].Omega)

        Ls, logdet_s = safe_cholesky(Sigma, "row scatter")
        Lo, logdet_o = safe_cholesky(Omega, "column scatter")
        brackets = brackets_at([MxvtParams(nu, M, Sigma, Omega) for M in means])
        sum_logdet_c = sum(float(logdet_c.sum()) for _, logdet_c in brackets)
        ll_of = lambda v: _mxvt_loglik(v, p, q, logdet_s, logdet_o, sum_logdet_c, n)

        if estimate:
            nu, nu_interior = solve_nu(ll_of, nu, config.nu_bounds)
        params = [MxvtParams(nu, M, Sigma, Omega) for M in means]
        return (params, nu_interior, brackets, (Ls, Lo)), float(ll_of(nu))

    # the SQUAREM coordinates, in the order the module docstring lists them
    rows, cols = np.tril_indices(p, -1), np.tril_indices(q, -1)
    sizes = np.cumsum([len(groups) * p * q, p, len(rows[0]), q, len(cols[0])])

    def to_vector(state):
        params, nu_interior, _, (Ls, Lo) = state
        if not nu_interior:
            return None
        parts = [prm.M.ravel() for prm in params]
        parts += [np.log(np.diag(Ls)), Ls[rows], np.log(np.diag(Lo)), Lo[cols]]
        if estimate:
            parts.append([logit((params[0].nu - lo) / (hi - lo))])
        return np.concatenate(parts)

    def from_vector(x):
        means, log_ds, off_s, log_do, off_o, z = np.split(x, sizes)
        with np.errstate(all="ignore"):
            Ls, Lo = np.diag(np.exp(log_ds)), np.diag(np.exp(log_do))
            Ls[rows], Lo[cols] = off_s, off_o
            nu = lo + (hi - lo) * float(expit(z[0])) if estimate else float(config.nu)
            Sigma, Omega = Ls @ Ls.T, Lo @ Lo.T
            params = [MxvtParams(nu, M, Sigma, Omega) for M in means.reshape(-1, p, q)]
            try:
                brackets = brackets_at(params)
            except SingularUpdateError:
                return None
            sum_logdet_c = sum(float(logdet_c.sum()) for _, logdet_c in brackets)
            ll = float(_mxvt_loglik(
                nu, p, q, 2.0 * log_ds.sum(), 2.0 * log_do.sum(), sum_logdet_c, n
            ))
        if not np.isfinite(ll):
            return None
        return (params, not estimate or lo < nu < hi, brackets, (Ls, Lo)), ll

    nu = min(max(10.0, lo + 1e-3), hi - 1e-3) if estimate else float(config.nu)
    start = [MxvtParams(nu, g.data.mean(axis=0), np.eye(p), np.eye(q)) for g in groups]
    # the start's Sigma = I and Omega = I are their own Cholesky factors
    state = (start, True, brackets_at(start), (np.eye(p), np.eye(q)))
    free = structure.row_scatter == structure.col_scatter == ScatterStructure.FREE
    coords = (to_vector, from_vector) if free else None
    result, (_, nu_interior, _, _) = _iterate(ecme, state, config, single, coords)
    result.nu_at_bound = estimate and not nu_interior
    result.converged = result.converged and not result.nu_at_bound
    return result
