"""Flip-flop maximum-likelihood estimation for the matrix-variate normal.

The mean and the two scatter matrices are updated in turn, each update an
exact conditional maximization, so the observed log-likelihood never
decreases across sweeps.  Optional structure constraints restrict the mean
and/or either scatter matrix.  Several groups can be fitted together, each
with its own mean and all sharing Sigma and Omega.

Both fitters run one driver, :func:`_iterate`, which owns the loop, the
trace, the stopping rule and the :class:`FitResult`; each family supplies
a start and one step, and the t fit also the coordinates in which the
driver extrapolates its steps (SQUAREM).  The flip-flop takes 4-6 sweeps
on the paper's cells, fewer than one SQUAREM cycle, and passes none.
"""

import warnings
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .datamodel import (
    MatrixStack,
    MeanStructure,
    MxvnParams,
    ScatterStructure,
    StructureSpec,
    normalize_identifiability,
)
from .distributions import _mxvn_loglik
from .errors import EstimationError
from .linalg import safe_cholesky, solve_lower_batch
from .structures import constrained_mean, update_scatter_inverse

# smallest eigenvalue, relative to the largest, at which a correlation-form
# Gram still counts as nonsingular.  Rows or columns computed as exact
# linear combinations of others leave rounding noise of up to about
# 1e4 * eps there; more only when their level exceeds their spread by eight
# or more orders of magnitude.
_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class FitConfig:
    tolerance: float = 1e-8
    max_iter: int = 1000
    structure: StructureSpec = field(default_factory=StructureSpec)

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not (isinstance(self.max_iter, Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class FitResult:
    params: object
    log_lik: float
    iterations: int
    converged: bool
    log_lik_trace: np.ndarray
    nu_at_bound: bool = False


def check_sample_size(n, p, q, structure):
    """Unconstrained fits need n > p/q + q/p + 2; constrained need n >= 2."""
    threshold = p / q + q / p + 2
    if structure.is_unconstrained():
        if not n > threshold:
            raise EstimationError(
                f"unconstrained fit needs n > p/q + q/p + 2 = {threshold:.3g}, got n={n}"
            )
    else:
        if n < 2:
            raise EstimationError(f"constrained fit needs n >= 2, got n={n}")
        if n <= threshold:
            warnings.warn(
                f"n={n} is at or below the unconstrained existence threshold "
                f"{threshold:.3g}; the constrained fit may be unstable",
                stacklevel=4,
            )


def check_fit_data(groups, structure):
    """Refuse groups on which a fit has no maximum.

    Each group's mean uses up one observation of the sample size that
    :func:`check_sample_size` judges.  With a free mean, a free row (or
    column) scatter has no maximum when some combination of rows (or of
    columns) is the same in every observation of a group, that is when the
    centred row (or column) Gram is singular.  Differences from each
    group's first observation span the same space as the centred data and
    are exactly zero in a constant entry.  The Gram is judged in
    correlation form, so scaling a row or column changes nothing.
    """
    D = np.concatenate([g.data[1:] - g.data[0] for g in groups])
    n, p, q = D.shape
    check_sample_size(n + 1, p, q, structure)
    if structure.mean != MeanStructure.FREE:
        return
    rows = D.transpose(1, 0, 2).reshape(p, n * q)
    cols = D.reshape(n * p, q)
    for what, kind, G in (
        ("row", structure.row_scatter, rows @ rows.T),
        ("column", structure.col_scatter, cols.T @ cols),
    ):
        if kind != ScatterStructure.FREE:
            continue
        s = np.sqrt(np.diag(G))
        s[s == 0] = 1.0
        ev = np.linalg.eigvalsh(G / np.outer(s, s))
        if ev[0] <= _RANK_RTOL * ev[-1]:
            raise EstimationError(
                f"the data make the {what} scatter singular: a combination "
                f"of {what}s is the same in every observation"
            )


def as_groups(data):
    """Return ``(groups, single)`` for a fitter's ``data`` argument.

    A list or tuple of :class:`MatrixStack` is a set of groups that get
    their own means and share the scatter matrices; anything else is read
    as one stack, and ``single`` is True.
    """
    if isinstance(data, (list, tuple)) and data and all(
        isinstance(g, MatrixStack) for g in data
    ):
        if len({(g.p, g.q) for g in data}) != 1:
            raise ValueError("all groups must hold matrices of one shape")
        return list(data), False
    if not isinstance(data, MatrixStack):
        data = MatrixStack(np.asarray(data))
    return [data], True


def _iterate(step, state, config, single, coords=None):
    """Run the fixed-point map ``step`` from ``state``; the one fitting loop.

    ``step`` maps a state to ``(next_state, log_lik)``, and the first item
    of a state is the list of per-group parameters.  The loop stops once
    |l_k - l_(k-1)| / (|l_(k-1)| + 1) < ``config.tolerance``, which cannot
    happen at the first step, or after ``config.max_iter`` steps.  Every
    call of ``step`` is one iteration and one entry of the trace.

    ``coords``, a pair of maps ``(to_vector, from_vector)``, accelerates the
    loop by SQUAREM scheme S3 (Varadhan and Roland, 2008).  ``to_vector``
    gives a state's unconstrained coordinates, or None for a state that
    must take the plain step; ``from_vector`` gives back ``(state,
    log_lik)``, or None for coordinates that name no valid state.  A cycle
    is three steps: from theta_0, theta_1 = F(theta_0) and theta_2 =
    F(theta_1) give the extrapolated theta', and the third step starts from
    theta' when its log-likelihood is no lower than theta_2's, else from
    theta_2.  The third step's result is the next cycle's theta_0, so the
    trace never falls.  No extrapolation follows the last step, which
    keeps a fit cut short by ``max_iter`` the first steps of the full fit.

    Returns the :class:`FitResult`, with the parameters normalized and
    unwrapped from their list when ``single``, and the last state.
    """
    trace, cycle = [], []
    for iterations in range(1, config.max_iter + 1):
        state, ll = step(state)
        trace.append(ll)
        converged = (
            iterations > 1 and abs(ll - trace[-2]) / (abs(trace[-2]) + 1.0) < config.tolerance
        )
        if converged:
            break
        if coords and iterations < config.max_iter:
            x = coords[0](state)
            cycle = [] if x is None else cycle + [x]
            if len(cycle) == 3:
                state = _extrapolated(cycle, state, ll, coords[1])
                cycle = []
    params = [normalize_identifiability(prm) for prm in state[0]]
    return FitResult(
        params=params[0] if single else params,
        log_lik=ll,
        iterations=iterations,
        converged=converged,
        log_lik_trace=np.array(trace),
    ), state


def _extrapolated(cycle, state, ll, from_vector):
    """The S3 point theta_0 - 2 a r + a^2 v from a cycle's three coordinate
    vectors, with r = theta_1 - theta_0, v = theta_2 - theta_1 - r and the
    step a = min(-|r| / |v|, -1); ``state``, theta_2 with log-likelihood
    ``ll``, where that point is not finite, not valid or no better."""
    x0, x1, x2 = cycle
    r = x1 - x0
    v = x2 - x1 - r
    with np.errstate(all="ignore"):
        a = min(-np.linalg.norm(r) / np.linalg.norm(v), -1.0)
        x = x0 - 2.0 * a * r + a * a * v
    if not np.isfinite(x).all():
        return state
    tried = from_vector(x)
    return tried[0] if tried is not None and tried[1] >= ll else state


def _whitened_gram(L, D):
    """sum_i (L^-1 D_i)^T (L^-1 D_i) over a stack D, as one product."""
    W = solve_lower_batch(L, D)
    W = W.reshape(-1, W.shape[-1])
    return W.T @ W


def mxvn_fit(data, config=None):
    """Fit a matrix-variate normal by the flip-flop algorithm.

    ``data`` is one stack, or a list of group stacks that get one mean
    each and share Sigma and Omega; ``params`` of the result is then the
    list of per-group parameters.  Parameters satisfy the Sigma[0,0] = 1
    identifiability normalization (applied once at the end; the density is
    invariant to when it is applied).
    """
    groups, single = as_groups(data)
    config = config or FitConfig()
    structure = config.structure
    p, q = groups[0].p, groups[0].q
    n = sum(g.n for g in groups)
    check_fit_data(groups, structure)

    def sweep(state):
        params, Lo = state
        means = [prm.M for prm in params]
        if structure.mean != MeanStructure.FREE:
            # weighted statistics with S_i = Sigma^-1
            sigma_inv = np.linalg.solve(params[0].Sigma, np.eye(p))
            means = [
                constrained_mean(
                    g.n * sigma_inv, sigma_inv @ g.data.sum(axis=0), params[0].Omega,
                    structure.mean, p, q,
                )
                for g in groups
            ]
        diffs = [g.data - M for g, M in zip(groups, means)]

        B = sum(_whitened_gram(Lo, D.transpose(0, 2, 1)) for D in diffs)
        Sigma = update_scatter_inverse(B, n * q / 2.0, structure.row_scatter, p)
        Ls, logdet_s = safe_cholesky(Sigma, "row scatter")

        A = sum(_whitened_gram(Ls, D) for D in diffs)
        Omega = update_scatter_inverse(A, n * p / 2.0, structure.col_scatter, q)
        Lo, logdet_o = safe_cholesky(Omega, "column scatter")

        # sum_i tr(Omega^-1 D_i^T Sigma^-1 D_i) = tr(Omega^-1 A) = tr(Lo^-1 A Lo^-T)
        Lo_inv = np.linalg.inv(Lo)
        quad = np.sum(Lo_inv * (Lo_inv @ A))
        ll = float(_mxvn_loglik(p, q, logdet_s, logdet_o, quad, n))
        return ([MxvnParams(M, Sigma, Omega) for M in means], Lo), ll

    start = [MxvnParams(g.data.mean(axis=0), np.eye(p), np.eye(q)) for g in groups]
    # the start's Omega = I is its own Cholesky factor
    return _iterate(sweep, (start, np.eye(q)), config, single)[0]
