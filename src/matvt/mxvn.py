"""Flip-flop maximum-likelihood estimation for the matrix-variate normal.

The mean and the two scatter matrices are updated in turn, each update an
exact conditional maximization, so the observed log-likelihood never
decreases across sweeps.  Optional structure constraints restrict the mean
and/or either scatter matrix.  Several groups can be fitted together, each
with its own mean and all sharing Sigma and Omega.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .datamodel import (
    MatrixStack,
    MeanStructure,
    MxvnParams,
    StructureSpec,
    normalize_identifiability,
)
from .distributions import mxvn_logpdf
from .errors import EstimationError
from .linalg import safe_cholesky, solve_lower_batch, symmetrize
from .structures import constrained_mean, update_scatter_inverse


@dataclass(frozen=True)
class FitConfig:
    tolerance: float = 1e-8
    max_iter: int = 1000
    structure: StructureSpec = field(default_factory=StructureSpec)

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


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
                stacklevel=3,
            )


def _relative_change(new, old):
    return abs(new - old) / (abs(old) + 1.0)


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


def _whitened_gram(L, D):
    """sum_i (L^-1 D_i)^T (L^-1 D_i) over a stack D."""
    W = solve_lower_batch(L, D)
    return np.einsum("nki,nkj->nij", W, W).sum(axis=0)


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
    # each group's mean uses up one observation
    check_sample_size(n - len(groups) + 1, p, q, structure)

    Sigma = np.eye(p)
    Omega = np.eye(q)
    means = [g.data.mean(axis=0) for g in groups]

    trace = []
    prev_ll = -np.inf
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        if structure.mean != MeanStructure.FREE:
            # weighted statistics with S_i = Sigma^-1
            sigma_inv = np.linalg.solve(Sigma, np.eye(p))
            means = [
                constrained_mean(
                    g.n * sigma_inv, sigma_inv @ g.data.sum(axis=0), Omega,
                    structure.mean, p, q,
                )
                for g in groups
            ]
        diffs = [g.data - M for g, M in zip(groups, means)]

        Lo = safe_cholesky(Omega, "column scatter")
        B = symmetrize(sum(_whitened_gram(Lo, D.transpose(0, 2, 1)) for D in diffs))
        Sigma = update_scatter_inverse(B, n * q / 2.0, structure.row_scatter, p)

        Ls = safe_cholesky(Sigma, "row scatter")
        A = symmetrize(sum(_whitened_gram(Ls, D) for D in diffs))
        Omega = update_scatter_inverse(A, n * p / 2.0, structure.col_scatter, q)
        safe_cholesky(Omega, "column scatter")

        ll = sum(
            float(mxvn_logpdf(g.data, MxvnParams(M, Sigma, Omega)).sum())
            for g, M in zip(groups, means)
        )
        trace.append(ll)
        if _relative_change(ll, prev_ll) < config.tolerance:
            converged = True
            break
        prev_ll = ll

    params = [normalize_identifiability(MxvnParams(M, Sigma, Omega)) for M in means]
    return FitResult(
        params=params[0] if single else params,
        log_lik=trace[-1],
        iterations=iterations,
        converged=converged,
        log_lik_trace=np.array(trace),
    )
