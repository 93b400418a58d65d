"""Log-densities and seeded samplers for the matrix-variate normal,
matrix-variate t and Wishart distributions.

All densities are evaluated in log space; quadratic forms and determinants
go through Cholesky factors.  Samplers are deterministic given a
``(seed, stream)`` pair.

vec convention: throughout the package ``vec(X)`` stacks the *columns* of
X (Fortran order), under which the matrix normal satisfies
``vec(X) ~ N(vec(M), Omega kron Sigma)`` and the matrix t with nu > 2 has
``cov(vec(X)) = (Omega kron Sigma) / (nu - 2)``.
"""

import numpy as np

from .datamodel import MatrixStack, MxvtParams
from .linalg import cholesky_logdet, solve_lower_batch, symmetrize
from .specfun import lmvgamma

_LOG_2PI = np.log(2.0 * np.pi)
_LOG_PI = np.log(np.pi)


def make_rng(seed, stream=0):
    """A PCG64 generator keyed by (seed, stream).

    Distinct streams under the same seed are statistically independent, so
    replicates of an experiment can each own a stream.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


def _as_rng(seed, stream=0):
    if isinstance(seed, np.random.Generator):
        return seed
    return make_rng(seed, stream)


def _as_batch(X, p, q):
    X = np.asarray(X, dtype=float)
    if X.shape == (p, q):
        return X[None], True
    if X.ndim == 3 and X.shape[1:] == (p, q):
        return X, False
    raise ValueError(f"X must be ({p}, {q}) or (n, {p}, {q}), got {X.shape}")


def mxvn_logpdf(X, params):
    """Matrix-variate normal log-density.

    X may be a single p-by-q matrix or a stack of shape (n, p, q); the
    result is a scalar or a length-n vector accordingly.
    """
    X, single = _as_batch(X, params.p, params.q)
    p, q = params.p, params.q
    Ls, logdet_s = cholesky_logdet(params.Sigma)
    Lo, logdet_o = cholesky_logdet(params.Omega)
    D = X - params.M
    A = solve_lower_batch(Ls, D)                       # L_S^-1 D
    B = solve_lower_batch(Lo, A.transpose(0, 2, 1))    # L_O^-1 D^T L_S^-T
    quad = np.einsum("nij,nij->n", B, B)
    out = _mxvn_loglik(p, q, logdet_s, logdet_o, quad)
    return out[0] if single else out


def _mxvn_loglik(p, q, logdet_s, logdet_o, quad, n=1):
    """Matrix-normal log-likelihood from log|Sigma|, log|Omega| and ``quad``,
    the quadratic form tr(Omega^-1 (X - M)^T Sigma^-1 (X - M)): a vector of
    forms gives one value each, their sum over ``n`` matrices the total.
    """
    return -0.5 * quad - 0.5 * n * (p * q * _LOG_2PI + p * logdet_o + q * logdet_s)


def t_bracket(X, params):
    """E-step bracket C_i = (X_i - M) Omega^-1 (X_i - M)^T + Sigma.

    Returns the stack C of shape (n, p, p) and the vector of log|C_i|.
    The same bracket appears in the matrix-t log-density, so the density
    and the expectation step share this routine.
    """
    X, _ = _as_batch(X, params.p, params.q)
    Lo = np.linalg.cholesky(params.Omega)
    W = solve_lower_batch(Lo, (X - params.M).transpose(0, 2, 1))  # (n, q, p)
    C = symmetrize(np.einsum("nki,nkj->nij", W, W)) + params.Sigma
    Lc = np.linalg.cholesky(C)
    logdet_c = 2.0 * np.log(np.diagonal(Lc, axis1=1, axis2=2)).sum(axis=1)
    return C, logdet_c


def _mxvt_loglik(nu, p, q, logdet_s, logdet_o, logdet_c, n=1):
    """Matrix-t log-likelihood from log|Sigma|, log|Omega| and ``logdet_c``:
    a vector of log|C_i| gives one value each, their sum over ``n`` the total.
    """
    kappa = nu + p + q - 1
    return (
        n * lmvgamma(p, kappa / 2.0)
        - n * lmvgamma(p, (nu + p - 1) / 2.0)
        - 0.5 * n * p * q * _LOG_PI
        - 0.5 * n * p * logdet_o
        - 0.5 * n * q * logdet_s
        - 0.5 * kappa * (logdet_c - n * logdet_s)
    )


def mxvt_logpdf(X, params):
    """Matrix-variate t log-density (scalar for one matrix, vector for a stack)."""
    X, single = _as_batch(X, params.p, params.q)
    _, logdet_s = cholesky_logdet(params.Sigma)
    _, logdet_o = cholesky_logdet(params.Omega)
    _, logdet_c = t_bracket(X, params)
    out = _mxvt_loglik(params.nu, params.p, params.q, logdet_s, logdet_o, logdet_c)
    return out[0] if single else out


def sample_wishart(df, scale, seed, stream=0, size=None):
    """Wishart draws via the Bartlett decomposition.

    Supports non-integer df > d - 1.  With ``size=None`` a single (d, d)
    matrix is returned, otherwise an array of shape (size, d, d).
    """
    scale = np.asarray(scale, dtype=float)
    d = scale.shape[0]
    if scale.shape != (d, d):
        raise ValueError(f"scale must be square, got {scale.shape}")
    if not df > d - 1:
        raise ValueError(f"df must exceed d - 1 = {d - 1}, got {df}")
    rng = _as_rng(seed, stream)
    L = np.linalg.cholesky(scale)
    n = 1 if size is None else int(size)
    A = np.zeros((n, d, d))
    rows, cols = np.tril_indices(d, k=-1)
    if len(rows):
        A[:, rows, cols] = rng.standard_normal((n, len(rows)))
    idx = np.arange(d)
    A[:, idx, idx] = np.sqrt(rng.chisquare(df - idx, size=(n, d)))
    LA = L @ A
    S = symmetrize(LA @ LA.transpose(0, 2, 1))
    return S[0] if size is None else S


def sample_mxvn(params, n, seed, stream=0):
    """n independent matrix-normal draws, X = M + L_Sigma Z L_Omega^T."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _as_rng(seed, stream)
    p, q = params.p, params.q
    Ls = np.linalg.cholesky(params.Sigma)
    Lo = np.linalg.cholesky(params.Omega)
    Z = rng.standard_normal((n, p, q))
    return MatrixStack(params.M + Ls @ Z @ Lo.T)


def sample_mxvt(params, n, seed, stream=0):
    """n independent matrix-t draws via the Wishart scale mixture.

    Each draw takes S ~ W_p(nu + p - 1, Sigma^-1) and then X | S from the
    matrix normal with row scatter S^-1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not isinstance(params, MxvtParams):
        raise TypeError("sample_mxvt needs MxvtParams")
    rng = _as_rng(seed, stream)
    p, q, nu = params.p, params.q, params.nu
    sigma_inv = np.linalg.inv(params.Sigma)
    S = sample_wishart(nu + p - 1, symmetrize(sigma_inv), rng, size=n)
    # B_i B_i^T = S_i^-1 via the inverse transpose of S_i's Cholesky factor
    Lw = np.linalg.cholesky(S)
    B = np.linalg.solve(Lw, np.broadcast_to(np.eye(p), (n, p, p))).transpose(0, 2, 1)
    Lo = np.linalg.cholesky(params.Omega)
    Z = rng.standard_normal((n, p, q))
    return MatrixStack(params.M + B @ Z @ Lo.T)
