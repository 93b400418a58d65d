"""Input generation and reference computations that do not use matvt.

Everything the benchmark checks is compared against what this module
computes: the inputs come from numpy/scipy draws of the Wishart scale
mixture, and the log-densities are written out in the dense vec/Kronecker
form with ``slogdet``/``solve``, so a fault in matvt's samplers, brackets or
Cholesky helpers cannot also hide in the reference.

vec stacks the columns of X (Fortran order): vec(X) ~ N(vec M, Omega kron
Sigma) for the matrix normal, and cov(vec X) = (Omega kron Sigma)/(nu - 2)
for the matrix t with nu > 2.
"""

import numpy as np
from scipy.special import multigammaln
from scipy.stats import wishart

LOG_2PI = np.log(2.0 * np.pi)
LOG_PI = np.log(np.pi)


def rng_for(seed, *key):
    """A generator keyed by the run seed and a tuple of small integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *key])))


def ar1(d, rho, scale=1.0):
    idx = np.arange(d)
    return scale * rho ** np.abs(idx[:, None] - idx[None, :])


def random_spd(rng, d, spread=0.5):
    """A well-conditioned SPD matrix: a random rotation of eigenvalues in
    [1 - spread, 1 + spread], rescaled so that entry [0, 0] is 1."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = (Q * rng.uniform(1.0 - spread, 1.0 + spread, d)) @ Q.T
    A = 0.5 * (A + A.T)
    return A / A[0, 0]


def draw_mxvt(rng, n, nu, M, Sigma, Omega):
    """n matrix-t draws: S ~ W_p(nu + p - 1, Sigma^-1), X | S ~ MN(M, S^-1, Omega)."""
    p, q = M.shape
    S = wishart(df=nu + p - 1, scale=np.linalg.inv(Sigma)).rvs(size=n, random_state=rng)
    S = np.asarray(S).reshape(n, p, p)
    row = np.linalg.cholesky(np.linalg.inv(S))
    Z = rng.standard_normal((n, p, q))
    return M + row @ Z @ np.linalg.cholesky(Omega).T


def vec(X):
    """Column-stacked vec of each matrix of a (n, p, q) stack, as (n, p*q)."""
    X = np.asarray(X)
    return X.transpose(0, 2, 1).reshape(X.shape[0], -1)


def mxvn_logpdf(X, M, Sigma, Omega):
    """Matrix-normal log-density as the pq-variate normal of vec(X)."""
    p, q = M.shape
    K = np.kron(Omega, Sigma)
    _, logdet = np.linalg.slogdet(K)
    D = vec(np.asarray(X) - M)
    quad = np.einsum("ni,in->n", D, np.linalg.solve(K, D.T))
    return -0.5 * (p * q * LOG_2PI + logdet + quad)


def mxvt_logpdf(X, nu, M, Sigma, Omega):
    """Matrix-t log-density (Gupta & Nagar 2000, eq. 4.2.1) with the
    kernel |I_p + Sigma^-1 D Omega^-1 D^T| taken by slogdet."""
    p, q = M.shape
    D = np.asarray(X) - M
    G = np.linalg.solve(Sigma, D) @ np.linalg.solve(Omega, D.transpose(0, 2, 1))
    _, kernel = np.linalg.slogdet(np.eye(p) + G)
    _, logdet_s = np.linalg.slogdet(Sigma)
    _, logdet_o = np.linalg.slogdet(Omega)
    kappa = nu + p + q - 1
    const = (
        multigammaln(kappa / 2.0, p)
        - multigammaln((nu + p - 1) / 2.0, p)
        - 0.5 * p * q * LOG_PI
        - 0.5 * q * logdet_s
        - 0.5 * p * logdet_o
    )
    return const - 0.5 * kappa * kernel


def logpdf(X, params):
    """Reference log-density at a matvt parameter object (t if it has nu)."""
    nu = getattr(params, "nu", None)
    if nu is None:
        return mxvn_logpdf(X, params.M, params.Sigma, params.Omega)
    return mxvt_logpdf(X, nu, params.M, params.Sigma, params.Omega)
