"""The batched kernels of the fitters against per-observation loops."""

import numpy as np
import pytest

from matvt.datamodel import MatrixStack, MxvtParams
from matvt.distributions import t_bracket
from matvt.linalg import solve_lower_batch, symmetrize
from matvt.mxvt import estep

from conftest import random_spd

# (p, q): tall, wide, square, a single row and a single column
SHAPES = [(12, 3), (3, 12), (6, 6), (1, 5), (5, 1)]


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _params(rng, p, q, nu=5.0):
    return MxvtParams(
        nu=nu,
        M=rng.standard_normal((p, q)),
        Sigma=symmetrize(random_spd(rng, p)),
        Omega=symmetrize(random_spd(rng, q)),
    )


def _brackets(X, params):
    """C_i = D_i Omega^-1 D_i^T + Sigma, one observation at a time."""
    omega_inv = np.linalg.inv(params.Omega)
    return np.array(
        [(x - params.M) @ omega_inv @ (x - params.M).T + params.Sigma for x in X]
    )


@pytest.mark.parametrize("p, q", SHAPES)
def test_estep_equals_per_observation_loop(rng, p, q):
    n, nu = 9, 5.0
    params = _params(rng, p, q, nu)
    X = rng.standard_normal((n, p, q)) * 2.0 + params.M
    C = _brackets(X, params)
    stats = estep(MatrixStack(X), C, nu)
    kappa = nu + p + q - 1
    S = [kappa * np.linalg.inv(c) for c in C]
    assert stats.n == n
    assert _rel(stats.s_s, sum(S)) < 1e-12
    assert _rel(stats.s_sx, sum(s @ x for s, x in zip(S, X))) < 1e-12
    assert _rel(stats.s_xsx, sum(x.T @ s @ x for s, x in zip(S, X))) < 1e-12
    np.testing.assert_array_equal(stats.s_xsx, stats.s_xsx.T)


@pytest.mark.parametrize("n, d, m", [(7, 5, 3), (1, 4, 6), (6, 1, 3), (1, 1, 1), (4, 3, 1)])
def test_solve_lower_batch_solves_each_matrix(rng, n, d, m):
    L = np.linalg.cholesky(random_spd(rng, d))
    B = rng.standard_normal((n, d, m))
    Y = solve_lower_batch(L, B)
    assert Y.shape == (n, d, m)
    for i in range(n):
        assert _rel(Y[i], np.linalg.solve(L, B[i])) < 1e-12


@pytest.mark.parametrize("p, q", SHAPES)
def test_t_bracket_is_the_written_out_bracket_and_exactly_symmetric(rng, p, q):
    params = _params(rng, p, q)
    X = rng.standard_normal((8, p, q))
    C, logdet = t_bracket(X, params)
    expected = _brackets(X, params)
    for i in range(len(X)):
        assert _rel(C[i], expected[i]) < 1e-12
        assert logdet[i] == pytest.approx(np.linalg.slogdet(expected[i])[1], rel=1e-12)
    np.testing.assert_array_equal(C, C.transpose(0, 2, 1))
