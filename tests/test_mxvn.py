import numpy as np
import pytest

from matvt.datamodel import (
    Ar1Matrix,
    CsMatrix,
    MatrixStack,
    MeanStructure,
    MxvnParams,
    ScatterStructure,
    StructureSpec,
)
from matvt.distributions import mxvn_logpdf, sample_mxvn
from matvt.errors import EstimationError
from matvt.mxvn import FitConfig, check_sample_size, mxvn_fit

from conftest import random_spd


def _true_params(rng, p=3, q=2):
    return MxvnParams(
        M=rng.standard_normal((p, q)),
        Sigma=random_spd(rng, p),
        Omega=random_spd(rng, q),
    )


def test_fit_converges_and_normalizes(rng):
    true = _true_params(rng)
    data = sample_mxvn(true, 400, seed=1)
    res = mxvn_fit(data)
    assert res.converged
    assert res.params.Sigma[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert res.log_lik == pytest.approx(res.log_lik_trace[-1])
    # monotone trace
    assert np.all(np.diff(res.log_lik_trace) >= -1e-8 * (1 + np.abs(res.log_lik_trace[:-1])))


def test_fit_recovers_truth(rng):
    true = _true_params(rng, p=2, q=3)
    data = sample_mxvn(true, 20_000, seed=2)
    res = mxvn_fit(data)
    np.testing.assert_allclose(res.params.M, true.M, atol=0.1)
    np.testing.assert_allclose(
        np.kron(res.params.Omega, res.params.Sigma),
        np.kron(true.Omega, true.Sigma),
        rtol=0.05,
        atol=0.05,
    )


def test_fit_p1_matches_sample_covariance(rng):
    # p=1 reduces to an ordinary multivariate normal in the q columns:
    # the ML scatter is the biased sample covariance.
    q = 3
    true = _true_params(rng, p=1, q=q)
    data = sample_mxvn(true, 300, seed=3)
    res = mxvn_fit(data)
    X = data.data[:, 0, :]
    xbar = X.mean(axis=0)
    S = (X - xbar).T @ (X - xbar) / len(X)
    np.testing.assert_allclose(res.params.M[0], xbar, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(
        res.params.Omega * res.params.Sigma[0, 0], S, rtol=1e-6
    )


def test_fit_beats_perturbed_params(rng):
    # ML estimate should out-score the truth and nearby perturbations
    true = _true_params(rng)
    data = sample_mxvn(true, 200, seed=4)
    res = mxvn_fit(data)
    ll_hat = mxvn_logpdf(data.data, res.params).sum()
    ll_true = mxvn_logpdf(data.data, true).sum()
    assert ll_hat >= ll_true - 1e-8
    bumped = MxvnParams(
        M=res.params.M + 0.01, Sigma=res.params.Sigma, Omega=res.params.Omega
    )
    assert ll_hat >= mxvn_logpdf(data.data, bumped).sum()


def test_sample_size_gate():
    spec = StructureSpec()
    with pytest.raises(EstimationError):
        check_sample_size(4, 3, 3, spec)  # needs n > 4
    check_sample_size(5, 3, 3, spec)
    with pytest.raises(EstimationError):
        mxvn_fit(MatrixStack(np.random.default_rng(0).standard_normal((4, 3, 3))))
    constrained = StructureSpec(row_scatter=ScatterStructure.AR1)
    with pytest.raises(EstimationError):
        check_sample_size(1, 2, 2, constrained)
    with pytest.warns(UserWarning):
        check_sample_size(3, 3, 3, constrained)


def test_constant_mean_structure(rng):
    true = MxvnParams(M=np.full((2, 3), 1.7), Sigma=np.eye(2), Omega=np.eye(3))
    data = sample_mxvn(true, 5_000, seed=5)
    cfg = FitConfig(structure=StructureSpec(mean=MeanStructure.CONSTANT))
    res = mxvn_fit(data, cfg)
    M = res.params.M
    assert np.ptp(M) == pytest.approx(0.0, abs=1e-12)
    assert M[0, 0] == pytest.approx(1.7, abs=0.05)


def test_column_constant_mean_structure(rng):
    mu = np.array([0.5, -1.0, 2.0])
    true = MxvnParams(M=np.ones((2, 1)) @ mu[None], Sigma=np.eye(2), Omega=np.eye(3))
    data = sample_mxvn(true, 5_000, seed=6)
    cfg = FitConfig(structure=StructureSpec(mean=MeanStructure.COLUMN_CONSTANT))
    res = mxvn_fit(data, cfg)
    M = res.params.M
    np.testing.assert_allclose(M[0], M[1], atol=1e-12)
    np.testing.assert_allclose(M[0], mu, atol=0.06)


def test_row_constant_mean_structure(rng):
    mu = np.array([1.0, -0.5])
    true = MxvnParams(M=mu[:, None] @ np.ones((1, 3)), Sigma=np.eye(2), Omega=np.eye(3))
    data = sample_mxvn(true, 5_000, seed=7)
    cfg = FitConfig(structure=StructureSpec(mean=MeanStructure.ROW_CONSTANT))
    res = mxvn_fit(data, cfg)
    M = res.params.M
    np.testing.assert_allclose(M[:, 0], M[:, 1], atol=1e-12)
    np.testing.assert_allclose(M[:, 0], mu, atol=0.06)


def test_ar1_row_scatter_recovery(rng):
    true = MxvnParams(
        M=np.zeros((4, 3)),
        Sigma=Ar1Matrix(dim=4, rho=0.6).full(),
        Omega=random_spd(rng, 3),
    )
    data = sample_mxvn(true, 4_000, seed=8)
    cfg = FitConfig(structure=StructureSpec(row_scatter=ScatterStructure.AR1))
    res = mxvn_fit(data, cfg)
    # Sigma[0,0]=1 so the fitted Sigma is exactly the correlation matrix
    assert res.params.Sigma[0, 1] == pytest.approx(0.6, abs=0.03)
    assert res.params.Sigma[0, 3] == pytest.approx(0.6**3, abs=0.03)


def test_cs_col_scatter_recovery(rng):
    true = MxvnParams(
        M=np.zeros((3, 4)),
        Sigma=random_spd(rng, 3),
        Omega=CsMatrix(dim=4, rho=0.4, scale=2.0).full(),
    )
    data = sample_mxvn(true, 4_000, seed=9)
    cfg = FitConfig(structure=StructureSpec(col_scatter=ScatterStructure.CS))
    res = mxvn_fit(data, cfg)
    O = res.params.Omega
    off = O[np.triu_indices(4, 1)]
    assert np.ptp(off) == pytest.approx(0.0, abs=1e-8)
    assert off[0] / O[0, 0] == pytest.approx(0.4, abs=0.03)


def test_structured_fit_never_beats_free_fit(rng):
    true = _true_params(rng)
    data = sample_mxvn(true, 150, seed=10)
    free = mxvn_fit(data)
    cons = mxvn_fit(
        data, FitConfig(structure=StructureSpec(row_scatter=ScatterStructure.AR1))
    )
    assert cons.log_lik <= free.log_lik + 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        FitConfig(max_iter=0)


@pytest.mark.parametrize(
    "structure, n_groups",
    [
        (StructureSpec(), 1),
        (StructureSpec(row_scatter=ScatterStructure.AR1), 1),
        (StructureSpec(col_scatter=ScatterStructure.CS), 1),
        (StructureSpec(mean=MeanStructure.CONSTANT), 1),
        (StructureSpec(), 3),
    ],
)
def test_log_lik_is_the_density_at_the_returned_params(rng, structure, n_groups):
    # the fit reads its log-likelihood off the Omega update's Gram
    true = _true_params(rng, p=3, q=4)
    groups = [sample_mxvn(true, 40 + 5 * g, seed=20, stream=g) for g in range(n_groups)]
    res = mxvn_fit(groups if n_groups > 1 else groups[0], FitConfig(structure=structure))
    params = res.params if n_groups > 1 else [res.params]
    density = sum(mxvn_logpdf(g.data, prm).sum() for g, prm in zip(groups, params))
    assert res.log_lik == pytest.approx(density, rel=1e-10)
