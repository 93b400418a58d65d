"""Behaviour the normal and t fitters share: how each factors its scatter
matrices, and which data they refuse before fitting."""

import numpy as np
import pytest

from matvt.datamodel import MatrixStack, MxvtParams, ScatterStructure, StructureSpec
from matvt.distributions import sample_mxvt
from matvt.errors import EstimationError, SingularUpdateError
from matvt.linalg import safe_cholesky
from matvt.mxvn import FitConfig, mxvn_fit
from matvt.mxvt import EcmeConfig, mxvt_fit

FITTERS = [mxvn_fit, mxvt_fit]
CONFIGS = {mxvn_fit: FitConfig, mxvt_fit: EcmeConfig}


def _t_stack(n=60, p=4, q=3, seed=3):
    params = MxvtParams(6.0, np.zeros((p, q)), np.eye(p), np.eye(q))
    return sample_mxvt(params, n, seed=seed).data.copy()


def test_safe_cholesky_raises_without_retry():
    L, logdet = safe_cholesky(np.array([[4.0, 2.0], [2.0, 2.0]]), "row scatter")
    np.testing.assert_allclose(L @ L.T, [[4.0, 2.0], [2.0, 2.0]])
    assert logdet == pytest.approx(np.log(4.0))
    with pytest.raises(SingularUpdateError, match="row scatter update"):
        safe_cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]), "row scatter")


@pytest.mark.parametrize("fit, per_group, fixed", [(mxvn_fit, 0, 0), (mxvt_fit, 1, 1)])
def test_each_scatter_is_factored_once_per_iteration(monkeypatch, fit, per_group, fixed):
    # Sigma and Omega once each per iteration; the t fit's brackets also
    # factor Omega once per group, at the start and in every iteration
    groups = [MatrixStack(_t_stack(30 + 5 * g, seed=40 + g)) for g in range(3)]
    cholesky = np.linalg.cholesky
    calls = []

    def counted(A):
        calls.append(np.ndim(A))
        return cholesky(A)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    res = fit(groups)
    assert res.iterations > 1
    G = len(groups)
    assert calls.count(2) == (2 + per_group * G) * res.iterations + fixed * G


def _constant_column(X):
    X[:, :, 1] = 0.1
    return X


def _collinear_columns(X):
    X[:, :, 2] = 2.0 * X[:, :, 0] + 1.0
    return X


def _duplicated_row(X):
    X[:, 3, :] = X[:, 0, :]
    return X


@pytest.mark.parametrize("fit", FITTERS)
@pytest.mark.parametrize(
    "make, what",
    [
        (_constant_column, "column scatter"),
        (_collinear_columns, "column scatter"),
        (_duplicated_row, "row scatter"),
    ],
)
def test_rank_deficient_stack_names_the_singular_scatter(fit, make, what):
    X = make(_t_stack())
    with pytest.raises(EstimationError, match=what):
        fit(MatrixStack(X))
    # also when the deficiency holds within each group of a pooled fit
    with pytest.raises(EstimationError, match=what):
        fit([MatrixStack(X[:30]), MatrixStack(X[30:] + 1.0)])
    # and when only the other scatter is structured
    other = "col_scatter" if what == "row scatter" else "row_scatter"
    structure = StructureSpec(**{other: ScatterStructure.AR1})
    with pytest.raises(EstimationError, match=what):
        fit(MatrixStack(X), CONFIGS[fit](structure=structure))


@pytest.mark.parametrize("fit", FITTERS)
def test_badly_scaled_columns_still_fit(fit):
    X = _t_stack()
    scale = np.array([1e-6, 1.0, 1e6])
    plain, scaled = fit(MatrixStack(X)), fit(MatrixStack(X * scale))
    assert scaled.converged
    # column scaling maps the fit: Omega -> S Omega S, log-lik - n p log|S|,
    # up to where the stop rule leaves the t fit's slowly moving nu
    n, p, _ = X.shape
    shifted = plain.log_lik - n * p * np.log(scale).sum()
    assert scaled.log_lik == pytest.approx(shifted, rel=1e-6)
    np.testing.assert_allclose(
        scaled.params.Omega, plain.params.Omega * np.outer(scale, scale), rtol=1e-2
    )
