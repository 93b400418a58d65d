"""Behaviour the normal and t fitters share: the iteration driver, how each
factors its scatter matrices, and which data they refuse before fitting."""

from dataclasses import replace

import numpy as np
import pytest

from matvt.datamodel import (
    Ar1Matrix,
    CsMatrix,
    MatrixStack,
    MeanStructure,
    MxvtParams,
    ScatterStructure,
    StructureSpec,
)
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



@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: EcmeConfig(nu="foo"), "nu"),
        (lambda: EcmeConfig(nu=None), "nu"),
        (lambda: EcmeConfig(nu=float("nan")), "nu"),
        (lambda: EcmeConfig(nu_bounds=(2.0, np.inf)), "nu_bounds"),
        (lambda: FitConfig(max_iter=2.5), "max_iter"),
        (lambda: EcmeConfig(max_iter=2.5), "max_iter"),
    ],
    ids=["nu-str", "nu-none", "nu-nan", "nu-bounds-inf", "max-iter-float", "ecme-max-iter-float"],
)
def test_bad_config_field_is_named_at_construction(make, field):
    with pytest.raises(ValueError, match=rf"^{field} must"):
        make()

@pytest.mark.parametrize("pooled", [False, True], ids=["stack", "groups"])
@pytest.mark.parametrize(
    "fit, config",
    [(mxvn_fit, FitConfig()), (mxvt_fit, EcmeConfig()), (mxvt_fit, EcmeConfig(nu=6.0))],
    ids=["normal", "t-estimated-nu", "t-fixed-nu"],
)
def test_fit_cut_short_is_a_prefix_of_the_full_fit(fit, config, pooled):
    X = _t_stack(90)
    data = [MatrixStack(X[30 * g : 30 * (g + 1)] + g) for g in range(3)] if pooled else X
    full = fit(data, config)
    assert full.converged and full.iterations > 2
    assert len(full.log_lik_trace) == full.iterations
    assert full.log_lik == full.log_lik_trace[-1]
    # the stop never fires at the first iteration, and a fit cut short by
    # max_iter is the full fit's first k iterations
    for k in (1, full.iterations // 2, full.iterations - 1):
        cut = fit(data, replace(config, max_iter=k))
        assert cut.iterations == k
        assert cut.converged is False
        assert np.array_equal(cut.log_lik_trace, full.log_lik_trace[:k])
        assert cut.log_lik == cut.log_lik_trace[-1]


@pytest.mark.parametrize("fit", FITTERS)
def test_duplicated_row_under_a_constrained_mean_names_the_row_scatter(fit):
    # a constrained mean skips the rank check, so the fit itself must fail
    # with a matvt error
    structure = StructureSpec(mean=MeanStructure.CONSTANT)
    with pytest.raises(SingularUpdateError, match="row scatter"):
        fit(MatrixStack(_duplicated_row(_t_stack())), CONFIGS[fit](structure=structure))


def test_data_scale_that_swamps_the_t_start_names_the_row_scatter():
    # C_i = D_i D_i^T + Sigma at the start Sigma = I, and D_i D_i^T has rank
    # q < p, so at a large enough scale Sigma falls below rounding
    X = _t_stack()
    assert mxvt_fit(MatrixStack(X * 1e5)).converged
    for scale in (1e8, 1e12):
        with pytest.raises(SingularUpdateError, match="row scatter"):
            mxvt_fit(MatrixStack(X * scale))


@pytest.mark.parametrize("fit", FITTERS)
def test_sample_size_warning_points_at_the_caller(fit):
    # check_sample_size warns with stacklevel=4: right only while each
    # fitter calls check_fit_data itself
    structure = StructureSpec(row_scatter=ScatterStructure.AR1, col_scatter=ScatterStructure.AR1)
    config = CONFIGS[fit](max_iter=5, structure=structure)
    with pytest.warns(UserWarning, match="existence threshold") as record:
        fit(MatrixStack(_t_stack()[:3, :3, :3]), config)
    assert record[0].filename == __file__


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", [ScatterStructure.FREE, ScatterStructure.AR1, ScatterStructure.CS])
@pytest.mark.parametrize("fit", FITTERS)
def test_fit_of_the_transpose_is_the_transposed_fit(fit, kind, seed):
    # X ~ (M, Sigma, Omega, nu) exactly when X^T ~ (M^T, Omega, Sigma, nu).
    # For the t the two sides differ: a structure on the rows goes through
    # the direct form of the profile search, on the columns the inverse one
    p, q = 4, 5
    truth = MxvtParams(
        6.0, np.arange(p * q).reshape(p, q) / 10, Ar1Matrix(p, 0.5).full(), CsMatrix(q, 0.3).full()
    )
    X = sample_mxvt(truth, 60, seed=seed).data

    def fitted(data, structure):
        config = CONFIGS[fit](tolerance=1e-13, max_iter=5000, structure=structure)
        res = fit(MatrixStack(data), config)
        assert res.converged
        return res

    rows = fitted(X, StructureSpec(row_scatter=kind))
    cols = fitted(X.transpose(0, 2, 1), StructureSpec(col_scatter=kind))
    a, b = rows.params, cols.params
    assert cols.log_lik == pytest.approx(rows.log_lik, rel=1e-10)
    if fit is mxvt_fit:
        assert b.nu == pytest.approx(a.nu, rel=1e-5)
    # each fit is normalized on its own row scatter, so compare shapes
    for S, T in ((a.Sigma, b.Omega), (a.Omega, b.Sigma)):
        np.testing.assert_allclose(S / S[0, 0], T / T[0, 0], rtol=0, atol=1e-6)
    np.testing.assert_allclose(a.M, b.M.T, rtol=0, atol=1e-6)
