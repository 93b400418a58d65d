import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matvt.classify import (
    bic,
    evaluate,
    loocv,
    param_count,
    predict,
    scores,
    train,
)
from matvt.datamodel import (
    MatrixStack,
    MxvnParams,
    MxvtParams,
    ScatterStructure,
    StructureSpec,
)
from matvt.distributions import mxvn_logpdf, sample_mxvn, sample_mxvt
from matvt.errors import EstimationError
from matvt.mxvn import FitConfig, mxvn_fit
from matvt.mxvt import EcmeConfig, mxvt_fit

from conftest import random_spd


def _two_group_data(rng, family="normal", n=200, p=2, q=3, nu=6.0, seed=0):
    Sigma = random_spd(rng, p)
    Omega = random_spd(rng, q)
    M0 = np.zeros((p, q))
    M1 = np.full((p, q), 3.0)
    stacks, labels = [], []
    for g, M in enumerate((M0, M1)):
        if family == "normal":
            s = sample_mxvn(MxvnParams(M, Sigma, Omega), n, seed=seed, stream=g)
        else:
            s = sample_mxvt(MxvtParams(nu, M, Sigma, Omega), n, seed=seed, stream=g)
        stacks.append(s.data)
        labels.extend([g] * n)
    return MatrixStack(np.concatenate(stacks), labels=labels)


# ---------------------------------------------------------------------------
# training and parameter counting


def test_param_count_examples():
    spec = StructureSpec()
    # p=2, q=3, 2 groups, normal, unpooled: 2*6 means + 2*(3+6-1) scatter
    assert param_count(spec, 2, 3, 2, "normal", "none", pooled=False) == 28
    assert param_count(spec, 2, 3, 2, "normal", "none", pooled=True) == 20
    assert param_count(spec, 2, 3, 2, "t", "estimate", pooled=False) == 30
    assert param_count(spec, 2, 3, 2, "t", "estimate", pooled=True) == 21
    assert param_count(spec, 2, 3, 2, "t", "fixed", pooled=False) == 28
    ar1 = StructureSpec(row_scatter=ScatterStructure.AR1)
    # scatter: 2 (ar1) + 6 (free q=3) - 1 = 7 per group
    assert param_count(ar1, 2, 3, 2, "normal", "none", pooled=False) == 26


def test_train_normal_and_predict(rng):
    data = _two_group_data(rng, "normal", seed=1)
    model = train(data, family="normal")
    assert model.class_labels == [0, 1]
    err, confusion = evaluate(model, data)
    assert err < 0.15
    assert confusion.sum() == data.n
    np.testing.assert_array_equal(confusion.sum(axis=1), [200, 200])


def test_train_t_recovers_groups(rng):
    data = _two_group_data(rng, "t", n=300, nu=5.0, seed=2)
    model = train(data, family="t")
    assert model.nu_mode == "estimate"
    for prm in model.groups:
        assert 2.5 < prm.nu < 12.0
    err, _ = evaluate(model, data)
    assert err < 0.1


def test_priors_resolution(rng):
    data = _two_group_data(rng, "normal", n=50, seed=3)
    unbalanced = data.subset(np.r_[np.arange(50), np.arange(50, 75)])
    emp = train(unbalanced, family="normal", priors="empirical")
    np.testing.assert_allclose(emp.priors, [2 / 3, 1 / 3])
    eq = train(unbalanced, family="normal", priors="equal")
    np.testing.assert_allclose(eq.priors, [0.5, 0.5])
    given = train(unbalanced, family="normal", priors=[3.0, 1.0])
    np.testing.assert_allclose(given.priors, [0.75, 0.25])
    # given priors are not estimated parameters, and an ndarray is the list
    assert given.param_count == emp.param_count - 1
    as_array = train(unbalanced, family="normal", priors=np.array([3.0, 1.0]))
    np.testing.assert_array_equal(as_array.priors, given.priors)
    assert (as_array.param_count, as_array.bic) == (given.param_count, given.bic)
    assert as_array.train_log_lik == given.train_log_lik
    with pytest.raises(ValueError):
        train(unbalanced, family="normal", priors=[1.0, -1.0])
    with pytest.raises(ValueError):
        train(unbalanced, family="normal", priors="bogus")


def test_train_input_validation(rng):
    data = _two_group_data(rng, "normal", n=30, seed=4)
    with pytest.raises(EstimationError):
        train(MatrixStack(data.data))  # unlabeled
    with pytest.raises(EstimationError):
        train(data.subset(data.labels == 0))  # one group
    with pytest.raises(ValueError):
        train(data, family="gaussian")


# ---------------------------------------------------------------------------
# shared-scatter fits: a list of group stacks through mxvn_fit / mxvt_fit


def _group_stacks(data):
    return [s for _, s in data.groups()]


def test_one_group_list_matches_bare_stack(rng):
    data = _two_group_data(rng, "t", n=60, nu=6.0, seed=14).subset(np.arange(60))
    for fit, config in ((mxvn_fit, FitConfig()), (mxvt_fit, EcmeConfig())):
        bare = fit(data, config)
        listed = fit([data], config)
        (prm,) = listed.params
        for name in ("M", "Sigma", "Omega"):
            np.testing.assert_array_equal(getattr(prm, name), getattr(bare.params, name))
        assert getattr(prm, "nu", None) == getattr(bare.params, "nu", None)
        assert listed.log_lik == bare.log_lik
        assert listed.iterations == bare.iterations
        assert listed.converged == bare.converged
        np.testing.assert_array_equal(listed.log_lik_trace, bare.log_lik_trace)


def test_group_list_validation(rng):
    with pytest.raises(ValueError):
        mxvn_fit([MatrixStack(np.zeros((5, 2, 3))), MatrixStack(np.zeros((5, 3, 2)))])
    # two groups of 2 at p = q = 2 count as one stack of 3 <= 4 = p/q + q/p + 2
    small = [MatrixStack(rng.standard_normal((2, 2, 2))) for _ in range(2)]
    for fit in (mxvn_fit, mxvt_fit):
        with pytest.raises(EstimationError):
            fit(small)


def test_pooled_fits_are_monotone(rng):
    data = _two_group_data(rng, "t", n=80, nu=5.0, seed=15)
    for fit, config in ((mxvn_fit, FitConfig()), (mxvt_fit, EcmeConfig())):
        res = fit(_group_stacks(data), config)
        assert res.converged
        ll = res.log_lik_trace
        assert np.all(np.diff(ll) >= -1e-8 * (1.0 + np.abs(ll[:-1])))


def test_pooled_t_respects_nu_bounds(rng):
    data = _two_group_data(rng, "t", n=150, nu=8.0, seed=16)
    res = mxvt_fit(_group_stacks(data), EcmeConfig(nu_bounds=(2.0, 4.0)))
    assert res.nu_at_bound and not res.converged
    assert all(prm.nu == pytest.approx(4.0, abs=1e-5) for prm in res.params)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n_groups=st.integers(2, 3),
    nu=st.sampled_from([None, 6.0, "estimate"]),
)
def test_pooled_fit_ignores_group_order(seed, n_groups, nu):
    gen = np.random.default_rng(seed)
    p, q = 2, 3
    Sigma, Omega = random_spd(gen, p), random_spd(gen, q)
    stacks = []
    for g in range(n_groups):
        M = 2.0 * gen.standard_normal((p, q))
        n = int(gen.integers(10, 40))
        if nu is None:
            stacks.append(sample_mxvn(MxvnParams(M, Sigma, Omega), n, seed=seed, stream=g))
        else:
            stacks.append(sample_mxvt(MxvtParams(6.0, M, Sigma, Omega), n, seed=seed, stream=g))
    fit, config = (mxvn_fit, FitConfig()) if nu is None else (mxvt_fit, EcmeConfig(nu=nu))
    fwd = fit(stacks, config)
    rev = fit(stacks[::-1], config)
    # an estimated nu comes from a Newton step on the observed
    # log-likelihood, whose result moves smoothly with the rounding of the
    # reordered sums, so it is held to the same tolerance as the rest
    close = lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-9, atol=0)
    close(rev.log_lik, fwd.log_lik)
    for a, b in zip(fwd.params, rev.params[::-1]):
        close(a.M, b.M)
        close(a.Sigma, b.Sigma)
        close(a.Omega, b.Omega)
        if nu is not None:
            close(a.nu, b.nu)


@pytest.mark.parametrize("pooled", [True, False])
def test_train_warns_when_a_fit_stops_early(rng, caplog, pooled):
    data = _two_group_data(rng, "t", n=40, nu=6.0, seed=17)
    with caplog.at_level(logging.WARNING, logger="matvt.classify"):
        train(data, family="t", pooled=pooled, max_iter=1)
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    expected = ["pooled"] if pooled else ["group 0", "group 1"]
    assert len(warned) == len(expected)
    for who, msg in zip(expected, warned):
        assert msg.startswith(who)


# ---------------------------------------------------------------------------
# scoring paths


def test_normal_closed_form_matches_generic_density(rng):
    data = _two_group_data(rng, "normal", n=120, seed=5)
    model = train(data, family="normal")
    X = data.data[:50]
    sc = scores(model, X)
    for g, prm in enumerate(model.groups):
        expected = np.log(model.priors[g]) + mxvn_logpdf(X, prm)
        np.testing.assert_allclose(sc[:, g], expected, rtol=1e-9, atol=1e-9)


def test_scores_single_matrix_matches_batch(rng):
    data = _two_group_data(rng, "t", n=60, nu=8.0, seed=6)
    model = train(data, family="t", nu=8.0)
    one = scores(model, data.data[0])
    batch = scores(model, data.data[:1])
    np.testing.assert_allclose(one, batch[0], rtol=1e-12)
    with pytest.raises(ValueError):
        scores(model, np.zeros((3, 5, 5)))


def test_predict_log_odds_and_tie_break(rng):
    data = _two_group_data(rng, "normal", n=80, seed=7)
    model = train(data, family="normal", priors="equal")
    labels, sc, log_odds = predict(model, data.data[:10])
    np.testing.assert_allclose(log_odds, sc[:, 0] - sc[:, 1], rtol=1e-12)
    assert set(labels) <= {0, 1}
    lab1, sc1, lo1 = predict(model, data.data[0])
    assert lab1 == labels[0]
    assert isinstance(lo1, float)


def test_pooled_normal_boundary_is_affine(rng):
    # shared scatter (LDA analogue): score differences are affine in X, so
    # second differences along any direction vanish
    data = _two_group_data(rng, "normal", n=150, seed=8)
    model = train(data, family="normal", pooled=True)
    np.testing.assert_allclose(
        model.groups[0].Sigma, model.groups[1].Sigma, rtol=1e-12
    )
    V = rng.standard_normal((2, 3))
    X0 = rng.standard_normal((2, 3))
    diff = lambda t: np.subtract(*scores(model, X0 + t * V))
    second = diff(1.0) - 2 * diff(0.0) + diff(-1.0)
    assert abs(second) < 1e-9


def test_pooled_t_boundary_is_not_affine(rng):
    data = _two_group_data(rng, "t", n=300, nu=4.0, seed=9)
    model = train(data, family="t", pooled=True)
    assert model.groups[0].nu == model.groups[1].nu
    V = rng.standard_normal((2, 3))
    X0 = rng.standard_normal((2, 3))
    diff = lambda t: np.subtract(*scores(model, X0 + t * V))
    second = diff(1.0) - 2 * diff(0.0) + diff(-1.0)
    assert abs(second) > 1e-4


def test_t_beats_normal_on_heavy_tailed_data(rng):
    data = _two_group_data(rng, "t", n=400, nu=3.0, seed=10)
    normal = train(data, family="normal")
    heavy = train(data, family="t")
    assert heavy.train_log_lik > normal.train_log_lik
    assert heavy.bic < normal.bic


# ---------------------------------------------------------------------------
# model selection and cross-validation


def test_bic_matches_definition(rng):
    data = _two_group_data(rng, "normal", n=100, seed=11)
    model = train(data, family="normal")
    expected = -2.0 * model.train_log_lik + model.param_count * np.log(data.n)
    assert model.bic == pytest.approx(expected, rel=1e-12)
    assert bic(model, data) == pytest.approx(model.bic, rel=1e-12)


def test_bic_selects_true_structure(rng):
    from matvt.datamodel import Ar1Matrix

    Sigma = Ar1Matrix(dim=4, rho=0.7).full()
    Omega = random_spd(rng, 2)
    stacks, labels = [], []
    for g, shift in enumerate((0.0, 1.5)):
        s = sample_mxvn(
            MxvnParams(np.full((4, 2), shift), Sigma, Omega), 300, seed=12, stream=g
        )
        stacks.append(s.data)
        labels.extend([g] * 300)
    data = MatrixStack(np.concatenate(stacks), labels=labels)
    free = train(data, family="normal")
    ar1 = train(
        data, family="normal", structure=StructureSpec(row_scatter=ScatterStructure.AR1)
    )
    assert ar1.bic < free.bic


def test_loocv_counts_refits(rng, caplog):
    data = _two_group_data(rng, "normal", n=10, seed=13)
    with caplog.at_level(logging.INFO, logger="matvt.classify"):
        err, preds, n_refits = loocv(data, family="normal")
    assert n_refits == 20
    assert len(preds) == 20
    assert 0.0 <= err <= 1.0
    assert sum("refit" in r.message for r in caplog.records) == 20
