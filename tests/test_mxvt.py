import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matvt import mxvt
from matvt.datamodel import (
    Ar1Matrix,
    MatrixStack,
    MeanStructure,
    MxvtParams,
    ScatterStructure,
    StructureSpec,
)
from matvt.distributions import make_rng, mxvt_logpdf, sample_mxvt, t_bracket
from matvt.mxvt import NU_ESTIMATE, EcmeConfig, cme1, estep, mxvt_fit, solve_nu

from conftest import random_spd


def _true_params(rng, p=3, q=2, nu=6.0):
    return MxvtParams(
        nu=nu,
        M=rng.standard_normal((p, q)),
        Sigma=random_spd(rng, p),
        Omega=random_spd(rng, q),
    )


# ---------------------------------------------------------------------------
# E-step


def _estep_at(data, params):
    data = data if isinstance(data, MatrixStack) else MatrixStack(np.asarray(data))
    C, _ = t_bracket(data.data, params)
    return estep(data, C, params.nu)


def test_estep_weight_matrix_definition(rng):
    params = _true_params(rng, p=2, q=3, nu=5.0)
    data = sample_mxvt(params, 20, seed=1)
    kappa = params.nu + params.p + params.q - 1
    stats = _estep_at(data, params)
    assert stats.n == 20
    # the bracket written out, not taken from t_bracket
    D = data.data - params.M
    C = D @ np.linalg.inv(params.Omega) @ D.transpose(0, 2, 1) + params.Sigma
    S = kappa * np.linalg.inv(C)
    np.testing.assert_allclose(stats.s_s, S.sum(axis=0), rtol=1e-10)
    np.testing.assert_allclose(
        stats.s_sx, np.einsum("nij,njk->ik", S, data.data), rtol=1e-10
    )
    np.testing.assert_allclose(
        stats.s_xsx,
        np.einsum("nji,njk,nkl->il", data.data, S, data.data),
        rtol=1e-10,
    )


def test_estep_scalar_weight(rng):
    # p = q = 1: the weight reduces to (nu + 1) / ((x - m)^2 / omega + sigma)
    nu, m, sigma, omega = 4.0, 0.5, 2.0, 3.0
    params = MxvtParams(
        nu=nu, M=np.array([[m]]), Sigma=np.array([[sigma]]), Omega=np.array([[omega]])
    )
    x = np.array([[[1.7]], [[-0.4]]])
    stats = _estep_at(x, params)
    w = (nu + 1.0) / ((x[:, 0, 0] - m) ** 2 / omega + sigma)
    assert stats.s_s[0, 0] == pytest.approx(w.sum(), rel=1e-12)
    assert stats.s_sx[0, 0] == pytest.approx((w * x[:, 0, 0]).sum(), rel=1e-12)


def test_estep_shape_mismatch():
    # 2x2 brackets belong to p = 2; a 3x2 stack or a different n is refused
    C = np.broadcast_to(np.eye(2), (3, 2, 2))
    with pytest.raises(ValueError):
        estep(np.zeros((3, 3, 2)), C, 5.0)
    with pytest.raises(ValueError):
        estep(np.zeros((4, 2, 3)), C, 5.0)


# ---------------------------------------------------------------------------
# first conditional maximization


def test_cme1_unconstrained_closed_forms(rng):
    params = _true_params(rng, p=2, q=3, nu=7.0)
    data = sample_mxvt(params, 60, seed=4)
    n, p, q = data.n, data.p, data.q
    stats = _estep_at(data, params)
    (M,), Sigma, Omega = cme1([stats], params.nu)
    s_s, s_sx, s_xsx = stats.s_s, stats.s_sx, stats.s_xsx
    np.testing.assert_allclose(M, np.linalg.solve(s_s, s_sx), rtol=1e-10)
    np.testing.assert_allclose(
        Sigma, n * (params.nu + p - 1) * np.linalg.inv(s_s), rtol=1e-10
    )
    A = s_xsx - s_sx.T @ np.linalg.solve(s_s, s_sx)
    np.testing.assert_allclose(Omega, A / (n * p), rtol=1e-10)


def test_cme1_constant_mean(rng):
    params = _true_params(rng, p=2, q=2, nu=6.0)
    data = sample_mxvt(params, 40, seed=5)
    stats = _estep_at(data, params)
    spec = StructureSpec(mean=MeanStructure.CONSTANT)
    (M,), _, _ = cme1([stats], params.nu, spec, prev_omega=params.Omega)
    assert np.ptp(M) == pytest.approx(0.0, abs=1e-14)
    # the scalar solves the Omega-weighted normal equation
    s_s, s_sx = stats.s_s, stats.s_sx
    w = np.linalg.solve(params.Omega, np.ones(2))
    mu = (np.ones(2) @ s_sx @ w) / (s_s.sum() * w.sum())
    assert M[0, 0] == pytest.approx(mu, rel=1e-10)


# ---------------------------------------------------------------------------
# degrees-of-freedom solve


def _nu_profile(rng, nu, n, seed):
    # the observed log-likelihood over nu at (M, Sigma, Omega) from one
    # E-step and CM step at the true parameters
    params = _true_params(rng, nu=nu)
    data = sample_mxvt(params, n, seed=seed)
    stats = _estep_at(data, params)
    (M,), Sigma, Omega = cme1([stats], params.nu)
    return lambda v: mxvt_logpdf(data.data, MxvtParams(v, M, Sigma, Omega)).sum()


def test_solve_nu_maximizes_observed_loglik(rng):
    ll_of = _nu_profile(rng, nu=8.0, n=100, seed=7)
    nu_hat, interior = solve_nu(ll_of, 10.0)
    assert interior and 2.0 < nu_hat < 1000.0
    best = ll_of(nu_hat)
    near = nu_hat * (1 + np.linspace(-0.05, 0.05, 11))
    grid = np.concatenate([np.geomspace(2.0, 1000.0, 80), near])
    assert all(best >= ll_of(v) - 1e-10 * abs(best) for v in grid)


def test_solve_nu_interval_off_the_maximum_returns_its_end(rng):
    ll_of = _nu_profile(rng, nu=8.0, n=100, seed=8)
    nu_hat, _ = solve_nu(ll_of, 10.0)
    # an interval entirely left of the maximum -> its upper end, flagged
    hi = nu_hat / 2
    assert solve_nu(ll_of, hi / 2, bounds=(2.0, hi)) == (hi, False)
    # entirely right of it -> its lower end, flagged
    lo = nu_hat * 2
    assert solve_nu(ll_of, 2 * lo, bounds=(lo, 1000.0)) == (lo, False)


def test_solve_nu_keeps_current_nu_the_search_cannot_beat():
    # the search only gets within its tolerance of the maximum at 7.3
    ll_of = lambda v: -((v - 7.3) ** 2)
    assert solve_nu(ll_of, 7.3) == (7.3, True)
    nu_hat, interior = solve_nu(ll_of, 50.0)
    assert interior and nu_hat == pytest.approx(7.3, abs=1e-5)


def test_fit_flags_nu_at_the_upper_bound():
    # replicate 10 of criterion 1's nu=20, n=35 cell: its nu estimate runs to
    # the upper bound; the bounded search alone stops about 1.5e-5 short of
    # it and would report an interior, converged fit
    truth = MxvtParams(20.0, np.zeros((5, 3)), np.eye(5), np.eye(3))
    data = sample_mxvt(truth, 35, make_rng(20240501, 2_000_010))
    res = mxvt_fit(data, EcmeConfig(max_iter=6000))
    assert res.params.nu == 1000.0
    assert res.nu_at_bound and not res.converged


# ---------------------------------------------------------------------------
# full ECME fit


def test_fit_takes_one_bracket_per_group_per_iteration(rng, monkeypatch, squarem):
    # one bracket per group at the start, then one per group per iteration
    # that serves both the log-likelihood and the next E-step, and one per
    # group at every extrapolated point tried, which serves the step from it
    calls = []

    def counted(X, params):
        calls.append(len(X))
        return t_bracket(X, params)

    monkeypatch.setattr("matvt.mxvt.t_bracket", counted)
    params = _true_params(rng, p=3, q=2, nu=6.0)
    groups = [sample_mxvt(params, 30 + 5 * g, seed=40, stream=g) for g in range(3)]
    ar1_rows = StructureSpec(row_scatter=ScatterStructure.AR1)
    for config, accelerated in (
        (EcmeConfig(), True),
        (EcmeConfig(nu=6.0), True),
        (EcmeConfig(structure=ar1_rows), False),
    ):
        calls.clear()
        res = mxvt_fit(groups, config)
        assert res.iterations > 1
        assert (squarem.tried > 0) == accelerated
        assert calls == [30, 35, 40] * (res.iterations + 1 + squarem.tried)


def test_fit_monotone_loglik(rng):
    for rep in range(8):
        params = _true_params(rng, p=3, q=2, nu=float(rng.uniform(3, 30)))
        data = sample_mxvt(params, 80, seed=100 + rep)
        res = mxvt_fit(data)
        diffs = np.diff(res.log_lik_trace)
        floor = -1e-8 * (1.0 + np.abs(res.log_lik_trace[:-1]))
        assert np.all(diffs >= floor)
        assert res.params.Sigma[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_fit_recovers_nu_and_scatter(rng):
    true = MxvtParams(
        nu=5.0,
        M=np.ones((3, 2)),
        Sigma=random_spd(rng, 3),
        Omega=random_spd(rng, 2),
    )
    data = sample_mxvt(true, 3_000, seed=9)
    res = mxvt_fit(data)
    assert res.converged
    assert res.params.nu == pytest.approx(5.0, abs=0.6)
    np.testing.assert_allclose(res.params.M, true.M, atol=0.1)
    true_n = true.Sigma / true.Sigma[0, 0]
    np.testing.assert_allclose(res.params.Sigma, true_n, rtol=0.1, atol=0.05)
    np.testing.assert_allclose(
        res.params.Omega, true.Omega * true.Sigma[0, 0], rtol=0.1
    )


def test_fit_fixed_nu(rng):
    true = _true_params(rng, nu=6.0)
    data = sample_mxvt(true, 150, seed=10)
    res = mxvt_fit(data, EcmeConfig(nu=6.0))
    assert res.params.nu == 6.0
    assert res.converged
    diffs = np.diff(res.log_lik_trace)
    assert np.all(diffs >= -1e-8 * (1.0 + np.abs(res.log_lik_trace[:-1])))


def test_fit_fixed_nu_beats_wrong_nu(rng):
    true = _true_params(rng, p=2, q=2, nu=4.0)
    data = sample_mxvt(true, 500, seed=11)
    right = mxvt_fit(data, EcmeConfig(nu=4.0))
    wrong = mxvt_fit(data, EcmeConfig(nu=100.0))
    assert right.log_lik > wrong.log_lik


def test_fit_estimated_nu_at_least_fixed_true(rng):
    true = _true_params(rng, p=2, q=3, nu=7.0)
    data = sample_mxvt(true, 300, seed=12)
    free = mxvt_fit(data)
    fixed = mxvt_fit(data, EcmeConfig(nu=7.0))
    assert free.log_lik >= fixed.log_lik - 1e-6


def test_fit_normal_data_pushes_nu_up(rng):
    # near-normal data: nu estimate drifts toward the upper bound and the
    # fit reports the bound instead of claiming convergence
    true = _true_params(rng, p=2, q=2, nu=500.0)
    data = sample_mxvt(true, 200, seed=13)
    res = mxvt_fit(data, EcmeConfig(nu_bounds=(2.0, 40.0), max_iter=300))
    assert res.params.nu == pytest.approx(40.0, abs=1e-3)
    assert res.nu_at_bound
    assert not res.converged


def test_fit_structured_scatter(rng):
    true = MxvtParams(
        nu=6.0,
        M=np.zeros((4, 2)),
        Sigma=Ar1Matrix(dim=4, rho=0.5).full(),
        Omega=np.eye(2),
    )
    data = sample_mxvt(true, 2_000, seed=14)
    cfg = EcmeConfig(structure=StructureSpec(row_scatter=ScatterStructure.AR1))
    res = mxvt_fit(data, cfg)
    assert res.params.Sigma[0, 1] == pytest.approx(0.5, abs=0.05)
    assert res.params.Sigma[1, 2] == pytest.approx(0.5, abs=0.05)
    assert res.params.nu == pytest.approx(6.0, abs=1.2)


def test_fit_vector_case_matches_ecm_oracle(rng):
    # p = 1: the model is a q-variate t. Compare against an independently
    # coded EM for the multivariate t with known df update (fixed nu), where
    # the E-step weight is w_i = (nu + q) / (nu + d_i) under the shape
    # Lambda = Omega / nu and scatter updates are the standard weighted ones.
    q, nu = 3, 5.0
    true = MxvtParams(
        nu=nu, M=rng.standard_normal((1, q)), Sigma=np.eye(1), Omega=random_spd(rng, q)
    )
    data = sample_mxvt(true, 800, seed=15)
    X = data.data[:, 0, :]

    mu = X.mean(axis=0)
    Lam = np.cov(X.T)
    for _ in range(500):
        d = np.einsum("ni,ij,nj->n", X - mu, np.linalg.inv(Lam), X - mu)
        w = (nu + q) / (nu + d)
        mu_new = (w[:, None] * X).sum(axis=0) / w.sum()
        R = X - mu_new
        Lam_new = (w[:, None, None] * np.einsum("ni,nj->nij", R, R)).mean(axis=0)
        if np.abs(Lam_new - Lam).max() < 1e-12 and np.abs(mu_new - mu).max() < 1e-12:
            mu, Lam = mu_new, Lam_new
            break
        mu, Lam = mu_new, Lam_new

    res = mxvt_fit(data, EcmeConfig(nu=nu, tolerance=1e-12, max_iter=2000))
    np.testing.assert_allclose(res.params.M[0], mu, rtol=1e-6, atol=1e-8)
    # our scatter: sigma * Omega relates to the t shape by Lambda = omega/nu
    ours = res.params.Sigma[0, 0] * res.params.Omega / nu
    np.testing.assert_allclose(ours, Lam, rtol=1e-5)


def test_config_validation():
    with pytest.raises(ValueError):
        EcmeConfig(nu=-1.0)
    with pytest.raises(ValueError):
        EcmeConfig(nu_bounds=(0.5, 10.0))
    with pytest.raises(ValueError):
        EcmeConfig(nu_bounds=(10.0, 2.0))
    assert EcmeConfig().estimate_nu
    assert not EcmeConfig(nu=5.0).estimate_nu


# ---------------------------------------------------------------------------
# SQUAREM


def _squarem_data(p, q, pooled, seed=5):
    truth = MxvtParams(6.0, np.arange(p * q).reshape(p, q) / 10.0, np.eye(p), np.eye(q))
    X = sample_mxvt(truth, 40, seed=seed).data
    return [MatrixStack(X[:20]), MatrixStack(X[20:] + 1.0)] if pooled else MatrixStack(X)


def _close(got, want, rtol=1e-14):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.mark.parametrize("p, q", [(4, 3), (1, 3), (4, 1)])
@pytest.mark.parametrize("pooled", [False, True], ids=["stack", "groups"])
@pytest.mark.parametrize(
    "nu", [NU_ESTIMATE, 6.0, 1500.0], ids=["estimated-nu", "fixed-nu", "fixed-nu-past-the-bounds"]
)
def test_squarem_coordinates_round_trip(squarem, p, q, pooled, nu):
    res = mxvt_fit(_squarem_data(p, q, pooled), EcmeConfig(nu=nu, max_iter=4))
    to_vector, from_vector = squarem.coords
    x = to_vector(squarem.state)
    assert len(x) == (2 if pooled else 1) * p * q + p * (p + 1) // 2 + q * (q + 1) // 2 + (
        nu == NU_ESTIMATE
    )
    state, ll = from_vector(x)
    assert _close(to_vector(state), x)
    for got, want in zip(state[0], squarem.state[0]):
        for name in ("nu", "M", "Sigma", "Omega"):
            assert _close(getattr(got, name), getattr(want, name)), name
    # the log-likelihood at the mapped-back state is the step's own, to
    # rounding that the weight kappa = nu + p + q - 1 scales up
    assert ll == pytest.approx(res.log_lik_trace[-1], rel=1e-12)


@pytest.mark.parametrize("how", ["collinear", "lower", "overflow", "singular"])
def test_failed_extrapolation_takes_the_plain_step(monkeypatch, how):
    # collinear: theta_0, theta_1, theta_2 evenly spaced, so v = 0 and
    # theta' is not finite; lower: a valid theta' far off the maximum;
    # overflow: a theta' whose factors overflow; singular: a theta' whose
    # factors underflow to zero, so its brackets are singular.  Each time
    # the third step starts from theta_2: the fit is the plain one, and no
    # warning is raised
    data = _squarem_data(4, 3, pooled=False)
    iterate = mxvt._iterate
    monkeypatch.setattr(mxvt, "_iterate", lambda step, state, config, single, coords: iterate(
        step, state, config, single))
    plain = mxvt_fit(data)
    mapped = []

    def forced(step, state, config, single, coords):
        to_vector, from_vector = coords
        if how == "collinear":
            steps = itertools.count()
            to_vector = lambda s: np.full(3, float(next(steps)))
        shift = {"collinear": 0.0, "lower": 10.0, "overflow": 1e3, "singular": -1e3}[how]

        def shifted(x):
            mapped.append(from_vector(x + shift))
            return mapped[-1]

        return iterate(step, state, config, single, (to_vector, shifted))

    monkeypatch.setattr(mxvt, "_iterate", forced)
    res = mxvt_fit(data)
    if how == "collinear":
        assert not mapped
    else:
        assert mapped and all((got is None) == (how != "lower") for got in mapped)
    assert res.iterations == plain.iterations > 3
    assert np.array_equal(res.log_lik_trace, plain.log_lik_trace)
    assert res.params.nu == plain.params.nu
    np.testing.assert_array_equal(res.params.Sigma, plain.params.Sigma)


def test_fit_cut_at_a_cycle_end_reports_the_parameters_it_scored():
    # a cycle extrapolates after its third step; a fit whose max_iter ends
    # there must not return the extrapolated point with the step's log-lik
    X = _squarem_data(4, 3, pooled=False)
    for k in (3, 6, 9):
        res = mxvt_fit(X, EcmeConfig(max_iter=k))
        assert res.iterations == k
        assert res.log_lik == pytest.approx(float(mxvt_logpdf(X.data, res.params).sum()), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(1, 4), q=st.integers(1, 4), seed=st.integers(0, 2**16),
    estimate=st.booleans(),
)
def test_accelerated_trace_never_falls(p, q, seed, estimate):
    rng = np.random.default_rng(seed)
    nu = float(rng.uniform(3.0, 30.0))
    truth = MxvtParams(nu, rng.standard_normal((p, q)), random_spd(rng, p), random_spd(rng, q))
    res = mxvt_fit(sample_mxvt(truth, 30, seed=seed), EcmeConfig(nu=NU_ESTIMATE if estimate else nu))
    # the tolerance of the benchmark's trace check
    floor = -1e-10 * (1.0 + abs(res.log_lik))
    assert np.diff(res.log_lik_trace).min() >= floor
