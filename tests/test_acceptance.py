"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria finish.  Criterion 2 needs the Statlog satimage files (sat.trn,
sat.tst); point MATVT_SATIMAGE_DIR at a directory containing them,
otherwise that criterion is skipped with an explicit reason.
"""

import os
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import multivariate_normal, multivariate_t

from matvt.classify import evaluate, scores, train
from matvt.datamodel import (
    MatrixStack,
    MxvnParams,
    MxvtParams,
    StructureSpec,
)
from matvt.distributions import (
    make_rng,
    mxvn_logpdf,
    sample_mxvn,
    sample_mxvt,
)
from matvt.experiments import ExperimentSpec, misspecification, nu_recovery
from matvt.mxvt import EcmeConfig, mxvt_fit
from matvt.satimage import parse_satimage

from conftest import random_spd


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. degrees-of-freedom recovery


@pytest.mark.slow
def test_criterion_1_nu_recovery():
    spec = ExperimentSpec(
        name="nu-recovery",
        cells=[
            {"p": 5, "q": 3, "n": 100, "nu": 5.0},
            {"p": 5, "q": 3, "n": 100, "nu": 10.0},
            {"p": 5, "q": 3, "n": 35, "nu": 20.0, "max_iter": 6000},
        ],
        replicates=200,
        seed=20240501,
    )
    rows, summaries = nu_recovery(spec)
    s5, s10, s20 = summaries
    cell20 = [r for r in rows if r["cell"] == 2]
    extreme = any(r["nu_hat"] > 400.0 or r["at_bound"] for r in cell20)
    ok = (
        4.8 <= s5["median"] <= 5.5
        and s5["sd"] <= 1.0
        and 9.3 <= s10["median"] <= 11.3
        and extreme
    )
    report(
        1,
        "nu recovery",
        ok,
        f"nu=5,n=100: median={s5['median']:.3f} sd={s5['sd']:.3f} "
        f"(need median in [4.8,5.5], sd<=1.0); "
        f"nu=10,n=100: median={s10['median']:.3f} (need [9.3,11.3]); "
        f"nu=20,n=35: max={s20['max']:.1f}, at_bound={s20['n_at_bound']} "
        f"(need one estimate >400 or at bound)",
    )


# ---------------------------------------------------------------------------
# 2. Landsat error rates


def _satimage_paths():
    for base in (os.environ.get("MATVT_SATIMAGE_DIR"), "data", "tests/data"):
        if not base:
            continue
        trn = os.path.join(base, "sat.trn")
        tst = os.path.join(base, "sat.tst")
        if os.path.exists(trn) and os.path.exists(tst):
            return trn, tst
    return None


def test_criterion_2_landsat_error_rates():
    paths = _satimage_paths()
    if paths is None:
        msg = (
            "Statlog satimage files not found (set MATVT_SATIMAGE_DIR to a "
            "directory holding sat.trn and sat.tst); no network access in "
            "this environment to fetch them"
        )
        print(f"\nACCEPTANCE 2 (Landsat error rates): SKIP -- {msg}")
        pytest.skip(msg)
    train_stack, test_stack = parse_satimage(*paths)
    results = {}
    normal = train(train_stack, family="normal", priors="empirical")
    results["normal"] = evaluate(normal, test_stack)[0]
    for nu in (10.0, 20.0):
        model = train(train_stack, family="t", nu=nu, priors="empirical")
        results[f"t{int(nu)}"] = evaluate(model, test_stack)[0]
    ok = (
        abs(results["normal"] - 0.126) <= 0.010
        and abs(results["t10"] - 0.116) <= 0.010
        and abs(results["t20"] - 0.109) <= 0.010
    )
    report(
        2,
        "Landsat error rates",
        ok,
        f"normal={results['normal']:.3f} (target 0.126+-0.010), "
        f"t(nu=10)={results['t10']:.3f} (0.116+-0.010), "
        f"t(nu=20)={results['t20']:.3f} (0.109+-0.010)",
    )


# ---------------------------------------------------------------------------
# 3. likelihood monotonicity


def test_criterion_3_likelihood_monotonicity():
    rng = np.random.default_rng(315)
    worst = np.inf
    n_fits = 0
    for rep in range(50):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        n = int(rng.integers(max(12, p * q + 5), 120))
        nu_true = float(rng.uniform(3, 40))
        truth = MxvtParams(
            nu_true, rng.standard_normal((p, q)), random_spd(rng, p), random_spd(rng, q)
        )
        data = sample_mxvt(truth, n, seed=1000 + rep)
        fixed = rep % 2 == 0
        cfg = EcmeConfig(nu=nu_true if fixed else "estimate")
        res = mxvt_fit(data, cfg)
        tr = res.log_lik_trace
        if len(tr) > 1:
            worst = min(worst, float(np.min(np.diff(tr))))
        n_fits += 1
    ok = worst >= -1e-8
    report(
        3,
        "likelihood monotonicity",
        ok,
        f"{n_fits} ECME fits (mixed shapes, fixed and estimated nu); "
        f"worst consecutive log-lik change {worst:.3e} (need >= -1e-8)",
    )


# ---------------------------------------------------------------------------
# 4. oracle equivalence with an independent vector-t ECME


def _vector_t_ecme(X, max_iter=3000, tol=1e-12):
    """Reference ECME for the q-variate t, written against scipy only."""
    n, q = X.shape
    mu = X.mean(axis=0)
    Lam = np.cov(X.T, bias=True)
    nu = 10.0
    prev = None
    for _ in range(max_iter):
        d = np.einsum("ni,ij,nj->n", X - mu, np.linalg.inv(Lam), X - mu)
        w = (nu + q) / (nu + d)
        mu = (w[:, None] * X).sum(axis=0) / w.sum()
        R = X - mu
        Lam = (w[:, None, None] * np.einsum("ni,nj->nij", R, R)).mean(axis=0)

        def nll(v):
            return -multivariate_t(loc=mu, shape=Lam, df=v).logpdf(X).sum()

        nu = float(
            minimize_scalar(nll, bounds=(2.0, 1000.0), method="bounded",
                            options={"xatol": 1e-9}).x
        )
        ll = -nll(nu)
        if prev is not None and abs(ll - prev) / (abs(prev) + 1.0) < tol:
            break
        prev = ll
    return nu, mu, Lam


def test_criterion_4_vector_t_oracle():
    rng = np.random.default_rng(44)
    q, n = 3, 500
    truth = MxvtParams(
        nu=6.0, M=rng.standard_normal((1, q)), Sigma=np.eye(1), Omega=random_spd(rng, q)
    )
    data = sample_mxvt(truth, n, seed=4)
    res = mxvt_fit(data, EcmeConfig(tolerance=1e-13, max_iter=5000))
    nu_ref, mu_ref, lam_ref = _vector_t_ecme(data.data[:, 0, :])

    nu_err = abs(res.params.nu - nu_ref) / nu_ref
    m_err = np.max(np.abs(res.params.M[0] - mu_ref) / (np.abs(mu_ref) + 1e-12))
    # our (sigma * Omega) equals nu * Lambda for the vector t
    ours = res.params.Sigma[0, 0] * res.params.Omega
    theirs = nu_ref * lam_ref
    s_err = np.max(np.abs(ours - theirs) / np.abs(theirs))
    ok = nu_err < 1e-3 and m_err < 1e-3 and s_err < 1e-3
    report(
        4,
        "vector-t oracle equivalence",
        ok,
        f"relative errors vs independent ECME at p=1,q=3,n=500: "
        f"nu {nu_err:.2e}, mean {m_err:.2e}, scatter {s_err:.2e} (need < 1e-3)",
    )


# ---------------------------------------------------------------------------
# 5. Kronecker identity


def test_criterion_5_kronecker_identity():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        params = MxvnParams(
            rng.standard_normal((p, q)), random_spd(rng, p), random_spd(rng, q)
        )
        X = rng.standard_normal((p, q)) + params.M
        oracle = multivariate_normal(
            mean=params.M.ravel(order="F"),
            cov=np.kron(params.Omega, params.Sigma),
        ).logpdf(X.ravel(order="F"))
        worst = max(worst, abs(mxvn_logpdf(X, params) - oracle))
    ok = worst < 1e-10
    report(
        5,
        "Kronecker identity",
        ok,
        f"100 random instances; max |logpdf difference| = {worst:.2e} (need < 1e-10)",
    )


# ---------------------------------------------------------------------------
# 6. sampler moments


def test_criterion_6_sampler_moments():
    rng = np.random.default_rng(66)
    params = MxvtParams(
        nu=10.0,
        M=rng.standard_normal((2, 2)),
        Sigma=random_spd(rng, 2),
        Omega=random_spd(rng, 2),
    )
    n = 100_000
    stack = sample_mxvt(params, n, seed=606)
    # column-stacked vec: entries (0,0),(1,0),(0,1),(1,1)
    V = np.stack(
        [stack.data[:, 0, 0], stack.data[:, 1, 0], stack.data[:, 0, 1], stack.data[:, 1, 1]],
        axis=1,
    )
    target = np.kron(params.Omega, params.Sigma) / (params.nu - 2.0)
    Vc = V - V.mean(axis=0)
    emp = Vc.T @ Vc / (n - 1)
    # Monte Carlo SE of each covariance entry from the empirical fourth moments
    prod = Vc[:, :, None] * Vc[:, None, :]
    se = prod.std(axis=0, ddof=1) / np.sqrt(n)
    z = np.abs(emp - target) / se
    ok = bool(np.all(z <= 3.0))
    report(
        6,
        "sampler moments",
        ok,
        f"1e5 draws at nu=10, p=q=2; max |emp - target| / MC-SE = {z.max():.2f} "
        f"(need <= 3)",
    )


# ---------------------------------------------------------------------------
# 7. timing asymmetry


@pytest.mark.slow
def test_criterion_7_timing_asymmetry():
    truth_tall = MxvtParams(5.0, np.zeros((60, 6)), np.eye(60), np.eye(6))
    truth_wide = MxvtParams(5.0, np.zeros((6, 60)), np.eye(6), np.eye(60))

    def median_time(truth, label):
        times = []
        for r in range(4):
            data = sample_mxvt(truth, 100, seed=700, stream=r)
            t0 = time.perf_counter()
            mxvt_fit(data, EcmeConfig(nu="estimate"))
            if r > 0:  # warm-up excluded
                times.append(time.perf_counter() - t0)
        return float(np.median(times))

    t_tall = median_time(truth_tall, "p=60,q=6")
    t_wide = median_time(truth_wide, "p=6,q=60")
    ratio = t_tall / t_wide
    in_ci = bool(os.environ.get("CI"))
    detail = (
        f"median fit seconds p=60,q=6: {t_tall:.3f}; p=6,q=60: {t_wide:.3f}; "
        f"ratio {ratio:.2f} (need > 1.5{'; reported only under CI' if in_ci else ''})"
    )
    if in_ci:
        print(f"\nACCEPTANCE 7 (timing asymmetry): REPORTED -- {detail}")
        return
    report(7, "timing asymmetry", ratio > 1.5, detail)


# ---------------------------------------------------------------------------
# 8. misspecification curves


def test_criterion_8_misspecification_curves():
    grid = list(range(3, 11)) + [50, 60, 70, 80, 90, 100]
    spec = ExperimentSpec(
        name="misspec",
        cells=[
            {"true": "t", "nu": 6.0, "n": 100},
            {"true": "normal", "n": 100},
        ],
        replicates=1,
        seed=888,
        options={"nu_grid": grid},
    )
    rows, _ = misspecification(spec)
    t_rows = {r["fitted"]: r["log_lik"] for r in rows if r["cell"] == 0}
    n_rows = {r["fitted"]: r["log_lik"] for r in rows if r["cell"] == 1}
    argmax_nu = max((v for v in grid), key=lambda v: t_rows[str(v)])
    spread_low = max(n_rows[str(v)] for v in range(3, 11)) - min(
        n_rows[str(v)] for v in range(3, 11)
    )
    spread_high = max(n_rows[str(v)] for v in (50, 60, 70, 80, 90, 100)) - min(
        n_rows[str(v)] for v in (50, 60, 70, 80, 90, 100)
    )
    ok = 4 <= argmax_nu <= 9 and spread_high < spread_low
    report(
        8,
        "misspecification curves",
        ok,
        f"true nu=6: grid argmax {argmax_nu} (need in [4,9]); true normal: "
        f"log-lik spread over nu in [50,100] = {spread_high:.3f} < "
        f"spread over [3,10] = {spread_low:.3f}",
    )


# ---------------------------------------------------------------------------
# 9. classifier closed-form equality


def test_criterion_9_closed_form_classifier():
    rng = np.random.default_rng(99)
    # 100 random normal score evaluations: closed form vs generic density
    worst = 0.0
    for _ in range(10):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        Sigma, Omega = random_spd(rng, p), random_spd(rng, q)
        stacks, labels = [], []
        for g, shift in enumerate((0.0, 2.0)):
            s = sample_mxvn(
                MxvnParams(np.full((p, q), shift), Sigma, Omega),
                40,
                seed=int(rng.integers(1 << 30)),
            )
            stacks.append(s.data)
            labels.extend([g] * 40)
        data = MatrixStack(np.concatenate(stacks), labels=labels)
        model = train(data, family="normal")
        X = data.data[:10]
        sc = scores(model, X)
        for g, prm in enumerate(model.groups):
            generic = np.log(model.priors[g]) + mxvn_logpdf(X, prm)
            worst = max(worst, float(np.max(np.abs(sc[:, g] - generic))))

    # pooled-normal boundary: affine second-difference test
    Sigma, Omega = random_spd(rng, 2), random_spd(rng, 3)
    stacks, labels = [], []
    for g, shift in enumerate((0.0, 2.0)):
        s = sample_mxvn(MxvnParams(np.full((2, 3), shift), Sigma, Omega), 100, seed=9090, stream=g)
        stacks.append(s.data)
        labels.extend([g] * 100)
    data = MatrixStack(np.concatenate(stacks), labels=labels)
    pooled = train(data, family="normal", pooled=True)
    second_max = 0.0
    for _ in range(20):
        X0 = rng.standard_normal((2, 3))
        V = rng.standard_normal((2, 3))
        diff = lambda t: float(np.subtract(*scores(pooled, X0 + t * V)))
        second_max = max(second_max, abs(diff(1.0) - 2 * diff(0.0) + diff(-1.0)))

    ok = worst < 1e-9 and second_max < 1e-8
    report(
        9,
        "closed-form classifier equality",
        ok,
        f"max |closed-form - generic| over 100 score evaluations = {worst:.2e} "
        f"(need < 1e-9); pooled-normal max second difference = {second_max:.2e}",
    )
