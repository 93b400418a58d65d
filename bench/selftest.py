"""Shows that each check in bench/checks.py passes a correct result and
rejects a corrupted one.

    python3 bench/selftest.py

Run from the root of a checkout.  Exits 1 if a check accepts a corrupted
result or rejects a correct one.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import matvt  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402


def t_problem(seed, p=5, q=3, n=100, nu=10.0):
    rng = ref.rng_for(seed, 0)
    M = rng.standard_normal((p, q))
    truth = matvt.MxvtParams(nu, M, ref.ar1(p, 0.5), ref.random_spd(rng, q))
    X = ref.draw_mxvt(rng, n, nu, M, truth.Sigma, truth.Omega)
    return X, truth


def main():
    cases = []  # (name, failures, should_fail)

    def case(name, failures, corrupt):
        cases.append((name, failures, corrupt))

    X, truth = t_problem(1)
    res = matvt.mxvt_fit(X, matvt.EcmeConfig())
    prm = res.params
    case("fit: correct", checks.fit(res, X, truth), False)
    case("fit: perturbed nu", checks.fit(replace(res, params=replace(prm, nu=prm.nu * 1.05)), X, truth), True)
    case("fit: rescaled Sigma", checks.fit(replace(res, params=replace(prm, Sigma=prm.Sigma * 1.1)), X, truth), True)
    dropped = res.log_lik_trace.copy()
    dropped[len(dropped) // 2] += 1e-3 * abs(dropped[-1])
    case("fit: falling trace", checks.fit(replace(res, log_lik_trace=dropped), X, truth), True)
    worse = replace(prm, M=prm.M + 0.5)
    case("fit: below the generating parameters",
         checks.fit(replace(res, params=worse, log_lik=float(ref.logpdf(X, worse).sum())), X, truth), True)

    nres = matvt.mxvn_fit(X)
    case("normal fit: correct", checks.fit(nres, X), False)
    case("normal fit: rescaled Omega",
         checks.fit(replace(nres, params=replace(nres.params, Omega=nres.params.Omega * 1.1)), X), True)

    wide = matvt.mxvt_fit(X.transpose(0, 2, 1), matvt.EcmeConfig())
    case("duality: correct", checks.duality(res, wide), False)
    case("duality: perturbed nu", checks.duality(res, replace(wide, params=replace(wide.params, nu=wide.params.nu * 1.05))), True)
    case("duality: other maximum", checks.duality(res, replace(wide, log_lik=wide.log_lik - 1.0)), True)

    st = matvt.MxvtParams(10.0, truth.M, truth.Sigma, truth.Omega)
    draws = matvt.sample_mxvt(st, 100_000, 5).data
    case("sampler: correct", checks.sampler(draws, st), False)
    case("sampler: draws at nu=8", checks.sampler(matvt.sample_mxvt(replace(st, nu=8.0), 100_000, 5).data, st), True)
    case("sampler: rescaled Sigma", checks.sampler(draws, replace(st, Sigma=st.Sigma * 1.05)), True)
    case("sampler: swapped scatter", checks.sampler(
        matvt.sample_mxvt(replace(st, Omega=st.Omega[::-1, ::-1].copy()), 100_000, 5).data, st), True)

    dens = matvt.mxvt_logpdf(X, prm)
    case("scores: correct", checks.scores(X, prm, dens), False)
    case("scores: perturbed nu", checks.scores(X, prm, matvt.mxvt_logpdf(X, replace(prm, nu=prm.nu + 0.01))), True)

    # a three-group classifier
    rng = ref.rng_for(2, 0)
    Sigma, Omega = ref.ar1(4, 0.6), ref.random_spd(rng, 9)
    truths = [matvt.MxvtParams(8.0, rng.standard_normal((4, 9)), Sigma, Omega) for _ in range(3)]
    Xs = np.concatenate([ref.draw_mxvt(rng, 150, 8.0, t.M, Sigma, Omega) for t in truths])
    data = matvt.MatrixStack(Xs, np.repeat([1, 2, 3], 150))
    H = np.concatenate([ref.draw_mxvt(rng, 300, 8.0, t.M, Sigma, Omega) for t in truths])
    y = np.repeat([1, 2, 3], 300)
    model = matvt.train(data, family="t", nu=8.0, pooled=True)
    labels, _, _ = matvt.predict(model, H)
    case("predictions: correct", checks.predictions(model, H, labels), False)
    swapped = np.where(labels == 1, 2, np.where(labels == 2, 1, labels))
    case("predictions: swapped labels", checks.predictions(model, H, swapped), True)
    bayes = float(np.mean(np.column_stack([ref.logpdf(H, t) for t in truths]).argmax(axis=1) + 1 != y))
    case("error: correct", checks.error_near_bayes(float(np.mean(labels != y)), bayes, checks.HELDOUT_MARGIN_T, "held-out"), False)
    case("error: swapped labels", checks.error_near_bayes(float(np.mean(swapped != y)), bayes, checks.HELDOUT_MARGIN_T, "held-out"), True)
    case("train_log_lik: correct", checks.train_log_lik(model, data), False)
    case("train_log_lik: perturbed", checks.train_log_lik(replace(model, train_log_lik=model.train_log_lik + 1e-3), data), True)
    case("pooled: correct", checks.pooled(model), False)
    g = list(model.groups)
    g[1] = replace(g[1], Sigma=g[1].Sigma * 1.01)
    case("pooled: one group's Sigma differs", checks.pooled(replace(model, groups=g)), True)
    g = list(model.groups)
    g[2] = replace(g[2], nu=g[2].nu + 1.0)
    case("pooled: one group's nu differs", checks.pooled(replace(model, groups=g)), True)
    ar1_model = matvt.train(data, family="t", nu=8.0,
                            structure=matvt.StructureSpec(row_scatter=matvt.ScatterStructure.AR1))
    case("ar1: correct", checks.ar1_rows(ar1_model), False)
    case("ar1: free row scatter", checks.ar1_rows(model), True)

    bad = 0
    for name, failures, corrupt in cases:
        ok = bool(failures) == corrupt
        bad += not ok
        verdict = "rejected" if failures else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}" + (f" ({failures[0]})" if failures else ""))
    print(f"{len(cases) - bad} of {len(cases)} self-test cases behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
