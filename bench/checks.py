"""Correctness checks on matvt's outputs, each against bench/reference.py.

Every check returns a list of failure messages; an empty list means the
result passed.  The tolerances are fixed here, not fitted to any run.
"""

import numpy as np

import reference as ref

# a log-likelihood step may fall by rounding only: relative to |log_lik|
TRACE_DROP = 1e-10
# reported log-likelihood against the reference density at the fitted
# parameters, and scores against reference scores
LOGLIK_RTOL = 1e-9
# the MLE may sit below the generating parameters' log-likelihood only by
# the stopping tolerance (relative change 1e-8)
TRUTH_SLACK = 1e-7
# tall fit against the fit of its transpose
DUAL_LOGLIK_RTOL = 1e-6
DUAL_NU_RTOL = 0.02
# sampler moments: largest |z| over the vec-covariance entries, and |z| of
# the mean Mahalanobis quadratic form
COV_Z = 7.0
QUAD_Z = 6.0
# error rates against the Bayes rule at the generating parameters: the
# t-family models are correctly specified, the normal ones are not, and
# LOOCV on a few dozen observations moves in steps of 1/n
HELDOUT_MARGIN_T = 0.05
HELDOUT_MARGIN_NORMAL = 0.15
LOOCV_MARGIN = 0.35
# labels may differ from the reference argmax only where the two best
# reference scores are closer than this
SCORE_TIE = 1e-7


def fit(result, X, truth=None):
    """Monotone trace, log_lik equal to the reference at the returned
    parameters, and not below the generating parameters' log-likelihood."""
    bad = []
    trace = np.asarray(result.log_lik_trace)
    scale = 1.0 + abs(result.log_lik)
    worst = float(np.min(np.diff(trace))) if len(trace) > 1 else 0.0
    if worst < -TRACE_DROP * scale:
        bad.append(f"log-likelihood trace falls by {-worst:.3e}")
    at_fit = float(ref.logpdf(X, result.params).sum())
    if not abs(result.log_lik - at_fit) <= LOGLIK_RTOL * scale:
        bad.append(f"log_lik {result.log_lik!r} but reference density sums to {at_fit!r}")
    if truth is not None:
        at_truth = float(ref.logpdf(X, truth).sum())
        if result.log_lik < at_truth - TRUTH_SLACK * scale:
            bad.append(f"log_lik {result.log_lik:.6f} below the generating parameters' {at_truth:.6f}")
    return bad


def duality(tall, wide):
    """The fit of a stack and the fit of its transpose reach one maximum."""
    bad = []
    scale = 1.0 + abs(tall.log_lik)
    if not abs(tall.log_lik - wide.log_lik) <= DUAL_LOGLIK_RTOL * scale:
        bad.append(f"transpose log_lik {wide.log_lik:.6f} != {tall.log_lik:.6f}")
    nu_t, nu_w = tall.params.nu, wide.params.nu
    if not abs(nu_t - nu_w) <= DUAL_NU_RTOL * nu_t:
        bad.append(f"transpose nu {nu_w:.4f} != {nu_t:.4f}")
    return bad


def sampler(X, params):
    """Vec-covariance of the draws within Monte Carlo error of
    (Omega kron Sigma)/(nu - 2), entry by entry and through the mean
    Mahalanobis form, whose expectation is pq."""
    bad = []
    n = X.shape[0]
    V = ref.vec(X - params.M)
    K = np.kron(params.Omega, params.Sigma) / (params.nu - 2.0)
    C = V.T @ V / n
    second = (V * V).T @ (V * V) / n
    se = np.sqrt(np.maximum(second - C * C, 0.0) / n)
    z = np.abs(C - K) / np.where(se > 0, se, np.inf)
    if not z.max() <= COV_Z:
        bad.append(f"vec-covariance entry off by {z.max():.2f} standard errors")
    quad = np.einsum("ni,in->n", V, np.linalg.solve(K, V.T))
    zq = (quad.mean() - V.shape[1]) / (quad.std() / np.sqrt(n))
    if not abs(zq) <= QUAD_Z:
        bad.append(f"mean quadratic form {quad.mean():.4f} vs {V.shape[1]} ({zq:.2f} s.e.)")
    return bad


def scores(X, params, got):
    """matvt log-densities against the reference at the same parameters."""
    want = ref.logpdf(X, params)
    err = np.abs(np.asarray(got) - want) / (1.0 + np.abs(want))
    if not err.max() <= LOGLIK_RTOL:
        return [f"log-density off the reference by {err.max():.3e} (relative)"]
    return []


def reference_scores(model, X):
    return np.column_stack(
        [np.log(model.priors[g]) + ref.logpdf(X, prm) for g, prm in enumerate(model.groups)]
    )


def predictions(model, X, labels):
    """Labels equal the argmax of log prior plus reference density."""
    sc = reference_scores(model, X)
    want = np.asarray(model.class_labels)[sc.argmax(axis=1)]
    top = np.sort(sc, axis=1)
    near_tie = (top[:, -1] - top[:, -2]) < SCORE_TIE * (1.0 + np.abs(top[:, -1]))
    wrong = (np.asarray(labels) != want) & ~near_tie
    if wrong.any():
        return [f"{int(wrong.sum())} of {len(wrong)} labels differ from the reference argmax"]
    return []


def train_log_lik(model, data):
    """The model's train_log_lik equals the reference labelled log-likelihood."""
    ll = 0.0
    for g, (_, stack) in enumerate(data.groups()):
        ll += float(ref.logpdf(stack.data, model.groups[g]).sum()) + stack.n * np.log(model.priors[g])
    if not abs(model.train_log_lik - ll) <= LOGLIK_RTOL * (1.0 + abs(ll)):
        return [f"train_log_lik {model.train_log_lik!r} but reference gives {ll!r}"]
    return []


def pooled(model):
    """Pooled groups share Sigma, Omega and nu."""
    first = model.groups[0]
    for prm in model.groups[1:]:
        same = np.array_equal(prm.Sigma, first.Sigma) and np.array_equal(prm.Omega, first.Omega)
        if not same or getattr(prm, "nu", None) != getattr(first, "nu", None):
            return ["pooled groups do not share Sigma, Omega and nu"]
    return []


def ar1_rows(model):
    """Every group's row scatter is s * rho**|i - j|."""
    for prm in model.groups:
        S = prm.Sigma
        s = S[0, 0]
        rho = S[0, 1] / s
        if not (s > 0 and abs(rho) < 1 and np.allclose(S, ref.ar1(S.shape[0], rho, s), rtol=1e-9, atol=0)):
            return ["row scatter is not of AR(1) form"]
    return []


def error_near_bayes(error, bayes, margin, what):
    if not abs(error - bayes) <= margin:
        return [f"{what} error {error:.4f} is not within {margin} of the Bayes rule's {bayes:.4f}"]
    return []
