"""Discriminant analysis over matrix-variate groups.

Per-group matrix-normal or matrix-t models are fitted by maximum
likelihood, optionally with shared (pooled) scatter matrices, and
observations are assigned by the Bayes rule argmax_i log(eta_i f_i(X)).
For normal groups the score uses the QDA-style closed form, which agrees
with the generic log-density path.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .datamodel import StructureSpec
from .distributions import mxvn_logpdf, mxvt_logpdf
from .errors import EstimationError
from .linalg import cholesky_logdet
from .mxvn import FitConfig, mxvn_fit
from .mxvt import EcmeConfig, mxvt_fit

logger = logging.getLogger(__name__)

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class ClassifierModel:
    family: str                     # "normal" or "t"
    groups: list                    # per-group MxvnParams / MxvtParams
    priors: np.ndarray
    structure: StructureSpec
    pooled: bool
    class_labels: list              # original labels, ascending
    train_log_lik: float
    param_count: int
    bic: float
    nu_mode: str = "none"           # "none", "fixed", "estimate"

    @property
    def n_groups(self):
        return len(self.groups)

    @property
    def p(self):
        return self.groups[0].p

    @property
    def q(self):
        return self.groups[0].q


def _resolve_priors(priors, counts):
    counts = np.asarray(counts, dtype=float)
    g = len(counts)
    if isinstance(priors, str):
        if priors == "empirical":
            out = counts / counts.sum()
        elif priors == "equal":
            out = np.full(g, 1.0 / g)
        else:
            raise ValueError(f"unknown priors rule {priors!r}")
    else:
        out = np.asarray(priors, dtype=float)
        if out.shape != (g,) or (out <= 0).any():
            raise ValueError("given priors must be positive, one per group")
        out = out / out.sum()
    return out


def param_count(structure, p, q, n_groups, family, nu_mode, pooled):
    """Free-parameter count under the structure and Sigma[0,0]=1 constraints."""
    mean = structure.mean_param_count(p, q) * n_groups
    scatter = structure.scatter_param_count(p, q)
    if not pooled:
        scatter *= n_groups
    nu = 0
    if family == "t" and nu_mode == "estimate":
        nu = 1 if pooled else n_groups
    return mean + scatter + nu


def train(
    data,
    family="normal",
    nu="estimate",
    structure=None,
    priors="empirical",
    pooled=False,
    tolerance=1e-8,
    max_iter=1000,
):
    """Train a matrix-variate discriminant model on a labeled stack."""
    if data.labels is None:
        raise EstimationError("training data must be labeled")
    structure = structure or StructureSpec()
    if family not in ("normal", "t"):
        raise ValueError(f"family must be 'normal' or 't', got {family!r}")
    labels = [g for g, _ in data.groups()]
    stacks = [s for _, s in data.groups()]
    if len(labels) < 2:
        raise EstimationError("need at least 2 groups to train a classifier")
    counts = [s.n for s in stacks]
    eta = _resolve_priors(priors, counts)

    nu_mode = "none"
    if family == "t":
        nu_mode = "estimate" if (isinstance(nu, str) and nu == "estimate") else "fixed"

    if family == "normal":
        fit, config = mxvn_fit, FitConfig(tolerance, max_iter, structure)
    else:
        fit, config = mxvt_fit, EcmeConfig(tolerance, max_iter, structure, nu=nu)
    if pooled:
        res = fit(stacks, config)
        _warn_unconverged("pooled", res)
        groups = res.params
    else:
        groups = []
        for lab, stack in zip(labels, stacks):
            try:
                res = fit(stack, config)
            except EstimationError as exc:
                raise EstimationError(f"group {lab}: {exc}") from exc
            _warn_unconverged(f"group {lab}", res)
            groups.append(res.params)

    ll = _labeled_loglik(family, groups, eta, stacks)
    k = param_count(structure, data.p, data.q, len(labels), family, nu_mode, pooled)
    if isinstance(priors, str) and priors == "empirical":
        k += len(labels) - 1
    model_bic = -2.0 * ll + k * np.log(data.n)
    return ClassifierModel(
        family=family,
        groups=groups,
        priors=eta,
        structure=structure,
        pooled=pooled,
        class_labels=labels,
        train_log_lik=ll,
        param_count=k,
        bic=model_bic,
        nu_mode=nu_mode,
    )


def _labeled_loglik(family, groups, priors, stacks):
    """Sum over groups of log f_g(X) + log eta_g on each group's stack."""
    logpdf = mxvn_logpdf if family == "normal" else mxvt_logpdf
    return sum(
        float(logpdf(stack.data, prm).sum()) + stack.n * np.log(eta)
        for prm, eta, stack in zip(groups, priors, stacks)
    )


def _warn_unconverged(who, res):
    """One warning for a fit that stopped at max_iter or with nu on a bound."""
    if res.nu_at_bound or not res.converged:
        why = "nu ended on a bound" if res.nu_at_bound else "did not converge"
        logger.warning("%s fit: %s after %d iterations", who, why, res.iterations)


def _normal_closed_scores(model, X):
    """QDA-style closed-form scores for normal groups (batch over X)."""
    X, single = (X[None], True) if X.ndim == 2 else (X, False)
    n = X.shape[0]
    p, q = model.p, model.q
    out = np.empty((n, len(model.groups)))
    for g, prm in enumerate(model.groups):
        Ls, logdet_s = cholesky_logdet(prm.Sigma)
        Lo, logdet_o = cholesky_logdet(prm.Omega)
        sinv_x = np.linalg.solve(prm.Sigma, X.transpose(1, 0, 2).reshape(p, -1))
        sinv_x = sinv_x.reshape(p, n, q).transpose(1, 0, 2)      # Sigma^-1 X
        oinv = np.linalg.solve(prm.Omega, np.eye(q))
        sinv_m = np.linalg.solve(prm.Sigma, prm.M)
        quad_xx = np.einsum("ij,nkj,nki->n", oinv, X, sinv_x)    # tr(O^-1 X^T S^-1 X)
        cross = np.einsum("ij,kj,nki->n", oinv, prm.M, sinv_x)   # tr(O^-1 M^T S^-1 X)
        quad_mm = float(np.sum(oinv * (prm.M.T @ sinv_m)))
        out[:, g] = (
            -0.5 * quad_xx
            + cross
            - 0.5 * quad_mm
            - 0.5 * (q * logdet_s + p * logdet_o)
            - 0.5 * p * q * _LOG_2PI
            + np.log(model.priors[g])
        )
    return out[0] if single else out


def scores(model, X):
    """Bayes scores R_i(X) = log eta_i + log f_i(X) for each group.

    Accepts one matrix (returns a length-G vector) or a stack (returns
    an (n, G) array).
    """
    X = np.asarray(X, dtype=float)
    shape = (model.p, model.q)
    if X.shape[-2:] != shape:
        raise ValueError(f"X must end in shape {shape}, got {X.shape}")
    if model.family == "normal":
        return _normal_closed_scores(model, X)
    single = X.ndim == 2
    Xb = X[None] if single else X
    out = np.column_stack(
        [
            np.log(model.priors[g]) + mxvt_logpdf(Xb, prm)
            for g, prm in enumerate(model.groups)
        ]
    )
    return out[0] if single else out


def predict(model, X):
    """Assign labels by argmax score; ties go to the lowest group index.

    Returns ``(labels, scores, log_odds)``; ``log_odds`` is R_1 - R_2 for
    two-group models and None otherwise.
    """
    sc = scores(model, X)
    single = sc.ndim == 1
    scb = sc[None] if single else sc
    idx = scb.argmax(axis=1)
    labels = np.array([model.class_labels[i] for i in idx])
    log_odds = scb[:, 0] - scb[:, 1] if len(model.groups) == 2 else None
    if single:
        return labels[0], sc, (None if log_odds is None else float(log_odds[0]))
    return labels, sc, log_odds


def evaluate(model, test):
    """Error rate and confusion matrix (rows: true, columns: predicted)."""
    if test.labels is None:
        raise EstimationError("test data must be labeled")
    labels, _, _ = predict(model, test.data)
    classes = model.class_labels
    index = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    for true, pred in zip(test.labels, labels):
        if int(true) not in index:
            raise EstimationError(f"test label {true} not in trained classes {classes}")
        confusion[index[int(true)], index[int(pred)]] += 1
    error = 1.0 - np.trace(confusion) / confusion.sum()
    return float(error), confusion


def bic(model, data):
    """BIC = -2 * labeled train log-likelihood + paramCount * log(n)."""
    if data.labels is None:
        raise EstimationError("BIC needs labeled data")
    stacks = [s for _, s in data.groups()]
    ll = _labeled_loglik(model.family, model.groups, model.priors, stacks)
    return -2.0 * ll + model.param_count * np.log(data.n)


def loocv(data, **train_kwargs):
    """Leave-one-out cross-validation: n refits, each excluding one row.

    Returns ``(error_rate, predictions, n_refits)``.
    """
    if data.labels is None:
        raise EstimationError("LOOCV needs labeled data")
    preds = []
    for i in range(data.n):
        keep = np.ones(data.n, dtype=bool)
        keep[i] = False
        model = train(data.subset(keep), **train_kwargs)
        label, _, _ = predict(model, data.data[i])
        preds.append(int(label))
        logger.info("loocv refit %d/%d", i + 1, data.n)
    preds = np.array(preds)
    error = float((preds != data.labels).mean())
    return error, preds, data.n
