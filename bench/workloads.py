"""The benchmark's workloads.

A workload builds its inputs from the run seed (``build``), then runs
rounds of the same operations (``round``), each operation timed on its own,
and finally checks one round's outputs against the reference computations
(``check``).  Every round repeats the same calls on the same inputs, so
their outputs must agree bit for bit, and a run attempts whole rounds.

Every operation is recorded as an ``Op``: its kind decides which
end-to-end metric it feeds (see ``run.py``), ``size`` is the number of
draws or observations for the throughput kinds, and ``fingerprint`` is what
must repeat between rounds and between traced and untraced rounds.
"""

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
import reference as ref

NU_SAMPLER = 10.0


@dataclass
class Op:
    kind: str           # t_fit, normal_fit, sample, score, loocv
    name: str
    seconds: float
    size: int = 0
    result: object = field(default=None, repr=False)
    failed: bool = False
    fingerprint: tuple = ()


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


def fit_op(kind, name, fn, data, *config):
    res, sec = timed(fn, data, *config)
    nu = getattr(res.params, "nu", None)
    return Op(kind, name, sec, result=res, failed=not res.converged or res.nu_at_bound,
              fingerprint=(res.iterations, res.log_lik, nu, res.converged, res.nu_at_bound))


def signed_permutation(rng, d):
    P = np.zeros((d, d))
    P[np.arange(d), rng.permutation(d)] = rng.choice([-1.0, 1.0], d)
    return P


class Workload:
    name = ""

    def __init__(self, mv, seed):
        self.mv = mv        # the matvt package
        self.seed = seed

    def warm_up(self):
        """One small fit, so that lazy imports and BLAS start-up land in set-up."""
        rng = ref.rng_for(self.seed, 99)
        M = np.zeros((5, 3))
        X = ref.draw_mxvt(rng, 50, 10.0, M, np.eye(5), np.eye(3))
        self.mv.mxvt_fit(X, self.mv.EcmeConfig(nu=10.0))

    def sample_op(self, truth, n):
        stack, sec = timed(self.mv.sample_mxvt, truth, n, self.seed, 7)
        return Op("sample", "sample_mxvt", sec, size=n, result=stack.data,
                  fingerprint=(float(stack.data.sum()),))


class PaperCells(Workload):
    """The paper's 5x3 simulation cells, nu in {5, 10} x n in {35, 50, 100}.

    The replicates are drawn once from a stream that does not depend on the
    seed; the seed applies a signed permutation of rows and of columns and
    a shuffle of the observations to each.  The fit is equivariant under
    both, so every seed poses the same problems in other coordinates and the
    iteration counts (which vary several-fold from replicate to replicate)
    repeat from run to run.
    """

    name = "paper-cells"
    P, Q = 5, 3
    CELLS = [(5.0, 35), (5.0, 50), (5.0, 100), (10.0, 35), (10.0, 50), (10.0, 100)]
    REPLICATES = 4
    SAMPLE_DRAWS = 100_000

    def build(self):
        p, q = self.P, self.Q
        M = np.arange(p * q, dtype=float).reshape(p, q) / 10.0
        Sigma = ref.ar1(p, 0.5)
        Omega = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.3], [0.1, 0.3, 1.0]]) * 2.0
        mix = ref.rng_for(self.seed, 1)
        self.stacks = []
        for c, (nu, n) in enumerate(self.CELLS):
            for r in range(self.REPLICATES):
                X = ref.draw_mxvt(ref.rng_for(0, 1, c, r), n, nu, M, Sigma, Omega)
                Pr, Qc = signed_permutation(mix, p), signed_permutation(mix, q)
                X = (Pr @ X @ Qc)[mix.permutation(n)]
                truth = self.mv.MxvtParams(nu, Pr @ M @ Qc, Pr @ Sigma @ Pr.T, Qc.T @ Omega @ Qc)
                self.stacks.append((f"nu{nu:g}-n{n}-r{r}", X, truth))
        self.sampler_truth = self.mv.MxvtParams(NU_SAMPLER, M, Sigma, Omega)

    def round(self):
        mv = self.mv
        ops = []
        for name, X, _ in self.stacks:
            ops.append(fit_op("t_fit", name, mv.mxvt_fit, X, mv.EcmeConfig()))
            ops.append(fit_op("normal_fit", name, mv.mxvn_fit, X))
        ops.append(self.sample_op(self.sampler_truth, self.SAMPLE_DRAWS))
        dens, sec = timed(mv.mxvt_logpdf, ops[-1].result, self.sampler_truth)
        ops.append(Op("score", "mxvt_logpdf", sec, size=len(dens), result=dens,
                      fingerprint=(float(dens.sum()),)))
        return ops

    def check(self, ops):
        bad = []
        fits = iter(ops)
        for name, X, truth in self.stacks:
            t_op, n_op = next(fits), next(fits)
            if not t_op.failed:
                bad += [f"{name} t: {m}" for m in checks.fit(t_op.result, X, truth)]
            if not n_op.failed:
                bad += [f"{name} normal: {m}" for m in checks.fit(n_op.result, X)]
        sample, score = ops[-2], ops[-1]
        bad += checks.sampler(sample.result, self.sampler_truth)
        bad += checks.scores(sample.result, self.sampler_truth, score.result)
        return bad


class LargeMatrix(Workload):
    """A tall 60x6 stack (n=100), the same stack transposed (6x60) and a
    25x25 stack (n=500), each fitted by both families and scored on a
    held-out stack of its shape.  The normal family, whose fits take a few
    hundredths of a second here, is also fitted to each held-out stack, and
    the sampler draws 10,000 matrices, so that neither is timed on a
    single short call per round."""

    name = "large-matrix"
    NU = 8.0
    HELD_OUT = 2000
    SAMPLE_DRAWS = 10_000

    def build(self):
        mv = self.mv
        fixed = ref.rng_for(0, 2)
        tall = mv.MxvtParams(self.NU, fixed.standard_normal((60, 6)), ref.ar1(60, 0.3),
                             ref.random_spd(fixed, 6))
        square = mv.MxvtParams(self.NU, fixed.standard_normal((25, 25)), ref.ar1(25, 0.3),
                               ref.random_spd(fixed, 25))
        wide = mv.MxvtParams(self.NU, tall.M.T, tall.Omega, tall.Sigma)
        rng = ref.rng_for(self.seed, 2)

        def draw(t, n):
            return ref.draw_mxvt(rng, n, t.nu, t.M, t.Sigma, t.Omega)

        X_tall, X_square = draw(tall, 100), draw(square, 500)
        H_tall, H_square = draw(tall, self.HELD_OUT), draw(square, self.HELD_OUT)
        tr = lambda A: np.ascontiguousarray(A.transpose(0, 2, 1))
        self.stacks = [
            ("tall", X_tall, H_tall, tall),
            ("wide", tr(X_tall), tr(H_tall), wide),
            ("square", X_square, H_square, square),
        ]
        self.sampler_truth = mv.MxvtParams(NU_SAMPLER, square.M, square.Sigma, square.Omega)

    def round(self):
        mv = self.mv
        ops = []
        for name, X, H, _ in self.stacks:
            t_op = fit_op("t_fit", name, mv.mxvt_fit, X, mv.EcmeConfig())
            ops.append(t_op)
            ops.append(fit_op("normal_fit", name, mv.mxvn_fit, X))
            ops.append(fit_op("normal_fit", name + "-held-out", mv.mxvn_fit, H))
            dens, sec = timed(mv.mxvt_logpdf, H, t_op.result.params)
            ops.append(Op("score", name, sec, size=len(dens), result=dens,
                          fingerprint=(float(dens.sum()),)))
        ops.append(self.sample_op(self.sampler_truth, self.SAMPLE_DRAWS))
        return ops

    def check(self, ops):
        bad = []
        by_shape = {}
        for i, (name, X, H, truth) in enumerate(self.stacks):
            t_op, n_op, h_op, s_op = ops[4 * i: 4 * i + 4]
            by_shape[name] = t_op
            if not t_op.failed:
                bad += [f"{name} t: {m}" for m in checks.fit(t_op.result, X, truth)]
            for op, data in ((n_op, X), (h_op, H)):
                if not op.failed:
                    bad += [f"{op.name} normal: {m}" for m in checks.fit(op.result, data)]
            bad += [f"{name} score: {m}" for m in checks.scores(H, t_op.result.params, s_op.result)]
        tall, wide = by_shape["tall"], by_shape["wide"]
        if not (tall.failed or wide.failed):
            bad += checks.duality(tall.result, wide.result)
        bad += checks.sampler(ops[-1].result, self.sampler_truth)
        return bad


class Classify(Workload):
    """Three groups of 4x9 band-by-pixel matrices (the shape of the Statlog
    satimage cells) with a shared AR(1) row scatter; five models trained,
    each predicting a held-out set, and a pooled fixed-nu LOOCV on 12
    observations per group.  The group means differ by 0.12 standard
    normal draws per entry, which puts the Bayes rule's error near 8%."""

    name = "classify"
    P, Q = 4, 9
    NU = 8.0
    TRAIN = 150
    HELD_OUT = 1000
    LOOCV_PER_GROUP = 12
    SAMPLE_DRAWS = 50_000

    def build(self):
        mv = self.mv
        p, q = self.P, self.Q
        fixed = ref.rng_for(0, 3)
        Sigma = ref.ar1(p, 0.6)
        Omega = ref.random_spd(fixed, q)
        base = fixed.standard_normal((p, q))
        self.truths = [
            mv.MxvtParams(self.NU, base + 0.12 * fixed.standard_normal((p, q)), Sigma, Omega)
            for _ in range(3)
        ]
        rng = ref.rng_for(self.seed, 3)

        def labelled(per_group):
            X = np.concatenate([ref.draw_mxvt(rng, per_group, t.nu, t.M, t.Sigma, t.Omega)
                                for t in self.truths])
            y = np.repeat(np.arange(1, 4), per_group)
            return mv.MatrixStack(X, y)

        self.train = labelled(self.TRAIN)
        self.held_out = labelled(self.HELD_OUT)
        keep = np.concatenate([np.arange(self.LOOCV_PER_GROUP) + g * self.TRAIN for g in range(3)])
        self.loocv_set = self.train.subset(keep)
        self.sampler_truth = mv.MxvtParams(NU_SAMPLER, self.truths[0].M, Sigma, Omega)
        AR1 = mv.StructureSpec(row_scatter=mv.ScatterStructure.AR1)
        self.models = [
            ("t", "t_fit", dict(family="t", nu="estimate")),
            ("t-pooled", "t_fit", dict(family="t", nu="estimate", pooled=True)),
            ("normal", "normal_fit", dict(family="normal")),
            ("normal-pooled", "normal_fit", dict(family="normal", pooled=True)),
            ("t-ar1", "t_fit", dict(family="t", nu=self.NU, structure=AR1)),
        ]

    def round(self):
        mv = self.mv
        ops = []
        for name, kind, kwargs in self.models:
            model, sec = timed(mv.train, self.train, **kwargs)
            ops.append(Op(kind, name, sec, result=model, fingerprint=(model.train_log_lik,)))
        for (name, _, _), fit in zip(self.models, list(ops)):
            (labels, _, _), sec = timed(mv.predict, fit.result, self.held_out.data)
            ops.append(Op("score", name, sec, size=len(labels), result=labels,
                          fingerprint=(labels.tobytes(),)))
        (error, preds, refits), sec = timed(mv.loocv, self.loocv_set, family="t", nu=self.NU, pooled=True)
        ops.append(Op("loocv", "loocv", sec, result=(error, preds, refits),
                      fingerprint=(error, preds.tobytes(), refits)))
        ops.append(self.sample_op(self.sampler_truth, self.SAMPLE_DRAWS))
        return ops

    def bayes_labels(self, X):
        sc = np.column_stack([ref.logpdf(X, t) for t in self.truths])
        return sc.argmax(axis=1) + 1

    def check(self, ops):
        bad = []
        n_models = len(self.models)
        trained, predicted = ops[:n_models], ops[n_models: 2 * n_models]
        H, y = self.held_out.data, self.held_out.labels
        bayes = float(np.mean(self.bayes_labels(H) != y))
        for (name, kind, kwargs), t_op, p_op in zip(self.models, trained, predicted):
            model = t_op.result
            tag = lambda msgs: [f"{name}: {m}" for m in msgs]
            bad += tag(checks.train_log_lik(model, self.train))
            bad += tag(checks.predictions(model, H, p_op.result))
            error = float(np.mean(p_op.result != y))
            margin = checks.HELDOUT_MARGIN_T if kind == "t_fit" else checks.HELDOUT_MARGIN_NORMAL
            bad += tag(checks.error_near_bayes(error, bayes, margin, "held-out"))
            if kwargs.get("pooled"):
                bad += tag(checks.pooled(model))
            if "structure" in kwargs:
                bad += tag(checks.ar1_rows(model))
            if kind == "t_fit":
                at_truth = sum(float(ref.logpdf(s.data, self.truths[g]).sum()) + s.n * np.log(model.priors[g])
                               for g, (_, s) in enumerate(self.train.groups()))
                scale = 1.0 + abs(at_truth)
                if model.train_log_lik < at_truth - checks.TRUTH_SLACK * scale:
                    bad += tag([f"train_log_lik {model.train_log_lik:.4f} below the generating "
                                f"parameters' {at_truth:.4f}"])
        error, preds, refits = ops[2 * n_models].result
        subset = self.loocv_set
        if refits != subset.n:
            bad.append(f"loocv made {refits} refits for {subset.n} observations")
        bayes_sub = float(np.mean(self.bayes_labels(subset.data) != subset.labels))
        bad += checks.error_near_bayes(error, bayes_sub, checks.LOOCV_MARGIN, "LOOCV")
        bad += checks.sampler(ops[-1].result, self.sampler_truth)
        return bad


WORKLOADS = {w.name: w for w in (PaperCells, LargeMatrix, Classify)}
