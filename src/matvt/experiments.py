"""Seeded reproductions of the simulation studies.

Each experiment takes an :class:`ExperimentSpec`, runs its replicates with
per-replicate RNG streams (bit-reproducible given the seed), and returns
per-replicate rows plus per-cell summaries.  When an output directory is
given both tables are also written as CSV.
"""

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datamodel import Ar1Matrix, MxvnParams, MxvtParams
from .distributions import make_rng, sample_mxvn, sample_mxvt, sample_wishart
from .mxvn import FitConfig, mxvn_fit
from .mxvt import EcmeConfig, mxvt_fit


@dataclass
class ExperimentSpec:
    name: str
    cells: list
    replicates: int = 200
    seed: int = 0
    output_dir: str = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicate count must be >= 1")
        if not self.cells:
            raise ValueError("spec needs at least one cell")


def _write_csv(rows, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _maybe_write(spec, rows, summaries, stem):
    if spec.output_dir:
        _write_csv(rows, Path(spec.output_dir) / f"{stem}_replicates.csv")
        if summaries:
            _write_csv(summaries, Path(spec.output_dir) / f"{stem}_summary.csv")


def _stream(cell_idx, rep):
    return cell_idx * 1_000_000 + rep


def _identity_t_params(p, q, nu):
    return MxvtParams(nu, np.zeros((p, q)), np.eye(p), np.eye(q))


def nu_recovery(spec):
    """Recovery of the degrees of freedom across (p, q, n, nu) cells.

    Returns ``(rows, summaries)``.  Replicates whose estimate lands on a
    bound are counted separately, never dropped.
    """
    rows, summaries = [], []
    bounds = tuple(spec.options.get("nu_bounds", (2.0, 1000.0)))
    for ci, cell in enumerate(spec.cells):
        p, q, n, nu = cell.get("p", 5), cell.get("q", 3), cell["n"], cell["nu"]
        # divergent estimates crawl slowly; cells may raise the cap so they
        # actually reach the bound instead of being cut off mid-crawl
        max_iter = int(cell.get("max_iter", spec.options.get("max_iter", 1000)))
        truth = _identity_t_params(p, q, nu)
        estimates = []
        for r in range(spec.replicates):
            rng = make_rng(spec.seed, _stream(ci, r))
            data = sample_mxvt(truth, n, rng)
            res = mxvt_fit(
                data, EcmeConfig(max_iter=max_iter, nu="estimate", nu_bounds=bounds)
            )
            rows.append(
                {
                    "cell": ci, "p": p, "q": q, "n": n, "nu": nu, "rep": r,
                    "nu_hat": res.params.nu,
                    "converged": int(res.converged),
                    "at_bound": int(res.nu_at_bound),
                    "iterations": res.iterations,
                }
            )
            estimates.append(res.params.nu)
        est = np.array(estimates)
        cell_rows = rows[-spec.replicates:]
        summaries.append(
            {
                "cell": ci, "p": p, "q": q, "n": n, "nu": nu,
                "min": est.min(), "max": est.max(),
                "median": float(np.median(est)), "mean": est.mean(),
                "sd": est.std(ddof=1) if len(est) > 1 else 0.0,
                "n_at_bound": sum(r["at_bound"] for r in cell_rows),
                "n_nonconverged": sum(1 - r["converged"] for r in cell_rows),
            }
        )
    _maybe_write(spec, rows, summaries, "nu_recovery")
    return rows, summaries


def _scaled_cov_rmse(params_hat, nu_true, pq):
    """RMSE of the vec-covariance estimate after rescaling to identity.

    The true scatter is the identity, so the true vec-covariance is
    I / (nu_true - 2); multiplying the estimated covariance by
    (nu_true - 2) makes the target the identity on every cell.
    """
    if isinstance(params_hat, MxvtParams):
        est = np.kron(params_hat.Omega, params_hat.Sigma) / (params_hat.nu - 2.0)
    else:
        est = np.kron(params_hat.Omega, params_hat.Sigma)
    target = np.eye(pq)
    return float(np.sqrt(np.mean((est * (nu_true - 2.0) - target) ** 2)))


def rmse_recovery(spec):
    """RMSE of the mean and of the rescaled covariance per cell."""
    rows, summaries = [], []
    for ci, cell in enumerate(spec.cells):
        p, q, n, nu = cell.get("p", 5), cell.get("q", 3), cell["n"], cell["nu"]
        truth = _identity_t_params(p, q, nu)
        for r in range(spec.replicates):
            rng = make_rng(spec.seed, _stream(ci, r))
            data = sample_mxvt(truth, n, rng)
            res = mxvt_fit(data, EcmeConfig(nu="estimate"))
            rows.append(
                {
                    "cell": ci, "p": p, "q": q, "n": n, "nu": nu, "rep": r,
                    "rmse_mean": float(np.sqrt(np.mean(res.params.M**2))),
                    "rmse_cov": _scaled_cov_rmse(res.params, nu, p * q),
                    "converged": int(res.converged),
                }
            )
        cell_rows = rows[-spec.replicates:]
        summaries.append(
            {
                "cell": ci, "p": p, "q": q, "n": n, "nu": nu,
                "rmse_mean": float(np.mean([r["rmse_mean"] for r in cell_rows])),
                "rmse_cov": float(np.mean([r["rmse_cov"] for r in cell_rows])),
                "n_nonconverged": sum(1 - r["converged"] for r in cell_rows),
            }
        )
    _maybe_write(spec, rows, summaries, "rmse_recovery")
    return rows, summaries


def _misspec_truth(kind, nu, p, q, rng):
    Sigma = Ar1Matrix(dim=p, rho=0.7).full()
    Omega = sample_wishart(10.0, np.eye(q), rng)
    M = np.zeros((p, q))
    if kind == "normal":
        return MxvnParams(M, Sigma, Omega)
    return MxvtParams(nu, M, Sigma, Omega)


def misspecification(spec):
    """Fit normal and fixed-nu t models across a nu grid to mixed truths.

    Cells look like ``{"true": "t", "nu": 6, "n": 100}`` or
    ``{"true": "normal", "n": 100}``.  The fitted-nu grid defaults to
    3..100 and can be overridden with ``options["nu_grid"]``.
    """
    grid = list(spec.options.get("nu_grid", range(3, 101)))
    p = spec.options.get("p", 5)
    q = spec.options.get("q", 8)
    rows = []
    for ci, cell in enumerate(spec.cells):
        kind = cell["true"]
        nu_true = cell.get("nu")
        n = cell.get("n", 100)
        for r in range(spec.replicates):
            rng = make_rng(spec.seed, _stream(ci, r))
            truth = _misspec_truth(kind, nu_true, p, q, rng)
            if kind == "normal":
                data = sample_mxvn(truth, n, rng)
                true_cov = np.kron(truth.Omega, truth.Sigma)
            else:
                data = sample_mxvt(truth, n, rng)
                true_cov = np.kron(truth.Omega, truth.Sigma) / (nu_true - 2.0)

            def record(fit_label, params, ll):
                if isinstance(params, MxvtParams):
                    est_cov = np.kron(params.Omega, params.Sigma) / max(
                        params.nu - 2.0, 1e-12
                    )
                else:
                    est_cov = np.kron(params.Omega, params.Sigma)
                rows.append(
                    {
                        "cell": ci, "true": kind, "nu_true": nu_true, "n": n,
                        "rep": r, "fitted": fit_label, "log_lik": ll,
                        "mean_sq_dev": float(np.mean((params.M - truth.M) ** 2)),
                        "cov_l2": float(np.linalg.norm(est_cov - true_cov)),
                    }
                )

            res = mxvn_fit(data, FitConfig())
            record("normal", res.params, res.log_lik)
            for nu_fit in grid:
                res = mxvt_fit(data, EcmeConfig(nu=float(nu_fit)))
                record(str(nu_fit), res.params, res.log_lik)
    _maybe_write(spec, rows, None, "misspecification")
    return rows, None


def timing(spec):
    """Median wall time of the t fit per (p, q, n) cell, warm-up excluded."""
    rows, summaries = [], []
    nu = spec.options.get("nu", 5.0)
    for ci, cell in enumerate(spec.cells):
        p, q, n = cell["p"], cell["q"], cell["n"]
        truth = _identity_t_params(p, q, nu)
        times = []
        for r in range(spec.replicates + 1):
            rng = make_rng(spec.seed, _stream(ci, r))
            data = sample_mxvt(truth, n, rng)
            t0 = time.perf_counter()
            res = mxvt_fit(data, EcmeConfig(nu="estimate"))
            elapsed = time.perf_counter() - t0
            if r == 0:
                continue  # warm-up
            times.append(elapsed)
            rows.append(
                {
                    "cell": ci, "p": p, "q": q, "n": n, "rep": r,
                    "seconds": elapsed, "iterations": res.iterations,
                    "sec_per_iter": elapsed / res.iterations,
                }
            )
        summaries.append(
            {
                "cell": ci, "p": p, "q": q, "n": n,
                "median_seconds": float(np.median(times)),
                "median_sec_per_iter": float(
                    np.median([r["sec_per_iter"] for r in rows[-len(times):]])
                ),
            }
        )
    _maybe_write(spec, rows, summaries, "timing")
    return rows, summaries


EXPERIMENTS = {
    "nu-recovery": nu_recovery,
    "rmse": rmse_recovery,
    "misspec": misspecification,
    "timing": timing,
}


def default_spec(name, output_dir=None, replicates=None, seed=0):
    """The paper-style default grid for each experiment."""
    if name in ("nu-recovery", "rmse"):
        cells = [
            {"p": 5, "q": 3, "n": n, "nu": nu}
            for nu in (5.0, 10.0, 20.0)
            for n in (35, 50, 100)
        ]
        reps = 200
    elif name == "misspec":
        cells = [
            {"true": "t", "nu": 6.0, "n": 100},
            {"true": "t", "nu": 20.0, "n": 100},
            {"true": "normal", "n": 100},
        ]
        reps = 1
    elif name == "timing":
        cells = [
            {"p": p, "q": q, "n": n}
            for p in (5, 25, 100)
            for q in (5, 25, 100)
            for n in (100, 500)
        ]
        reps = 100
    else:
        raise ValueError(f"unknown experiment {name!r}")
    return ExperimentSpec(
        name=name,
        cells=cells,
        replicates=replicates or reps,
        seed=seed,
        output_dir=output_dir,
    )


def run_experiment(spec):
    if spec.name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {spec.name!r}")
    return EXPERIMENTS[spec.name](spec)
