"""Command-line interface.

Exit codes: 0 success, 1 error, 2 flagged non-convergence.  All randomness
flows from ``--seed``; identical invocations produce byte-identical output
files.
"""

import logging
import sys
from pathlib import Path

import click
import numpy as np

from . import classify, serialize
from .datamodel import (
    MeanStructure,
    MxvnParams,
    MxvtParams,
    ScatterStructure,
    StructureSpec,
    read_matstack,
    write_matstack,
)
from .distributions import sample_mxvn, sample_mxvt
from .errors import MatvtError
from .experiments import ExperimentSpec, default_spec, run_experiment
from .mxvn import FitConfig, mxvn_fit
from .mxvt import EcmeConfig, mxvt_fit
from .satimage import DEFAULT_CLASSES, parse_satimage

_MEAN_CHOICES = [m.value for m in MeanStructure]
_SCATTER_CHOICES = [s.value for s in ScatterStructure]


def _structure(mean, row_cov, col_cov):
    return StructureSpec(
        mean=MeanStructure(mean),
        row_scatter=ScatterStructure(row_cov),
        col_scatter=ScatterStructure(col_cov),
    )


def _parse_nu(nu):
    if nu == "estimate":
        return "estimate"
    try:
        value = float(nu)
    except ValueError:
        raise click.BadParameter(f"--nu must be 'estimate' or a number, got {nu!r}")
    if value < 1:
        raise click.BadParameter("--nu must be >= 1")
    return value


@click.group()
def cli():
    """Matrix-variate normal/t fitting, classification and experiments."""


@cli.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--family", type=click.Choice(["normal", "t"]), default="normal")
@click.option("--nu", default="estimate", show_default=True,
              help="'estimate' or a fixed value (t family only)")
@click.option("--mean", type=click.Choice(_MEAN_CHOICES), default="free")
@click.option("--row-cov", type=click.Choice(_SCATTER_CHOICES), default="free")
@click.option("--col-cov", type=click.Choice(_SCATTER_CHOICES), default="free")
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--max-iter", type=int, default=1000, show_default=True)
@click.option("--output", "output_path", required=True, type=click.Path())
@click.pass_context
def fit(ctx, input_path, family, nu, mean, row_cov, col_cov, tol, max_iter,
        output_path):
    """Fit one distribution to a matrix-stack file and write a model file."""
    data = read_matstack(input_path)
    structure = _structure(mean, row_cov, col_cov)
    if family == "normal":
        result = mxvn_fit(data, FitConfig(tol, max_iter, structure))
    else:
        result = mxvt_fit(
            data, EcmeConfig(tol, max_iter, structure, nu=_parse_nu(nu))
        )
    serialize.dump(serialize.fit_result_doc(result, family, structure), output_path)
    click.echo(
        f"family={family} logLik={result.log_lik:.6g} iterations={result.iterations} "
        f"converged={result.converged}"
    )
    if not result.converged:
        ctx.exit(2)


@cli.group()
def classify_cmd():
    """Train, apply and evaluate matrix-variate classifiers."""


cli.add_command(classify_cmd, name="classify")


def _train_options(f):
    options = [
        click.option("--family", type=click.Choice(["normal", "t"]), default="normal"),
        click.option("--nu", default="estimate", show_default=True),
        click.option("--mean", type=click.Choice(_MEAN_CHOICES), default="free"),
        click.option("--row-cov", type=click.Choice(_SCATTER_CHOICES), default="free"),
        click.option("--col-cov", type=click.Choice(_SCATTER_CHOICES), default="free"),
        click.option("--priors", default="empirical", show_default=True,
                     help="'equal', 'empirical', or a comma-separated list"),
        click.option("--pooled", is_flag=True, help="share Sigma, Omega across groups"),
        click.option("--tol", type=float, default=1e-8, show_default=True),
        click.option("--max-iter", type=int, default=1000, show_default=True),
    ]
    for opt in reversed(options):
        f = opt(f)
    return f


def _train_kwargs(family, nu, mean, row_cov, col_cov, priors, pooled, tol, max_iter):
    if "," in priors:
        priors = [float(v) for v in priors.split(",")]
    elif priors not in ("equal", "empirical"):
        raise click.BadParameter(f"bad --priors {priors!r}")
    return dict(
        family=family,
        nu=_parse_nu(nu),
        structure=_structure(mean, row_cov, col_cov),
        priors=priors,
        pooled=pooled,
        tolerance=tol,
        max_iter=max_iter,
    )


@classify_cmd.command("train")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--output", "output_path", required=True, type=click.Path())
@_train_options
def classify_train(input_path, output_path, **opts):
    """Train on a labeled matrix stack and write a classifier model file."""
    data = read_matstack(input_path)
    model = classify.train(data, **_train_kwargs(**opts))
    serialize.dump(serialize.model_doc(model), output_path)
    click.echo(
        f"groups={model.n_groups} logLik={model.train_log_lik:.6g} "
        f"params={model.param_count} BIC={model.bic:.6g}"
    )


@classify_cmd.command("predict")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--output", "output_path", type=click.Path(), default=None,
              help="CSV destination (default: stdout)")
def classify_predict(model_path, input_path, output_path):
    """Per-observation label, scores, and two-class log-odds as CSV."""
    model = serialize.model_from_doc(serialize.load(model_path))
    data = read_matstack(input_path)
    labels, sc, log_odds = classify.predict(model, data.data)
    header = ["label"] + [f"score_{c}" for c in model.class_labels]
    if log_odds is not None:
        header.append("log_odds")
    lines = [",".join(header)]
    for i in range(data.n):
        row = [str(int(labels[i]))] + [format(v, ".17g") for v in sc[i]]
        if log_odds is not None:
            row.append(format(log_odds[i], ".17g"))
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if output_path:
        Path(output_path).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


@classify_cmd.command("eval")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
def classify_eval(model_path, input_path):
    """Error rate and confusion matrix on a labeled test stack."""
    model = serialize.model_from_doc(serialize.load(model_path))
    data = read_matstack(input_path)
    error, confusion = classify.evaluate(model, data)
    click.echo(f"error_rate={error:.6g}")
    click.echo("confusion (rows true, cols predicted):")
    for c, row in zip(model.class_labels, confusion):
        click.echo(f"  {c}: " + " ".join(str(v) for v in row))


@classify_cmd.command("loocv")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@_train_options
def classify_loocv(input_path, **opts):
    """Leave-one-out cross-validation (n refits)."""
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    data = read_matstack(input_path)
    error, _, n_refits = classify.loocv(data, **_train_kwargs(**opts))
    click.echo(f"loocv_error={error:.6g} refits={n_refits}")


@cli.command()
@click.option("--family", type=click.Choice(["normal", "t"]), default="normal")
@click.option("--nu", type=float, default=5.0, show_default=True)
@click.option("--p", "p", type=int, default=2, show_default=True)
@click.option("--q", "q", type=int, default=2, show_default=True)
@click.option("--n", "n", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--params", "params_path", type=click.Path(exists=True), default=None,
              help="optional fit-model JSON supplying (nu,) M, Sigma, Omega")
@click.option("--output", "output_path", required=True, type=click.Path())
def simulate(family, nu, p, q, n, seed, params_path, output_path):
    """Sample a matrix stack from a matrix normal or matrix t."""
    if params_path:
        params = serialize.params_from_fit_doc(serialize.load(params_path))
        if family == "t" and not isinstance(params, MxvtParams):
            raise click.BadParameter("--params file has no nu but --family t")
    elif family == "normal":
        params = MxvnParams(np.zeros((p, q)), np.eye(p), np.eye(q))
    else:
        params = MxvtParams(nu, np.zeros((p, q)), np.eye(p), np.eye(q))
    sampler = sample_mxvn if family == "normal" else sample_mxvt
    write_matstack(sampler(params, n, seed), output_path)
    click.echo(f"wrote {n} draws to {output_path}")


@cli.command("experiment")
@click.option("--name", type=click.Choice(["nu-recovery", "rmse", "misspec", "timing"]),
              required=True)
@click.option("--spec", "spec_path", type=click.Path(exists=True), default=None,
              help="JSON spec {cells, replicates, seed, options}; default: paper grid")
@click.option("--replicates", type=int, default=None,
              help="override replicate count (e.g. for smoke runs)")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--outdir", required=True, type=click.Path())
def experiment(name, spec_path, replicates, seed, outdir):
    """Run a simulation study and write its CSV tables."""
    if spec_path:
        raw = serialize.load(spec_path)
        spec = ExperimentSpec(
            name=name,
            cells=raw["cells"],
            replicates=replicates or raw.get("replicates", 200),
            seed=raw.get("seed", seed),
            output_dir=outdir,
            options=raw.get("options", {}),
        )
    else:
        spec = default_spec(name, output_dir=outdir, replicates=replicates, seed=seed)
    _, summaries = run_experiment(spec)
    click.echo(f"experiment {name} done; tables in {outdir}")
    if summaries:
        keys = list(summaries[0].keys())
        click.echo(" ".join(keys))
        for s in summaries:
            click.echo(" ".join(
                f"{s[k]:.6g}" if isinstance(s[k], float) else str(s[k]) for k in keys
            ))


@cli.command("ingest-satimage")
@click.option("--train", "train_path", required=True, type=click.Path(exists=True))
@click.option("--test", "test_path", required=True, type=click.Path(exists=True))
@click.option("--classes", default=",".join(DEFAULT_CLASSES), show_default=True,
              help="comma-separated terrain names or Statlog codes")
@click.option("--outdir", required=True, type=click.Path())
def ingest_satimage(train_path, test_path, classes, outdir):
    """Convert Statlog satimage files to matrix-stack CSVs."""
    train, test = parse_satimage(train_path, test_path, classes.split(","))
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_matstack(train, outdir / "satimage_train.matstack")
    write_matstack(test, outdir / "satimage_test.matstack")
    click.echo(f"train: {train.n} observations; test: {test.n} observations")


def main(argv=None):
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        sys.exit(rv or 0)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except (MatvtError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
