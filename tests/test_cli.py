import json
import subprocess
import sys

import numpy as np
import pytest

from matvt.datamodel import MatrixStack, MxvnParams, MxvtParams, write_matstack
from matvt.distributions import sample_mxvn, sample_mxvt


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "matvt.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def t_stack(tmp_path):
    params = MxvtParams(5.0, np.zeros((2, 2)), np.eye(2), np.eye(2))
    path = tmp_path / "t.matstack"
    write_matstack(sample_mxvt(params, 200, seed=1), path)
    return path


@pytest.fixture
def labeled_stack(tmp_path):
    a = sample_mxvn(MxvnParams(np.zeros((2, 2)), np.eye(2), np.eye(2)), 40, seed=2, stream=0)
    b = sample_mxvn(MxvnParams(np.full((2, 2), 3.0), np.eye(2), np.eye(2)), 40, seed=2, stream=1)
    stack = MatrixStack(np.concatenate([a.data, b.data]), labels=[0] * 40 + [1] * 40)
    path = tmp_path / "labeled.matstack"
    write_matstack(stack, path)
    return path


def test_help_exits_zero():
    res = run_cli("--help")
    assert res.returncode == 0
    for cmd in ("fit", "classify", "simulate", "experiment", "ingest-satimage"):
        assert cmd in res.stdout


def test_unknown_flag_exits_one():
    res = run_cli("fit", "--bogus")
    assert res.returncode == 1
    assert res.stderr


def test_missing_input_exits_one(tmp_path):
    res = run_cli("fit", "--input", tmp_path / "nope.csv", "--output", tmp_path / "o.json")
    assert res.returncode == 1


def test_fit_t_writes_model(tmp_path, t_stack):
    out = tmp_path / "fit.json"
    res = run_cli("fit", "--input", t_stack, "--family", "t", "--output", out)
    assert res.returncode == 0, res.stderr
    assert "converged=True" in res.stdout
    doc = json.loads(out.read_text())
    assert doc["kind"] == "fit"
    assert doc["family"] == "t"
    assert 2.0 < doc["params"]["nu"] < 20.0
    assert doc["params"]["Sigma"][0][0] == 1.0


def test_fit_output_byte_deterministic(tmp_path, t_stack):
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("fit", "--input", t_stack, "--family", "t", "--output", o1).returncode == 0
    assert run_cli("fit", "--input", t_stack, "--family", "t", "--output", o2).returncode == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_fit_too_few_rows_exits_one(tmp_path):
    path = tmp_path / "tiny.matstack"
    write_matstack(MatrixStack(np.zeros((2, 3, 3)) + np.eye(3)), path)
    res = run_cli("fit", "--input", path, "--output", tmp_path / "o.json")
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_fit_nonconverged_exits_two(tmp_path, t_stack):
    out = tmp_path / "fit.json"
    res = run_cli(
        "fit", "--input", t_stack, "--family", "t", "--max-iter", "2",
        "--tol", "1e-14", "--output", out,
    )
    assert res.returncode == 2
    assert "converged=False" in res.stdout
    assert out.exists()  # the model file is still written


def test_fit_bad_nu_exits_one(tmp_path, t_stack):
    res = run_cli("fit", "--input", t_stack, "--family", "t", "--nu", "banana",
                  "--output", tmp_path / "o.json")
    assert res.returncode == 1


def test_simulate_round_trip(tmp_path):
    out = tmp_path / "sim.matstack"
    res = run_cli("simulate", "--family", "t", "--nu", "6", "--p", "2", "--q", "3",
                  "--n", "25", "--seed", "9", "--output", out)
    assert res.returncode == 0
    from matvt.datamodel import read_matstack

    stack = read_matstack(out)
    assert (stack.n, stack.p, stack.q) == (25, 2, 3)
    out2 = tmp_path / "sim2.matstack"
    run_cli("simulate", "--family", "t", "--nu", "6", "--p", "2", "--q", "3",
            "--n", "25", "--seed", "9", "--output", out2)
    assert out.read_bytes() == out2.read_bytes()


def test_simulate_from_params_file(tmp_path, t_stack):
    fit_doc = tmp_path / "fit.json"
    run_cli("fit", "--input", t_stack, "--family", "t", "--output", fit_doc)
    out = tmp_path / "sim.matstack"
    res = run_cli("simulate", "--family", "t", "--params", fit_doc, "--n", "10",
                  "--output", out)
    assert res.returncode == 0
    assert out.exists()


def test_classify_train_predict_eval(tmp_path, labeled_stack):
    model = tmp_path / "model.json"
    res = run_cli("classify", "train", "--input", labeled_stack, "--output", model)
    assert res.returncode == 0, res.stderr
    assert "BIC=" in res.stdout

    pred = tmp_path / "pred.csv"
    res = run_cli("classify", "predict", "--model", model, "--input", labeled_stack,
                  "--output", pred)
    assert res.returncode == 0
    lines = pred.read_text().splitlines()
    assert lines[0] == "label,score_0,score_1,log_odds"
    assert len(lines) == 81

    res = run_cli("classify", "eval", "--model", model, "--input", labeled_stack)
    assert res.returncode == 0
    assert "error_rate=" in res.stdout
    assert "confusion" in res.stdout


def test_classify_predict_stdout(tmp_path, labeled_stack):
    model = tmp_path / "model.json"
    run_cli("classify", "train", "--input", labeled_stack, "--output", model)
    res = run_cli("classify", "predict", "--model", model, "--input", labeled_stack)
    assert res.returncode == 0
    assert res.stdout.startswith("label,score_0,score_1,log_odds")


def test_classify_loocv_reports_refits(tmp_path):
    a = sample_mxvn(MxvnParams(np.zeros((2, 2)), np.eye(2), np.eye(2)), 10, seed=3, stream=0)
    b = sample_mxvn(MxvnParams(np.full((2, 2), 4.0), np.eye(2), np.eye(2)), 10, seed=3, stream=1)
    stack = MatrixStack(np.concatenate([a.data, b.data]), labels=[0] * 10 + [1] * 10)
    path = tmp_path / "small.matstack"
    write_matstack(stack, path)
    res = run_cli("classify", "loocv", "--input", path)
    assert res.returncode == 0, res.stderr
    assert "refits=20" in res.stdout


def test_classify_train_unlabeled_exits_one(tmp_path, t_stack):
    res = run_cli("classify", "train", "--input", t_stack, "--output", tmp_path / "m.json")
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_experiment_smoke(tmp_path):
    spec = {
        "cells": [{"p": 2, "q": 2, "n": 40, "nu": 5.0}],
        "replicates": 2,
        "seed": 11,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outdir = tmp_path / "out"
    res = run_cli("experiment", "--name", "nu-recovery", "--spec", spec_path,
                  "--outdir", outdir)
    assert res.returncode == 0, res.stderr
    assert (outdir / "nu_recovery_replicates.csv").exists()
    assert (outdir / "nu_recovery_summary.csv").exists()


def test_ingest_satimage(tmp_path):
    rng = np.random.default_rng(5)

    def record(code):
        vals = rng.integers(0, 256, 36).tolist()
        return " ".join(map(str, vals + [code]))

    trn = tmp_path / "sat.trn"
    tst = tmp_path / "sat.tst"
    trn.write_text("\n".join(record(c) for c in [3, 4, 5, 3, 1]) + "\n")
    tst.write_text("\n".join(record(c) for c in [5, 4]) + "\n")
    outdir = tmp_path / "ingested"
    res = run_cli("ingest-satimage", "--train", trn, "--test", tst, "--outdir", outdir)
    assert res.returncode == 0, res.stderr
    assert "train: 4 observations" in res.stdout
    from matvt.datamodel import read_matstack

    train = read_matstack(outdir / "satimage_train.matstack")
    assert (train.n, train.p, train.q) == (4, 4, 9)


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"kind": "classifier"}, "family"),
        ({"kind": "classifier", "family": "t", "groups": [{"M": [[0.0]]}]}, "Sigma"),
    ],
)
def test_model_missing_key_is_a_one_line_error(tmp_path, labeled_stack, doc, key):
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(doc))
    res = run_cli("classify", "predict", "--model", model, "--input", labeled_stack)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
    assert repr(key) in res.stderr
    assert "Traceback" not in res.stderr


def test_fit_doc_missing_params_is_a_one_line_error(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"kind": "fit"}))
    res = run_cli("simulate", "--n", 3, "--params", doc, "--output", tmp_path / "o.matstack")
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "'params'" in res.stderr
    assert "Traceback" not in res.stderr
