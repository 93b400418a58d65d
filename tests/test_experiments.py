import csv

import numpy as np
import pytest

from matvt.experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    default_spec,
    misspecification,
    nu_recovery,
    rmse_recovery,
    run_experiment,
    timing,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(name="nu-recovery", cells=[], replicates=5)
    with pytest.raises(ValueError):
        ExperimentSpec(name="nu-recovery", cells=[{"n": 10, "nu": 5.0}], replicates=0)
    with pytest.raises(ValueError):
        default_spec("bogus")
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(name="bogus", cells=[{"n": 1}]))


def test_default_specs_shape():
    spec = default_spec("nu-recovery")
    assert len(spec.cells) == 9
    assert spec.replicates == 200
    assert {c["nu"] for c in spec.cells} == {5.0, 10.0, 20.0}
    assert {c["n"] for c in spec.cells} == {35, 50, 100}
    misspec = default_spec("misspec")
    assert {c["true"] for c in misspec.cells} == {"t", "normal"}
    assert set(EXPERIMENTS) == {"nu-recovery", "rmse", "misspec", "timing"}


def test_nu_recovery_rows_and_summary(tmp_path):
    spec = ExperimentSpec(
        name="nu-recovery",
        cells=[{"p": 3, "q": 2, "n": 60, "nu": 5.0}],
        replicates=6,
        seed=42,
        output_dir=str(tmp_path),
    )
    rows, summaries = nu_recovery(spec)
    assert len(rows) == 6
    assert {r["rep"] for r in rows} == set(range(6))
    s = summaries[0]
    assert s["min"] <= s["median"] <= s["max"]
    # estimates should be in a plausible neighborhood of the truth
    assert 2.0 < s["median"] < 20.0
    # CSV outputs exist and round-trip
    with open(tmp_path / "nu_recovery_replicates.csv") as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == 6
    assert float(got[0]["nu_hat"]) == pytest.approx(rows[0]["nu_hat"])
    assert (tmp_path / "nu_recovery_summary.csv").exists()


def test_nu_recovery_is_reproducible():
    spec = ExperimentSpec(
        name="nu-recovery",
        cells=[{"p": 2, "q": 2, "n": 50, "nu": 8.0}],
        replicates=3,
        seed=7,
    )
    rows1, _ = nu_recovery(spec)
    rows2, _ = nu_recovery(spec)
    assert [r["nu_hat"] for r in rows1] == [r["nu_hat"] for r in rows2]
    other = ExperimentSpec(
        name="nu-recovery", cells=spec.cells, replicates=3, seed=8
    )
    rows3, _ = nu_recovery(other)
    assert [r["nu_hat"] for r in rows1] != [r["nu_hat"] for r in rows3]


def test_rmse_recovery_shrinks_with_n():
    cells = [
        {"p": 2, "q": 2, "n": 30, "nu": 5.0},
        {"p": 2, "q": 2, "n": 500, "nu": 5.0},
    ]
    spec = ExperimentSpec(name="rmse", cells=cells, replicates=4, seed=1)
    _, summaries = rmse_recovery(spec)
    small, large = summaries
    assert large["rmse_mean"] < small["rmse_mean"]
    assert large["rmse_cov"] < small["rmse_cov"]


def test_misspecification_rows(tmp_path):
    spec = ExperimentSpec(
        name="misspec",
        cells=[{"true": "t", "nu": 6.0, "n": 60}],
        replicates=1,
        seed=3,
        output_dir=str(tmp_path),
        options={"nu_grid": [4, 6, 30], "p": 3, "q": 3},
    )
    rows, _ = misspecification(spec)
    fitted = [r["fitted"] for r in rows]
    assert fitted == ["normal", "4", "6", "30"]
    lls = {r["fitted"]: r["log_lik"] for r in rows}
    # near-truth df should out-score both the normal and a far-off df
    assert lls["6"] > lls["30"] > lls["normal"] or lls["6"] > lls["normal"]
    assert (tmp_path / "misspecification_replicates.csv").exists()


def test_timing_excludes_warmup():
    spec = ExperimentSpec(
        name="timing",
        cells=[{"p": 2, "q": 2, "n": 40}],
        replicates=2,
        seed=4,
    )
    rows, summaries = timing(spec)
    assert len(rows) == 2              # warm-up rep not recorded
    assert {r["rep"] for r in rows} == {1, 2}
    assert summaries[0]["median_seconds"] > 0
    assert summaries[0]["median_sec_per_iter"] > 0


def test_timing_runs_at_the_papers_large_cell():
    # the 100x100 cell of the default timing grid, at a small n
    spec = ExperimentSpec(
        name="timing", cells=[{"p": 100, "q": 100, "n": 20}], replicates=1, seed=0
    )
    rows, _ = timing(spec)
    assert len(rows) == 1
    assert rows[0]["iterations"] > 0
    assert np.isfinite(rows[0]["sec_per_iter"])


def test_run_experiment_dispatch():
    spec = ExperimentSpec(
        name="nu-recovery",
        cells=[{"p": 2, "q": 2, "n": 40, "nu": 5.0}],
        replicates=2,
        seed=5,
    )
    rows, summaries = run_experiment(spec)
    assert len(rows) == 2 and len(summaries) == 1
