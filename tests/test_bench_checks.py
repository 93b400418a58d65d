"""The benchmark's workloads pass their own correctness checks.

``bench/workloads.py`` runs each workload's operations and checks one
round against the dense vec/Kronecker references of ``bench/reference.py``;
``bench/selftest.py`` shows that each check rejects a corrupted result.  A
change to the fitters that the benchmark would refuse fails here first.
Nothing under ``bench/`` is written: no bytecode cache is left there.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matvt

BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_MODULES = ("workloads", "checks", "reference")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("workloads")
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize(
    "name", ["paper-cells", pytest.param("large-matrix", marks=pytest.mark.slow), "classify"]
)
def test_one_round_passes_the_benchmark_checks(workloads, name):
    workload = workloads.WORKLOADS[name](matvt, 1)
    workload.build()
    ops = workload.round()
    assert [op.name for op in ops if op.failed] == []
    assert workload.check(ops) == []


def test_benchmark_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        cwd=BENCH.parent, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "27 of 27 self-test cases behave as expected"
