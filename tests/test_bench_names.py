"""The names the benchmark's span tracer patches exist in the package.

``bench/spans.py`` looks each traced function up by module and attribute
name; a refactor that renames or drops one would otherwise only show when
the traced benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from matvt import mxvt
from matvt.datamodel import MxvtParams
from matvt.distributions import sample_mxvt

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans(monkeypatch):
    # read-only: no bytecode cache is written next to the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    spans = _load_spans(monkeypatch)
    entries = list(spans.LAYERS) + [spans.NU_FALLBACK]
    assert len(entries) > 1
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in entries
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing, f"traced names missing from matvt: {missing}"


def test_nu_span_sees_every_nu_step(monkeypatch):
    # the benchmark times the nu step through ``matvt.mxvt.solve_nu`` and its
    # fallback search through ``matvt.mxvt.minimize_scalar``
    # (``NU_FALLBACK``): an estimated-nu fit enters ``solve_nu`` once per
    # ECME step, and the search only inside a step whose Newton step was
    # refused, which then leaves the scale of Sigma alone (a == 0)
    spans = _load_spans(monkeypatch)
    assert ("matvt.mxvt", "solve_nu", "mxvt.solve_nu") in spans.LAYERS
    module, attr, _ = spans.NU_FALLBACK
    assert (module, attr) == ("matvt.mxvt", "minimize_scalar")
    step, search = mxvt.solve_nu, mxvt.minimize_scalar
    steps, searches = [], []

    def counted_step(*args, **kwargs):
        before = len(searches)
        out = step(*args, **kwargs)
        steps.append((len(searches) - before, out[1]))
        return out

    def counted_search(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(mxvt, "solve_nu", counted_step)
    monkeypatch.setattr(mxvt, "minimize_scalar", counted_search)
    truth = MxvtParams(6.0, np.zeros((4, 3)), np.eye(4), np.eye(3))
    res = mxvt.mxvt_fit(sample_mxvt(truth, 60, seed=3))
    assert res.iterations > 1 and len(steps) == res.iterations
    fallbacks = [a for searched, a in steps if searched]
    assert all(searched <= 1 for searched, _ in steps)
    assert len(searches) == len(fallbacks) < len(steps)
    assert all(a == 0.0 for a in fallbacks)
