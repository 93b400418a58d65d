"""The names the benchmark's span tracer patches exist in the package.

``bench/spans.py`` looks each traced function up by module and attribute
name; a refactor that renames or drops one would otherwise only show when
the traced benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
