"""The AR(1)/CS profile search that fits every structured scatter update."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matvt import structures
from matvt.datamodel import Ar1Matrix, CsMatrix, ScatterStructure, corr_logdet
from matvt.structures import (
    _trace_form,
    structured_scatter_direct,
    update_scatter_direct,
    update_scatter_inverse,
)


def _objective(S, stat, c, direct):
    # direct: c log|S| - tr(S T)/2; inverse: -c log|S| - tr(S^-1 A)/2
    logdet = np.linalg.slogdet(S)[1]
    if direct:
        return c * logdet - np.sum(S * stat) / 2
    return -c * logdet - np.trace(np.linalg.solve(S, stat)) / 2


def _statistic(kind, d, rho0, mix, level, seed, direct):
    # a structured scatter whose maximizer is near rho0, mixed with a
    # random SPD matrix; the direct form's statistic is an inverse scatter
    cls = Ar1Matrix if kind == ScatterStructure.AR1 else CsMatrix
    if kind == ScatterStructure.CS and d > 1:
        rho0 = max(rho0, -1.0 / (d - 1) + 1e-4)
    G = np.random.default_rng(seed).standard_normal((d, d + 2))
    S = mix * cls(d, rho0 if d > 1 else 0.0).full() + (1 - mix) * G @ G.T / (d + 2)
    return level * (np.linalg.inv(S) if direct else S)


# maximizers past the upper bound of both forms and kinds
@example(kind=ScatterStructure.AR1, d=5, direct=True, rho0=0.9995, mix=1.0, level=1.0, c=20.0, seed=0)
@example(kind=ScatterStructure.AR1, d=5, direct=False, rho0=0.9995, mix=1.0, level=1.0, c=20.0, seed=0)
@example(kind=ScatterStructure.CS, d=5, direct=True, rho0=0.9995, mix=1.0, level=1.0, c=20.0, seed=0)
@example(kind=ScatterStructure.CS, d=5, direct=False, rho0=0.9995, mix=1.0, level=1.0, c=20.0, seed=0)
# a profile with two modes, where a search over the whole interval stops at
# the lesser one
@example(kind=ScatterStructure.AR1, d=5, direct=True, rho0=-0.9995, mix=0.5, level=1.0, c=1.0, seed=11956)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    kind=st.sampled_from([ScatterStructure.AR1, ScatterStructure.CS]),
    d=st.integers(1, 6),
    direct=st.booleans(),
    rho0=st.one_of(st.sampled_from([-0.9995, 0.9995]), st.floats(-0.9999, 0.9999)),
    mix=st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]),
    level=st.floats(1e-3, 1e3),
    c=st.floats(0.5, 500.0),
    seed=st.integers(0, 2**16),
)
def test_profile_search_beats_every_grid_point(kind, d, direct, rho0, mix, level, c, seed):
    stat = _statistic(kind, d, rho0, mix, level, seed, direct)
    if direct:
        S = structured_scatter_direct(stat, c, kind, d).full()
    else:
        S = update_scatter_inverse(stat, c, kind, d)
    best = _objective(S, stat, c, direct)

    cls = Ar1Matrix if kind == ScatterStructure.AR1 else CsMatrix
    lo = -1.0 / (d - 1) + 1e-3 if kind == ScatterStructure.CS and d > 1 else -0.99
    for rho in np.linspace(lo, 0.99, 41):
        R = cls(d, rho if d > 1 else 0.0).full()
        # the scale that maximizes at this rho, and points either side of it
        tr = np.sum(R * stat) if direct else np.trace(np.linalg.solve(R, stat))
        u = 2 * c * d / tr
        for f in (0.5, 1.0, 2.0):
            scale = f * u if direct else 1 / (f * u)
            val = _objective(scale * R, stat, c, direct)
            assert best >= val - 1e-12 * abs(val), (rho, f, best, val)


def _search_bounds(kind, d):
    # the bounds of the rho search; d = 1 has no search, and any |rho| < 1 is valid
    if kind == ScatterStructure.CS and d > 1:
        return -1.0 / (d - 1) + 1e-3, 0.99
    return -0.99, 0.99


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    kind=st.sampled_from([ScatterStructure.AR1, ScatterStructure.CS]),
    d=st.integers(1, 8),
    direct=st.booleans(),
    where=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    rank=st.integers(1, 10),
    level=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**16),
)
def test_closed_form_profile_terms_match_the_dense_ones(kind, d, direct, where, rank, level, seed):
    # rho inside the search bounds or on them (where = 0 or 1); a statistic of
    # rank below d is PSD, rank d or more SPD
    lo, hi = _search_bounds(kind, d)
    rho = lo + where * (hi - lo)
    G = np.random.default_rng(seed).standard_normal((d, rank))
    stat = level * G @ G.T
    R = (Ar1Matrix if kind == ScatterStructure.AR1 else CsMatrix)(d, rho)
    P = R.full() if direct else R.inverse()
    dense = np.sum(P * stat)
    assert abs(_trace_form(stat, kind, d, direct)(rho) - dense) <= 1e-12 * np.sum(np.abs(P * stat))
    sign, logdet = np.linalg.slogdet(R.full())
    assert sign == 1 and corr_logdet(kind, d, rho) == pytest.approx(logdet, abs=1e-12)


@pytest.mark.parametrize("kind", [ScatterStructure.AR1, ScatterStructure.CS])
@pytest.mark.parametrize("direct", [True, False])
def test_structured_update_builds_one_matrix(monkeypatch, kind, direct):
    # the search evaluates closed forms only: the update constructs its result
    # and nothing else, never inverts it, and densifies it at most once
    counts = {"built": 0, "full": 0, "inverse": 0}
    base = Ar1Matrix if kind == ScatterStructure.AR1 else CsMatrix

    class Counted(base):
        def __post_init__(self):
            counts["built"] += 1
            super().__post_init__()

        def full(self):
            counts["full"] += 1
            return super().full()

        def inverse(self):
            counts["inverse"] += 1
            return super().inverse()

    monkeypatch.setattr(structures, base.__name__, Counted)
    d, c = 6, 40.0
    stat = _statistic(kind, d, 0.4, 0.9, 1.0, 7, direct)
    update = update_scatter_direct if direct else update_scatter_inverse
    S = update(stat, c, kind, d)
    assert counts == {"built": 1, "full": 1, "inverse": 0}
    assert np.all(np.linalg.eigvalsh(S) > 0)
    if direct:
        counts.update(built=0, full=0)
        structured_scatter_direct(stat, c, kind, d)
        assert counts == {"built": 1, "full": 0, "inverse": 0}
