from types import SimpleNamespace

import numpy as np
import pytest

from matvt import mxvt


def random_spd(rng, d, diag_boost=None):
    """A well-conditioned random symmetric positive-definite matrix."""
    A = rng.standard_normal((d, d))
    return A @ A.T + (diag_boost or d) * np.eye(d)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def squarem(monkeypatch):
    """What ``mxvt_fit`` hands the iteration driver, recorded per fit.

    ``coords`` is the pair of SQUAREM coordinate maps (None on the plain
    path), ``tried`` the number of extrapolated points the driver mapped
    back to a state, and ``state`` the driver's last state.
    """
    record = SimpleNamespace(coords=None, tried=0, state=None)
    iterate = mxvt._iterate

    def recording(step, state, config, single, coords=None):
        record.coords, record.tried = coords, 0
        if coords:
            to_vector, from_vector = coords

            def counted(x):
                record.tried += 1
                return from_vector(x)

            coords = (to_vector, counted)
        result, record.state = iterate(step, state, config, single, coords)
        return result, record.state

    monkeypatch.setattr(mxvt, "_iterate", recording)
    return record
