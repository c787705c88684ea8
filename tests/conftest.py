"""Fixtures shared by the test modules."""

import numpy as np
import pytest
from hypothesis import strategies as st

from lapsig.graphs import CirculantSpec


def _record_calls(monkeypatch, name: str) -> list:
    """The shapes passed to ``np.linalg.<name>``, one entry per call."""
    calls = []
    original = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes passed to ``np.linalg.eigh``, one entry per call."""
    return _record_calls(monkeypatch, "eigh")


@pytest.fixture
def cholesky_calls(monkeypatch):
    """The shapes passed to ``np.linalg.cholesky`` (the L^+ certificate), one
    entry per call."""
    return _record_calls(monkeypatch, "cholesky")


_WEIGHTS = {
    "unit": st.just(1.0),
    "integer": st.integers(1, 5).map(float),
    "uniform": st.floats(0.5, 2.0),
}


@st.composite
def circulant_specs(draw, n_max=96, kinds=tuple(sorted(_WEIGHTS))):
    """Any generating set: the wrap hop n/2 and disconnected sets included."""
    n = draw(st.integers(3, n_max))
    hops = sorted(draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4)))
    weight = _WEIGHTS[draw(st.sampled_from(kinds))]
    return CirculantSpec(n, tuple((h, draw(weight)) for h in hops))
