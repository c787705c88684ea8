"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes passed to ``np.linalg.eigh``, one entry per call."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls
