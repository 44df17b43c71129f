import numpy as np
import pytest


@pytest.fixture
def decompositions(monkeypatch):
    """Counts of np.linalg.eigh and np.linalg.eigvalsh calls during the test."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls
