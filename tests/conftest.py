import numpy as np
import pytest


class Decompositions(dict):
    """Calls per decomposition; ``orders`` holds (name, order) per call."""

    orders: list[tuple[str, int]]


@pytest.fixture
def decompositions(monkeypatch):
    """Counts of np.linalg.eigh, eigvalsh and cholesky calls during the test,
    with the order of each decomposed matrix in ``decompositions.orders``."""
    calls = Decompositions(eigh=0, eigvalsh=0, cholesky=0)
    calls.orders = []
    for name in list(calls):
        def counted(a, *args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            calls.orders.append((_name, np.shape(a)[-1]))
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls
