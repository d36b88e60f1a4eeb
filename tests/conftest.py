from collections import Counter

import numpy as np
import pytest

from raylift import Field


@pytest.fixture(params=[Field.REAL, Field.COMPLEX], ids=["real", "complex"])
def field(request):
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def eig_calls(monkeypatch):
    """A ``Counter`` of the ``np.linalg.eigh`` and ``np.linalg.eigvalsh``
    calls made during the test; clear it to count from a later point."""
    calls = Counter()
    for name in ("eigh", "eigvalsh"):
        inner = getattr(np.linalg, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
