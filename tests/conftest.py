import pytest

from tamkit import svm


@pytest.fixture
def row_cache(monkeypatch):
    """Every SVM kernel is a row cache of two rows, so that training evicts
    and rebuilds rows all the time."""
    monkeypatch.setattr(svm, "GRAM_LIMIT", 0)
    monkeypatch.setattr(svm, "CACHE_ENTRIES", 0)
    monkeypatch.setattr(svm, "CACHE_MIN_ROWS", 2)
