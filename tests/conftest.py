import pytest

from tamkit import svm


@pytest.fixture
def row_cache(monkeypatch):
    """A kernel budget of one value: every SVM kernel of two or more
    examples is a row cache of one row, so that training evicts and
    rebuilds rows all the time."""
    monkeypatch.setattr(svm, "KERNEL_ENTRIES", 1)
