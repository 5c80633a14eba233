import os
from pathlib import Path

import numpy as np
import pytest

import tamkit
from tamkit import svm


@pytest.fixture
def row_cache(monkeypatch):
    """A kernel budget of one value: every SVM kernel of two or more
    examples is a row cache of one row, so that training evicts and
    rebuilds rows all the time."""
    monkeypatch.setattr(svm, "KERNEL_ENTRIES", 1)


@pytest.fixture
def blas_kernel_envs():
    """Environments of child processes that import ``tamkit``, by the
    OpenBLAS kernel they run: the default one, and Prescott (SSE3 only),
    named by ``OPENBLAS_CORETYPE`` in the child's environment alone. Skips
    the test unless numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH,
    which picks its kernel at load time; numpy before 1.25 does not
    describe its build, and counts as not."""
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if not ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")):
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
                    "OPENBLAS_CORETYPE cannot change its kernel")
    base = {key: value for key, value in os.environ.items()
            if key != "OPENBLAS_CORETYPE"}
    base["PYTHONPATH"] = str(Path(tamkit.__file__).resolve().parents[1])
    return {"default": base, "prescott": {**base, "OPENBLAS_CORETYPE": "Prescott"}}
