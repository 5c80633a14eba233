"""Reference maxent code kept for the tests: the feature-expectation
residual that generalized iterative scaling drives toward zero, measured
on a dataset independently of ``tamkit.maxent.train_maxent``."""

import numpy as np

from tamkit.features import extract, to_csr


def expectation_residual(model, dataset) -> float:
    """Largest |empirical - expected| feature-expectation rate over all
    (feature, label) pairs, measured on ``dataset``."""
    n = len(dataset)
    fvs = [extract(ex, model.mode, model.vocab) for ex in dataset]
    X = to_csr(fvs, model.weights.shape[0]).toarray()
    label_index = {lab: i for i, lab in enumerate(model.labels)}
    onehot = np.zeros((n, len(model.labels)))
    for i, ex in enumerate(dataset):
        onehot[i, label_index[ex.label]] = 1.0
    scores = X @ model.weights
    probs = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)  # p(label | example)
    empirical = X.T @ onehot
    expected = X.T @ probs
    if empirical.size == 0:
        return 0.0
    return float(np.abs(empirical - expected).max() / n)
