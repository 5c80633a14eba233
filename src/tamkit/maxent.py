"""Conditional maximum-entropy classifier.

The model assigns p(a|b) proportional to exp(sum of w[f,a] over features f
present in context b), one weight per (feature, label) pair. Training uses
generalized iterative scaling: each pass compares the empirical count of
every (feature, label) pair against its expectation under the current model
and moves the weight by log(empirical/expected)/C, where C is the largest
per-example feature count. The fitted distribution matches the empirical
feature expectations while maximizing conditional entropy.

Iteration stops when the largest count residual falls to ``GIS_TOL`` * N
or after ``GIS_MAX_ITERS`` passes, whichever is first; ``info`` says which.
A pair never observed in training drives its weight to -inf, and a feature
that perfectly predicts one label pushes weights toward +inf, so weights are
clamped to +-30 instead of failing; ``info["clamped"]`` says whether any is.

Training canonicalizes the vocabulary and accumulates counts with
order-independent array reductions, so permuting the dataset yields
bit-identical weights. Trained models are immutable.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .corpus import Dataset, best_label, is_label, read_label_counts, read_list
from .features import (FeatureSet, FeatureVector, Vocabulary, encode, read_mode,
                       rows_against, to_csr)

WEIGHT_CLAMP = 30.0
GIS_TOL = 1e-4         # stop when every count residual is at most GIS_TOL * N
GIS_MAX_ITERS = 1000   # or after this many passes


class MaxEntModel:
    def __init__(self, vocab: Vocabulary, mode: FeatureSet, labels, weights,
                 label_counts, info=None):
        self.vocab = vocab
        self.mode = FeatureSet(mode)
        self.labels: tuple[str, ...] = tuple(labels)
        weights = np.asarray(weights, dtype=np.float64)  # (|vocab|, |labels|)
        # the weights and a zero row, which BinaryCSR.row_sums reads for padding
        self._padded = np.concatenate((weights, np.zeros((1, weights.shape[1]))))
        self.weights = self._padded[:-1]
        self.label_counts = Counter(label_counts)
        self.info = dict(info or {})

    def predict(self, example) -> str:
        return self.predict_batch([example])[0]

    def predict_batch(self, examples) -> list[str]:
        X = rows_against(examples, self.mode, self.vocab)
        return [label for label, _ in _classify_rows(self, X)]

    def to_dict(self) -> dict:
        return {
            "mode": int(self.mode),
            "labels": list(self.labels),
            "label_counts": sorted(self.label_counts.items()),
            "vocab": self.vocab.to_list(),
            "weights": [[repr(float(w)) for w in row] for row in self.weights],
        }

    @classmethod
    def from_dict(cls, payload) -> "MaxEntModel":
        """Model from its ``to_dict`` payload. Raises ValueError unless the
        labels are a list of distinct non-empty strings and the weights a
        finite table with a row per vocabulary entry and a column per label."""
        mode = read_mode(payload["mode"])
        vocab = Vocabulary.from_list(payload["vocab"], mode)
        labels = read_list(payload, "labels")
        if not (all(is_label(lab) for lab in labels)
                and len(set(labels)) == len(labels)):
            raise ValueError("labels must be distinct non-empty strings")
        weights = np.array(
            [[float(w) for w in row] for row in payload["weights"]], dtype=np.float64
        )
        if weights.size == 0:
            weights = weights.reshape(0, len(labels))
        if weights.shape != (len(vocab), len(labels)):
            raise ValueError(f"weights have shape {weights.shape}, not "
                             f"{(len(vocab), len(labels))}: one row per "
                             f"vocabulary entry, one column per label")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        return cls(vocab, mode, labels, weights,
                   read_label_counts(payload["label_counts"]))


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    # the row maxima, one label column at a time: an axis-1 max over a few
    # labels costs ten times as much, and a maximum is exact in any order
    top = np.full(len(scores), -np.inf)
    for column in scores.T:
        np.maximum(top, column, out=top)
    probs = scores - top[:, None]
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def train_maxent(dataset: Dataset, mode: FeatureSet) -> MaxEntModel:
    """Fit the conditional exponential model by generalized iterative
    scaling, until the largest per-pair count residual is at most
    ``GIS_TOL`` * N or ``GIS_MAX_ITERS`` passes have run."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    n = len(dataset)
    train = encode(dataset, mode)
    vocab = train.vocab
    labels = dataset.labels
    label_index = {lab: i for i, lab in enumerate(labels)}
    n_feat, n_lab = len(vocab), len(labels)
    # canonical accumulation order: float sums, and therefore the fitted
    # weights, are bit-identical under any permutation of the dataset
    ids, ends = train.X.indices.tolist(), train.X.indptr.tolist()
    order = sorted(range(n), key=lambda i: (ids[ends[i]:ends[i + 1]], dataset[i].label))
    X = train.X.take(order)
    cmax = int(X.row_lengths().max(initial=0))
    onehot = np.zeros((n, n_lab))
    for row, i in enumerate(order):
        onehot[row, label_index[dataset[i].label]] = 1.0
    # the weights, and a zero row that X.row_sums reads for padding
    padded = np.zeros((n_feat + 1, n_lab))
    weights = padded[:-1]
    if n * n_feat <= (1 << 16):  # sparse overhead dwarfs tiny problems
        D = X.toarray()
        row_sums, column_sums = (lambda W: D @ W[:-1]), D.T.__matmul__
    else:
        row_sums, column_sums = X.row_sums, X.column_sums
    empirical = column_sums(onehot)  # (feature, label) co-occurrence counts

    # with no constraints (cmax == 0), the entropy maximum is the uniform
    # conditional: zero weights, reached after no pass
    residual, it = 0.0, 0
    if cmax > 0:
        # -inf for a pair training never saw, so its update is -inf
        log_empirical = np.log(np.maximum(empirical, 1e-300))
        log_empirical[empirical == 0.0] = -np.inf
        step = 1.0 / cmax
        gap, update = np.empty_like(empirical), np.empty_like(empirical)
        for it in range(1, GIS_MAX_ITERS + 1):
            probs = _softmax_rows(row_sums(padded))
            expected = column_sums(probs)
            residual = float(np.abs(np.subtract(empirical, expected, out=gap),
                                    out=gap).max())
            if residual <= GIS_TOL * n:
                it -= 1
                break
            # weights += (log_empirical - log(expected)) * step, in place
            np.log(np.maximum(expected, 1e-300, out=update), out=update)
            np.subtract(log_empirical, update, out=update)
            update *= step
            weights += update
            np.clip(weights, -WEIGHT_CLAMP, WEIGHT_CLAMP, out=weights)
    converged = residual <= GIS_TOL * n
    info = {
        "iterations": it,
        "converged": converged,
        "stopped_by": "tol" if converged else "max_iters",
        "final_residual": residual,
        "clamped": bool(np.any(np.abs(weights) >= WEIGHT_CLAMP)),
    }
    return MaxEntModel(vocab, mode, labels, weights, dataset.label_counts, info)


def classify_maxent(model: MaxEntModel, fv: FeatureVector) -> tuple[str, dict[str, float]]:
    """Most probable label and the full normalized distribution: the
    one-row case of ``_classify_rows``.

    Argmax ties break by global training frequency, then lexicographically.
    An empty vector scores every label equally (the model has no bias
    weights), which yields the uniform distribution.
    """
    return _classify_rows(model, to_csr([fv], len(model.vocab)))[0]


def _classify_rows(model: MaxEntModel, X) -> list[tuple[str, dict[str, float]]]:
    """``classify_maxent`` of every row of the binary block ``X`` (columns
    ``model.vocab``). A row's score sums its features' weights left to
    right in id order, from 0.0 (``BinaryCSR.row_sums``)."""
    results = []
    for probs in _softmax_rows(X.row_sums(model._padded)).tolist():
        top = max(probs)
        # every most probable label is a candidate with one vote
        candidates = {lab: 1 for lab, p in zip(model.labels, probs) if p == top}
        results.append((best_label(candidates, model.label_counts),
                        dict(zip(model.labels, probs))))
    return results
