"""Reference k-NN code kept for the tests: suffix similarity and the linear
scan over every training sentence that ``tamkit.knn.classify_knn`` answers
from its suffix table instead."""

from collections import Counter

from tamkit.corpus import best_label
from tamkit.features import MAX_NGRAM


def similarity(a: str, b: str) -> int:
    """Length of the longest common character suffix, capped at 10."""
    limit = min(len(a), len(b), MAX_NGRAM)
    n = 0
    while n < limit and a[-1 - n] == b[-1 - n]:
        n += 1
    return n


def reference_knn(model, sentence: str) -> str:
    """Majority vote among the k most similar training sentences plus every
    example tied with the k-th similarity, found by scanning all of them."""
    sims = [similarity(sentence, s) for s in model.sentences]
    k = min(model.k, len(sims))
    kth = sorted(sims, reverse=True)[k - 1]
    votes = Counter(
        lab for sim, lab in zip(sims, model.labels) if sim >= kth
    )
    return best_label(votes, model.label_counts)
