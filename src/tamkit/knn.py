"""k-nearest neighborhood classifier over sentence-final string match.

Similarity between two sentences is the length of their longest common
character suffix, capped at ``MAX_NGRAM`` (10) to mirror the 1- to 10-gram
feature range. Classification takes the k most similar training sentences,
additionally admits every example tied with the k-th similarity, and returns
the majority label of that voting set. This only applies to feature-set 2;
no similarity is defined over token bags.

No query scans the training set. A training sentence has similarity at
least s to a query exactly when it ends with the query's last s characters.
So the voting set is the sentences ending with the longest query suffix (of
at most 10) that at least k training sentences end with, or all of them if
none does (with k >= N, all vote either way). The model keeps their label
counts, per suffix: training reads them off the feature-set-2 encoding of
its training set, the counts of each suffix feature.
"""

from __future__ import annotations

from collections import Counter

from .corpus import Dataset, best_label, is_label, is_positive_int, read_list
from .features import MAX_NGRAM, FeatureSet, encode, suffix_ngrams


class KnnModel:
    """Training sentences with labels, and ``suffix_votes``: each suffix
    text of the sentences mapped to the label counts of the sentences
    ending with it. Immutable after construction."""

    mode = FeatureSet.FS2  # sentence endings are the suffix n-grams only

    def __init__(self, sentences, labels, k: int, suffix_votes):
        self.sentences = tuple(sentences)
        self.labels = tuple(labels)
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.sentences:
            raise ValueError("cannot train on an empty dataset")
        if len(self.sentences) != len(self.labels):
            raise ValueError("sentences and labels must align")
        self.k = k
        self.label_counts = Counter(self.labels)
        self.suffix_votes: dict[str, dict[str, int]] = suffix_votes

    def predict(self, example) -> str:
        return classify_knn(self, example.sentence)

    def predict_batch(self, examples) -> list[str]:
        return [self.predict(ex) for ex in examples]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "sentences": list(self.sentences),
            "labels": list(self.labels),
        }

    @classmethod
    def from_dict(cls, payload) -> "KnnModel":
        """Model from its ``to_dict`` payload. Raises ValueError unless ``k``
        is an integer >= 1, the sentences a list of strings and the labels
        a list of non-empty strings."""
        k = payload["k"]
        sentences, labels = read_list(payload, "sentences"), read_list(payload, "labels")
        if not is_positive_int(k):
            raise ValueError(f"k = {k!r} is not an integer >= 1")
        if not all(isinstance(s, str) for s in sentences):
            raise ValueError("every sentence must be a string")
        if not all(is_label(lab) for lab in labels):
            raise ValueError("every label must be a non-empty string")
        votes: dict[str, dict[str, int]] = {}
        for (sentence, label), count in Counter(zip(sentences, labels)).items():
            for feat in suffix_ngrams(sentence):
                votes.setdefault(feat.text, Counter())[label] += count
        return cls(sentences, labels, k, votes)


def train_knn(dataset: Dataset, k: int) -> KnnModel:
    """The model of ``dataset``, its suffix table read off the label counts
    of its feature-set-2 encoding."""
    train = encode(dataset, KnnModel.mode)
    votes = dict(zip((feat.text for feat in train.vocab),
                     train.label_counts_by_feature()))
    return KnnModel((ex.sentence for ex in train), (ex.label for ex in train), k,
                    votes)


def classify_knn(model: KnnModel, sentence: str) -> str:
    """Majority vote among the k nearest training sentences plus all
    examples tied with the k-th similarity. Vote ties break by global
    training frequency, then lexicographic label order."""
    votes = model.label_counts  # similarity 0: every training sentence
    for n in range(min(len(sentence), MAX_NGRAM), 0, -1):
        ending = model.suffix_votes.get(sentence[-n:])
        if ending is not None and sum(ending.values()) >= model.k:
            votes = ending
            break
    return best_label(votes, model.label_counts)
