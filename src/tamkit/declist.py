"""Decision-list classifier.

Each training feature is a rule, and the rules are ranked once per model:
by the conditional occurrence rate of the feature's strongest label,
max_a p(a|f), highest first; ties go to the feature with the larger raw
training count, then the lexicographically smaller feature text, then
kind. For a context, the first rule whose feature is present decides, and
the output is argmax_a p(a|f) for that feature; label ties break by global
label frequency, then lexicographically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import Dataset, best_label, read_label_counts
from .features import (Feature, FeatureSet, FeatureVector, Vocabulary, encode,
                       read_mode, rows_against)


@dataclass(frozen=True)
class Decision:
    """One classification with the (feature, label) pair that explains it."""

    label: str
    feature: Feature | None
    probability: float
    fallback: bool


class DecisionListModel:
    def __init__(self, vocab: Vocabulary, mode: FeatureSet, counts, label_counts):
        self.vocab = vocab
        self.mode = FeatureSet(mode)
        # counts[fid] maps label -> co-occurrence count; totals are per-feature sums
        self.counts: tuple[dict[str, int], ...] = tuple(dict(c) for c in counts)
        self.totals: tuple[int, ...] = tuple(sum(c.values()) for c in self.counts)
        self.label_counts = Counter(label_counts)
        # Rules in rank order. Float ratios rank exactly: two different
        # ratios with denominators below 2^26 differ by more than 2^-52, so
        # they never round to the same double, and equal ratios round alike.
        rules = sorted(
            (-max(c.values()) / tot, -tot, feat.text, feat.kind, fid)
            for fid, (c, tot, feat) in enumerate(zip(self.counts, self.totals,
                                                     vocab)) if c)
        # rank[fid] is the rule's position; a feature without counts is no
        # rule and ranks last
        self.rank: list[int] = [len(rules)] * len(self.counts)
        for pos, rule in enumerate(rules):
            self.rank[rule[-1]] = pos

    def predict(self, example) -> str:
        return self.predict_batch([example])[0]

    def predict_batch(self, examples) -> list[str]:
        X = rows_against(examples, self.mode, self.vocab)
        ids, ends = X.indices.tolist(), X.indptr.tolist()
        return [decide(self, FeatureVector(ids[a:b])).label for a, b in zip(ends, ends[1:])]

    def to_dict(self) -> dict:
        return {
            "mode": int(self.mode),
            "vocab": self.vocab.to_list(),
            "counts": [sorted(c.items()) for c in self.counts],
            "label_counts": sorted(self.label_counts.items()),
        }

    @classmethod
    def from_dict(cls, payload) -> "DecisionListModel":
        """Model from its ``to_dict`` payload. Raises ValueError unless there
        is a count row per vocabulary entry, every count is a positive
        integer, and some label has a count."""
        mode = read_mode(payload["mode"])
        vocab = Vocabulary.from_list(payload["vocab"], mode)
        counts = [read_label_counts(c) for c in payload["counts"]]
        if len(counts) != len(vocab):
            raise ValueError(f"{len(counts)} count rows for {len(vocab)} "
                             f"vocabulary entries")
        label_counts = read_label_counts(payload["label_counts"])
        if not label_counts:
            raise ValueError("no label counts")
        return cls(vocab, mode, counts, label_counts)


def train_declist(dataset: Dataset, mode: FeatureSet) -> DecisionListModel:
    """Count (feature, label) co-occurrences over the training features."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    train = encode(dataset, mode)
    return DecisionListModel(train.vocab, mode, train.label_counts_by_feature(),
                             train.label_counts)


def decide(model: DecisionListModel, fv: FeatureVector) -> Decision:
    """Full decision record for a feature vector: the first rule in the
    model's ranking whose feature is in the vector decides.

    Falls back to the global majority label (flagged) when the vector shares
    no rule with the model.
    """
    fid = min(fv.ids, key=model.rank.__getitem__, default=None)
    if fid is None or not model.counts[fid]:
        n = sum(model.label_counts.values())
        label = best_label(model.label_counts, model.label_counts)
        return Decision(label, None, model.label_counts[label] / n, True)
    label = best_label(model.counts[fid], model.label_counts)
    return Decision(label, model.vocab.feature(fid),
                    model.counts[fid][label] / model.totals[fid], False)
