"""Decision-list classifier.

For a context, the single feature whose strongest label has the highest
conditional occurrence rate decides the output: pick
f_max = argmax_f max_a p(a|f) over the features present, then return
argmax_a p(a|f_max). Probability ties break toward the feature with the
larger raw training count, then lexicographic feature text; label ties
break by global label frequency, then lexicographically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import Dataset, best_label
from .features import Feature, FeatureSet, FeatureVector, Vocabulary, extract


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

    def conditional(self, fid: int, label: str) -> float:
        """p(label | feature), the occurrence rate among examples with the feature."""
        return self.counts[fid].get(label, 0) / self.totals[fid]

    def predict(self, example) -> str:
        return decide(self, extract(example, self.mode, self.vocab)).label

    def predict_batch(self, examples) -> list[str]:
        return [self.predict(ex) for ex in examples]

    def to_dict(self) -> dict:
        return {
            "mode": int(self.mode),
            "vocab": self.vocab.to_list(),
            "counts": [sorted(c.items()) for c in self.counts],
            "label_counts": sorted(self.label_counts.items()),
        }

    @classmethod
    def from_dict(cls, payload) -> "DecisionListModel":
        vocab = Vocabulary.from_list(payload["vocab"])
        counts = [dict(c) for c in payload["counts"]]
        if len(counts) != len(vocab):
            raise ValueError(f"{len(counts)} count rows for {len(vocab)} "
                             f"vocabulary entries")
        return cls(vocab, FeatureSet(payload["mode"]), counts,
                   dict(payload["label_counts"]))


def train_declist(dataset: Dataset, mode: FeatureSet) -> DecisionListModel:
    """Count (feature, label) co-occurrences over the extracted features."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    vocab = Vocabulary.from_dataset(dataset, mode)
    counts: list[dict[str, int]] = [{} for _ in range(len(vocab))]
    for ex in dataset:
        for fid in extract(ex, mode, vocab).ids:
            counts[fid][ex.label] = counts[fid].get(ex.label, 0) + 1
    return DecisionListModel(vocab, mode, counts, dataset.label_counts)


def decide(model: DecisionListModel, fv: FeatureVector) -> Decision:
    """Full decision record for a feature vector.

    Falls back to the global majority label (flagged) when the vector shares
    no feature with the model. Probability comparisons are exact (integer
    cross-multiplication), so tie handling does not depend on float rounding.
    """
    best_fid = -1
    best_cnt = 0   # count of the winning label under the best feature
    best_tot = 1
    best_feat: Feature | None = None
    for fid in fv.ids:
        if not model.counts[fid]:
            continue
        cnt_map = model.counts[fid]
        tot = model.totals[fid]
        top = max(cnt_map.values())
        feat = model.vocab.feature(fid)
        if best_feat is None:
            better = True
        else:
            lhs = top * best_tot
            rhs = best_cnt * tot
            if lhs != rhs:
                better = lhs > rhs
            elif tot != best_tot:
                better = tot > best_tot
            elif feat.text != best_feat.text:
                better = feat.text < best_feat.text
            else:
                better = feat.kind < best_feat.kind
        if better:
            best_fid, best_cnt, best_tot, best_feat = fid, top, tot, feat
    if best_feat is None:
        n = sum(model.label_counts.values())
        label = best_label(model.label_counts, model.label_counts)
        return Decision(label, None, model.label_counts[label] / n, True)
    # the feature's most frequent labels all have count best_cnt
    label = best_label(model.counts[best_fid], model.label_counts)
    return Decision(label, best_feat, best_cnt / best_tot, False)


def classify_declist(model: DecisionListModel, fv: FeatureVector) -> str:
    return decide(model, fv).label
