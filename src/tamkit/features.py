"""Sparse binary feature extraction.

Three feature sets are supported:

* feature-set 2: the 1- to ``MAX_NGRAM``-gram (10) character strings at
  the end of the sentence (Unicode scalar values, punctuation included);
* feature-set 3: the bag of tokens (the corpus's pre-supplied morphemes when
  the example carries them, otherwise a whitespace split);
* feature-set 1: the union of the two.

Features are plain ``(kind, text)`` tuples, ordered by kind, then text, as
in a training :class:`Vocabulary`; those read from model files are checked
in :meth:`Vocabulary.from_list`, those built here are valid by construction.
A vocabulary maps features to dense contiguous ids and never changes
afterwards. :func:`encode` alone states the training-vocabulary rule and
extracts each training example once; :func:`extract` encodes a prediction
input, dropping features the vocabulary does not know. Vectors are binary
(presence only), so the inner product of two vectors is the size of their
id-set intersection.
"""

from __future__ import annotations

from collections import Counter
from enum import IntEnum
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from .corpus import is_positive_int

SUFFIX = "suffix"
TOKEN = "token"

MAX_NGRAM = 10  # longest sentence-final character n-gram


class FeatureSet(IntEnum):
    FS1 = 1  # suffix n-grams plus tokens
    FS2 = 2  # suffix n-grams only
    FS3 = 3  # tokens only


# the feature kinds each feature set extracts
KINDS = {FeatureSet.FS1: (SUFFIX, TOKEN), FeatureSet.FS2: (SUFFIX,),
         FeatureSet.FS3: (TOKEN,)}


def read_mode(value) -> FeatureSet:
    """The feature set a model file names. Raises ValueError unless
    ``value`` is the integer 1, 2 or 3."""
    if not (is_positive_int(value) and value in KINDS):
        raise ValueError(f"mode {value!r} is not the integer 1, 2 or 3")
    return FeatureSet(value)


class Feature(NamedTuple):
    """A namespaced feature atom; suffix and token kinds never collide."""

    kind: str
    text: str


def tokenize(sentence: str) -> list[str]:
    """Tokens of an example without pre-supplied ones: split on Unicode
    whitespace, dropping empties."""
    return sentence.split()


def suffix_ngrams(sentence: str) -> set[Feature]:
    """All sentence-final character n-grams with 1 <= n <= min(MAX_NGRAM, length)."""
    return {
        Feature(SUFFIX, sentence[-n:])
        for n in range(1, min(MAX_NGRAM, len(sentence)) + 1)
    }


def example_features(example, mode: FeatureSet) -> set[Feature]:
    """The raw (un-interned) feature set of one example under a feature set."""
    kinds = KINDS[FeatureSet(mode)]
    feats: set[Feature] = set()
    if SUFFIX in kinds:
        feats |= suffix_ngrams(example.sentence)
    if TOKEN in kinds:
        if example.tokens is not None:
            tokens = example.tokens
        else:
            tokens = tokenize(example.sentence)
        feats |= {Feature(TOKEN, tok) for tok in tokens}
    return feats


def feature_label_counts(labelled) -> dict:
    """Per feature or feature id, its label counts over ``(features, label)`` pairs."""
    table: dict = {}
    for feats, label in labelled:
        for feat in feats:
            table.setdefault(feat, Counter())[label] += 1
    return table


class Vocabulary:
    """Bijective feature <-> dense id map; ids are contiguous from 0.

    The ids follow the order of ``features``, repeats dropped. The vocabulary
    never changes after construction, so it is freely shareable.
    """

    def __init__(self, features=()):
        self._features: list[Feature] = list(dict.fromkeys(features))
        self._ids = {feat: fid for fid, feat in enumerate(self._features)}

    @classmethod
    def from_dataset(cls, dataset, mode: FeatureSet) -> "Vocabulary":
        """The training vocabulary of ``dataset``, as :func:`encode` builds it."""
        return encode(dataset, mode)[0]

    def __len__(self):
        return len(self._features)

    def __iter__(self):
        return iter(self._features)

    def lookup(self, feature: Feature) -> int | None:
        return self._ids.get(feature)

    def feature(self, fid: int) -> Feature:
        return self._features[fid]

    def to_list(self) -> list[list[str]]:
        return [[f.kind, f.text] for f in self._features]

    @classmethod
    def from_list(cls, items, mode: FeatureSet = FeatureSet.FS1) -> "Vocabulary":
        """Inverse of :meth:`to_list` for a model of feature set ``mode``.
        Model files are the one source of features from outside the
        program, so each entry is checked here: it must be of a kind that
        ``mode`` extracts (feature set 1, the default, extracts both)."""
        kinds = KINDS[mode]
        for item in items:
            if not (isinstance(item, (list, tuple)) and len(item) == 2
                    and item[0] in kinds
                    and isinstance(item[1], str) and item[1]):
                raise ValueError(f"vocabulary entry {item!r} is not a [kind, text] "
                                 f"pair of kind {' or '.join(kinds)} (feature set "
                                 f"{int(mode)}) and non-empty text")
        vocab = cls(Feature(*item) for item in items)
        if len(vocab) != len(items):  # ids are list positions: a repeat shifts them
            raise ValueError("vocabulary entries repeat")
        return vocab


class FeatureVector:
    """Sorted, duplicate-free set of feature ids (binary-valued)."""

    __slots__ = ("ids",)

    def __init__(self, ids=()):
        self.ids: tuple[int, ...] = tuple(sorted(set(ids)))

    def dot(self, other: "FeatureVector") -> int:
        """Inner product of two binary vectors: |intersection of id sets|."""
        return len(set(self.ids).intersection(other.ids))

    def __len__(self):
        return len(self.ids)

    def __eq__(self, other):
        return isinstance(other, FeatureVector) and self.ids == other.ids

    def __hash__(self):
        return hash(self.ids)

    def __repr__(self):
        return f"FeatureVector({list(self.ids)})"


def encode(dataset, mode: FeatureSet) -> tuple[Vocabulary, list[FeatureVector]]:
    """The training vocabulary of ``dataset``, every feature in it sorted (so
    example order does not matter), and each example's vector against it."""
    feats = [example_features(ex, mode) for ex in dataset]
    vocab = Vocabulary(sorted(set().union(*feats)))
    return vocab, [FeatureVector(map(vocab.lookup, f)) for f in feats]


def extract(example, mode: FeatureSet, vocab: Vocabulary) -> FeatureVector:
    """Feature vector of an example against a vocabulary; features the
    vocabulary does not know are silently dropped."""
    feats = example_features(example, mode)
    return FeatureVector(fid for f in feats if (fid := vocab.lookup(f)) is not None)


def to_csr(vectors, n_cols: int) -> csr_matrix:
    """Stack binary feature vectors into a scipy CSR matrix (float64 data)."""
    indptr = [0]
    indices: list[int] = []
    for vec in vectors:
        indices.extend(vec.ids)
        indptr.append(len(indices))
    data = np.ones(len(indices), dtype=np.float64)
    return csr_matrix(
        (data, np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, n_cols),
    )
