"""Sparse binary feature extraction, and the one training encoder.

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
afterwards. Vectors are binary (presence only), so the inner product of two
vectors is the size of their id-set intersection.

A :class:`CorpusEncoding` extracts every example of a corpus once, against
one sorted vocabulary; as every ``suffix`` feature sorts before every
``token`` feature, feature sets 2 and 3 are column ranges of feature set 1.
A training set is an :class:`EncodedDataset` slice of it: its vocabulary is
the columns its examples use, in order, so it is exactly what
:func:`encode`, the one training encoder, gives for those examples alone.
Held-out rows of the same corpus carry their vectors against a slice's
vocabulary (:meth:`EncodedDataset.held_out`), as :func:`extract`, which
drops features the vocabulary does not know, gives them for any input.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from enum import IntEnum
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from .corpus import Dataset, is_positive_int

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
        return encode(dataset, mode).vocab

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


class CorpusEncoding:
    """Every example of a corpus extracted once under ``mode`` (feature set
    1, which also serves 2 and 3, by default), against one sorted
    vocabulary of all their features: ``vectors[r]`` is example ``r``'s.
    The suffix features are ids ``[0, n_suffix)``, the token features the
    rest. ``dataset()`` is the corpus as an :class:`EncodedDataset`."""

    def __init__(self, examples, mode: FeatureSet = FeatureSet.FS1):
        self.examples = tuple(examples)
        self.mode = FeatureSet(mode)
        feats = [example_features(ex, self.mode) for ex in self.examples]
        features = sorted(set().union(*feats))
        self.n_suffix = bisect_left(features, Feature(TOKEN, ""))
        self.vocab = Vocabulary(features)
        self.vectors = [FeatureVector(map(self.vocab.lookup, f)) for f in feats]

    def columns(self, mode: FeatureSet) -> range:
        """The ids of the features that feature set ``mode`` extracts.
        Raises ValueError unless this encoding's feature set covers it."""
        kinds = KINDS[FeatureSet(mode)]
        if not set(kinds) <= set(KINDS[self.mode]):
            raise ValueError(f"a feature-set {int(self.mode)} encoding does not "
                             f"cover feature set {int(mode)}")
        return range(0 if SUFFIX in kinds else self.n_suffix,
                     len(self.vocab) if TOKEN in kinds else self.n_suffix)

    def dataset(self, mode: FeatureSet | None = None) -> "EncodedDataset":
        """Every example, encoded under ``mode`` (by default this encoding's
        feature set)."""
        return EncodedDataset(self, range(len(self.examples)),
                              self.mode if mode is None else mode)


class EncodedDataset(Dataset):
    """A dataset that carries its training encoding under ``mode``, read off
    the rows ``rows`` of a :class:`CorpusEncoding`: ``vocab`` is every
    feature of its examples, sorted, and ``vectors`` each example's vector
    against it, as :func:`encode` defines them.

    Its subsets are slices of the same corpus encoding, and each is built
    once, as are the held-out rows of a slice: asking for the same ones
    again returns the same object, so the learners that train on one fold
    share its slice and its test rows."""

    def __init__(self, corpus: CorpusEncoding, rows, mode: FeatureSet):
        self.corpus = corpus
        self.rows = tuple(rows)
        self.mode = FeatureSet(mode)
        super().__init__(corpus.examples[r] for r in self.rows)
        cols = corpus.columns(self.mode)
        vectors = [corpus.vectors[r] for r in self.rows]
        self._subsets: dict[tuple, EncodedDataset] = {}
        self._batches: dict[tuple, EncodedBatch] = {}
        whole = self.rows == tuple(range(len(corpus.examples)))
        if whole and len(cols) == len(corpus.vocab):
            # the whole corpus: its ids need no remap
            self._rank = None
            self.vocab = corpus.vocab
            self.vectors = vectors
            return
        used = sorted(c for c in set().union(*(v.ids for v in vectors)) if c in cols)
        # a corpus id's rank among the used ones is its id here
        self._rank = {c: r for r, c in enumerate(used)}
        self.vocab = Vocabulary(map(corpus.vocab.feature, used))
        self.vectors = [self._localize(v) for v in vectors]

    def _localize(self, vector: FeatureVector) -> FeatureVector:
        """A corpus vector against this vocabulary, unknown features dropped."""
        if self._rank is None:
            return vector
        rank = self._rank
        return FeatureVector(rank[c] for c in vector.ids if c in rank)

    def subset(self, indices) -> "EncodedDataset":
        key = tuple(indices)
        if key == tuple(range(len(self))):
            return self
        sub = self._subsets.get(key)
        if sub is None:
            sub = self._subsets[key] = EncodedDataset(
                self.corpus, [self.rows[i] for i in key], self.mode)
        return sub

    def held_out(self, indices, train: "EncodedDataset"):
        """The examples ``self[i]`` for ``i`` in ``indices``, carrying their
        vectors against the vocabulary of ``train``, a training set read
        off the same corpus encoding under the same feature set: each is
        ``extract(self[i], mode, train.vocab)``."""
        if train.corpus is not self.corpus or train.mode != self.mode:
            raise ValueError("held-out examples and their training set must be "
                             "read off one corpus encoding under one feature set")
        rows = tuple(self.rows[i] for i in indices)
        batch = train._batches.get(rows)
        if batch is None:
            batch = train._batches[rows] = EncodedBatch(
                (self.corpus.examples[r] for r in rows), self.mode, train.vocab,
                [train._localize(self.corpus.vectors[r]) for r in rows])
        return batch

    def label_counts_by_feature(self) -> list[Counter]:
        """Per feature id, the label counts of the examples that have the
        feature."""
        table = [Counter() for _ in range(len(self.vocab))]
        for vector, example in zip(self.vectors, self):
            for fid in vector.ids:
                table[fid][example.label] += 1
        return table


class EncodedBatch(tuple):
    """Examples to predict, carrying their vectors under ``mode`` against a
    trained vocabulary ``vocab``: ``vectors[i]`` is
    ``extract(self[i], mode, vocab)``."""

    def __new__(cls, examples, mode: FeatureSet, vocab: Vocabulary, vectors):
        batch = super().__new__(cls, examples)
        batch.mode, batch.vocab, batch.vectors = mode, vocab, vectors
        return batch


def encode(dataset, mode: FeatureSet) -> EncodedDataset:
    """``dataset`` with its training encoding under ``mode``: the vocabulary
    of every feature of its examples, sorted (so example order does not
    matter), and each example's vector against it. An EncodedDataset of
    ``mode`` is returned as it is; any other dataset is extracted once, as
    the whole of its own corpus encoding."""
    if isinstance(dataset, EncodedDataset) and dataset.mode == FeatureSet(mode):
        return dataset
    return CorpusEncoding(dataset, mode).dataset()


def extract(example, mode: FeatureSet, vocab: Vocabulary) -> FeatureVector:
    """Feature vector of an example against a vocabulary; features the
    vocabulary does not know are silently dropped."""
    feats = example_features(example, mode)
    return FeatureVector(fid for f in feats if (fid := vocab.lookup(f)) is not None)


def vectors_against(examples, mode: FeatureSet, vocab: Vocabulary) -> list[FeatureVector]:
    """``extract(ex, mode, vocab)`` for each example: read off ``examples``
    when it carries them (an EncodedBatch of ``mode`` against ``vocab``
    itself), else extracted."""
    if (isinstance(examples, EncodedBatch) and examples.mode == mode
            and examples.vocab is vocab):
        return examples.vectors
    return [extract(ex, mode, vocab) for ex in examples]


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
