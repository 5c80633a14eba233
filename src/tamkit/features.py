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

Rows of vectors are held as a :class:`BinaryCSR`: compressed sparse rows
with row pointers ``indptr`` and each row's column ids ``indices``,
strictly increasing, and no data array, as every value is 1. All the
sparse algebra the learners need is on it. Intersection counts (``X @
Y``: the SVM kernel's x.y) and the label counts of each feature are
integer products, exact in any order. Maxent's float products are row
sums (``X @ W``, its scores) and column sums (``X.T @ P``, its expected
counts), and their summation order is a rule: each output starts at 0.0
and adds its terms one after another, a row's in increasing column order
and a column's in increasing row order. Maxent weights and scores are
bit-identical only under that rule; numpy's pairwise summation, which it
applies to a contiguous run of eight or more terms, would round
otherwise.

A :class:`CorpusEncoding` extracts every example of a corpus once, into
one binary CSR matrix over one sorted vocabulary; as every ``suffix``
feature sorts before every ``token`` feature, feature sets 2 and 3 are
column ranges of feature set 1. A training set is an
:class:`EncodedDataset` slice of it, built by a row gather and a monotone
column remap: its vocabulary is the columns its examples use, in order,
so it is exactly what :func:`encode`, the one training encoder, gives for
those examples alone. Held-out rows of the same corpus are the same
gather and remap against a slice's columns
(:meth:`EncodedDataset.held_out`), as :func:`extract`, which drops features
the vocabulary does not know, gives them for any input. Slices and
held-out rows are built where they are used, not memoised.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

import numpy as np

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
    never changes after construction, so it is freely shareable. The
    feature -> id map is built on the first :meth:`lookup`: a training
    slice's vocabulary is read by id only, unless a model extracts against
    it or is loaded from a file.
    """

    def __init__(self, features=()):
        self._features: list[Feature] = list(dict.fromkeys(features))
        self._ids: dict[Feature, int] | None = None

    @classmethod
    def from_dataset(cls, dataset, mode: FeatureSet) -> "Vocabulary":
        """The training vocabulary of ``dataset``, as :func:`encode` builds it."""
        return encode(dataset, mode).vocab

    def __len__(self):
        return len(self._features)

    def __iter__(self):
        return iter(self._features)

    def lookup(self, feature: Feature) -> int | None:
        if self._ids is None:
            self._ids = {feat: fid for fid, feat in enumerate(self._features)}
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


class BinaryCSR:
    """A 0/1 matrix in compressed sparse rows with no data array, as every
    stored value is 1: row ``r`` holds the columns
    ``indices[indptr[r]:indptr[r + 1]]``, strictly increasing.

    Three products serve the learners. ``X @ Y`` of two binary matrices is
    an integer matrix of intersection counts (the kernel values x.y), exact
    in any order; so are row and column sums of integer matrices, such as
    ``column_sums`` of one-hot labels. ``row_sums(W)`` (``X @ W``) and
    ``column_sums(P)`` (``X.T @ P``) of floats add in one fixed order:
    every output starts at 0.0 and adds its terms one after another, a
    row's in increasing column order and a column's in increasing row order,
    which keeps maxent weights bit-identical to a sequential loop in that
    order. The matrix is not changed after construction, so slices may
    share its arrays."""

    def __init__(self, indptr, indices, shape):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._column_keys: dict[int, np.ndarray] = {}  # by the width of P

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def row_ids(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), self.row_lengths())

    def take(self, rows) -> "BinaryCSR":
        """The rows ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        flat = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        return BinaryCSR(indptr, self.indices[flat], (len(rows), self.shape[1]))

    def block(self, start: int, stop: int) -> "BinaryCSR":
        """The rows ``[start, stop)``, sharing this matrix's indices."""
        stop = min(stop, self.shape[0])
        a, b = self.indptr[start], self.indptr[stop]
        return BinaryCSR(self.indptr[start:stop + 1] - a, self.indices[a:b],
                         (stop - start, self.shape[1]))

    def select(self, cols) -> "BinaryCSR":
        """The columns ``cols`` (increasing), renumbered by their position
        in ``cols``; entries in other columns are dropped. The renumbering
        keeps their order, so each row's columns stay sorted."""
        cols = np.asarray(cols, dtype=np.int64)
        position = np.full(self.shape[1], -1, dtype=np.int64)
        position[cols] = np.arange(len(cols))
        mapped = position[self.indices]
        keep = mapped >= 0
        kept = np.zeros(self.nnz + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        return BinaryCSR(kept[self.indptr], mapped[keep], (self.shape[0], len(cols)))

    @property
    def T(self) -> "BinaryCSR":
        """The transpose: row ``c`` lists the rows that have column ``c``."""
        indptr = np.zeros(self.shape[1] + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=self.shape[1]), out=indptr[1:])
        order = np.argsort(self.indices, kind="stable")
        return BinaryCSR(indptr, self.row_ids[order], self.shape[::-1])

    def __matmul__(self, other: "BinaryCSR") -> np.ndarray:
        """The integer product with the binary matrix ``other``: entry
        ``(i, j)`` counts the ``k`` with ``self[i, k] = other[k, j] = 1``,
        from every stored entry of ``other``'s rows that ``self``'s entries
        name."""
        n, m = self.shape[0], other.shape[1]
        starts = other.indptr[self.indices]
        lengths = other.indptr[self.indices + 1] - starts
        ends = np.cumsum(lengths)
        flat = np.arange(ends[-1] if self.nnz else 0)
        flat += np.repeat(starts - ends + lengths, lengths)
        keys = other.indices[flat]
        keys += np.repeat(self.row_ids * m, lengths)
        return np.bincount(keys, minlength=n * m).reshape(n, m)

    def toarray(self) -> np.ndarray:
        """The dense float64 matrix."""
        dense = np.zeros(self.shape)
        dense[self.row_ids, self.indices] = 1.0
        return dense

    def row_sums(self, W: np.ndarray) -> np.ndarray:
        """``X @ W[:-1]``: row ``r`` is the sum of the rows of ``W`` at its
        columns, in increasing column order. ``W`` has one row per column
        and one more, all zeros, that padding reads."""
        # (width, rows, W's columns): each row's k-th term at k
        terms = np.take(W, self._padded_columns, axis=0)
        if terms.shape[1:] == (1, 1):
            # numpy would sum a lone output's terms pairwise
            total = 0.0
            for term in terms.ravel().tolist():
                total += term
            return np.array([[total]])
        # a sum over the leading axis adds its terms one after another
        return terms.sum(axis=0, initial=0.0)

    @cached_property
    def _padded_columns(self) -> np.ndarray:
        """``(width, rows)``: entry ``(k, r)`` is row ``r``'s k-th column,
        or ``shape[1]`` past its end."""
        lengths = self.row_lengths()
        pad = np.full((lengths.max(initial=0), self.shape[0]), self.shape[1],
                      dtype=np.int64)
        pad[np.arange(self.nnz) - np.repeat(self.indptr[:-1], lengths),
            self.row_ids] = self.indices
        return pad

    def column_sums(self, P: np.ndarray) -> np.ndarray:
        """``X.T @ P``: row ``c`` is the sum of the rows of ``P`` that have
        column ``c``, in increasing row order, from one ``bincount`` that
        adds its weights in input order."""
        k = P.shape[1]
        keys = self._column_keys.get(k)
        if keys is None:
            keys = (self.indices[:, None] * k + np.arange(k)).ravel()
            self._column_keys[k] = keys
        weights = P.take(self.row_ids, axis=0).ravel()
        return np.bincount(keys, weights, minlength=self.shape[1] * k).reshape(-1, k)


class CorpusEncoding:
    """Every example of a corpus extracted once under ``mode`` (feature set
    1, which also serves 2 and 3, by default), against one sorted
    vocabulary of all their features: row ``r`` of the binary matrix ``X``
    is example ``r``'s vector. The suffix features are ids ``[0,
    n_suffix)``, the token features the rest. ``dataset()`` is the corpus
    as an :class:`EncodedDataset`."""

    def __init__(self, examples, mode: FeatureSet = FeatureSet.FS1):
        self.examples = tuple(examples)
        self.mode = FeatureSet(mode)
        feats = [example_features(ex, self.mode) for ex in self.examples]
        features = sorted(set().union(*feats))
        self.n_suffix = bisect_left(features, Feature(TOKEN, ""))
        self.vocab = Vocabulary(features)
        self.X = to_csr([FeatureVector(map(self.vocab.lookup, f)) for f in feats],
                        len(features))

    def columns(self, mode: FeatureSet) -> range:
        """The ids of the features that feature set ``mode`` extracts.
        Raises ValueError unless this encoding's feature set covers it."""
        kinds = KINDS[FeatureSet(mode)]
        if not set(kinds) <= set(KINDS[self.mode]):
            raise ValueError(f"a feature-set {int(self.mode)} encoding does not "
                             f"cover feature set {int(mode)}")
        return range(0 if SUFFIX in kinds else self.n_suffix,
                     len(self.vocab) if TOKEN in kinds else self.n_suffix)

    def rows(self, rows, mode: FeatureSet) -> "BinaryCSR":
        """The rows ``rows`` of ``X`` in the columns ``columns(mode)``."""
        return self.X.take(rows).select(self.columns(mode))

    def dataset(self, mode: FeatureSet | None = None) -> "EncodedDataset":
        """Every example, encoded under ``mode`` (by default this encoding's
        feature set)."""
        return EncodedDataset(self, range(len(self.examples)),
                              self.mode if mode is None else mode)


class EncodedDataset(Dataset):
    """A dataset that carries its training encoding under ``mode``, indexed
    out of the rows ``rows`` of a :class:`CorpusEncoding`: ``used`` are the
    columns of ``corpus.rows(rows, mode)`` its examples use, in order,
    ``vocab`` their features and ``X`` its rows against them, as
    :func:`encode` defines them. Subsets and held-out rows are not memoised."""

    def __init__(self, corpus: CorpusEncoding, rows, mode: FeatureSet):
        self.corpus = corpus
        self.rows = np.asarray(rows, dtype=np.intp)
        self.mode = FeatureSet(mode)
        super().__init__(map(corpus.examples.__getitem__, self.rows.tolist()))
        X = corpus.rows(self.rows, self.mode)
        # the columns in use, by a count: a plain np.unique imports numpy.ma
        self.used = np.flatnonzero(np.bincount(X.indices, minlength=X.shape[1]))
        start = corpus.columns(self.mode).start
        self.vocab = Vocabulary(map(corpus.vocab.feature, (self.used + start).tolist()))
        self.X = X.select(self.used)

    def subset(self, indices) -> "EncodedDataset":
        indices = np.asarray(indices, dtype=np.intp)
        if np.array_equal(indices, np.arange(len(self))):
            return self
        return EncodedDataset(self.corpus, self.rows[indices], self.mode)

    def held_out(self, indices, train: "EncodedDataset") -> "EncodedBatch":
        """The examples ``self[i]`` for ``i`` in ``indices``, carrying their
        rows against the vocabulary of ``train``, a training set read off
        the same corpus encoding under the same feature set: row ``r`` is
        ``extract(self[i], mode, train.vocab)``."""
        if train.corpus is not self.corpus or train.mode != self.mode:
            raise ValueError("held-out examples and their training set must be "
                             "read off one corpus encoding under one feature set")
        rows = self.rows[np.asarray(indices, dtype=np.intp)]
        return EncodedBatch(map(self.corpus.examples.__getitem__, rows.tolist()),
                            self.mode, train.vocab,
                            self.corpus.rows(rows, self.mode).select(train.used))

    def label_counts_by_feature(self) -> list[dict[str, int]]:
        """Per feature id, the label counts of the examples that have the
        feature, from one integer count of (feature, label) keys."""
        labels = self.labels
        index = {lab: j for j, lab in enumerate(labels)}
        y = np.array([index[ex.label] for ex in self], dtype=np.int64)
        counts = np.bincount(self.X.indices * len(labels) + y[self.X.row_ids],
                             minlength=len(self.vocab) * len(labels))
        keys = np.flatnonzero(counts)
        feats, labs = np.divmod(keys, len(labels))
        ends = np.searchsorted(feats, np.arange(len(self.vocab) + 1)).tolist()
        pairs = list(zip(map(labels.__getitem__, labs.tolist()), counts[keys].tolist()))
        return [dict(pairs[a:b]) for a, b in zip(ends, ends[1:])]


class EncodedBatch(tuple):
    """Examples to predict, carrying their rows under ``mode`` against a
    trained vocabulary ``vocab``: row ``i`` of the binary matrix ``X`` is
    ``extract(self[i], mode, vocab)``."""

    def __new__(cls, examples, mode: FeatureSet, vocab: Vocabulary, X):
        batch = super().__new__(cls, examples)
        batch.mode, batch.vocab, batch.X = mode, vocab, X
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


def rows_against(examples, mode: FeatureSet, vocab: Vocabulary) -> "BinaryCSR":
    """The matrix whose row ``i`` is ``extract(examples[i], mode,
    vocab)``: read off ``examples`` when it carries them (an EncodedBatch
    of ``mode`` against ``vocab`` itself), else extracted."""
    if (isinstance(examples, EncodedBatch) and examples.mode == mode
            and examples.vocab is vocab):
        return examples.X
    return to_csr([extract(ex, mode, vocab) for ex in examples], len(vocab))


def to_csr(vectors, n_cols: int) -> BinaryCSR:
    """Stack binary feature vectors into one BinaryCSR."""
    indptr = [0]
    indices: list[int] = []
    for vec in vectors:
        indices.extend(vec.ids)
        indptr.append(len(indices))
    return BinaryCSR(indptr, indices, (len(indptr) - 1, n_cols))
