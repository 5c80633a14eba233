import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from collections import Counter

from synth import modality_corpus
from tamkit import features, knn
from tamkit.cli import main
from tamkit.corpus import Dataset, Example, serialize_corpus
from tamkit.declist import train_declist
from tamkit.features import (
    SUFFIX,
    TOKEN,
    BinaryCSR,
    CorpusEncoding,
    Feature,
    FeatureSet,
    FeatureVector,
    Vocabulary,
    encode,
    example_features,
    extract,
    suffix_ngrams,
    to_csr,
    tokenize,
)
from tamkit.maxent import train_maxent
from tamkit.svm import train_pairwise

# examples with and without pre-supplied tokens, empty sentences included
EXAMPLES = st.builds(Example, st.sampled_from(["x", "y"]),
                     st.text(alphabet="ab c\u3042", max_size=12),
                     st.none() | st.lists(st.text(alphabet="ab\u3042", min_size=1,
                                                  max_size=3),
                                          max_size=3).map(tuple))

# corpora of one to ten such examples, some of them repeated
CORPORA = st.lists(EXAMPLES, min_size=1, max_size=10).flatmap(
    lambda examples: st.lists(st.sampled_from(examples), max_size=4).flatmap(
        lambda repeats: st.permutations(examples + repeats)))


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("today I run") == ["today", "I", "run"]

    def test_empty(self):
        assert tokenize("") == []

    def test_pretokenized_passthrough(self):
        ex = Example("c", "走れる", ("走れ", "る"))
        feats = example_features(ex, FeatureSet.FS3)
        assert feats == {Feature(TOKEN, "走れ"), Feature(TOKEN, "る")}


class TestSuffixNgrams:
    def test_shinai(self):
        feats = suffix_ngrams("しない")
        assert feats == {Feature(SUFFIX, "い"), Feature(SUFFIX, "ない"),
                         Feature(SUFFIX, "しない")}

    def test_twelve_chars_gives_ten(self):
        feats = suffix_ngrams("abcdefghijkl")
        assert len(feats) == 10
        assert feats == {Feature(SUFFIX, "abcdefghijkl"[-n:]) for n in range(1, 11)}

    def test_empty_sentence(self):
        assert suffix_ngrams("") == set()

    def test_count_is_min_ten_length(self):
        rng = random.Random(3)
        alphabet = "あいうえおabc"
        for _ in range(100):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
            assert len(suffix_ngrams(s)) == min(10, len(s))


class TestVocabulary:
    def test_contiguous_bijective(self):
        vocab = Vocabulary([Feature(SUFFIX, "x"), Feature(TOKEN, "x"),
                            Feature(SUFFIX, "x")])
        assert vocab.lookup(Feature(SUFFIX, "x")) == 0
        assert vocab.lookup(Feature(TOKEN, "x")) == 1
        assert vocab.feature(0) == Feature(SUFFIX, "x")
        assert vocab.feature(1) == Feature(TOKEN, "x")
        assert len(vocab) == 2
        assert vocab.lookup(Feature(TOKEN, "y")) is None

    def test_suffix_token_never_collide(self):
        vocab = Vocabulary([Feature(SUFFIX, "abc"), Feature(TOKEN, "abc")])
        assert len(vocab) == 2
        assert vocab.lookup(Feature(SUFFIX, "abc")) != vocab.lookup(Feature(TOKEN, "abc"))

    def test_serialization_round_trip(self):
        vocab = Vocabulary([Feature(SUFFIX, "a"), Feature(TOKEN, "a")])
        again = Vocabulary.from_list(vocab.to_list())
        assert list(again) == list(vocab)
        assert [again.lookup(f) for f in vocab] == [0, 1]

    @pytest.mark.parametrize("entry", [
        ["bogus", "x"], ["Suffix", "x"], [None, "x"],  # unknown kind
        ["suffix", ""], ["token", 3], ["token", None], ["token", ["a"]],  # text
        ["token"], ["token", "a", "b"], "ab", None, 5,  # not a pair
    ])
    def test_from_list_rejects_malformed_entry(self, entry):
        with pytest.raises(ValueError):
            Vocabulary.from_list([["suffix", "a"], entry])

    def test_from_list_rejects_repeated_entry(self):
        # ids are list positions: a repeat would shift every later id
        with pytest.raises(ValueError):
            Vocabulary.from_list([["suffix", "a"], ["token", "b"], ["suffix", "a"]])

    def test_feature_map_is_built_on_first_lookup(self):
        # a training slice is read by id: slicing it builds no feature -> id
        # map, and a lookup builds the one the ids give
        whole = CorpusEncoding(modality_corpus(20, seed=1)).dataset(FeatureSet.FS1)
        vocab = whole.subset(range(0, 20, 2)).vocab
        assert vocab._ids is None
        assert [vocab.lookup(feat) for feat in vocab] == list(range(len(vocab)))
        assert vocab.lookup(Feature(TOKEN, "unseen")) is None
        # a model file's repeated entry is still found without a lookup
        with pytest.raises(ValueError, match="repeat"):
            Vocabulary.from_list(vocab.to_list() + vocab.to_list()[:1])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.builds(Example, st.just("x"),
                              st.text(alphabet="ab c\u3042", max_size=12),
                              st.none() | st.lists(st.text(alphabet="ab\u3042",
                                                           min_size=1, max_size=3),
                                                   max_size=3).map(tuple)),
                    max_size=8),
           st.sampled_from(tuple(FeatureSet)))
    def test_dataset_order_is_kind_then_text(self, examples, mode):
        vocab = Vocabulary.from_dataset(Dataset(examples), mode)
        assert list(vocab) == sorted(vocab, key=lambda f: (f.kind, f.text))


class TestExtract:
    def test_fs1_is_union_of_fs2_fs3(self):
        ex = Example("x", "今日 走る", ("今日", "走る"))
        vocab = Vocabulary(example_features(ex, FeatureSet.FS1))
        fv1 = extract(ex, FeatureSet.FS1, vocab)
        fv2 = extract(ex, FeatureSet.FS2, vocab)
        fv3 = extract(ex, FeatureSet.FS3, vocab)
        assert len(fv1) == len(vocab)
        assert set(fv1.ids) == set(fv2.ids) | set(fv3.ids)

    def test_empty_sentence_empty_vector(self):
        ex = Example("x", "", ())
        vocab = Vocabulary([Feature(SUFFIX, "a"), Feature(TOKEN, "a")])
        for mode in FeatureSet:
            assert len(extract(ex, mode, vocab)) == 0

    def test_frozen_never_grows_vocab(self):
        train = Example("x", "abc def", None)
        vocab = Vocabulary(example_features(train, FeatureSet.FS1))
        before = len(vocab)
        held_out = Example("y", "totally unseen words", None)
        fv = extract(held_out, FeatureSet.FS1, vocab)
        assert len(vocab) == before
        assert len(fv) == 0
        shared = Example("y", "xyz def", None)  # shares the token and suffixes
        assert extract(shared, FeatureSet.FS1, vocab).ids == tuple(sorted(
            vocab.lookup(f) for f in (Feature(TOKEN, "def"), Feature(SUFFIX, "f"),
                                      Feature(SUFFIX, "ef"), Feature(SUFFIX, "def"),
                                      Feature(SUFFIX, " def"))))
        assert len(vocab) == before

    def test_identical_text_distinct_kinds(self):
        # token text equal to a suffix string must stay a distinct feature
        ex = Example("x", "ab", ("ab",))
        vocab = Vocabulary.from_dataset([ex], FeatureSet.FS1)
        fv = extract(ex, FeatureSet.FS1, vocab)
        assert len(vocab) == len(fv) == 3  # suffixes "b", "ab" plus token "ab"

    def test_canonical_vocab_ignores_order(self):
        a = Dataset([Example("x", "abc"), Example("y", "xyz")])
        b = Dataset([Example("y", "xyz"), Example("x", "abc")])
        va = Vocabulary.from_dataset(a, FeatureSet.FS2)
        vb = Vocabulary.from_dataset(b, FeatureSet.FS2)
        assert list(va) == list(vb)


class TestEncode:
    @settings(max_examples=120, deadline=None)
    @given(st.data(), st.lists(EXAMPLES, max_size=8),
           st.sampled_from(tuple(FeatureSet)))
    def test_sorted_union_and_extract_vectors(self, data, examples, mode):
        # repeated examples, then the same dataset in another order
        repeats = (st.lists(st.sampled_from(examples), max_size=3)
                   if examples else st.just([]))
        examples = examples + data.draw(repeats)
        permuted = data.draw(st.permutations(examples))
        encoded = encode(Dataset(examples), mode)
        vocab = encoded.vocab
        assert list(vocab) == sorted(set().union(
            *(example_features(ex, mode) for ex in examples)))
        assert rows(encoded.X) == [extract(ex, mode, vocab) for ex in examples]
        assert list(encode(Dataset(permuted), mode).vocab) == list(vocab)
        assert list(Vocabulary.from_dataset(Dataset(examples), mode)) == list(vocab)

    @pytest.mark.parametrize("train", [train_declist, train_maxent,
                                       train_pairwise],
                             ids=["dlist", "maxent", "svm"])
    @pytest.mark.parametrize("mode", list(FeatureSet))
    def test_trainers_extract_each_example_once(self, monkeypatch, train, mode):
        ds = modality_corpus(40, seed=2)
        assert len(distinct_keys(ds)) < len(ds)  # the corpus repeats examples
        calls = []

        def counted(example, mode):
            calls.append(example)
            return original(example, mode)

        original = features.example_features
        monkeypatch.setattr(features, "example_features", counted)
        train(ds, mode)
        assert distinct_keys(calls) == distinct_keys(ds)
        assert len(calls) == len(distinct_keys(ds))

    def test_cv_all_extracts_each_example_once(self, monkeypatch, tmp_path):
        # every fold and grid cell trains on slices of one encoding and
        # predicts from its rows; k-NN reads its suffixes off it too
        ds = modality_corpus(40, seed=2)
        assert len(distinct_keys(ds)) < len(ds)
        corpus = tmp_path / "c.tsv"
        corpus.write_text(serialize_corpus(ds), encoding="utf-8")
        calls, knn_suffixes = [], []

        def counted(example, mode):
            calls.append(example)
            return original(example, mode)

        original = features.example_features
        monkeypatch.setattr(features, "example_features", counted)
        monkeypatch.setattr(knn, "suffix_ngrams",
                            lambda sentence: knn_suffixes.append(sentence))
        assert main(["cv", "--all", "-i", str(corpus), "--folds", "3",
                     "--seed", "0", "-o", str(tmp_path / "grid.txt")]) == 0
        assert distinct_keys(calls) == distinct_keys(ds)
        assert len(calls) == len(distinct_keys(ds))
        assert knn_suffixes == []


def distinct_keys(examples) -> list[tuple]:
    """The distinct ``(sentence, tokens)`` of ``examples``, in order of
    first occurrence: all that an example's features depend on."""
    return list(dict.fromkeys((ex.sentence, ex.tokens) for ex in examples))


def rows(X) -> list[FeatureVector]:
    """The rows of a binary matrix as feature vectors, after checking that
    each row's ids strictly increase within its columns: maxent's score
    sums a row's weights in id order, and every kernel value is an
    intersection count."""
    assert isinstance(X, BinaryCSR)
    ids, ends = X.indices.tolist(), X.indptr.tolist()
    assert ends[0] == 0 and ends[-1] == X.nnz and len(ends) == X.shape[0] + 1
    row_ids = [ids[a:b] for a, b in zip(ends, ends[1:])]
    for row in row_ids:
        assert all(a < b for a, b in zip(row, row[1:]))
        assert all(0 <= i < X.shape[1] for i in row)
    return [FeatureVector(row) for row in row_ids]


class TestCorpusEncoding:
    @settings(max_examples=200, deadline=None)
    @given(CORPORA, st.sampled_from(tuple(FeatureSet)), st.data())
    def test_slices_equal_encoding_their_examples(self, examples, mode, data):
        ds = Dataset(examples)
        indices = st.lists(st.integers(0, len(ds) - 1), max_size=len(ds) + 2)
        whole = CorpusEncoding(ds).dataset(mode)
        train_idx = data.draw(indices)
        train = whole.subset(train_idx)
        expected = encode(ds.subset(train_idx), mode)
        assert list(train.vocab) == sorted(set().union(
            *(example_features(ds[i], mode) for i in train_idx)))
        assert list(train.vocab) == list(expected.vocab)
        assert rows(train.X) == rows(expected.X) == [
            extract(ds[i], mode, train.vocab) for i in train_idx]
        assert train.X.shape == (len(train_idx), len(train.vocab))
        assert train.examples == ds.subset(train_idx).examples
        test_idx = data.draw(indices)
        held_out = whole.corpus.held_out(test_idx, train)
        assert list(held_out) == [ds[i] for i in test_idx]
        assert held_out.X.shape == (len(test_idx), len(train.vocab))
        assert rows(held_out.X) == [extract(ds[i], mode, train.vocab)
                                    for i in test_idx]
        # a slice of a slice, and held-out rows of another slice against
        # it, as a cross-domain evaluation reads them
        inner_idx = data.draw(st.lists(st.integers(0, len(train) - 1))
                              if len(train) else st.just([]))
        inner = train.subset(inner_idx)
        expected = encode(ds.subset(train_idx).subset(inner_idx), mode)
        assert (list(inner.vocab), rows(inner.X)) == (list(expected.vocab),
                                                      rows(expected.X))
        assert rows(whole.corpus.held_out(test_idx, inner).X) == [
            extract(ds[i], mode, inner.vocab) for i in test_idx]
        # the label-count table is the counts of each feature's examples
        counts = [Counter() for _ in inner.vocab]
        for ex in inner:
            for feat in example_features(ex, mode):
                counts[inner.vocab.lookup(feat)][ex.label] += 1
        assert inner.label_counts_by_feature() == counts

    @pytest.mark.parametrize("mode", list(FeatureSet))
    def test_whole_dataset_of_its_own_feature_set_is_not_remapped(self, mode):
        ds = modality_corpus(30, seed=1)
        encoding = CorpusEncoding(ds, mode)
        whole = encoding.dataset()
        assert list(whole.vocab) == list(encoding.vocab)
        assert rows(whole.X) == rows(encoding.X)
        assert encode(whole, mode) is whole
        assert whole.subset(range(len(ds))) is whole
        assert rows(encoding.held_out(range(len(ds)), whole).X) == rows(whole.X)

    @pytest.mark.parametrize("mode", [FeatureSet.FS2, FeatureSet.FS3])
    def test_examples_without_features_give_zero_column_slices(self, mode):
        # empty sentences have no suffix and no token, so under feature
        # set 2 or 3 a slice of them uses no column
        ds = Dataset([Example("x", ""), Example("y", ""), Example("x", "", ("a",))])
        whole = CorpusEncoding(ds).dataset(mode)
        train = whole.subset([0, 1])
        assert len(train.vocab) == 0 and train.X.shape == (2, 0)
        assert rows(train.X) == [FeatureVector()] * 2
        assert train.label_counts_by_feature() == []
        held_out = whole.corpus.held_out([2], train)
        assert held_out.X.shape == (1, 0) and rows(held_out.X) == [FeatureVector()]

    def test_a_slice_is_freed_when_its_caller_drops_it(self):
        whole = CorpusEncoding(modality_corpus(30, seed=1)).dataset(FeatureSet.FS1)
        train = whole.subset(range(0, 30, 2))
        whole.corpus.held_out(range(1, 30, 2), train)
        ref = weakref.ref(train)
        del train
        gc.collect()
        assert ref() is None

    def test_held_out_rows_need_a_slice_of_the_same_encoding(self):
        ds = modality_corpus(10, seed=1)
        with pytest.raises(ValueError, match="one corpus encoding"):
            CorpusEncoding(ds).held_out([0], CorpusEncoding(ds).dataset())

    def test_columns_are_the_feature_sets_ranges(self):
        ex = Example("x", "今日 走る", ("今日", "走る"))
        encoding = CorpusEncoding([ex])
        assert [encoding.vocab.feature(c).kind for c in encoding.columns(
            FeatureSet.FS2)] == [SUFFIX] * len(suffix_ngrams(ex.sentence))
        assert [encoding.vocab.feature(c).kind for c in encoding.columns(
            FeatureSet.FS3)] == [TOKEN, TOKEN]
        with pytest.raises(ValueError, match="does not cover"):
            CorpusEncoding([ex], FeatureSet.FS2).dataset(FeatureSet.FS3)


class TestFeatureVector:
    def test_sorted_deduplicated(self):
        assert FeatureVector([3, 1, 3, 2]).ids == (1, 2, 3)

    def test_dot_is_intersection_size(self):
        a = FeatureVector([1, 2, 3])
        b = FeatureVector([2, 3, 4])
        assert a.dot(b) == 2
        assert a.dot(a) == 3
        assert FeatureVector([]).dot(a) == 0

    def test_to_csr_matches_dot(self):
        rng = random.Random(9)
        vecs = [FeatureVector(rng.sample(range(12), rng.randint(0, 6)))
                for _ in range(20)]
        X = to_csr(vecs, 12)
        gram = X @ X.T
        for i in range(20):
            for j in range(20):
                assert gram[i, j] == vecs[i].dot(vecs[j])


@st.composite
def binary_matrices(draw, n_cols=None):
    """A BinaryCSR of up to 24 rows, empty rows and zero columns included,
    with rows and columns long enough that numpy's pairwise summation
    (over runs of 8 or more) would round otherwise."""
    if n_cols is None:
        n_cols = draw(st.integers(0, 30))
    row = st.lists(st.booleans(), min_size=n_cols, max_size=n_cols).map(
        lambda mask: [c for c, bit in enumerate(mask) if bit])
    return to_csr([FeatureVector(r) for r in draw(st.lists(row, max_size=24))], n_cols)


def as_scipy(X):
    return csr_matrix((np.ones(X.nnz), X.indices, X.indptr), shape=X.shape)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


# magnitudes far apart, so that another summation order rounds differently
FLOATS = st.floats(-1e6, 1e6) | st.floats(-1e-6, 1e-6)


class TestBinaryCSR:
    """scipy.sparse is the oracle: float sums must be bit-identical to its
    sequential order, integer products and indexing equal."""

    @settings(max_examples=300, deadline=None)
    @given(binary_matrices(), st.integers(1, 5), st.data())
    def test_sums_and_products_equal_scipy(self, X, k, data):
        S = as_scipy(X)
        n, n_cols = X.shape
        W = np.array(data.draw(st.lists(FLOATS, min_size=n_cols * k,
                                        max_size=n_cols * k))).reshape(n_cols, k)
        P = np.array(data.draw(st.lists(FLOATS, min_size=n * k,
                                        max_size=n * k))).reshape(n, k)
        padded = np.concatenate((W, np.zeros((1, k))))
        assert (bits(X.row_sums(padded)) == bits(S @ W)).all()
        for r in range(n):  # a lone output, which numpy would sum pairwise
            assert (bits(X.block(r, r + 1).row_sums(padded[:, :1]))
                    == bits(S[r] @ W[:, :1])).all()
        assert (bits(X.column_sums(P)) == bits(S.T @ P)).all()
        onehot = np.eye(k)[data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                              max_size=n))].reshape(n, k)
        assert (X.column_sums(onehot) == S.T @ onehot).all()
        Y = data.draw(binary_matrices(n_cols))
        counts = X @ Y.T
        assert counts.dtype.kind == "i"
        assert (counts == (S @ as_scipy(Y).T).toarray()).all()
        assert (X.toarray() == S.toarray()).all()

    @settings(max_examples=300, deadline=None)
    @given(binary_matrices(), st.data())
    def test_indexing_equals_scipy(self, X, data):
        S = as_scipy(X)
        n, n_cols = X.shape
        picked = data.draw(st.lists(st.integers(0, n - 1), max_size=10)
                           if n else st.just([]))
        cols = sorted(data.draw(st.sets(st.integers(0, n_cols - 1))
                                if n_cols else st.just(set())))
        start = data.draw(st.integers(0, n))
        stop = data.draw(st.integers(start, n + 3))
        for ours, theirs in ((X.take(picked), S[picked]),
                             (X.select(cols), S[:, cols]),
                             (X.take(picked).select(cols), S[picked][:, cols]),
                             (X.block(start, stop), S[start:stop]),
                             (X.T, S.T.tocsr())):
            theirs.sort_indices()
            assert ours.shape == theirs.shape
            rows(ours)  # each row's ids strictly increase
            assert ours.indptr.tolist() == theirs.indptr.tolist()
            assert ours.indices.tolist() == theirs.indices.tolist()
