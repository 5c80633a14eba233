import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knn_reference import reference_knn, similarity
from tamkit.corpus import Dataset, Example
from tamkit.knn import KnnModel, classify_knn, train_knn


class TestSimilarity:
    def test_shared_two_char_suffix(self):
        assert similarity("しない", "こない") == 2

    def test_self_similarity_capped(self):
        assert similarity("abcd", "abcd") == 4
        s = "abcdefghijklmno"  # 15 chars
        assert similarity(s, s) == 10

    def test_disjoint(self):
        assert similarity("abc", "xyz") == 0

    def test_empty(self):
        assert similarity("", "abc") == 0

    def test_symmetric_and_bounded(self):
        rng = random.Random(11)
        alphabet = "abあい"
        for _ in range(300):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
            s = similarity(a, b)
            assert s == similarity(b, a)
            assert 0 <= s <= min(10, len(a), len(b))


def _dataset(pairs):
    return Dataset(Example(lab, sent) for lab, sent in pairs)


class TestClassify:
    def test_exact_match_nearest(self):
        model = train_knn(_dataset([("past", "きた"), ("present", "くる")]), k=1)
        assert classify_knn(model, "きた") == "past"

    def test_tie_expansion_all_five_vote(self):
        # five examples, all similarity 2 to the query; top-3 would be
        # ambiguous, the expanded set votes 3-2
        pairs = [("X", "あない"), ("X", "いない"),
                 ("Y", "うない"), ("Y", "えない"), ("Y", "おない")]
        model = train_knn(_dataset(pairs), k=3)
        assert classify_knn(model, "しない") == "Y"

    def test_zero_similarity_falls_back_to_majority(self):
        pairs = [("maj", "aaa"), ("maj", "bbb"), ("min", "ccc")]
        model = train_knn(_dataset(pairs), k=1)
        # oracle: the global frequency table
        expected = max(sorted({"maj", "min"}),
                       key=lambda lab: sum(1 for p in pairs if p[0] == lab))
        assert classify_knn(model, "zzz") == expected

    def test_vote_tie_breaks_by_global_frequency(self):
        # query ties 1-1 between X and Y voters; Y is globally more frequent
        pairs = [("X", "ああか"), ("Y", "いいか"),
                 ("Y", "ううう"), ("Y", "えええ")]
        model = train_knn(_dataset(pairs), k=2)
        assert classify_knn(model, "おおか") == "Y"

    def test_k1_equals_nearest_example_when_tie_free(self):
        rng = random.Random(5)
        alphabet = "abcで"
        checked = 0
        for _ in range(60):
            n = rng.randint(1, 50)
            pairs = [
                (rng.choice("PQR"),
                 "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8))))
                for _ in range(n)
            ]
            model = train_knn(_dataset(pairs), k=1)
            for _ in range(5):
                query = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
                sims = [similarity(query, s) for _, s in pairs]
                top = max(sims)
                if sims.count(top) != 1:
                    continue  # tie: the voting set legitimately exceeds 1
                checked += 1
                assert classify_knn(model, query) == pairs[sims.index(top)][0]
        assert checked > 50

    def test_voting_set_at_least_k(self):
        rng = random.Random(6)
        pairs = [(rng.choice("AB"), "".join(rng.choice("xyzた") for _ in range(4)))
                 for _ in range(30)]
        model = train_knn(_dataset(pairs), k=7)
        query = "yzた"
        sims = sorted((similarity(query, s) for _, s in pairs), reverse=True)
        kth = sims[6]
        voters = sum(1 for s in sims if s >= kth)
        assert voters >= 7


_ALPHABET = "abあ"
# sentences of 0-13 characters, and sentences of more than 10 that end in
# one of three 10-character tails, so that many share all 10 final
# characters, and some share only the last 9
_SENTENCES = st.one_of(
    st.text(_ALPHABET, max_size=13),
    st.builds(operator.add, st.text(_ALPHABET, min_size=1, max_size=3),
              st.sampled_from(["ababababあa", "bbbbbbbbbb", "abbbbbbbbb"])))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("PQR"), _SENTENCES),
                min_size=1, max_size=30),
       st.integers(1, 40), _SENTENCES)
@example([("P", ""), ("Q", "b"), ("Q", "")], 1, "")  # empty query and training
@example([("P", "ab"), ("Q", "bb")], 5, "ab")  # N < k
@example([("P", "a" + "bbbbbbbbbb"), ("Q", "ab" + "bbbbbbbbbb"),
          ("Q", "b" + "bbbbbbbbbb")], 2, "aa" + "bbbbbbbbbb")  # beyond 10
@example([("P", "bbbbbbbbbb"), ("Q", "abbbbbbbbb"), ("Q", "aabbbbbbbbb")], 1,
         "b" + "bbbbbbbbbb")  # the 10th character from the end decides
@example([("P", "aab"), ("Q", "bab"), ("Q", "bbb")], 1, "ab")  # tie at the k-th
def test_suffix_table_equals_reference_scan(pairs, k, query):
    model = train_knn(_dataset(pairs), k=k)
    assert classify_knn(model, query) == reference_knn(model, query)


class TestModel:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            train_knn(_dataset([("a", "x")]), k=0)

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            train_knn(Dataset([]), k=1)

    def test_predict_uses_sentence(self):
        model = train_knn(_dataset([("past", "きた")]), k=1)
        assert model.predict(Example("?", "きた")) == "past"

    def test_serialization_round_trip(self):
        model = train_knn(_dataset([("past", "きた"), ("present", "くる")]), k=3)
        again = KnnModel.from_dict(model.to_dict())
        assert again.sentences == model.sentences
        assert again.labels == model.labels
        assert again.k == model.k
        assert classify_knn(again, "きた") == classify_knn(model, "きた")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("ab"),
                              st.text(alphabet="ab c\u3042", max_size=14)),
                    min_size=1, max_size=10))
    def test_loaded_suffix_table_equals_the_trained_one(self, pairs):
        # training reads the table off the feature-set-2 encoding, loading
        # rebuilds it from the sentences
        model = train_knn(_dataset(pairs), k=1)
        assert KnnModel.from_dict(model.to_dict()).suffix_votes == model.suffix_votes
