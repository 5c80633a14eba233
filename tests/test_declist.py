import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import random_token_corpus
from tamkit.corpus import Dataset, Example
from tamkit.declist import DecisionListModel, decide, train_declist
from tamkit.features import (SUFFIX, TOKEN, Feature, FeatureSet, FeatureVector,
                             Vocabulary, extract)


def _token_example(label, tokens):
    return Example(label, " ".join(tokens), tuple(tokens))


def conditional(model, fid, label):
    """p(label | feature), the occurrence rate among the training examples
    with the feature."""
    return model.counts[fid].get(label, 0) / model.totals[fid]


def oracle_rule(model, fv):
    """The id of the deciding feature of ``fv`` (None if there is none), by
    exhaustive scan with exact rational probabilities and the documented
    tie chain."""
    candidates = []
    for fid in fv.ids:
        if fid < len(model.totals) and model.counts[fid]:
            feat = model.vocab.feature(fid)
            tot = model.totals[fid]
            maxp = max(Fraction(c, tot) for c in model.counts[fid].values())
            candidates.append((-maxp, -tot, feat.text, feat.kind, fid))
    return min(candidates)[4] if candidates else None


def oracle_decide(model, fv):
    """Exhaustive scan of every (feature-in-fv, label) pair with exact
    rational probabilities and the documented tie chain."""
    fid = oracle_rule(model, fv)
    if fid is None:
        return min(model.label_counts,
                   key=lambda lab: (-model.label_counts[lab], lab))
    tot = model.totals[fid]
    ranked = sorted(model.counts[fid].items(),
                    key=lambda kv: (-Fraction(kv[1], tot),
                                    -model.label_counts[kv[0]], kv[0]))
    return ranked[0][0]


class TestTraining:
    def test_hand_counted_conditionals(self):
        ds = Dataset([
            _token_example("A", ["f"]), _token_example("A", ["f"]),
            _token_example("A", ["f"]), _token_example("B", ["f"]),
        ])
        model = train_declist(ds, FeatureSet.FS3)
        fid = model.vocab.lookup(model.vocab.feature(0))
        assert conditional(model, fid, "A") == pytest.approx(0.75)
        assert conditional(model, fid, "B") == pytest.approx(0.25)

    def test_one_example_corpus(self):
        ds = Dataset([_token_example("only", ["x", "y"])])
        model = train_declist(ds, FeatureSet.FS3)
        for fid in range(len(model.totals)):
            assert conditional(model, fid, "only") == 1.0

    def test_absent_feature_not_in_model(self):
        ds = Dataset([_token_example("A", ["x"])])
        model = train_declist(ds, FeatureSet.FS3)
        from tamkit.features import Feature, TOKEN
        assert model.vocab.lookup(Feature(TOKEN, "unseen")) is None

    def test_conditionals_sum_to_one(self):
        ds = random_token_corpus(random.Random(2), max_examples=60)
        model = train_declist(ds, FeatureSet.FS3)
        for fid in range(len(model.totals)):
            total = sum(conditional(model, fid, lab) for lab in model.counts[fid])
            assert abs(total - 1.0) <= 1e-12


class TestClassify:
    def test_highest_single_feature_probability_wins(self):
        # p(A|f1) = 0.75 from (3 A, 1 B); p(B|f2) = 1.0 from 2 B examples
        ds = Dataset([
            _token_example("A", ["f1"]), _token_example("A", ["f1"]),
            _token_example("A", ["f1"]), _token_example("B", ["f1"]),
            _token_example("B", ["f2"]), _token_example("B", ["f2"]),
        ])
        model = train_declist(ds, FeatureSet.FS3)
        fv = extract(_token_example("?", ["f1", "f2"]), FeatureSet.FS3,
                     model.vocab)
        record = decide(model, fv)
        assert record.label == "B"
        assert record.feature.text == "f2"
        assert record.probability == pytest.approx(1.0)
        assert not record.fallback

    def test_single_known_feature(self):
        ds = Dataset([_token_example("A", ["f"]), _token_example("A", ["f"]),
                      _token_example("B", ["f"])])
        model = train_declist(ds, FeatureSet.FS3)
        fv = extract(_token_example("?", ["f"]), FeatureSet.FS3, model.vocab)
        assert decide(model, fv).label == "A"

    def test_unknown_context_falls_back(self):
        ds = Dataset([_token_example("maj", ["x"]), _token_example("maj", ["y"]),
                      _token_example("min", ["z"])])
        model = train_declist(ds, FeatureSet.FS3)
        record = decide(model, FeatureVector([]))
        assert record.fallback
        assert record.feature is None
        # oracle: the raw frequency table
        assert record.label == max(sorted(model.label_counts),
                                   key=lambda lab: model.label_counts[lab])

    def test_adding_unrelated_feature_never_changes_decision(self):
        ds = random_token_corpus(random.Random(7), max_examples=40)
        model = train_declist(ds, FeatureSet.FS3)
        fv = extract(ds[0], FeatureSet.FS3, model.vocab)
        before = decide(model, fv).label
        # graft a new feature (not present in fv) onto the model
        grafted = DecisionListModel(
            model.vocab, model.mode,
            list(model.counts) + [{"Z": 5}],
            model.label_counts)
        assert decide(grafted, fv).label == before

    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(13)
        for trial in range(100):
            mode = FeatureSet.FS3 if trial % 2 else FeatureSet.FS1
            ds = random_token_corpus(rng, max_examples=100)
            model = train_declist(ds, mode)
            queries = [ds[rng.randrange(len(ds))] for _ in range(5)]
            queries.append(_token_example("?", ["never-seen"]))
            for q in queries:
                fv = extract(q, mode, model.vocab)
                assert decide(model, fv).label == oracle_decide(model, fv)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(tuple(FeatureSet)))
def test_batch_prediction_equals_deciding_each(seed, mode):
    rng = random.Random(seed)
    train = random_token_corpus(rng, max_examples=40)
    queries = list(train) + list(random_token_corpus(rng, max_examples=20,
                                                     n_labels=4))
    model = train_declist(train, mode)
    assert model.predict_batch(queries) == [
        decide(model, extract(ex, mode, model.vocab)).label for ex in queries]


def test_serialization_round_trip():
    ds = random_token_corpus(random.Random(3), max_examples=30)
    model = train_declist(ds, FeatureSet.FS1)
    again = DecisionListModel.from_dict(model.to_dict())
    for ex in ds:
        fv_a = extract(ex, model.mode, model.vocab)
        fv_b = extract(ex, again.mode, again.vocab)
        assert decide(model, fv_a).label == decide(again, fv_b).label


LABELS = ("A", "B", "C")


@st.composite
def count_tables(draw):
    """A hand-built model and a query. Its features are two texts, each
    under both kinds, in drawn id order. Its count rows repeat a few shapes:
    empty rows; the near-equal top ratios (n - 1) / n < (2n - 1) / (2n + 1)
    < n / (n + 1), with totals up to 10^6 and the middle one the largest;
    and one ratio at two totals. So every link of the tie chain is
    reached."""
    n = draw(st.integers(2, 100) | st.integers(10 ** 5, (10 ** 6 - 1) // 2))
    base = draw(st.dictionaries(st.sampled_from(LABELS), st.integers(1, 5),
                                min_size=2))
    shapes = [{}, {"B": n - 1, "C": 1}, {"B": 2 * n - 1, "C": 2},
              {"A": n, "B": 1}, base, {lab: 3 * c for lab, c in base.items()}]
    feats = draw(st.permutations([Feature(kind, text) for kind in (SUFFIX, TOKEN)
                                  for text in "xy"]))
    counts = [dict(draw(st.sampled_from(shapes))) for _ in feats]
    label_counts = {lab: draw(st.integers(1, 3)) for lab in LABELS}
    model = DecisionListModel(Vocabulary(feats), FeatureSet.FS1, counts,
                              label_counts)
    fv = FeatureVector(draw(st.sets(st.integers(0, len(feats) - 1), min_size=2)))
    return model, fv


@settings(max_examples=300, deadline=None)
@given(count_tables())
def test_ranked_rules_match_exact_oracle(table):
    model, fv = table
    record = decide(model, fv)
    fid = oracle_rule(model, fv)
    assert record.fallback == (fid is None)
    assert record.feature == (None if fid is None else model.vocab.feature(fid))
    assert record.label == oracle_decide(model, fv)


def test_round_trip_rebuilds_rank():
    ds = random_token_corpus(random.Random(5), max_examples=60)
    model = train_declist(ds, FeatureSet.FS1)
    assert DecisionListModel.from_dict(model.to_dict()).rank == model.rank
