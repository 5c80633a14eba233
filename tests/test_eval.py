import json
import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from svm_reference import train_pairwise_each_slice
from synth import (domain_corpus, modality_corpus, random_token_corpus,
                   table1_corpus)
from tamkit import evaluate, svm
from tamkit.corpus import Dataset, Example, serialize_corpus, split_folds
from tamkit.evaluate import (
    METHODS,
    ConfigError,
    LearnerSpec,
    PrecisionReport,
    baseline_classify,
    category_distribution,
    closed_test,
    compare_predictions,
    cross_domain_eval,
    cross_validate,
    effective_features,
    evaluate_grid,
    evaluate_model,
    grid_cell,
    sign_test,
)
from tamkit.cli import GRID, main
from tamkit.evaluate import _binom_tail_below
from tamkit.features import (CorpusEncoding, EncodedDataset, FeatureSet, encode,
                             example_features)
from tamkit.svm import TrainingError


class TestBaseline:
    def test_past_particle(self):
        assert baseline_classify("走った") == "past"

    def test_other_endings_are_present(self):
        assert baseline_classify("走る") == "present"

    def test_empty_sentence(self):
        assert baseline_classify("") == "present"

    def test_on_table1_corpus(self):
        ds = table1_corpus(2000, seed=3)
        from tamkit.evaluate import BaselineModel
        report = evaluate_model(BaselineModel(), ds)
        # by construction: every past sentence ends with the particle and
        # nothing else does, so precision = past rate + present rate
        expected = (ds.label_counts["past"] + ds.label_counts["present"]) / len(ds)
        assert report.precision == pytest.approx(expected)
        assert expected == pytest.approx(0.78)


class TestSignTest:
    def test_published_counts_significant_at_one_percent(self):
        result = sign_test(648, 427, 0.01)
        assert result.significant_at == 0.01
        assert result.p_value < 1e-10

    def test_symmetric_counts_not_significant(self):
        result = sign_test(5, 5, 0.05)
        assert result.p_value == 1.0
        assert result.significant_at is None

    def test_nine_one_exact_value(self):
        result = sign_test(9, 1, 0.05)
        # 2 * (C(10,9) + C(10,10)) / 2^10
        assert result.p_value == pytest.approx(22 / 1024, abs=1e-12)
        assert result.significant_at == 0.05

    def test_symmetry(self):
        for a, b in ((3, 7), (120, 80), (700, 500)):
            assert sign_test(a, b).p_value == sign_test(b, a).p_value

    def test_exact_above_a_thousand_pairs(self):
        # p is the correctly rounded exact two-sided tail for large n too
        for n in (1001, 2000, 5000):
            for k in sorted({(n + 1) // 2, n // 2 + 30, n // 2 + 100,
                             n * 3 // 5, n - 1, n}):
                tail = sum(math.comb(n, t) for t in range(k, n + 1))
                exact = float(min(Fraction(1), Fraction(2 * tail, 2 ** n)))
                assert sign_test(k, n - k).p_value == exact, (k, n)

    def test_exact_tail_equals_comb_sum(self):
        def comb_sum_p(k, n):
            tail = sum(math.comb(n, t) for t in range(k, n + 1))
            return min(1.0, 2.0 * tail / 2 ** n)

        pairs = [(k, n) for n in range(1, 200) for k in range(n + 1)]
        pairs += [(k, n) for n in (999, 1000) for k in (500, 501, 530, 600, 999, n)]
        for k, n in pairs:
            p = sign_test(k, n - k).p_value
            assert p == comb_sum_p(max(k, n - k), n), (k, n)

    def test_validation(self):
        # no untied pair is no evidence either way, not an error
        result = sign_test(0, 0)
        assert result.p_value == 1.0 and result.significant_at is None
        with pytest.raises(ValueError):
            sign_test(3, 4, level=1.5)


def _suffix_corpus(n_per=6):
    # duplicate-free, deterministic suffix/label pattern
    examples = []
    for i in range(n_per):
        examples.append(Example("past", f"かきくけこ{i}った"))
        examples.append(Example("present", f"さしすせそ{i}ります"))
    return Dataset(examples)


class TestCrossValidate:
    def test_closed_knn_on_duplicate_free_data_is_perfect(self):
        ds = _suffix_corpus()
        report = closed_test(LearnerSpec("knn", k=1), ds, FeatureSet.FS2)
        assert report.closed
        assert report.precision == 1.0

    def test_constant_label_dataset_is_perfect(self):
        ds = Dataset(Example("only", f"ぶん{i}です") for i in range(12))
        plan = split_folds(ds, 3, seed=0)
        for method in ("knn", "dlist"):
            spec = LearnerSpec(method, k=1)
            report = cross_validate(spec, ds, plan, FeatureSet.FS2)
            assert report.precision == 1.0

    def test_totals_cover_dataset(self):
        ds = random_token_corpus(random.Random(1), max_examples=40, n_labels=2)
        plan = split_folds(ds, 4, seed=9)
        report = cross_validate(LearnerSpec("dlist"), ds, plan, FeatureSet.FS3)
        assert report.total == len(ds)
        assert len(report.predictions) == len(ds)
        assert sorted(i for i, _, _ in report.predictions) == list(range(len(ds)))
        assert report.precision == report.correct / report.total

    def test_knn_requires_feature_set_two(self):
        ds = _suffix_corpus()
        plan = split_folds(ds, 2, seed=0)
        with pytest.raises(ConfigError):
            cross_validate(LearnerSpec("knn"), ds, plan, FeatureSet.FS1)
        with pytest.raises(ConfigError):
            cross_validate(LearnerSpec("knn"), ds, plan, FeatureSet.FS3)

    @pytest.mark.parametrize("spec, mode, message", [
        (LearnerSpec("dlist", k=0), FeatureSet.FS1, "k must be >= 1"),
        (LearnerSpec("knn"), FeatureSet.FS3, "knn supports feature-set 2 only"),
        (LearnerSpec("svm", d=3), FeatureSet.FS1, "degree must be 1 or 2"),
        (LearnerSpec("svm", C=0.0), FeatureSet.FS1, "C must be positive"),
        (LearnerSpec("svm", C=math.nan), FeatureSet.FS1, "C must be positive"),
        (LearnerSpec("svm", C=math.inf), FeatureSet.FS1, "and finite"),
    ])
    def test_fit_checks_every_learner_rule(self, spec, mode, message):
        with pytest.raises(ConfigError, match=message):
            evaluate.fit(spec, _suffix_corpus(), mode)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("mode", list(FeatureSet))
    def test_check_refuses_exactly_the_other_feature_sets(self, method, mode):
        # k-NN compares sentence endings, which feature set 2 alone holds
        sets = (FeatureSet.FS2,) if method == "knn" else tuple(FeatureSet)
        spec = LearnerSpec(method)
        assert spec.feature_sets == sets
        if mode in sets:
            spec.check(mode)
        else:
            with pytest.raises(ConfigError, match=f"^{method} supports feature-set"):
                spec.check(mode)

    def test_leave_one_out_is_seed_independent(self):
        ds = random_token_corpus(random.Random(3), max_examples=20, n_labels=2)
        spec = LearnerSpec("dlist")
        reports = []
        for seed in (0, 987):
            plan = split_folds(ds, len(ds), seed=seed)
            reports.append(cross_validate(spec, ds, plan, FeatureSet.FS3))
        assert sorted(reports[0].predictions) == sorted(reports[1].predictions)

    def test_plan_must_match_dataset(self):
        ds = _suffix_corpus()
        plan = split_folds(ds, 2, seed=0)
        with pytest.raises(ConfigError):
            cross_validate(LearnerSpec("dlist"), ds.subset(range(4)), plan,
                           FeatureSet.FS2)


class TestComparePredictions:
    def test_flip_sets(self):
        a = evaluate_model(_ConstModel("x"), Dataset([Example("x", "1"),
                                                      Example("y", "2")]))
        b = evaluate_model(_ConstModel("y"), Dataset([Example("x", "1"),
                                                      Example("y", "2")]))
        a_only, b_only = compare_predictions(a, b)
        assert a_only == [0]
        assert b_only == [1]


class _ConstModel:
    def __init__(self, label):
        self.label = label

    def predict(self, example):
        return self.label

    def predict_batch(self, examples):
        return [self.label for _ in examples]


class TestModelLifetime:
    """Each fold's model is freed before the next model trains, so two
    fold models are never alive at once."""

    @pytest.fixture
    def alive_at_fit(self, monkeypatch):
        """Patch ``evaluate.fit``; each call appends how many of the models
        returned so far are still alive."""
        alive, made = [], []

        def fake_fit(spec, dataset, mode):
            alive.append(sum(ref() is not None for ref in made))
            model = _ConstModel(dataset[0].label)
            made.append(weakref.ref(model))
            return model

        monkeypatch.setattr(evaluate, "fit", fake_fit)
        return alive

    corpus = Dataset(Example("AB"[i % 2], f"s{i}", (f"t{i % 3}",))
                     for i in range(12))

    def test_cross_validate(self, alive_at_fit):
        plan = split_folds(self.corpus, 4, seed=0)
        cross_validate(LearnerSpec("dlist"), self.corpus, plan, FeatureSet.FS3)
        assert alive_at_fit == [0, 0, 0, 0]

    def test_cross_domain_eval(self, alive_at_fit):
        # six overlapping test examples in three folds, plus a disjoint one
        test = Dataset(list(self.corpus)[:6] + [Example("A", "new", ("t9",))])
        cross_domain_eval(self.corpus, test, LearnerSpec("dlist"),
                          FeatureSet.FS3, folds=3)
        assert alive_at_fit == [0, 0, 0, 0]

    def test_grid_cell(self, alive_at_fit):
        # three folds, then the closed model
        plan = split_folds(self.corpus, 3, seed=0)
        grid_cell(LearnerSpec("dlist"), self.corpus, plan, FeatureSet.FS3)
        assert alive_at_fit == [0, 0, 0, 0]


class TestGridCell:
    @pytest.mark.parametrize("spec", [
        LearnerSpec("knn", k=1), LearnerSpec("dlist"), LearnerSpec("maxent"),
        LearnerSpec("svm", d=2), LearnerSpec("baseline")])
    def test_equals_cross_validate_and_closed_test(self, spec):
        ds = modality_corpus(60, seed=4)
        plan = split_folds(ds, 3, seed=1)
        mode = spec.feature_sets[-1]
        assert grid_cell(spec, ds, plan, mode) == (
            cross_validate(spec, ds, plan, mode), closed_test(spec, ds, mode))

    @pytest.mark.parametrize("spec, mode", [
        (spec, mode) for spec in (LearnerSpec("knn", k=1), LearnerSpec("dlist"),
                                  LearnerSpec("maxent"), LearnerSpec("svm", d=1),
                                  LearnerSpec("svm", d=2))
        for mode in (FeatureSet.FS2, FeatureSet.FS3) if mode in spec.feature_sets])
    def test_examples_without_features(self, spec, mode):
        # empty sentences have no feature under feature set 2 or 3: every
        # slice and batch of held-out rows has zero columns, and every
        # learner predicts the majority label of its training set
        ds = Dataset(Example(label, "") for label in "xxxyy")
        open_rep, closed_rep = grid_cell(spec, ds, split_folds(ds, 5, seed=0), mode)
        assert [pred for _, _, pred in open_rep.predictions] == ["x"] * 5
        assert (open_rep.precision, closed_rep.precision) == (0.6, 0.6)

    def test_fold_plan_must_match(self):
        ds = _suffix_corpus()
        plan = split_folds(ds.subset(range(4)), 2, seed=0)
        with pytest.raises(ConfigError):
            grid_cell(LearnerSpec("svm"), ds, plan, FeatureSet.FS2)


# every cell of the cv --all matrix, one feature set after another
GRID_CELLS = [(spec, mode) for mode in FeatureSet for spec in GRID
              if mode in spec.feature_sets]
# two or three labels; an empty sentence without tokens has no feature
# under feature set 2 or 3, and one with empty tokens none under set 3
GRID_EXAMPLES = st.builds(
    Example, st.sampled_from("xyz"), st.text(alphabet="abた", max_size=4),
    st.none() | st.lists(st.sampled_from(("a", "b", "c")), max_size=2))


def _outcome(run):
    """What ``run()`` returns, or the type and message of the usage or
    training error it raises."""
    try:
        return run()
    except (ConfigError, TrainingError) as exc:
        return type(exc), str(exc)


class TestEvaluateGrid:
    """``evaluate_grid`` runs one feature set as one unit: its slices and
    held-out rows are shared by every learner, and both SVM degrees train
    in one solve. Its reports are those of each cell on its own."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(GRID_EXAMPLES, min_size=4, max_size=14), st.integers(2, 4),
           st.integers(0, 3))
    # every fold trains: featureless examples of every label, and one with
    # features
    @example([Example(label, "", ()) for label in "xxxyyz"]
             + [Example("y", "た", ("a",))], 3, 0)
    def test_equals_each_cell_on_its_own(self, examples, folds, seed):
        ds = Dataset(examples)
        plan = split_folds(ds, min(folds, len(ds)), seed)
        each = _outcome(lambda: {
            (spec, mode): (cross_validate(spec, ds, plan, mode),
                           closed_test(spec, ds, mode))
            for spec, mode in GRID_CELLS})
        assert _outcome(lambda: evaluate_grid(GRID_CELLS, ds, plan)) == each

    @pytest.mark.parametrize("folds", [2, 3])
    def test_cv_all_work_per_feature_set(self, work, tmp_path, folds):
        # one encoding; per feature set: one training slice per fold plus
        # the closed set, a held-out batch each, one label-count table each
        # (the decision list and the five k-NN cells share it), and one SVM
        # solve; the baseline row reads the closed split of feature set 1
        corpus = tmp_path / "c.tsv"
        corpus.write_text(serialize_corpus(modality_corpus(40, seed=2)),
                          encoding="utf-8")
        assert main(["cv", "--all", "-i", str(corpus), "--folds", str(folds),
                     "-o", str(tmp_path / "grid.txt")]) == 0
        n_sets = len(FeatureSet)
        assert work == {"encodings": 1, "slices": n_sets * (folds + 1),
                        "batches": n_sets * (folds + 1),
                        "tables": n_sets * (folds + 1), "solves": n_sets}


@pytest.fixture
def work(monkeypatch):
    """Counts of the harness's work, by patching what does it: corpus
    encodings, training slices, held-out batches, label-count tables
    computed and SVM solves."""
    counts = {"encodings": 0, "slices": 0, "batches": 0, "tables": 0,
              "solves": 0}

    def counted(key, original):
        def run(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return run

    for key, owner, name in (("encodings", CorpusEncoding, "__init__"),
                             ("slices", EncodedDataset, "__init__"),
                             ("batches", CorpusEncoding, "held_out")):
        monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
    table = EncodedDataset.__dict__["_label_counts"]  # a cached_property
    monkeypatch.setattr(table, "func", counted("tables", table.func))
    monkeypatch.setattr(evaluate, "train_pairwise_slices",
                        counted("solves", evaluate.train_pairwise_slices))
    return counts


@pytest.mark.parametrize("method", ["knn", "dlist", "maxent", "svm", "baseline"])
@pytest.mark.parametrize("command, splits", [
    (["cv", "-i", "c.tsv", "--folds", "3"], 3),
    (["eval", "-i", "c.tsv"], 1),
    # a disjoint group and three folds of the overlap
    (["cross-domain", "--train", "c.tsv", "--test", "mixed.tsv", "--folds", "3"],
     4)])
def test_work_per_command(work, tmp_path, monkeypatch, command, splits, method):
    # one encoding, and per split one training slice of it, one held-out
    # batch and at most one label-count table; no other slice, such as one
    # of the whole corpus to take the splits' slices from
    monkeypatch.chdir(tmp_path)
    train = modality_corpus(40, seed=2)
    mixed = Dataset(list(train)[:10] + list(modality_corpus(10, seed=9)))
    for name, ds in (("c.tsv", train), ("mixed.tsv", mixed)):
        (tmp_path / name).write_text(serialize_corpus(ds), encoding="utf-8")
    assert main(command + ["--method", method, "-o", "out.txt"]) == 0
    assert work == {"encodings": 1, "slices": splits, "batches": splits,
                    "tables": splits if method in ("knn", "dlist") else 0,
                    "solves": int(method == "svm")}


class TestEncodedHarness:
    """The harness trains every fold on a slice of one encoding of the
    corpus and predicts from its rows; its reports are those of fitting
    each fold's examples on their own and extracting every prediction."""

    @staticmethod
    def each_on_its_own(spec, ds, plan, mode):
        fold_results, predictions = [], [None] * len(ds)
        for fold in range(plan.n_folds):
            train, test = plan.fold_indices(fold)
            model = evaluate.fit(spec, ds.subset(train), mode)
            for i in test:
                predictions[i] = (i, ds[i].label, model.predict(ds[i]))
            fold_results.append((sum(predictions[i][2] == ds[i].label
                                     for i in test), len(test)))
        return PrecisionReport(tuple(fold_results), tuple(predictions), False)

    @pytest.mark.parametrize("spec, mode", [
        (spec, mode) for spec in (LearnerSpec("knn", k=3), LearnerSpec("dlist"),
                                  LearnerSpec("maxent"), LearnerSpec("svm", d=1),
                                  LearnerSpec("svm", d=2))
        for mode in spec.feature_sets])
    def test_cross_validate_and_closed_test(self, spec, mode):
        ds = modality_corpus(60, seed=int(mode))
        plan = split_folds(ds, 4, seed=2)
        assert cross_validate(spec, ds, plan, mode) == self.each_on_its_own(
            spec, ds, plan, mode)
        assert closed_test(spec, ds, mode) == evaluate_model(
            evaluate.fit(spec, ds, mode), ds, closed=True)


class TestSvmSubsetsInOneSolve:
    """The harness trains a cell's SVM models in one solve; its reports are
    those of the same harness over models trained one subset at a time."""

    @pytest.fixture
    def each_subset(self, monkeypatch):
        def run(report):
            with monkeypatch.context() as patch:
                patch.setattr(evaluate, "train_pairwise_slices",
                              train_pairwise_each_slice)
                return report()
        return run

    @pytest.mark.parametrize("mode", list(FeatureSet))
    @pytest.mark.parametrize("d", [1, 2])
    def test_cross_validate_and_grid_cell(self, each_subset, mode, d):
        ds = modality_corpus(90, seed=d)
        plan = split_folds(ds, 4, seed=mode)
        spec = LearnerSpec("svm", d=d, C=0.5)
        for report in (lambda: cross_validate(spec, ds, plan, mode),
                       lambda: grid_cell(spec, ds, plan, mode)):
            assert report() == each_subset(report)

    @pytest.mark.parametrize("d", [1, 2])
    def test_cv_of_many_labels(self, each_subset, monkeypatch, tmp_path, d):
        # 16 labels and 3 folds: over 240 pair problems in one solve, so
        # its wide rounds take the array step (svm.STEP_ROWS), its last ones
        # the loop, and problems of one shape finish in one stacked product
        rng = random.Random(d)
        labels = [f"L{k:02d}" for k in range(16)]
        ds = Dataset(Example(lab, "", (lab, f"t{rng.randrange(6)}",
                                       f"t{rng.randrange(6)}"))
                     for _ in range(6) for lab in labels)
        corpus = tmp_path / "c.tsv"
        corpus.write_text(serialize_corpus(ds), encoding="utf-8")
        steps = {"loop": Counter(), "array": Counter()}
        for path, name in (("loop", "_pair_updates"), ("array", "_pair_updates_array")):
            def counted(*args, rounds=steps[path], step=getattr(svm, name)):
                rounds[len(args[0])] += 1
                return step(*args)
            monkeypatch.setattr(svm, name, counted)

        def report():
            out = tmp_path / "out.txt"
            assert main(["cv", "-i", str(corpus), "--method", "svm", "--features",
                         "3", "--d", str(d), "--folds", "3", "-o", str(out)]) == 0
            return out.read_bytes()

        joint = report()
        assert max(steps["array"]) > 240 and min(steps["array"]) >= svm.STEP_ROWS
        assert max(steps["loop"]) < svm.STEP_ROWS
        # the reference trains each slice alone, stepping on the loop alone
        monkeypatch.setattr(svm, "STEP_ROWS", 1 << 30)
        assert joint == each_subset(report)

    @pytest.mark.parametrize("d", [1, 2])
    def test_cross_domain_eval(self, each_subset, d):
        # overlap folds and a disjoint group
        train = domain_corpus(80, seed=1)
        test = Dataset(list(train)[:20] + list(domain_corpus(30, seed=2,
                                                              swapped=True)))
        spec = LearnerSpec("svm", d=d)

        def report():
            return cross_domain_eval(train, test, spec, FeatureSet.FS1,
                                     folds=3, seed=5)

        assert len(report().fold_results) == 4
        assert report() == each_subset(report)


# a few sentences, each under other tokens and labels, so that corpora
# repeat (sentence, tokens) pairs and share a sentence between pairs; the
# empty sentence has no suffix feature
REPEATING_EXAMPLES = st.builds(
    Example, st.sampled_from("xyz"), st.sampled_from(["", "aた", "ba", "a b"]),
    st.none() | st.lists(st.sampled_from(("a", "b")), max_size=2))

PREDICT_CELLS = [(spec, mode) for spec in (
    LearnerSpec("knn", k=1), LearnerSpec("knn", k=3), LearnerSpec("dlist"),
    LearnerSpec("maxent"), LearnerSpec("svm", d=1), LearnerSpec("svm", d=2),
    LearnerSpec("baseline")) for mode in spec.feature_sets]


class TestPredictEachDistinctExampleOnce:
    """The harness predicts each distinct (sentence, tokens) of a batch
    once (``evaluate._predict``); its labels are those of
    ``predict_batch`` on the whole batch."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PREDICT_CELLS),
           st.lists(REPEATING_EXAMPLES, max_size=10),
           st.lists(REPEATING_EXAMPLES, max_size=12))
    @example(PREDICT_CELLS[0], [], [Example("x", "aた"), Example("y", "aた", ("a",)),
                                    Example("z", "aた"), Example("x", "")])
    def test_equals_predict_batch(self, cell, train, test):
        spec, mode = cell
        train = train + [Example("x", "aた"), Example("y", "ba")]  # two labels
        # the held-out examples carry their rows against the training slice
        both = encode(Dataset(train + test), mode)
        train_set = both.subset(range(len(train)))
        batch = both.corpus.held_out(range(len(train), len(both)), train_set)
        model = evaluate.fit(spec, train_set, mode)
        models = [model]
        if spec.method != "baseline":  # and as loaded from its model file
            payload = json.loads(json.dumps(model.to_dict()))
            models.append(type(model).from_dict(payload))
        for m in models:
            for examples in (batch, list(test)):
                assert evaluate._predict(m, examples) == m.predict_batch(examples)


class TestEffectiveFeatures:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(REPEATING_EXAMPLES, min_size=1, max_size=16), st.data(),
           st.sampled_from(list(FeatureSet)), st.sampled_from([0.3, 0.9, 0.999]))
    def test_equals_a_count_per_example(self, full, data, mode, level):
        # each distinct example's features are counted once, times its
        # copies: the selection of counting every example on its own
        flip = [full[i] for i in data.draw(st.lists(
            st.integers(0, len(full) - 1), unique=True))]
        flip_counts = Counter(f for ex in flip for f in example_features(ex, mode))
        full_counts = Counter(f for ex in full for f in example_features(ex, mode))
        expected = sorted(
            ((feat, x) for feat, x in flip_counts.items()
             if _binom_tail_below(x, len(flip), full_counts[feat], len(full), level)),
            key=lambda item: (-item[1], item[0].text, item[0].kind))
        assert effective_features(flip, full, mode, level) == expected

    def test_overrepresented_feature_selected(self):
        flips = [Example("x", "s", ("hit", f"pad{i}")) for i in range(50)]
        rest = [Example("x", "s", (f"other{i % 7}",)) for i in range(4950)]
        selected = effective_features(flips, flips + rest, FeatureSet.FS3,
                                      level=0.01)
        names = [f.text for f, _ in selected]
        assert "hit" in names
        top_feature, top_count = selected[0]
        assert top_feature.text == "hit"
        assert top_count == 50

    def test_identical_rates_not_selected(self):
        everywhere = [Example("x", "s", ("common",)) for _ in range(60)]
        selected = effective_features(everywhere[:20], everywhere,
                                      FeatureSet.FS3, level=0.01)
        assert selected == []

    def test_empty_flip_set(self):
        ds = [Example("x", "s", ("t",))]
        assert effective_features([], ds, FeatureSet.FS3) == []

    def test_flip_must_be_subset(self):
        with pytest.raises(ValueError):
            effective_features([Example("x", "other")],
                               [Example("x", "s")], FeatureSet.FS2)


def _tail(x, n, c, N):
    """P(X >= x) for X ~ Binomial(n, c / N), as an exact fraction."""
    return sum(Fraction(math.comb(n, t) * c ** t * (N - c) ** (n - t), N ** n)
               for t in range(x, n + 1))


def _near(p, level):
    # a float tail this close to the level may fall on either side of it
    return abs(p - level) <= 1e-9 * level


LEVELS = (0.001, 0.01, 0.05, 0.3, 0.7)


class TestBinomialTail:
    def test_matches_scipy_on_a_grid(self):
        compared = 0
        for N in (1, 3, 10, 97, 1000):
            for c in sorted({1, max(1, N // 3), max(1, N - 1), N}):
                for n in (1, 4, 25, 120):
                    xs = np.arange(1, n + 1)
                    ps = binom.sf(xs - 1, n, c / N)
                    for x, p in zip(xs.tolist(), ps.tolist()):
                        for level in LEVELS:
                            if _near(p, level):
                                continue
                            assert _binom_tail_below(x, n, c, N, level) == (
                                p < level), (x, n, c, N, level, p)
                            compared += 1
        assert compared > 10_000

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_scipy(self, data):
        N = data.draw(st.integers(1, 3000))
        n = data.draw(st.integers(1, min(N, 400)))
        c = data.draw(st.integers(1, N))
        x = data.draw(st.integers(1, min(n, c)))
        level = data.draw(st.sampled_from(LEVELS)
                          | st.floats(1e-6, 1.0, exclude_max=True))
        p = float(binom.sf(x - 1, n, c / N))
        if not _near(p, level):
            assert _binom_tail_below(x, n, c, N, level) == (p < level)

    @pytest.mark.parametrize("level", LEVELS + (0.999,))
    def test_feature_in_every_example_is_never_selected(self, level):
        # c == N: the feature occurs with probability 1, so p == 1
        for n in (1, 5, 40):
            for x in range(1, n + 1):
                assert not _binom_tail_below(x, n, 50, 50, level)

    def test_every_flip_has_the_feature(self):
        # x == n: p = (c / N)^n
        assert _tail(3, 3, 1, 10) == Fraction(1, 1000)
        assert _binom_tail_below(3, 3, 1, 10, 0.0011)
        assert not _binom_tail_below(3, 3, 1, 10, 0.0009)
        assert _binom_tail_below(40, 40, 9, 10, 0.02)  # 0.9^40 = 0.0148
        assert not _binom_tail_below(40, 40, 9, 10, 0.01)

    def test_p_equal_to_level_is_not_selected(self):
        # P(X >= 3) = 1/8 for X ~ Binomial(3, 1/2); 0.125 is exact in binary
        assert not _binom_tail_below(3, 3, 1, 2, 0.125)
        assert _binom_tail_below(3, 3, 1, 2, math.nextafter(0.125, 1.0))

    @pytest.mark.parametrize("x, n, c, N", [(3, 10, 6, 20), (1, 4, 1, 4),
                                            (50, 100, 30, 60), (2, 2, 1, 1)])
    def test_count_at_the_mean(self, x, n, c, N):
        # x N == n c: x is the mean, so p >= 1/2
        assert x * N == n * c and _tail(x, n, c, N) >= Fraction(1, 2)
        for level in LEVELS:
            assert _binom_tail_below(x, n, c, N, level) == (
                _tail(x, n, c, N) < Fraction(level))

    def test_large_level_reaches_below_the_mean(self):
        # P(X >= 5) = 638/1024 for X ~ Binomial(10, 1/2): x is at the mean,
        # yet p < 0.7, so the median shortcut must not apply above 1/2
        assert _tail(5, 10, 1, 2) == Fraction(638, 1024)
        assert _binom_tail_below(5, 10, 1, 2, 0.7)
        assert not _binom_tail_below(5, 10, 1, 2, 0.6)
        assert _binom_tail_below(4, 10, 1, 2, 0.9)  # 848/1024 = 0.828

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_exact_sum(self, data):
        N = data.draw(st.integers(1, 200))
        n = data.draw(st.integers(1, 60))
        c = data.draw(st.integers(1, N))
        x = data.draw(st.integers(1, n))
        level = data.draw(st.floats(1e-6, 1.0, exclude_max=True))
        assert _binom_tail_below(x, n, c, N, level) == (
            _tail(x, n, c, N) < Fraction(level))


class TestCategoryDistribution:
    def test_two_even_labels(self):
        ds = Dataset([Example("a", "1"), Example("a", "2"),
                      Example("b", "3"), Example("b", "4")])
        assert category_distribution(ds) == [("a", 0.5), ("b", 0.5)]

    def test_rates_sum_to_one(self):
        ds = random_token_corpus(random.Random(10), max_examples=90, n_labels=4)
        rates = category_distribution(ds)
        assert abs(sum(r for _, r in rates) - 1.0) <= 1e-12
        assert rates == sorted(rates, key=lambda item: (-item[1], item[0]))

    def test_table1_proportions(self):
        ds = table1_corpus(2000, seed=1)
        top_label, top_rate = category_distribution(ds)[0]
        assert top_label == "present"
        assert top_rate == pytest.approx(0.42)


def cross_domain_reference(train, test, spec, mode, folds, seed):
    """``cross_domain_eval`` by its definition: the test examples absent
    from the training data are one group, the others are split into folds;
    each group's model is fitted on a plain dataset of the training
    examples that are no copy of the group's, and predicts each of the
    group's examples on its own."""
    seen = set(train.examples)
    overlap = [i for i, ex in enumerate(test) if ex in seen]
    disjoint = [i for i, ex in enumerate(test) if ex not in seen]
    groups = [disjoint] if disjoint else []
    n_folds = min(folds, len(overlap))
    if n_folds >= 2:
        plan = split_folds(test.subset(overlap), n_folds, seed)
        groups += [[i for i, f in zip(overlap, plan.assignment) if f == fold]
                   for fold in range(n_folds)]
    elif overlap:
        groups.append(overlap)
    fold_results, predictions = [], [None] * len(test)
    for group in groups:
        withheld = {test[i] for i in group}
        model = evaluate.fit(spec, Dataset(ex for ex in train if ex not in withheld),
                             mode)
        for i in group:
            predictions[i] = (i, test[i].label, model.predict(test[i]))
        fold_results.append((sum(predictions[i][2] == test[i].label for i in group),
                             len(group)))
    return PrecisionReport(tuple(fold_results), tuple(predictions), False)


class TestCrossDomain:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(PREDICT_CELLS),
           st.lists(REPEATING_EXAMPLES, min_size=1, max_size=10), st.data(),
           st.integers(1, 4), st.integers(0, 3))
    def test_equals_each_group_fitted_on_its_own(self, cell, train, data, folds,
                                                 seed):
        # test examples copied from the training data, repeated, and new;
        # two training examples that no test example withholds keep two
        # labels in every training set
        spec, mode = cell
        test = Dataset(data.draw(st.lists(st.sampled_from(train) | REPEATING_EXAMPLES,
                                          min_size=1, max_size=12)))
        train = Dataset(train + [Example("x", "aた", ("t",)), Example("y", "ba", ("t",))])
        assert cross_domain_eval(train, test, spec, mode, folds, seed) == (
            cross_domain_reference(train, test, spec, mode, folds, seed))

    def test_disjoint_is_plain_train_then_test(self):
        train = domain_corpus(120, seed=1)
        test = domain_corpus(60, seed=2, swapped=True)
        spec = LearnerSpec("dlist")
        report = cross_domain_eval(train, test, spec, FeatureSet.FS2)
        assert report.total == len(test)
        assert len(report.fold_results) == 1  # no overlap folds

    def test_full_overlap_is_pure_cv(self):
        ds = random_token_corpus(random.Random(8), max_examples=30, n_labels=2)
        spec = LearnerSpec("dlist")
        report = cross_domain_eval(ds, ds, spec, FeatureSet.FS3, folds=5, seed=0)
        assert report.total == len(ds)
        assert len(report.fold_results) == min(5, len(ds))
        # no example may be predicted by a model trained on itself: compare
        # against a closed run, which on this data is more accurate
        closed = closed_test(spec, ds, FeatureSet.FS3)
        assert report.precision <= closed.precision + 1e-12

    @pytest.mark.parametrize("folds", [0, -3])
    def test_fewer_than_one_fold_is_a_usage_error(self, folds):
        # as the cross-domain command rejects it; folds=1 is one withheld group
        train = domain_corpus(40, seed=1)
        test = Dataset(list(train)[:10])
        with pytest.raises(ConfigError, match="at least 1 fold"):
            cross_domain_eval(train, test, LearnerSpec("dlist"), FeatureSet.FS1,
                              folds=folds)
        assert cross_domain_eval(train, test, LearnerSpec("dlist"), FeatureSet.FS1,
                                 folds=1).total == 10

    def test_domain_shift_degrades_precision(self):
        domain_a = domain_corpus(200, seed=5)
        domain_b = domain_corpus(200, seed=6, swapped=True)
        spec = LearnerSpec("dlist")
        plan = split_folds(domain_b, 5, seed=0)
        same = cross_validate(spec, domain_b, plan, FeatureSet.FS2)
        crossed = cross_domain_eval(domain_a, domain_b, spec, FeatureSet.FS2)
        assert crossed.precision < same.precision
