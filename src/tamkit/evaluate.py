"""Cross-validation harness, baseline rule, and statistical tests.

"Precision" throughout is overall accuracy: the fraction of sentences whose
predicted category equals the gold label. Open evaluations never train on
the tested examples; closed evaluations train and test on the same data.
Folds of a cross-validation run are independent of each other; the report
is assembled in a single reduction at the end.

An evaluation encodes its corpus once (``features.encode``): each fold's
model trains on a slice of that encoding and predicts the fold's held-out
examples from their rows of it, so no example is extracted twice. A corpus
that is already an ``EncodedDataset`` is not encoded again. Slices are CSR
row and column indexing, built where an evaluation uses them and not
memoised.

A grid of learners and feature sets (``evaluate_grid``, the ``cv --all``
matrix) extracts its corpus once, under feature set 1, and runs one feature
set at a time as one unit: each fold's training slice, its held-out rows
and the closed training set are built once and read by every learner of
that feature set, as is each slice's label-count table, and the SVM
learners' models of every slice and degree come from one solve. That
shared structure is freed before the next feature set's is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .corpus import Dataset, FoldPlan, split_folds
from .declist import train_declist
from .features import (CorpusEncoding, EncodedDataset, Feature, FeatureSet, encode,
                       example_features)
from .knn import KnnModel, train_knn
from .maxent import train_maxent
from .svm import hyperparameter_error, train_pairwise, train_pairwise_slices

PAST_MARKER = "た"  # sentence-final hiragana "ta"


class ConfigError(ValueError):
    """Illegal learner / feature-set combination, bad harness arguments or
    a malformed command line: a usage error."""


@dataclass(frozen=True)
class LearnerSpec:
    """Which learner to run and its hyperparameters, and the one owner of
    the rules about each learner: the feature sets it runs on
    (``feature_sets``), the hyperparameters its reports name
    (``hyperparameters``) and the values it accepts (``check``)."""

    method: str  # knn | dlist | maxent | svm | baseline
    k: int = 3
    d: int = 1
    C: float = 1.0

    @property
    def feature_sets(self) -> tuple[FeatureSet, ...]:
        """The feature sets this learner runs on, its default first. k-NN
        compares sentence endings, so it runs on its model's feature set only."""
        return (KnnModel.mode,) if self.method == "knn" else tuple(FeatureSet)

    @property
    def hyperparameters(self) -> dict:
        """The hyperparameters of this learner that its reports name."""
        if self.method == "knn":
            return {"k": self.k}
        if self.method == "svm":
            return {"d": self.d, "C": self.C}
        return {}

    def check(self, mode) -> None:
        """Raise ConfigError if this learner cannot run on feature set
        ``mode``: k must be at least 1, ``mode`` one of ``feature_sets``,
        and the SVM's d and C must pass ``svm.hyperparameter_error``, the
        rule its model files are loaded by."""
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if mode not in self.feature_sets:
            sets = ", ".join(str(int(fs)) for fs in self.feature_sets)
            raise ConfigError(f"{self.method} supports feature-set {sets} only")
        if self.method == "svm" and (error := hyperparameter_error(self.d, self.C)):
            raise ConfigError(error)

    def describe(self) -> str:
        """The method and its first hyperparameter, e.g. ``svm (d=1)``."""
        for key, value in self.hyperparameters.items():
            return f"{self.method} ({key}={value})"
        return self.method


class BaselineModel:
    """Rule-based tense guesser; involves no training."""

    def predict(self, example) -> str:
        return baseline_classify(example.sentence)

    def predict_batch(self, examples) -> list[str]:
        return [self.predict(ex) for ex in examples]


def baseline_classify(sentence: str) -> str:
    """"past" when the sentence ends with the past-tense particle, else
    "present" (an empty sentence is "present")."""
    return "past" if sentence.endswith(PAST_MARKER) else "present"


METHODS = ("knn", "dlist", "maxent", "svm", "baseline")


def fit(spec: LearnerSpec, dataset: Dataset, mode: FeatureSet):
    """Train one model per the spec, after ``spec.check(mode)``."""
    mode = FeatureSet(mode)
    spec.check(mode)
    if spec.method == "baseline":
        return BaselineModel()
    if spec.method == "knn":
        return train_knn(dataset, spec.k)
    if spec.method == "dlist":
        return train_declist(dataset, mode)
    if spec.method == "maxent":
        return train_maxent(dataset, mode)
    if spec.method == "svm":
        return train_pairwise(dataset, mode, C=spec.C, d=spec.d)
    raise ConfigError(f"unknown method {spec.method!r}")


def fit_subsets(spec: LearnerSpec, dataset: Dataset, subsets, mode: FeatureSet):
    """``(model, train)`` for each index sequence ``s`` of ``subsets``, after
    ``spec.check(mode)``: ``train`` is ``dataset.subset(s)`` and ``model``
    what ``fit`` trains on it. The SVM trains every subset in one solve
    (``svm.train_pairwise_slices``); the other learners build and train
    lazily, one subset per pair drawn."""
    mode = FeatureSet(mode)
    spec.check(mode)
    trains = (dataset.subset(s) for s in subsets)
    if spec.method == "svm":
        trains = list(trains)
        return zip(train_pairwise_slices(trains, C=spec.C, degrees=(spec.d,)), trains)
    return ((fit(spec, train, mode), train) for train in trains)


@dataclass
class PrecisionReport:
    """Per-fold counts plus per-example predictions of one evaluation."""

    fold_results: tuple[tuple[int, int], ...]  # (correct, total) per fold
    predictions: tuple[tuple[int, str, str], ...]  # (index, gold, predicted)
    closed: bool

    @property
    def correct(self) -> int:
        return sum(c for c, _ in self.fold_results)

    @property
    def total(self) -> int:
        return sum(t for _, t in self.fold_results)

    @property
    def precision(self) -> float:
        return self.correct / self.total


def cross_validate(spec: LearnerSpec, dataset: Dataset, plan: FoldPlan,
                   mode: FeatureSet) -> PrecisionReport:
    """Open evaluation: for each fold, train on the complement and predict
    the fold. Each fold trains on its slice of one encoding of the dataset,
    whose vocabulary is the features of its training portion, and predicts
    the fold from its rows. The folds' models come from ``fit_subsets``, so
    the SVM trains them all in one solve."""
    folds = _folds(dataset, plan)
    dataset = _encoded(spec, dataset, mode)
    fits = fit_subsets(spec, dataset, [train for train, _ in folds], mode)
    tests = [test for _, test in folds]
    return _evaluate(len(dataset), _held_out(dataset, tests, fits), closed=False)


def closed_test(spec: LearnerSpec, dataset: Dataset, mode: FeatureSet) -> PrecisionReport:
    """Closed evaluation: train on the full dataset and test on it. The
    baseline rule is not trained on the data, so its test is open."""
    dataset = _encoded(spec, dataset, mode)
    return evaluate_model(fit(spec, dataset, mode), dataset,
                          closed=spec.method != "baseline")


def grid_cell(spec: LearnerSpec, dataset: Dataset, plan: FoldPlan,
              mode: FeatureSet) -> tuple[PrecisionReport, PrecisionReport]:
    """The ``cross_validate`` and ``closed_test`` reports of one cell of
    the ``cv --all`` grid: the one-cell case of ``evaluate_grid``."""
    return evaluate_grid([(spec, mode)], dataset, plan)[spec, FeatureSet(mode)]


def evaluate_grid(cells, dataset: Dataset, plan: FoldPlan
                  ) -> dict[tuple[LearnerSpec, FeatureSet],
                            tuple[PrecisionReport, PrecisionReport]]:
    """The ``cross_validate`` and ``closed_test`` reports of every cell
    ``(spec, mode)`` of ``cells``, after checking the fold plan and every
    cell. The examples are extracted once, into one corpus encoding, and
    the cells run one feature set at a time, each feature set as one unit
    (``_grid_column``)."""
    folds = _folds(dataset, plan)
    cells = [(spec, FeatureSet(mode)) for spec, mode in cells]
    for spec, mode in cells:
        spec.check(mode)
    corpus = CorpusEncoding(dataset)  # feature set 1 covers all three
    reports = {}
    for mode in dict.fromkeys(mode for _, mode in cells):
        specs = [spec for spec, m in cells if m == mode]
        reports.update(((spec, mode), pair) for spec, pair in
                       _grid_column(specs, corpus, folds, mode).items())
    return reports


class _GridSlice(EncodedDataset):
    """A training slice that every learner of one feature set of a grid
    trains on: its label-count table is computed on first use and kept with
    the slice, which the grid frees once its learners are done with it."""

    @cached_property
    def _label_counts(self) -> list[dict[str, int]]:
        return super().label_counts_by_feature()

    def label_counts_by_feature(self) -> list[dict[str, int]]:
        return self._label_counts


def _grid_column(specs, corpus: CorpusEncoding, folds, mode: FeatureSet):
    """``{spec: (open report, closed report)}`` for every learner of
    ``specs`` on feature set ``mode``. Each fold's training slice and
    held-out rows, and the closed training set and its rows, are built once
    and read by every learner. The SVM learners run first: those of one C
    train every slice at all their degrees in one solve
    (``svm.train_pairwise_slices``), whose kernel is the largest
    allocation, before any label-count table or other model exists. The
    other learners then run one slice at a time, each model freed before
    the next trains, and each slice, with its table, once they are done
    with it."""
    n = len(corpus.examples)
    tests = [test for _, test in folds] + [range(n)]
    trains = [_GridSlice(corpus, train, mode) for train, _ in folds]
    trains.append(_GridSlice(corpus, np.arange(n), mode))
    batches = [trains[-1].held_out(test, train) for test, train in zip(tests, trains)]
    predicted = {spec: [] for spec in specs}  # labels per slice
    svms = [spec for spec in predicted if spec.method == "svm"]
    for C in dict.fromkeys(spec.C for spec in svms):
        degrees = tuple(dict.fromkeys(spec.d for spec in svms if spec.C == C))
        models = train_pairwise_slices(trains, C=C, degrees=degrees)
        for spec in svms:
            if spec.C == C:
                first = degrees.index(spec.d) * len(trains)
                predicted[spec] = [model.predict_batch(batch) for model, batch in
                                   zip(models[first:first + len(trains)], batches)]
        del models
    others = [spec for spec in predicted if spec.method != "svm"]
    for k, batch in enumerate(batches):
        train, trains[k] = trains[k], None
        for spec in others:
            model = fit(spec, train, mode)
            predicted[spec].append(model.predict_batch(batch))
            del model  # before the next one trains
    return {spec: (_evaluate(n, zip(tests[:-1], batches, labels), closed=False),
                   _evaluate(n, [(tests[-1], batches[-1], labels[-1])],
                             closed=spec.method != "baseline"))
            for spec, labels in predicted.items()}


def _folds(dataset: Dataset, plan: FoldPlan) -> list[tuple[list[int], list[int]]]:
    """(train indices, test indices) of every fold of ``plan``."""
    if len(plan.assignment) != len(dataset):
        raise ConfigError("fold plan does not match dataset size")
    return [plan.fold_indices(fold) for fold in range(plan.n_folds)]


def _encoded(spec: LearnerSpec, dataset: Dataset, mode: FeatureSet) -> Dataset:
    """``dataset`` encoded under ``mode`` after ``spec.check(mode)``; the
    baseline rule reads no features, so its dataset stays as it is."""
    mode = FeatureSet(mode)
    spec.check(mode)
    return dataset if spec.method == "baseline" else encode(dataset, mode)


def evaluate_model(model, dataset: Dataset, closed: bool = False) -> PrecisionReport:
    """Score an already trained model on a dataset."""
    everything = range(len(dataset))
    examples = dataset.held_out(everything, dataset)
    return _evaluate(len(dataset), [(everything, examples,
                                     model.predict_batch(examples))], closed)


def _evaluate(n: int, scored, closed: bool) -> PrecisionReport:
    """The one scoring loop, over a dataset of ``n`` examples: each
    ``(indices, examples, predicted)`` of ``scored`` becomes one fold
    record, where ``examples`` are the dataset's examples at ``indices``
    and ``predicted`` the labels a model predicted for them in one batch."""
    predictions: list[tuple[int, str, str] | None] = [None] * n
    fold_results = []
    for indices, examples, labels in scored:
        correct = 0
        for i, ex, predicted in zip(indices, examples, labels):
            predictions[i] = (i, ex.label, predicted)
            correct += predicted == ex.label
        fold_results.append((correct, len(examples)))
    return PrecisionReport(tuple(fold_results), tuple(predictions), closed)


def _held_out(dataset: Dataset, tests, fits):
    """For each index sequence of ``tests``, what ``_evaluate`` scores: the
    examples ``dataset.held_out`` gives for it against the training set of
    the ``(model, train)`` pair drawn from ``fits``, and the model's labels
    for them. When the datasets are slices of one encoding, the batch
    carries each example's row against the training vocabulary, which the
    model reads instead of extracting. Each pair is dropped before the next
    is drawn, so two models of k-NN, the decision list or maxent are never
    alive at once; the SVM models of one call of ``fit_subsets`` are
    trained in one solve, so they are alive together."""
    for indices in tests:
        model, train = next(fits)
        examples = dataset.held_out(indices, train)
        yield indices, examples, model.predict_batch(examples)
        del model, train, examples  # before the next pair trains


@dataclass(frozen=True)
class SignTestResult:
    n_plus: int
    n_minus: int
    p_value: float
    significant_at: float | None  # the checked level when p < level, else None


def sign_test(n_plus: int, n_minus: int, level: float = 0.01) -> SignTestResult:
    """Two-sided sign test of H0: wins are a fair coin.

    Ties must already be excluded from the counts. The p-value is the
    exact binomial tail for every n, correctly rounded; with no untied
    pair (n = 0) it is 1.0, never significant.
    """
    n = n_plus + n_minus
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    k = max(n_plus, n_minus)
    p = min(1.0, 2 * _binom_tail(k, n, 1, 2) / 2 ** n)
    return SignTestResult(n_plus, n_minus, p, level if p < level else None)


def compare_predictions(report_a: PrecisionReport, report_b: PrecisionReport):
    """Indices where exactly one of two evaluations is correct:
    (correct in A only, correct in B only)."""
    b_by_index = {i: (gold, pred) for i, gold, pred in report_b.predictions}
    a_only, b_only = [], []
    for i, gold, pred_a in report_a.predictions:
        if i not in b_by_index:
            raise ValueError(f"example {i} missing from the second report")
        gold_b, pred_b = b_by_index[i]
        if gold_b != gold:
            raise ValueError(f"gold label mismatch at example {i}")
        ok_a, ok_b = pred_a == gold, pred_b == gold
        if ok_a and not ok_b:
            a_only.append(i)
        elif ok_b and not ok_a:
            b_only.append(i)
    return a_only, b_only


def _binom_tail(x: int, n: int, c: int, N: int) -> int:
    """N^n P(X >= x) for X ~ Binomial(n, c / N), 0 <= x <= n: the integer
    sum_{t >= x} C(n, t) c^t (N - c)^(n - t)."""
    q = N - c
    coef = q_pow = 1  # C(n, t) and q^(n - t), from t = n down
    tail = 1  # sum_{s >= t} C(n, s) c^(s - t) q^(n - s)
    for t in range(n - 1, x - 1, -1):  # C(n, t) from C(n, t + 1)
        coef = coef * (t + 1) // (n - t)
        q_pow *= q
        tail = tail * c + coef * q_pow
    return tail * c ** x


def _binom_tail_below(x: int, n: int, c: int, N: int, level: float) -> bool:
    """Whether P(X >= x) < level exactly, for X ~ Binomial(n, c / N) with
    1 <= x <= n and 0 < c <= N, comparing the integer tail with
    ``Fraction(level)``."""
    if level <= 0.5 and x * N <= n * c:
        # x <= n c / N, so x is at most the median of X and P(X >= x) >= 1/2
        return False
    bound = Fraction(level)
    return _binom_tail(x, n, c, N) * bound.denominator < bound.numerator * N ** n


def effective_features(flip_set, all_set, mode: FeatureSet, level: float = 0.01
                       ) -> list[tuple[Feature, int]]:
    """Features over-represented in ``flip_set`` relative to ``all_set``.

    For each feature, an exact one-sided binomial test checks whether its
    occurrence count among the flip examples exceeds what its overall rate
    predicts; features with p < level (p == level is not selected) are
    returned sorted by flip-set frequency (descending), then feature text.
    """
    flip = list(flip_set)
    full = list(all_set)
    flip_keys = Counter(flip)
    full_keys = Counter(full)
    if flip_keys - full_keys:
        raise ValueError("flip_set must be a sub-multiset of all_set")
    if not flip:
        return []
    n, total = len(flip), len(full)
    flip_counts = Counter(f for ex in flip for f in example_features(ex, mode))
    full_counts = Counter(f for ex in full for f in example_features(ex, mode))
    selected = [(feat, x) for feat, x in flip_counts.items()
                if _binom_tail_below(x, n, full_counts[feat], total, level)]
    selected.sort(key=lambda item: (-item[1], item[0].text, item[0].kind))
    return selected


def category_distribution(dataset: Dataset) -> list[tuple[str, float]]:
    """Label occurrence rates, most frequent first (full precision; round
    only at display time)."""
    if len(dataset) == 0:
        raise ValueError("empty dataset has no distribution")
    n = len(dataset)
    rates = [(lab, cnt / n) for lab, cnt in dataset.label_counts.items()]
    rates.sort(key=lambda item: (-item[1], item[0]))
    return rates


def cross_domain_eval(train: Dataset, test: Dataset, spec: LearnerSpec,
                      mode: FeatureSet, folds: int = 10, seed: int = 0
                      ) -> PrecisionReport:
    """Train on one corpus, evaluate on another.

    Test examples that also occur in the training data are evaluated by
    cross-validation instead: the overlap is split into folds. Disjoint test
    examples are scored by one model, then each fold by its own; every model
    trains on the training data with each copy of the examples it tests
    withheld, which for the disjoint examples withholds nothing.
    """
    if folds < 1:
        raise ConfigError("cross-domain needs at least 1 fold")
    if len(train) == 0 or len(test) == 0:
        raise ValueError("train and test datasets must be non-empty")
    train_keys = set(train.examples)
    overlap_idx = [i for i, ex in enumerate(test) if ex in train_keys]
    disjoint_idx = [i for i, ex in enumerate(test) if ex not in train_keys]
    groups = [disjoint_idx] if disjoint_idx else []
    n_folds = min(folds, len(overlap_idx))
    if n_folds >= 2:
        plan = split_folds(Dataset(test[i] for i in overlap_idx), n_folds, seed)
        groups += [[idx for idx, f in zip(overlap_idx, plan.assignment) if f == fold]
                   for fold in range(n_folds)]
    elif overlap_idx:
        groups.append(overlap_idx)

    def train_without(group):
        withheld = {test[i] for i in group}
        return [i for i, ex in enumerate(train) if ex not in withheld]

    trains = [train_without(group) for group in groups]
    # one encoding of both corpora: the models train on slices of its
    # training rows and predict the test examples from their rows
    both = _encoded(spec, Dataset(train.examples + test.examples), mode)
    train = both.subset(range(len(train)))
    test = both.subset(range(len(train), len(both)))
    fits = fit_subsets(spec, train, trains, mode)
    return _evaluate(len(test), _held_out(test, groups, fits), closed=False)
