"""Cross-validation harness, baseline rule, and statistical tests.

"Precision" throughout is overall accuracy: the fraction of sentences whose
predicted category equals the gold label. Open evaluations never train on
the tested examples; closed evaluations train and test on the same data.
Folds of a cross-validation run are independent of each other; the report
is assembled in a single reduction at the end.

Every evaluation runs through one driver, ``_run_splits``. It takes
splits ``(train rows, test rows)`` of one corpus encoding
(``features.CorpusEncoding``), which extracts each example once, under
feature set 1; feature sets 2 and 3 are column ranges of it. The splits
of a cross-validation are its folds. A closed test has one split, every
row on every row. A cross-domain evaluation encodes the training corpus
followed by the test corpus, and its groups are the splits. A grid of
learners and feature sets (``evaluate_grid``, the ``cv --all`` matrix)
runs its folds plus its closed split once per feature set. Each split's
model trains on an ``EncodedDataset`` slice and predicts the split's test
examples from their rows (``CorpusEncoding.held_out``). A slice and its
batch are built once and read by every learner of the call, as is the
slice's label-count table; the SVM learners' models of every slice and
degree come from one solve. A grid frees each feature set's slices before
it builds the next one's.

An example's features, and so every model's label for it, depend on its
``(sentence, tokens)`` alone. The encoding extracts each distinct pair
once, and every evaluation predicts each distinct pair of a batch once
(``_predict``) and gives its label to every example that repeats it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .corpus import Dataset, FoldPlan, split_folds
from .declist import train_declist
from .features import (CorpusEncoding, EncodedBatch, EncodedDataset, Feature,
                       FeatureSet, distinct_examples, example_features)
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
    the fold, each fold a split of ``_run_splits``."""
    folds = _folds(dataset, plan)
    spec.check(mode)
    scored = _run_splits([spec], CorpusEncoding(dataset), folds, mode)[spec]
    return _evaluate(len(dataset), scored, closed=False)


def closed_test(spec: LearnerSpec, dataset: Dataset, mode: FeatureSet) -> PrecisionReport:
    """Closed evaluation: train on the full dataset and test on it, the one
    split of ``_run_splits``. The baseline rule is not trained on the data,
    so its test is open."""
    spec.check(mode)
    everything = range(len(dataset))
    scored = _run_splits([spec], CorpusEncoding(dataset),
                         [(everything, everything)], mode)[spec]
    return _evaluate(len(dataset), scored, closed=spec.method != "baseline")


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
    the cells run one feature set at a time: the folds and the closed split
    are the splits of one ``_run_splits`` call per feature set."""
    folds = _folds(dataset, plan)
    cells = [(spec, FeatureSet(mode)) for spec, mode in cells]
    for spec, mode in cells:
        spec.check(mode)
    corpus = CorpusEncoding(dataset)  # feature set 1 covers all three
    everything = range(len(dataset))
    splits = folds + [(everything, everything)]
    reports = {}
    for mode in dict.fromkeys(mode for _, mode in cells):
        specs = [spec for spec, m in cells if m == mode]
        for spec, scored in _run_splits(specs, corpus, splits, mode).items():
            reports[spec, mode] = (
                _evaluate(len(dataset), scored[:-1], closed=False),
                _evaluate(len(dataset), scored[-1:], closed=spec.method != "baseline"))
    return reports


def _run_splits(specs, corpus: CorpusEncoding, splits, mode: FeatureSet):
    """The one evaluation driver: ``{spec: [(test rows, batch, labels), ...]}``
    for every learner of ``specs`` on feature set ``mode``, one triple per
    split ``(train rows, test rows)`` of ``splits``, rows of ``corpus``.
    The batch is the test rows' examples, carrying their rows against the
    split's training slice, and the labels are what a model trained on that
    slice predicts for them. Each split's training slice and batch are built
    once and read by every learner, as is each slice's label-count table.
    The SVM learners run first: those of one C train every slice at all
    their degrees in one solve (``svm.train_pairwise_slices``), whose kernel
    is the largest allocation, before any label-count table or other model
    exists. The other learners then run one slice at a time, each model
    freed before the next trains, and each slice, with its table, once they
    are done with it."""
    tests = [test for _, test in splits]
    trains = [EncodedDataset(corpus, train, mode) for train, _ in splits]
    batches = [corpus.held_out(test, train) for test, train in zip(tests, trains)]
    predicted = {spec: [] for spec in specs}  # labels per split
    svms = [spec for spec in predicted if spec.method == "svm"]
    for C in dict.fromkeys(spec.C for spec in svms):
        degrees = tuple(dict.fromkeys(spec.d for spec in svms if spec.C == C))
        models = train_pairwise_slices(trains, C=C, degrees=degrees)
        for spec in svms:
            if spec.C == C:
                first = degrees.index(spec.d) * len(trains)
                predicted[spec] = [_predict(model, batch) for model, batch in
                                   zip(models[first:first + len(trains)], batches)]
        del models
    others = [spec for spec in predicted if spec.method != "svm"]
    for k, batch in enumerate(batches):
        train, trains[k] = trains[k], None
        for spec in others:
            model = fit(spec, train, mode)
            predicted[spec].append(_predict(model, batch))
            del model  # before the next one trains
    return {spec: list(zip(tests, batches, labels))
            for spec, labels in predicted.items()}


def _folds(dataset: Dataset, plan: FoldPlan) -> list[tuple[list[int], list[int]]]:
    """(train indices, test indices) of every fold of ``plan``."""
    if len(plan.assignment) != len(dataset):
        raise ConfigError("fold plan does not match dataset size")
    return [plan.fold_indices(fold) for fold in range(plan.n_folds)]


def evaluate_model(model, dataset: Dataset, closed: bool = False) -> PrecisionReport:
    """Score an already trained model on a dataset."""
    examples = dataset.examples
    return _evaluate(len(dataset), [(range(len(dataset)), examples,
                                     _predict(model, examples))], closed)


def _predict(model, examples) -> list[str]:
    """``model.predict_batch(examples)``, with each distinct ``(sentence,
    tokens)`` predicted once: a prediction is a function of those two
    alone, so a repeat takes its first occurrence's label. An EncodedBatch
    passes on the rows of the first occurrences."""
    firsts, at = distinct_examples(examples)
    if len(firsts) == len(at):
        return model.predict_batch(examples)
    distinct = [examples[i] for i in firsts]
    if isinstance(examples, EncodedBatch):
        distinct = EncodedBatch(distinct, examples.mode, examples.vocab,
                                examples.X.take(firsts))
    labels = model.predict_batch(distinct)
    return [labels[j] for j in at]


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
    # each distinct example's features, counted once per copy of it
    feats = {ex: example_features(ex, mode) for ex in full_keys}
    flip_counts, full_counts = Counter(), Counter()
    for counts, keys in ((flip_counts, flip_keys), (full_counts, full_keys)):
        for ex, copies in keys.items():
            for feat in feats[ex]:
                counts[feat] += copies
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

    # one encoding of both corpora, the test examples after the training
    # ones: each group is a split of training rows and test rows
    spec.check(mode)
    corpus = CorpusEncoding(train.examples + test.examples)
    splits = [(train_without(group), [len(train) + i for i in group])
              for group in groups]
    scored = _run_splits([spec], corpus, splits, mode)[spec]
    return _evaluate(len(test), [(group, batch, labels) for group, (_, batch, labels)
                                 in zip(groups, scored)], closed=False)
