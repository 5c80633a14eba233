import random
from itertools import permutations
from unittest import mock

import numpy as np
import pytest

from svm_reference import kkt_feasible_bias, reference_smo
from synth import random_token_corpus
from tamkit import svm
from tamkit.corpus import Dataset, Example
from tamkit.features import (TOKEN, Feature, FeatureSet, FeatureVector,
                             Vocabulary, extract)
from tamkit.svm import (
    BinarySvmModel,
    ConvergenceError,
    PairwiseModel,
    TrainingError,
    classify_pairwise,
    decide,
    kernel,
    train_binary_svm,
    train_pairwise,
)


def gram(vectors, d):
    l = len(vectors)
    return np.array([[kernel(vectors[i], vectors[j], d) for j in range(l)]
                     for i in range(l)])


def dual_value(vectors, y, alpha, d):
    K = gram(vectors, d)
    Q = np.outer(y, y) * K
    a = np.asarray(alpha)
    return float(a.sum() - 0.5 * a @ Q @ a)


def dual_grid_oracle(vectors, y, d, C=1.0, step=0.05):
    """Best dual objective over the feasibility grid (exact integer
    feasibility check, float objective)."""
    l = len(vectors)
    K = gram(vectors, d)
    Q = np.outer(y, y) * K
    ticks = int(round(C / step))
    axes = np.meshgrid(*[np.arange(ticks + 1)] * l, indexing="ij")
    grid = np.stack([ax.ravel() for ax in axes], axis=1)
    feasible = grid @ np.asarray(y, dtype=np.int64) == 0
    a = grid[feasible].astype(np.float64) * step
    values = a.sum(axis=1) - 0.5 * np.einsum("gi,ij,gj->g", a, Q, a)
    return float(values.max())


def full_alpha(model, vectors, y):
    """Every multiplier of the problem that ``model`` was trained on, zeros
    included: those of the scalar reference solver on the same problem,
    after checking that the model keeps exactly its active ones."""
    y = np.asarray(y, dtype=float)
    alpha, _, _ = reference_smo(gram(vectors, model.d), y, model.C, svm.KKT_TOL,
                                100 * len(y))
    assert model.sv_alpha == tuple(alpha[alpha > svm.ALPHA_FLOOR].tolist())
    return alpha


def bias_free_values(train_vectors, model):
    """u_i = sum_j alpha_j y_j K(x_j, x_i) over the retained multipliers."""
    return np.array([
        sum(a * yv * kernel(sv, x, model.d)
            for sv, yv, a in zip(model.support_vectors, model.sv_labels,
                                 model.sv_alpha))
        for x in train_vectors
    ])


def per_example_kkt(train_vectors, y, model, tol):
    """Optimality of every training example under the best feasible bias."""
    u = bias_free_values(train_vectors, model)
    y = np.asarray(y, dtype=float)
    alpha = full_alpha(model, train_vectors, y)
    b = kkt_feasible_bias(u, y, alpha, model.C)
    margins = y * (u + b)
    worst = 0.0
    for i in range(len(y)):
        if alpha[i] <= 1e-9:
            worst = max(worst, 1.0 - margins[i])
        elif alpha[i] >= model.C - 1e-9:
            worst = max(worst, margins[i] - 1.0)
        else:
            worst = max(worst, abs(margins[i] - 1.0))
    return worst


class TestKernel:
    def test_self_inner_product(self):
        x = FeatureVector([1, 2, 3])
        assert kernel(x, x, 1) == 4.0

    def test_disjoint_degree_two(self):
        assert kernel(FeatureVector([1]), FeatureVector([2]), 2) == 1.0

    def test_two_overlap_degree_two(self):
        assert kernel(FeatureVector([1, 2, 3]), FeatureVector([2, 3, 9]), 2) == 9.0


class TestBinaryTraining:
    def test_analytic_two_example_problem(self):
        x1, x2 = FeatureVector([0]), FeatureVector([1])
        model = train_binary_svm([(x1, 1), (x2, -1)], C=1.0, d=1)
        assert sorted(model.sv_alpha) == pytest.approx([1.0, 1.0], abs=1e-6)
        assert model.b == pytest.approx(0.0, abs=1e-6)
        raw1, sign1 = decide(model, x1)
        raw2, sign2 = decide(model, x2)
        assert (raw1, sign1) == (pytest.approx(1.0, abs=1e-6), 1)
        assert (raw2, sign2) == (pytest.approx(-1.0, abs=1e-6), -1)

    def test_sign_of_zero_is_positive(self):
        model = BinarySvmModel([], [], [], b=0.0, C=1.0, d=1)
        assert decide(model, FeatureVector([5])) == (0.0, 1)

    def test_disjoint_input_sees_only_bias(self):
        x1, x2 = FeatureVector([0]), FeatureVector([1])
        model = train_binary_svm([(x1, 1), (x2, -1)], C=1.0, d=1)
        raw, _ = decide(model, FeatureVector([99]))
        # kernel collapses to 1, and the multipliers sum to zero
        assert raw == pytest.approx(model.b, abs=1e-8)

    def test_multiplier_sum_is_zero(self):
        rng = random.Random(21)
        for _ in range(30):
            vectors, y = _random_problem(rng)
            model = train_binary_svm(list(zip(vectors, y)), C=1.0,
                                     d=rng.choice([1, 2]))
            alpha = full_alpha(model, vectors, y)
            assert abs(float(alpha @ np.asarray(y, dtype=float))) <= 1e-8
            assert all(0 < a <= 1.0 for a in model.sv_alpha)

    def test_duplicated_separable_pair_keeps_signs(self):
        x1, x2 = FeatureVector([0]), FeatureVector([1])
        doubled = [(x1, 1), (x2, -1), (x1, 1), (x2, -1)]
        model = train_binary_svm(doubled, C=1.0, d=1)
        vectors = [x1, x2, x1, x2]
        y = [1, -1, 1, -1]
        oracle = dual_grid_oracle(vectors, y, d=1)
        assert model.info["dual_value"] >= oracle - 1e-6
        assert decide(model, x1)[1] == 1
        assert decide(model, x2)[1] == -1

    def test_linearly_separable_training_accuracy(self):
        rng = random.Random(8)
        vectors, y = [], []
        for i in range(20):
            marker = 0 if i % 2 == 0 else 1
            noise = set(rng.sample(range(2, 10), rng.randint(0, 3)))
            vectors.append(FeatureVector({marker} | noise))
            y.append(1 if marker == 0 else -1)
        model = train_binary_svm(list(zip(vectors, y)), C=1.0, d=1)
        for x, lab in zip(vectors, y):
            assert decide(model, x)[1] == lab

    def test_degree_one_equals_weight_vector_form(self):
        rng = random.Random(31)
        for _ in range(20):
            vectors, y = _random_problem(rng, max_feat=6, max_l=8)
            model = train_binary_svm(list(zip(vectors, y)), C=1.0, d=1)
            w = np.zeros(16)
            total = 0.0
            for sv, yv, a in zip(model.support_vectors, model.sv_labels,
                                 model.sv_alpha):
                for fid in sv.ids:
                    w[fid] += a * yv
                total += a * yv
            probe = FeatureVector(rng.sample(range(8), rng.randint(0, 5)))
            explicit = sum(w[fid] for fid in probe.ids) + total + model.b
            assert decide(model, probe)[0] == pytest.approx(explicit, abs=1e-8)

    def test_kkt_holds_for_every_example(self):
        rng = random.Random(17)
        for _ in range(25):
            vectors, y = _random_problem(rng)
            model = train_binary_svm(list(zip(vectors, y)), C=1.0,
                                     d=rng.choice([1, 2]))
            assert model.info["kkt_violation"] <= 1e-3
            assert per_example_kkt(vectors, y, model, 1e-3) <= 1e-3 + 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train_binary_svm([(FeatureVector([0]), 1), (FeatureVector([1]), 1)])

    def test_bad_labels_rejected(self):
        with pytest.raises(TrainingError):
            train_binary_svm([(FeatureVector([0]), 2), (FeatureVector([1]), -1)])

    @pytest.mark.parametrize("C", [0.0, -1.0, float("nan"), float("inf")])
    def test_box_constant_must_be_positive_and_finite(self, C):
        examples = [(FeatureVector([0]), 1), (FeatureVector([1]), -1)]
        with pytest.raises(TrainingError, match="C must be positive and finite"):
            train_binary_svm(examples, C=C)
        with pytest.raises(TrainingError, match="C must be positive and finite"):
            train_pairwise(_uniform_corpus(["a", "b"]), FeatureSet.FS3, C=C)

    def test_iteration_cap_raises_with_dual_value(self):
        examples = [
            (FeatureVector([0]), 1), (FeatureVector([0]), -1),
            (FeatureVector([1]), 1), (FeatureVector([1]), -1),
        ]
        with mock.patch.object(svm, "MAX_ITER", 1), \
                pytest.raises(ConvergenceError) as info:
            train_binary_svm(examples, C=1.0, d=1)
        assert isinstance(info.value.dual_value, float)

    def test_cap_is_tested_before_convergence(self):
        examples = [(FeatureVector([0]), 1), (FeatureVector([1]), -1)]
        with mock.patch.object(svm, "MAX_ITER", 2):
            assert train_binary_svm(examples).info["iterations"] == 1
        with mock.patch.object(svm, "MAX_ITER", 1), \
                pytest.raises(ConvergenceError):
            train_binary_svm(examples)

    def test_cache_path_matches_dense_path(self, request):
        rng = random.Random(4)
        vectors, y = _random_problem(rng, max_l=10)
        dense = train_binary_svm(list(zip(vectors, y)), C=1.0, d=2)
        request.getfixturevalue("row_cache")
        cached = train_binary_svm(list(zip(vectors, y)), C=1.0, d=2)
        assert dense.support_vectors == cached.support_vectors
        assert dense.sv_alpha == cached.sv_alpha
        assert dense.b == cached.b
        assert dense.info == cached.info


def _random_problem(rng, max_l=4, max_feat=4):
    while True:
        l = rng.randint(2, max_l)
        y = [rng.choice([1, -1]) for _ in range(l)]
        if 1 in y and -1 in y:
            break
    vectors = [FeatureVector(rng.sample(range(max_feat), rng.randint(0, max_feat)))
               for _ in range(l)]
    return vectors, y


def test_solver_meets_grid_oracle():
    rng = random.Random(99)
    for _ in range(60):
        vectors, y = _random_problem(rng)
        d = rng.choice([1, 2])
        model = train_binary_svm(list(zip(vectors, y)), C=1.0, d=d)
        oracle = dual_grid_oracle(vectors, y, d=d)
        assert model.info["dual_value"] >= oracle - 1e-6


def _uniform_corpus(labels, n_each=2):
    examples = []
    for i, lab in enumerate(labels):
        for j in range(n_each):
            examples.append(Example(lab, f"s{i}", (f"m{i}", f"n{j}")))
    return Dataset(examples)


class TestPairwise:
    def test_three_labels_three_classifiers(self):
        model = train_pairwise(_uniform_corpus(["a", "b", "c"]), FeatureSet.FS3)
        assert len(model.models) == 3

    def test_two_labels_reduce_to_binary(self):
        ds = _uniform_corpus(["a", "b"], n_each=3)
        model = train_pairwise(ds, FeatureSet.FS3)
        assert len(model.models) == 1
        binary = model.models[("a", "b")]
        for ex in ds:
            fv = extract(ex, FeatureSet.FS3, model.vocab)
            _, sign = decide(binary, fv)
            assert classify_pairwise(model, fv) == ("a" if sign > 0 else "b")

    def test_forty_six_labels_give_1035_classifiers(self):
        labels = [f"L{i:02d}" for i in range(46)]
        model = train_pairwise(_uniform_corpus(labels, n_each=1), FeatureSet.FS3)
        assert len(model.models) == 46 * 45 // 2 == 1035

    def test_cyclic_tie_goes_to_most_frequent(self):
        # hand-built pair models: each decides by whether its positive-side
        # marker feature appears in the query
        def pair_model(pos_feature, neg_feature):
            return BinarySvmModel(
                [FeatureVector([pos_feature]), FeatureVector([neg_feature])],
                [1, -1], [1.0, 1.0], b=0.0, C=1.0, d=1)

        # query holds features 0, 1, 2; pair (a,b) sees 0 on a's side,
        # (b,c) sees 1 on b's side, (a,c) sees 2 on c's side: one vote each
        models = {
            ("a", "b"): pair_model(0, 9),
            ("b", "c"): pair_model(1, 9),
            ("a", "c"): pair_model(9, 2),
        }
        query = FeatureVector([0, 1, 2])
        votes = {}
        for (p, q), m in models.items():
            winner = p if decide(m, query)[1] > 0 else q
            votes[winner] = votes.get(winner, 0) + 1
        assert votes == {"a": 1, "b": 1, "c": 1}  # a genuine cycle
        # the batch path tallies the same votes and breaks the tie alike:
        # by global frequency, then, with equal counts, by label text
        example = Example("a", "t0 t1 t2")
        for label_counts, expected in (({"a": 1, "b": 1, "c": 5}, "c"),
                                       ({"a": 2, "b": 2, "c": 2}, "a")):
            pw = PairwiseModel(
                ["a", "b", "c"], models, label_counts,
                vocab=Vocabulary(Feature(TOKEN, f"t{i}") for i in range(10)),
                mode=FeatureSet.FS3, C=1.0, d=1)
            assert extract(example, FeatureSet.FS3, pw.vocab) == query
            assert classify_pairwise(pw, query) == expected
            assert pw.predict_batch([example]) == [expected]

    def test_vote_tally_covers_all_pairs(self):
        ds = _uniform_corpus(["a", "b", "c", "d"])
        model = train_pairwise(ds, FeatureSet.FS3)
        n = len(model.labels)
        assert len(model.models) == n * (n - 1) // 2

    def test_voting_invariant_under_classifier_order(self):
        ds = random_token_corpus(random.Random(41), max_examples=40, n_labels=3)
        model = train_pairwise(ds, FeatureSet.FS3)
        fv = extract(ds[0], FeatureSet.FS3, model.vocab)
        expected = classify_pairwise(model, fv)
        for order in permutations(model.models.keys()):
            shuffled = PairwiseModel(
                model.labels, {k: model.models[k] for k in order},
                model.label_counts, model.vocab,
                model.mode, model.C, model.d)
            assert classify_pairwise(shuffled, fv) == expected

    def test_fewer_than_two_labels_rejected(self):
        with pytest.raises(TrainingError):
            train_pairwise(_uniform_corpus(["only"]), FeatureSet.FS3)

    def test_serialization_round_trip(self):
        ds = random_token_corpus(random.Random(2), max_examples=30, n_labels=3)
        model = train_pairwise(ds, FeatureSet.FS1, d=2)
        again = PairwiseModel.from_dict(model.to_dict())
        for ex in ds:
            assert model.predict(ex) == again.predict(ex)
