import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxent_reference import expectation_residual
from synth import random_token_corpus
from tamkit.corpus import Dataset, Example
from tamkit import maxent
from tamkit.features import FeatureSet, FeatureVector, extract, to_csr
from tamkit.maxent import MaxEntModel, classify_maxent, train_maxent


def _token_example(label, tokens):
    return Example(label, " ".join(tokens), tuple(tokens))


def _fv(model, tokens):
    return extract(_token_example("?", tokens), model.mode, model.vocab)


class TestClosedForms:
    def test_single_feature_matches_empirical_conditional(self):
        ds = Dataset([_token_example("A", ["f"]), _token_example("A", ["f"]),
                      _token_example("B", ["f"])])
        model = train_maxent(ds, FeatureSet.FS3)
        label, dist = classify_maxent(model, _fv(model, ["f"]))
        assert label == "A"
        assert dist["A"] == pytest.approx(2 / 3, abs=1e-3)

    def test_no_features_gives_uniform(self):
        ds = Dataset([Example("A", "", ()), Example("A", "", ()),
                      Example("B", "", ())])
        model = train_maxent(ds, FeatureSet.FS3)
        _, dist = classify_maxent(model, FeatureVector([]))
        assert dist["A"] == pytest.approx(0.5)
        assert dist["B"] == pytest.approx(0.5)

    def test_two_perfect_predictors(self):
        ds = Dataset([_token_example("A", ["fa"]), _token_example("B", ["fb"])])
        # oracle: coarse grid search over the four weights confirms the
        # likelihood optimum classifies both contexts correctly
        best, best_ok = -np.inf, None
        for waa in (-2, 0, 2):
            for wab in (-2, 0, 2):
                for wba in (-2, 0, 2):
                    for wbb in (-2, 0, 2):
                        pa = np.exp(waa) / (np.exp(waa) + np.exp(wab))
                        pb = np.exp(wbb) / (np.exp(wba) + np.exp(wbb))
                        ll = np.log(pa) + np.log(pb)
                        if ll > best:
                            best, best_ok = ll, (pa > 0.5 and pb > 0.5)
        assert best_ok
        model = train_maxent(ds, FeatureSet.FS3)
        assert classify_maxent(model, _fv(model, ["fa"]))[0] == "A"
        assert classify_maxent(model, _fv(model, ["fb"]))[0] == "B"
        assert model.info["clamped"]  # unseen pairs are driven to the clamp

    def test_empty_vector_with_zero_weights_uniform(self):
        ds = Dataset([_token_example("A", ["f"]), _token_example("B", ["g"])])
        model = train_maxent(ds, FeatureSet.FS3)
        _, dist = classify_maxent(model, FeatureVector([]))
        assert dist["A"] == pytest.approx(0.5)


class TestConstraints:
    def test_residual_small_on_random_corpora(self):
        rng = random.Random(23)
        for _ in range(25):
            ds = random_token_corpus(rng, max_examples=12, n_labels=3,
                                     pool_size=6, max_tokens=3)
            with mock.patch.object(maxent, "GIS_MAX_ITERS", 20000):
                model = train_maxent(ds, FeatureSet.FS3)
            assert expectation_residual(model, ds) <= 1e-3

    def test_distribution_sums_to_one(self):
        rng = random.Random(29)
        ds = random_token_corpus(rng, max_examples=40)
        model = train_maxent(ds, FeatureSet.FS1)
        for ex in list(ds)[:10]:
            _, dist = classify_maxent(
                model, extract(ex, model.mode, model.vocab))
            assert abs(sum(dist.values()) - 1.0) <= 1e-9

    def test_entropy_is_maximal_among_feasible(self):
        # two overlapping features, two labels: the feasible set is a curve,
        # swept by grid search over the conditional distributions
        ds = Dataset([
            _token_example("A", ["f1"]),
            _token_example("B", ["f1", "f2"]),
            _token_example("A", ["f1", "f2"]),
            _token_example("B", ["f2"]),
        ])
        with mock.patch.object(maxent, "GIS_TOL", 1e-6), \
                mock.patch.object(maxent, "GIS_MAX_ITERS", 5000):
            model = train_maxent(ds, FeatureSet.FS3)
        contexts = [["f1"], ["f1", "f2"], ["f2"]]
        weights = np.array([0.25, 0.5, 0.25])  # empirical context rates
        fvs = [_fv(model, toks) for toks in contexts]
        fitted = np.array([classify_maxent(model, fv)[1]["A"] for fv in fvs])

        def constraint_residuals(pa):
            # per (feature, label) expectation, conditional form
            has_f1 = np.array([1.0, 1.0, 0.0])
            has_f2 = np.array([0.0, 1.0, 1.0])
            emp = {("f1", "A"): 0.5, ("f1", "B"): 0.25,
                   ("f2", "A"): 0.25, ("f2", "B"): 0.5}
            res = [
                abs((weights * pa * has_f1).sum() - emp[("f1", "A")]),
                abs((weights * (1 - pa) * has_f1).sum() - emp[("f1", "B")]),
                abs((weights * pa * has_f2).sum() - emp[("f2", "A")]),
                abs((weights * (1 - pa) * has_f2).sum() - emp[("f2", "B")]),
            ]
            return max(res)

        def cond_entropy(pa):
            pa = np.clip(pa, 1e-12, 1 - 1e-12)
            h = -(pa * np.log(pa) + (1 - pa) * np.log(1 - pa))
            return float((weights * h).sum())

        assert constraint_residuals(fitted) <= 1e-3
        grid = np.linspace(0.0, 1.0, 101)
        p1, p2, p3 = (ax.ravel() for ax in np.meshgrid(grid, grid, grid,
                                                       indexing="ij"))
        residual = np.maximum.reduce([
            np.abs(0.25 * p1 + 0.5 * p2 - 0.5),
            np.abs(0.25 * (1 - p1) + 0.5 * (1 - p2) - 0.25),
            np.abs(0.5 * p2 + 0.25 * p3 - 0.25),
            np.abs(0.5 * (1 - p2) + 0.25 * (1 - p3) - 0.5),
        ])
        feasible = residual <= 2e-3
        assert feasible.any()

        def h(p):
            p = np.clip(p, 1e-12, 1 - 1e-12)
            return -(p * np.log(p) + (1 - p) * np.log(1 - p))

        entropies = 0.25 * h(p1) + 0.5 * h(p2) + 0.25 * h(p3)
        best_feasible = float(entropies[feasible].max())
        assert cond_entropy(fitted) >= best_feasible - 5e-3

    def test_training_is_order_invariant(self):
        rng = random.Random(5)
        ds = random_token_corpus(rng, max_examples=30, n_labels=3)
        examples = list(ds)
        rng.shuffle(examples)
        permuted = Dataset(examples)
        a = train_maxent(ds, FeatureSet.FS3)
        b = train_maxent(permuted, FeatureSet.FS3)
        assert np.array_equal(a.weights, b.weights)
        for ex in ds:
            assert a.predict(ex) == b.predict(ex)


class TestTrainingControls:
    def test_stopping_condition_recorded(self):
        ds = Dataset([_token_example("A", ["f"]), _token_example("B", ["f"])])
        model = train_maxent(ds, FeatureSet.FS3)
        assert model.info["stopped_by"] in ("tol", "max_iters")
        with mock.patch.object(maxent, "GIS_MAX_ITERS", 1):
            capped = train_maxent(Dataset([_token_example("A", ["fa"]),
                                           _token_example("B", ["fb"])]),
                                  FeatureSet.FS3)
        assert capped.info["stopped_by"] == "max_iters"
        assert not capped.info["converged"]

    def test_weights_stay_finite_under_clamp(self):
        ds = Dataset([_token_example("A", ["fa"]), _token_example("B", ["fb"])])
        model = train_maxent(ds, FeatureSet.FS3)
        assert np.all(np.isfinite(model.weights))
        assert np.abs(model.weights).max() <= 30.0

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            train_maxent(Dataset([]), FeatureSet.FS3)

    def test_argmax_tie_breaks_by_frequency_then_lexicographic(self):
        ds = Dataset([_token_example("B", ["f"]), _token_example("B", ["f"]),
                      _token_example("A", ["g"])])
        model = train_maxent(ds, FeatureSet.FS3)
        label, dist = classify_maxent(model, FeatureVector([]))
        assert dist["A"] == dist["B"]
        assert label == "B"  # more frequent in training


def test_serialization_round_trip():
    ds = random_token_corpus(random.Random(77), max_examples=25, n_labels=3)
    model = train_maxent(ds, FeatureSet.FS1)
    again = MaxEntModel.from_dict(model.to_dict())
    assert np.array_equal(model.weights, again.weights)
    for ex in ds:
        assert model.predict(ex) == again.predict(ex)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(tuple(FeatureSet)))
def test_batch_prediction_equals_classifying_each(seed, mode):
    # one sparse product over a block gives every row's probabilities
    # bit for bit, as summing each row's weight rows in id order does
    rng = random.Random(seed)
    train = random_token_corpus(rng, max_examples=30, n_labels=3)
    queries = list(train) + list(random_token_corpus(rng, max_examples=20,
                                                     n_labels=4))
    queries.append(Example("A", "", ()))
    model = train_maxent(train, mode)
    fvs = [extract(ex, mode, model.vocab) for ex in queries]
    rows = maxent._classify_rows(model, to_csr(fvs, len(model.vocab)))
    assert model.predict_batch(queries) == [label for label, _ in rows]
    for fv, (label, dist) in zip(fvs, rows):
        assert (label, dist) == classify_maxent(model, fv)
        scores = model.weights[list(fv.ids)].sum(axis=0)
        assert list(dist.values()) == maxent._softmax_rows(scores[None, :])[0].tolist()
