"""Property tests: batched pairwise prediction, the lockstep solver, the
batch finisher, and the joint training of many subsets and of both kernel
degrees against the per-example, per-pair, scalar, per-problem, per-subset
and per-degree reference paths; and a count of the objects that training
and batch prediction no longer build."""

import json
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svm_reference import finish_one, reference_smo, train_pairwise_each
from synth import modality_corpus
from tamkit import svm
from tamkit.cli import main
from tamkit.corpus import Dataset, Example, best_label, serialize_corpus
from tamkit.features import (FeatureSet, FeatureVector, Vocabulary, encode, extract,
                             to_csr)
from tamkit.svm import (
    KKT_TOL,
    BinarySvmModel,
    ConvergenceError,
    PairwiseModel,
    TrainingError,
    classify_pairwise,
    decide,
    train_binary_svm,
    train_pairwise,
    train_pairwise_slices,
)

LABELS = ("a", "b", "c", "d")
TOKENS = ("t0", "t1", "t2", "t3", "t4", "t5")

tokens = st.lists(st.sampled_from(TOKENS), max_size=4).map(tuple)
# few distinct characters, so suffixes are shared and kernels overlap
sentences = st.text(alphabet="xyz", max_size=5)
examples = st.builds(Example, st.sampled_from(LABELS), sentences, tokens)
corpora = (st.lists(examples, min_size=2, max_size=24)
           .map(Dataset)
           .filter(lambda ds: len(ds.label_counts) >= 2))
modes = st.sampled_from(tuple(FeatureSet))
degrees = st.sampled_from((1, 2))


def vectors(model, queries):
    return [extract(ex, model.mode, model.vocab) for ex in queries]


def assert_batch_matches_reference(model, queries):
    fvs = vectors(model, queries)
    assert model.predict_batch(queries) == [classify_pairwise(model, fv)
                                            for fv in fvs]
    raw = model.decision_values(to_csr(fvs, len(model.vocab)))
    for r, fv in enumerate(fvs):
        for j, binary in enumerate(model.models.values()):
            assert raw[r, j] == decide(binary, fv)[0]


@settings(max_examples=60, deadline=None)
@given(corpora, modes, degrees, st.lists(examples, max_size=6))
def test_trained_model_batch_equals_per_example(ds, mode, d, unseen):
    model = train_pairwise(ds, mode, d=d)
    assert_batch_matches_reference(model, list(ds) + unseen)


@settings(max_examples=30, deadline=None)
@given(corpora, modes, degrees, st.lists(examples, max_size=6))
def test_loaded_model_batch_equals_per_example(ds, mode, d, unseen):
    trained = train_pairwise(ds, mode, d=d)
    loaded = PairwiseModel.from_dict(json.loads(json.dumps(trained.to_dict())))
    queries = list(ds) + unseen
    assert_batch_matches_reference(loaded, queries)
    assert loaded.predict_batch(queries) == trained.predict_batch(queries)


# two labels: one pair classifier, whose terms numpy would sum pairwise
pair_corpora = (st.lists(st.builds(Example, st.sampled_from(LABELS[:2]), sentences,
                                   tokens), min_size=2, max_size=24)
                .map(Dataset)
                .filter(lambda ds: len(ds.label_counts) == 2))


def round_trip(model):
    return PairwiseModel.from_dict(json.loads(json.dumps(model.to_dict())))


def assert_rows_alone_match_reference(model, queries):
    # a lone pair and a lone row leave size-1 axes, which numpy drops from a
    # reduction: a lone pair's terms of a lone row are one contiguous run,
    # which it would sum pairwise, not in stored order
    binaries = list(model.models.values())
    for fv in vectors(model, queries):
        raw = model.decision_values(to_csr([fv], len(model.vocab)))
        assert raw.tolist() == [[decide(m, fv)[0] for m in binaries]]
    assert_batch_matches_reference(model, queries)


@settings(max_examples=60, deadline=None)
@given(pair_corpora | corpora, modes, degrees, st.lists(examples, max_size=6),
       st.booleans())
def test_one_pair_and_one_row_decision_values_equal_decide(ds, mode, d, unseen,
                                                           loaded):
    model = train_pairwise(ds, mode, d=d)
    assert_rows_alone_match_reference(round_trip(model) if loaded else model,
                                      list(ds) + unseen)


@st.composite
def hand_built_models(draw, max_labels=None, max_sv=12):
    """Pair models with arbitrary support sets (possibly empty, at most
    ``max_sv``), multipliers and biases, over a small token vocabulary; some
    pairs have no classifier (no vote), possibly all of them."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=2,
                           max_size=max_labels, unique=True))
    labels.sort()
    vocab = Vocabulary.from_dataset(
        Dataset(Example("a", "", (tok,)) for tok in TOKENS), FeatureSet.FS3)
    d = draw(degrees)
    id_sets = st.lists(st.integers(0, len(vocab) - 1), max_size=4)
    models = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if draw(st.booleans()) and draw(st.booleans()):
                continue
            n_sv = draw(st.integers(0, max_sv))
            models[(a, b)] = BinarySvmModel(
                [FeatureVector(draw(id_sets)) for _ in range(n_sv)],
                [draw(st.sampled_from((1, -1))) for _ in range(n_sv)],
                [draw(st.floats(1e-6, 1.0)) for _ in range(n_sv)],
                b=draw(st.sampled_from((0.0, -0.5, 0.5)) | st.floats(-2.0, 2.0)),
                C=1.0, d=d)
    counts = {lab: draw(st.integers(1, 3)) for lab in labels}
    return PairwiseModel(labels, models, counts, vocab,
                         FeatureSet.FS3, C=1.0, d=d)


@settings(max_examples=60, deadline=None)
@given(hand_built_models(max_labels=2, max_sv=40), st.lists(examples, max_size=8),
       st.booleans())
def test_one_pair_hand_built_decision_values_equal_decide(model, queries, loaded):
    # full-precision multipliers: a sum in another order changes last bits;
    # a file lists every pair of labels, so a model whose one pair was
    # skipped cannot be saved and read back
    if loaded and model.pairs:
        model = round_trip(model)
    assert_rows_alone_match_reference(model, queries)


@settings(max_examples=60, deadline=None)
@given(hand_built_models(), st.lists(examples, max_size=8))
def test_hand_built_model_batch_equals_per_example(model, queries):
    # an example with no known token has an empty feature vector
    queries = queries + [Example("a", "", ()), Example("a", "", ("zz",))]
    assert_batch_matches_reference(model, queries)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(("a", "b", "c", "ab", "ba", "b c")), min_size=1,
                max_size=6, unique=True), st.data())
def test_tie_order_picks_best_label(labels, data):
    # tied votes and tied training counts (0 for a label without one):
    # predict_batch's vote winner is that of best_label on every row
    counts = Counter({lab: count for lab in labels
                      if (count := data.draw(st.integers(0, 2)))})
    votes = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=len(labels),
                                        max_size=len(labels)), min_size=1))
    winners = (np.array(votes) * len(labels)
               + svm._tie_order(labels, counts)).argmax(axis=1)
    assert [labels[k] for k in winners.tolist()] == [
        best_label(dict(zip(labels, row)), counts) for row in votes]


def assert_pairs_equal_training_alone(ds, mode, d):
    model = train_pairwise(ds, mode, d=d)
    fvs = vectors(model, ds)
    for (a, b), binary in model.models.items():
        pair = ([(fv, 1) for fv, ex in zip(fvs, ds) if ex.label == a]
                + [(fv, -1) for fv, ex in zip(fvs, ds) if ex.label == b])
        alone = train_binary_svm(pair, d=d)
        assert binary.sv_alpha == alone.sv_alpha
        assert binary.b == alone.b
        assert binary.info["iterations"] == alone.info["iterations"]
        assert binary.support_vectors == alone.support_vectors


@settings(max_examples=20, deadline=None)
@given(corpora, modes, degrees)
def test_pair_models_equal_training_the_pair_alone(ds, mode, d):
    assert_pairs_equal_training_alone(ds, mode, d)


# the fixture only sets module constants, so it may serve every example
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corpora, modes, degrees)
def test_row_cache_pair_models_equal_training_the_pair_alone(row_cache, ds,
                                                             mode, d):
    assert_pairs_equal_training_alone(ds, mode, d)


def test_decision_values_sum_in_stored_order():
    # many support vectors with full-precision multipliers: summing their
    # terms in any order but left to right changes the last bits of some
    rng = random.Random(5)
    vocab = Vocabulary.from_dataset(
        Dataset(Example("a", "", (tok,)) for tok in TOKENS), FeatureSet.FS3)
    n_sv = 40
    binary = BinarySvmModel(
        [FeatureVector(rng.sample(range(len(TOKENS)), rng.randint(0, 4)))
         for _ in range(n_sv)],
        [rng.choice((1, -1)) for _ in range(n_sv)],
        [rng.random() for _ in range(n_sv)],
        b=rng.uniform(-1, 1), C=1.0, d=2)
    model = PairwiseModel(["a", "b"], {("a", "b"): binary}, {"a": 1, "b": 1},
                          vocab, FeatureSet.FS3, C=1.0, d=2)
    queries = [Example("a", "", tuple(rng.sample(TOKENS, rng.randint(0, 5))))
               for _ in range(50)]
    assert_batch_matches_reference(model, queries)


def test_pair_degree_must_match_model_degree():
    vocab = Vocabulary.from_list([["token", "t0"]])
    binary = BinarySvmModel([FeatureVector([0])], [1], [1.0], b=0.0, C=1.0, d=2)
    with pytest.raises(ValueError):
        PairwiseModel(["a", "b"], {("a", "b"): binary}, {"a": 1, "b": 1},
                      vocab, FeatureSet.FS3, C=1.0, d=1)


def test_pair_box_constant_must_match_model_box_constant():
    # the model keeps one C for every pair, which each pair's payload repeats
    vocab = Vocabulary.from_list([["token", "t0"]])
    binary = BinarySvmModel([FeatureVector([0])], [1], [1.0], b=0.0, C=2.0, d=1)
    with pytest.raises(ValueError, match="box constant"):
        PairwiseModel(["a", "b"], {("a", "b"): binary}, {"a": 1, "b": 1},
                      vocab, FeatureSet.FS3, C=1.0, d=1)


@pytest.mark.parametrize("ids", [[5], [2], [-1], [0, 2]])
def test_support_vector_ids_must_fit_the_vocabulary(ids):
    # unchecked, an id past the vocabulary reached the sparse-matrix build,
    # which does not check column indices
    vocab = Vocabulary.from_list([["token", "t0"], ["token", "t1"]])
    binary = BinarySvmModel([FeatureVector([1]), FeatureVector(ids)], [1, -1],
                            [1.0, 1.0], b=0.0, C=1.0, d=1)
    with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
        PairwiseModel(["a", "b"], {("a", "b"): binary}, {"a": 1, "b": 1},
                      vocab, FeatureSet.FS3, C=1.0, d=1)


N_IDS = 5  # feature ids of the solver problems: few, so vectors repeat


@st.composite
def solver_batches(draw):
    """A pool of feature vectors (duplicates likely) and a batch of
    two-class problems of mixed sizes and kernel degrees over it, as
    (indices, labels, degree)."""
    id_sets = st.lists(st.integers(0, N_IDS - 1), max_size=3)
    pool = [FeatureVector(ids) for ids in draw(st.lists(id_sets, min_size=2,
                                                         max_size=16))]
    problems = []
    for _ in range(draw(st.integers(1, 6))):
        idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2,
                            max_size=12))
        signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=len(idx),
                              max_size=len(idx)))
        signs[0], signs[1] = 1.0, -1.0  # both classes present
        problems.append((np.array(idx), np.array(signs), draw(degrees)))
    return pool, problems


def solve(kern, problems, C):
    """Every problem that ``svm._smo`` yields, as ``{p: (alpha, grad,
    iterations)}`` with the padding cut off, after checking that each is
    yielded once and that its padded rows hold its examples and labels and
    zeros past its size."""
    solved = {}
    for ps, G, Y, alpha, grad, n_iter in svm._smo(kern, problems, C):
        assert len(ps) == len(G) == len(Y) == len(alpha) == len(grad)
        for r, p in enumerate(ps):
            assert p not in solved
            idx, y, _ = problems[p]
            n = len(y)
            assert G[r, :n].tolist() == idx.tolist()
            assert Y[r, :n].tolist() == y.tolist()
            assert not G[r, n:].any() and not Y[r, n:].any()
            assert not alpha[r, n:].any()
            solved[p] = alpha[r, :n], grad[r, :n], n_iter
    return solved


def assert_lockstep_equals_scalar(pool, problems, C, kern):
    X = to_csr(pool, N_IDS)
    K = {d: svm._poly(X @ X.T, d) for d in (1, 2)}
    expected, capped = [], None
    for idx, y, d in problems:
        try:
            expected.append(reference_smo(K[d][np.ix_(idx, idx)], y, C, KKT_TOL,
                                          100 * len(y)))
        except ConvergenceError as exc:
            capped = capped or exc
    if capped is not None:
        with pytest.raises(ConvergenceError) as info:
            solve(kern, problems, C)
        assert info.value.dual_value == capped.dual_value
        return
    solved = solve(kern, problems, C)
    assert sorted(solved) == list(range(len(problems)))
    for p, (ref_alpha, ref_grad, ref_iter) in enumerate(expected):
        alpha, grad, n_iter = solved[p]
        assert alpha.tolist() == ref_alpha.tolist()
        assert grad.tolist() == ref_grad.tolist()
        assert n_iter == ref_iter


@settings(max_examples=120, deadline=None)
@given(solver_batches(), st.sampled_from((0.1, 1.0, 10.0)), st.booleans(),
       st.sampled_from((1, 24, svm.SOLVE_TERMS)), st.sampled_from((1, svm.STEP_ROWS)))
def test_lockstep_smo_equals_scalar_solver(batch, C, dense, solve_terms, step_rows):
    # solve_terms < SOLVE_TERMS splits the batch into several chunks; the
    # problems of both degrees share the kernel of x.y + 1; step_rows 1
    # takes every round's step as array operations
    pool, problems = batch
    X = to_csr(pool, N_IDS)
    kern = svm._kernel_matrix(X) if dense else svm.KernelCache(X, 2)
    with mock.patch.object(svm, "SOLVE_TERMS", solve_terms), \
            mock.patch.object(svm, "STEP_ROWS", step_rows):
        assert_lockstep_equals_scalar(pool, problems, C, kern)


@st.composite
def step_operands(draw):
    """The nine operand rows of ``svm._pair_updates`` for up to 12
    problems, and C: multipliers at 0, -0.0 and C, diff == 0 and asum == C,
    quadratic coefficients at or below 0, and signed zero gradients."""
    C = draw(st.sampled_from((0.1, 1.0, 10.0)))
    n = draw(st.integers(1, 12))
    signs = st.sampled_from((1.0, -1.0))
    small = st.integers(0, 4).map(float)
    multipliers = st.sampled_from((0.0, -0.0, C)) | st.floats(0.0, C)
    gradients = st.sampled_from((0.0, -0.0)) | st.floats(-10.0, 10.0)
    rows = [[] for _ in range(9)]
    for _ in range(n):
        y_i, y_j = draw(signs), draw(signs)
        a_i = draw(multipliers)
        a_j = draw(st.sampled_from((a_i, C - a_i)) | multipliers)
        for row, value in zip(rows, (
                y_i, y_j, draw(small), draw(small),
                y_i * y_j * draw(small), draw(gradients), draw(gradients), a_i, a_j)):
            row.append(value)
    return np.array(rows), C


@settings(max_examples=300, deadline=None)
@given(step_operands())
def test_array_step_equals_loop_step(operands):
    rows, C = operands
    loop = np.array(svm._pair_updates(*rows.tolist(), C)).reshape(-1, 2)
    array = svm._pair_updates_array(*rows, C)
    assert array.view(np.int64).tolist() == loop.view(np.int64).tolist()


def test_problems_of_different_sizes_converge_in_one_round():
    # a two-example problem listed twice, and a longer one that also
    # converges after one step: all three leave the solver in one batch,
    # the short rows padded to the longer one's width
    pool = [FeatureVector([0]), FeatureVector([1]), FeatureVector([0])]
    short = (np.array([0, 1]), np.array([1.0, -1.0]), 1)
    longer = (np.array([0, 1, 2]), np.array([1.0, -1.0, 1.0]), 1)
    problems = [short, longer, short]
    kern = svm._kernel_matrix(to_csr(pool, N_IDS))
    batches = [(sorted(ps), Y.shape) for ps, _, Y, *_ in svm._smo(kern, problems, 1.0)]
    assert batches == [([0, 1, 2], (3, 3))]
    assert_lockstep_equals_scalar(pool, problems, 1.0, kern)


def assert_batch_finisher_equals_finishing_each(pool, problems, C):
    kern = svm._kernel_matrix(to_csr(pool, N_IDS))
    try:
        for ps, G, Y, alpha, grad, n_iter in svm._smo(kern, problems, C):
            batch = svm._finish_batch(kern, [problems[p] for p in ps], G, Y,
                                      alpha, grad, n_iter, C)
            assert len(batch.counts) == len(batch.b) == len(ps)
            assert all(len(column) == len(ps) for column in batch.info.values())
            ends = np.cumsum(batch.counts).tolist()
            for r, (p, start, end) in enumerate(zip(ps, [0] + ends, ends)):
                idx, y, d = problems[p]
                n = len(y)
                one = finish_one(kern, idx, y, pool, alpha[r, :n].copy(),
                                 grad[r, :n].copy(), n_iter, C, d)
                # the support vectors are kernel rows, here rows of the pool
                rows = batch.rows[start:end].tolist()
                assert tuple(pool[i] for i in rows) == one.support_vectors
                assert tuple(map(int, batch.y[start:end])) == one.sv_labels
                assert tuple(batch.alpha[start:end].tolist()) == one.sv_alpha
                assert batch.b[r] == one.b
                assert {key: column[r] for key, column in batch.info.items()} \
                    == one.info
    except ConvergenceError:
        pass  # capped problems are never finished


@settings(max_examples=120, deadline=None)
@given(solver_batches(), st.sampled_from((0.1, 1.0, 10.0)))
def test_batch_finisher_equals_finishing_each_problem(batch, C):
    assert_batch_finisher_equals_finishing_each(*batch, C)


# the fixture only sets module constants, so it may serve every example
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(solver_batches(), st.sampled_from((0.1, 1.0, 10.0)))
def test_row_cache_batch_finisher_equals_finishing_each_problem(row_cache, batch, C):
    assert_batch_finisher_equals_finishing_each(*batch, C)


def shared_shape_problems():
    """A pool and problems that converge in one round in shapes shared by
    several of them: a problem listed twice, the same problem on a copy of
    its vectors, and a longer problem listed twice."""
    pool = [FeatureVector(ids) for ids in ([0], [1], [0, 2], [0], [1], [0, 2],
                                           [3], [1, 3])]
    y = np.array([1.0, -1.0, 1.0])
    short, copy = (np.array([0, 1, 2]), y, 2), (np.array([3, 4, 5]), y, 2)
    longer = (np.arange(8), np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0]), 1)
    return pool, [short, longer, copy, short, longer]


@pytest.mark.parametrize("cache", [False, True])
def test_batch_finisher_on_problems_of_one_shape(request, cache):
    # the problems of one shape take one stacked product
    if cache:
        request.getfixturevalue("row_cache")
    pool, problems = shared_shape_problems()
    kern = svm._kernel_matrix(to_csr(pool, N_IDS))
    assert isinstance(kern, svm.KernelCache) == cache
    shapes = []
    for ps, G, Y, alpha, *_ in svm._smo(kern, problems, 1.0):
        _, groups = svm._shape_groups([len(problems[p][1]) for p in ps],
                                      (alpha > svm.ALPHA_FLOOR).sum(axis=1),
                                      [problems[p][2] for p in ps])
        shapes += [stop - start for start, stop, *_ in groups]
    assert sorted(shapes) == [2, 3]
    assert_batch_finisher_equals_finishing_each(pool, problems, 1.0)


# A child process compares the stacked products of _finish_batch with the
# one-problem finisher's (n, a) @ (a,) product, bit for bit: n examples, a
# active multipliers, B problems of one shape, kernel values of degree 1
# and 2. Prints the mismatched shapes.
STACKED_PRODUCTS = """
import numpy as np
rng = np.random.default_rng(0)
mismatched = []
for n in [*range(2, 34), 47, 64, 100, 255, 400]:
    for a in sorted({1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, n // 2, n - 1, n}):
        for d in (1, 2):
            K = rng.integers(1, 9, (4, n, a)).astype(float) ** d
            coef = rng.uniform(-1.0, 1.0, (4, a))
            stacked = np.matmul(K, coef[..., None])[..., 0]
            for b in range(4):
                alone = np.ascontiguousarray(K[b]) @ coef[b].copy()
                if alone.view(np.int64).tolist() != stacked[b].view(np.int64).tolist():
                    mismatched.append((n, a, d, b))
print(mismatched)
"""


def test_stacked_products_equal_products_alone(blas_kernel_envs):
    # numpy runs a stacked matmul's (n, a) @ (a, 1) elements through the
    # gemv of a lone (n, a) @ (a,), so the biases of _finish_batch do not
    # depend on how many problems share a shape, under either kernel
    for env in blas_kernel_envs.values():
        child = subprocess.run([sys.executable, "-c", STACKED_PRODUCTS], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "[]"


def pair_problems(ds, model):
    """The two-class problem of every label pair with examples on both
    sides, in pair order."""
    fvs = vectors(model, ds)
    for a, b in combinations(model.labels, 2):
        pair = ([(fv, 1) for fv, ex in zip(fvs, ds) if ex.label == a]
                + [(fv, -1) for fv, ex in zip(fvs, ds) if ex.label == b])
        if len({lab for _, lab in pair}) == 2:
            yield pair


@settings(max_examples=40, deadline=None)
@given(corpora, modes, degrees, st.data())
def test_capped_pair_raises_as_when_trained_alone(ds, mode, d, data):
    model = train_pairwise(ds, mode, d=d)
    # a cap equal to a pair's iteration count raises: the cap is tested
    # before convergence; one more lets that pair converge
    counts = {m.info["iterations"] for m in model.models.values()}
    max_iter = data.draw(st.sampled_from(
        sorted({1} | counts | {n + 1 for n in counts})))
    expected = None
    for pair in pair_problems(ds, model):
        fvs = [fv for fv, _ in pair]
        X = to_csr(fvs, max([1] + [fv.ids[-1] + 1 for fv in fvs if fv.ids]))
        y = np.array([lab for _, lab in pair], dtype=float)
        try:
            reference_smo(svm._poly(X @ X.T, d), y, 1.0, KKT_TOL, max_iter)
        except ConvergenceError as exc:
            expected = exc
            break
    with mock.patch.object(svm, "MAX_ITER", max_iter):
        if expected is None:
            assert train_pairwise(ds, mode, d=d).to_dict() == model.to_dict()
            return
        with pytest.raises(ConvergenceError) as info:
            train_pairwise(ds, mode, d=d)
        assert info.value.dual_value == expected.dual_value
        assert str(info.value) == str(expected)


def test_iteration_cap_of_one_raises_for_first_pair():
    # every pair is capped; pair (a, b) is the largest problem, so it is
    # solved last, but it is the first pair and the one that raises. Its
    # dual value after one step is 1.0, that of the other two 2/3.
    ds = Dataset([Example(lab, "", toks) for lab, toks in (
        ("a", ("t0", "t1")), ("a", ("t1",)), ("a", ("t2",)),
        ("b", ("t1", "t3")), ("b", ("t3",)), ("b", ("t4",)), ("c", ("t5",)))])
    model = train_pairwise(ds, FeatureSet.FS3)
    first = next(pair_problems(ds, model))
    with mock.patch.object(svm, "MAX_ITER", 1):
        with pytest.raises(ConvergenceError) as alone:
            train_binary_svm(first)
        with pytest.raises(ConvergenceError) as info:
            train_pairwise(ds, FeatureSet.FS3)
    assert info.value.dual_value == alone.value.dual_value == 1.0


@st.composite
def subset_lists(draw, ds):
    """One to four index lists of ``ds`` in dataset order, possibly empty,
    with one label or with a label of ``ds`` missing."""
    masks = st.lists(st.booleans(), min_size=len(ds), max_size=len(ds))
    return [[i for i, keep in enumerate(mask) if keep]
            for mask in draw(st.lists(masks, min_size=1, max_size=4))]


def slices(ds, subsets, mode):
    """The slices of one encoding of ``ds`` that ``subsets`` index."""
    whole = encode(ds, mode)
    return [whole.subset(s) for s in subsets]


def outcome(train):
    """The models ``train()`` returns, as their JSON text and pair
    diagnostics, or the type, message and dual value of what it raises."""
    try:
        models = train()
    except (ValueError, TrainingError) as exc:
        return type(exc), str(exc), getattr(exc, "dual_value", None)
    return [(json.dumps(m.to_dict()), [pair.info for pair in m.models.values()])
            for m in models]


def assert_joint_equals_each(ds, mode, d, data):
    # every subset can train; the last one lacks the last label, when that
    # leaves two labels
    subsets = [s for s in data.draw(subset_lists(ds))
               if len({ds[i].label for i in s}) >= 2]
    without_last = [i for i, ex in enumerate(ds) if ex.label != ds.labels[-1]]
    if len({ds[i].label for i in without_last}) >= 2:
        subsets.append(without_last)
    subsets.append(range(len(ds)))
    joint = outcome(lambda: train_pairwise_slices(slices(ds, subsets, mode),
                                                  degrees=(d,)))
    assert joint == outcome(lambda: train_pairwise_each(ds, subsets, mode, d=d))


@settings(max_examples=40, deadline=None)
@given(corpora, modes, degrees, st.data())
def test_joint_models_equal_training_each_subset(ds, mode, d, data):
    assert_joint_equals_each(ds, mode, d, data)


# the fixture only sets module constants, so it may serve every example
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corpora, modes, degrees, st.data())
def test_row_cache_joint_models_equal_training_each_subset(row_cache, ds, mode,
                                                          d, data):
    assert_joint_equals_each(ds, mode, d, data)


@settings(max_examples=60, deadline=None)
@given(corpora, modes, degrees, st.data())
def test_joint_errors_equal_training_each_subset(ds, mode, d, data):
    # an untrainable subset raises, unless an earlier one's pair reaches the
    # iteration cap first: the same error, with the same message and dual
    # value, as training the subsets one by one
    subsets = data.draw(subset_lists(ds))
    max_iter = data.draw(st.sampled_from((None, 1, 2, 3, 5, 8)))
    with mock.patch.object(svm, "MAX_ITER", max_iter):
        joint = outcome(lambda: train_pairwise_slices(slices(ds, subsets, mode),
                                                  degrees=(d,)))
        each = outcome(lambda: train_pairwise_each(ds, subsets, mode, d=d))
    assert joint == each


def test_error_of_first_untrainable_subset_after_a_capped_one():
    # subset 1 has one label; subset 0 trains, so it alone is solved, and
    # its capped pair raises before subset 1's error
    ds = Dataset([Example(lab, "", toks) for lab, toks in (
        ("a", ("t0", "t1")), ("a", ("t1",)), ("b", ("t1", "t3")),
        ("b", ("t3",)), ("c", ("t5",)))])
    subsets = [range(5), [0, 1], [2, 3, 4]]
    with pytest.raises(TrainingError, match="at least 2 labels"):
        train_pairwise_slices(slices(ds, subsets, FeatureSet.FS3))
    with mock.patch.object(svm, "MAX_ITER", 1):
        with pytest.raises(ConvergenceError) as info:
            train_pairwise_slices(slices(ds, subsets, FeatureSet.FS3))
        with pytest.raises(ConvergenceError) as alone:
            train_pairwise(ds, FeatureSet.FS3)
    assert info.value.dual_value == alone.value.dual_value
    assert str(info.value) == str(alone.value)


def each_degree(trains, degrees):
    """The models of ``trains`` at each degree of ``degrees``, one solve
    per degree, one degree after another."""
    return [model for d in degrees
            for model in train_pairwise_slices(trains, degrees=(d,))]


def assert_degrees_in_one_solve_equal_each_degree(ds, mode, data):
    # every subset can train, and the whole dataset is the last one
    subsets = [s for s in data.draw(subset_lists(ds))
               if len({ds[i].label for i in s}) >= 2] + [range(len(ds))]
    trains = slices(ds, subsets, mode)
    degrees = data.draw(st.sampled_from(((1, 2), (2, 1))))
    both = outcome(lambda: train_pairwise_slices(trains, degrees=degrees))
    assert both == outcome(lambda: each_degree(trains, degrees))


@settings(max_examples=40, deadline=None)
@given(corpora, modes, st.data())
def test_degrees_in_one_solve_equal_each_degree(ds, mode, data):
    # support vectors, multipliers, bias and every info key, bit for bit
    assert_degrees_in_one_solve_equal_each_degree(ds, mode, data)


# the fixture only sets module constants, so it may serve every example
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corpora, modes, st.data())
def test_row_cache_degrees_in_one_solve_equal_each_degree(row_cache, ds, mode,
                                                          data):
    assert_degrees_in_one_solve_equal_each_degree(ds, mode, data)


@settings(max_examples=60, deadline=None)
@given(corpora, modes, st.data())
def test_degrees_in_one_solve_raise_as_one_after_another(ds, mode, data):
    # an untrainable subset, or a pair at its iteration cap in either
    # degree: the error that training the degrees one after another raises
    subsets = data.draw(subset_lists(ds))
    degrees = data.draw(st.sampled_from(((1, 2), (2, 1))))
    max_iter = data.draw(st.sampled_from((None, 1, 2, 3, 5, 8, 13)))
    trains = slices(ds, subsets, mode)
    with mock.patch.object(svm, "MAX_ITER", max_iter):
        both = outcome(lambda: train_pairwise_slices(trains, degrees=degrees))
        each = outcome(lambda: each_degree(trains, degrees))
    assert both == each


def test_second_degree_capped_or_untrainable_slice_after_it():
    # pair (a, b) takes 17 iterations at d=1 and 21 at d=2, so a cap of 18
    # stops only the second degree; a later one-label slice stops the first
    # degree before the second runs
    ds = Dataset([Example(lab, "", toks) for lab, toks in (
        ("a", ("t0", "t1")), ("a", ("t1",)), ("a", ("t2",)),
        ("b", ("t1", "t3")), ("b", ("t3",)), ("b", ("t4",)), ("c", ("t5",)))])
    assert [m.info["iterations"] for d in (1, 2)
            for m in train_pairwise(ds, FeatureSet.FS3, d=d).models.values()
            ][::3] == [17, 21]
    with mock.patch.object(svm, "MAX_ITER", 18):
        for subsets, error in (([range(7)], ConvergenceError),
                               ([range(7), [0, 1, 2]], TrainingError)):
            trains = slices(ds, subsets, FeatureSet.FS3)
            both = outcome(lambda: train_pairwise_slices(trains, degrees=(1, 2)))
            assert both == outcome(lambda: each_degree(trains, (1, 2)))
            assert both[0] is error


@pytest.mark.parametrize("argv", [["--method", "svm", "--d", "2"], ["--all"]])
def test_cv_builds_no_pair_classifier_objects(tmp_path, monkeypatch, argv):
    # the pair classifiers stay packed arrays from the solver to the vote:
    # neither training nor batch prediction builds a BinarySvmModel or a
    # support-vector FeatureVector; only the models view does
    built = Counter()
    init, vector = svm.BinarySvmModel.__init__, svm.FeatureVector

    def counted_init(self, *args, **kwargs):
        built["BinarySvmModel"] += 1
        init(self, *args, **kwargs)

    def counted_vector(*args):
        built["FeatureVector"] += 1
        return vector(*args)

    monkeypatch.setattr(svm.BinarySvmModel, "__init__", counted_init)
    monkeypatch.setattr(svm, "FeatureVector", counted_vector)
    ds = modality_corpus(40, seed=2)
    corpus = tmp_path / "c.tsv"
    corpus.write_text(serialize_corpus(ds), encoding="utf-8")
    assert main(["cv", "-i", str(corpus), "--folds", "3", "-o",
                 str(tmp_path / "out")] + argv) == 0
    assert not built
    model = train_pairwise(ds, FeatureSet.FS1)
    assert not built
    n_pairs = len(model.pairs)
    assert len(model.models) == built["BinarySvmModel"] == n_pairs
    assert 0 < built["FeatureVector"] <= sum(
        len(m.support_vectors) for m in model.models.values())
