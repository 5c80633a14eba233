"""Soft-margin SVM with a polynomial kernel, plus one-vs-one multiclass voting.

The dual problem

    maximize   L(a) = sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K(x_i, x_j)
    subject to 0 <= a_i <= C,  sum_i a_i y_i = 0

is solved by two-variable analytic coordinate updates on the maximal
KKT-violating pair, stopping when the violation drops below ``KKT_TOL``.
The kernel is K(x, y) = (x.y + 1)^d; for binary vectors x.y is the size of
the feature-id intersection. The decision bias is

    b = -(max over negative examples of b_i + min over positive examples of b_i) / 2
    b_i = sum_j a_j y_j K(x_j, x_i)

with the extrema ranging over all training examples.

Multiclass data is handled pairwise: one binary classifier per unordered
label pair, each trained only on examples of its two labels, combined by
voting. Pairwise trainings are independent; trained models are immutable.

One driver, ``train_pairwise_slices``, trains the pairwise models of many
training slices of one corpus encoding (``features.EncodedDataset``), such
as the folds of a cross-validation and its closed fit, at one or both
kernel degrees, in one solve; ``train_pairwise`` is its one-dataset,
one-degree case. It builds the kernel once over the l corpus rows that the
slices use, straight from the encoding's CSR matrix, within one budget of
``KERNEL_ENTRIES`` values: the dense Gram matrix when l * l fits, above it
an LRU of ``KERNEL_ENTRIES // l`` rows. The kernel holds x.y + 1, whatever
the degree, and a degree-2 problem squares the values it reads. They are
small exact integers, so every squared value equals (x.y + 1)^2 exactly,
the kernel is exactly symmetric, a slice's kernel is exactly its slice,
and neither form can change a model. Every pair problem of every slice
and degree is posed as row indices into the kernel, and ``_train`` (which
also serves ``train_binary_svm``, one problem) hands them all to one
solver, ``_smo``, which runs them in lockstep: padded arrays hold all
problems, each round takes one step of every unfinished problem with a
few array operations, and a problem leaves the arrays when it converges or
reaches its iteration cap. So the problems of both degrees in one chunk
take as many rounds as the slowest of them, not the sum of the degrees'. Each problem does exactly the
arithmetic of the scalar one-problem solver, so its multipliers, gradient
and iteration count are bit-identical to it. The problems that converge in
the same round are finished together by ``_finish_batch``: the bias
extrema and the KKT violation of all of them come from masked extrema over
their padded rows, and only each problem's decision values take a product
of their own, the same one as finishing it alone. So a pair model is
identical to one trained on the pair alone; its support vectors are read
off the kernel's rows against its slice's columns. The scalar solver, the
one-problem finisher and per-subset training are kept in
``tests/svm_reference.py`` as oracles.

A ``PairwiseModel`` stacks the distinct support vectors of all pairs into
one sparse matrix, a row per vocabulary entry, when it is built, and
``predict_batch`` computes every kernel value of a block of test rows (CSR
rows of an encoded batch, or of extracted vectors) with one product. Each
pair then sums its terms left to right in stored support-vector order, so
every raw decision value is bit-identical to ``decide``, and a value of
exactly 0 votes for the positive side in both paths. Both break vote ties
with ``corpus.best_label``. ``decide`` and ``classify_pairwise`` stay as
the reference.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from itertools import combinations

import numpy as np

from .corpus import Dataset, best_label, is_positive_int, read_label_counts, read_list
from .features import (FeatureSet, FeatureVector, Vocabulary, encode, read_mode,
                       rows_against, to_csr)

KKT_TOL = 1e-3         # SMO stops when the maximal violation is at most this
MAX_ITER = None        # SMO iteration cap per problem; None is 100 per example
UPDATE_EPS = 1e-12     # floor for the two-variable quadratic coefficient
ALPHA_FLOOR = 1e-12    # multipliers at or below this are treated as zero
KERNEL_ENTRIES = 1 << 24  # kernel values (128 MB) held: dense Gram up to 4096 examples
BLOCK_TERMS = 1 << 15  # kernel terms per block in PairwiseModel.predict_batch
SOLVE_TERMS = 1 << 16  # padded entries per lockstep chunk of SMO problems


class TrainingError(RuntimeError):
    """Binary training cannot proceed (e.g. a single-class problem)."""


class ConvergenceError(TrainingError):
    """Iteration cap hit before the KKT criterion; carries the best dual value."""

    def __init__(self, message, dual_value):
        super().__init__(message)
        self.dual_value = dual_value


def hyperparameter_error(d, C) -> str | None:
    """What makes ``d`` and ``C`` unfit to train or load an SVM, or None:
    the kernel degree must be the integer 1 or 2 (not a bool), and the box
    constant C a positive, finite number."""
    if not (is_positive_int(d) and d <= 2):
        return "svm kernel degree must be 1 or 2"
    if not (isinstance(C, (int, float)) and not isinstance(C, bool)
            and C > 0 and math.isfinite(C)):
        return "svm box constant C must be positive and finite"
    return None


def kernel(x: FeatureVector, y: FeatureVector, d: int) -> float:
    """(x.y + 1)^d for binary vectors: x.y is the id-set intersection size."""
    return float((x.dot(y) + 1) ** d)


class KernelCache:
    """Rows of x.y + 1 computed on demand with a bounded LRU; a degree-2
    problem squares the values it reads.

    Rows are rebuilt from the sparse example matrix when evicted, so results
    never depend on cache hits. Used when the full Gram matrix would be too
    large to precompute.
    """

    def __init__(self, X, capacity: int):
        self._X = X
        self._Xt = X.T.tocsc()
        self.capacity = max(1, capacity)
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()

    def row(self, i: int) -> np.ndarray:
        cached = self._rows.get(i)
        if cached is not None:
            self._rows.move_to_end(i)
            return cached
        row = _poly(self._X @ self._Xt[:, [i]], 1).ravel()
        self._rows[i] = row
        if len(self._rows) > self.capacity:
            self._rows.popitem(last=False)
        return row

    def gather(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """K[rows[p, m], cols[p, q]] for every p, m and q, as ``(P, M, Q)``."""
        return np.array([[self.row(r)[c] for r in rs] for rs, c in zip(rows, cols)])

    def row_keys(self, rows: np.ndarray) -> np.ndarray:
        """What ``gather_keys`` takes for ``rows``: the rows themselves."""
        return rows

    gather_keys = gather

    def columns(self, idx: np.ndarray, active: np.ndarray) -> np.ndarray:
        """K[idx][:, idx[active]], C-ordered, filled from blocks of 16 rows
        (exact, as the kernel is symmetric), so that no whole transposed
        copy is ever held."""
        cols = np.empty((len(idx), len(active)))
        rows = idx[active].tolist()
        for s in range(0, len(rows), 16):
            cols[:, s:s + 16] = np.array([self.row(r)[idx] for r in rows[s:s + 16]]).T
        return cols


class _DenseGram:
    """Fully precomputed matrix of x.y + 1 for problems that fit in memory."""

    def __init__(self, K: np.ndarray):
        self._K = K

    def gather(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.gather_keys(self.row_keys(rows), cols)

    def row_keys(self, rows: np.ndarray) -> np.ndarray:
        """The flat offsets of ``rows`` in the matrix, for ``gather_keys``."""
        return rows * len(self._K)

    def gather_keys(self, keys: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``gather`` of the rows whose ``row_keys`` are ``keys``: one flat
        take is cheaper than a two-index gather."""
        return np.take(self._K, keys[:, :, None] + cols[:, None, :])

    def columns(self, idx: np.ndarray, active: np.ndarray) -> np.ndarray:
        """K[idx][:, idx[active]], C-ordered. One two-index gather: for the
        few-example problems of pairwise training it is about twice as fast
        as building the flat index of a take."""
        return self._K[idx[:, None], idx[active]]


def _poly(counts, d: int) -> np.ndarray:
    """(counts + 1)^d, in place on the dense copy of a sparse count matrix.
    Counts are small integers, so every kernel value is exact."""
    K = counts.toarray()
    K += 1.0
    if d != 1:
        K **= d
    return K


def _kernel_matrix(X):
    """x.y + 1 for the rows x, y of ``X``, within ``KERNEL_ENTRIES`` values:
    the dense Gram matrix when all l * l fit, else a cache of as many rows
    as fit. The values are the same for every degree: a degree-2 problem
    squares those it reads, which is exact, as they are small integers."""
    l = X.shape[0]
    if l * l <= KERNEL_ENTRIES:
        return _DenseGram(_poly(X @ X.T, 1))
    return KernelCache(X, KERNEL_ENTRIES // l)


def _dual_value(alpha: np.ndarray, grad: np.ndarray) -> float:
    # grad = Q a - 1, so a'Qa = a.(grad + 1) and L = sum(a) - a'Qa/2.
    total = alpha.sum()
    return float(total - 0.5 * (alpha @ grad + total))


def _smo(kern, problems, C: float):
    """Maximal-violating-pair SMO on independent problems sharing one kernel.

    ``problems`` is a list of ``(idx, y, d)``: the indices of a problem's
    examples in ``kern``, their labels (+-1.0), as sequences, and its
    kernel degree, 1 or 2. ``C`` must be positive. Problems are sorted by
    size and solved in lockstep, in chunks of at most ``SOLVE_TERMS``
    padded entries. The problems that
    reach ``KKT_TOL`` in the same round are yielded together, as
    ``(ps, Y, alpha, grad, iterations)``: ``ps`` lists them as indices into
    ``problems``, and row ``r`` of the padded ``Y``, ``alpha`` and ``grad``
    arrays holds problem ``ps[r]``'s labels, multipliers and gradient, with
    label 0 and multiplier 0 past its size. So a caller can finish them
    before the others. A problem that reaches its iteration cap
    (``MAX_ITER``, or 100 per example when None) first is not yielded; after
    the last yield, the first such problem in order raises ConvergenceError.
    """
    C = float(C)
    sizes = [len(y) for _, y, _ in problems]
    caps = [100 * n if MAX_ITER is None else MAX_ITER for n in sizes]
    capped = {}
    order = sorted(range(len(problems)), key=sizes.__getitem__)
    start = 0
    while start < len(order):
        stop = start + 1
        # sorted by size, so the last problem of a chunk sets its width
        while (stop < len(order)
               and (stop + 1 - start) * sizes[order[stop]] <= SOLVE_TERMS):
            stop += 1
        chunk = order[start:stop]
        for ks, Y, alpha, grad, n_iter in _smo_lockstep(
                kern, [problems[p] for p in chunk], [caps[p] for p in chunk], C):
            ps = [chunk[k] for k in ks.tolist()]
            converged = []
            for r, p in enumerate(ps):
                if n_iter < caps[p]:
                    converged.append(r)
                else:
                    capped[p] = _dual_value(alpha[r, :sizes[p]], grad[r, :sizes[p]])
            if converged:
                yield ([ps[r] for r in converged], Y[converged], alpha[converged],
                       grad[converged], n_iter)
        start = stop
    if capped:
        p = min(capped)
        raise ConvergenceError(
            f"SMO did not reach KKT tolerance {KKT_TOL} in {caps[p]} iterations",
            dual_value=capped[p],
        )


def _smo_lockstep(kern, problems, caps, C: float):
    """One SMO step per unfinished problem per round, on padded ``(P, L)``
    arrays; padding has label 0, so it is in neither working-set mask.

    Every problem does exactly the arithmetic of a scalar solver on its own:
    the working set is the first maximal / minimal ``-y * grad`` over the
    masks, the clipped two-variable update runs on Python floats, and the
    gradient update keeps the scalar operand order. A round gathers the
    kernel rows of both working-set members at once, squares them in the
    rows of degree-2 problems, which come first, and updates both columns
    of the masks at once, through flat offsets into the padded arrays that
    change only when rows leave them. The problems that reach their cap or
    ``KKT_TOL`` in a round leave the arrays together, yielded as
    ``(ks, Y, alpha, grad, iterations)``: ``ks`` are their positions in
    ``problems`` and the rest their padded rows.
    """
    # problem of each row: degree 2 first, so that their rows stay a prefix
    ids = np.array(sorted(range(len(problems)), key=lambda p: -problems[p][2]),
                   dtype=np.intp)
    n_squared = sum(d == 2 for *_, d in problems)
    L = max(len(y) for _, y, _ in problems)
    G = np.zeros((len(problems), L), dtype=np.intp)
    Y = np.zeros(G.shape)
    for row, p in enumerate(ids.tolist()):
        idx, y, _ = problems[p]
        G[row, :len(y)] = idx
        Y[row, :len(y)] = y
    alpha = np.zeros(G.shape)
    grad = -np.ones(G.shape)  # gradient of (1/2 a'Qa - sum a), Q_ij = y_i y_j K_ij
    # up: y = +1 with alpha < C, or y = -1 with alpha > 0;
    # low: y = -1 with alpha < C, or y = +1 with alpha > 0
    up, low = Y > 0, Y < 0
    cap = np.asarray(caps)[ids]
    it = min_cap = 0
    relaid = True  # the rows changed: their flat offsets and smallest cap
    while True:
        ij, gap = _working_sets(Y, grad, up, low)
        done = gap <= KKT_TOL
        if it >= min_cap:  # no row reaches its cap before the smallest one
            done |= cap <= it
        if done.any():
            yield ids[done], Y[done], alpha[done], grad[done], it
            keep = ~done
            if not keep.any():
                return
            n_squared = int(np.count_nonzero(keep[:n_squared]))
            ids, cap, ij = ids[keep], cap[keep], ij[keep]
            # one array at a time, so that one old copy at most is alive
            G = G[keep]
            Y = Y[keep]
            alpha = alpha[keep]
            grad = grad[keep]
            up = up[keep]
            low = low[keep]
            relaid = True
        if relaid:
            # flat offsets of each row in the (P, L) arrays and in the
            # (P, 2, L) Q block, and the kernel's row key of every example
            offsets = np.arange(len(ids))[:, None] * L
            q_offsets = offsets * 2 + (0, L, 0)
            keys = kern.row_keys(G)
            min_cap = int(cap.min())
            relaid = False
        flat = offsets + ij  # (P, 2): i, j
        y = Y.take(flat)  # y_i, y_j
        old = alpha.take(flat)
        # Q rows (y_i * y) * K_i and (y_j * y) * K_j, written over the
        # kernel rows; Q_ii = K_ii and Q_jj = K_jj, as y * y = 1
        K = kern.gather_keys(keys.take(flat), G)
        if n_squared:  # (x.y + 1)^2, exact on small integers
            np.square(K[:n_squared], out=K[:n_squared])
        Q = np.multiply(y[:, :, None] * Y[:, None, :], K, out=K)
        # one (9, P) array of the update's operands, read as nine lists
        new = _pair_updates(*np.concatenate((
            y.T, Q.take(q_offsets + ij[:, (0, 1, 1)]).T, grad.take(flat).T,
            old.T)).tolist(), C)
        new = np.fromiter(new, float, len(new)).reshape(-1, 2)
        alpha.put(flat, new)
        # grad += Qi * (new_i - old_i) + Qj * (new_j - old_j)
        Q *= (new - old)[:, :, None]
        grad += np.add(Q[:, 0], Q[:, 1], out=Q[:, 0])
        below_c, above_0 = new < C, new > 0
        positive = y > 0
        up.put(flat, np.where(positive, below_c, above_0))
        low.put(flat, np.where(positive, above_0, below_c))
        it += 1


def _working_sets(Y, grad, up, low):
    """Per row: the first maximal ``-y * grad`` over ``up`` (i) and the
    first minimal one over ``low`` (j), as ``(P, 2)``, and their
    difference."""
    minus_yg = -Y
    minus_yg *= grad
    up_v = np.where(up, minus_yg, -np.inf)
    low_v = np.where(low, minus_yg, np.inf)
    ij = np.empty((len(Y), 2), dtype=np.intp)
    up_v.argmax(axis=1, out=ij[:, 0])
    low_v.argmin(axis=1, out=ij[:, 1])
    rows = np.arange(len(Y))
    return ij, up_v[rows, ij[:, 0]] - low_v[rows, ij[:, 1]]


def _pair_updates(y_i, y_j, K_ii, K_jj, Q_ij, g_i, g_j, a_i, a_j, C: float):
    """The clipped analytic two-variable step of every problem, on floats:
    every new (alpha_i, alpha_j) for the working sets (i, j), in one flat
    list."""
    new = []
    for yi, yj, kii, kjj, qij, gi, gj, ai, aj in zip(
            y_i, y_j, K_ii, K_jj, Q_ij, g_i, g_j, a_i, a_j):
        if yi != yj:
            quad = kii + kjj + 2.0 * qij
            if quad <= 0.0:
                quad = UPDATE_EPS
            delta = (-gi - gj) / quad
            diff = ai - aj
            ai += delta
            aj += delta
            if diff > 0:
                if aj < 0:
                    aj = 0.0
                    ai = diff
                if ai > C:
                    ai = C
                    aj = C - diff
            else:
                if ai < 0:
                    ai = 0.0
                    aj = -diff
                if aj > C:
                    aj = C
                    ai = C + diff
        else:
            quad = kii + kjj - 2.0 * qij
            if quad <= 0.0:
                quad = UPDATE_EPS
            delta = (gi - gj) / quad
            asum = ai + aj
            ai -= delta
            aj += delta
            if asum > C:
                if ai > C:
                    ai = C
                    aj = asum - C
                if aj > C:
                    aj = C
                    ai = asum - C
            else:
                if aj < 0:
                    aj = 0.0
                    ai = asum
                if ai < 0:
                    ai = 0.0
                    aj = asum
        new += (ai, aj)
    return new


class BinarySvmModel:
    """Support vectors with multipliers, labels, bias, and kernel settings."""

    def __init__(self, support_vectors, sv_labels, sv_alpha, b: float, C: float,
                 d: int, info=None):
        self.support_vectors: tuple[FeatureVector, ...] = tuple(support_vectors)
        self.sv_labels: tuple[int, ...] = tuple(map(int, sv_labels))
        self.sv_alpha: tuple[float, ...] = tuple(map(float, sv_alpha))
        self.b = float(b)
        self.C = float(C)
        self.d = int(d)
        self.info = dict(info or {})

    def to_dict(self) -> dict:
        return {
            "sv_ids": [list(v.ids) for v in self.support_vectors],
            "y": list(self.sv_labels),
            "alpha": list(self.sv_alpha),
            "b": self.b,
            "C": self.C,
            "d": self.d,
        }

    @classmethod
    def from_dict(cls, payload) -> "BinarySvmModel":
        """Model from its ``to_dict`` payload. Raises ValueError unless ``d``
        and ``C`` pass :func:`hyperparameter_error`, every support vector
        has a label of -1 or +1, a finite multiplier, and integer feature
        ids, and the bias is finite. ``PairwiseModel`` checks the ids
        against its vocabulary."""
        if error := hyperparameter_error(payload["d"], payload["C"]):
            raise ValueError(error)
        sv_ids, y, alpha = payload["sv_ids"], payload["y"], payload["alpha"]
        if not len(sv_ids) == len(y) == len(alpha):
            raise ValueError(f"{len(sv_ids)} support vectors, {len(y)} labels "
                             f"and {len(alpha)} multipliers")
        if not all(type(i) is int for ids in sv_ids for i in ids):
            raise ValueError("support-vector feature ids must be integers")
        for v in y:
            if v not in (-1, 1):
                raise ValueError(f"support-vector label {v!r} is not -1 or +1")
        if not all(math.isfinite(v) for v in (*alpha, payload["b"])):
            raise ValueError("support-vector multipliers and the bias must be finite")
        return cls(
            (FeatureVector(ids) for ids in sv_ids),
            y,
            alpha,
            payload["b"],
            payload["C"],
            payload["d"],
        )


def train_binary_svm(examples, C: float = 1.0, d: int = 1) -> BinarySvmModel:
    """Solve the dual for a two-class problem.

    ``examples`` is a sequence of (FeatureVector, +-1) pairs; both classes
    must be present. Trained as one problem of ``train_pairwise``. Raises
    ConvergenceError if the iteration cap is hit first.
    """
    vectors = [fv for fv, _ in examples]
    y = np.array([lab for _, lab in examples], dtype=np.float64)
    if len(vectors) == 0:
        raise TrainingError("no training examples")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise TrainingError("labels must be +1 or -1")
    if not ((y > 0).any() and (y < 0).any()):
        raise TrainingError("both classes must be present")
    X = to_csr(vectors, max((v.ids[-1] + 1 for v in vectors if v.ids), default=0))
    return _train(X, [(np.arange(len(y)), y, d)], [vectors], C)[0]


def _train(X, problems, sources, C: float) -> list[BinarySvmModel]:
    """The model of every problem ``(idx, y, d)``, in problem order, all
    solved on one kernel over the rows of the CSR matrix ``X``: ``idx`` are
    the problem's rows of ``X``, ``y`` their labels and ``d`` its kernel
    degree, and ``sources[p][i]`` is the feature vector that problem
    ``p``'s model stores for row ``i``. The problems that converge in the
    same solver round are finished together, by ``_finish_batch``, and
    dropped from ``problems``, so that the solver's arrays and the models
    are not all alive at once."""
    for d in dict.fromkeys(d for *_, d in problems):
        if error := hyperparameter_error(d, C):
            raise TrainingError(error)
    kern = _kernel_matrix(X)
    models = [None] * len(problems)
    for ps, Y, alpha, grad, n_iter in _smo(kern, problems, C):
        batch = _finish_batch(kern, [problems[p] for p in ps],
                              [sources[p] for p in ps], Y, alpha, grad, n_iter, C)
        for p, model in zip(ps, batch):
            models[p] = model
            problems[p] = None
    return models


def _finish_batch(kern, problems, sources, Y: np.ndarray, alpha: np.ndarray,
                  grad: np.ndarray, n_iter: int, C: float) -> list[BinarySvmModel]:
    """The models of problems solved in the same round, as ``_smo`` yields
    them: row ``r`` of the padded ``Y``, ``alpha`` and ``grad`` is the
    problem ``problems[r]``, ``(idx, y, d)`` with its examples ``idx`` in
    the kernel and its degree ``d``, and ``sources[r][i]`` is the feature
    vector that its model stores for kernel row ``i``. Every value equals
    that of finishing each problem on its own: only the decision values
    take a product per problem, of the kernel values it reads (squared at
    degree 2), and the rest are elementwise operations and extrema, which
    padding cannot change."""
    active = alpha > ALPHA_FLOOR
    coef = alpha * Y
    # the active columns of every row, in row order
    active_cols = np.nonzero(active)[1]
    ends = np.cumsum(active.sum(axis=1)).tolist()
    # bias-free decision value of every training example, summed over the
    # active multipliers: one (n, a) @ (a,) product per problem, in the
    # operand order of the one-problem finisher, as a padded or stacked
    # product would sum in another order
    U = np.zeros(Y.shape)
    actives = []
    for r, ((idx, _, d), start, end) in enumerate(zip(problems, [0] + ends, ends)):
        act = active_cols[start:end]
        K = kern.columns(idx, act)
        if d == 2:
            np.square(K, out=K)
        U[r, :len(idx)] = K @ coef[r, act]
        actives.append(act)
    pos, neg = Y > 0, Y < 0
    b = -(np.where(neg, U, -np.inf).max(axis=1)
          + np.where(pos, U, np.inf).min(axis=1)) / 2.0
    # maximal working-set KKT violation: zero iff some bias makes every
    # example optimal
    score = Y - U
    up = (pos & (alpha < C)) | (neg & (alpha > 0))
    low = (neg & (alpha < C)) | (pos & (alpha > 0))
    kkt = np.maximum(0.0, np.where(up, score, -np.inf).max(axis=1)
                     - np.where(low, score, np.inf).min(axis=1))

    models = []
    for r, ((idx, _, d), vectors, act, y, a, b_r, kkt_r) in enumerate(zip(
            problems, sources, actives, Y.tolist(), alpha.tolist(), b.tolist(),
            kkt.tolist())):
        n = len(idx)
        info = {
            "iterations": n_iter,
            "dual_value": _dual_value(alpha[r, :n], grad[r, :n]),
            "kkt_violation": kkt_r,
            "alpha": tuple(a[:n]),
            "n_train": n,
        }
        cols = act.tolist()
        models.append(BinarySvmModel(
            [vectors[i] for i in idx[act].tolist()],
            [y[c] for c in cols],
            [a[c] for c in cols],
            b_r,
            C,
            d,
            info,
        ))
    return models


def decide(model: BinarySvmModel, x: FeatureVector) -> tuple[float, int]:
    """Decision value and its sign (+1 when the value is >= 0)."""
    raw = model.b + sum(
        a * yv * kernel(sv, x, model.d)
        for sv, yv, a in zip(model.support_vectors, model.sv_labels, model.sv_alpha)
    )
    return raw, (1 if raw >= 0 else -1)


class PairwiseModel:
    """One binary classifier per unordered label pair, combined by voting.
    Raises ValueError unless every pair has the model's degree and every
    support-vector feature id is in [0, len(vocab))."""

    def __init__(self, labels, models, label_counts, vocab: Vocabulary,
                 mode: FeatureSet, C: float, d: int):
        self.labels: tuple[str, ...] = tuple(labels)
        # models[(a, b)] decides a (positive side) vs b; pairs sorted a < b
        self.models: dict[tuple[str, str], BinarySvmModel] = dict(models)
        self.label_counts = Counter(label_counts)
        self.vocab = vocab
        self.mode = FeatureSet(mode)
        self.C = float(C)
        self.d = int(d)
        # The batch layout: column c of ``_sv_t`` (a row per vocabulary entry)
        # is the c-th distinct support vector of all pairs. Row j of ``_cols``
        # / ``_coef`` lists pair j's columns and coefficients (alpha * y) in
        # stored order, padded to the longest support set with coefficient
        # 0.0, which added last leaves every running sum unchanged.
        pairs = list(self.models.values())
        if any(m.d != self.d for m in pairs):
            raise ValueError("every pair classifier must use the model's degree")
        label_index = {lab: k for k, lab in enumerate(self.labels)}
        column: dict[FeatureVector, int] = {}
        width = max([1] + [len(m.support_vectors) for m in pairs])
        self._cols = np.zeros((len(pairs), width), dtype=np.intp)
        self._coef = np.zeros((len(pairs), width))
        for j, m in enumerate(pairs):
            n_sv = len(m.support_vectors)
            self._cols[j, :n_sv] = [column.setdefault(sv, len(column))
                                    for sv in m.support_vectors]
            self._coef[j, :n_sv] = [a * yv for yv, a in zip(m.sv_labels, m.sv_alpha)]
        self._bias = np.array([m.b for m in pairs])
        for sv in column:  # ids are sorted
            if sv.ids and (sv.ids[0] < 0 or sv.ids[-1] >= len(vocab)):
                raise ValueError(f"support vector {sv!r} has a feature id "
                                 f"outside [0, {len(vocab)})")
        # padding points at column 0, so keep one even with no support vectors
        self._sv_t = to_csr(list(column) or [FeatureVector()], len(vocab)).T.tocsr()
        # test rows per block, so that one block's terms stay near BLOCK_TERMS
        self._block_rows = max(1, BLOCK_TERMS // max(1, self._cols.size))
        self._pos = np.array([label_index[a] for a, _ in self.models], dtype=np.intp)
        self._neg = np.array([label_index[b] for _, b in self.models], dtype=np.intp)

    def predict(self, example) -> str:
        return self.predict_batch([example])[0]

    def predict_batch(self, examples) -> list[str]:
        """Labels of ``examples``, equal to ``classify_pairwise`` on each.

        Examples are encoded (``features.rows_against``) and scored in
        blocks sized so that a block's rows times padded support-vector
        terms stay near ``BLOCK_TERMS``.
        """
        n_labels = len(self.labels)
        labels: list[str] = []
        X = rows_against(examples, self.mode, self.vocab)
        for start in range(0, X.shape[0], self._block_rows):
            block = X[start:start + self._block_rows]
            n = block.shape[0]
            winners = np.where(self.decision_values(block) >= 0, self._pos, self._neg)
            flat = (np.arange(n)[:, None] * n_labels + winners).ravel()
            votes = np.bincount(flat, minlength=n * n_labels).reshape(n, n_labels)
            labels += [best_label(dict(zip(self.labels, row)), self.label_counts)
                       for row in votes.tolist()]
        return labels

    def decision_values(self, X) -> np.ndarray:
        """Raw decision value of every pair classifier (columns, in
        ``self.models`` order) for every row of the CSR block ``X``, whose
        columns are ``self.vocab``.

        One sparse product with the stacked support vectors gives every
        kernel value. Each pair then sums its terms left to right in stored
        support-vector order, as ``decide`` does, so every value is
        bit-identical to ``decide(m, fv)[0]`` for the row's vector ``fv``.
        """
        K = _poly(X @ self._sv_t, self.d)
        terms = K[:, self._cols]  # (rows, pairs, padded support vectors)
        terms *= self._coef
        # cumsum adds sequentially; a pairwise-summing reduction would not
        return np.cumsum(terms, axis=2, out=terms)[:, :, -1] + self._bias

    def to_dict(self) -> dict:
        return {
            "mode": int(self.mode),
            "C": self.C,
            "d": self.d,
            "labels": list(self.labels),
            "label_counts": sorted(self.label_counts.items()),
            "vocab": self.vocab.to_list(),
            "models": [[a, b, m.to_dict()] for (a, b), m in sorted(self.models.items())],
        }

    @classmethod
    def from_dict(cls, payload) -> "PairwiseModel":
        """Model from its ``to_dict`` payload. Raises ValueError unless the
        labels are a list and every pair of labels with a training count
        has a classifier. Older files may also list labels absent from
        training (without a count), and pairs with one such side, which are
        ignored: each voted for its present side, one vote for every present
        label, changing no winner."""
        if error := hyperparameter_error(payload["d"], payload["C"]):
            raise ValueError(error)
        mode = read_mode(payload["mode"])
        vocab = Vocabulary.from_list(payload["vocab"], mode)
        models = {(a, b): BinarySvmModel.from_dict(m)
                  for a, b, m in payload["models"]}
        label_counts = read_label_counts(payload["label_counts"])
        for pair in combinations(sorted(label_counts), 2):
            if pair not in models:
                raise ValueError(f"no classifier for the label pair {pair}")
        return cls(
            read_list(payload, "labels"),
            models,
            label_counts,
            vocab,
            mode,
            payload["C"],
            payload["d"],
        )


def train_pairwise(dataset: Dataset, mode: FeatureSet, C: float = 1.0,
                   d: int = 1) -> PairwiseModel:
    """Train one binary model per unordered pair of the labels in
    ``dataset``, so both sides of every pair have training examples: the
    one-subset, one-degree case of ``train_pairwise_slices``. Each pair
    model is identical to ``train_binary_svm`` on the pair alone. If a pair
    reaches its iteration cap, the first such pair in pair order raises
    ConvergenceError.
    """
    return train_pairwise_slices([encode(dataset, mode)], C, (d,))[0]


class _SliceVectors(dict):
    """A training slice's rows of ``X`` as feature vectors against its
    columns ``used``: ``self[r]`` is built when first read."""

    def __init__(self, X, used):
        self._ids, self._ends = X.indices, X.indptr.tolist()
        self._local = np.searchsorted(used, np.arange(X.shape[1]))  # a used column's id

    def __missing__(self, r: int) -> FeatureVector:
        ids = self._local[self._ids[self._ends[r]:self._ends[r + 1]]]
        vector = self[r] = FeatureVector(ids.tolist())
        return vector


def train_pairwise_slices(trains, C: float = 1.0, degrees=(1,)) -> list[PairwiseModel]:
    """The pairwise model of each training set of ``trains`` at each kernel
    degree of ``degrees``, degree by degree: ``trains`` are one or more
    slices of one corpus encoding under one feature set
    (``features.EncodedDataset``), and every model comes from one solve on
    one kernel over the corpus rows they use, which the degrees share; each
    equals ``train_pairwise`` of its slice alone at its degree. Errors are
    those of training the degrees one after another, each on the slices one
    by one: the first slice that cannot train (empty, or one label) raises,
    unless a pair of an earlier slice at the first degree reaches its
    iteration cap; otherwise the first pair in (degree, slice, pair) order
    that reaches its cap raises ConvergenceError."""
    trains = list(trains)
    rows = np.unique(np.concatenate([sub.rows for sub in trains]))
    X = trains[0].corpus.rows(rows, trains[0].mode)
    fits, error = [], None
    for sub in trains:
        if len(sub) == 0:
            error = ValueError("cannot train on an empty dataset")
            break
        if len(sub.labels) < 2:
            error = TrainingError("pairwise training needs at least 2 labels")
            break
        by_label: dict[str, list[int]] = {}
        for pos, ex in zip(np.searchsorted(rows, sub.rows).tolist(), sub):
            by_label.setdefault(ex.label, []).append(pos)
        pairs = list(combinations(sub.labels, 2))
        posed = [(np.array(by_label[a] + by_label[b]),
                  np.array([1.0] * len(by_label[a]) + [-1.0] * len(by_label[b])))
                 for a, b in pairs]
        fits.append((sub, pairs, posed, _SliceVectors(X, sub.used)))
    if error is not None:
        if not fits:
            raise error
        # one degree after another, the first one raises: the slice's error,
        # or that of a capped pair before it
        degrees = degrees[:1]
    problems, sources = [], []
    for d in degrees:
        for _, pairs, posed, vectors in fits:
            problems += [(idx, y, d) for idx, y in posed]
            sources += [vectors] * len(pairs)
    models = iter(_train(X, problems, sources, C))
    if error is not None:
        raise error
    return [PairwiseModel(sub.labels, dict(zip(pairs, models)), sub.label_counts,
                          sub.vocab, sub.mode, C, d)
            for d in degrees for sub, pairs, *_ in fits]


def classify_pairwise(model: PairwiseModel, fv: FeatureVector) -> str:
    """One vote per pair classifier; ties break by global training
    frequency, then lexicographic label order."""
    votes = {lab: 0 for lab in model.labels}
    for (a, b), m in model.models.items():
        _, sign = decide(m, fv)
        votes[a if sign > 0 else b] += 1
    return best_label(votes, model.label_counts)
