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
slices use, as integer intersection counts straight from the encoding's
binary CSR matrix (``features.BinaryCSR``), within one budget of
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
take as many rounds as the slowest of them, not the sum of the degrees'.
Each problem does exactly the arithmetic of the scalar one-problem solver,
so its multipliers, gradient and iteration count are bit-identical to it.
The problems that converge in the same round are finished together by
``_finish_batch``: the bias extrema and the KKT violation of all of them
come from masked extrema over their padded rows, and only each problem's
decision values take a product of their own, the same one as finishing it
alone. So a pair classifier is identical to one trained on the pair alone.
The scalar solver, the one-problem finisher and per-subset training are
kept in ``tests/svm_reference.py`` as oracles.

No object is built per pair. The pair classifiers stay packed arrays
(``_PairArrays``) from the solver to the vote, as in LIBSVM's one-vs-one
models (Chang & Lin 2011): ``_finish_batch`` writes every problem's
support vectors (the kernel rows of its active multipliers, in stored
order), labels and multipliers into flat arrays, next to every bias and
diagnostic, and ``train_pairwise_slices`` builds each ``PairwiseModel``
from its part of them. A model stores each support vector once, in a
table of the distinct support-vector rows (by content, in its slice's
columns), and each pair as a row of table columns and coefficients
(alpha * y) over it. A model built from ``BinarySvmModel``s (read from a
file, or by hand) fills the same arrays, and ``PairwiseModel.models``
reads the pairs back as ``BinarySvmModel``s, built on first read, for
model files and for ``decide`` and ``classify_pairwise``, which stay as
the reference.

``predict_batch`` computes every kernel value of a block of test rows (rows
of an encoded batch, or of extracted vectors) from one integer product
with the table (the x.y counts, exact in any order), gathers every pair's
terms, padded to the longest support set with coefficient 0, and sums
them in stored support-vector order, so every
raw decision value is bit-identical to ``decide``, and a value of exactly
0 votes for the positive side in both paths. Both break vote ties with
``corpus.best_label``.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .corpus import Dataset, best_label, is_positive_int, read_label_counts, read_list
from .features import (BinaryCSR, FeatureSet, FeatureVector, Vocabulary, encode,
                       read_mode, rows_against, to_csr)

KKT_TOL = 1e-3         # SMO stops when the maximal violation is at most this
MAX_ITER = None        # SMO iteration cap per problem; None is 100 per example
UPDATE_EPS = 1e-12     # floor for the two-variable quadratic coefficient
ALPHA_FLOOR = 1e-12    # multipliers at or below this are treated as zero
KERNEL_ENTRIES = 1 << 24  # kernel values (128 MB) held: dense Gram up to 4096 examples
GRAM_BLOCK = 1 << 18   # kernel values per row block of the dense Gram build
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

    Rows are rebuilt from the binary example matrix when evicted, so results
    never depend on cache hits. Used when the full Gram matrix would be too
    large to precompute.
    """

    def __init__(self, X: BinaryCSR, capacity: int):
        self._X = X
        self._Xt = X.T
        self.capacity = max(1, capacity)
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()

    def row(self, i: int) -> np.ndarray:
        cached = self._rows.get(i)
        if cached is not None:
            self._rows.move_to_end(i)
            return cached
        row = _poly(self._X.block(i, i + 1) @ self._Xt, 1).ravel()
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


def _poly(counts: np.ndarray, d: int) -> np.ndarray:
    """(counts + 1)^d as floats, for an integer matrix of intersection
    counts. Counts are small integers, so every kernel value is exact."""
    K = counts + 1.0
    if d != 1:
        K **= d
    return K


def _kernel_matrix(X):
    """x.y + 1 for the rows x, y of ``X``, within ``KERNEL_ENTRIES`` values:
    the dense Gram matrix when all l * l fit, else a cache of as many rows
    as fit. The values are the same for every degree: a degree-2 problem
    squares those it reads, which is exact, as they are small integers.
    The dense matrix is filled in blocks of about ``GRAM_BLOCK`` values,
    so that the integer counts of all rows are never held beside it."""
    l = X.shape[0]
    if l * l > KERNEL_ENTRIES:
        return KernelCache(X, KERNEL_ENTRIES // l)
    K = np.empty((l, l))
    Xt = X.T
    step = max(1, GRAM_BLOCK // l)
    for start in range(0, l, step):
        np.add(X.block(start, start + step) @ Xt, 1.0, out=K[start:start + step])
    return _DenseGram(K)


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
    ``(ps, G, Y, alpha, grad, iterations)``: ``ps`` lists them as indices
    into ``problems``, and row ``r`` of the padded ``G``, ``Y``, ``alpha``
    and ``grad`` arrays holds problem ``ps[r]``'s examples (its ``idx``),
    labels, multipliers and gradient, with example 0, label 0 and
    multiplier 0 past its size. So a caller can finish them
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
        for ks, G, Y, alpha, grad, n_iter in _smo_lockstep(
                kern, [problems[p] for p in chunk], [caps[p] for p in chunk], C):
            ps = [chunk[k] for k in ks.tolist()]
            converged = []
            for r, p in enumerate(ps):
                if n_iter < caps[p]:
                    converged.append(r)
                else:
                    capped[p] = _dual_value(alpha[r, :sizes[p]], grad[r, :sizes[p]])
            if converged:
                yield ([ps[r] for r in converged], G[converged], Y[converged],
                       alpha[converged], grad[converged], n_iter)
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
    ``(ks, G, Y, alpha, grad, iterations)``: ``ks`` are their positions in
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
            yield ids[done], G[done], Y[done], alpha[done], grad[done], it
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
        has a label of -1 or +1, a finite, non-negative multiplier, and
        integer feature ids, and the bias is finite; a boolean is none of
        these. Multipliers above C load. ``PairwiseModel`` checks the ids
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
            if isinstance(v, bool) or v not in (-1, 1):
                raise ValueError(f"support-vector label {v!r} is not -1 or +1")
        numbers = (*alpha, payload["b"])
        if (any(isinstance(v, bool) for v in numbers)
                or not all(map(math.isfinite, numbers))):
            raise ValueError("support-vector multipliers and the bias must be "
                             "finite numbers")
        if any(a < 0 for a in alpha):
            raise ValueError("support-vector multipliers must not be negative")
        return cls(
            (FeatureVector(ids) for ids in sv_ids),
            y,
            alpha,
            payload["b"],
            payload["C"],
            payload["d"],
        )


class _PairArrays(NamedTuple):
    """Two-class classifiers, packed: classifier ``p`` keeps ``counts[p]``
    support vectors, in stored order, at its offset (``starts()[p]``) in the
    flat ``rows``, ``y`` (+-1.0) and ``alpha``. ``rows`` index the kernel
    rows its solver read, or the support-vector table of a
    ``PairwiseModel``. ``b`` holds every bias, and ``info`` a list of every
    classifier's diagnostic per key."""

    counts: np.ndarray
    rows: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    b: np.ndarray
    info: dict[str, list]

    def starts(self) -> np.ndarray:
        return np.cumsum(self.counts) - self.counts

    def select(self, ps) -> "_PairArrays":
        """The classifiers ``ps``, in that order."""
        ps = np.asarray(ps, dtype=np.intp)
        counts = self.counts[ps]
        starts = np.cumsum(counts) - counts
        flat = np.repeat(self.starts()[ps] - starts, counts) + np.arange(counts.sum())
        return _PairArrays(counts, self.rows[flat], self.y[flat], self.alpha[flat],
                           self.b[ps], {key: [values[p] for p in ps.tolist()]
                                        for key, values in self.info.items()})

    @classmethod
    def concatenate(cls, parts) -> "_PairArrays":
        """The classifiers of every part of ``parts``, part after part."""
        *arrays, infos = zip(*parts)
        return cls(*map(np.concatenate, arrays),
                   {key: [v for info in infos for v in info[key]] for key in infos[0]})

    def binary_models(self, vectors, C: float, d: int) -> list[BinarySvmModel]:
        """Every classifier as a ``BinarySvmModel`` whose support vector of
        row ``r`` is ``vectors[r]``."""
        rows, y, alpha = self.rows.tolist(), self.y.tolist(), self.alpha.tolist()
        ends = np.cumsum(self.counts).tolist()
        infos = ([dict(zip(self.info, values)) for values in zip(*self.info.values())]
                 if self.info else [{}] * len(ends))
        return [BinarySvmModel([vectors[r] for r in rows[s:e]], y[s:e], alpha[s:e],
                               b, C, d, info)
                for s, e, b, info in zip([0] + ends, ends, self.b.tolist(), infos)]


def _distinct_rows(X) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` for the binary matrix ``X``:
    ``X[first]`` are its distinct rows by content, and row ``r`` equals row
    ``first[inverse[r]]``. Rows are compared as their ids, padded with -1,
    each read as one opaque value: a fifth of the cost of ``np.unique``
    with ``axis=0``."""
    lengths = np.diff(X.indptr)
    padded = np.full((X.shape[0], lengths.max(initial=0) + 1), -1,
                     dtype=X.indices.dtype)
    padded[np.repeat(np.arange(X.shape[0]), lengths),
           np.arange(X.nnz) - np.repeat(X.indptr[:-1], lengths)] = X.indices
    rows = padded.view(np.dtype((np.void, padded.itemsize * padded.shape[1])))
    _, first, inverse = np.unique(rows.ravel(), return_index=True,
                                  return_inverse=True)
    return first, inverse


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
    return _train(X, [(np.arange(len(y)), y, d)], C).binary_models(vectors, C, d)[0]


def _train(X, problems, C: float) -> _PairArrays:
    """Every problem ``(idx, y, d)`` solved on one kernel over the rows of
    the binary matrix ``X``, packed in problem order, with its support vectors
    as rows of ``X``: ``idx`` are the problem's rows of ``X``, ``y`` their
    labels and ``d`` its kernel degree. The problems that converge in the
    same solver round are finished together, by ``_finish_batch``, and
    dropped from ``problems``, so that the solver's arrays and the finished
    problems are not all alive at once."""
    for d in dict.fromkeys(d for *_, d in problems):
        if error := hyperparameter_error(d, C):
            raise TrainingError(error)
    kern = _kernel_matrix(X)
    order, batches = [], []
    for ps, G, Y, alpha, grad, n_iter in _smo(kern, problems, C):
        batches.append(_finish_batch(kern, [problems[p] for p in ps], G, Y, alpha,
                                     grad, n_iter, C))
        order += ps
        for p in ps:
            problems[p] = None
    return _PairArrays.concatenate(batches).select(np.argsort(order))


def _finish_batch(kern, problems, G: np.ndarray, Y: np.ndarray, alpha: np.ndarray,
                  grad: np.ndarray, n_iter: int, C: float) -> _PairArrays:
    """The classifiers of problems solved in the same round, as ``_smo``
    yields them, packed in row order: row ``r`` of the padded ``G``, ``Y``,
    ``alpha`` and ``grad`` is the problem ``problems[r]``, ``(idx, y, d)``
    with its examples ``idx`` in the kernel and its degree ``d``, and its
    support vectors are its active rows of ``G``. Every value equals that
    of finishing each problem on its own: only the decision values take a
    product per problem, of the kernel values it reads (squared at degree
    2), and the rest are elementwise operations, extrema and the masked
    entries of the padded rows, which padding cannot change."""
    active = alpha > ALPHA_FLOOR
    coef = alpha * Y
    counts = active.sum(axis=1)
    # the active columns of every row, in row order
    active_cols = np.nonzero(active)[1]
    ends = np.cumsum(counts).tolist()
    # bias-free decision value of every training example, summed over the
    # active multipliers: one (n, a) @ (a,) product per problem, in the
    # operand order of the one-problem finisher, as a padded or stacked
    # product would sum in another order
    U = np.zeros(Y.shape)
    for r, ((idx, _, d), start, end) in enumerate(zip(problems, [0] + ends, ends)):
        act = active_cols[start:end]
        K = kern.columns(idx, act)
        if d == 2:
            np.square(K, out=K)
        U[r, :len(idx)] = K @ coef[r, act]
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
    sizes = [len(idx) for idx, _, _ in problems]
    return _PairArrays(counts, G[active], Y[active], alpha[active], b, {
        "iterations": [n_iter] * len(sizes),
        "dual_value": [_dual_value(alpha[r, :n], grad[r, :n])
                       for r, n in enumerate(sizes)],
        "kkt_violation": kkt.tolist(),
        "n_train": sizes,
    })


def decide(model: BinarySvmModel, x: FeatureVector) -> tuple[float, int]:
    """Decision value and its sign (+1 when the value is >= 0)."""
    raw = model.b + sum(
        a * yv * kernel(sv, x, model.d)
        for sv, yv, a in zip(model.support_vectors, model.sv_labels, model.sv_alpha)
    )
    return raw, (1 if raw >= 0 else -1)


class PairwiseModel:
    """One binary classifier per unordered label pair, combined by voting:
    pair ``(a, b)`` of ``pairs`` decides a (positive side) against b.

    The classifiers are held packed, as ``_PairArrays`` over one table of
    the distinct support vectors of all pairs, whether the model comes from
    ``BinarySvmModel``s (this constructor) or from training. ``models``
    reads them back as ``BinarySvmModel``s. Raises ValueError unless every
    pair has the model's degree and box constant, and every support-vector
    feature id is in [0, len(vocab))."""

    def __init__(self, labels, models, label_counts, vocab: Vocabulary,
                 mode: FeatureSet, C: float, d: int):
        models = dict(models)
        binaries = list(models.values())
        if any(m.d != int(d) or m.C != float(C) for m in binaries):
            raise ValueError("every pair classifier must use the model's degree "
                             "and box constant")
        vectors = [sv for m in binaries for sv in m.support_vectors]
        for sv in vectors:  # ids are sorted
            if sv.ids and (sv.ids[0] < 0 or sv.ids[-1] >= len(vocab)):
                raise ValueError(f"support vector {sv!r} has a feature id "
                                 f"outside [0, {len(vocab)})")
        S = to_csr(vectors, len(vocab))
        first, cols = _distinct_rows(S)
        # the diagnostics that every pair carries
        keys = [k for k in (binaries[0].info if binaries else ())
                if all(k in m.info for m in binaries)]
        arrays = _PairArrays(
            np.array([len(m.support_vectors) for m in binaries], dtype=np.intp),
            cols,
            np.array([v for m in binaries for v in m.sv_labels], dtype=float),
            np.array([a for m in binaries for a in m.sv_alpha], dtype=float),
            np.array([m.b for m in binaries], dtype=float),
            {k: [m.info[k] for m in binaries] for k in keys})
        self._setup(labels, models, label_counts, vocab, mode, C, d, S.take(first),
                    arrays)

    @classmethod
    def _packed(cls, labels, pairs, label_counts, vocab: Vocabulary,
                mode: FeatureSet, C: float, d: int, table, arrays: _PairArrays):
        """The model of the classifiers ``arrays`` of ``pairs``, whose
        ``rows`` index the rows of ``table``, a binary matrix of distinct
        support vectors against ``vocab``."""
        model = cls.__new__(cls)
        model._setup(labels, pairs, label_counts, vocab, mode, C, d, table, arrays)
        return model

    def _setup(self, labels, pairs, label_counts, vocab, mode, C, d, table, arrays):
        self.labels: tuple[str, ...] = tuple(labels)
        self.pairs: tuple[tuple[str, str], ...] = tuple(pairs)
        self.label_counts = Counter(label_counts)
        self.vocab = vocab
        self.mode = FeatureSet(mode)
        self.C = float(C)
        self.d = int(d)
        self._arrays = arrays
        # column c of ``_sv_t`` (a row per vocabulary entry) is row c of the
        # table; padding points at column 0, so keep one even with no
        # support vectors
        if table.shape[0] == 0:
            table = BinaryCSR([0, 0], [], (1, len(vocab)))
        self._table = table
        self._sv_t = table.T
        # The batch layout: entry (k, j) of ``_gather`` / ``_coef`` is the
        # table column / coefficient (alpha * y) of pair j's k-th support
        # vector, padded to the longest support set with coefficient 0.0,
        # which added last leaves every running sum unchanged.
        counts = arrays.counts
        pair = np.repeat(np.arange(len(counts)), counts)
        slot = np.arange(len(pair)) - arrays.starts()[pair]
        shape = (max(1, counts.max(initial=0)), len(counts))
        self._gather = np.zeros(shape, dtype=np.intp)
        self._gather[slot, pair] = arrays.rows
        self._coef = np.zeros(shape)
        self._coef[slot, pair] = arrays.alpha * arrays.y
        # test rows per block, so that one block's terms stay near BLOCK_TERMS
        self._block_rows = max(1, BLOCK_TERMS // max(1, self._gather.size))
        label_index = {lab: k for k, lab in enumerate(self.labels)}
        self._pos = np.array([label_index[a] for a, _ in self.pairs], dtype=np.intp)
        self._neg = np.array([label_index[b] for _, b in self.pairs], dtype=np.intp)

    @cached_property
    def models(self) -> dict[tuple[str, str], BinarySvmModel]:
        """The pair classifiers as ``BinarySvmModel``s, in ``pairs`` order,
        built from the packed arrays when first read."""
        ends, ids = self._table.indptr.tolist(), self._table.indices.tolist()
        vectors = [FeatureVector(ids[s:e]) for s, e in zip(ends, ends[1:])]
        return dict(zip(self.pairs, self._arrays.binary_models(vectors, self.C,
                                                                self.d)))

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
            block = X.block(start, start + self._block_rows)
            n = block.shape[0]
            winners = np.where(self.decision_values(block) >= 0, self._pos, self._neg)
            flat = (np.arange(n)[:, None] * n_labels + winners).ravel()
            votes = np.bincount(flat, minlength=n * n_labels).reshape(n, n_labels)
            labels += [best_label(dict(zip(self.labels, row)), self.label_counts)
                       for row in votes.tolist()]
        return labels

    def decision_values(self, X) -> np.ndarray:
        """Raw decision value of every pair classifier (columns, in
        ``pairs`` order) for every row of the binary block ``X``, whose
        columns are ``self.vocab``.

        One integer product with the support-vector table counts every
        kernel's x.y. Each pair then sums its terms in stored support-vector
        order, as ``decide`` does, so every value is bit-identical to
        ``decide(m, fv)[0]`` for the row's vector ``fv``.
        """
        K = _poly(X @ self._sv_t, self.d)
        terms = K[:, self._gather]  # (rows, padded support vectors, pairs)
        terms *= self._coef
        # the gather lays rows out fastest, so numpy adds each pair's terms
        # one after another; with one pair, the terms of a lone row are one
        # contiguous run, which it would sum pairwise
        if terms.shape[2] == 1:
            return np.cumsum(terms, axis=1)[:, -1] + self._arrays.b
        return terms.sum(axis=1) + self._arrays.b

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
        labels are a list, no label pair is listed twice (in either order),
        and every pair of labels with a training count has a classifier.
        Older files may also list labels absent from training (without a
        count), and pairs with one such side, which are ignored: each voted
        for its present side, one vote for every present label, changing no
        winner."""
        if error := hyperparameter_error(payload["d"], payload["C"]):
            raise ValueError(error)
        mode = read_mode(payload["mode"])
        vocab = Vocabulary.from_list(payload["vocab"], mode)
        models = {}
        for a, b, m in payload["models"]:
            if (a, b) in models or (b, a) in models:
                raise ValueError(f"the label pair {(a, b)} is listed twice")
            models[(a, b)] = BinarySvmModel.from_dict(m)
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


def train_pairwise_slices(trains, C: float = 1.0, degrees=(1,)) -> list[PairwiseModel]:
    """The pairwise model of each training set of ``trains`` at each kernel
    degree of ``degrees``, degree by degree: ``trains`` are one or more
    slices of one corpus encoding under one feature set
    (``features.EncodedDataset``), and every model comes from one solve on
    one kernel over the corpus rows they use, which the degrees share; each
    equals ``train_pairwise`` of its slice alone at its degree. A model's
    support-vector table is the distinct rows, by content, of its
    classifiers' support vectors, in its slice's columns. Errors are
    those of training the degrees one after another, each on the slices one
    by one: the first slice that cannot train (empty, or one label) raises,
    unless a pair of an earlier slice at the first degree reaches its
    iteration cap; otherwise the first pair in (degree, slice, pair) order
    that reaches its cap raises ConvergenceError."""
    trains = list(trains)
    # the corpus rows in use, in order (np.unique would import numpy.ma)
    rows = np.flatnonzero(np.bincount(np.concatenate([sub.rows for sub in trains])))
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
        fits.append((sub, pairs, posed))
    if error is not None:
        if not fits:
            raise error
        # one degree after another, the first one raises: the slice's error,
        # or that of a capped pair before it
        degrees = degrees[:1]
    problems = [(idx, y, d) for d in degrees for *_, posed in fits for idx, y in posed]
    solved = _train(X, problems, C)
    if error is not None:
        raise error
    first, content = _distinct_rows(X)
    models, start = [], 0
    for d in degrees:
        for sub, pairs, _ in fits:
            arrays = solved.select(range(start, start + len(pairs)))
            start += len(pairs)
            classes, cols = np.unique(content[arrays.rows], return_inverse=True)
            models.append(PairwiseModel._packed(
                sub.labels, pairs, sub.label_counts, sub.vocab, sub.mode, C, d,
                X.take(first[classes]).select(sub.used), arrays._replace(rows=cols)))
    return models


def classify_pairwise(model: PairwiseModel, fv: FeatureVector) -> str:
    """One vote per pair classifier; ties break by global training
    frequency, then lexicographic label order."""
    votes = {lab: 0 for lab in model.labels}
    for (a, b), m in model.models.items():
        _, sign = decide(m, fv)
        votes[a if sign > 0 else b] += 1
    return best_label(votes, model.label_counts)
