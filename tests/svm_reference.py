"""Reference SVM code kept for the tests: the scalar one-problem SMO solver
that ``tamkit.svm._smo`` runs in lockstep over many problems, the
one-problem finisher that ``tamkit.svm._finish_batch`` runs on every problem
of a solver round at once, the KKT violation and midpoint bias of the
optimality conditions, and the per-subset training that
``tamkit.svm.train_pairwise_slices`` does in one solve."""

import numpy as np

from tamkit.svm import (ALPHA_FLOOR, UPDATE_EPS, BinarySvmModel, ConvergenceError,
                        _dual_value, train_pairwise)


def train_pairwise_each(dataset, subsets, mode, C=1.0, d=1):
    """The pairwise model of every subset, each trained on its own: what
    ``train_pairwise_slices`` of the subsets' slices of one encoding of
    ``dataset`` must return."""
    return [train_pairwise(dataset.subset(s), mode, C, d) for s in subsets]


def train_pairwise_each_slice(trains, C=1.0, degrees=(1,)):
    """The pairwise model of every training slice at every degree, each
    trained on its own, degree by degree: what
    ``train_pairwise_slices(trains, C, degrees)`` must return."""
    return [train_pairwise(train, train.mode, C, d) for d in degrees
            for train in trains]


def reference_smo(K: np.ndarray, y: np.ndarray, C: float, kkt_tol: float,
                  max_iter: int):
    """Maximal-violating-pair SMO on one problem with kernel matrix ``K``.
    Returns (alpha, grad, iterations)."""
    l = len(y)
    alpha = np.zeros(l)
    grad = -np.ones(l)  # gradient of (1/2 a'Qa - sum a), Q_ij = y_i y_j K_ij
    pos = y > 0
    for it in range(max_iter):
        minus_yg = -y * grad
        up = (pos & (alpha < C)) | (~pos & (alpha > 0))
        low = (~pos & (alpha < C)) | (pos & (alpha > 0))
        up_idx = np.flatnonzero(up)
        low_idx = np.flatnonzero(low)
        i = up_idx[np.argmax(minus_yg[up_idx])]
        j = low_idx[np.argmin(minus_yg[low_idx])]
        if minus_yg[i] - minus_yg[j] <= kkt_tol:
            return alpha, grad, it
        Ki = K[i]
        Kj = K[j]
        Qi = (y[i] * y) * Ki
        Qj = (y[j] * y) * Kj
        old_i = alpha[i]
        old_j = alpha[j]
        if y[i] != y[j]:
            quad = Ki[i] + Kj[j] + 2.0 * Qi[j]
            if quad <= 0.0:
                quad = UPDATE_EPS
            delta = (-grad[i] - grad[j]) / quad
            diff = alpha[i] - alpha[j]
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = diff
            else:
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
            if diff > 0:
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = C - diff
            else:
                if alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = C + diff
        else:
            quad = Ki[i] + Kj[j] - 2.0 * Qi[j]
            if quad <= 0.0:
                quad = UPDATE_EPS
            delta = (grad[i] - grad[j]) / quad
            asum = alpha[i] + alpha[j]
            alpha[i] -= delta
            alpha[j] += delta
            if asum > C:
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = asum - C
            else:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = asum
            if asum > C:
                if alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = asum - C
            else:
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = asum
        grad += Qi * (alpha[i] - old_i) + Qj * (alpha[j] - old_j)
    raise ConvergenceError(
        f"SMO did not reach KKT tolerance {kkt_tol} in {max_iter} iterations",
        dual_value=_dual_value(alpha[None], grad[None])[0],
    )


def finish_one(kern, idx: np.ndarray, y: np.ndarray, vectors, alpha: np.ndarray,
               grad: np.ndarray, n_iter: int, C: float, d: int) -> BinarySvmModel:
    """The model of one solved problem of degree ``d``: its examples are
    ``idx`` in the kernel, with labels ``y``; ``vectors[i]`` is the feature
    vector that the model stores for kernel row ``i``."""
    # bias-free decision value of every training example, summed over the
    # active multipliers: K[idx][:, idx[active]] ** d, filled C-ordered from
    # gathers of a few active rows each (exact, as the kernel is symmetric)
    active = np.flatnonzero(alpha > ALPHA_FLOOR)
    cols = np.empty((len(idx), len(active)))
    for s in range(0, len(active), 16):
        cols[:, s:s + 16] = kern.gather(idx[None, active[s:s + 16]], idx[None])[0].T
    u = cols ** d @ (alpha[active] * y[active])
    b = -(u[y < 0].max() + u[y > 0].min()) / 2.0

    info = {
        "iterations": n_iter,
        "dual_value": _dual_value(alpha[None], grad[None])[0],
        "kkt_violation": kkt_violation(u, y, alpha, C),
        "n_train": len(y),
    }
    return BinarySvmModel(
        (vectors[i] for i in idx[active].tolist()),
        (1 if y[i] > 0 else -1 for i in active),
        alpha[active],
        b,
        C,
        d,
        info,
    )


def kkt_violation(u: np.ndarray, y: np.ndarray, alpha: np.ndarray, C: float) -> float:
    """Maximal working-set KKT violation (zero iff some bias makes every
    example optimal). ``u`` is the bias-free decision value per example."""
    score = y - u
    pos = y > 0
    up = (pos & (alpha < C)) | (~pos & (alpha > 0))
    low = (~pos & (alpha < C)) | (pos & (alpha > 0))
    return float(max(0.0, score[up].max() - score[low].min()))


def kkt_feasible_bias(u: np.ndarray, y: np.ndarray, alpha: np.ndarray, C: float) -> float:
    """Midpoint of the bias interval implied by the optimality conditions."""
    score = y - u
    pos = y > 0
    up = (pos & (alpha < C)) | (~pos & (alpha > 0))
    low = (~pos & (alpha < C)) | (pos & (alpha > 0))
    return float((score[up].max() + score[low].min()) / 2.0)
