"""Reference SVM code kept for the tests: the scalar one-problem SMO solver
that ``tamkit.svm._smo`` runs in lockstep over many problems, the midpoint
bias of the KKT conditions, and the per-subset training that
``tamkit.svm.train_pairwise_many`` does in one solve."""

import numpy as np

from tamkit.svm import UPDATE_EPS, ConvergenceError, _dual_value, train_pairwise


def train_pairwise_each(dataset, subsets, mode, C=1.0, d=1):
    """The pairwise model of every subset, each trained on its own: what
    ``train_pairwise_many(dataset, subsets, mode, C, d)`` must return."""
    return [train_pairwise(dataset.subset(s), mode, C, d) for s in subsets]


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
        dual_value=_dual_value(alpha, grad),
    )


def kkt_feasible_bias(u: np.ndarray, y: np.ndarray, alpha: np.ndarray, C: float) -> float:
    """Midpoint of the bias interval implied by the optimality conditions."""
    score = y - u
    pos = y > 0
    up = (pos & (alpha < C)) | (~pos & (alpha > 0))
    low = (~pos & (alpha < C)) | (pos & (alpha > 0))
    return float((score[up].max() + score[low].min()) / 2.0)
