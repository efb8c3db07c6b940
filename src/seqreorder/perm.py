"""Permutation recovery: Sinkhorn normalization, rounding, and the loss.

Sinkhorn runs in the log domain (Mena et al. 2018) on one n x n matrix of
finite log-scores or on a stack of them, shape (..., n, n); every matrix
in the stack is normalized on its own, by alternating row and column
steps (column last, so column sums are exact). A step subtracts the
log-sum-exp along its axis,

    out[p,j]  =  in[p,j] - log sum_q exp(in[p,q]),

so the result is log Q. The step subtracts the maximum first, so every
exponential lies in [0, 1] and finite log-scores stay finite however
wide their range. Its Jacobian is

    d out[p,j] / d in[p,q]  =  [[j == q]]  -  exp(out[p,q]),

so the row step's vector-Jacobian product is g - exp(out) * (row sum of
g), and the column step is its transpose. Chaining these through all m
steps gives the exact gradient of any scalar loss on log Q with respect
to the log-scores. The recovered permutation is the assignment that maximizes
the matched total of Q; rounding and the loss take one matrix at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np
from scipy.optimize import linear_sum_assignment

from .augment import ShuffleMatrix
from .errors import NumericError, ValidationError

TRAIN_SINKHORN_M = 10
EVAL_SINKHORN_M = 50

# Sums over the last axis normalize rows, over the second-to-last columns.
_ROW, _COL = -1, -2


@dataclass(frozen=True)
class SinkhornConfig:
    """Number of row+column normalization steps."""

    m: int = TRAIN_SINKHORN_M

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValidationError(f"m must be >= 0, got {self.m}")


def _as_square(q, stack: bool = False) -> np.ndarray:
    """q as float64: one square matrix, or with ``stack`` a (..., n, n) stack."""
    arr = np.asarray(q, dtype=np.float64)
    if arr.ndim < 2 or (arr.ndim > 2 and not stack) or arr.shape[-1] != arr.shape[-2]:
        kind = "a stack of square matrices" if stack else "a square matrix"
        raise ValidationError(f"expected {kind}, got shape {arr.shape}")
    return arr


def _as_scores(log_scores) -> np.ndarray:
    x = _as_square(log_scores, stack=True)
    if not np.isfinite(x).all():
        raise NumericError("log-score matrix contains non-finite entries")
    return x


def _forward_steps(x: np.ndarray, m: int):
    """Run m row+column steps, keeping the output and axis of every step."""
    steps = []
    for _ in range(m):
        for axis in (_ROW, _COL):
            x = x - x.max(axis=axis, keepdims=True)
            x -= np.log(np.exp(x).sum(axis=axis, keepdims=True))
            steps.append((x, axis))
    return x, steps


def sinkhorn(log_scores, config: SinkhornConfig = SinkhornConfig()) -> np.ndarray:
    """Alternate row and column normalization m times (column last); log Q.

    ``log_scores`` is one matrix or a (..., n, n) stack; the result has its
    shape. m = 0 returns a copy of the input. For m >= 1 every column of
    exp(log Q) sums to 1 exactly (up to rounding) and row sums converge to
    1 as m grows.
    """
    x = _as_scores(log_scores)
    if config.m == 0:
        return x.copy()
    return _forward_steps(x, config.m)[0]


def sinkhorn_backward(log_scores, config: SinkhornConfig, upstream) -> np.ndarray:
    """Exact gradient of a scalar loss through m normalization steps.

    ``upstream`` is the loss gradient with respect to log Q, shaped like
    ``log_scores``; the return value is the loss gradient with respect to
    the log-scores. m = 0 passes the gradient through unchanged.
    """
    x = _as_scores(log_scores)
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != x.shape:
        raise ValidationError(
            f"upstream gradient shape {g.shape} does not match matrix shape {x.shape}"
        )
    if config.m == 0:
        return g.copy()
    _, steps = _forward_steps(x, config.m)
    for out, axis in reversed(steps):
        g = g - np.exp(out) * g.sum(axis=axis, keepdims=True)
    return g


def _lexicographic_refine(entries: np.ndarray) -> np.ndarray:
    """Among maximum-total assignments, pick the lexicographically smallest.

    Greedy over slots: fix sigma(i) to the smallest column whose best
    completion ties the best achievable total. Totals are compared with
    fsum, which is grouping-independent, so ties are decided exactly.
    """
    n = entries.shape[0]
    used = np.zeros(n, dtype=bool)
    prefix: list[float] = []
    sigma = np.empty(n, dtype=np.int64)
    for i in range(n):
        best_j = -1
        best_total = -np.inf
        for j in range(n):
            if used[j]:
                continue
            free_cols = np.flatnonzero(~used)
            free_cols = free_cols[free_cols != j]
            completion: list[float] = []
            if i + 1 < n:
                sub = entries[np.ix_(np.arange(i + 1, n), free_cols)]
                r, c = linear_sum_assignment(sub, maximize=True)
                completion = [float(sub[a, b]) for a, b in zip(r, c)]
            total = fsum(prefix + [float(entries[i, j])] + completion)
            if total > best_total:
                best_total = total
                best_j = j
        sigma[i] = best_j
        used[best_j] = True
        prefix.append(float(entries[i, best_j]))
    return sigma


def round_to_permutation(q) -> ShuffleMatrix:
    """The assignment maximizing the matched total; ties break toward the
    lexicographically smallest permutation."""
    entries = _as_square(q)
    if not np.isfinite(entries).all():
        raise NumericError("matrix contains non-finite entries")
    rows, cols = linear_sum_assignment(entries, maximize=True)
    perm = np.asarray(cols, dtype=np.int64)
    if np.unique(entries).size < entries.size:
        # Duplicate entries can produce ties; re-derive lexicographically.
        perm = _lexicographic_refine(entries)
    return ShuffleMatrix(perm)


def reorder_loss_grad(p: ShuffleMatrix, log_q) -> tuple[float, np.ndarray]:
    """Mean negative log of the matched entries, -(1/n) sum_i log Q[i][p(i)],
    plus its gradient with respect to log Q.

    The loss reads log Q directly, so it is finite for every finite log Q,
    and zero exactly when every matched entry is 1. Every matched entry
    gets gradient -1/n, however small its Q; the rest get 0.
    """
    entries = _as_square(log_q)
    if p.n != entries.shape[0]:
        raise ValidationError(
            f"permutation over {p.n} slots does not match matrix of size {entries.shape[0]}"
        )
    n = p.n
    idx = np.arange(n)
    loss = float(-np.mean(entries[idx, p.perm]))
    grad = np.zeros_like(entries)
    grad[idx, p.perm] = -1.0 / n
    return loss, grad


def reorder_loss(p: ShuffleMatrix, log_q) -> float:
    """The loss of ``reorder_loss_grad`` alone."""
    return reorder_loss_grad(p, log_q)[0]


def permutation_accuracy(predicted: ShuffleMatrix, target: ShuffleMatrix) -> float:
    """Fraction of slots assigned to their true original position."""
    if predicted.n != target.n:
        raise ValidationError(
            f"predicted is over {predicted.n} slots, target over {target.n}"
        )
    return float(np.mean(predicted.perm == target.perm))
