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

Rounding solves the assignment with the Kuhn-Munkres solver below
(shortest augmenting paths with row and column potentials, in plain Python
floats), which also returns every edge's reduced cost. An edge is tight
when its reduced cost is at most ``TIGHT_TOL * (1 + max|entry|)``; every
optimum uses tight edges only. When the tight edges hold a second perfect
matching, the optimum may tie, and the lexicographically smallest of the
assignments with the largest ``fsum`` total is chosen among tight columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, inf

import numpy as np

from .augment import ShuffleMatrix
from .errors import NumericError, ValidationError

TRAIN_SINKHORN_M = 10
EVAL_SINKHORN_M = 50
# An edge is tight when its reduced cost is at most this times
# 1 + max|entry|: far above the rounding of the potentials, and a false
# tight edge costs only a refine, which still decides by fsum.
TIGHT_TOL = 1e-9

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


def _max_assignment(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's column in an assignment of maximum total, and the reduced costs.

    Kuhn-Munkres by shortest augmenting paths (Kuhn 1955; Jonker & Volgenant
    1987) on the costs -entries, in O(n^3). Each row starts at its cheapest
    column when no earlier row took it; every other row is added by growing
    a Dijkstra tree from it over the reduced costs until it reaches a free
    column, whose path is then flipped. The reduced costs
    ``-entries - u[:, None] - v[None, :]`` of the final row and column
    potentials are >= 0 up to rounding and 0 on every edge of every optimum.
    """
    n = entries.shape[0]
    cost = (-entries).tolist()
    u = [min(row) for row in cost]
    v = [0.0] * (n + 1)  # column n is the virtual root of each search tree
    owner = [-1] * (n + 1)  # the row matched to each column
    searched = []
    for i, row in enumerate(cost):
        j = row.index(u[i])
        if owner[j] == -1:
            owner[j] = i
        else:
            searched.append(i)
    parent = [n] * (n + 1)  # the previous column on each shortest path
    for i in searched:
        owner[n] = i
        j0 = n
        tree = [n]
        todo = list(range(n))
        dist = [inf] * n
        while owner[j0] != -1:
            i0 = owner[j0]
            row, ui = cost[i0], u[i0]
            delta, j1 = inf, -1
            for j in todo:
                d = row[j] - ui - v[j]
                if d < dist[j]:
                    dist[j] = d
                    parent[j] = j0
                if dist[j] < delta:
                    delta, j1 = dist[j], j
            for j in tree:
                u[owner[j]] += delta
                v[j] -= delta
            for j in todo:
                dist[j] -= delta
            todo.remove(j1)
            tree.append(j1)
            j0 = j1
        while j0 != n:
            j1 = parent[j0]
            owner[j0] = owner[j1]
            j0 = j1
    cols = [0] * n
    for j in range(n):
        cols[owner[j]] = j
    reduced = -entries - np.add.outer(u, v[:n])
    return np.array(cols, dtype=np.int64), reduced


def _has_other_tight_matching(tight: np.ndarray, cols: np.ndarray) -> bool:
    """Whether the tight edges hold a perfect matching other than ``cols``.

    They do exactly when the arrows from the column of row i to every other
    tight column of row i close a cycle: swapping along it gives a second
    matching. Columns with no arrow out lie on no cycle; peel them off
    (Kahn 1962) until none is left or only cycles remain.
    """
    n = cols.size
    out = [0] * n
    into: list[list[int]] = [[] for _ in range(n)]
    src, dst = np.nonzero(tight[np.argsort(cols)])
    for a, b in zip(src.tolist(), dst.tolist()):
        if a != b:
            out[a] += 1
            into[b].append(a)
    sinks = [a for a in range(n) if out[a] == 0]
    for b in sinks:  # visits the sinks appended below too
        for a in into[b]:
            out[a] -= 1
            if out[a] == 0:
                sinks.append(a)
    return len(sinks) < n


def _lexicographic_refine(entries: np.ndarray, tight: np.ndarray) -> np.ndarray:
    """Among maximum-total assignments, pick the lexicographically smallest.

    Greedy over slots: fix sigma(i) to the smallest column whose best
    completion ties the best achievable total. Totals are compared with
    fsum, which is grouping-independent, so ties are decided exactly. Every
    optimum uses tight edges only, so each slot tries its tight free
    columns, and a slot with one of them takes it without a solve.
    """
    n = entries.shape[0]
    used = np.zeros(n, dtype=bool)
    prefix: list[float] = []
    sigma = np.empty(n, dtype=np.int64)
    for i in range(n):
        candidates = np.flatnonzero(tight[i] & ~used)
        best_j = int(candidates[0])
        if candidates.size > 1:
            best_total = -inf
            rest = np.arange(i + 1, n)
            free_cols = np.flatnonzero(~used)
            for j in candidates:
                sub = entries[np.ix_(rest, free_cols[free_cols != j])]
                completion = sub[np.arange(rest.size), _max_assignment(sub)[0]].tolist()
                total = fsum(prefix + [float(entries[i, j])] + completion)
                if total > best_total:
                    best_total = total
                    best_j = int(j)
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
    perm, reduced = _max_assignment(entries)
    scale = 1.0 + np.abs(entries).max(initial=0.0)
    tight = reduced <= TIGHT_TOL * scale
    if np.count_nonzero(tight) > perm.size and _has_other_tight_matching(tight, perm):
        perm = _lexicographic_refine(entries, tight)
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
