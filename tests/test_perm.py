"""Sinkhorn normalization, its gradient, rounding, and the reordering loss.

Gradients are checked against central finite differences, rounding
against exhaustive search over all permutations, and the stacked Sinkhorn
forward and backward against a per-matrix reference, so every numeric
assertion here has an independent oracle.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqreorder.augment import ShuffleMatrix
from seqreorder.errors import NumericError, ValidationError
from seqreorder.perm import (
    SinkhornConfig,
    permutation_accuracy,
    reorder_loss,
    reorder_loss_grad,
    round_to_permutation,
    sinkhorn,
    sinkhorn_backward,
)


def test_row_normalize_hand_value():
    # rows sum to 8 and 4; the row step gives [[1/4,3/4],[3/4,1/4]], whose
    # columns already sum to 1, so one iteration shows the row step alone
    out = sinkhorn(np.array([[2.0, 6.0], [3.0, 1.0]]), SinkhornConfig(m=1))
    np.testing.assert_allclose(out, [[0.25, 0.75], [0.75, 0.25]])


def test_col_normalize_hand_value():
    # rows already sum to 1, so one iteration shows the column step alone
    out = sinkhorn(np.array([[0.5, 0.5], [0.25, 0.75]]), SinkhornConfig(m=1))
    np.testing.assert_allclose(out, [[2 / 3, 2 / 5], [1 / 3, 3 / 5]])


def test_single_iteration_hand_value():
    # Q = [[4,2],[3,3]]: row norm gives [[2/3,1/3],[1/2,1/2]], whose column
    # sums are 7/6 and 5/6, so one full iteration ends at [[4/7,2/5],[3/7,3/5]].
    q = np.array([[4.0, 2.0], [3.0, 3.0]])
    out = sinkhorn(q, SinkhornConfig(m=1))
    np.testing.assert_allclose(out, [[4 / 7, 2 / 5], [3 / 7, 3 / 5]], rtol=1e-15)


def test_zero_iterations_returns_input():
    q = np.array([[4.0, 2.0], [3.0, 3.0]])
    out = sinkhorn(q, SinkhornConfig(m=0))
    np.testing.assert_array_equal(out, q)
    assert out is not q


def test_column_sums_exact_rows_converge():
    rng = np.random.default_rng(11)
    q = rng.uniform(0.1, 10.0, size=(24, 24))
    out = sinkhorn(q, SinkhornConfig(m=50))
    np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


def test_doubly_stochastic_is_fixed_point():
    rng = np.random.default_rng(5)
    q = rng.uniform(0.1, 10.0, size=(8, 8))
    ds = sinkhorn(q, SinkhornConfig(m=200))
    again = sinkhorn(ds, SinkhornConfig(m=3))
    np.testing.assert_allclose(again, ds, atol=1e-12)


def test_scale_invariance():
    rng = np.random.default_rng(6)
    q = rng.uniform(0.5, 2.0, size=(5, 5))
    a = sinkhorn(q, SinkhornConfig(m=10))
    b = sinkhorn(3.7 * q, SinkhornConfig(m=10))
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_zero_row_raises():
    q = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(NumericError):
        sinkhorn(q, SinkhornConfig(m=1))


def test_nonfinite_raises():
    q = np.array([[1.0, np.inf], [1.0, 1.0]])
    with pytest.raises(NumericError):
        sinkhorn(q, SinkhornConfig(m=1))


@pytest.mark.parametrize(
    "q",
    [
        [[1e-320, 1e10], [1e-320, 1e10]],  # column 0 underflows to zero
        [[1e308, 1e308], [1e308, 1e308]],  # row sums overflow
    ],
)
def test_out_of_range_scores_raise(q):
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError):
            sinkhorn(np.array(q), SinkhornConfig(m=2))
        with pytest.raises(NumericError):
            sinkhorn_backward(np.array(q), SinkhornConfig(m=2), np.ones((2, 2)))


def _fd_grad(q, weights, m, step=1e-6):
    """Central finite differences of L = sum(weights * sinkhorn(q))."""
    grad = np.zeros_like(q)
    for i in range(q.shape[0]):
        for j in range(q.shape[1]):
            qp, qm = q.copy(), q.copy()
            qp[i, j] += step
            qm[i, j] -= step
            lp = float((weights * sinkhorn(qp, SinkhornConfig(m=m))).sum())
            lm = float((weights * sinkhorn(qm, SinkhornConfig(m=m))).sum())
            grad[i, j] = (lp - lm) / (2 * step)
    return grad


@pytest.mark.parametrize("m", [1, 3, 10])
def test_backward_matches_finite_differences(m):
    rng = np.random.default_rng(100 + m)
    q = rng.uniform(0.1, 10.0, size=(5, 5))
    weights = rng.normal(size=(5, 5))
    analytic = sinkhorn_backward(q, SinkhornConfig(m=m), weights)
    fd = _fd_grad(q, weights, m)
    np.testing.assert_allclose(analytic, fd, rtol=0, atol=1e-6 * max(1.0, np.abs(fd).max()))


@settings(max_examples=25, deadline=None)
@given(
    m=st.sampled_from([1, 3, 10]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_backward_finite_difference_property(m, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    q = rng.uniform(0.1, 10.0, size=(n, n))
    weights = rng.normal(size=(n, n))
    analytic = sinkhorn_backward(q, SinkhornConfig(m=m), weights)
    fd = _fd_grad(q, weights, m)
    scale = max(1.0, np.abs(fd).max())
    assert np.abs(analytic - fd).max() <= 1e-6 * scale


def test_backward_one_by_one_is_zero():
    # a 1x1 positive matrix normalizes to [[1]] regardless of the entry
    grad = sinkhorn_backward(np.array([[3.0]]), SinkhornConfig(m=5), np.array([[1.0]]))
    np.testing.assert_allclose(grad, [[0.0]], atol=1e-15)


def _reference_steps(q, m):
    """Per-matrix reference: m row then column normalizations of one 2-D
    matrix, keeping the input and axis of every step."""
    steps = []
    x = q
    for _ in range(m):
        for axis in (1, 0):
            steps.append((x, axis))
            x = x / x.sum(axis=axis, keepdims=True)
    return x, steps


def _reference_backward(q, m, g):
    _, steps = _reference_steps(q, m)
    for x, axis in reversed(steps):
        z = x.sum(axis=axis, keepdims=True)
        g = g / z - (g * x).sum(axis=axis, keepdims=True) / (z * z)
    return g


@pytest.mark.parametrize("m", [0, 1, 10, 50])
@pytest.mark.parametrize("n", [1, 4, 24])
@pytest.mark.parametrize("b", [1, 5, 32])
def test_stacked_sinkhorn_equals_per_matrix_reference(b, n, m):
    rng = np.random.default_rng(1000 * b + 10 * n + m)
    q = np.exp(rng.uniform(-5.0, 5.0, size=(b, n, n)))
    upstream = rng.normal(size=(b, n, n))
    cfg = SinkhornConfig(m=m)
    forward = sinkhorn(q, cfg)
    backward = sinkhorn_backward(q, cfg, upstream)
    assert forward.shape == backward.shape == (b, n, n)
    for i in range(b):
        assert np.array_equal(forward[i], _reference_steps(q[i], m)[0])
        assert np.array_equal(backward[i], _reference_backward(q[i], m, upstream[i]))


def test_stack_keeps_its_leading_axes():
    rng = np.random.default_rng(3)
    q = rng.uniform(0.1, 10.0, size=(2, 3, 4, 4))
    upstream = rng.normal(size=q.shape)
    cfg = SinkhornConfig(m=5)
    assert np.array_equal(
        sinkhorn(q, cfg), sinkhorn(q.reshape(6, 4, 4), cfg).reshape(q.shape)
    )
    assert np.array_equal(
        sinkhorn_backward(q, cfg, upstream),
        sinkhorn_backward(q.reshape(6, 4, 4), cfg, upstream.reshape(6, 4, 4)).reshape(q.shape),
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("m", [0, 3])
def test_bad_entry_in_one_matrix_of_a_stack_raises(bad, m):
    q = np.random.default_rng(4).uniform(0.1, 10.0, size=(5, 4, 4))
    q[3, 2, 1] = bad
    cfg = SinkhornConfig(m=m)
    with pytest.raises(NumericError):
        sinkhorn(q, cfg)
    with pytest.raises(NumericError):
        sinkhorn_backward(q, cfg, np.ones_like(q))


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
def test_non_square_input_raises(shape):
    with pytest.raises(ValidationError):
        sinkhorn(np.ones(shape), SinkhornConfig(m=1))


def test_backward_rejects_mismatched_upstream():
    with pytest.raises(ValidationError):
        sinkhorn_backward(np.ones((2, 3, 3)), SinkhornConfig(m=1), np.ones((3, 3)))


def _brute_force_round(entries):
    """Exhaustive maximizer with lexicographic tie-break (fsum totals)."""
    n = entries.shape[0]
    best_perm, best_total = None, None
    for perm in itertools.permutations(range(n)):
        total = math.fsum(entries[i, perm[i]] for i in range(n))
        if best_total is None or total > best_total:
            best_perm, best_total = perm, total
    ties = [
        perm
        for perm in itertools.permutations(range(n))
        if math.fsum(entries[i, perm[i]] for i in range(n)) == best_total
    ]
    return np.array(min(ties))


@pytest.mark.parametrize("seed", range(30))
def test_rounding_matches_exhaustive_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    if seed % 3 == 0:
        entries = rng.integers(0, 3, size=(n, n)).astype(float)  # tie-heavy
        entries[rng.integers(n), rng.integers(n)] += 0.5
    else:
        entries = rng.uniform(0.0, 1.0, size=(n, n))
    got = round_to_permutation(entries)
    np.testing.assert_array_equal(got.perm, _brute_force_round(entries))


def test_rounding_uniform_matrix_picks_identity():
    ds = np.full((4, 4), 0.25)
    np.testing.assert_array_equal(round_to_permutation(ds).perm, np.arange(4))


def test_reorder_loss_perfect_match_is_zero():
    target = ShuffleMatrix(np.array([2, 0, 1]))
    q = np.zeros((3, 3))
    q[np.arange(3), target.perm] = 1.0
    assert reorder_loss(target, q) == 0.0


def test_reorder_loss_uniform_is_log_n():
    q = np.full((4, 4), 0.25)
    assert reorder_loss(ShuffleMatrix(np.arange(4)), q) == pytest.approx(math.log(4), rel=1e-15)


def test_reorder_loss_hand_value():
    q = np.array([[0.9, 0.1], [0.1, 0.9]])
    identity = ShuffleMatrix(np.arange(2))
    assert reorder_loss(identity, q) == pytest.approx(-math.log(0.9), rel=1e-12)
    assert reorder_loss(identity, q) == pytest.approx(0.10536051565782628)


def test_reorder_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(77)
    q = rng.uniform(0.05, 0.95, size=(4, 4))
    target = ShuffleMatrix(np.array([2, 0, 3, 1]))
    loss, grad = reorder_loss_grad(target, q)
    assert loss == pytest.approx(reorder_loss(target, q))
    step = 1e-7
    for i in range(4):
        for j in range(4):
            qp, qm = q.copy(), q.copy()
            qp[i, j] += step
            qm[i, j] -= step
            fd = (reorder_loss(target, qp) - reorder_loss(target, qm)) / (2 * step)
            assert grad[i, j] == pytest.approx(fd, abs=1e-5)


def test_reorder_loss_grad_zero_off_target():
    q = np.full((3, 3), 1 / 3)
    _, grad = reorder_loss_grad(ShuffleMatrix(np.array([1, 2, 0])), q)
    for i in range(3):
        for j in range(3):
            if j != [1, 2, 0][i]:
                assert grad[i, j] == 0.0


def test_permutation_accuracy():
    identity = ShuffleMatrix(np.arange(3))
    assert permutation_accuracy(identity, identity) == 1.0
    swapped = ShuffleMatrix(np.array([0, 2, 1]))
    assert permutation_accuracy(swapped, identity) == pytest.approx(1 / 3)


def test_config_rejects_negative_iterations():
    with pytest.raises(ValidationError):
        SinkhornConfig(m=-1)
