"""Sinkhorn normalization, its gradient, rounding, and the reordering loss.

Sinkhorn takes log-scores and returns log Q; the probability-space cases
pass ``np.log`` of their matrices and read ``np.exp`` of the result.
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
    _has_other_tight_matching,
    _lexicographic_refine,
    _max_assignment,
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
    out = np.exp(sinkhorn(np.log([[2.0, 6.0], [3.0, 1.0]]), SinkhornConfig(m=1)))
    np.testing.assert_allclose(out, [[0.25, 0.75], [0.75, 0.25]])


def test_col_normalize_hand_value():
    # rows already sum to 1, so one iteration shows the column step alone
    out = np.exp(sinkhorn(np.log([[0.5, 0.5], [0.25, 0.75]]), SinkhornConfig(m=1)))
    np.testing.assert_allclose(out, [[2 / 3, 2 / 5], [1 / 3, 3 / 5]])


def test_single_iteration_hand_value():
    # Q = [[4,2],[3,3]]: row norm gives [[2/3,1/3],[1/2,1/2]], whose column
    # sums are 7/6 and 5/6, so one full iteration ends at [[4/7,2/5],[3/7,3/5]].
    q = np.array([[4.0, 2.0], [3.0, 3.0]])
    out = np.exp(sinkhorn(np.log(q), SinkhornConfig(m=1)))
    np.testing.assert_allclose(out, [[4 / 7, 2 / 5], [3 / 7, 3 / 5]], rtol=1e-15)


def test_zero_iterations_returns_input():
    q = np.log([[4.0, 2.0], [3.0, 3.0]])
    out = sinkhorn(q, SinkhornConfig(m=0))
    np.testing.assert_array_equal(out, q)
    assert out is not q


def test_column_sums_exact_rows_converge():
    rng = np.random.default_rng(11)
    q = rng.uniform(0.1, 10.0, size=(24, 24))
    out = np.exp(sinkhorn(np.log(q), SinkhornConfig(m=50)))
    np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


def test_doubly_stochastic_is_fixed_point():
    rng = np.random.default_rng(5)
    q = rng.uniform(0.1, 10.0, size=(8, 8))
    ds = sinkhorn(np.log(q), SinkhornConfig(m=200))
    again = sinkhorn(ds, SinkhornConfig(m=3))
    np.testing.assert_allclose(np.exp(again), np.exp(ds), atol=1e-12)


def test_scale_invariance():
    rng = np.random.default_rng(6)
    q = rng.uniform(0.5, 2.0, size=(5, 5))
    a = np.exp(sinkhorn(np.log(q), SinkhornConfig(m=10)))
    b = np.exp(sinkhorn(np.log(3.7 * q), SinkhornConfig(m=10)))
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_zero_row_raises():
    # a zero score is a log-score of -inf
    q = np.array([[0.0, 0.0], [1.0, 1.0]])
    with np.errstate(divide="ignore"):
        log_q = np.log(q)
    with pytest.raises(NumericError):
        sinkhorn(log_q, SinkhornConfig(m=1))


def test_nonfinite_raises():
    q = np.array([[1.0, np.inf], [1.0, 1.0]])
    with pytest.raises(NumericError):
        sinkhorn(np.log(q), SinkhornConfig(m=1))


_SPREAD = np.random.default_rng(8).uniform(-800.0, 800.0, size=(4, 4))


@pytest.mark.parametrize(
    "log_q",
    [
        np.log([[1e-320, 1e10], [1e-320, 1e10]]),  # exp underflows column 0 to zero
        np.log([[1e308, 1e308], [1e308, 1e308]]),  # exp overflows the row sums
        _SPREAD,  # both, and beyond exp's float64 range either way
    ],
)
def test_scores_beyond_float64_range_stay_finite(log_q):
    cfg = SinkhornConfig(m=3)
    out = sinkhorn(log_q, cfg)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(np.exp(out).sum(axis=0), 1.0, atol=1e-12)
    n = len(log_q)
    assert np.isfinite(reorder_loss(ShuffleMatrix(np.arange(n)[::-1].copy()), out))
    weights = np.random.default_rng(n).normal(size=log_q.shape)
    analytic = sinkhorn_backward(log_q, cfg, weights)
    fd = _fd_grad(log_q, weights, cfg.m)
    np.testing.assert_allclose(analytic, fd, rtol=0, atol=1e-6 * max(1.0, np.abs(fd).max()))


def _fd_grad(q, weights, m, step=1e-6):
    """Central finite differences of L = sum(weights * sinkhorn(q)), on log-scores."""
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
    q = np.log(rng.uniform(0.1, 10.0, size=(5, 5)))
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
    q = np.log(rng.uniform(0.1, 10.0, size=(n, n)))
    weights = rng.normal(size=(n, n))
    analytic = sinkhorn_backward(q, SinkhornConfig(m=m), weights)
    fd = _fd_grad(q, weights, m)
    scale = max(1.0, np.abs(fd).max())
    assert np.abs(analytic - fd).max() <= 1e-6 * scale


def test_backward_one_by_one_is_zero():
    # a 1x1 matrix normalizes to log [[1]] regardless of the entry
    grad = sinkhorn_backward(np.log([[3.0]]), SinkhornConfig(m=5), np.array([[1.0]]))
    np.testing.assert_allclose(grad, [[0.0]], atol=1e-15)


def _reference_steps(log_q, m):
    """Per-matrix reference: m row then column log-sum-exp steps on one 2-D
    matrix, keeping the output and axis of every step."""
    steps = []
    x = log_q
    for _ in range(m):
        for axis in (1, 0):
            x = x - x.max(axis=axis, keepdims=True)
            x = x - np.log(np.exp(x).sum(axis=axis, keepdims=True))
            steps.append((x, axis))
    return x, steps


def _reference_backward(log_q, m, g):
    _, steps = _reference_steps(log_q, m)
    for out, axis in reversed(steps):
        g = g - np.exp(out) * g.sum(axis=axis, keepdims=True)
    return g


@pytest.mark.parametrize("m", [0, 1, 10, 50])
@pytest.mark.parametrize("n", [1, 4, 24])
@pytest.mark.parametrize("b", [1, 5, 32])
def test_stacked_sinkhorn_equals_per_matrix_reference(b, n, m):
    rng = np.random.default_rng(1000 * b + 10 * n + m)
    q = rng.uniform(-5.0, 5.0, size=(b, n, n))  # log of the scores exp(U(-5, 5))
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
    q = np.log(rng.uniform(0.1, 10.0, size=(2, 3, 4, 4)))
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
    # a bad score is a non-finite log-score: 0.0 logs to -inf, -1.0 to nan
    q = np.random.default_rng(4).uniform(0.1, 10.0, size=(5, 4, 4))
    q[3, 2, 1] = bad
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.log(q)
    cfg = SinkhornConfig(m=m)
    with pytest.raises(NumericError):
        sinkhorn(log_q, cfg)
    with pytest.raises(NumericError):
        sinkhorn_backward(log_q, cfg, np.ones_like(q))


@pytest.mark.parametrize("entry", [0.0, -1.0])
@pytest.mark.parametrize("m", [0, 3])
def test_zero_and_negative_log_scores_are_valid(entry, m):
    log_q = np.log(np.random.default_rng(4).uniform(0.1, 10.0, size=(5, 4, 4)))
    log_q[3, 2, 1] = entry
    cfg = SinkhornConfig(m=m)
    assert np.isfinite(sinkhorn(log_q, cfg)).all()
    assert np.isfinite(sinkhorn_backward(log_q, cfg, np.ones_like(log_q))).all()


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


@pytest.mark.parametrize("seed", range(100))
def test_rounding_matches_exhaustive_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    if seed >= 30:
        # distinct entries whose totals can still tie, as 0.3 + 0.9 == 0.5 + 0.7
        k = rng.choice(n * n + 4, size=(n, n), replace=False) + 1.0
        entries = k / 10 if seed % 2 == 0 else k * 1e6
    elif seed % 3 == 0:
        entries = rng.integers(0, 3, size=(n, n)).astype(float)  # tie-heavy
        entries[rng.integers(n), rng.integers(n)] += 0.5
    else:
        entries = rng.uniform(0.0, 1.0, size=(n, n))
    got = round_to_permutation(entries)
    np.testing.assert_array_equal(got.perm, _brute_force_round(entries))


def test_rounding_uniform_matrix_picks_identity():
    ds = np.full((4, 4), 0.25)
    np.testing.assert_array_equal(round_to_permutation(ds).perm, np.arange(4))


@pytest.mark.parametrize("kind", ["uniform", "negative", "1e6", "all-equal"])
@pytest.mark.parametrize("n", range(1, 8))
def test_max_assignment_total_matches_exhaustive_search(n, kind):
    rng = np.random.default_rng(100 * n + len(kind))
    entries = {
        "uniform": rng.uniform(0.0, 1.0, (n, n)),
        "negative": rng.uniform(-5.0, -1.0, (n, n)),
        "1e6": rng.uniform(-1e6, 1e6, (n, n)),
        "all-equal": np.full((n, n), 0.7),
    }[kind]
    cols, reduced = _max_assignment(entries)
    assert sorted(cols) == list(range(n))
    rows = np.arange(n)
    assert math.fsum(entries[rows, cols]) == math.fsum(entries[rows, _brute_force_round(entries)])
    scale = 1.0 + np.abs(entries).max()
    assert reduced.min() >= -1e-12 * scale
    assert np.abs(reduced[rows, cols]).max() <= 1e-12 * scale


@pytest.mark.parametrize("n", [24, 60])
def test_max_assignment_total_matches_scipy(n):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(n)
    for entries in (rng.uniform(0.0, 1.0, (n, n)), rng.normal(0.0, 1e6, (n, n))):
        cols, _ = _max_assignment(entries)
        rows, want = optimize.linear_sum_assignment(entries, maximize=True)
        assert math.fsum(entries[np.arange(n), cols]) == math.fsum(entries[rows, want])


@pytest.mark.parametrize("seed", range(20))
def test_tie_check_matches_a_count_of_tight_matchings(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    cols = rng.permutation(n)
    tight = rng.uniform(size=(n, n)) < 0.3
    tight[np.arange(n), cols] = True
    matchings = sum(
        all(tight[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n))
    )
    assert _has_other_tight_matching(tight, cols) == (matchings > 1)


def _count_refines(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return _lexicographic_refine(*args)

    monkeypatch.setattr("seqreorder.perm._lexicographic_refine", spy)
    return calls


def test_refine_skipped_for_duplicate_entry_with_unique_optimum(monkeypatch):
    calls = _count_refines(monkeypatch)
    entries = np.random.default_rng(3).uniform(0.0, 1.0, (6, 6))
    entries[0, 1] = entries[2, 3]
    want = _brute_force_round(entries)
    np.testing.assert_array_equal(round_to_permutation(entries).perm, want)
    assert calls == []


def test_refine_runs_when_two_rows_are_equal(monkeypatch):
    calls = _count_refines(monkeypatch)
    entries = np.random.default_rng(4).uniform(0.0, 1.0, (6, 6))
    entries[4] = entries[1]
    want = _brute_force_round(entries)
    np.testing.assert_array_equal(round_to_permutation(entries).perm, want)
    assert len(calls) == 1


def test_reorder_loss_perfect_match_is_zero():
    target = ShuffleMatrix(np.array([2, 0, 1]))
    q = np.zeros((3, 3))
    q[np.arange(3), target.perm] = 1.0
    with np.errstate(divide="ignore"):
        log_q = np.log(q)
    assert reorder_loss(target, log_q) == 0.0


def test_reorder_loss_uniform_is_log_n():
    q = np.full((4, 4), 0.25)
    assert reorder_loss(ShuffleMatrix(np.arange(4)), np.log(q)) == pytest.approx(math.log(4), rel=1e-15)


def test_reorder_loss_hand_value():
    q = np.log([[0.9, 0.1], [0.1, 0.9]])
    identity = ShuffleMatrix(np.arange(2))
    assert reorder_loss(identity, q) == pytest.approx(-math.log(0.9), rel=1e-12)
    assert reorder_loss(identity, q) == pytest.approx(0.10536051565782628)


def test_reorder_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(77)
    q = np.log(rng.uniform(0.05, 0.95, size=(4, 4)))
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
    q = np.log(np.full((3, 3), 1 / 3))
    _, grad = reorder_loss_grad(ShuffleMatrix(np.array([1, 2, 0])), q)
    for i in range(3):
        for j in range(3):
            if j != [1, 2, 0][i]:
                assert grad[i, j] == 0.0


def test_tiny_matched_entry_keeps_its_gradient():
    # Q[0][1] ~ 1e-20 is the worst slot of the target; it still gets -1/n on
    # its log-entry, and through Sinkhorn its logit gets a nonzero gradient
    a = 23.0
    logits = np.array([[a, -a], [-a, a]])
    cfg = SinkhornConfig(m=10)
    log_q = sinkhorn(logits, cfg)
    swap = ShuffleMatrix(np.array([1, 0]))
    assert 1e-21 < np.exp(log_q[0, 1]) < 1e-19
    loss, grad = reorder_loss_grad(swap, log_q)
    assert loss == pytest.approx(-log_q[0, 1], rel=1e-12)  # both slots are alike
    np.testing.assert_array_equal(grad, [[0.0, -0.5], [-0.5, 0.0]])
    dlogits = sinkhorn_backward(logits, cfg, grad)
    assert dlogits[0, 1] < 0 and np.abs(dlogits).min() > 0.1


def test_permutation_accuracy():
    identity = ShuffleMatrix(np.arange(3))
    assert permutation_accuracy(identity, identity) == 1.0
    swapped = ShuffleMatrix(np.array([0, 2, 1]))
    assert permutation_accuracy(swapped, identity) == pytest.approx(1 / 3)


def test_config_rejects_negative_iterations():
    with pytest.raises(ValidationError):
        SinkhornConfig(m=-1)
