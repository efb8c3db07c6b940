"""The packed-rows transformer stack against the dense padded stack."""

import numpy as np
import padded_stack
import pytest

from seqreorder import nn

D, HEADS, FFN, LAYERS = 8, 2, 16, 2


def _params(seed):
    params = {}
    nn.init_stack_params(np.random.default_rng(seed), params, "s.", LAYERS, D, FFN)
    return params


def _rel_err(actual, expected):
    return np.abs(actual - expected).max() / max(np.abs(expected).max(), 1e-300)


def _run_both(lengths, t, seed=0):
    """Packed and padded stacks on one batch; pads get zero upstream gradient."""
    rng = np.random.default_rng(seed)
    p = _params(seed)
    key_mask = np.arange(t) < np.asarray(lengths)[:, None]
    x = rng.normal(size=key_mask.shape + (D,))
    dout = rng.normal(size=x.shape) * key_mask[..., None]

    out, cache = nn.stack_forward(x[key_mask], p, "s.", LAYERS, key_mask, HEADS)
    dx, grads = nn.stack_backward(cache, dout[key_mask])
    ref_out, ref_cache = padded_stack.stack_forward(x, p, "s.", LAYERS, key_mask, HEADS)
    ref_dx, ref_grads = padded_stack.stack_backward(ref_cache, dout)

    assert out.shape == dx.shape == (int(key_mask.sum()), D)
    assert sorted(grads) == sorted(ref_grads) == sorted(p)
    # the padded stack sends exactly zero gradient to its pads
    np.testing.assert_array_equal(ref_dx[~key_mask], 0.0)
    return key_mask, (out, dx, grads), (ref_out[key_mask], ref_dx[key_mask], ref_grads)


@pytest.mark.parametrize(
    "lengths,t",
    [
        ((5, 2, 7, 3), 7),  # ragged
        ((7, 1, 4), 7),  # a one-token example
        ((1, 1), 1),  # one-token examples only
        ((6,), 6),  # a batch of one
        ((3,), 6),  # a batch of one with trailing pads
    ],
)
def test_packed_stack_matches_padded_stack(lengths, t):
    for seed in range(3):
        _, (out, dx, grads), (ref_out, ref_dx, ref_grads) = _run_both(lengths, t, seed)
        assert _rel_err(out, ref_out) <= 1e-12
        assert _rel_err(dx, ref_dx) <= 1e-12
        for key in grads:
            if key.endswith("attn.bk"):
                # softmax is shift-invariant per query, so the exact key-bias
                # gradient is zero and both sides hold rounding noise only
                assert max(np.abs(grads[key]).max(), np.abs(ref_grads[key]).max()) <= 1e-14
            else:
                assert _rel_err(grads[key], ref_grads[key]) <= 1e-12, key


@pytest.mark.parametrize("lengths,t", [((5, 5, 5), 5), ((1,), 1), ((9, 9), 9)])
def test_all_real_stack_is_bit_identical_to_padded(lengths, t):
    _, (out, dx, grads), (ref_out, ref_dx, ref_grads) = _run_both(lengths, t, seed=4)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(dx, ref_dx)
    for key in grads:
        np.testing.assert_array_equal(grads[key], ref_grads[key])


def test_all_real_layout_change_is_a_view():
    key_mask = np.ones((3, 4), dtype=bool)
    rows = np.arange(24.0).reshape(12, 2)
    padded = nn.rows_to_padded(rows, key_mask)
    assert padded.shape == (3, 4, 2) and np.shares_memory(padded, rows)
    assert np.shares_memory(nn.padded_to_rows(padded, key_mask), rows)


def test_rows_follow_the_mask_in_row_major_order():
    key_mask = np.array([[True, True, False], [True, False, False], [True, True, True]])
    rows = np.arange(6.0)[:, None] * np.ones(2)
    padded = nn.rows_to_padded(rows, key_mask)
    np.testing.assert_array_equal(padded[..., 0], [[0, 1, 0], [2, 0, 0], [3, 4, 5]])
    np.testing.assert_array_equal(nn.padded_to_rows(padded, key_mask), rows)


def test_embedding_backward_matches_add_at():
    rng = np.random.default_rng(0)
    index = rng.integers(0, 5, size=30)
    drows = rng.normal(size=(30, 3))
    want = np.zeros((7, 3))
    np.add.at(want, index, drows)
    assert _rel_err(nn.embedding_backward(index, drows, 7), want) <= 1e-15
