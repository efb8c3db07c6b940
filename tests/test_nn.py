"""Shared layers against independent references.

The packed-rows transformer stack against the dense padded stack with its
masked attention; attention on packed rows against the out-of-place
masked formula it replaced, and its grouping by exact length; the
in-place FFN against the out-of-place formula it replaced; attention that
rebuilds its softmax weights in the backward against a copy of the
attention that kept them; and the in-place Adam step against the
expressions it evaluates. Also that a training step, once warm, reuses
the memory the previous step freed, and that its traced peak stays below
its layers' attention weights. Layernorm against the two-pass formula it
replaced, and row by row against itself.
"""

import ctypes
import math
import platform
import sys
import time
import tracemalloc
import types

import numpy as np
import padded_stack
import pytest

from seqreorder import encoder as enc
from seqreorder import nn
from seqreorder.augment import NoiseSpec, RAcutConfig, make_pretrain_example
from seqreorder.corpus import CANONICAL_RESIDUES, encode_protein
from seqreorder.evaluation import split_scenarios
from seqreorder.perm import SinkhornConfig
from seqreorder.pretrain import PretrainConfig, pretrain_step
from seqreorder.synthetic import corpus_records, interaction_corpus

D, HEADS, FFN, LAYERS = 8, 2, 16, 2


def _params(seed):
    return nn.draw_params(nn.stack_table("s.", LAYERS, D, FFN), seed)


def _rel_err(actual, expected):
    return np.abs(actual - expected).max() / max(np.abs(expected).max(), 1e-300)


def _run_both(lengths, t, seed=0):
    """Packed and padded stacks on one batch; pads get zero upstream gradient."""
    rng = np.random.default_rng(seed)
    p = _params(seed)
    lengths = np.asarray(lengths)
    key_mask = np.arange(t) < lengths[:, None]
    x = rng.normal(size=key_mask.shape + (D,))
    dout = rng.normal(size=x.shape) * key_mask[..., None]

    out, cache = nn.stack_forward(x[key_mask], p, "s.", LAYERS, lengths, HEADS)
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
        ((1, 9, 3, 17, 2), 17),  # five lengths of one example each
        ((12, 1, 5, 30, 4, 6, 2, 16), 30),  # eight lengths, in no order
    ],
)
def test_packed_stack_matches_padded_stack(lengths, t):
    for seed in range(3):
        _, (out, dx, grads), (ref_out, ref_dx, ref_grads) = _run_both(lengths, t, seed)
        assert _rel_err(out, ref_out) <= 1e-12
        assert _rel_err(dx, ref_dx) <= 1e-12
        for key in grads:
            assert _rel_err(grads[key], ref_grads[key]) <= 1e-12, key


@pytest.mark.parametrize("lengths,t", [((5, 5, 5), 5), ((1,), 1), ((9, 9), 9)])
def test_all_real_stack_is_bit_identical_to_padded(lengths, t):
    _, (out, dx, grads), (ref_out, ref_dx, ref_grads) = _run_both(lengths, t, seed=4)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(dx, ref_dx)
    for key in grads:
        np.testing.assert_array_equal(grads[key], ref_grads[key])


def _attention_params(rng, d):
    # default_rng passes a Generator through, so the layer draws from rng's stream
    p = nn.draw_params(nn.stack_table("s.", 1, d, 2 * d), rng)
    return {k[len("s.layers.0."):]: v for k, v in p.items() if ".attn." in k}


@pytest.mark.parametrize("lengths", [(5, 5, 5, 5), (3, 3), (2, 2, 5, 5, 7)])
def test_batch_in_length_order_runs_on_its_own_rows(lengths):
    # rows already in length order are neither gathered nor scattered:
    # each group is a slice of them, and x itself is what the cache keeps
    lengths = np.asarray(lengths)
    rng = np.random.default_rng(2)
    p = _attention_params(rng, D)
    x = rng.normal(size=(int(lengths.sum()), D))
    dout = rng.normal(size=x.shape)
    order, groups = nn._length_groups(lengths)
    assert order is None
    assert [(g.start, g.stop) for g, _, _ in groups] == [
        (int(lengths[lengths < t].sum()), int(lengths[lengths <= t].sum()))
        for t in np.unique(lengths)
    ]
    out, cache = nn.attention_forward(x, p, "attn.", lengths, HEADS)
    assert cache[0] is x
    dx, grads = nn.attention_backward(cache, dout)
    key_mask = np.arange(lengths.max()) < lengths[:, None]
    padded = np.zeros(key_mask.shape + (D,))
    padded[key_mask] = x
    ref_out, ref_cache = padded_stack.attention_forward(padded, p, "attn.", key_mask, HEADS)
    dpadded = np.zeros_like(padded)
    dpadded[key_mask] = dout
    ref_dx, ref_grads = padded_stack.attention_backward(ref_cache, dpadded)
    if len(groups) == 1:  # one length: the same operations as one padded call
        np.testing.assert_array_equal(out, ref_out[key_mask])
        np.testing.assert_array_equal(dx, ref_dx[key_mask])
        for key in grads:
            np.testing.assert_array_equal(grads[key], ref_grads[key])
    assert _rel_err(out, ref_out[key_mask]) <= 1e-12
    assert _rel_err(dx, ref_dx[key_mask]) <= 1e-12
    for key in grads:
        assert _rel_err(grads[key], ref_grads[key]) <= 1e-12, key


def test_attention_runs_one_group_per_distinct_length(monkeypatch):
    lengths = (3, 1, 17, 4, 6, 2, 8, 3)
    calls = []
    weight_blocks = nn._weight_blocks

    def spy(slices, t):
        calls.append((slices, t))
        return weight_blocks(slices, t)

    monkeypatch.setattr(nn, "_weight_blocks", spy)
    x = np.random.default_rng(0).normal(size=(sum(lengths), D))
    out, cache = nn.layer_forward(x, _params(0), "s.layers.0.", np.asarray(lengths), HEADS)
    groups = [(HEADS * b, t) for b, t in ((1, 1), (1, 2), (2, 3), (1, 4), (1, 6), (1, 8), (1, 17))]
    assert calls == groups  # the two examples of length 3 share one group
    calls.clear()
    nn.layer_backward(cache, np.ones_like(out))
    assert calls == groups


def test_ffn_in_place_is_bit_identical_to_linear_relu_formula():
    for n, d, f, seed in ((470, 8, 64, 0), (37, 16, 16, 1), (1, 4, 8, 2)):
        rng = np.random.default_rng(seed)
        p = {
            "f.w1": rng.normal(size=(d, f)),
            "f.b1": rng.normal(size=f),
            "f.w2": rng.normal(size=(f, d)),
            "f.b2": rng.normal(size=d),
        }
        x = rng.normal(size=(n, d))
        dout = rng.normal(size=(n, d))
        x_before = x.copy()
        out, cache = nn.ffn_forward(x, p, "f.")
        dx, grads = nn.ffn_backward(cache, dout)
        ref_out, ref_cache = padded_stack.ffn_forward(x, p, "f.")
        ref_dx, ref_grads = padded_stack.ffn_backward(ref_cache, dout)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(dx, ref_dx)
        assert sorted(grads) == sorted(ref_grads) == sorted(p)
        for key in grads:
            np.testing.assert_array_equal(grads[key], ref_grads[key])
        np.testing.assert_array_equal(x, x_before)


def test_embedding_backward_matches_add_at():
    rng = np.random.default_rng(0)
    index = rng.integers(0, 5, size=30)
    drows = rng.normal(size=(30, 3))
    want = np.zeros((7, 3))
    np.add.at(want, index, drows)
    assert _rel_err(nn.embedding_backward(index, drows, 7), want) <= 1e-15


# ---------------------------------------------------------------------------
# layernorm against the two-pass formula, and row by row
# ---------------------------------------------------------------------------


def _two_pass_layernorm(x, gamma, beta, dy):
    """Output, dx, dgamma and dbeta of the out-of-place formula layernorm replaced."""
    d = x.shape[-1]
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + nn.LN_EPS)
    xhat = xc * inv
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    dgamma = (dy * xhat).reshape(-1, d).sum(axis=0)
    return gamma * xhat + beta, dx, dgamma, dy.reshape(-1, d).sum(axis=0)


def _layernorm(x, gamma, beta, dy):
    out, cache = nn.layernorm_forward(x, gamma, beta)
    return (out, *nn.layernorm_backward(cache, dy))


LAYERNORM_SHAPES = [(37, 8), (3, 5, 16), (4, 300, 64), (1200, 64), (1536, 32), (2, 7, 256)]


@pytest.mark.parametrize("shape", LAYERNORM_SHAPES)
def test_layernorm_matches_two_pass_formula(shape):
    rng = np.random.default_rng(len(shape) + shape[-1])
    x = rng.normal(loc=3.0, size=shape)  # an offset the centring must remove
    gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    dy = rng.normal(size=shape)
    x_before, dy_before = x.copy(), dy.copy()
    got = _layernorm(x, gamma, beta, dy)
    for actual, expected in zip(got, _two_pass_layernorm(x, gamma, beta, dy)):
        assert actual.shape == expected.shape
        assert _rel_err(actual, expected) <= 1e-12
    np.testing.assert_array_equal(x, x_before)
    np.testing.assert_array_equal(dy, dy_before)


@pytest.mark.parametrize("shape", LAYERNORM_SHAPES)
def test_layernorm_rows_do_not_depend_on_their_layout(shape):
    # a row's output and dx have the bits of that row computed alone, and
    # (B, T, d) gives the bits of its (N, d) rows, dgamma and dbeta included
    rng = np.random.default_rng(shape[-1])
    x, dy = rng.normal(size=shape), rng.normal(size=shape)
    gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    d = shape[-1]
    out, dx, dgamma, dbeta = _layernorm(x, gamma, beta, dy)
    rows = _layernorm(x.reshape(-1, d), gamma, beta, dy.reshape(-1, d))
    np.testing.assert_array_equal(out.reshape(-1, d), rows[0])
    np.testing.assert_array_equal(dx.reshape(-1, d), rows[1])
    np.testing.assert_array_equal(dgamma, rows[2])
    np.testing.assert_array_equal(dbeta, rows[3])
    n = rows[0].shape[0]
    for i in sorted({0, 1, n // 2, n - 1}):
        alone = _layernorm(x.reshape(-1, d)[i : i + 1], gamma, beta, dy.reshape(-1, d)[i : i + 1])
        np.testing.assert_array_equal(alone[0], rows[0][i : i + 1])
        np.testing.assert_array_equal(alone[1], rows[1][i : i + 1])


# ---------------------------------------------------------------------------
# attention against the out-of-place formula
# ---------------------------------------------------------------------------


def _reference_attention(x, p, prefix, key_mask, heads):
    """Scaled dot-product attention on padded x (B, T, d), forward and a backward closure.

    The formula ``nn.attention_forward``/``attention_backward`` used before
    they worked in place on packed rows: scores are scaled after
    ``q @ k.T``, masked with ``np.where``, and the softmax backward is
    ``attn * (dattn - rowsum)``.
    """
    wq, wk, wv, wo = (p[prefix + n] for n in ("wq", "wk", "wv", "wo"))
    bq, bv, bo = (p[prefix + n] for n in ("bq", "bv", "bo"))
    b, t, d = x.shape

    def split(a):
        return a.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(b * t, d)

    q, k, v = split(x @ wq + bq), split(x @ wk), split(x @ wv + bv)
    scale = 1.0 / math.sqrt(d // heads)
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    scores = np.where(key_mask[:, None, None, :], scores, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    merged = merge(attn @ v)
    out = (merged @ wo + bo).reshape(b, t, d)

    def backward(dout):
        dout2 = dout.reshape(-1, d)
        dctx = split(dout @ wo.T)
        dattn = dctx @ v.transpose(0, 1, 3, 2)
        ds = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True)) * scale
        dq = merge(ds @ k)
        dk = merge(ds.transpose(0, 1, 3, 2) @ q)
        dv = merge(attn.transpose(0, 1, 3, 2) @ dctx)
        x2 = x.reshape(-1, d)
        grads = {
            "wo": merged.T @ dout2, "bo": dout2.sum(axis=0),
            "wq": x2.T @ dq, "bq": dq.sum(axis=0),
            "wk": x2.T @ dk,
            "wv": x2.T @ dv, "bv": dv.sum(axis=0),
        }
        dx = (dq @ wq.T + dk @ wk.T + dv @ wv.T).reshape(x.shape)
        return dx, {prefix + name: g for name, g in grads.items()}

    return out, backward


# example lengths, and the padded width of the reference
ATTENTION_MASKS = {
    "all-real": ((6, 6, 6), 6),
    "ragged": ((5, 2, 7, 1), 7),
    "one-key": ((1, 1, 1), 1),
    "batch-of-one": ((4,), 6),
    "long": ((300, 300), 300),
}


@pytest.mark.parametrize("dh", [2, 4, 8])  # 1/sqrt(dh) is inexact at 2 and 8
@pytest.mark.parametrize("mask", sorted(ATTENTION_MASKS))
def test_attention_matches_out_of_place_reference(mask, dh):
    lengths, t = ATTENTION_MASKS[mask]
    lengths = np.asarray(lengths)
    heads = 2
    d = heads * dh
    for seed in range(3):
        rng = np.random.default_rng(seed)
        p = _attention_params(rng, d)
        key_mask = np.arange(t) < lengths[:, None]
        # pad rows hold noise: as keys they are masked, as queries dropped
        padded = rng.normal(size=key_mask.shape + (d,))
        dpadded = rng.normal(size=padded.shape) * key_mask[..., None]
        x, dout = padded[key_mask], dpadded[key_mask]
        x_before = x.copy()
        p_before = {k: v.copy() for k, v in p.items()}

        out, cache = nn.attention_forward(x, p, "attn.", lengths, heads)
        dx, grads = nn.attention_backward(cache, dout)
        ref_out, ref_backward = _reference_attention(padded, p, "attn.", key_mask, heads)
        ref_dx, ref_grads = ref_backward(dpadded)

        assert _rel_err(out, ref_out[key_mask]) <= 1e-12
        assert _rel_err(dx, ref_dx[key_mask]) <= 1e-12
        assert sorted(grads) == sorted(ref_grads)
        for key in grads:
            assert _rel_err(grads[key], ref_grads[key]) <= 1e-12, key
        if t == 1:
            # one key: the softmax is constant, so queries and keys get no gradient
            for name in ("wq", "wk", "bq"):
                np.testing.assert_array_equal(grads["attn." + name], 0.0)
        np.testing.assert_array_equal(x, x_before)
        for key in p:
            np.testing.assert_array_equal(p[key], p_before[key])


# ---------------------------------------------------------------------------
# attention that rebuilds its weights against attention that keeps them
# ---------------------------------------------------------------------------


def _kept_weights_attention_forward(x, p, prefix, lengths, heads):
    """``nn.attention_forward`` as it would be if every group kept its weights.

    Per length group, one (b·h, t, t) score buffer turned in place into the
    unnormalized weights exp(s - max) and cached whole, with each row's
    sum, for ``_kept_weights_attention_backward``; the sums divide the
    context.
    """
    wq, wk, wv, wo = (p[prefix + n] for n in ("wq", "wk", "wv", "wo"))
    bq, bv, bo = (p[prefix + n] for n in ("bq", "bv", "bo"))
    order, groups = nn._length_groups(lengths)
    xs = x if order is None else x[order]
    scale = 1.0 / math.sqrt(x.shape[1] // heads)
    q, k, v = (xs @ wq + bq) * scale, xs @ wk, xs @ wv + bv
    merged = np.empty_like(xs)
    kept = []
    for rows, b, t in groups:
        qg, kg, vg = (nn._split_heads(a[rows], b, heads) for a in (q, k, v))
        attn = qg @ kg.transpose(0, 2, 1)
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        rowsum = attn.sum(axis=-1, keepdims=True)
        nn._merge_heads((attn @ vg) / rowsum, merged[rows])
        kept.append((qg, kg, vg, attn, rowsum))
    out = merged @ wo + bo
    if order is not None:
        out = nn._unsort(out, order)
    return out, (xs, order, groups, kept, merged, scale, prefix, heads, wq, wk, wv, wo)


def _kept_weights_attention_backward(cache, dout):
    xs, order, groups, kept, merged, scale, prefix, heads, wq, wk, wv, wo = cache
    if order is not None:
        dout = dout[order]
    grads = {prefix + "wo": merged.T @ dout, prefix + "bo": dout.sum(axis=0)}
    dctx_rows = dout @ wo.T
    dq, dk, dv = np.empty_like(xs), np.empty_like(xs), np.empty_like(xs)
    for (rows, b, t), (q, k, v, attn, rowsum) in zip(groups, kept):
        dctx = nn._split_heads(dctx_rows[rows], b, heads) / rowsum
        ds = dctx @ v.transpose(0, 2, 1)
        ds -= np.einsum("...ij,...ij->...i", ds, attn)[..., None] / rowsum
        ds *= attn
        nn._merge_heads((ds @ k) * scale, dq[rows])
        nn._merge_heads(ds.transpose(0, 2, 1) @ q, dk[rows])
        nn._merge_heads(attn.transpose(0, 2, 1) @ dctx, dv[rows])
    for name, g in (("q", dq), ("k", dk), ("v", dv)):
        grads[prefix + "w" + name] = xs.T @ g
        if name != "k":
            grads[prefix + "b" + name] = g.sum(axis=0)
    dx = dq @ wq.T + dk @ wk.T + dv @ wv.T
    if order is not None:
        dx = nn._unsort(dx, order)
    return dx, grads


# one head; one example's two heads; three slices across examples (the last
# block may hold fewer). The block size is set by the longest example, so
# groups of shorter examples hold more slices per block.
@pytest.mark.parametrize("slices_per_block", [1, 2, 3])
@pytest.mark.parametrize("dh", [2, 8])
@pytest.mark.parametrize("mask", ["ragged", "one-key", "batch-of-one"])
def test_rebuilt_weights_attention_is_bit_identical_to_kept_weights(
    mask, dh, slices_per_block, monkeypatch
):
    lengths = np.asarray(ATTENTION_MASKS[mask][0])
    t_max = int(lengths.max())
    heads = 2
    d = heads * dh
    monkeypatch.setattr(nn, "_BLOCK_BYTES", slices_per_block * t_max * t_max * 8)
    rebuilt = []
    softmax_weights = nn._softmax_weights

    def spy(q, k, block, rowmax, rowsum, rebuild):
        w = softmax_weights(q, k, block, rowmax, rowsum, rebuild=rebuild)
        if rebuild:
            rebuilt.append((q.shape[1], block, w.copy()))
        return w

    monkeypatch.setattr(nn, "_softmax_weights", spy)
    _, groups = nn._length_groups(lengths)
    expected_blocks = sum(
        math.ceil(b * heads / max(1, nn._BLOCK_BYTES // (t * t * 8))) for _, b, t in groups
    )
    for seed in range(3):
        rng = np.random.default_rng(seed)
        p = _attention_params(rng, d)
        x = rng.normal(size=(int(lengths.sum()), d))
        dout = rng.normal(size=x.shape)
        rebuilt.clear()

        out, cache = nn.attention_forward(x, p, "attn.", lengths, heads)
        # only q, k, v and per-row statistics are kept, never the weights
        for (_, b, t), kept in zip(groups, cache[3]):
            assert [a.shape for a in kept] == [(b * heads, t, dh)] * 3 + [(b * heads, t, 1)] * 2
        dx, grads = nn.attention_backward(cache, dout)
        ref_out, ref_cache = _kept_weights_attention_forward(x, p, "attn.", lengths, heads)
        ref_dx, ref_grads = _kept_weights_attention_backward(ref_cache, dout)

        assert len(rebuilt) == expected_blocks
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(dx, ref_dx)
        assert sorted(grads) == sorted(ref_grads)
        for key in grads:
            np.testing.assert_array_equal(grads[key], ref_grads[key])
        # each rebuilt block is its group's kept unnormalized weights' block
        ref_attn = {t: kept[3] for (_, _, t), kept in zip(groups, ref_cache[3])}
        for t, block, w in rebuilt:
            np.testing.assert_array_equal(w, ref_attn[t][block])
        if t_max == 1:
            for name in ("wq", "wk", "bq"):
                np.testing.assert_array_equal(grads["attn." + name], 0.0)


def test_pretrain_step_peaks_below_one_layers_attention_weights():
    # 300-residue proteins at the paper's cut (n=24, l_max=1200): T = 300,
    # and each layer's weights are B*h*T*T*8 = 11.5 MB. Keeping them for
    # the backward peaked at 40.4 MB traced; rebuilding them, at 7.5 MB. A
    # step in which any one layer kept its weights would peak above 11.5 MB.
    b, layers, heads, t = 4, 2, 4, 300
    cut = RAcutConfig(n=24, l_max=1200)
    config = PretrainConfig(
        epochs=1, lr=1e-3, batch_size=b, sinkhorn=SinkhornConfig(m=10),
        noise=NoiseSpec(kind="mask", mask_prob=0.15),
    )
    rng = np.random.default_rng(0)
    batch = [
        make_pretrain_example(
            encode_protein("".join(rng.choice(list(CANONICAL_RESIDUES[:20]), t))),
            cut, config.noise, seed=(0, 1, i),
        )
        for i in range(b)
    ]
    state = enc.init(
        enc.EncoderConfig(embed_dim=16, layers=layers, heads=heads, ffn_dim=32, n=24, f_max=cut.f_max)
    )
    adam = nn.adam_init(state.params)
    tracemalloc.start()
    try:
        pretrain_step(state, batch, config, adam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < b * heads * t * t * 8


# ---------------------------------------------------------------------------
# in-place Adam against the expressions it evaluates
# ---------------------------------------------------------------------------


def _reference_adam_step(params, grads, m, v, t, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """The out-of-place Adam update ``nn.adam_step`` replaced; returns new dicts."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    params, m, v = dict(params), dict(m), dict(v)
    for key in sorted(params):
        g = grads[key]
        m[key] = beta1 * m[key] + (1.0 - beta1) * g
        v[key] = beta2 * v[key] + (1.0 - beta2) * (g * g)
        mhat = m[key] / bc1
        vhat = v[key] / bc2
        params[key] = params[key] - lr * mhat / (np.sqrt(vhat) + eps)
        if weight_decay > 0.0:
            params[key] = params[key] - lr * weight_decay * params[key]
    return params, m, v


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_step_in_place_is_bit_identical_to_reference(weight_decay):
    rng = np.random.default_rng(0)
    shapes = {"w": (5, 3), "b": (3,), "dec.b": ()}  # a 0-d parameter, like the CPI head's bias
    params = {k: np.asarray(rng.normal(size=s)) for k, s in shapes.items()}
    state = nn.adam_init(params)
    ref_params = {k: p.copy() for k, p in params.items()}
    ref_m = {k: np.zeros_like(p) for k, p in params.items()}
    ref_v = {k: np.zeros_like(p) for k, p in params.items()}
    arrays = {k: (params[k], state.m[k], state.v[k]) for k in params}
    for step in range(1, 4):
        grads = {k: np.asarray(rng.normal(size=s)) for k, s in shapes.items()}
        nn.adam_step(params, grads, state, lr=1e-2, weight_decay=weight_decay)
        ref_params, ref_m, ref_v = _reference_adam_step(
            ref_params, grads, ref_m, ref_v, step, 1e-2, weight_decay
        )
        assert state.t == step
        for key in shapes:
            assert np.array_equal(params[key], ref_params[key]), key
            assert np.array_equal(state.m[key], ref_m[key]), key
            assert np.array_equal(state.v[key], ref_v[key]), key
    # updated in place: the same arrays, still of their original shape
    for key, (p, m, v) in arrays.items():
        assert params[key] is p and state.m[key] is m and state.v[key] is v
        assert p.shape == m.shape == v.shape == shapes[key]


def _whole_array_adam_step(params, grads, state, lr, weight_decay=0.0):
    """``nn.adam_step`` as it was before it ran in blocks: each pass over a whole key."""
    beta1, beta2, eps = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for key in sorted(params):
        g, m, v, p = grads[key], state.m[key], state.v[key], params[key]
        tmp, step = np.empty_like(p), np.empty_like(p)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=tmp)
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - beta2
        v *= beta2
        v += tmp
        np.divide(m, bc1, out=step)
        step *= lr
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        step /= tmp
        p -= step
        if weight_decay > 0.0:
            p -= np.multiply(p, lr * weight_decay, out=step)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_blocked_adam_step_is_bit_identical_to_whole_array_passes(weight_decay):
    rng = np.random.default_rng(1)
    block = nn._ADAM_BLOCK
    # 0-d; under a block; rows of several blocks with a ragged last one; a
    # row longer than a block; a 1-d key longer than a block
    shapes = {"dec.b": (), "b": (7,), "w": (3 * block // 64 + 5, 64), "wide": (2, block + 3),
              "long": (2 * block + 1,)}
    params = {k: np.asarray(rng.normal(size=s)) for k, s in shapes.items()}
    ref = {k: p.copy() for k, p in params.items()}
    state, ref_state = nn.adam_init(params), nn.adam_init(ref)
    assert [len(nn._adam_blocks(s)) for s in shapes.values()] == [1, 1, 4, 2, 3]
    for _ in range(3):
        grads = {k: np.asarray(rng.normal(size=s)) for k, s in shapes.items()}
        nn.adam_step(params, grads, state, lr=1e-2, weight_decay=weight_decay)
        _whole_array_adam_step(ref, grads, ref_state, lr=1e-2, weight_decay=weight_decay)
        for key in shapes:
            np.testing.assert_array_equal(params[key], ref[key])
            np.testing.assert_array_equal(state.m[key], ref_state.m[key])
            np.testing.assert_array_equal(state.v[key], ref_state.v[key])
    assert params["dec.b"].shape == ()


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="malloc thresholds are set through glibc's mallopt",
)
def test_warm_pretrain_step_does_not_fault_its_working_set_back_in():
    # pretrain-desk geometry: each step allocates and frees ~15 MB of
    # temporaries; with glibc's default thresholds they are unmapped or
    # trimmed on free, and three steps fault ~14,000 pages back in
    resource = pytest.importorskip("resource")
    cut = RAcutConfig(n=4, l_max=48)
    config = PretrainConfig(
        epochs=1, lr=1e-3, batch_size=32, sinkhorn=SinkhornConfig(m=10),
        noise=NoiseSpec(kind="mask", mask_prob=0.15),
    )
    rng = np.random.default_rng(0)
    batch = [
        make_pretrain_example(
            encode_protein("".join(rng.choice(list(CANONICAL_RESIDUES[:20]), 48))),
            cut, config.noise, seed=(0, 1, i),
        )
        for i in range(32)
    ]
    state = enc.init(
        enc.EncoderConfig(embed_dim=32, layers=2, heads=4, ffn_dim=64, n=4, f_max=cut.f_max)
    )
    adam = nn.adam_init(state.params)
    for _ in range(2):
        state, _ = pretrain_step(state, batch, config, adam)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        state, _ = pretrain_step(state, batch, config, adam)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100


def _fake_libc(result, calls):
    def mallopt(param, value):
        calls.append((param, value))
        return result

    return types.SimpleNamespace(mallopt=mallopt)


# run_pair's work functions: module-level, so that they reach the worker by name


def _finish_time(params, part):
    """(part, when it finished): part 0 sleeps first, so the other part finishes first."""
    if part == 0:
        time.sleep(0.2)
    return (part, time.monotonic()), {}


def _fails_on(params, part):
    """Raise for a part named "fail..."; a "slow" part sleeps first."""
    if part.startswith("fail"):
        raise ValueError(f"part {part} failed")
    if part == "slow":
        time.sleep(0.2)
    return part, {}


def test_run_pair_returns_in_argument_order_after_both_finish(monkeypatch):
    monkeypatch.setattr(nn, "WORKERS", 2)
    ((first, first_done), _), ((second, second_done), _) = nn.run_pair(_finish_time, {}, 0, 1)
    returned = time.monotonic()
    assert (first, second) == (0, 1)
    assert second_done < first_done <= returned  # the parts overlapped; both finished first

    start = time.monotonic()
    with pytest.raises(ValueError, match="part fail failed"):
        nn.run_pair(_fails_on, {}, "fail", "slow")
    assert time.monotonic() - start >= 0.2  # the second part ran to its end before the error

    with pytest.raises(ValueError, match="part fail failed"):
        nn.run_pair(_fails_on, {}, "ok", "fail")
    # an error from the first part is raised before one from the second
    with pytest.raises(ValueError, match="part fail-1 failed"):
        nn.run_pair(_fails_on, {}, "fail-1", "fail-2")
    # the worker keeps serving after its part raised
    assert nn.run_pair(_fails_on, {}, "ok", "ok") == (("ok", {}), ("ok", {}))


def _sums(params, part):
    """(the part's items, their sum times each parameter)."""
    return part, {key: sum(part) * p for key, p in params.items()}


@pytest.mark.parametrize("workers", [1, 2])
def test_run_halves_runs_each_half_as_micro_batches_in_order(workers, monkeypatch):
    monkeypatch.setattr(nn, "WORKERS", workers)
    monkeypatch.setattr(nn, "MAX_TOKENS", 10)
    tokens = [4, 6, 1, 12, 3, 3, 3, 3]
    # consecutive runs within the budget; an item over it runs alone
    assert nn._micro_batches(tokens, 0, 4) == [slice(0, 2), slice(2, 3), slice(3, 4)]
    assert nn._micro_batches(tokens, 4, 8) == [slice(4, 7), slice(7, 8)]
    assert nn._micro_batches(tokens, 3, 3) == []  # no inputs, no forward
    values, grads = nn.run_halves(_sums, {"w": np.ones(2)}, list(range(8)), list, tokens)
    assert values == [[0, 1], [2], [3], [4, 5, 6], [7]]
    np.testing.assert_array_equal(grads["w"], [28.0, 28.0])
    # a batch of one item runs in process
    assert nn.run_halves(_sums, {"w": np.ones(2)}, [5], list, [99])[0] == [[5]]


def test_todays_largest_half_is_one_micro_batch():
    # The largest halves the benchmark and the README train, 16 examples of
    # 48 residues (batch 32 at l_max 48) and 2 of 300 (pretrain-paper's
    # B=4), and every prediction call on the README split (at its seed 7
    # and five others: 1323 compound tokens in 73 pairs at most) run as one
    # forward, so every artifact keeps the bits of one call
    assert nn._micro_batches([48] * 16, 0, 16) == [slice(0, 16)]
    assert nn._micro_batches([300] * 2, 0, 2) == [slice(0, 2)]
    for seed in (7, 1, 2, 3, 11, 42):
        corpus = interaction_corpus(num_proteins=120, num_compounds=120, num_pairs=400, seed=seed)
        split = split_scenarios(corpus_records(corpus), seed=0)
        for pairs in (split.valid, *split.test_partitions.values()):
            tokens = [len(r.compound.tokens) for r in pairs]
            assert len(nn._micro_batches(tokens, 0, len(pairs))) <= 1


def test_malloc_setup_does_nothing_without_glibc_mallopt(monkeypatch):
    def no_library(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert nn._keep_freed_memory() is None

    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # no mallopt symbol
    assert nn._keep_freed_memory() is None

    # a threshold mallopt rejects leaves trimming on
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _fake_libc(0, calls))
    nn._keep_freed_memory()
    assert calls == [(nn._M_MMAP_THRESHOLD, nn._MMAP_THRESHOLD_MAX)]

    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _fake_libc(1, calls))
    nn._keep_freed_memory()
    assert calls == [(nn._M_MMAP_THRESHOLD, nn._MMAP_THRESHOLD_MAX), (nn._M_TRIM_THRESHOLD, -1)]
