"""Shared layers against independent references.

The packed-rows transformer stack against the dense padded stack and,
where every example falls in one length band, against the single
attention call it then makes; the in-place attention and FFN against the
out-of-place formulas they replaced; attention that rebuilds its softmax
weights in the backward against a copy of the attention that kept them;
and the in-place Adam step against the expressions it evaluates. Also
that a training step, once warm, reuses the memory the previous step
freed, and that its traced peak stays below its layers' attention weights.
"""

import ctypes
import math
import platform
import sys
import tracemalloc
import types

import numpy as np
import padded_stack
import pytest

from seqreorder import encoder as enc
from seqreorder import nn
from seqreorder.augment import NoiseSpec, RAcutConfig, make_pretrain_example
from seqreorder.corpus import CANONICAL_RESIDUES, encode_protein
from seqreorder.perm import SinkhornConfig
from seqreorder.pretrain import PretrainConfig, pretrain_step

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
        ((1, 9, 3, 17, 2), 17),  # five length bands of one example each
        ((12, 1, 5, 30, 4, 6, 2, 16), 30),  # six bands, some of several examples
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


def _unbanded_stack(x, p, key_mask, dout):
    """The packed stack with one attention call over the whole (B, T) batch.

    Output rows, row gradient and parameter gradients, as the stack gave
    them before attention was split into length bands.
    """
    caches = []
    for layer in range(LAYERS):
        pre = f"s.layers.{layer}."
        h1, c_ln1 = nn.layernorm_forward(x, p[pre + "ln1.gamma"], p[pre + "ln1.beta"])
        a, c_att = nn.attention_forward(
            nn.rows_to_padded(h1, key_mask), p, pre + "attn.", key_mask, HEADS
        )
        x1 = x + nn.padded_to_rows(a, key_mask)
        h2, c_ln2 = nn.layernorm_forward(x1, p[pre + "ln2.gamma"], p[pre + "ln2.beta"])
        f, c_ffn = nn.ffn_forward(h2, p, pre + "ffn.")
        x = x1 + f
        caches.append((pre, c_ln1, c_att, c_ln2, c_ffn))
    out, c_f = nn.layernorm_forward(x, p["s.ln_f.gamma"], p["s.ln_f.beta"])
    grads = {}
    dx, grads["s.ln_f.gamma"], grads["s.ln_f.beta"] = nn.layernorm_backward(c_f, dout)
    for pre, c_ln1, c_att, c_ln2, c_ffn in reversed(caches):
        dh2, g_ffn = nn.ffn_backward(c_ffn, dx)
        grads.update(g_ffn)
        dx1_ln, grads[pre + "ln2.gamma"], grads[pre + "ln2.beta"] = nn.layernorm_backward(
            c_ln2, dh2
        )
        dx1 = dx + dx1_ln
        dh1, g_att = nn.attention_backward(c_att, nn.rows_to_padded(dx1, key_mask))
        grads.update(g_att)
        dx_ln, grads[pre + "ln1.gamma"], grads[pre + "ln1.beta"] = nn.layernorm_backward(
            c_ln1, nn.padded_to_rows(dh1, key_mask)
        )
        dx = dx1 + dx_ln
    return out, dx, grads


@pytest.mark.parametrize(
    "lengths,t",
    [
        ((5, 7, 8, 6, 5), 8),  # ragged, all in the band of 5-8 tokens
        ((3, 4), 6),  # one band, with trailing pads
    ],
)
def test_one_band_ragged_stack_is_bit_identical_to_one_attention_call(lengths, t, monkeypatch):
    rng = np.random.default_rng(7)
    p = _params(7)
    key_mask = np.arange(t) < np.asarray(lengths)[:, None]
    x = rng.normal(size=(int(key_mask.sum()), D))
    dout = rng.normal(size=x.shape)
    widths = []
    attention_forward = nn.attention_forward

    def spy(x, p, prefix, key_mask, heads):
        widths.append(key_mask.shape)
        return attention_forward(x, p, prefix, key_mask, heads)

    monkeypatch.setattr(nn, "attention_forward", spy)
    out, cache = nn.stack_forward(x, p, "s.", LAYERS, key_mask, HEADS)
    dx, grads = nn.stack_backward(cache, dout)
    assert widths == [key_mask.shape] * LAYERS  # one call per layer, on the whole batch
    ref_out, ref_dx, ref_grads = _unbanded_stack(x, p, key_mask, dout)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(dx, ref_dx)
    assert sorted(grads) == sorted(ref_grads)
    for key in grads:
        np.testing.assert_array_equal(grads[key], ref_grads[key])


def test_attention_runs_once_per_length_band(monkeypatch):
    # ceil(log2(length)): 1 -> 0, 2 -> 1, 3 and 4 -> 2, 5..8 -> 3, 17 -> 5
    lengths = (3, 1, 17, 4, 6, 2, 8)
    key_mask = np.arange(17) < np.asarray(lengths)[:, None]
    calls = []
    attention_forward = nn.attention_forward

    def spy(x, p, prefix, key_mask, heads):
        calls.append((x.shape[:2], key_mask.sum(axis=1).tolist()))
        return attention_forward(x, p, prefix, key_mask, heads)

    monkeypatch.setattr(nn, "attention_forward", spy)
    x = np.random.default_rng(0).normal(size=(int(key_mask.sum()), D))
    nn.layer_forward(x, _params(0), "s.layers.0.", key_mask, HEADS)
    assert calls == [
        ((1, 1), [1]),
        ((1, 2), [2]),
        ((2, 4), [3, 4]),
        ((2, 8), [6, 8]),
        ((1, 17), [17]),
    ]


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


# ---------------------------------------------------------------------------
# attention against the out-of-place formula
# ---------------------------------------------------------------------------


def _reference_attention(x, p, prefix, key_mask, heads):
    """Scaled dot-product attention, forward and a backward closure.

    The formula ``nn.attention_forward``/``attention_backward`` used before
    they worked in place: scores are scaled after ``q @ k.T``, masked with
    ``np.where``, and the softmax backward is ``attn * (dattn - rowsum)``.
    """
    wq, wk, wv, wo = (p[prefix + n] for n in ("wq", "wk", "wv", "wo"))
    bq, bk, bv, bo = (p[prefix + n] for n in ("bq", "bk", "bv", "bo"))
    b, t, d = x.shape

    def split(a):
        return a.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(b * t, d)

    q, k, v = split(x @ wq + bq), split(x @ wk + bk), split(x @ wv + bv)
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
            "wk": x2.T @ dk, "bk": dk.sum(axis=0),
            "wv": x2.T @ dv, "bv": dv.sum(axis=0),
        }
        dx = (dq @ wq.T + dk @ wk.T + dv @ wv.T).reshape(x.shape)
        return dx, {prefix + name: g for name, g in grads.items()}

    return out, backward


ATTENTION_MASKS = {
    "all-real": ((6, 6, 6), 6),
    "ragged": ((5, 2, 7, 1), 7),
    "one-key": ((1, 1, 1), 1),
    "batch-of-one": ((4,), 6),
}


@pytest.mark.parametrize("dh", [2, 4, 8])  # 1/sqrt(dh) is inexact at 2 and 8
@pytest.mark.parametrize("mask", sorted(ATTENTION_MASKS))
def test_attention_matches_out_of_place_reference(mask, dh):
    lengths, t = ATTENTION_MASKS[mask]
    heads = 2
    d = heads * dh
    for seed in range(3):
        rng = np.random.default_rng(seed)
        p = {}
        nn.init_stack_params(rng, p, "s.", 1, d, 2 * d)
        p = {k[len("s.layers.0."):]: v for k, v in p.items() if ".attn." in k}
        key_mask = np.arange(t) < np.asarray(lengths)[:, None]
        x = rng.normal(size=key_mask.shape + (d,))
        dout = rng.normal(size=x.shape)
        x_before = x.copy()
        p_before = {k: v.copy() for k, v in p.items()}

        out, cache = nn.attention_forward(x, p, "attn.", key_mask, heads)
        dx, grads = nn.attention_backward(cache, dout)
        ref_out, ref_backward = _reference_attention(x, p, "attn.", key_mask, heads)
        ref_dx, ref_grads = ref_backward(dout)

        assert _rel_err(out, ref_out) <= 1e-12
        assert _rel_err(dx, ref_dx) <= 1e-12
        assert sorted(grads) == sorted(ref_grads)
        for key in grads:
            if key.endswith("attn.bk"):
                # the exact key-bias gradient is zero (softmax is shift-invariant)
                assert max(np.abs(grads[key]).max(), np.abs(ref_grads[key]).max()) <= 1e-14
            else:
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


def _kept_weights_attention_forward(x, p, prefix, key_mask, heads):
    """``nn.attention_forward`` as it was when every call kept its weights.

    One (B, h, T, T) score buffer, masked and softmaxed in place, and
    cached whole for ``_kept_weights_attention_backward``.
    """
    wq, wk, wv, wo = (p[prefix + n] for n in ("wq", "wk", "wv", "wo"))
    bq, bk, bv, bo = (p[prefix + n] for n in ("bq", "bk", "bv", "bo"))
    q = nn._split_heads(x @ wq + bq, heads)
    k = nn._split_heads(x @ wk + bk, heads)
    v = nn._split_heads(x @ wv + bv, heads)
    scale = 1.0 / math.sqrt(q.shape[-1])
    q = q * scale
    attn = q @ k.transpose(0, 1, 3, 2)
    if not key_mask.all():
        np.copyto(attn, -np.inf, where=~key_mask[:, None, None, :])
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    merged = nn._merge_heads(attn @ v)
    out = merged @ wo + bo
    return out, (x, q, k, v, attn, merged, scale, prefix, heads, wq, wk, wv, wo)


def _kept_weights_attention_backward(cache, dout):
    x, q, k, v, attn, merged, scale, prefix, heads, wq, wk, wv, wo = cache
    d = x.shape[-1]
    dout2 = dout.reshape(-1, d)
    grads = {prefix + "wo": merged.reshape(-1, d).T @ dout2, prefix + "bo": dout2.sum(axis=0)}
    dctx = nn._split_heads(dout @ wo.T, heads)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    ds = dctx @ v.transpose(0, 1, 3, 2)
    ds -= np.einsum("...ij,...ij->...i", ds, attn)[..., None]
    ds *= attn
    dq = (ds @ k) * scale
    dk = ds.transpose(0, 1, 3, 2) @ q
    dq2, dk2, dv2 = (nn._merge_heads(a).reshape(-1, d) for a in (dq, dk, dv))
    x2 = x.reshape(-1, d)
    for name, g in (("q", dq2), ("k", dk2), ("v", dv2)):
        grads[prefix + "w" + name] = x2.T @ g
        grads[prefix + "b" + name] = g.sum(axis=0)
    dx = (dq2 @ wq.T + dk2 @ wk.T + dv2 @ wv.T).reshape(x.shape)
    return dx, grads


# one head; one example's two heads; three slices across examples (the last
# block may hold fewer)
@pytest.mark.parametrize("slices_per_block", [1, 2, 3])
@pytest.mark.parametrize("dh", [2, 8])
@pytest.mark.parametrize("mask", ["ragged", "one-key", "batch-of-one"])
def test_rebuilt_weights_attention_is_bit_identical_to_kept_weights(
    mask, dh, slices_per_block, monkeypatch
):
    lengths, t = ATTENTION_MASKS[mask]
    heads = 2
    d = heads * dh
    b = len(lengths)
    monkeypatch.setattr(nn, "_BLOCK_BYTES", slices_per_block * t * t * 8)
    rebuilt = []
    softmax_weights = nn._softmax_weights

    def spy(q, k, masked, block, rowmax, rowsum, rebuild):
        w = softmax_weights(q, k, masked, block, rowmax, rowsum, rebuild=rebuild)
        if rebuild:
            rebuilt.append((block, w.copy()))
        return w

    monkeypatch.setattr(nn, "_softmax_weights", spy)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        p = {}
        nn.init_stack_params(rng, p, "s.", 1, d, 2 * d)
        p = {k[len("s.layers.0."):]: v for k, v in p.items() if ".attn." in k}
        key_mask = np.arange(t) < np.asarray(lengths)[:, None]
        x = rng.normal(size=key_mask.shape + (d,))
        dout = rng.normal(size=x.shape)
        rebuilt.clear()

        out, cache = nn.attention_forward(x, p, "attn.", key_mask, heads)
        if t > 1:  # at T = 1 the row statistics are as large as the weights
            # only per-row statistics are kept, never a (B, h, T, T) array
            assert all(a.size != b * heads * t * t for a in cache if isinstance(a, np.ndarray))
        dx, grads = nn.attention_backward(cache, dout)
        ref_out, ref_cache = _kept_weights_attention_forward(x, p, "attn.", key_mask, heads)
        ref_dx, ref_grads = _kept_weights_attention_backward(ref_cache, dout)

        assert len(rebuilt) == math.ceil(b * heads / slices_per_block)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(dx, ref_dx)
        assert sorted(grads) == sorted(ref_grads)
        for key in grads:  # attn.bk included: the same rounding noise, bit for bit
            np.testing.assert_array_equal(grads[key], ref_grads[key])
        # each rebuilt block is the kept weights' block, and masked keys weigh 0
        ref_attn = ref_cache[4].reshape(b * heads, t, t)
        slice_keys = np.repeat(key_mask, heads, axis=0)
        for block, w in rebuilt:
            np.testing.assert_array_equal(w, ref_attn[block])
            assert np.all(w[np.broadcast_to(~slice_keys[block][:, None, :], w.shape)] == 0.0)
        if t == 1:
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
