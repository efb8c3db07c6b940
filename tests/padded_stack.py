"""Dense padded transformer stack: the reference the packed-rows stack replaces.

Every (B, T) position runs every op, pads included; pads are hidden only as
attention keys, by a (B, T) key mask. Built from the layernorm primitive
of ``seqreorder.nn``, so it stays independent of ``nn.stack_forward``/
``stack_backward``. Its attention is a local copy of the masked attention
that ``nn.attention_forward``/``attention_backward`` ran before they took
packed rows, and its FFN a local copy of the linear/ReLU formula that
``nn.ffn_forward``/``ffn_backward`` replaced, so the oracle never runs the
attention or the FFN under test.
"""

import math

import numpy as np

from seqreorder import nn


def _linear_forward(x, w, b):
    return x @ w + b, (x, w)


def _linear_backward(cache, dy):
    x, w = cache
    din, dout = w.shape
    x2 = x.reshape(-1, din)
    dy2 = dy.reshape(-1, dout)
    return (dy2 @ w.T).reshape(x.shape), x2.T @ dy2, dy2.sum(axis=0)


def ffn_forward(x, p, prefix):
    """relu(x @ w1 + b1) @ w2 + b2 on any leading shape, out of place."""
    h, c1 = _linear_forward(x, p[prefix + "w1"], p[prefix + "b1"])
    out, c2 = _linear_forward(np.maximum(h, 0.0), p[prefix + "w2"], p[prefix + "b2"])
    return out, (c1, h > 0, c2, prefix)


def ffn_backward(cache, dout):
    c1, active, c2, prefix = cache
    da, dw2, db2 = _linear_backward(c2, dout)
    dx, dw1, db1 = _linear_backward(c1, da * active)
    return dx, {prefix + "w1": dw1, prefix + "b1": db1, prefix + "w2": dw2, prefix + "b2": db2}


def _split_heads(x, heads):
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def attention_forward(x, p, prefix, key_mask, heads):
    """Scaled dot-product attention on x (B, T, d); masked keys get -inf.

    The unnormalized weights exp(s - max) are made in place on one block of
    every (example, head) slice, each row's sum divides the context, and
    the weights are rebuilt in the backward from each row's max.
    """
    wq, wk, wv, wo = (p[prefix + n] for n in ("wq", "wk", "wv", "wo"))
    bq, bv, bo = (p[prefix + n] for n in ("bq", "bv", "bo"))
    q = _split_heads(x @ wq + bq, heads)
    k = _split_heads(x @ wk, heads)
    v = _split_heads(x @ wv + bv, heads)
    scale = 1.0 / math.sqrt(q.shape[-1])
    q = q * scale
    b, h, t, dh = q.shape
    q, k, v = (a.reshape(b * h, t, dh) for a in (q, k, v))
    masked = None if key_mask.all() else np.repeat(~key_mask, h, axis=0)[:, None, :]
    rowmax, rowsum = np.empty((b * h, t, 1)), np.empty((b * h, t, 1))
    e = _softmax_weights(q, k, masked, rowmax, rowsum, rebuild=False)
    merged = _merge_heads(((e @ v) / rowsum).reshape(b, h, t, dh))
    out = merged @ wo + bo
    return out, (x, q, k, v, masked, rowmax, rowsum, merged, scale, prefix, heads, wq, wk, wv, wo)


def _softmax_weights(q, k, masked, rowmax, rowsum, rebuild):
    w = q @ k.transpose(0, 2, 1)
    if masked is not None:
        np.copyto(w, -np.inf, where=masked)
    if not rebuild:
        np.max(w, axis=-1, keepdims=True, out=rowmax)
    w -= rowmax
    np.exp(w, out=w)
    if not rebuild:
        np.sum(w, axis=-1, keepdims=True, out=rowsum)
    return w


def attention_backward(cache, dout):
    x, q, k, v, masked, rowmax, rowsum, merged, scale, prefix, heads, wq, wk, wv, wo = cache
    b, t, d = x.shape
    dout2 = dout.reshape(-1, d)
    grads = {prefix + "wo": merged.reshape(-1, d).T @ dout2, prefix + "bo": dout2.sum(axis=0)}
    dctx = _split_heads(dout @ wo.T, heads).reshape(q.shape) / rowsum
    e = _softmax_weights(q, k, masked, rowmax, rowsum, rebuild=True)
    dv = e.transpose(0, 2, 1) @ dctx
    # masked entries have weight 0, so their grad is 0
    ds = dctx @ v.transpose(0, 2, 1)
    ds -= np.einsum("...ij,...ij->...i", ds, e)[..., None] / rowsum
    ds *= e
    dq = (ds @ k) * scale
    dk = ds.transpose(0, 2, 1) @ q
    dq2, dk2, dv2 = (_merge_heads(a.reshape(b, heads, t, -1)).reshape(-1, d) for a in (dq, dk, dv))
    x2 = x.reshape(-1, d)
    grads[prefix + "wq"] = x2.T @ dq2
    grads[prefix + "bq"] = dq2.sum(axis=0)
    grads[prefix + "wk"] = x2.T @ dk2
    grads[prefix + "wv"] = x2.T @ dv2
    grads[prefix + "bv"] = dv2.sum(axis=0)
    dx = (dq2 @ wq.T + dk2 @ wk.T + dv2 @ wv.T).reshape(x.shape)
    return dx, grads


def stack_forward(x, p, prefix, layers, key_mask, heads):
    """x (B, T, d) -> (B, T, d), every position through every layer."""
    caches = []
    for layer in range(layers):
        pre = f"{prefix}layers.{layer}."
        h1, c_ln1 = nn.layernorm_forward(x, p[pre + "ln1.gamma"], p[pre + "ln1.beta"])
        a, c_att = attention_forward(h1, p, pre + "attn.", key_mask, heads)
        x1 = x + a
        h2, c_ln2 = nn.layernorm_forward(x1, p[pre + "ln2.gamma"], p[pre + "ln2.beta"])
        f, c_ffn = ffn_forward(h2, p, pre + "ffn.")
        x = x1 + f
        caches.append((pre, c_ln1, c_att, c_ln2, c_ffn))
    return x, caches


def stack_backward(caches, dout):
    """Input gradient (B, T, d) and every parameter gradient of the layers."""
    grads = {}
    dx = dout
    for pre, c_ln1, c_att, c_ln2, c_ffn in reversed(caches):
        dh2, g_ffn = ffn_backward(c_ffn, dx)
        grads.update(g_ffn)
        dx1_ln, grads[pre + "ln2.gamma"], grads[pre + "ln2.beta"] = nn.layernorm_backward(
            c_ln2, dh2
        )
        dx1 = dx + dx1_ln
        dh1, g_att = attention_backward(c_att, dx1)
        grads.update(g_att)
        dx_ln, grads[pre + "ln1.gamma"], grads[pre + "ln1.beta"] = nn.layernorm_backward(
            c_ln1, dh1
        )
        dx = dx1 + dx_ln
    return dx, grads
