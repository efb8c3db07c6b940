"""Dense padded transformer stack: the reference the packed-rows stack replaces.

Every (B, T) position runs every op, pads included; pads are hidden only as
attention keys. Built from the layernorm and attention primitives of
``seqreorder.nn``, so it stays independent of ``nn.stack_forward``/
``stack_backward``; its FFN is a local copy of the linear/ReLU formula
that ``nn.ffn_forward``/``ffn_backward`` replaced, so the oracle never runs
the FFN under test.
"""

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


def stack_forward(x, p, prefix, layers, key_mask, heads):
    """x (B, T, d) -> (B, T, d), every position through every layer."""
    caches = []
    for layer in range(layers):
        pre = f"{prefix}layers.{layer}."
        h1, c_ln1 = nn.layernorm_forward(x, p[pre + "ln1.gamma"], p[pre + "ln1.beta"])
        a, c_att = nn.attention_forward(h1, p, pre + "attn.", key_mask, heads)
        x1 = x + a
        h2, c_ln2 = nn.layernorm_forward(x1, p[pre + "ln2.gamma"], p[pre + "ln2.beta"])
        f, c_ffn = ffn_forward(h2, p, pre + "ffn.")
        x = x1 + f
        caches.append((pre, c_ln1, c_att, c_ln2, c_ffn))
    out, c_f = nn.layernorm_forward(x, p[prefix + "ln_f.gamma"], p[prefix + "ln_f.beta"])
    return out, (caches, c_f, prefix)


def stack_backward(cache, dout):
    """Input gradient (B, T, d) and every parameter gradient of the stack."""
    caches, c_f, prefix = cache
    grads = {}
    dx, grads[prefix + "ln_f.gamma"], grads[prefix + "ln_f.beta"] = nn.layernorm_backward(
        c_f, dout
    )
    for pre, c_ln1, c_att, c_ln2, c_ffn in reversed(caches):
        dh2, g_ffn = ffn_backward(c_ffn, dx)
        grads.update(g_ffn)
        dx1_ln, grads[pre + "ln2.gamma"], grads[pre + "ln2.beta"] = nn.layernorm_backward(
            c_ln2, dh2
        )
        dx1 = dx + dx1_ln
        dh1, g_att = nn.attention_backward(c_att, dx1)
        grads.update(g_att)
        dx_ln, grads[pre + "ln1.gamma"], grads[pre + "ln1.beta"] = nn.layernorm_backward(
            c_ln1, dh1
        )
        dx = dx1 + dx_ln
    return dx, grads
