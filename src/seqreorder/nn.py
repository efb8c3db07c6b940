"""Dense network primitives with hand-written backward passes.

Everything is float64 numpy. Each ``*_forward`` returns (output, cache) and
the matching ``*_backward`` consumes that cache plus the upstream gradient,
returning input gradients and a dict of parameter gradients. The
transformer stack carries its residual stream as packed rows (N, dim),
one per real token: the boolean (batch, positions) key mask is True at
real tokens, and the rows are its True entries in row-major order.
Layernorm, the FFN and the residual adds run on the rows; attention is the
only op that sees (batch, positions, dim), with pads scattered in as zero
rows. Masked positions are never keys or values, so their content cannot
leak into any other position. Attention runs once per length band: the
examples of a batch are grouped by ceil(log2(real tokens)), and each group
is cut to its own widest example, so short examples do not pay for the
longest one's T^2. A batch that falls in one band makes a single call.
Attention never keeps its (B, h, T, T) softmax weights. It runs over
blocks of consecutive (example, head) slices holding at most 1 MiB of
weights each, and keeps q, k, v and each softmax row's max and sum: the
backward rebuilds each block's weights with the forward's own operations,
bit for bit. The FFN builds and rectifies its hidden activation in place.

Importing this module fixes glibc's malloc thresholds for the whole
process (see ``_keep_freed_memory``), so each training step reuses the
pages the previous step freed instead of faulting them in again.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray
LN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# the most softmax weights one attention block holds (see attention_forward)
_BLOCK_BYTES = 1024 * 1024

# mallopt(3) parameters, and the largest mmap threshold 64-bit glibc accepts
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 * 1024 * 1024


def _keep_freed_memory() -> None:
    """Keep freed heap memory in this process for reuse, on glibc.

    By default glibc serves large blocks by mmap, returns them to the OS
    on free, and trims the heap top once enough of it is free. A training
    step allocates and frees some 15-20 MB of temporaries, so the next
    step would page-fault all of them back in. Serving every block up to
    32 MiB from the heap and never trimming it keeps those pages mapped;
    freed memory stays with the process until it exits. Trimming alone
    is not turned off when the threshold cannot be set: with blocks still
    mmapped that faults more, not less. Without glibc's mallopt (macOS,
    Windows, musl) this does nothing.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX):
        mallopt(_M_TRIM_THRESHOLD, -1)


_keep_freed_memory()


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> Array:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# layernorm
# ---------------------------------------------------------------------------


def layernorm_forward(x: Array, gamma: Array, beta: Array):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def layernorm_backward(cache, dy: Array):
    xhat, inv, gamma = cache
    dxhat = dy * gamma
    dgamma = (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0)
    dbeta = dy.reshape(-1, xhat.shape[-1]).sum(axis=0)
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# multi-head attention with key masking
# ---------------------------------------------------------------------------


def _split_heads(x: Array, heads: int) -> Array:
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: Array) -> Array:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _weight_blocks(slices: int, t: int) -> list[slice]:
    """Runs of (t, t) weight slices holding at most ``_BLOCK_BYTES``, never less than one."""
    step = max(1, _BLOCK_BYTES // (t * t * 8))
    return [slice(i, i + step) for i in range(0, slices, step)]


def _softmax_weights(q, k, masked, block, rowmax, rowsum, rebuild: bool) -> Array:
    """One block's softmax weights, made in place on its scores q·kᵀ.

    ``masked`` is None or, per slice, True at masked keys. The forward
    stores each row's max and sum in the block's rows of ``rowmax`` and
    ``rowsum``; a rebuild reads them back. Both run the same operations on
    the same values, so rebuilt weights are bit-identical.
    """
    w = q[block] @ k[block].transpose(0, 2, 1)
    if masked is not None:
        np.copyto(w, -np.inf, where=masked[block])
    if not rebuild:
        np.max(w, axis=-1, keepdims=True, out=rowmax[block])
    w -= rowmax[block]
    np.exp(w, out=w)
    if not rebuild:
        np.sum(w, axis=-1, keepdims=True, out=rowsum[block])
    w /= rowsum[block]
    return w


def attention_forward(x: Array, p: dict, prefix: str, key_mask: Array, heads: int):
    """Scaled dot-product attention; masked keys are unreachable (-inf).

    The scale is folded into q (the cached q is the scaled one), and
    masking and the softmax run in place on the scores. The (example,
    head) grid is one axis of B·h (T, T) slices, run in blocks of
    consecutive slices holding at most ``_BLOCK_BYTES`` (1 MiB) of weights
    (one slice when a slice is larger). The cache keeps q, k, v and each
    row's max and sum (B·h, T, 1), never the weights: the backward
    rebuilds each block's weights from them. No log-sum-exp is kept,
    because exp(s - lse) is not bitwise exp(s - max) / sum.
    """
    wq, wk, wv, wo = (p[prefix + n] for n in ("wq", "wk", "wv", "wo"))
    bq, bk, bv, bo = (p[prefix + n] for n in ("bq", "bk", "bv", "bo"))
    q = _split_heads(x @ wq + bq, heads)
    k = _split_heads(x @ wk + bk, heads)
    v = _split_heads(x @ wv + bv, heads)
    scale = 1.0 / math.sqrt(q.shape[-1])
    q = q * scale
    b, h, t, dh = q.shape
    q, k, v = (a.reshape(b * h, t, dh) for a in (q, k, v))
    masked = None if key_mask.all() else np.repeat(~key_mask, h, axis=0)[:, None, :]
    rowmax, rowsum, ctx = np.empty((b * h, t, 1)), np.empty((b * h, t, 1)), np.empty(q.shape)
    for block in _weight_blocks(b * h, t):
        w = _softmax_weights(q, k, masked, block, rowmax, rowsum, rebuild=False)
        np.matmul(w, v[block], out=ctx[block])
    merged = _merge_heads(ctx.reshape(b, h, t, dh))
    out = merged @ wo + bo
    cache = (x, q, k, v, masked, rowmax, rowsum, merged, scale, prefix, heads, wq, wk, wv, wo)
    return out, cache


def attention_backward(cache, dout: Array):
    x, q, k, v, masked, rowmax, rowsum, merged, scale, prefix, heads, wq, wk, wv, wo = cache
    b, t, d = x.shape
    grads = {}
    dout2 = dout.reshape(-1, d)
    grads[prefix + "wo"] = merged.reshape(-1, d).T @ dout2
    grads[prefix + "bo"] = dout2.sum(axis=0)
    dctx = _split_heads(dout @ wo.T, heads).reshape(q.shape)
    dq, dk, dv = np.empty(q.shape), np.empty(q.shape), np.empty(q.shape)
    for block in _weight_blocks(q.shape[0], t):
        w = _softmax_weights(q, k, masked, block, rowmax, rowsum, rebuild=True)
        np.matmul(w.transpose(0, 2, 1), dctx[block], out=dv[block])
        # softmax backward in place on d(weights); masked entries have weight
        # 0, so their grad is 0. ds is the gradient of the scores q·k with q
        # already scaled, so dk pairs it with that q and only dq takes the scale.
        ds = dctx[block] @ v[block].transpose(0, 2, 1)
        ds -= np.einsum("...ij,...ij->...i", ds, w)[..., None]
        ds *= w
        np.matmul(ds, k[block], out=dq[block])
        dq[block] *= scale
        np.matmul(ds.transpose(0, 2, 1), q[block], out=dk[block])
    dq2, dk2, dv2 = (_merge_heads(a.reshape(b, heads, t, -1)).reshape(-1, d) for a in (dq, dk, dv))
    x2 = x.reshape(-1, d)
    grads[prefix + "wq"] = x2.T @ dq2
    grads[prefix + "bq"] = dq2.sum(axis=0)
    grads[prefix + "wk"] = x2.T @ dk2
    grads[prefix + "bk"] = dk2.sum(axis=0)
    grads[prefix + "wv"] = x2.T @ dv2
    grads[prefix + "bv"] = dv2.sum(axis=0)
    dx = (dq2 @ wq.T + dk2 @ wk.T + dv2 @ wv.T).reshape(x.shape)
    return dx, grads


# ---------------------------------------------------------------------------
# transformer layer (pre-norm) and stack
# ---------------------------------------------------------------------------


def ffn_forward(x: Array, p: dict, prefix: str):
    """relu(x @ w1 + b1) @ w2 + b2 on rows x (N, d).

    The hidden activation is biased and rectified in place, and it is the
    only array the backward keeps besides x: a unit is active where it is
    positive.
    """
    w1, w2 = p[prefix + "w1"], p[prefix + "w2"]
    a = x @ w1
    a += p[prefix + "b1"]
    np.maximum(a, 0.0, out=a)
    out = a @ w2
    out += p[prefix + "b2"]
    return out, (x, a, w1, w2, prefix)


def ffn_backward(cache, dout: Array):
    x, a, w1, w2, prefix = cache
    dh = dout @ w2.T
    dh *= a > 0
    return dh @ w1.T, {
        prefix + "w1": x.T @ dh,
        prefix + "b1": dh.sum(axis=0),
        prefix + "w2": a.T @ dout,
        prefix + "b2": dout.sum(axis=0),
    }


def rows_to_padded(rows: Array, key_mask: Array) -> Array:
    """Scatter packed rows (N, d) into a zero-padded (B, T, d) array.

    Row k is the k-th True entry of ``key_mask`` in row-major order. When
    every position is real the result is a reshaped view, not a copy.
    """
    if key_mask.all():
        return rows.reshape(key_mask.shape + rows.shape[1:])
    out = np.zeros(key_mask.shape + rows.shape[1:])
    out[key_mask] = rows
    return out


def padded_to_rows(padded: Array, key_mask: Array) -> Array:
    """Gather the real positions of a (B, T, d) array into rows (N, d)."""
    if key_mask.all():
        return padded.reshape(-1, padded.shape[-1])
    return padded[key_mask]


def _length_bands(key_mask: Array) -> list[tuple]:
    """Attention groups of a batch as (example index, width) pairs.

    Examples are grouped by ceil(log2(real tokens)), and each group's width
    runs to the last real position of its widest example. A batch that
    falls in one band is one group of every example at the full width.
    """
    bands = np.ceil(np.log2(key_mask.sum(axis=1)))
    if (bands == bands[0]).all():
        return [(slice(None), key_mask.shape[1])]
    ends = key_mask.shape[1] - key_mask[:, ::-1].argmax(axis=1)
    groups = []
    for band in np.unique(bands):
        idx = np.flatnonzero(bands == band)
        groups.append((idx, int(ends[idx].max())))
    return groups


def _scatter_bands(parts: list, groups: list, like: Array) -> Array:
    """The groups' (b_g, width, d) arrays placed back into one like ``like``."""
    if len(parts) == 1:
        return parts[0]
    out = np.zeros_like(like)
    for (idx, width), part in zip(groups, parts):
        out[idx, :width] = part
    return out


def _banded_attention_forward(x: Array, p: dict, prefix: str, key_mask: Array, heads: int):
    """Attention on packed rows x (N, d), one ``attention_forward`` call per band."""
    groups = _length_bands(key_mask)
    padded = rows_to_padded(x, key_mask)
    results = [
        attention_forward(padded[idx, :width], p, prefix, key_mask[idx, :width], heads)
        for idx, width in groups
    ]
    out = _scatter_bands([r[0] for r in results], groups, padded)
    return padded_to_rows(out, key_mask), (groups, [r[1] for r in results], key_mask)


def _banded_attention_backward(cache, dout: Array):
    """Row gradient (N, d) and the parameter gradients summed over the bands."""
    groups, caches, key_mask = cache
    dpadded = rows_to_padded(dout, key_mask)
    results = [
        attention_backward(c, dpadded[idx, :width]) for (idx, width), c in zip(groups, caches)
    ]
    grads = results[0][1]
    for _, g in results[1:]:
        for key in grads:
            grads[key] = grads[key] + g[key]
    dx = _scatter_bands([r[0] for r in results], groups, dpadded)
    return padded_to_rows(dx, key_mask), grads


def layer_forward(x: Array, p: dict, prefix: str, key_mask: Array, heads: int):
    """One pre-norm layer on packed rows x (N, d); only attention sees (B, T, d).

    Pad positions enter attention as zero rows. They are never keys, so
    their queries feed nothing, and dropping their outputs is exact.
    """
    h1, c_ln1 = layernorm_forward(x, p[prefix + "ln1.gamma"], p[prefix + "ln1.beta"])
    a, c_att = _banded_attention_forward(h1, p, prefix + "attn.", key_mask, heads)
    x1 = x + a
    h2, c_ln2 = layernorm_forward(x1, p[prefix + "ln2.gamma"], p[prefix + "ln2.beta"])
    f, c_ffn = ffn_forward(h2, p, prefix + "ffn.")
    return x1 + f, (c_ln1, c_att, c_ln2, c_ffn, prefix)


def layer_backward(cache, dout: Array):
    c_ln1, c_att, c_ln2, c_ffn, prefix = cache
    grads = {}
    dh2, g_ffn = ffn_backward(c_ffn, dout)
    grads.update(g_ffn)
    dx1_ln, dg2, db2 = layernorm_backward(c_ln2, dh2)
    grads[prefix + "ln2.gamma"] = dg2
    grads[prefix + "ln2.beta"] = db2
    dx1 = dout + dx1_ln
    # pads get a zero upstream gradient; their input gradient is exactly zero
    dh1, g_att = _banded_attention_backward(c_att, dx1)
    grads.update(g_att)
    dx_ln, dg1, db1 = layernorm_backward(c_ln1, dh1)
    grads[prefix + "ln1.gamma"] = dg1
    grads[prefix + "ln1.beta"] = db1
    dx = dx1 + dx_ln
    return dx, grads


def init_stack_params(
    rng: np.random.Generator,
    params: dict,
    prefix: str,
    layers: int,
    d: int,
    ffn_dim: int,
) -> None:
    """Append transformer-stack parameters under ``prefix`` (in place)."""
    for layer in range(layers):
        base = f"{prefix}layers.{layer}."
        params[base + "ln1.gamma"] = np.ones(d)
        params[base + "ln1.beta"] = np.zeros(d)
        for name in ("wq", "wk", "wv", "wo"):
            params[base + f"attn.{name}"] = uniform_init(rng, (d, d), d)
        for name in ("bq", "bk", "bv", "bo"):
            params[base + f"attn.{name}"] = uniform_init(rng, (d,), d)
        params[base + "ln2.gamma"] = np.ones(d)
        params[base + "ln2.beta"] = np.zeros(d)
        params[base + "ffn.w1"] = uniform_init(rng, (d, ffn_dim), d)
        params[base + "ffn.b1"] = uniform_init(rng, (ffn_dim,), d)
        params[base + "ffn.w2"] = uniform_init(rng, (ffn_dim, d), ffn_dim)
        params[base + "ffn.b2"] = uniform_init(rng, (d,), ffn_dim)
    params[prefix + "ln_f.gamma"] = np.ones(d)
    params[prefix + "ln_f.beta"] = np.zeros(d)


def stack_forward(x: Array, p: dict, prefix: str, layers: int, key_mask: Array, heads: int):
    """The layers plus the final layernorm on packed rows x (N, d).

    ``key_mask`` (B, T) is True at real tokens; x holds their rows in
    row-major order, and the output rows keep that order.
    """
    caches = []
    for layer in range(layers):
        x, c = layer_forward(x, p, f"{prefix}layers.{layer}.", key_mask, heads)
        caches.append(c)
    out, c_f = layernorm_forward(x, p[prefix + "ln_f.gamma"], p[prefix + "ln_f.beta"])
    return out, (caches, c_f, prefix)


def stack_backward(cache, dout: Array):
    caches, c_f, prefix = cache
    grads = {}
    dx, dgf, dbf = layernorm_backward(c_f, dout)
    grads[prefix + "ln_f.gamma"] = dgf
    grads[prefix + "ln_f.beta"] = dbf
    for c in reversed(caches):
        dx, g = layer_backward(c, dx)
        grads.update(g)
    return dx, grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_init(params: dict) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        t=0,
    )


def adam_step(
    params: dict,
    grads: dict,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One Adam update in place; weight decay is applied decoupled.

    beta1, beta2 and eps are ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPS``. Parameters and both moments are updated in their own
    arrays, through two scratch arrays per key. Every rounding step is
    that of
        m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*(g*g)
        p -= lr*(m/bc1) / (sqrt(v/bc2) + eps);  p -= (lr*weight_decay)*p
    so the result is bit-identical to evaluating those expressions.
    """
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for key in sorted(params):
        g, m, v, p = grads[key], state.m[key], state.v[key], params[key]
        # explicit out= arrays keep 0-d parameters 0-d arrays, not scalars
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


def l2_penalty(params: dict, coef: float) -> float:
    """(coef / 2) * sum of squared parameter entries."""
    if coef == 0.0:
        return 0.0
    return 0.5 * coef * float(sum((p * p).sum() for p in params.values()))


def embedding_backward(index: Array, drows: Array, vocab: int) -> Array:
    """Gradient of an embedding table from the rows that looked it up.

    A one-hot matmul: several times faster than ``np.add.at`` at these
    table sizes.
    """
    return np.eye(vocab)[index].T @ drows
