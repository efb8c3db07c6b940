"""Dense network primitives with hand-written backward passes.

Everything is float64 numpy. Each ``*_forward`` returns (output, cache) and
the matching ``*_backward`` consumes that cache plus the upstream gradient,
returning input gradients and a dict of parameter gradients. The
transformer stack carries its residual stream as packed rows (N, dim), one
per real token, example after example; per-example ``lengths`` (B,) say
where each example's rows end. Layernorm, the FFN and the residual adds
run on the rows. Attention gathers the examples of each length into one
group of head slices and runs each example over its own rows only, so no
position is padded or masked and no example pays for a longer one's T^2.
Attention never keeps its softmax weights. It runs over blocks of
consecutive (example, head) slices holding at most 1 MiB of weights each,
and keeps q, k, v and each softmax row's max and sum: the backward
rebuilds each block's unnormalized weights bit for bit, and the sums
divide the (t, dh) context and its gradient, never the (t, t) weights.
Layernorm's row statistics are einsum row dots; the FFN's ReLU runs in place.
``token_encoder_forward`` is the whole token path of the protein and the
compound encoders: summed embedding lookups, the stack, a final layernorm
and mean pooling, with its mirror in ``token_encoder_backward``. An
inference forward keeps no caches: it drops each layer's cache before the
next layer runs, so its memory does not grow with depth.

Importing this module fixes glibc's malloc thresholds for the whole
process (see ``_keep_freed_memory``), so each training step reuses the
pages the previous step freed instead of faulting them in again, and pins
BLAS to one thread (see ``_pin_blas_threads``); ``BLAS_THREADS`` is the
count the library reports after the pin, or None where none reports one.
``MAX_TOKENS`` is the most real tokens one forward holds, training or
inference, in both stacks, and ``_micro_batches`` the one cut by it:
``run_halves`` cuts a training batch in two, in pretraining and in
fine-tuning, and each half into such micro-batches, and the inference
forwards run their inputs in the same cut, so no forward's memory grows
with the number of its inputs.
``run_pair`` runs the halves on ``WORKERS`` processes (2 where the
process may run on two CPUs, else 1): this one, and one forked worker
process that lives as long as the process. Parameters and gradients cross
through shared memory, and only the small inputs and outputs through a
pipe. Adam runs each large key in blocks that stay in cache.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import math
import mmap
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import WorkerError

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


def _pin_blas_threads() -> int | None:
    """Run numpy's bundled OpenBLAS on one thread for the whole process.

    OpenBLAS splits a product's sums by its thread count, so the bits of
    every artifact would depend on it. Reopening the loaded library by its
    path returns the same copy; where none has the setter, nothing is set.
    Returns the thread count the library reports after the pin, or None
    where no known library or symbol reports one.
    """
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes = (ctypes.c_int,)
            setter.restype = None
            setter(1)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter()
    return None


# the BLAS thread count every product in this process runs on, where known
BLAS_THREADS = _pin_blas_threads()

# processes ``run_pair`` runs on: this one, plus a worker where a second CPU is ours
WORKERS = 2 if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2 else 1

# the most real tokens one forward holds, a training micro-batch (see
# ``run_halves``) or an inference run of inputs, one input at least: a
# forward's memory is that of one budget, whatever the number of inputs
# (Ott et al. 2018)
MAX_TOKENS = 2048

# the smallest shared region a worker maps: room for the parameters and
# gradients of every model the README trains, so one fork serves a process;
# pages nobody touches take no memory
_MIN_SHARED_BYTES = 16 * 1024 * 1024
# each array in the shared region starts on a cache line
_SHARED_ALIGN = 64


def _shared_layout(params: dict) -> tuple[list, int]:
    """(key, shape, offset) of each parameter in a shared region, and the bytes they span."""
    layout, end = [], 0
    for key, p in params.items():
        layout.append((key, p.shape, end))
        end += -(-p.nbytes // _SHARED_ALIGN) * _SHARED_ALIGN
    return layout, end


def _shared_arrays(region: mmap.mmap, layout: list, base: int) -> dict:
    """float64 arrays over ``region`` at ``layout``'s offsets past ``base``."""
    return {key: np.ndarray(shape, np.float64, region, base + at) for key, shape, at in layout}


def _send(pipe, message) -> None:
    # One pickled bytes object per message: one that fails to unpickle
    # leaves the stream in step.
    pickle.dump(pickle.dumps(message, pickle.HIGHEST_PROTOCOL), pipe, pickle.HIGHEST_PROTOCOL)
    pipe.flush()


class _Worker:
    """A forked process that runs the second part of each ``run_pair`` call.

    The parameters and the gradients cross through ``region``, an anonymous
    mapping both processes share: the parameters from offset 0, their
    gradients past them in the same layout. Only the work function, the
    part, the layout and the part's other results go through the pipes.
    The worker ignores SIGINT, which the parent handles, and exits when
    its request pipe reaches EOF: on ``stop``, or when the parent dies.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.region = mmap.mmap(-1, size)
        request_read, request_write = os.pipe()
        reply_read, reply_write = os.pipe()
        sys.stdout.flush()  # else the worker holds a copy of what is unwritten
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                os.close(request_write)  # the parent's end: its death is our EOF
                os.close(reply_read)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                self._serve(os.fdopen(request_read, "rb"), os.fdopen(reply_write, "wb"))
                code = 0
            finally:
                os._exit(code)
        os.close(request_read)
        os.close(reply_write)
        self.requests = os.fdopen(request_write, "wb")
        self.replies = os.fdopen(reply_read, "rb")

    def _serve(self, requests, replies) -> None:
        while True:
            try:
                message = pickle.load(requests)
            except EOFError:
                return
            try:
                fn, layout, base, part = pickle.loads(message)
                value, grads = fn(_shared_arrays(self.region, layout, 0), part)
                out = _shared_arrays(self.region, layout, base)
                for key, g in grads.items():
                    out[key][...] = g
                reply = (True, (value, list(grads)))
            except Exception as exc:  # the parent raises it in this part's place
                reply = (False, exc)
            try:
                _send(replies, reply)
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                error = WorkerError(f"the worker cannot send back its result: {exc}")
                _send(replies, (False, error))

    def submit(self, fn, params: dict, part, layout: list, base: int) -> None:
        """Start ``fn(params, part)`` on ``params`` copied into the region at ``layout``."""
        self.layout, self.base = layout, base
        for key, a in _shared_arrays(self.region, layout, 0).items():
            a[...] = params[key]
        try:
            _send(self.requests, (fn, layout, base, part))
        except BrokenPipeError:
            raise self._died() from None

    def reply(self) -> tuple[bool, object]:
        """(True, the submitted call's result) or (False, the error to raise in its place).

        The result's gradients are read-only arrays in the region, valid
        until the next ``submit``.
        """
        try:
            message = pickle.load(self.replies)
        except EOFError:
            return False, self._died()
        except BaseException:  # an interrupt leaves the pipes out of step
            self.stop()
            raise
        try:
            ok, result = pickle.loads(message)
        except Exception as exc:  # say so in the part's place, the stream still in step
            return False, WorkerError(f"the worker's result cannot be read: {exc!r}")
        if not ok:
            return False, result
        value, keys = result
        keys = set(keys)
        grads = _shared_arrays(self.region, [e for e in self.layout if e[0] in keys], self.base)
        for g in grads.values():
            g.flags.writeable = False
        return True, (value, grads)

    def _died(self) -> WorkerError:
        return WorkerError(f"the training worker process exited with code {self.stop()}")

    def stop(self) -> int | None:
        """Close the pipes and wait for the worker to exit: its exit code, or None if stopped."""
        if self.pid is None:
            return None
        with contextlib.suppress(BrokenPipeError):  # a request left unsent to a dead worker
            self.requests.close()
        self.replies.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)


_worker: _Worker | None = None


def stop_worker() -> None:
    """Stop the worker process, if one runs; the next ``run_pair`` at 2 workers forks another."""
    global _worker
    if _worker is not None:
        _worker.stop()
        _worker = None


def _drop_inherited_worker() -> None:
    """In a process forked from one that holds a worker, close its pipes here.

    Else this process would hold the worker's request pipe open: the
    worker would not see its parent exit, and the parent's ``stop_worker``
    would wait for it as long as this process lives.
    """
    global _worker
    if _worker is not None and _worker.pid is not None:
        _worker.requests.close()
        _worker.replies.close()
    _worker = None


atexit.register(stop_worker)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_inherited_worker)


def _live_worker(size: int) -> _Worker:
    """The worker, forked first where none runs or its region is smaller than ``size`` bytes."""
    global _worker
    if _worker is None or _worker.pid is None or _worker.size < size:
        stop_worker()
        _worker = _Worker(max(size, _MIN_SHARED_BYTES))
    return _worker


def run_pair(fn, params: dict, first, second) -> tuple:
    """(fn(params, first), fn(params, second)), the two at once where ``WORKERS`` is 2.

    ``fn`` is a module-level function that returns (value, grads), grads
    being a dict of arrays shaped like some of the float64 ``params``. At
    2 workers this process runs ``first`` and the worker process runs
    ``second``, on a copy of ``params``; the second result's gradients are
    then read-only views valid until the next call. Both parts finish
    before this returns or raises, and an error from ``first`` is raised
    before one from ``second``; a worker that dies is a ``WorkerError``
    naming its exit code. ``fn`` must depend on its arguments alone: then
    the worker count changes no bit of the results, since BLAS runs on
    one thread.
    """
    if WORKERS < 2:
        return fn(params, first), fn(params, second)
    layout, base = _shared_layout(params)
    worker = _live_worker(2 * base)
    worker.submit(fn, params, second, layout, base)
    try:
        head = fn(params, first)
    finally:
        ok, tail = worker.reply()
    if not ok:
        raise tail
    return head, tail


def _micro_batches(tokens, start: int, stop: int) -> list[slice]:
    """Consecutive runs of items start..stop-1 holding at most ``MAX_TOKENS`` tokens.

    ``tokens`` holds each item's real tokens. A run never holds less than
    one item, so an item over the budget runs alone; an empty range has
    no runs.
    """
    cuts, total = [start], 0
    for i in range(start, stop):
        if total + tokens[i] > MAX_TOKENS and i > cuts[-1]:
            cuts.append(i)
            total = 0
        total += tokens[i]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:] + [stop]) if a < b]


def _accumulate(params: dict, work: tuple) -> tuple:
    """(each part's value, the gradients) of ``work``, (fn, parts), run in order.

    Each later part's gradients are added into the first's arrays, in
    order, so the work keeps one part's activations at a time.
    """
    fn, parts = work
    values, grads = [], None
    for part in parts:
        value, more = fn(params, part)
        values.append(value)
        if grads is None:
            grads = more
            continue
        for key, g in more.items():
            grads[key] += g
    return values, grads


def run_halves(fn, params: dict, items, part, tokens) -> tuple:
    """``fn`` on the first ceil(B/2) of ``items`` and on the rest, in micro-batches.

    Each half runs as consecutive micro-batches of at most
    ``MAX_TOKENS`` real tokens (``tokens`` holds each item's count), one
    item at least, in order: the halves through ``run_pair``, so the
    second in the worker where there are 2 workers, and a batch of one
    item in process. ``part`` makes each micro-batch's argument from its
    items. Returns (each micro-batch's value, in item order; the
    gradients): every micro-batch's gradients are summed in order within
    its half, and the second half's are added into the first's. The data
    alone sets the cuts, so the worker count changes no bit (Ott et al.
    2018).
    """
    cut = (len(items) + 1) // 2
    halves = [
        (fn, [part(items[run]) for run in _micro_batches(tokens, start, stop)])
        for start, stop in ((0, cut), (cut, len(items)))
        if start < stop
    ]
    if len(halves) < 2:
        return _accumulate(params, *halves)
    (values, grads), (more_values, more) = run_pair(_accumulate, params, *halves)
    for key, g in more.items():
        grads[key] += g
    return values + more_values, grads


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> Array:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# layernorm
# ---------------------------------------------------------------------------


def layernorm_forward(x: Array, gamma: Array, beta: Array | None = None):
    """gamma * xhat + beta over the last axis; no beta adds nothing.

    The variance is a per-row einsum dot: a row's bits do not depend on its layout.
    """
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.einsum("...j,...j->...", xc, xc)[..., None] / x.shape[-1]
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xc *= inv
    out = gamma * xc
    if beta is not None:
        out += beta
    return out, (xc, inv, gamma)


def layernorm_backward(cache, dy: Array):
    xhat, inv, gamma = cache
    d = xhat.shape[-1]
    dxhat = dy * gamma
    dgamma = np.einsum("ij,ij->j", dy.reshape(-1, d), xhat.reshape(-1, d))
    dbeta = dy.reshape(-1, d).sum(axis=0)
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = np.einsum("...j,...j->...", dxhat, xhat)[..., None] / d
    # dx = inv * (dxhat - m1 - xhat * m2), built in dxhat
    dxhat -= m1
    dxhat -= xhat * m2
    dxhat *= inv
    return dxhat, dgamma, dbeta


# ---------------------------------------------------------------------------
# multi-head attention on packed rows
# ---------------------------------------------------------------------------


def _length_groups(lengths: Array) -> tuple:
    """The row order that puts the examples of each length together, and the groups.

    ``order`` lists the rows (N,) with the examples stably sorted by length,
    or is None when they already are. Each group is (rows, examples,
    length), ``rows`` being the slice of the sorted rows its examples fill.
    """
    lengths = np.asarray(lengths)
    order = None
    if (np.diff(lengths) < 0).any():
        starts = np.cumsum(lengths) - lengths
        by_length = np.argsort(lengths, kind="stable")
        order = np.concatenate([np.arange(starts[i], starts[i] + lengths[i]) for i in by_length])
    groups, start = [], 0
    for t, b in zip(*(a.tolist() for a in np.unique(lengths, return_counts=True))):
        groups.append((slice(start, start + b * t), b, t))
        start += b * t
    return order, groups


def _unsort(rows: Array, order: Array) -> Array:
    """Rows in the order of ``_length_groups`` back in their own order."""
    return rows[np.argsort(order)]


def _split_heads(rows: Array, b: int, heads: int) -> Array:
    """Rows (b·t, d) of b examples of length t as head slices (b·h, t, dh)."""
    t = rows.shape[0] // b
    return rows.reshape(b, t, heads, -1).transpose(0, 2, 1, 3).reshape(b * heads, t, -1)


def _merge_heads(slices: Array, rows: Array) -> None:
    """Write head slices (b·h, t, dh) into their rows (b·t, d), in place."""
    bh, t, dh = slices.shape
    b = rows.shape[0] // t
    rows.reshape(b, t, bh // b, dh)[...] = slices.reshape(b, bh // b, t, dh).transpose(0, 2, 1, 3)


def _weight_blocks(slices: int, t: int) -> list[slice]:
    """Runs of (t, t) weight slices holding at most ``_BLOCK_BYTES``, never less than one."""
    step = max(1, _BLOCK_BYTES // (t * t * 8))
    return [slice(i, i + step) for i in range(0, slices, step)]


def _softmax_weights(q, k, block, rowmax, rowsum, rebuild: bool) -> Array:
    """One block's unnormalized softmax weights exp(q·kᵀ − max), in place on the scores.

    The forward stores each row's max and sum in the block's rows of
    ``rowmax`` and ``rowsum``; a rebuild reads the max back. Both run the
    same operations on the same values, so rebuilt weights are
    bit-identical. The caller divides by the row sums.
    """
    w = q[block] @ k[block].transpose(0, 2, 1)
    if not rebuild:
        np.max(w, axis=-1, keepdims=True, out=rowmax[block])
    w -= rowmax[block]
    np.exp(w, out=w)
    if not rebuild:
        np.sum(w, axis=-1, keepdims=True, out=rowsum[block])
    return w


def attention_forward(x: Array, p: dict, prefix: str, lengths: Array, heads: int):
    """Scaled dot-product attention of each example over its own rows.

    x holds packed rows (N, d), example after example, ``lengths`` (B,)
    of them each. q, k and v are projected on the rows, and the examples
    of each length are gathered into one group of (b·h, t, dh) head
    slices; a batch already in length order runs on its rows as they are.
    Nothing is masked. There is no key bias: the softmax ignores it.

    The scale is folded into q (the cached q is the scaled one), and the
    weights e = exp(s - max) are made in place on the scores, in blocks of
    consecutive slices holding at most ``_BLOCK_BYTES`` (1 MiB) of them
    (one slice when a slice is larger). Each row's sum divides the (t, dh)
    context, not e, as in FlashAttention (Dao et al. 2022). The cache keeps
    q, k, v and each row's max and sum, never e: the backward rebuilds e
    bit for bit and divides the context gradient by the sums. No
    log-sum-exp is kept: exp(s - lse) is not bitwise exp(s - max) / sum.
    """
    wq, wk, wv, wo = (p[prefix + n] for n in ("wq", "wk", "wv", "wo"))
    bq, bv, bo = (p[prefix + n] for n in ("bq", "bv", "bo"))
    order, groups = _length_groups(lengths)
    xs = x if order is None else x[order]
    scale = 1.0 / math.sqrt(x.shape[1] // heads)
    q, k, v = (xs @ wq + bq) * scale, xs @ wk, xs @ wv + bv
    merged = np.empty_like(xs)
    kept = []
    for rows, b, t in groups:
        qg, kg, vg = (_split_heads(a[rows], b, heads) for a in (q, k, v))
        rowmax, rowsum = np.empty((b * heads, t, 1)), np.empty((b * heads, t, 1))
        ctx = np.empty(qg.shape)
        for block in _weight_blocks(b * heads, t):
            e = _softmax_weights(qg, kg, block, rowmax, rowsum, rebuild=False)
            np.matmul(e, vg[block], out=ctx[block])
        ctx /= rowsum
        _merge_heads(ctx, merged[rows])
        kept.append((qg, kg, vg, rowmax, rowsum))
    out = merged @ wo + bo
    if order is not None:
        out = _unsort(out, order)
    cache = (xs, order, groups, kept, merged, scale, prefix, heads, wq, wk, wv, wo)
    return out, cache


def attention_backward(cache, dout: Array):
    xs, order, groups, kept, merged, scale, prefix, heads, wq, wk, wv, wo = cache
    if order is not None:
        dout = dout[order]
    grads = {prefix + "wo": merged.T @ dout, prefix + "bo": dout.sum(axis=0)}
    dctx_rows = dout @ wo.T
    dq, dk, dv = np.empty_like(xs), np.empty_like(xs), np.empty_like(xs)
    for (rows, b, t), (q, k, v, rowmax, rowsum) in zip(groups, kept):
        dctx = _split_heads(dctx_rows[rows], b, heads)
        dctx /= rowsum  # the weights are e / rowsum: every product of e takes dctx / rowsum
        gq, gk, gv = np.empty(q.shape), np.empty(q.shape), np.empty(q.shape)
        for block in _weight_blocks(b * heads, t):
            e = _softmax_weights(q, k, block, rowmax, rowsum, rebuild=True)
            np.matmul(e.transpose(0, 2, 1), dctx[block], out=gv[block])
            # softmax backward in place on d(weights) / rowsum. ds is the
            # gradient of the scores q·k with q already scaled, so dk pairs
            # it with that q and only dq takes the scale.
            ds = dctx[block] @ v[block].transpose(0, 2, 1)
            ds -= np.einsum("...ij,...ij->...i", ds, e)[..., None] / rowsum[block]
            ds *= e
            np.matmul(ds, k[block], out=gq[block])
            gq[block] *= scale
            np.matmul(ds.transpose(0, 2, 1), q[block], out=gk[block])
        for g, d_rows in ((gq, dq), (gk, dk), (gv, dv)):
            _merge_heads(g, d_rows[rows])
    grads[prefix + "wq"] = xs.T @ dq
    grads[prefix + "bq"] = dq.sum(axis=0)
    grads[prefix + "wk"] = xs.T @ dk
    grads[prefix + "wv"] = xs.T @ dv
    grads[prefix + "bv"] = dv.sum(axis=0)
    dx = dq @ wq.T + dk @ wk.T + dv @ wv.T
    if order is not None:
        dx = _unsort(dx, order)
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


def layer_forward(x: Array, p: dict, prefix: str, lengths: Array, heads: int):
    """One pre-norm layer on packed rows x (N, d) of examples of ``lengths`` (B,)."""
    h1, c_ln1 = layernorm_forward(x, p[prefix + "ln1.gamma"], p[prefix + "ln1.beta"])
    a, c_att = attention_forward(h1, p, prefix + "attn.", lengths, heads)
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
    dh1, g_att = attention_backward(c_att, dx1)
    grads.update(g_att)
    dx_ln, dg1, db1 = layernorm_backward(c_ln1, dh1)
    grads[prefix + "ln1.gamma"] = dg1
    grads[prefix + "ln1.beta"] = db1
    dx = dx1 + dx_ln
    return dx, grads


def stack_table(prefix: str, layers: int, d: int, ffn_dim: int) -> list:
    """The layers' rows of a parameter table, under ``prefix``.

    The final layernorm is the caller's: the encoder's has no beta.
    """
    rows = []
    for layer in range(layers):
        base = f"{prefix}layers.{layer}."
        rows += [(base + "ln1.gamma", (d,), "ones"), (base + "ln1.beta", (d,), "zeros")]
        rows += [(base + f"attn.{name}", (d, d), d) for name in ("wq", "wk", "wv", "wo")]
        rows += [(base + f"attn.{name}", (d,), d) for name in ("bq", "bv", "bo")]
        rows += [(base + "ln2.gamma", (d,), "ones"), (base + "ln2.beta", (d,), "zeros")]
        rows += [(base + "ffn.w1", (d, ffn_dim), d), (base + "ffn.b1", (ffn_dim,), d)]
        rows += [(base + "ffn.w2", (ffn_dim, d), ffn_dim), (base + "ffn.b2", (d,), ffn_dim)]
    return rows


def draw_params(table: list, seed: int) -> dict:
    """The table's parameters, drawn in order: each init is "ones", "zeros" or a fan-in."""
    rng = np.random.default_rng(seed)
    constants = {"ones": np.ones, "zeros": np.zeros}
    return {
        name: constants[init](shape) if init in constants else uniform_init(rng, shape, init)
        for name, shape, init in table
    }


def stack_forward(
    x: Array, p: dict, prefix: str, layers: int, lengths: Array, heads: int,
    keep_caches: bool = True,
):
    """The layers on packed rows x (N, d); the output rows keep their order.

    x holds each example's rows in turn, ``lengths`` (B,) of them each.
    Without ``keep_caches`` each layer's cache is dropped before the next
    layer runs, so the memory does not grow with depth, and the caches
    returned are None.
    """
    caches = []
    for layer in range(layers):
        x, c = layer_forward(x, p, f"{prefix}layers.{layer}.", lengths, heads)
        if keep_caches:
            caches.append(c)
        del c  # else it would live through the next layer
    return x, caches if keep_caches else None


def stack_backward(caches, dx: Array):
    grads = {}
    for c in reversed(caches):
        dx, g = layer_backward(c, dx)
        grads.update(g)
    return dx, grads


def mean_pool(rows: Array, counts: Array) -> Array:
    """Mean of each run of consecutive rows; ``counts`` (R,) are the run lengths.

    An empty run pools to the zero vector.
    """
    starts = np.cumsum(counts) - counts
    full = counts > 0
    out = np.zeros((counts.size, rows.shape[1]))
    out[full] = np.add.reduceat(rows, starts[full]) / counts[full, None]
    return out


def mean_pool_backward(dmeans: Array, counts: Array) -> Array:
    """Row gradient (N, d) of ``mean_pool``: a run's gradient over its length, per row."""
    return np.repeat(dmeans / np.maximum(counts, 1)[:, None], counts, axis=0)


def token_encoder_forward(
    p: dict, prefix: str, lookups, lengths: Array, counts: Array, layers: int, heads: int,
    keep_caches: bool = True,
):
    """Vectors (R, d): summed lookups, the stack, final layernorm, mean of each run of rows.

    Each (table, ids) lookup gives one row (ids (N,)) per real token of the
    examples of ``lengths`` (B,), summed in order. ``ln_f`` has a beta only
    where ``p`` holds one. ``counts`` (R,) are the pooled runs of rows.
    Returns (vectors, cache); an inference forward, without
    ``keep_caches``, keeps one layer's cache at a time and returns None
    for the cache, with the same vectors bit for bit.
    """
    (table, ids), *rest = lookups
    x = p[prefix + table][ids]
    for table, ids in rest:
        x += p[prefix + table][ids]
    h, stack_cache = stack_forward(x, p, prefix, layers, lengths, heads, keep_caches)
    h, ln_cache = layernorm_forward(h, p[prefix + "ln_f.gamma"], p.get(prefix + "ln_f.beta"))
    if not keep_caches:
        return mean_pool(h, counts), None
    return mean_pool(h, counts), (p, prefix, lookups, counts, stack_cache, ln_cache)


def token_encoder_backward(cache, dpooled: Array) -> dict:
    """Gradients of the final layernorm, the layers and every lookup table."""
    p, prefix, lookups, counts, stack_cache, ln_cache = cache
    dh, dgamma, dbeta = layernorm_backward(ln_cache, mean_pool_backward(dpooled, counts))
    dx, grads = stack_backward(stack_cache, dh)
    grads[prefix + "ln_f.gamma"] = dgamma
    if prefix + "ln_f.beta" in p:
        grads[prefix + "ln_f.beta"] = dbeta
    for table, ids in lookups:
        grads[prefix + table] = embedding_backward(ids, dx, len(p[prefix + table]))
    return grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


# the most entries one block of an Adam update spans: the block's six
# arrays (parameter, gradient, two moments, two scratch) take 1.5 MiB, so
# its 13 passes stay in L2; smaller blocks pay more per-call overhead
_ADAM_BLOCK = 32 * 1024


def _adam_blocks(shape: tuple) -> list:
    """Index runs of leading rows spanning at most ``_ADAM_BLOCK`` entries, never less than a row.

    A 0-d or small array is one block, indexed by ``...``.
    """
    if math.prod(shape) <= _ADAM_BLOCK:
        return [...]
    step = max(1, _ADAM_BLOCK // math.prod(shape[1:]))
    return [slice(i, i + step) for i in range(0, shape[0], step)]


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
    arrays, one block of rows at a time (``_adam_blocks``) so that a large
    key's passes run in cache, through two scratch arrays per block. Every
    entry takes the same operations in any block, and every rounding step is
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
        for rows in _adam_blocks(p.shape):
            g_b, m_b, v_b, p_b = g[rows], m[rows], v[rows], p[rows]
            # explicit out= arrays keep 0-d parameters 0-d arrays, not scalars
            tmp, step = np.empty_like(p_b), np.empty_like(p_b)
            m_b *= beta1
            m_b += np.multiply(g_b, 1.0 - beta1, out=tmp)
            np.multiply(g_b, g_b, out=tmp)
            tmp *= 1.0 - beta2
            v_b *= beta2
            v_b += tmp
            np.divide(m_b, bc1, out=step)
            step *= lr
            np.divide(v_b, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            step /= tmp
            p_b -= step
            if weight_decay > 0.0:
                p_b -= np.multiply(p_b, lr * weight_decay, out=step)


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
