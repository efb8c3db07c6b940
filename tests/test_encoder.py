"""Encoder forward/backward, its logits, and protein embeddings."""

import tracemalloc

import numpy as np
import padded_stack
import pytest

from seqreorder import encoder as enc
from seqreorder import nn
from seqreorder.augment import NoiseSpec, RAcutConfig, SubsequenceSet, make_pretrain_example
from seqreorder.corpus import (
    CANONICAL_RESIDUES,
    RESIDUE_PAD_ID,
    RESIDUE_TO_ID,
    RESIDUE_VOCAB_SIZE,
    encode_protein,
)
from seqreorder.encoder import EncoderConfig
from seqreorder.errors import ValidationError
from seqreorder.perm import SinkhornConfig


def _protein(length, offset=0):
    letters = CANONICAL_RESIDUES[:20]
    return encode_protein("".join(letters[(offset + i) % 20] for i in range(length)))


def _example(seed=0, length=12):
    cfg = RAcutConfig(n=3, l_max=12)
    return make_pretrain_example(
        _protein(length), cfg, NoiseSpec(kind="mask", mask_prob=0.15), seed=seed
    )


def _logits(state, sset):
    """The (n, n) logit matrix of one example."""
    return enc.forward_batch(state, [sset])[1][0]


def _grads(state, sset, dlogits):
    """Parameter gradients of one example given upstream logit gradients."""
    _, _, cache = enc._forward_core(state, sset.blocks[None], sset.true_lengths[None])
    return enc._backward_core(state, cache, np.asarray(dlogits)[None])


def test_config_validates_head_divisibility():
    with pytest.raises(ValidationError):
        EncoderConfig(embed_dim=10, layers=1, heads=3, ffn_dim=16, n=3, f_max=4)


def test_init_is_deterministic(tiny_config):
    a = enc.init(tiny_config, seed=5)
    b = enc.init(tiny_config, seed=5)
    assert sorted(a.params) == sorted(b.params)
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])
    c = enc.init(tiny_config, seed=6)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def test_parameter_count_formula(tiny_config):
    state = enc.init(tiny_config, seed=0)
    d, f, n, v = 8, 16, 3, RESIDUE_VOCAB_SIZE
    per_layer = (
        2 * d  # first layer norm
        + 4 * d * d + 3 * d  # attention projections; keys have no bias
        + 2 * d  # second layer norm
        + (d * f + f)  # ffn in
        + (f * d + d)  # ffn out
    )
    expected = (
        v * d  # token embedding
        + tiny_config.f_max * d  # within-block positions
        + n * d  # slot embedding
        + per_layer * tiny_config.layers
        + d  # final layer norm, no bias
        + d * n  # scoring head, no bias
    )
    assert sum(p.size for p in state.params.values()) == expected


def test_forward_shapes_and_finiteness(tiny_config):
    state = enc.init(tiny_config, seed=0)
    example = _example(seed=1)
    pooled, logits = enc.forward_batch(state, [example.shuffled])
    assert pooled.shape == (1, 3, 8)
    assert logits.shape == (1, 3, 3)
    assert np.isfinite(logits).all()


def test_forward_deterministic(tiny_config):
    state = enc.init(tiny_config, seed=0)
    example = _example(seed=1)
    a = _logits(state, example.shuffled)
    b = _logits(state, example.shuffled)
    np.testing.assert_array_equal(a, b)


def test_pad_tokens_do_not_affect_scores(tiny_config):
    state = enc.init(tiny_config, seed=0)
    cut, clean = RAcutConfig(n=3, l_max=12), NoiseSpec(mask_prob=0.0)
    sset = make_pretrain_example(_protein(6), cut, clean, 2).shuffled
    assert (sset.true_lengths < sset.f_max).any()
    before = _logits(state, sset)
    corrupted = SubsequenceSet(sset.blocks.copy(), sset.true_lengths.copy())
    for i in range(corrupted.n):
        li = int(corrupted.true_lengths[i])
        corrupted.blocks[i, li:] = RESIDUE_TO_ID["W"]  # overwrite pads
    after = _logits(state, corrupted)
    np.testing.assert_array_equal(before, after)


def test_predict_q_columns_sum_to_one(tiny_config):
    state = enc.init(tiny_config, seed=0)
    q = enc.predict_q(state, _example(seed=3).shuffled)
    assert q.shape == (3, 3)
    np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-12)


def test_predict_q_zero_iterations_returns_raw_scores(tiny_config):
    state = enc.init(tiny_config, seed=0)
    example = _example(seed=3)
    scores = np.exp(_logits(state, example.shuffled))
    q = enc.predict_q(state, example.shuffled, SinkhornConfig(m=0))
    np.testing.assert_array_equal(q, scores)


def test_backward_zero_upstream_gives_zero_grads(tiny_config):
    state = enc.init(tiny_config, seed=0)
    example = _example(seed=4)
    grads = _grads(state, example.shuffled, np.zeros((3, 3)))
    assert sorted(grads) == sorted(state.params)
    for key, g in grads.items():
        assert g.shape == state.params[key].shape
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_backward_unused_token_rows_have_zero_grad(tiny_config):
    state = enc.init(tiny_config, seed=0)
    example = _example(seed=5)
    grads = _grads(state, example.shuffled, np.ones((3, 3)))
    used = set(example.shuffled.blocks.ravel().tolist())
    tok_grad = grads["tok_embed"]
    for token in range(RESIDUE_VOCAB_SIZE):
        if token not in used:
            np.testing.assert_array_equal(tok_grad[token], np.zeros(8))
    assert np.abs(tok_grad[list(used)]).sum() > 0


def test_backward_is_pure(tiny_config):
    state = enc.init(tiny_config, seed=0)
    example = _example(seed=6)
    before = {k: v.copy() for k, v in state.params.items()}
    dlogits = np.random.default_rng(0).normal(size=(3, 3))
    a = _grads(state, example.shuffled, dlogits)
    b = _grads(state, example.shuffled, dlogits)
    for key in state.params:
        np.testing.assert_array_equal(state.params[key], before[key])
        np.testing.assert_array_equal(a[key], b[key])


def test_protein_embedding_shape_and_determinism(tiny_config):
    state = enc.init(tiny_config, seed=0)
    a = enc.protein_embedding(state, _protein(12))
    b = enc.protein_embedding(state, _protein(12))
    assert a.shape == (8,)
    np.testing.assert_array_equal(a, b)


def test_protein_embedding_truncates_long_proteins(tiny_config):
    state = enc.init(tiny_config, seed=0)
    long = _protein(40)
    trimmed = encode_protein(long.raw[:12])
    np.testing.assert_array_equal(
        enc.protein_embedding(state, long),
        enc.protein_embedding(state, trimmed),
    )


def test_protein_embedding_handles_partial_last_block(tiny_config):
    # 7 tokens over 3 blocks of 4: blocks get 4, 3, 0 tokens; the mean
    # runs over the two non-empty blocks only
    state = enc.init(tiny_config, seed=0)
    vec = enc.protein_embedding(state, _protein(7))
    assert vec.shape == (8,)
    assert np.isfinite(vec).all()


def test_protein_embedding_rejects_too_short(tiny_config):
    state = enc.init(tiny_config, seed=0)
    with pytest.raises(ValidationError):
        enc.protein_embedding(state, _protein(2))


def test_scores_respond_to_shuffle(tiny_config):
    # the same protein under two different shuffles must produce different
    # score matrices, otherwise the pretext task would be unlearnable
    state = enc.init(tiny_config, seed=0)
    # 12 residues at n=3, f_max=4 force the cut [4, 4, 4], so two seeds
    # differ only in the shuffle
    cut, clean = RAcutConfig(n=3, l_max=12), NoiseSpec(mask_prob=0.0)
    e1 = make_pretrain_example(_protein(12), cut, clean, 7)
    e2 = make_pretrain_example(_protein(12), cut, clean, 99)
    if np.array_equal(e1.target.perm, e2.target.perm):
        e2 = make_pretrain_example(_protein(12), cut, clean, 100)
    assert not np.array_equal(e1.target.perm, e2.target.perm)
    s1 = _logits(state, e1.shuffled)
    s2 = _logits(state, e2.shuffled)
    assert not np.array_equal(s1, s2)


def _padded_reference(state, blocks, lengths, dlogits):
    """Dense padded layout: all n * f_max positions run, pads masked as keys."""
    cfg, p = state.config, state.params
    b, n, f = blocks.shape
    d = cfg.embed_dim
    tokens = blocks.reshape(b, n * f)
    pos_idx, slot_idx = np.tile(np.arange(f), n), np.repeat(np.arange(n), f)
    x = p["tok_embed"][tokens] + p["pos_embed"][pos_idx] + p["slot_embed"][slot_idx]
    real = np.arange(f) < lengths[:, :, None]
    h, stack_cache = padded_stack.stack_forward(
        x, p, "", cfg.layers, real.reshape(b, n * f), cfg.heads
    )
    h, ln_cache = nn.layernorm_forward(h, p["ln_f.gamma"], np.zeros(d))
    denom = np.maximum(lengths, 1)[:, :, None]
    pooled = (h.reshape(b, n, f, d) * real[..., None]).sum(axis=2) / denom
    logits = pooled @ p["head.w"]

    grads = {k: np.zeros_like(v) for k, v in p.items()}
    grads["head.w"] += pooled.reshape(-1, d).T @ dlogits.reshape(-1, n)
    dpooled = dlogits @ p["head.w"].T
    dh = (dpooled / denom)[:, :, None, :] * real[..., None]
    dh, grads["ln_f.gamma"], _ = nn.layernorm_backward(ln_cache, dh.reshape(b, n * f, d))
    dx, stack_grads = padded_stack.stack_backward(stack_cache, dh)
    for k, g in stack_grads.items():
        grads[k] += g
    np.add.at(grads["tok_embed"], tokens.ravel(), dx.reshape(-1, d))
    grads["pos_embed"] += dx.reshape(b, n, f, d).sum(axis=(0, 1))
    grads["slot_embed"] += dx.reshape(b, n, f, d).sum(axis=(0, 2))
    return pooled, logits, grads


def _rel_err(actual, expected):
    return np.abs(actual - expected).max() / max(np.abs(expected).max(), 1e-300)


def _ragged_batch(rng, b, n, f):
    """Random blocks with empty blocks and unequal totals (batch-tail padding)."""
    lengths = rng.integers(0, f + 1, size=(b, n))
    lengths[:, 0] = np.maximum(lengths[:, 0], 1)  # no example is all padding
    lengths[0, -1] = 0
    lengths[1] = f
    blocks = rng.integers(1, RESIDUE_VOCAB_SIZE, size=(b, n, f))
    blocks[np.arange(f) >= lengths[:, :, None]] = RESIDUE_PAD_ID
    return blocks, lengths


@pytest.mark.parametrize("n,f_max,layers", [(3, 4, 1), (4, 6, 2), (6, 3, 2)])
def test_packed_core_matches_padded_reference(n, f_max, layers):
    cfg = EncoderConfig(embed_dim=8, layers=layers, heads=2, ffn_dim=16, n=n, f_max=f_max)
    state = enc.init(cfg, seed=n)
    rng = np.random.default_rng(f_max)
    for _ in range(3):
        blocks, lengths = _ragged_batch(rng, 4, n, f_max)
        assert len(set(lengths.sum(axis=1))) > 1 and (lengths == 0).any()
        dlogits = rng.normal(size=(4, n, n))
        pooled, logits, cache = enc._forward_core(state, blocks, lengths)
        grads = enc._backward_core(state, cache, dlogits)
        ref_pooled, ref_logits, ref_grads = _padded_reference(state, blocks, lengths, dlogits)
        np.testing.assert_array_equal(pooled[lengths == 0], 0.0)
        assert _rel_err(pooled, ref_pooled) <= 1e-12
        assert _rel_err(logits, ref_logits) <= 1e-12
        assert sorted(grads) == sorted(ref_grads)
        for key in grads:
            assert _rel_err(grads[key], ref_grads[key]) <= 1e-12, key


def test_logit_beyond_thirty_gets_its_gradient(tiny_config):
    state = enc.init(tiny_config, seed=0)
    state.params["head.w"] *= 1e3
    example = _example(seed=2)
    pooled, logits, cache = enc._forward_core(
        state, example.shuffled.blocks[None], example.shuffled.true_lengths[None]
    )
    i, j = np.unravel_index(np.argmax(logits[0]), logits[0].shape)
    assert logits[0, i, j] > 30
    dlogits = np.zeros_like(logits)
    dlogits[0, i, j] = 1.0
    grads = enc._backward_core(state, cache, dlogits)
    # d logit[i, j] / d head.w[:, j] is block i's pooled vector
    np.testing.assert_array_equal(grads["head.w"][:, j], pooled[0, i])
    assert np.abs(grads["head.w"][:, j]).max() > 0


def test_scores_do_not_depend_on_batch_neighbours(tiny_config):
    state = enc.init(tiny_config, seed=0)
    cfg = RAcutConfig(n=3, l_max=12)
    short = make_pretrain_example(_protein(5), cfg, NoiseSpec(), seed=1).shuffled
    longer = make_pretrain_example(_protein(12, offset=3), cfg, NoiseSpec(), seed=2).shuffled
    alone_pooled, alone_scores = enc.forward_batch(state, [short])
    pooled, scores = enc.forward_batch(state, [short, longer])
    assert _rel_err(pooled[0], alone_pooled[0]) <= 1e-12
    assert _rel_err(scores[0], alone_scores[0]) <= 1e-12


def test_protein_embeddings_match_one_at_a_time(tiny_config, monkeypatch):
    state = enc.init(tiny_config, seed=0)
    proteins = [_protein(k, offset=k) for k in (12, 7, 3, 40, 9)]
    monkeypatch.setattr(nn, "MAX_TOKENS", 10**6)
    at_once = enc.protein_embeddings(state, proteins)
    assert at_once.shape == (5, 8)
    # one protein per forward, then runs of up to 24 real tokens
    for budget in (1, 24):
        monkeypatch.setattr(nn, "MAX_TOKENS", budget)
        np.testing.assert_array_equal(enc.protein_embeddings(state, proteins), at_once)
    for vec, protein in zip(at_once, proteins):
        np.testing.assert_array_equal(vec, enc.protein_embedding(state, protein))
    assert enc.protein_embeddings(state, []).shape == (0, 8)


def test_forward_batch_does_not_depend_on_the_token_budget(tiny_config, monkeypatch):
    state = enc.init(tiny_config, seed=0)
    cfg = RAcutConfig(n=3, l_max=12)
    ssets = [
        make_pretrain_example(_protein(k, offset=k), cfg, NoiseSpec(), seed=k).shuffled
        for k in (12, 5, 9, 3, 12, 7)
    ]
    monkeypatch.setattr(nn, "MAX_TOKENS", 10**6)
    pooled, logits = enc.forward_batch(state, ssets)
    for budget in (1, 24, 48):
        monkeypatch.setattr(nn, "MAX_TOKENS", budget)
        got_pooled, got_logits = enc.forward_batch(state, ssets)
        np.testing.assert_array_equal(got_pooled, pooled)
        np.testing.assert_array_equal(got_logits, logits)


def test_inference_memory_does_not_grow_with_the_number_of_inputs(monkeypatch):
    # one protein per forward: each forward's caches are freed before the next runs
    state = enc.init(EncoderConfig(embed_dim=32, layers=2, heads=2, ffn_dim=64, n=4, f_max=50))
    monkeypatch.setattr(nn, "MAX_TOKENS", 1)
    peaks = []
    for count in (1, 8):
        proteins = [_protein(200, offset=k) for k in range(count)]
        tracemalloc.start()
        try:
            enc.protein_embeddings(state, proteins)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_inference_memory_does_not_grow_with_depth():
    # each layer's cache is dropped as soon as the next layer runs
    proteins = [_protein(128, offset=k) for k in range(4)]
    peaks = []
    for layers in (1, 4):
        cfg = EncoderConfig(embed_dim=16, layers=layers, heads=2, ffn_dim=32, n=4, f_max=32)
        state = enc.init(cfg, seed=0)
        tracemalloc.start()
        try:
            enc.protein_embeddings(state, proteins)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks
