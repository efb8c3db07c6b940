"""``nn.token_encoder_forward``/``backward`` against the two paths it replaced.

The protein and compound stacks once each ran their own copy of the token
path: embedding sums, the stack, a final layernorm and mean pooling, and
the mirror of that in the backward. The copies below are those bodies as
they were, so every pooled vector, logit and gradient of the shared path
must match them bit for bit.
"""

import numpy as np
import pytest
from test_cpi import one_call_grads

from seqreorder import cpi
from seqreorder import encoder as enc
from seqreorder import nn
from seqreorder.corpus import (
    CANONICAL_RESIDUES,
    SMILES_CHARS,
    InteractionRecord,
    encode_protein,
    encode_smiles,
)
from seqreorder.cpi import CpiConfig, build_protein_cache, init_cpi
from seqreorder.encoder import EncoderConfig
from seqreorder.errors import ValidationError


def _reference_forward_core(state, blocks, lengths):
    cfg = state.config
    p = state.params
    b, n, f = blocks.shape
    ex, slot, pos = np.nonzero(np.arange(f) < lengths[:, :, None])
    ids = blocks[ex, slot, pos]
    x = p["tok_embed"][ids] + p["pos_embed"][pos] + p["slot_embed"][slot]
    h, stack_cache = nn.stack_forward(x, p, "", cfg.layers, lengths.sum(axis=1), cfg.heads)
    h, ln_cache = nn.layernorm_forward(h, p["ln_f.gamma"])
    pooled = nn.mean_pool(h, lengths.ravel()).reshape(b, n, -1)
    logits = pooled @ p["head.w"]
    cache = (slot, pos, ids, lengths, stack_cache, ln_cache, pooled)
    return pooled, logits, cache


def _reference_backward_core(state, cache, dlogits):
    cfg = state.config
    p = state.params
    slot, pos, ids, lengths, stack_cache, ln_cache, pooled = cache
    n, d = cfg.n, cfg.embed_dim
    dpooled = dlogits @ p["head.w"].T
    dh = nn.mean_pool_backward(dpooled.reshape(-1, d), lengths.ravel())
    dh, dgamma, _ = nn.layernorm_backward(ln_cache, dh)
    dx, grads = nn.stack_backward(stack_cache, dh)
    grads["ln_f.gamma"] = dgamma
    grads["head.w"] = pooled.reshape(-1, d).T @ dlogits.reshape(-1, n)
    for key, index in (("tok_embed", ids), ("pos_embed", pos), ("slot_embed", slot)):
        grads[key] = nn.embedding_backward(index, dx, len(p[key]))
    return grads


def _reference_compound_forward(cfg, p, token_rows, keep_caches=True):
    """The compound copy; it keeps its cache whatever ``keep_caches`` says."""
    if not token_rows:
        raise ValidationError("no compounds in batch")
    lengths = np.array([len(r) for r in token_rows])
    if lengths.max() > cfg.max_atoms:
        raise ValidationError(
            f"compound has {lengths.max()} tokens, model limit is {cfg.max_atoms}"
        )
    if lengths.min() == 0:
        raise ValidationError("compound token list is empty")
    ids = np.concatenate([np.asarray(r, dtype=np.int64) for r in token_rows])
    pos = np.arange(ids.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    x = p["comp.tok_embed"][ids] + p["comp.pos_embed"][pos]
    h, stack_cache = nn.stack_forward(x, p, "comp.", cfg.comp_layers, lengths, cfg.comp_heads)
    h, ln_cache = nn.layernorm_forward(h, p["comp.ln_f.gamma"], p["comp.ln_f.beta"])
    pooled = nn.mean_pool(h, lengths)
    cache = (p, ids, pos, lengths, stack_cache, ln_cache)
    return pooled, cache


def _reference_compound_backward(cache, d_pooled):
    p, ids, pos, lengths, stack_cache, ln_cache = cache
    dh = nn.mean_pool_backward(d_pooled, lengths)
    dh, dgamma, dbeta = nn.layernorm_backward(ln_cache, dh)
    dx, grads = nn.stack_backward(stack_cache, dh)
    grads["comp.ln_f.gamma"], grads["comp.ln_f.beta"] = dgamma, dbeta
    for key, index in (("comp.tok_embed", ids), ("comp.pos_embed", pos)):
        grads[key] = nn.embedding_backward(index, dx, len(p[key]))
    return grads


def _assert_grads_equal(grads, ref_grads):
    assert sorted(grads) == sorted(ref_grads)
    for key in grads:
        np.testing.assert_array_equal(grads[key], ref_grads[key], err_msg=key)


def _protein(length, offset):
    letters = CANONICAL_RESIDUES[:20]
    return encode_protein("".join(letters[(offset * 7 + i * 3) % 20] for i in range(length)))


@pytest.mark.parametrize(
    "cfg,protein_lengths",
    [
        # every protein short of n * f_max: segment_protein leaves empty trailing blocks
        (EncoderConfig(8, layers=1, heads=2, ffn_dim=16, n=4, f_max=5), (4, 7, 11, 4, 19)),
        (EncoderConfig(12, layers=2, heads=3, ffn_dim=20, n=3, f_max=6), (3, 18, 40, 9, 9, 13)),
        (EncoderConfig(8, layers=2, heads=2, ffn_dim=16, n=6, f_max=2), (6, 12, 7)),
    ],
)
def test_protein_path_matches_the_encoder_copy_bit_for_bit(cfg, protein_lengths):
    state = enc.init(cfg, seed=len(protein_lengths))
    rng = np.random.default_rng(cfg.n)
    cuts = [enc.segment_protein(cfg, _protein(t, i)) for i, t in enumerate(protein_lengths)]
    blocks = np.stack([c[0] for c in cuts])
    lengths = np.stack([c[1] for c in cuts])
    assert (lengths == 0).any() and len(set(lengths.sum(axis=1))) > 1
    # one batch of fixed cuts, and one with each example's blocks shuffled
    order = np.argsort(rng.random(lengths.shape), axis=1)
    shuffled = np.take_along_axis(blocks, order[:, :, None], axis=1)
    shuffled_lengths = np.take_along_axis(lengths, order, axis=1)
    for blocks, lengths in ((blocks, lengths), (shuffled, shuffled_lengths)):
        dlogits = rng.normal(size=(len(blocks), cfg.n, cfg.n))
        pooled, logits, cache = enc._forward_core(state, blocks, lengths)
        ref_pooled, ref_logits, ref_cache = _reference_forward_core(state, blocks, lengths)
        np.testing.assert_array_equal(pooled, ref_pooled)
        np.testing.assert_array_equal(logits, ref_logits)
        _assert_grads_equal(
            enc._backward_core(state, cache, dlogits),
            _reference_backward_core(state, ref_cache, dlogits),
        )


def _compound_model(seed):
    config = CpiConfig(
        comp_layers=2, comp_heads=2, comp_ffn_dim=16, fusion_dim=6, max_atoms=24
    )
    frozen = enc.init(EncoderConfig(embed_dim=8, layers=1, heads=2, ffn_dim=16, n=3, f_max=4))
    return init_cpi(config, frozen, seed=seed)


@pytest.mark.parametrize(
    "lengths",
    [(5, 5, 5), (9, 2, 24, 2, 9, 1), (1,), (13, 4, 7, 20)],
    ids=["repeated", "mixed", "single", "distinct"],
)
def test_compound_path_matches_the_cpi_copy_bit_for_bit(lengths, monkeypatch):
    model = _compound_model(seed=len(lengths))
    rng = np.random.default_rng(sum(lengths))
    smiles = ["".join(rng.choice(list(SMILES_CHARS), size=t)) for t in lengths]
    rows = [encode_smiles(s).tokens for s in smiles]
    d_pooled = rng.normal(size=(len(rows), model.encoder_state.config.embed_dim))
    pooled, cache = cpi._compound_forward(model.config, model.params, rows)
    ref_pooled, ref_cache = _reference_compound_forward(model.config, model.params, rows)
    np.testing.assert_array_equal(pooled, ref_pooled)
    _assert_grads_equal(
        cpi._compound_backward(cache, d_pooled),
        _reference_compound_backward(ref_cache, d_pooled),
    )

    # the same through the pair logits and the head's training gradients; the
    # first compound pairs twice, so the pairs share its encoding
    records = [
        InteractionRecord(compound=encode_smiles(s), protein=_protein(12, i), label=i % 2)
        for i, s in enumerate(smiles + smiles[:1])
    ]
    proteins = build_protein_cache(model, records)
    logits = cpi._pair_logits(model.config, model.params, records, proteins)[0]
    loss, probs, grads = one_call_grads(model, records, proteins, lam=0.01)
    monkeypatch.setattr(cpi, "_compound_forward", _reference_compound_forward)
    monkeypatch.setattr(cpi, "_compound_backward", _reference_compound_backward)
    np.testing.assert_array_equal(
        logits, cpi._pair_logits(model.config, model.params, records, proteins)[0]
    )
    ref_loss, ref_probs, ref_grads = one_call_grads(model, records, proteins, lam=0.01)
    assert loss == ref_loss
    np.testing.assert_array_equal(probs, ref_probs)
    _assert_grads_equal(grads, ref_grads)


@pytest.mark.parametrize("layers", [1, 3])
def test_cache_free_forwards_match_the_training_forwards(layers):
    # the protein stack on ragged lengths, empty blocks included
    cfg = EncoderConfig(8, layers=layers, heads=2, ffn_dim=16, n=4, f_max=5)
    state = enc.init(cfg, seed=layers)
    cuts = [enc.segment_protein(cfg, _protein(t, i)) for i, t in enumerate((4, 19, 7, 11, 20))]
    blocks, lengths = np.stack([c[0] for c in cuts]), np.stack([c[1] for c in cuts])
    pooled, logits, cache = enc._forward_core(state, blocks, lengths)
    free_pooled, free_logits, free_cache = enc._forward_core(state, blocks, lengths, keep_caches=False)
    assert cache is not None and free_cache is None
    np.testing.assert_array_equal(free_pooled, pooled)
    np.testing.assert_array_equal(free_logits, logits)

    # the compound stack, through its forward and through the pair logits
    model = _compound_model(seed=layers)
    rng = np.random.default_rng(layers)
    smiles = ["".join(rng.choice(list(SMILES_CHARS), size=t)) for t in (9, 2, 24, 2, 13)]
    rows = [encode_smiles(s).tokens for s in smiles]
    pooled, cache = cpi._compound_forward(model.config, model.params, rows)
    free_pooled, free_cache = cpi._compound_forward(
        model.config, model.params, rows, keep_caches=False
    )
    assert cache is not None and free_cache is None
    np.testing.assert_array_equal(free_pooled, pooled)
    records = [
        InteractionRecord(compound=encode_smiles(s), protein=_protein(12, i), label=i % 2)
        for i, s in enumerate(smiles)
    ]
    proteins = build_protein_cache(model, records)
    np.testing.assert_array_equal(
        cpi._pair_logits(model.config, model.params, records, proteins, keep_caches=False)[0],
        cpi._pair_logits(model.config, model.params, records, proteins)[0],
    )
