"""Compound encoder, fusion, prediction, and the fine-tuning loop."""

import math

import numpy as np
import padded_stack
import pytest

from seqreorder import cpi
from seqreorder.artifacts import (
    Checkpoint,
    load_checkpoint,
    read_predictions,
    save_checkpoint,
    write_predictions,
)
from seqreorder import encoder as enc
from seqreorder import nn
from seqreorder.corpus import (
    CANONICAL_RESIDUES,
    SMILES_CHARS,
    SMILES_PAD_ID,
    InteractionRecord,
    encode_protein,
    encode_smiles,
)
from seqreorder.cpi import (
    CpiConfig,
    FinetuneConfig,
    build_protein_cache,
    checkpoint_from_cpi,
    cpi_model_from_checkpoint,
    finetune_run,
    init_cpi,
    predict_pairs,
)
from seqreorder.encoder import EncoderConfig
from seqreorder.errors import CheckpointError, ValidationError

TINY_ENC = EncoderConfig(embed_dim=8, layers=1, heads=2, ffn_dim=16, n=3, f_max=4)
TINY_CPI = CpiConfig(
    comp_layers=1, comp_heads=2, comp_ffn_dim=16, fusion_dim=6, max_atoms=32
)


def _model(seed=0):
    return init_cpi(TINY_CPI, enc.init(TINY_ENC, seed=seed), seed=seed)


def _protein(length, offset=0):
    letters = CANONICAL_RESIDUES[:20]
    return encode_protein("".join(letters[(offset + i) % 20] for i in range(length)))


def _pairs(count, length=12):
    smiles = ["CCO", "CCN", "c1ccccc1", "CC(=O)O", "CCCC", "C#N"]
    records = []
    for i in range(count):
        records.append(
            InteractionRecord(
                compound=encode_smiles(smiles[i % len(smiles)]),
                protein=_protein(length, offset=i % 5),
                label=i % 2,
            )
        )
    return records


def test_init_takes_its_width_from_the_encoder():
    model = _model()
    assert model.params["comp.tok_embed"].shape[1] == TINY_ENC.embed_dim
    assert model.params["fusion.w1"].shape[0] == 2 * TINY_ENC.embed_dim
    three_heads = CpiConfig(comp_layers=1, comp_heads=3, comp_ffn_dim=16, fusion_dim=6)
    with pytest.raises(ValidationError, match="embed_dim 8 must be divisible by comp_heads 3"):
        init_cpi(three_heads, enc.init(TINY_ENC, seed=0), seed=0)


def test_init_is_deterministic():
    a, b = _model(seed=4), _model(seed=4)
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])


def test_encode_compound_shape_and_determinism():
    model = _model()
    a, _ = cpi._compound_forward(model, [encode_smiles("CC(=O)O").tokens])
    b, _ = cpi._compound_forward(model, [encode_smiles("CC(=O)O").tokens])
    assert a.shape == (1, 8)
    np.testing.assert_array_equal(a, b)
    c, _ = cpi._compound_forward(model, [encode_smiles("CCCCCC").tokens])
    assert not np.array_equal(a, c)


def test_encode_compound_rejects_too_long():
    model = _model()
    too_long = encode_smiles("C" * 33)
    with pytest.raises(ValidationError):
        cpi._compound_forward(model, [too_long.tokens])
    record = InteractionRecord(compound=too_long, protein=_protein(12), label=1)
    with pytest.raises(ValidationError):
        predict_pairs(model, [record], build_protein_cache(model, [record]))


def test_fuse_is_asymmetric():
    model = _model()
    rng = np.random.default_rng(0)
    zc, zp = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
    joint, _ = cpi._fuse_batch(model, zc, zp)
    assert joint.shape == (1, 6)
    assert not np.allclose(joint, cpi._fuse_batch(model, zp, zc)[0])


def test_fuse_zero_weights_gives_zero_vector():
    model = _model()
    for key in ("fusion.w1", "fusion.b1", "fusion.w2", "fusion.b2"):
        model.params[key][...] = 0.0
    joint, _ = cpi._fuse_batch(model, np.ones((1, 8)), np.ones((1, 8)))
    np.testing.assert_array_equal(joint, np.zeros((1, 6)))


def _predict_at_bias(model, records, bias):
    model.params["dec.b"][...] = bias
    return predict_pairs(model, records, build_protein_cache(model, records))


def test_predict_is_half_at_zero_logit():
    model = _model()
    model.params["dec.w"][...] = 0.0
    assert _predict_at_bias(model, _pairs(3), 0.0).tolist() == [0.5, 0.5, 0.5]


def test_predict_hand_value():
    # logit ln(7/3) puts the sigmoid exactly at 0.7
    model = _model()
    model.params["dec.w"][...] = 0.0
    probs = _predict_at_bias(model, _pairs(3), math.log(7 / 3))
    np.testing.assert_allclose(probs, 0.7, rtol=1e-12, atol=0)


def test_predict_monotone_in_bias():
    model = _model()
    model.params["dec.w"][...] = 0.0
    records = _pairs(3)
    low = _predict_at_bias(model, records, -1.0)
    high = _predict_at_bias(model, records, 2.0)
    assert (high > low).all()


def test_cpi_loss_hand_values():
    # a zero decoder puts every logit at 0, where each pair's BCE is log 2
    model = _model()
    model.params["dec.w"][...] = 0.0
    model.params["dec.b"][...] = 0.0
    for records in (_pairs(1), _pairs(2)):
        cache = build_protein_cache(model, records)
        loss = cpi._batch_grads(model, records, cache, 0.0)[0]
        assert loss == pytest.approx(len(records) * math.log(2), rel=1e-12)
        # the L2 term adds (lam / 2) * ||theta||^2
        loss = cpi._batch_grads(model, records, cache, 2.0)[0]
        want = len(records) * math.log(2) + nn.l2_penalty(model.params, 2.0)
        assert loss == pytest.approx(want, rel=1e-12)


def test_head_gradients_match_finite_differences():
    # full-chain FD check through sigmoid, decoder, fusion, and the
    # compound attention stack; a few coordinates from every group
    from seqreorder.cpi import _batch_grads

    model = _model()
    records = _pairs(6)
    assert len({len(r.compound.tokens) for r in records}) > 1  # a ragged batch
    cache = build_protein_cache(model, records)
    lam = 0.01
    _, _, grads = _batch_grads(model, records, cache, lam)

    rng = np.random.default_rng(0)
    step = 1e-6
    for key in sorted(model.params):
        flat = model.params[key].reshape(-1)
        n_coords = min(3, flat.size)
        for idx in rng.choice(flat.size, size=n_coords, replace=False):
            original = flat[idx]
            flat[idx] = original + step
            up, _, _ = _batch_grads(model, records, cache, lam)
            flat[idx] = original - step
            down, _, _ = _batch_grads(model, records, cache, lam)
            flat[idx] = original
            fd = (up - down) / (2 * step)
            analytic = grads[key].reshape(-1)[idx]
            assert abs(analytic - fd) <= 1e-5 * max(1.0, abs(fd)), (
                f"{key}[{idx}]: analytic {analytic} vs fd {fd}"
            )


def test_finetune_selects_best_validation_epoch(tmp_path):
    records = _pairs(16)
    result = finetune_run(
        records[:12],
        records[12:],
        enc.init(TINY_ENC, seed=0),
        TINY_CPI,
        FinetuneConfig(epochs=3, lr=1e-3, batch_size=4, lam=0.0, seed=0),
        out_dir=tmp_path,
    )
    assert len(result.val_history) == 3
    best_epoch = max(result.val_history, key=lambda item: item[1])[0]
    assert result.selected_epoch == best_epoch
    assert (tmp_path / "finetune_log.csv").exists()


def test_finetune_without_validation_keeps_the_final_epoch():
    frozen = enc.init(TINY_ENC, seed=0)
    ft = FinetuneConfig(epochs=2, lr=1e-3, batch_size=4, seed=3)
    result = finetune_run(_pairs(12), [], frozen, TINY_CPI, ft)
    assert result.selected_epoch == 2 and result.val_history == []
    untrained = init_cpi(TINY_CPI, frozen, seed=ft.seed).params
    assert all(not np.array_equal(result.model.params[k], p) for k, p in untrained.items())


def test_finetune_rejects_one_label_validation_pairs_before_training(tmp_path, monkeypatch):
    def trains(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(cpi, "_batch_grads", trains)
    valid = [r for r in _pairs(6) if r.label == 1]
    with pytest.raises(ValidationError, match="every validation pair has label 1: no AUROC"):
        finetune_run(
            _pairs(8), valid, enc.init(TINY_ENC, seed=0), TINY_CPI, out_dir=tmp_path / "ft"
        )
    assert not (tmp_path / "ft").exists()


def test_finetune_never_touches_encoder(tmp_path):
    frozen = enc.init(TINY_ENC, seed=0)
    before = {k: v.copy() for k, v in frozen.params.items()}
    records = _pairs(12)
    result = finetune_run(
        records[:9],
        records[9:],
        frozen,
        TINY_CPI,
        FinetuneConfig(epochs=2, lr=1e-3, batch_size=4, seed=0),
        out_dir=tmp_path,
    )
    for key in before:
        np.testing.assert_array_equal(
            result.model.encoder_state.params[key], before[key]
        )


def test_finetune_is_deterministic(tmp_path):
    records = _pairs(12)

    def run(tag):
        return finetune_run(
            records[:9],
            records[9:],
            enc.init(TINY_ENC, seed=0),
            TINY_CPI,
            FinetuneConfig(epochs=2, lr=1e-3, batch_size=4, seed=3),
            out_dir=tmp_path / tag,
        )

    a, b = run("a"), run("b")
    assert a.val_history == b.val_history
    for key in a.model.params:
        np.testing.assert_array_equal(a.model.params[key], b.model.params[key])


def test_cpi_checkpoint_roundtrip(tmp_path):
    model = _model(seed=2)
    ckpt = checkpoint_from_cpi(model, {"global_seed": 2, "epoch": 1, "step": 0})
    path = tmp_path / "cpi.ckpt"
    save_checkpoint(ckpt, path)
    restored = cpi_model_from_checkpoint(load_checkpoint(path))
    assert restored.config == model.config
    assert restored.encoder_state.config == model.encoder_state.config
    for key in model.params:
        np.testing.assert_array_equal(restored.params[key], model.params[key])
    for key in model.encoder_state.params:
        np.testing.assert_array_equal(
            restored.encoder_state.params[key], model.encoder_state.params[key]
        )


@pytest.mark.parametrize(
    "key,present",
    [("enc.head.b", True), ("enc.layers.0.attn.bk", True), ("cpi.comp.ln_f.beta", False)],
)
def test_cpi_checkpoint_must_hold_the_parameters_its_config_builds(key, present):
    ckpt = checkpoint_from_cpi(_model(seed=2), {})
    if present:  # a parameter of an older version
        ckpt.params[key] = np.zeros(TINY_ENC.embed_dim)
    else:
        del ckpt.params[key]
    with pytest.raises(CheckpointError, match=repr(key)):
        cpi_model_from_checkpoint(ckpt)


def test_cpi_checkpoint_rejects_a_key_outside_enc_and_cpi():
    ckpt = checkpoint_from_cpi(_model(seed=2), {})
    ckpt.params["stray"] = np.zeros(3)
    with pytest.raises(
        CheckpointError,
        match=r"^checkpoint parameter 'stray': \(3,\) in the file, no parameter in its config$",
    ):
        cpi_model_from_checkpoint(ckpt)


@pytest.mark.parametrize(
    "edit,match",
    [
        (lambda c: c["cpi"].update(bogus=1), "CpiConfig does not fit: .*'bogus'"),
        (lambda c: c["encoder"].update(bogus=1), "EncoderConfig does not fit: .*'bogus'"),
        (lambda c: c.pop("encoder"), "EncoderConfig is not a JSON object"),
        (lambda c: c["cpi"].pop("comp_heads"), r"CpiConfig lacks keys \['comp_heads'\]"),
        (lambda c: c["encoder"].pop("heads"), r"EncoderConfig lacks keys \['heads'\]"),
        (lambda c: c.update(bogus={}), r"config keys \['bogus', 'cpi', 'encoder'\]"),
    ],
    ids=["cpi-key", "encoder-key", "no-encoder", "no-cpi-field", "no-encoder-field", "third-key"],
)
def test_cpi_checkpoint_config_that_does_not_fit_is_a_checkpoint_error(edit, match):
    ckpt = checkpoint_from_cpi(_model(seed=2), {})
    edit(ckpt.config)
    with pytest.raises(CheckpointError, match=match):
        cpi_model_from_checkpoint(ckpt)


def test_cpi_checkpoint_holds_the_models_own_arrays(tmp_path):
    model = _model(seed=2)
    ckpt = checkpoint_from_cpi(model, {"global_seed": 2, "epoch": 1, "step": 0})
    assert ckpt.params.keys() == {f"cpi.{k}" for k in model.params} | {
        f"enc.{k}" for k in model.encoder_state.params
    }
    for key, p in model.params.items():
        assert ckpt.params[f"cpi.{key}"] is p
    for key, p in model.encoder_state.params.items():
        assert ckpt.params[f"enc.{key}"] is p
    # the file holds the bytes that a checkpoint of copies writes
    copies = Checkpoint(
        ckpt.section, ckpt.config, {k: v.copy() for k, v in ckpt.params.items()}, ckpt.provenance
    )
    save_checkpoint(ckpt, tmp_path / "own.ckpt")
    save_checkpoint(copies, tmp_path / "copies.ckpt")
    assert (tmp_path / "own.ckpt").read_bytes() == (tmp_path / "copies.ckpt").read_bytes()


def test_predict_pairs_uses_cache_consistently(monkeypatch):
    model = _model()
    records = _pairs(8)
    monkeypatch.setattr(enc, "INFER_TOKENS", 10**6)
    at_once = predict_pairs(model, records, build_protein_cache(model, records))
    # a cache extended in place, a few proteins at a time and one per
    # encoder forward, holds the same vectors
    monkeypatch.setattr(enc, "INFER_TOKENS", 1)
    grown = {}
    for start in range(0, len(records), 3):
        build_protein_cache(model, records[start : start + 3], grown)
    np.testing.assert_array_equal(predict_pairs(model, records, grown), at_once)
    assert all(0.0 < s < 1.0 for s in at_once)


def test_write_predictions_format(tmp_path):
    path = tmp_path / "pred.csv"
    write_predictions(path, ["a-0", "a-1"], [0.25, 0.75], [0, 1])
    lines = path.read_text().splitlines()
    assert lines[0] == "pair_id,score,label"
    assert lines[1] == "a-0,0.25,0"
    assert len(lines) == 3


def test_read_predictions_round_trips_write_predictions(tmp_path):
    rng = np.random.default_rng(0)
    scores = np.concatenate([rng.random(40), [1e-15, 1.0 - 1e-15, 0.5, np.nextafter(0.5, 1.0)]])
    labels = rng.integers(0, 2, scores.size)
    path = tmp_path / "predictions_x.csv"
    write_predictions(path, [f"x-{i:06d}" for i in range(scores.size)], scores, labels)
    got_scores, got_labels = read_predictions(path)
    assert got_scores.dtype == np.float64
    assert got_scores.tobytes() == scores.tobytes()
    assert got_labels.tolist() == labels.tolist()


def _padded_compound_forward(model, token_rows):
    """Dense padded compound stack: every compound padded to the longest."""
    cfg, p = model.config, model.params
    t = max(len(r) for r in token_rows)
    tokens = np.full((len(token_rows), t), SMILES_PAD_ID)
    for i, row in enumerate(token_rows):
        tokens[i, : len(row)] = row
    mask = tokens != SMILES_PAD_ID
    x = p["comp.tok_embed"][tokens] + p["comp.pos_embed"][:t]
    h, stack_cache = padded_stack.stack_forward(
        x, p, "comp.", cfg.comp_layers, mask, cfg.comp_heads
    )
    h, ln_cache = nn.layernorm_forward(h, p["comp.ln_f.gamma"], p["comp.ln_f.beta"])
    lengths = mask.sum(axis=1)[:, None]
    pooled = (h * mask[..., None]).sum(axis=1) / lengths
    return pooled, (tokens, mask, lengths, stack_cache, ln_cache)


def _padded_compound_backward(model, cache, d_pooled):
    tokens, mask, lengths, stack_cache, ln_cache = cache
    p, d = model.params, model.encoder_state.config.embed_dim
    dh, dgamma, dbeta = nn.layernorm_backward(
        ln_cache, (d_pooled / lengths)[:, None, :] * mask[..., None]
    )
    dx, grads = padded_stack.stack_backward(stack_cache, dh)
    grads["comp.ln_f.gamma"], grads["comp.ln_f.beta"] = dgamma, dbeta
    grads["comp.tok_embed"] = np.zeros_like(p["comp.tok_embed"])
    np.add.at(grads["comp.tok_embed"], tokens.ravel(), dx.reshape(-1, d))
    grads["comp.pos_embed"] = np.zeros_like(p["comp.pos_embed"])
    grads["comp.pos_embed"][: tokens.shape[1]] = dx.sum(axis=0)
    return grads


def _ragged_pairs(lengths, seed):
    rng = np.random.default_rng(seed)
    return [
        InteractionRecord(
            compound=encode_smiles(
                "".join(rng.choice(list(SMILES_CHARS), size=length)), max_atoms=length
            ),
            protein=_protein(12, offset=i % 5),
            label=i % 2,
        )
        for i, length in enumerate(lengths)
    ]


def _rel_err(actual, expected):
    return np.abs(actual - expected).max() / max(np.abs(expected).max(), 1e-300)


@pytest.mark.parametrize(
    "lengths",
    [(5, 17, 3, 9), (TINY_CPI.max_atoms, 1, 12, 30, 7), (TINY_CPI.max_atoms, 2), (6,)],
)
def test_batch_grads_match_padded_compound_oracle(lengths, monkeypatch):
    model = _model(seed=1)
    records = _ragged_pairs(lengths, seed=len(lengths))
    cache = build_protein_cache(model, records)
    loss, probs, grads = cpi._batch_grads(model, records, cache, lam=0.01)
    monkeypatch.setattr(cpi, "_compound_forward", _padded_compound_forward)
    monkeypatch.setattr(cpi, "_compound_backward", _padded_compound_backward)
    ref_loss, ref_probs, ref_grads = cpi._batch_grads(model, records, cache, lam=0.01)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert _rel_err(probs, ref_probs) <= 1e-12
    assert sorted(grads) == sorted(ref_grads)
    for key in grads:
        assert _rel_err(grads[key], ref_grads[key]) <= 1e-12, key


def test_predict_pairs_does_not_depend_on_batch_size(monkeypatch):
    model = _model(seed=2)
    records = _ragged_pairs((4, 32, 1, 11, 20, 7, 15), seed=5)
    cache = build_protein_cache(model, records)
    many = predict_pairs(model, records, cache)
    monkeypatch.setattr(cpi, "PREDICT_CHUNK", 1)
    one = predict_pairs(model, records, cache)
    assert _rel_err(one, many) <= 1e-12


def test_finetune_val_log_is_reproducible(tmp_path):
    records = _pairs(12)

    def run(tag):
        finetune_run(
            records[:9],
            records[9:],
            enc.init(TINY_ENC, seed=0),
            TINY_CPI,
            FinetuneConfig(epochs=3, lr=1e-3, batch_size=4, seed=3),
            out_dir=tmp_path / tag,
        )
        return (tmp_path / tag / "val_log.csv").read_bytes()

    first = run("a")
    assert first == run("b")
    lines = first.decode().splitlines()
    assert lines[0] == "epoch,val_auroc"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]


def _undeduplicated_batch_grads(model, records, cache, lam):
    """Loss, probabilities and gradients with every pair's compound encoded on its own."""
    p, d = model.params, model.encoder_state.config.embed_dim
    y = np.array([r.label for r in records], dtype=np.float64)
    z_comp, comp_cache = cpi._compound_forward(model, [r.compound.tokens for r in records])
    cat = np.concatenate([z_comp, np.stack([cache[r.protein.raw] for r in records])], axis=1)
    pre = cat @ p["fusion.w1"] + p["fusion.b1"]
    hid = np.maximum(pre, 0.0)
    joint = hid @ p["fusion.w2"] + p["fusion.b2"]
    logits = joint @ p["dec.w"] + p["dec.b"]
    loss = float((np.logaddexp(0.0, logits) - y * logits).sum())
    loss += 0.5 * lam * sum(float((w * w).sum()) for w in p.values())
    dlogit = 1.0 / (1.0 + np.exp(-logits)) - y
    djoint = dlogit[:, None] * p["dec.w"]
    dpre = (djoint @ p["fusion.w2"].T) * (pre > 0)
    grads = cpi._compound_backward(model, comp_cache, (dpre @ p["fusion.w1"].T)[:, :d])
    grads["dec.w"] = joint.T @ dlogit
    grads["dec.b"] = dlogit.sum()
    grads["fusion.w2"] = hid.T @ djoint
    grads["fusion.b2"] = djoint.sum(axis=0)
    grads["fusion.w1"] = cat.T @ dpre
    grads["fusion.b1"] = dpre.sum(axis=0)
    grads = {k: g + lam * p[k] for k, g in grads.items()}
    return loss, 1.0 / (1.0 + np.exp(-logits)), grads


def _pairs_with_compounds(smiles):
    return [
        InteractionRecord(
            compound=encode_smiles(s), protein=_protein(12, offset=i % 5), label=i % 2
        )
        for i, s in enumerate(smiles)
    ]


DEDUP_BATCHES = {
    "one-compound": ["CC(=O)O"] * 7,
    "half-repeat": ["CCO", "CCN", "CCO", "c1ccccc1", "CCN", "CC(=O)O", "CCO", "C#N"],
    "no-repeat": ["CCO", "CCN", "c1ccccc1", "CC(=O)O", "CCCC", "C#N"],
}


@pytest.mark.parametrize("batch", sorted(DEDUP_BATCHES))
def test_batch_grads_and_predictions_match_undeduplicated_reference(batch, monkeypatch):
    model = _model(seed=3)
    smiles = DEDUP_BATCHES[batch]
    records = _pairs_with_compounds(smiles)
    cache = build_protein_cache(model, records)
    encoded = []
    compound_forward = cpi._compound_forward

    def spy(model, token_rows):
        encoded.append(len(token_rows))
        return compound_forward(model, token_rows)

    monkeypatch.setattr(cpi, "_compound_forward", spy)
    loss, probs, grads = cpi._batch_grads(model, records, cache, lam=0.01)
    scores = predict_pairs(model, records, cache)
    assert encoded == [len(set(smiles))] * 2  # once per distinct compound, per call
    monkeypatch.undo()
    ref_loss, ref_probs, ref_grads = _undeduplicated_batch_grads(model, records, cache, 0.01)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert _rel_err(probs, ref_probs) <= 1e-12
    assert _rel_err(scores, ref_probs) <= 1e-12
    assert sorted(grads) == sorted(ref_grads) == sorted(model.params)
    for key in grads:
        assert _rel_err(grads[key], ref_grads[key]) <= 1e-12, key


def test_compounds_with_identical_tokens_are_encoded_once(monkeypatch):
    model = _model(seed=4)
    # different SMILES strings, one token list: truncation, and two unknown characters
    a, b = encode_smiles("CCOC", max_atoms=3), encode_smiles("CCON", max_atoms=3)
    c, d = encode_smiles("Cé"), encode_smiles("Cü")
    assert a.smiles != b.smiles and a.tokens == b.tokens
    assert c.smiles != d.smiles and c.tokens == d.tokens
    records = [
        InteractionRecord(compound=comp, protein=_protein(12, offset=i), label=i % 2)
        for i, comp in enumerate((a, c, b, d))
    ]
    cache = build_protein_cache(model, records)
    encoded = []
    compound_forward = cpi._compound_forward

    def spy(model, token_rows):
        encoded.append([list(row) for row in token_rows])
        return compound_forward(model, token_rows)

    monkeypatch.setattr(cpi, "_compound_forward", spy)
    cpi._batch_grads(model, records, cache, lam=0.0)
    assert encoded == [[a.tokens, c.tokens]]  # in order of first appearance


@pytest.mark.parametrize("label,bias", [(1, 40.0), (0, -40.0)])
def test_fine_tune_gradient_is_exact_at_saturated_logits(label, bias):
    # every logit is `bias`, on the side its label agrees with; the loss
    # gradient per pair is then -sigmoid(-40) or sigmoid(-40), about 4.2e-18
    model = _model(seed=5)
    model.params["dec.w"][...] = 0.0
    model.params["dec.b"][...] = bias
    records = [
        InteractionRecord(compound=r.compound, protein=r.protein, label=label)
        for r in _pairs(5)
    ]
    cache = build_protein_cache(model, records)
    _, probs, grads = cpi._batch_grads(model, records, cache, lam=0.0)
    tail = math.exp(-40.0) / (1.0 + math.exp(-40.0))
    want = len(records) * (-tail if label else tail)
    assert abs(float(grads["dec.b"]) - want) <= 1e-12 * abs(want)
    # reported probabilities keep their clip
    assert np.all((probs > 0.0) & (probs < 1.0))


# ---------------------------------------------------------------------------
# a training step's two halves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "lengths,lam", [((5, 17, 3, 9, 3), 0.01), ((5, 17, 3, 9), 0.0), ((6, 6), 0.01), ((6,), 0.01)]
)
def test_step_grads_match_one_batch_grads_call(lengths, lam, monkeypatch):
    monkeypatch.setattr(nn, "WORKERS", 2)
    model = _model(seed=6)
    records = _ragged_pairs(lengths, seed=len(lengths))
    cache = build_protein_cache(model, records)
    loss, probs, grads = cpi._step_grads(model, records, cache, lam)
    want_loss, want_probs, want_grads = cpi._batch_grads(model, records, cache, lam)
    # a one-pair batch is one call; two halves' sums round apart
    tol = 0.0 if len(records) == 1 else 1e-12
    assert abs(loss - want_loss) <= tol * abs(want_loss)
    assert _rel_err(probs, want_probs) <= tol
    assert sorted(grads) == sorted(want_grads) == sorted(model.params)
    for key, want in want_grads.items():
        assert np.abs(grads[key] - want).max() <= tol * np.abs(want).max(), key


def test_finetune_bits_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    records = _ragged_pairs((5, 17, 3, 9, 3, 12, 7, 5, 20, 4, 8, 6), seed=9)
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(nn, "WORKERS", workers)
        out = tmp_path / str(workers)
        result = finetune_run(
            records[:9], records[9:], enc.init(TINY_ENC, seed=0), TINY_CPI,
            FinetuneConfig(epochs=2, lr=1e-2, batch_size=5, lam=0.01, seed=3), out_dir=out,
        )
        save_checkpoint(checkpoint_from_cpi(result.model, {}), out / "cpi.ckpt")
        steps = [line.rsplit(",", 1)[0] for line in (out / "finetune_log.csv").read_text().splitlines()]
        outputs.append(((out / "cpi.ckpt").read_bytes(), (out / "val_log.csv").read_bytes(), steps))
        nn.stop_worker()
    assert outputs[0] == outputs[1]
