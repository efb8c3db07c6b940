"""Parameter tables: the inits they draw and the checkpoint loads they check.

Each init is compared, bit for bit, with a test-local copy of the bodies
that drew the parameters one statement at a time before the tables
existed (``encoder.init``, ``cpi.init_cpi`` and ``nn.init_stack_params``).
The checkpoint loads must draw nothing.
"""

import math

import numpy as np
import pytest

from seqreorder import cpi, nn, pretrain
from seqreorder import encoder as enc
from seqreorder.artifacts import load_checkpoint, save_checkpoint
from seqreorder.augment import RAcutConfig
from seqreorder.corpus import RESIDUE_VOCAB_SIZE, SMILES_VOCAB_SIZE
from seqreorder.cpi import CpiConfig
from seqreorder.encoder import EncoderConfig


def _uniform(rng, shape, fan_in):
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _stack(rng, params, prefix, layers, d, ffn_dim):
    for layer in range(layers):
        base = f"{prefix}layers.{layer}."
        params[base + "ln1.gamma"] = np.ones(d)
        params[base + "ln1.beta"] = np.zeros(d)
        for name in ("wq", "wk", "wv", "wo"):
            params[base + f"attn.{name}"] = _uniform(rng, (d, d), d)
        for name in ("bq", "bv", "bo"):
            params[base + f"attn.{name}"] = _uniform(rng, (d,), d)
        params[base + "ln2.gamma"] = np.ones(d)
        params[base + "ln2.beta"] = np.zeros(d)
        params[base + "ffn.w1"] = _uniform(rng, (d, ffn_dim), d)
        params[base + "ffn.b1"] = _uniform(rng, (ffn_dim,), d)
        params[base + "ffn.w2"] = _uniform(rng, (ffn_dim, d), ffn_dim)
        params[base + "ffn.b2"] = _uniform(rng, (d,), ffn_dim)


def _encoder_params(config, seed):
    rng = np.random.default_rng(seed)
    d = config.embed_dim
    params = {}
    params["tok_embed"] = _uniform(rng, (RESIDUE_VOCAB_SIZE, d), d)
    params["pos_embed"] = _uniform(rng, (config.f_max, d), d)
    params["slot_embed"] = _uniform(rng, (config.n, d), d)
    _stack(rng, params, "", config.layers, d, config.ffn_dim)
    params["ln_f.gamma"] = np.ones(d)
    params["head.w"] = _uniform(rng, (d, config.n), d)
    return params


def _cpi_params(config, d, seed):
    rng = np.random.default_rng(seed)
    f = config.fusion_dim
    params = {}
    params["comp.tok_embed"] = _uniform(rng, (SMILES_VOCAB_SIZE, d), d)
    params["comp.pos_embed"] = _uniform(rng, (config.max_atoms, d), d)
    _stack(rng, params, "comp.", config.comp_layers, d, config.comp_ffn_dim)
    params["comp.ln_f.gamma"] = np.ones(d)
    params["comp.ln_f.beta"] = np.zeros(d)
    params["fusion.w1"] = _uniform(rng, (2 * d, f), 2 * d)
    params["fusion.b1"] = _uniform(rng, (f,), 2 * d)
    params["fusion.w2"] = _uniform(rng, (f, f), f)
    params["fusion.b2"] = _uniform(rng, (f,), f)
    params["dec.w"] = _uniform(rng, (f,), f)
    params["dec.b"] = _uniform(rng, (), f)
    return params


def _geometry(n, l_max, embed_dim, layers, heads, ffn_dim):
    f_max = RAcutConfig(n=n, l_max=l_max).f_max
    return EncoderConfig(
        embed_dim=embed_dim, layers=layers, heads=heads, ffn_dim=ffn_dim, n=n, f_max=f_max
    )


ENCODERS = {
    "default": EncoderConfig(),
    "pretrain-paper": _geometry(n=24, l_max=1200, embed_dim=64, layers=2, heads=4, ffn_dim=256),
    "pretrain-desk": _geometry(n=4, l_max=48, embed_dim=32, layers=2, heads=4, ffn_dim=64),
    "tiny": EncoderConfig(embed_dim=8, layers=1, heads=2, ffn_dim=16, n=3, f_max=4),
}
HEADS = {
    "default-over-d32": (CpiConfig(), ENCODERS["pretrain-desk"]),
    "default-over-default": (CpiConfig(), ENCODERS["default"]),
    "tiny": (
        CpiConfig(comp_layers=1, comp_heads=2, comp_ffn_dim=16, fusion_dim=6, max_atoms=32),
        ENCODERS["tiny"],
    ),
}
SEEDS = (0, 1, 2024)


def _assert_bit_identical(params, want):
    assert list(params) == list(want)
    for key, value in want.items():
        assert params[key].dtype == value.dtype and params[key].shape == value.shape, key
        assert np.array_equal(params[key], value), key


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_encoder_init_draws_what_its_statements_drew(name, seed):
    config = ENCODERS[name]
    _assert_bit_identical(enc.init(config, seed=seed).params, _encoder_params(config, seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(HEADS))
def test_cpi_init_draws_what_its_statements_drew(name, seed):
    config, enc_config = HEADS[name]
    # the encoder's own draw does not feed the head's
    frozen = enc.EncoderState(enc_config, {})
    model = cpi.init_cpi(config, frozen, seed=seed)
    assert model.encoder_state is frozen
    _assert_bit_identical(model.params, _cpi_params(config, enc_config.embed_dim, seed))


def test_stack_table_draws_what_init_stack_params_drew():
    want = {}
    _stack(np.random.default_rng(5), want, "s.", 3, 12, 20)
    _assert_bit_identical(nn.draw_params(nn.stack_table("s.", 3, 12, 20), 5), want)


def test_checkpoint_loads_draw_no_parameters(tmp_path, monkeypatch):
    config = ENCODERS["pretrain-desk"]
    state = enc.init(config, seed=1)
    model = cpi.init_cpi(CpiConfig(), state, seed=2)
    save_checkpoint(pretrain.checkpoint_from_encoder(state, {}), tmp_path / "enc.ckpt")
    save_checkpoint(cpi.checkpoint_from_cpi(model, {}), tmp_path / "cpi.ckpt")
    enc_ckpt = load_checkpoint(tmp_path / "enc.ckpt")
    cpi_ckpt = load_checkpoint(tmp_path / "cpi.ckpt")

    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint load drew parameters")

    monkeypatch.setattr(nn, "uniform_init", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    restored = pretrain.encoder_state_from_checkpoint(enc_ckpt)
    restored_model = cpi.cpi_model_from_checkpoint(cpi_ckpt)
    monkeypatch.undo()

    def by_name(params):  # a checkpoint holds its arrays in sorted order
        return dict(sorted(params.items()))

    assert restored.config == config and restored_model.config == CpiConfig()
    _assert_bit_identical(by_name(restored.params), by_name(state.params))
    _assert_bit_identical(by_name(restored_model.params), by_name(model.params))
    _assert_bit_identical(by_name(restored_model.encoder_state.params), by_name(state.params))
