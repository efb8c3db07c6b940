"""Compound-protein interaction head on top of a frozen protein encoder.

Compounds run through their own small attention stack over SMILES
characters, as packed rows of their real tokens only, each compound
attending over its own rows, then a final layernorm with a bias, and are
mean-pooled: the protein encoder's token path (``nn.token_encoder_forward``)
under the prefix ``comp.``, with token and position lookups only. Each
distinct token list in a batch is encoded once, and the pairs gather
their compound vectors from those encodings. The protein side is the
frozen encoder's whole-protein embedding, computed once per distinct
sequence and cached. The two vectors are concatenated, fused by a
two-layer MLP, and decoded to an interaction probability by a single
sigmoid unit. The training loss is the summed (not averaged) binary
cross-entropy plus an L2 penalty (lambda / 2) * ||theta||^2 over the
trainable parameters; the encoder parameters are frozen and receive no
gradient. Fine-tuning supplies a step and a validation-AUROC score to
``pretrain.train_epochs``, the epoch loop pretraining runs through too;
each step runs the two halves of its batch through ``nn.run_halves``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn
from .artifacts import Checkpoint, StepRecord, check_params, config_from_checkpoint
from .corpus import DEFAULT_MAX_ATOMS, SMILES_VOCAB_SIZE, InteractionRecord, ProteinRecord
from .encoder import EncoderConfig, EncoderState, protein_embeddings
from .encoder import param_table as encoder_table
from .encoder import protein_embedding  # noqa: F401  (perfbench traces this name)
from .errors import CheckpointError, NumericError, ValidationError
from .evaluation import auroc
from .pretrain import PretrainConfig, check_schedule, train_epochs

logger = logging.getLogger(__name__)

PREDICT_CHUNK = 256


@dataclass(frozen=True)
class CpiConfig:
    comp_layers: int = 2
    comp_heads: int = 8
    comp_ffn_dim: int = 1024
    fusion_dim: int = 512
    max_atoms: int = DEFAULT_MAX_ATOMS

    def __post_init__(self) -> None:
        for name in ("comp_layers", "comp_heads", "comp_ffn_dim", "fusion_dim", "max_atoms"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = PretrainConfig.epochs
    lr: float = PretrainConfig.lr
    batch_size: int = PretrainConfig.batch_size
    lam: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        check_schedule(self)
        if self.lam < 0:
            raise ValidationError(f"lam must be >= 0, got {self.lam}")


@dataclass
class CpiModel:
    config: CpiConfig
    params: dict[str, np.ndarray]
    encoder_state: EncoderState  # frozen; never updated here


def param_table(config: CpiConfig, d: int) -> list:
    """The head's parameters over a d-wide encoder, as ``nn.draw_params`` rows."""
    if d % config.comp_heads != 0:
        raise ValidationError(f"embed_dim {d} must be divisible by comp_heads {config.comp_heads}")
    f = config.fusion_dim
    return [
        ("comp.tok_embed", (SMILES_VOCAB_SIZE, d), d),
        ("comp.pos_embed", (config.max_atoms, d), d),
        *nn.stack_table("comp.", config.comp_layers, d, config.comp_ffn_dim),
        ("comp.ln_f.gamma", (d,), "ones"), ("comp.ln_f.beta", (d,), "zeros"),
        ("fusion.w1", (2 * d, f), 2 * d), ("fusion.b1", (f,), 2 * d),
        ("fusion.w2", (f, f), f), ("fusion.b2", (f,), f),
        ("dec.w", (f,), f), ("dec.b", (), f),
    ]


def init_cpi(config: CpiConfig, encoder_state: EncoderState, seed: int = 0) -> CpiModel:
    params = nn.draw_params(param_table(config, encoder_state.config.embed_dim), seed)
    return CpiModel(config=config, params=params, encoder_state=encoder_state)


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------


def _compound_forward(model: CpiModel, token_rows: Sequence[Sequence[int]]):
    """Pooled compound vectors (B, embed_dim); the stack runs on real tokens only."""
    cfg = model.config
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
    lookups = (("tok_embed", ids), ("pos_embed", pos))
    return nn.token_encoder_forward(
        model.params, "comp.", lookups, lengths, lengths, cfg.comp_layers, cfg.comp_heads
    )


def _compound_backward(model: CpiModel, cache, d_pooled: np.ndarray) -> dict[str, np.ndarray]:
    return nn.token_encoder_backward(cache, d_pooled)


def _fuse_batch(model: CpiModel, z_comp: np.ndarray, z_prot: np.ndarray):
    """relu(cat @ w1 + b1) @ w2 + b2 on the concatenated pair vectors."""
    cat = np.concatenate([z_comp, z_prot], axis=1)
    return nn.ffn_forward(cat, model.params, "fusion.")


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic function; exp only ever sees a non-positive argument."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function clipped to [1e-15, 1 - 1e-15], for reported probabilities."""
    return np.clip(_expit(x), 1e-15, 1.0 - 1e-15)


# ---------------------------------------------------------------------------
# batched prediction and training
# ---------------------------------------------------------------------------


def build_protein_cache(
    model: CpiModel,
    records: Sequence[InteractionRecord],
    cache: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """One frozen-encoder embedding per distinct sequence.

    Sequences not yet in ``cache`` are embedded and added to it (in place
    when a cache is given); the cache is returned.
    """
    cache = {} if cache is None else cache
    missing: dict[str, ProteinRecord] = {}
    for rec in records:
        if rec.protein.raw not in cache:
            missing.setdefault(rec.protein.raw, rec.protein)
    vectors = protein_embeddings(model.encoder_state, list(missing.values()))
    cache.update(zip(missing, vectors))
    return cache


def _pair_logits(
    model: CpiModel,
    records: Sequence[InteractionRecord],
    cache: dict[str, np.ndarray],
):
    """Logits of the pairs; each distinct compound token list is encoded once.

    The distinct lists keep their order of first appearance, and
    ``inverse`` maps each pair to its list.
    """
    distinct: dict[tuple[int, ...], int] = {}
    inverse = np.array(
        [distinct.setdefault(tuple(r.compound.tokens), len(distinct)) for r in records]
    )
    pooled, comp_cache = _compound_forward(model, list(distinct))
    z_prot = np.stack([cache[r.protein.raw] for r in records])
    joint, fuse_cache = _fuse_batch(model, pooled[inverse], z_prot)
    logits = joint @ model.params["dec.w"] + model.params["dec.b"]
    return logits, joint, (comp_cache, inverse, len(distinct)), fuse_cache


def predict_pairs(
    model: CpiModel,
    records: Sequence[InteractionRecord],
    cache: dict[str, np.ndarray],
) -> np.ndarray:
    """Interaction probabilities, ``PREDICT_CHUNK`` pairs at a time, from cached proteins."""
    out = np.empty(len(records))
    for start in range(0, len(records), PREDICT_CHUNK):
        chunk = records[start : start + PREDICT_CHUNK]
        logits, _, _, _ = _pair_logits(model, chunk, cache)
        out[start : start + len(chunk)] = _sigmoid(logits)
    return out


@dataclass
class FinetuneResult:
    model: CpiModel
    selected_epoch: int
    selected_step: int  # the global step that ended the selected epoch
    val_history: list[tuple[int, float]]


def _batch_grads(
    model: CpiModel,
    chunk: Sequence[InteractionRecord],
    cache: dict[str, np.ndarray],
    lam: float,
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Loss, probabilities, and head gradients for one batch.

    Protein embeddings come from the cache and are treated as constants;
    the summed BCE is computed in stable logit form, and so is its
    gradient: d(loss)/d(logit) is -sigmoid(-logit) for a positive and
    sigmoid(logit) for a negative, which neither cancels nor clips at
    saturated logits. The gradients include the lam * theta regularizer
    term. Compound gradients are summed onto the distinct compounds
    before the compound backward.
    """
    y = np.array([r.label for r in chunk], dtype=np.float64)
    logits, joint, (comp_cache, inverse, n_distinct), fuse_cache = _pair_logits(
        model, chunk, cache
    )
    data_loss = float((np.logaddexp(0.0, logits) - y * logits).sum())
    loss = data_loss + nn.l2_penalty(model.params, lam)
    p = model.params
    dlogit = np.where(y == 1.0, -_expit(-logits), _expit(logits))
    djoint = dlogit[:, None] * p["dec.w"][None, :]
    dcat, fusion_grads = nn.ffn_backward(fuse_cache, djoint)
    dz_comp = dcat[:, : model.encoder_state.config.embed_dim]  # protein side is constant
    d_pooled = nn.embedding_backward(inverse, dz_comp, n_distinct)
    grads = _compound_backward(model, comp_cache, d_pooled)
    grads.update(fusion_grads)
    grads["dec.w"] = joint.T @ dlogit
    grads["dec.b"] = np.asarray(dlogit.sum())  # 0-d array: the L2 term adds in place
    if lam > 0:
        for k, g in grads.items():
            g += lam * p[k]
    return loss, _sigmoid(logits), grads


def _half_grads(params: dict[str, np.ndarray], part: tuple):
    """((loss, probabilities), head gradients) of part of a batch, without the L2 term.

    ``part`` is (head config, encoder config, the pairs, their proteins'
    cached embeddings): it needs neither the encoder nor the whole cache.
    """
    config, encoder_config, chunk, proteins = part
    model = CpiModel(config, params, EncoderState(encoder_config, {}))
    loss, probs, grads = _batch_grads(model, chunk, proteins, 0.0)
    return (loss, probs), grads


def _step_grads(
    model: CpiModel,
    chunk: Sequence[InteractionRecord],
    cache: dict[str, np.ndarray],
    lam: float,
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """``_batch_grads`` of a training batch, as two halves where it holds two or more pairs.

    The halves, its first ceil(B/2) pairs and the rest, run through
    ``nn.run_halves`` (the second in its worker process where there are 2
    workers); their losses and gradients are summed in that order, and the
    L2 term is added once, to both. The bits differ from one call's in
    rounding only, and not at all between worker counts.
    """
    if len(chunk) < 2:
        return _batch_grads(model, chunk, cache, lam)

    def part(pairs: Sequence[InteractionRecord]) -> tuple:
        proteins = {r.protein.raw: cache[r.protein.raw] for r in pairs}
        return model.config, model.encoder_state.config, pairs, proteins

    (loss, probs), (more_loss, more_probs), grads = nn.run_halves(
        _half_grads, model.params, chunk, part
    )
    if lam > 0:
        for key, g in grads.items():
            g += lam * model.params[key]
    loss = loss + more_loss + nn.l2_penalty(model.params, lam)
    return loss, np.concatenate([probs, more_probs]), grads


def finetune_run(
    train: Sequence[InteractionRecord],
    valid: Sequence[InteractionRecord],
    frozen: EncoderState,
    config: CpiConfig,
    ft: FinetuneConfig = FinetuneConfig(),
    out_dir: str | Path | None = None,
) -> FinetuneResult:
    """Train the CPI head on frozen protein embeddings.

    The returned model carries the parameters of the epoch with the best
    validation AUROC (validation pairs of one label are refused), or of
    the final epoch when there are no validation pairs. The encoder is
    never updated: no gradient path reaches it and the protein embeddings
    are computed once up front. With ``out_dir`` the step log lands in
    finetune_log.csv and the per-epoch validation AUROC in val_log.csv.
    """
    if not train:
        raise ValidationError("training set is empty")
    if len({r.label for r in valid}) == 1:
        raise ValidationError(f"every validation pair has label {valid[0].label}: no AUROC")
    if not valid:
        logger.warning("no validation pairs: keeping the final epoch")
    model = init_cpi(config, frozen, seed=ft.seed)
    cache = build_protein_cache(model, list(train) + list(valid))
    adam = nn.adam_init(model.params)
    val_labels = np.array([r.label for r in valid])

    def train_step(idx: np.ndarray, epoch: int, global_step: int) -> StepRecord:
        chunk = [train[i] for i in idx]
        start = time.perf_counter()
        loss, probs, grads = _step_grads(model, chunk, cache, ft.lam)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite fine-tune loss at epoch {epoch} step {global_step}")
        nn.adam_step(model.params, grads, adam, lr=ft.lr)
        wall_ms = (time.perf_counter() - start) * 1000.0
        y = np.array([r.label for r in chunk], dtype=np.float64)
        acc = float(((probs > 0.5) == (y > 0.5)).mean())
        return StepRecord(epoch, global_step, loss, acc, wall_ms)

    def score(records: list[StepRecord]) -> float | None:
        return auroc(predict_pairs(model, valid, cache), val_labels) if valid else None

    model.params, epoch, step, history = train_epochs(
        model.params, len(train), ft.seed, ft.epochs, ft.batch_size, train_step, score,
        out_dir, ("finetune_log.csv", "acc", "val_auroc"),
    )
    return FinetuneResult(model, epoch, step, history)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def checkpoint_from_cpi(model: CpiModel, provenance: dict) -> Checkpoint:
    """The model's own arrays, not copies: head under ``cpi.``, frozen encoder under ``enc.``."""
    params = {f"cpi.{k}": p for k, p in model.params.items()}
    params.update({f"enc.{k}": p for k, p in model.encoder_state.params.items()})
    return Checkpoint(
        section="cpi",
        config={
            "cpi": asdict(model.config),
            "encoder": asdict(model.encoder_state.config),
        },
        params=params,
        provenance=dict(provenance),
    )


def cpi_model_from_checkpoint(ckpt: Checkpoint) -> CpiModel:
    if ckpt.section != "cpi":
        raise CheckpointError(f"checkpoint section is {ckpt.section!r}, expected 'cpi'")
    config = config_from_checkpoint(CpiConfig, ckpt.config.get("cpi"))
    enc_config = config_from_checkpoint(EncoderConfig, ckpt.config.get("encoder"))
    if ckpt.config.keys() != {"cpi", "encoder"}:
        raise CheckpointError(
            f"checkpoint config keys {sorted(ckpt.config)} are not exactly cpi and encoder"
        )
    tables = {"enc.": encoder_table(enc_config), "cpi.": param_table(config, enc_config.embed_dim)}
    check_params(ckpt.params, [(pre + row[0], *row[1:]) for pre, t in tables.items() for row in t])
    enc_params, cpi_params = (
        {k[len(pre) :]: v for k, v in ckpt.params.items() if k.startswith(pre)} for pre in tables
    )
    return CpiModel(config, cpi_params, EncoderState(enc_config, enc_params))
