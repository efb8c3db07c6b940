"""Shuffled-subsequence encoder with a slot-to-position score head.

A batch arrives as blocks padded to f_max, shape (B, n, f_max), and is
packed before the transformer sees it: only real tokens are embedded, one
row each, in slot order per example, as token + within-block position +
slot embeddings. ``nn.token_encoder_forward`` runs the rows through a
pre-norm transformer stack, each example attending over its own rows
only, then a final layernorm with no bias, and mean-pools each block's
run of consecutive rows. A linear head with no bias scores every block
against every original position. Its logits are the log-scores that
``perm.sinkhorn`` takes as they are: row i scores the block sitting in
shuffled slot i against each original position j, and the backward
receives their gradient directly. The two biases are left out because
Sinkhorn's limit does not change when a constant is added to a column of
log-scores, so the loss would give them only the truncation error of its
unrolled steps as gradient.

Every entry point is batched and returns plain arrays: pooled block
vectors (B, n, embed_dim) and a (B, n, n) stack of logit matrices, which
``perm.sinkhorn`` normalizes in one call. The inference entry points
(``forward_batch``, ``protein_embeddings``, ``segment_embeddings``) run
their inputs in consecutive runs of at most ``nn.MAX_TOKENS`` real tokens
(``nn._micro_batches``, the cut training uses too), one input at least,
and keep no layer caches; only training keeps them, for
``_backward_core``. The cut changes no bit of their results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nn, perm
from .augment import RAcutConfig, SubsequenceSet
from .corpus import DEFAULT_MAX_RESIDUES, RESIDUE_PAD_ID, RESIDUE_VOCAB_SIZE, ProteinRecord
from .errors import NumericError, ValidationError


@dataclass(frozen=True)
class EncoderConfig:
    embed_dim: int = 256
    layers: int = 8
    heads: int = 8
    ffn_dim: int = 1024
    n: int = 24
    # the default residue budget cut into the default block count
    f_max: int = RAcutConfig(n=n, l_max=DEFAULT_MAX_RESIDUES).f_max

    def __post_init__(self) -> None:
        for name in ("embed_dim", "layers", "heads", "ffn_dim", "n", "f_max"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.embed_dim % self.heads != 0:
            raise ValidationError(
                f"embed_dim {self.embed_dim} must be divisible by heads {self.heads}"
            )


@dataclass
class EncoderState:
    config: EncoderConfig
    params: dict[str, np.ndarray]


def param_table(config: EncoderConfig) -> list:
    """The encoder's parameters as ``nn.draw_params`` rows, in draw order."""
    d = config.embed_dim
    return [
        ("tok_embed", (RESIDUE_VOCAB_SIZE, d), d),
        ("pos_embed", (config.f_max, d), d),
        ("slot_embed", (config.n, d), d),
        *nn.stack_table("", config.layers, d, config.ffn_dim),
        ("ln_f.gamma", (d,), "ones"),
        ("head.w", (d, config.n), d),
    ]


def init(config: EncoderConfig, seed: int = 0) -> EncoderState:
    """Build a fresh encoder, deterministically from the seed."""
    return EncoderState(config=config, params=nn.draw_params(param_table(config), seed))


def _forward_core(
    state: EncoderState, blocks: np.ndarray, lengths: np.ndarray, keep_caches: bool = True
):
    """Batched forward. blocks (B, n, f_max) int, lengths (B, n) int.

    Only real tokens are embedded: one row per token, example by example
    and in slot order within an example, as token + within-block position
    + slot embeddings. ``nn.token_encoder_forward`` pools each block's run
    of rows, and the head scores the pooled blocks. Returns (pooled,
    logits, cache); an inference forward, without ``keep_caches``, keeps
    one layer's cache at a time and returns None for the cache.

    Blocks of length 0 are legal (``segment_protein``'s fixed f_max cut
    leaves trailing empties); they pool to the zero vector.
    """
    cfg = state.config
    b, n, f = blocks.shape
    # (example, slot, position) of every real token, slot-major per example
    ex, slot, pos = np.nonzero(np.arange(f) < lengths[:, :, None])
    lookups = (("tok_embed", blocks[ex, slot, pos]), ("pos_embed", pos), ("slot_embed", slot))
    pooled, core = nn.token_encoder_forward(
        state.params, "", lookups, lengths.sum(axis=1), lengths.ravel(), cfg.layers, cfg.heads,
        keep_caches,
    )
    pooled = pooled.reshape(b, n, -1)
    return pooled, pooled @ state.params["head.w"], (core, pooled) if keep_caches else None


def _backward_core(state: EncoderState, cache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact parameter gradients for the batched forward, given d(loss)/d(logits)."""
    core, pooled = cache
    w = state.params["head.w"]
    d, n = w.shape
    grads = nn.token_encoder_backward(core, (dlogits @ w.T).reshape(-1, d))
    grads["head.w"] = pooled.reshape(-1, d).T @ dlogits.reshape(-1, n)
    return grads


def _validate_input(state: EncoderState, sset: SubsequenceSet) -> None:
    cfg = state.config
    if sset.n != cfg.n or sset.f_max != cfg.f_max:
        raise ValidationError(
            f"input blocks are {sset.n} x {sset.f_max}, encoder expects "
            f"{cfg.n} x {cfg.f_max}"
        )
    if (sset.blocks >= RESIDUE_VOCAB_SIZE).any() or (sset.blocks < 0).any():
        raise ValidationError("block token id out of vocabulary range")


def _chunked_forward(state: EncoderState, blocks: np.ndarray, lengths: np.ndarray):
    """Pooled vectors and logits, one cache-free ``_forward_core`` per ``nn.MAX_TOKENS`` run."""
    b, n, _ = blocks.shape
    pooled = np.empty((b, n, state.config.embed_dim))
    logits = np.empty((b, n, n))
    for run in nn._micro_batches(lengths.sum(axis=1), 0, b):
        pooled[run], logits[run], _ = _forward_core(
            state, blocks[run], lengths[run], keep_caches=False
        )
    if not (np.isfinite(pooled).all() and np.isfinite(logits).all()):
        raise NumericError("encoder forward produced non-finite activations")
    return pooled, logits


def forward_batch(
    state: EncoderState, ssets: Sequence[SubsequenceSet]
) -> tuple[np.ndarray, np.ndarray]:
    """Encode SubsequenceSets for inference, ``nn.MAX_TOKENS`` real tokens at a time.

    Returns the pooled block vectors (B, n, embed_dim) and the logit
    matrices (B, n, n).
    """
    for sset in ssets:
        _validate_input(state, sset)
    return _chunked_forward(
        state,
        np.stack([s.blocks for s in ssets]),
        np.stack([s.true_lengths for s in ssets]),
    )


def predict_q(
    state: EncoderState,
    sset: SubsequenceSet,
    sk: perm.SinkhornConfig = perm.SinkhornConfig(m=perm.EVAL_SINKHORN_M),
) -> np.ndarray:
    """Forward plus Sinkhorn projection of one example's (n, n) logits: Q."""
    _, logits = forward_batch(state, [sset])
    return np.exp(perm.sinkhorn(logits[0], sk))


def segment_protein(
    config: EncoderConfig, protein: ProteinRecord
) -> tuple[np.ndarray, np.ndarray]:
    """Inference-time blocks (n, f_max) and lengths (n,) of one protein.

    The token list (truncated to n * f_max) is split into n consecutive
    blocks of f_max in natural slot order; trailing blocks may be empty.
    """
    n, f = config.n, config.f_max
    tokens = protein.tokens[: n * f]
    if len(tokens) < n:
        raise ValidationError(
            f"protein has {len(tokens)} tokens but at least {n} are required"
        )
    blocks = np.full(n * f, RESIDUE_PAD_ID, dtype=np.int64)
    blocks[: len(tokens)] = tokens
    lengths = np.diff(np.minimum(f * np.arange(n + 1), len(tokens)))
    return blocks.reshape(n, f), lengths


def protein_embeddings(state: EncoderState, proteins: Sequence[ProteinRecord]) -> np.ndarray:
    """Whole-protein vectors for downstream use, shape (len(proteins), embed_dim).

    Each protein is cut by ``segment_protein`` (no noise, natural slot
    order) and embedded by ``segment_embeddings``.
    """
    return segment_embeddings(state, [segment_protein(state.config, p) for p in proteins])


def segment_embeddings(state: EncoderState, segments: Sequence[tuple]) -> np.ndarray:
    """Whole-protein vectors (len(segments), embed_dim) of ``segment_protein`` cuts.

    A protein's vector is the mean of its non-empty block embeddings.
    Proteins are encoded ``nn.MAX_TOKENS`` real tokens at a time.
    """
    cfg = state.config
    blocks = np.empty((len(segments), cfg.n, cfg.f_max), dtype=np.int64)
    lengths = np.empty((len(segments), cfg.n), dtype=np.int64)
    for i, segment in enumerate(segments):
        blocks[i], lengths[i] = segment
    pooled, _ = _chunked_forward(state, blocks, lengths)
    # empty blocks pool to zero, so the sum runs over non-empty ones
    return pooled.sum(axis=1) / (lengths > 0).sum(axis=1, keepdims=True)


def protein_embedding(state: EncoderState, protein: ProteinRecord) -> np.ndarray:
    """Whole-protein vector of one protein; see ``protein_embeddings``."""
    return protein_embeddings(state, [protein])[0]
