"""Pretraining loop: minimize the reordering loss over shuffled proteins.

Each epoch regenerates every example from a per-example seed derived as
(global_seed, epoch, protein_index), so two runs with the same config and
seed produce bit-identical parameter trajectories. A 5% slice of the
admissible proteins is held out; its examples use the reserved epoch
namespace 0 and stay fixed for the whole run. Held-out permutation
accuracy (scored with the deeper evaluation-time projection) selects the
best checkpoint. The checkpoint container and the logs are
``artifacts``' formats.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from . import encoder as enc
from . import nn, perm
from .artifacts import Checkpoint, StepRecord, TrainLog, check_params, write_val_log
from .artifacts import save_checkpoint
from .artifacts import load_checkpoint  # noqa: F401  (perfbench calls this name)
from .augment import NoiseSpec, PretrainExample, RAcutConfig, make_pretrain_example
from .corpus import PretrainDataset
from .errors import CheckpointError, NumericError, ValidationError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = 200
    lr: float = 5e-5
    batch_size: int = 64
    weight_decay: float = 1e-4
    sinkhorn: perm.SinkhornConfig = perm.SinkhornConfig(m=perm.TRAIN_SINKHORN_M)
    noise: NoiseSpec = NoiseSpec()
    global_seed: int = 0
    valid_fraction: float = 0.05
    eval_m: int = perm.EVAL_SINKHORN_M
    stop_accuracy: float | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr < 0:
            raise ValidationError(f"lr must be >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.weight_decay < 0:
            raise ValidationError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.valid_fraction < 1.0:
            raise ValidationError(
                f"valid_fraction must be in [0, 1), got {self.valid_fraction}"
            )


def checkpoint_from_encoder(state: enc.EncoderState, provenance: dict) -> Checkpoint:
    return Checkpoint(
        section="encoder",
        config=asdict(state.config),
        params={k: p.copy() for k, p in state.params.items()},
        provenance=dict(provenance),
    )


def encoder_state_from_checkpoint(ckpt: Checkpoint) -> enc.EncoderState:
    if ckpt.section != "encoder":
        raise CheckpointError(
            f"checkpoint section is {ckpt.section!r}, expected 'encoder'"
        )
    config = enc.EncoderConfig(**ckpt.config)
    check_params(ckpt.params, enc.init(config).params)
    return enc.EncoderState(config=config, params=ckpt.params)


def objective(
    state: enc.EncoderState,
    batch: Sequence[PretrainExample],
    sinkhorn: perm.SinkhornConfig,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """The pretraining objective on one batch and its exact gradient.

    Returns the per-example reordering losses (B,), the log Q stack
    (B, n, n) and the parameter gradients of the batch-mean loss. Weight
    decay is not part of it: Adam adds that term.

    A batch of two or more examples runs as two micro-batches, its first
    ceil(B/2) examples and the rest, on ``nn.run_pair``'s threads, each
    scaled by 1/B; the gradients are their sum, joined in micro-batch order
    (Ott et al. 2018). Losses and log Q are those of one call over the
    batch, bit for bit; the gradients differ from one call's only in
    rounding, and not at all between worker counts.
    """

    def micro(part: Sequence[PretrainExample]):
        blocks = np.stack([ex.shuffled.blocks for ex in part])
        lengths = np.stack([ex.shuffled.true_lengths for ex in part])
        _, logits, cache = enc._forward_core(state, blocks, lengths)
        log_q = perm.sinkhorn(logits, sinkhorn)
        dlog_q = np.empty_like(log_q)
        losses = np.empty(len(part))
        for i, ex in enumerate(part):
            losses[i], dlog_q[i] = perm.reorder_loss_grad(ex.target, log_q[i])
        dlogits = perm.sinkhorn_backward(logits, sinkhorn, dlog_q) / len(batch)
        return losses, log_q, enc._backward_core(state, cache, dlogits)

    if len(batch) < 2:
        return micro(batch)
    cut = (len(batch) + 1) // 2
    (losses, log_q, grads), (more_losses, more_log_q, more) = nn.run_pair(
        micro, batch[:cut], batch[cut:]
    )
    for key, g in more.items():
        grads[key] += g
    return np.concatenate([losses, more_losses]), np.concatenate([log_q, more_log_q]), grads


def pretrain_step(
    state: enc.EncoderState,
    batch: Sequence[PretrainExample],
    config: PretrainConfig,
    adam: nn.AdamState,
    epoch: int = 0,
    step: int = 0,
) -> tuple[enc.EncoderState, StepRecord]:
    """One ``objective`` evaluation plus one Adam update (in place).

    The reported loss is the mean reordering loss over the batch plus the
    (weight_decay / 2) * ||theta||^2 penalty; it is >= 0 whenever Sinkhorn
    runs at least one step, since every log Q entry is then <= 0.
    """
    if not batch:
        raise ValidationError("batch is empty")
    start = time.perf_counter()
    losses, log_q, grads = objective(state, batch, config.sinkhorn)
    accs = [
        perm.permutation_accuracy(perm.round_to_permutation(q), ex.target)
        for ex, q in zip(batch, np.exp(log_q))
    ]
    penalty = nn.l2_penalty(state.params, config.weight_decay)
    loss = float(losses.mean() + penalty)
    if not np.isfinite(loss):
        raise NumericError(
            f"non-finite loss at epoch {epoch} step {step}: "
            f"data={losses.mean()!r} penalty={penalty!r}"
        )
    nn.adam_step(state.params, grads, adam, lr=config.lr, weight_decay=config.weight_decay)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return state, StepRecord(epoch, step, loss, float(np.mean(accs)), wall_ms)


def heldout_accuracy(
    state: enc.EncoderState,
    examples: Sequence[PretrainExample],
    eval_m: int,
) -> float:
    """Mean slot accuracy under the deeper evaluation-time projection.

    The examples go through one ``forward_batch`` and one projection of
    the whole stack; rounding then runs per example.
    """
    _, logits = enc.forward_batch(state, [ex.shuffled for ex in examples])
    q = np.exp(perm.sinkhorn(logits, perm.SinkhornConfig(m=eval_m)))
    total = 0.0
    for ex, q_ex in zip(examples, q):
        total += perm.permutation_accuracy(perm.round_to_permutation(q_ex), ex.target)
    return total / len(examples)


@dataclass
class PretrainResult:
    best_checkpoint: Checkpoint
    val_history: list[tuple[int, float]]
    best_epoch: int
    # "heldout_acc", or "train_acc" when nothing was held out and
    # val_history holds each epoch's mean training-batch accuracy
    val_label: str


def pretrain_run(
    dataset: PretrainDataset,
    encoder_config: enc.EncoderConfig,
    racut_config: RAcutConfig,
    config: PretrainConfig,
    out_dir: str | Path | None = None,
) -> PretrainResult:
    """Pretrain from scratch; returns the best-by-held-out checkpoint.

    Proteins shorter than n tokens are skipped with a warning. When
    nothing is held out (``valid_fraction`` 0 or fewer than two admissible
    proteins), epochs are ranked by their mean training-batch accuracy
    instead, and the history is labelled ``train_acc``. When an output
    directory is given, a checkpoint is written per epoch, the best
    checkpoint is kept up to date, the step log lands in train_log.csv and
    the per-epoch accuracy in val_log.csv; both logs are written even when
    the run raises, up to the last finished step and epoch.
    """
    if racut_config.n != encoder_config.n or racut_config.f_max != encoder_config.f_max:
        raise ValidationError(
            f"cut geometry {racut_config.n} x {racut_config.f_max} does not match "
            f"encoder {encoder_config.n} x {encoder_config.f_max}"
        )
    admissible = [p for p in dataset.proteins if len(p.tokens) >= racut_config.n]
    skipped = len(dataset.proteins) - len(admissible)
    if skipped:
        logger.warning(
            "skipping %d of %d proteins shorter than n=%d",
            skipped,
            len(dataset.proteins),
            racut_config.n,
        )
    if not admissible:
        raise ValidationError("no admissible proteins to pretrain on")

    gs = config.global_seed
    total = len(admissible)
    val_count = 0
    if total >= 2 and config.valid_fraction > 0:
        val_count = min(max(1, round(config.valid_fraction * total)), total - 1)
    order = np.random.default_rng((gs, 0)).permutation(total)
    val_label = "heldout_acc" if val_count else "train_acc"
    val_idx = np.sort(order[:val_count])
    train_idx = np.sort(order[val_count:])
    val_examples = [
        make_pretrain_example(admissible[i], racut_config, config.noise, (gs, 0, int(i)))
        for i in val_idx
    ]

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    state = enc.init(encoder_config, seed=gs)
    adam = nn.adam_init(state.params)
    log = TrainLog()
    val_history: list[tuple[int, float]] = []
    best_acc = -np.inf
    best_ckpt: Checkpoint | None = None
    best_epoch = 0
    global_step = 0

    try:
        for epoch in range(1, config.epochs + 1):
            epoch_order = np.random.default_rng((gs, epoch)).permutation(len(train_idx))
            shuffled_idx = train_idx[epoch_order]
            epoch_accs = []
            for start in range(0, len(shuffled_idx), config.batch_size):
                idxs = shuffled_idx[start : start + config.batch_size]
                batch = [
                    make_pretrain_example(
                        admissible[i], racut_config, config.noise, (gs, epoch, int(i))
                    )
                    for i in idxs
                ]
                global_step += 1
                state, rec = pretrain_step(state, batch, config, adam, epoch, global_step)
                log.append(rec)
                epoch_accs.append(rec.perm_acc)

            if val_examples:
                val_acc = heldout_accuracy(state, val_examples, config.eval_m)
            else:
                val_acc = float(np.mean(epoch_accs))
            val_history.append((epoch, val_acc))

            improved = val_acc > best_acc
            if out_path is not None or improved:
                provenance = {"global_seed": gs, "epoch": epoch, "step": global_step}
                ckpt = checkpoint_from_encoder(state, provenance)
                if out_path is not None:
                    save_checkpoint(ckpt, out_path / f"epoch_{epoch:04d}.ckpt")
                if improved:
                    best_acc, best_ckpt, best_epoch = val_acc, ckpt, epoch
                    if out_path is not None:
                        save_checkpoint(ckpt, out_path / "best.ckpt")
            if config.stop_accuracy is not None and val_acc >= config.stop_accuracy:
                logger.info("early stop at epoch %d: %s %.4f", epoch, val_label, val_acc)
                break
    finally:
        # a run that raises keeps the steps and epochs it finished
        if out_path is not None:
            log.write_csv(out_path / "train_log.csv")
            write_val_log(out_path / "val_log.csv", val_label, val_history)
    assert best_ckpt is not None
    return PretrainResult(
        best_checkpoint=best_ckpt,
        val_history=val_history,
        best_epoch=best_epoch,
        val_label=val_label,
    )
