"""Pretraining by reordering shuffled proteins, and the epoch loop of both phases.

``train_epochs`` is the one epoch loop: it owns the per-epoch order, the
batching, the global step count, the logs and the selection of the best
epoch's parameters, and fine-tuning (``cpi.finetune_run``) runs through it
as ``pretrain_run`` does. Each pretraining epoch regenerates every
example from a per-example seed derived as (global_seed, epoch,
protein_index), so two runs with the same config and seed produce
bit-identical parameter trajectories. A 5% slice of the admissible
proteins is held out; its examples use the reserved epoch namespace 0 and
stay fixed for the whole run. Held-out permutation accuracy (scored with
the deeper evaluation-time projection) selects the best checkpoint. The
checkpoint container and the logs are ``artifacts``' formats.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import encoder as enc
from . import nn, perm
from .artifacts import Checkpoint, StepRecord, TrainLog, check_params, write_val_log
from .artifacts import config_from_checkpoint, save_checkpoint
from .artifacts import load_checkpoint  # noqa: F401  (perfbench calls this name)
from .augment import NoiseSpec, PretrainExample, RAcutConfig, make_pretrain_example
from .corpus import PretrainDataset
from .errors import CheckpointError, NumericError, ValidationError

logger = logging.getLogger(__name__)


def check_schedule(config) -> None:
    """Refuse an epoch count, learning rate or batch size ``train_epochs`` cannot run."""
    for name, low in (("epochs", 1), ("lr", 0), ("batch_size", 1)):
        if getattr(config, name) < low:
            raise ValidationError(f"{name} must be >= {low}, got {getattr(config, name)}")


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
        check_schedule(self)
        if self.weight_decay < 0:
            raise ValidationError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.valid_fraction < 1.0:
            raise ValidationError(
                f"valid_fraction must be in [0, 1), got {self.valid_fraction}"
            )
        if self.eval_m < 0:
            raise ValidationError(f"eval_m must be >= 0, got {self.eval_m}")
        if self.stop_accuracy is not None and not 0.0 <= self.stop_accuracy <= 1.0:
            raise ValidationError(f"stop_accuracy must be in [0, 1], got {self.stop_accuracy}")


def checkpoint_from_encoder(state: enc.EncoderState, provenance: dict) -> Checkpoint:
    """A checkpoint that holds the state's own arrays, not copies of them."""
    return Checkpoint(
        section="encoder",
        config=asdict(state.config),
        params=dict(state.params),
        provenance=dict(provenance),
    )


def encoder_state_from_checkpoint(ckpt: Checkpoint) -> enc.EncoderState:
    if ckpt.section != "encoder":
        raise CheckpointError(
            f"checkpoint section is {ckpt.section!r}, expected 'encoder'"
        )
    config = config_from_checkpoint(enc.EncoderConfig, ckpt.config)
    check_params(ckpt.params, enc.param_table(config))
    return enc.EncoderState(config=config, params=ckpt.params)


def _micro(params: dict[str, np.ndarray], part: tuple):
    """((losses, log Q, slot accuracies), parameter gradients) of one micro-batch.

    ``part`` is (encoder config, Sinkhorn config, the examples' stacked
    blocks and lengths, their targets, B): the gradients are those of the
    micro-batch's summed loss over B, and each accuracy is that of the
    example's rounded Q.
    """
    config, sinkhorn, blocks, lengths, targets, batch_size = part
    state = enc.EncoderState(config, params)
    _, logits, cache = enc._forward_core(state, blocks, lengths)
    log_q = perm.sinkhorn(logits, sinkhorn)
    dlog_q = np.empty_like(log_q)
    losses = np.empty(len(targets))
    for i, target in enumerate(targets):
        losses[i], dlog_q[i] = perm.reorder_loss_grad(target, log_q[i])
    dlogits = perm.sinkhorn_backward(logits, sinkhorn, dlog_q) / batch_size
    grads = enc._backward_core(state, cache, dlogits)
    accs = [
        perm.permutation_accuracy(perm.round_to_permutation(q), target)
        for target, q in zip(targets, np.exp(log_q))
    ]
    return (losses, log_q, accs), grads


def objective(
    state: enc.EncoderState,
    batch: Sequence[PretrainExample],
    sinkhorn: perm.SinkhornConfig,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray], list[float]]:
    """The pretraining objective on one batch and its exact gradient.

    Returns the per-example reordering losses (B,), the log Q stack
    (B, n, n), the parameter gradients of the batch-mean loss, and each
    example's slot accuracy once its Q is rounded to a permutation. Weight
    decay is not part of it: Adam adds that term.

    A batch of two or more examples runs as two micro-batches, its first
    ceil(B/2) examples and the rest, through ``nn.run_halves`` (the second
    in its worker process where there are 2 workers), each scaled by 1/B;
    the gradients are their sum, joined in micro-batch order (Ott et al.
    2018). Losses, log Q and accuracies are those of one call over the
    batch, bit for bit; the gradients differ from one call's only in
    rounding, and not at all between worker counts.
    """

    def part(examples: Sequence[PretrainExample]) -> tuple:
        blocks = np.stack([ex.shuffled.blocks for ex in examples])
        lengths = np.stack([ex.shuffled.true_lengths for ex in examples])
        return state.config, sinkhorn, blocks, lengths, [ex.target for ex in examples], len(batch)

    if len(batch) < 2:
        (losses, log_q, accs), grads = _micro(state.params, part(batch))
        return losses, log_q, grads, accs
    (losses, log_q, accs), (more_losses, more_log_q, more_accs), grads = nn.run_halves(
        _micro, state.params, batch, part
    )
    losses, log_q = np.concatenate([losses, more_losses]), np.concatenate([log_q, more_log_q])
    return losses, log_q, grads, accs + more_accs


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
    losses, _, grads, accs = objective(state, batch, config.sinkhorn)
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


def train_epochs(
    params: dict[str, np.ndarray],
    count: int,
    seed: int,
    epochs: int,
    batch_size: int,
    step: Callable[[np.ndarray, int, int], StepRecord],
    score: Callable[[list[StepRecord]], float | None],
    out_dir: str | Path | None,
    log_names: tuple[str, str, str],
    end_epoch: Callable[[int, int, float | None, bool], bool] = lambda *_: False,
) -> tuple[dict[str, np.ndarray], int, int, list[tuple[int, float]]]:
    """The epoch loop of both training phases; ``step`` trains ``params`` in place.

    Epoch e steps through 0..count-1 in the order ``default_rng((seed, e))``
    permutes them, and ``score`` rates it from its step records, or is
    None. The parameters are copied only after an epoch that scores above
    every earlier one, else the final epoch's are kept; ``end_epoch``
    returns True to stop. With ``out_dir``, the step log (``log_names``:
    file, accuracy column, score column) and val_log.csv are written there
    even when a step raises. Returns the kept parameters, their epoch and
    global step, and the history.
    """
    log = TrainLog(acc_label=log_names[1])
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    history: list[tuple[int, float]] = []
    best, kept, global_step = -np.inf, None, 0
    try:
        for epoch in range(1, epochs + 1):
            order = np.random.default_rng((seed, epoch)).permutation(count)
            records: list[StepRecord] = []
            for start in range(0, count, batch_size):
                global_step += 1
                records.append(step(order[start : start + batch_size], epoch, global_step))
                log.append(records[-1])
            value = score(records)
            improved = value is not None and value > best
            if value is not None:
                history.append((epoch, value))
            if improved:
                best, kept = value, ({k: p.copy() for k, p in params.items()}, epoch, global_step)
            if end_epoch(epoch, global_step, value, improved):
                break
    finally:
        if out_dir is not None:
            log.write_csv(Path(out_dir) / log_names[0])
            write_val_log(Path(out_dir) / "val_log.csv", log_names[2], history)
    return *(kept or (params, epoch, global_step)), history


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
    the per-epoch accuracy in val_log.csv.
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
    state = enc.init(encoder_config, seed=gs)
    adam = nn.adam_init(state.params)

    def train_step(idx: np.ndarray, epoch: int, step: int) -> StepRecord:
        batch = [
            make_pretrain_example(admissible[i], racut_config, config.noise, (gs, epoch, int(i)))
            for i in train_idx[idx]
        ]
        return pretrain_step(state, batch, config, adam, epoch, step)[1]

    def score(records: list[StepRecord]) -> float:
        if val_examples:
            return heldout_accuracy(state, val_examples, config.eval_m)
        return float(np.mean([r.perm_acc for r in records]))

    def end_epoch(epoch: int, step: int, acc: float, improved: bool) -> bool:
        if out_dir is not None:
            ckpt = checkpoint_from_encoder(state, {"global_seed": gs, "epoch": epoch, "step": step})
            save_checkpoint(ckpt, Path(out_dir) / f"epoch_{epoch:04d}.ckpt")
            if improved:
                save_checkpoint(ckpt, Path(out_dir) / "best.ckpt")
        if config.stop_accuracy is None or acc < config.stop_accuracy:
            return False
        logger.info("early stop at epoch %d: %s %.4f", epoch, val_label, acc)
        return True

    params, epoch, step, history = train_epochs(
        state.params, len(train_idx), gs, config.epochs, config.batch_size, train_step, score,
        out_dir, ("train_log.csv", "perm_acc", val_label), end_epoch,
    )
    best = enc.EncoderState(encoder_config, params)
    provenance = {"global_seed": gs, "epoch": epoch, "step": step}
    return PretrainResult(checkpoint_from_encoder(best, provenance), history, epoch, val_label)
