"""Training steps, the run loop, and the checkpoint container."""

import hashlib
import struct
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from seqreorder import encoder as enc
from seqreorder import cpi, nn
from seqreorder import pretrain as pretrain_mod
from seqreorder.augment import NoiseSpec, RAcutConfig, make_pretrain_example
from seqreorder.corpus import (
    CANONICAL_RESIDUES,
    InteractionRecord,
    PretrainDataset,
    encode_protein,
    encode_smiles,
)
from seqreorder.encoder import EncoderConfig
from seqreorder.errors import CheckpointError, NumericError, ValidationError
from seqreorder import perm
from seqreorder.perm import SinkhornConfig
from seqreorder.artifacts import StepRecord, TrainLog, load_checkpoint, save_checkpoint
from seqreorder.pretrain import (
    PretrainConfig,
    checkpoint_from_encoder,
    encoder_state_from_checkpoint,
    heldout_accuracy,
    pretrain_run,
    pretrain_step,
)

TINY = EncoderConfig(embed_dim=8, layers=1, heads=2, ffn_dim=16, n=3, f_max=4)
CUT = RAcutConfig(n=3, l_max=12)
NOISE = NoiseSpec(kind="mask", mask_prob=0.15)


def _protein(length, offset=0):
    letters = CANONICAL_RESIDUES[:20]
    return encode_protein("".join(letters[(offset + i) % 20] for i in range(length)))


def _examples(count, length=12):
    return [
        make_pretrain_example(_protein(length, offset=i), CUT, NOISE, seed=(0, 1, i))
        for i in range(count)
    ]


def _config(**kwargs):
    defaults = dict(
        epochs=1,
        lr=1e-3,
        batch_size=4,
        weight_decay=0.0,
        sinkhorn=SinkhornConfig(m=3),
        global_seed=0,
        valid_fraction=0.25,
        eval_m=10,
    )
    defaults.update(kwargs)
    return PretrainConfig(**defaults)


def test_step_with_zero_lr_keeps_params():
    state = enc.init(TINY, seed=0)
    before = {k: v.copy() for k, v in state.params.items()}
    adam = nn.adam_init(state.params)
    config = _config(lr=0.0)
    state, record = pretrain_step(state, _examples(4), config, adam)
    for key in state.params:
        np.testing.assert_array_equal(state.params[key], before[key])
    assert record.loss >= 0.0
    assert 0.0 <= record.perm_acc <= 1.0


def test_step_reduces_loss_on_repeated_batch():
    state = enc.init(TINY, seed=0)
    adam = nn.adam_init(state.params)
    batch = _examples(4)
    config = _config(lr=3e-3)
    _, first = pretrain_step(state, batch, config, adam)
    last = first
    for step in range(1, 50):
        _, last = pretrain_step(state, batch, config, adam, step=step)
    assert last.loss < 0.5 * first.loss


def test_step_is_deterministic():
    records = []
    for _ in range(2):
        state = enc.init(TINY, seed=0)
        adam = nn.adam_init(state.params)
        _, rec = pretrain_step(state, _examples(4), _config(), adam)
        records.append((rec.loss, rec.perm_acc, state))
    assert records[0][0] == records[1][0]
    assert records[0][1] == records[1][1]
    for key in records[0][2].params:
        np.testing.assert_array_equal(
            records[0][2].params[key], records[1][2].params[key]
        )


def test_step_matches_a_per_example_projection():
    # reference: Sinkhorn, loss and VJP one score matrix at a time, in the
    # step's two micro-batches (the first two examples and the last two),
    # gradients summed in order
    config = _config(lr=1e-2, weight_decay=1e-3)
    batch = [
        make_pretrain_example(_protein(length, offset=i), CUT, NOISE, seed=(0, 1, i))
        for i, length in enumerate((12, 5, 9, 7))
    ]
    ref = enc.init(TINY, seed=0)
    ref_adam = nn.adam_init(ref.params)
    losses, accs, grads = [], [], {}
    for part in (batch[:2], batch[2:]):
        blocks = np.stack([ex.shuffled.blocks for ex in part])
        lengths = np.stack([ex.shuffled.true_lengths for ex in part])
        _, logits, cache = enc._forward_core(ref, blocks, lengths)
        dlogits = np.empty_like(logits)
        for i, ex in enumerate(part):
            log_q = perm.sinkhorn(logits[i], config.sinkhorn)
            loss, dlog_q = perm.reorder_loss_grad(ex.target, log_q)
            dlogits[i] = perm.sinkhorn_backward(logits[i], config.sinkhorn, dlog_q) / len(batch)
            losses.append(loss)
            accs.append(perm.permutation_accuracy(perm.round_to_permutation(np.exp(log_q)), ex.target))
        for key, g in enc._backward_core(ref, cache, dlogits).items():
            grads[key] = grads[key] + g if key in grads else g
    want_loss = float(np.mean(losses) + nn.l2_penalty(ref.params, config.weight_decay))
    nn.adam_step(
        ref.params, grads, ref_adam, lr=config.lr, weight_decay=config.weight_decay
    )

    state = enc.init(TINY, seed=0)
    state, rec = pretrain_step(state, batch, config, nn.adam_init(state.params))
    assert rec.loss == want_loss
    assert rec.perm_acc == float(np.mean(accs))
    for key in ref.params:
        np.testing.assert_array_equal(state.params[key], ref.params[key])


def _one_call_objective(state, batch, sinkhorn):
    """The objective as one forward and backward over the whole batch."""
    blocks = np.stack([ex.shuffled.blocks for ex in batch])
    lengths = np.stack([ex.shuffled.true_lengths for ex in batch])
    _, logits, cache = enc._forward_core(state, blocks, lengths)
    log_q = perm.sinkhorn(logits, sinkhorn)
    dlog_q = np.empty_like(log_q)
    losses = np.empty(len(batch))
    for i, ex in enumerate(batch):
        losses[i], dlog_q[i] = perm.reorder_loss_grad(ex.target, log_q[i])
    dlogits = perm.sinkhorn_backward(logits, sinkhorn, dlog_q) / len(batch)
    return losses, log_q, enc._backward_core(state, cache, dlogits)


def _ragged(lengths):
    return [
        make_pretrain_example(_protein(length, offset=i), CUT, NOISE, seed=(0, 1, i))
        for i, length in enumerate(lengths)
    ]


@pytest.mark.parametrize("lengths", [(12, 5, 9, 7), (12, 7, 12, 9, 3), (9,)])
def test_objective_matches_one_call_over_the_batch(lengths):
    state = enc.init(TINY, seed=0)
    batch = _ragged(lengths)
    sk = SinkhornConfig(m=3)
    losses, log_q, grads, accs = pretrain_mod.objective(state, batch, sk)
    want_losses, want_log_q, want_grads = _one_call_objective(state, batch, sk)
    np.testing.assert_array_equal(losses, want_losses)
    np.testing.assert_array_equal(log_q, want_log_q)
    assert accs == [
        perm.permutation_accuracy(perm.round_to_permutation(q), ex.target)
        for ex, q in zip(batch, np.exp(want_log_q))
    ]
    assert sorted(grads) == sorted(want_grads)
    # a one-example batch is one call; two micro-batches' sum rounds apart
    tol = 0.0 if len(batch) == 1 else 1e-12
    for key, want in want_grads.items():
        assert np.abs(grads[key] - want).max() <= tol * np.abs(want).max(), key


def test_objective_bits_do_not_depend_on_the_worker_count(monkeypatch):
    state = enc.init(TINY, seed=0)
    batch = _ragged((12, 7, 12, 9, 3))
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(nn, "WORKERS", workers)
        results.append(pretrain_mod.objective(state, batch, SinkhornConfig(m=3)))
    (losses, log_q, grads, accs), (more_losses, more_log_q, more_grads, more_accs) = results
    np.testing.assert_array_equal(losses, more_losses)
    np.testing.assert_array_equal(log_q, more_log_q)
    assert accs == more_accs
    assert sorted(grads) == sorted(more_grads)
    for key in grads:
        np.testing.assert_array_equal(grads[key], more_grads[key])


def test_batched_heldout_accuracy_matches_one_at_a_time(monkeypatch):
    state = enc.init(TINY, seed=0)
    adam = nn.adam_init(state.params)
    for _ in range(5):
        state, _ = pretrain_step(state, _examples(4), _config(lr=1e-2), adam)
    # unequal lengths, so every chunk carries batch-tail padding
    examples = [
        make_pretrain_example(_protein(length, offset=i), CUT, NOISE, seed=(0, 0, i))
        for i, length in enumerate((12, 5, 9, 3, 7, 12, 4, 10, 6))
    ]
    sk = SinkhornConfig(m=10)
    one_at_a_time = np.mean(
        [
            perm.permutation_accuracy(
                perm.round_to_permutation(enc.predict_q(state, ex.shuffled, sk)), ex.target
            )
            for ex in examples
        ]
    )
    # one example per forward, four (n * f_max = 12 tokens each), and all
    for budget in (1, 48, 10**6):
        monkeypatch.setattr(enc, "INFER_TOKENS", budget)
        assert heldout_accuracy(state, examples, 10) == one_at_a_time


def test_train_log_rejects_disorder_and_nonfinite():
    log = TrainLog()
    log.append(StepRecord(1, 0, 1.0, 0.0, 1.0))
    with pytest.raises(ValidationError):
        log.append(StepRecord(1, 0, 0.9, 0.0, 1.0))  # duplicate (epoch, step)
    with pytest.raises(NumericError):
        log.append(StepRecord(1, 1, float("nan"), 0.0, 1.0))


def test_train_log_csv_names_its_columns(tmp_path):
    log = TrainLog()
    log.append(StepRecord(1, 0, 1.0, 0.25, 123.4))
    log.write_csv(tmp_path / "log.csv")
    lines = (tmp_path / "log.csv").read_text().splitlines()
    assert lines == ["epoch,step,loss,perm_acc,wall_ms", "1,0,1,0.25,123.400"]


def test_checkpoint_roundtrip(tmp_path):
    state = enc.init(TINY, seed=3)
    ckpt = checkpoint_from_encoder(state, {"global_seed": 3, "epoch": 2, "step": 7})
    path = tmp_path / "enc.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.section == ckpt.section
    assert loaded.config == ckpt.config
    assert loaded.provenance == ckpt.provenance
    for key in ckpt.params:
        np.testing.assert_array_equal(loaded.params[key], ckpt.params[key])
    # a second save of the loaded checkpoint is byte-identical
    path2 = tmp_path / "enc2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_io_holds_the_file_at_most_twice(tmp_path):
    # a save holds the file's bytes once (plus one array's bytes), and a
    # load holds the file once plus the arrays it returns
    config = EncoderConfig(embed_dim=64, layers=2, heads=2, ffn_dim=128, n=3, f_max=4)
    ckpt = checkpoint_from_encoder(enc.init(config, seed=0), {})
    path = tmp_path / "enc.ckpt"
    tracemalloc.start()
    try:
        save_checkpoint(ckpt, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = load_checkpoint(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 500_000
    assert save_peak < 1.5 * size
    assert load_peak < 2.2 * size
    for key in ckpt.params:
        np.testing.assert_array_equal(loaded.params[key], ckpt.params[key])


def test_checkpoint_detects_corruption(tmp_path):
    state = enc.init(TINY, seed=0)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(checkpoint_from_encoder(state, {}), path)
    blob = bytearray(path.read_bytes())
    blob[-40] ^= 0xFF  # flip a bit inside the parameter block
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_detects_truncation(tmp_path):
    state = enc.init(TINY, seed=0)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(checkpoint_from_encoder(state, {}), path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_an_older_format_version(tmp_path):
    # a file of format version 3 carries a log tail in its header, and a
    # cpi file an embed_dim in its head config, which would not build a
    # CpiConfig; it is refused by its version
    path = tmp_path / "enc.ckpt"
    save_checkpoint(checkpoint_from_encoder(enc.init(TINY, seed=0), {}), path)
    body = bytearray(path.read_bytes()[:-32])
    body[4:8] = struct.pack("<I", 3)
    path.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())
    with pytest.raises(CheckpointError, match="version 3 is not supported \\(expected 4\\)"):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_encoder_state_from_checkpoint_config_guard(tmp_path):
    state = enc.init(TINY, seed=0)
    ckpt = checkpoint_from_encoder(state, {})
    restored = encoder_state_from_checkpoint(ckpt)
    assert restored.config == TINY
    # a config whose parameters are not the ones in the file is refused
    other = EncoderConfig(embed_dim=16, layers=1, heads=2, ffn_dim=16, n=3, f_max=4)
    with pytest.raises(CheckpointError):
        encoder_state_from_checkpoint(replace(ckpt, config=asdict(other)))


def test_config_validation():
    with pytest.raises(ValidationError):
        PretrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        PretrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        PretrainConfig(valid_fraction=1.0)
    with pytest.raises(ValidationError, match="^eval_m must be >= 0, got -1$"):
        PretrainConfig(eval_m=-1)
    for outside in (float("nan"), 1.5, -0.1):
        with pytest.raises(ValidationError, match=r"^stop_accuracy must be in \[0, 1\]"):
            PretrainConfig(stop_accuracy=outside)
    assert [PretrainConfig(stop_accuracy=a).stop_accuracy for a in (0.0, 1.0)] == [0.0, 1.0]


def test_run_is_deterministic(tmp_path):
    dataset = PretrainDataset(proteins=[_protein(12, offset=i) for i in range(8)])
    config = _config(epochs=2, batch_size=4)
    a = pretrain_run(dataset, TINY, CUT, config, out_dir=tmp_path / "a")
    b = pretrain_run(dataset, TINY, CUT, config, out_dir=tmp_path / "b")
    assert a.val_history == b.val_history
    assert a.best_epoch == b.best_epoch
    for key in a.best_checkpoint.params:
        np.testing.assert_array_equal(
            a.best_checkpoint.params[key], b.best_checkpoint.params[key]
        )
    assert (tmp_path / "a" / "best.ckpt").read_bytes() == (
        tmp_path / "b" / "best.ckpt"
    ).read_bytes()
    assert (tmp_path / "a" / "train_log.csv").exists()


def test_run_checkpoints_hold_only_the_parameters(tmp_path):
    dataset = PretrainDataset(proteins=[_protein(12, offset=i) for i in range(8)])
    pretrain_run(dataset, TINY, CUT, _config(), out_dir=tmp_path)
    blob = (tmp_path / "epoch_0001.ckpt").read_bytes()
    header_len = struct.unpack("<Q", blob[8:16])[0]
    param_count = sum(p.size for p in enc.init(TINY).params.values())
    assert len(blob) == 16 + header_len + 8 * param_count + 32


def test_run_without_out_dir_copies_only_improving_epochs(tmp_path):
    # the loop copies the parameters after an improving epoch only, so a
    # run holds at most one copy beside the parameters it trains
    epoch_of_step, copied = [], []

    class CountsCopies(np.ndarray):
        def copy(self, order="C"):
            copied.append(epoch_of_step[-1])
            return super().copy(order)

    params = {"w": np.zeros(3).view(CountsCopies)}
    scores = iter([0.2, 0.5, 0.5, 0.4, 0.7, 0.1])

    def step(idx, epoch, global_step):
        epoch_of_step.append(epoch)
        params["w"] += 1.0
        return StepRecord(epoch, global_step, 0.0, 1.0, 0.0)

    kept, epoch, step_no, history = pretrain_mod.train_epochs(
        params, 4, 0, 6, 2, step, lambda records: next(scores), None, ("", "", "")
    )
    assert copied == [1, 2, 5]
    assert (epoch, step_no) == (5, 10)
    assert [value for _, value in history] == [0.2, 0.5, 0.5, 0.4, 0.7, 0.1]
    np.testing.assert_array_equal(kept["w"], np.full(3, 10.0))

    # a run without an output directory selects what the run that writes files does
    dataset = PretrainDataset(proteins=[_protein(12, offset=i) for i in range(12)])
    config = _config(epochs=6, lr=1e-2)
    written = pretrain_run(dataset, TINY, CUT, config, out_dir=tmp_path)
    result = pretrain_run(dataset, TINY, CUT, config)
    best, improving = -np.inf, []
    for epoch, acc in result.val_history:
        if acc > best:
            best = acc
            improving.append(epoch)
    assert 1 < len(improving) < config.epochs  # some epochs improve and some do not
    assert result.val_history == written.val_history
    assert result.best_epoch == written.best_epoch == improving[-1]
    best_ckpt, want = result.best_checkpoint, written.best_checkpoint
    assert best_ckpt.provenance == want.provenance
    assert sorted(best_ckpt.params) == sorted(want.params)
    for key in want.params:
        np.testing.assert_array_equal(best_ckpt.params[key], want.params[key])


def test_run_skips_short_proteins(tmp_path, caplog):
    dataset = PretrainDataset(
        proteins=[_protein(12, offset=i) for i in range(6)] + [_protein(2)]
    )
    result = pretrain_run(dataset, TINY, CUT, _config(), out_dir=tmp_path)
    assert result.best_epoch >= 1
    assert any("skip" in message.lower() for message in caplog.messages)


def test_run_rejects_mismatched_geometry(tmp_path):
    dataset = PretrainDataset(proteins=[_protein(12)])
    with pytest.raises(ValidationError):
        pretrain_run(dataset, TINY, RAcutConfig(n=4, l_max=16), _config(), out_dir=tmp_path)


def test_run_writes_reproducible_val_log(tmp_path):
    dataset = PretrainDataset(proteins=[_protein(12, offset=i) for i in range(8)])
    config = _config(epochs=3, batch_size=4)
    result = pretrain_run(dataset, TINY, CUT, config, out_dir=tmp_path / "a")
    pretrain_run(dataset, TINY, CUT, config, out_dir=tmp_path / "b")
    log = (tmp_path / "a" / "val_log.csv").read_bytes()
    assert log == (tmp_path / "b" / "val_log.csv").read_bytes()
    lines = log.decode().splitlines()
    assert lines[0] == "epoch,heldout_acc"
    assert [(int(e), float(v)) for e, v in (line.split(",") for line in lines[1:])] == (
        result.val_history
    )


def _pretrain_failing_at_epoch_3(tmp_path, monkeypatch):
    dataset = PretrainDataset(proteins=[_protein(12, offset=i) for i in range(8)])
    step = pretrain_mod.pretrain_step

    def fails_at_epoch_3(state, batch, config, adam, epoch=0, step_no=0):
        if epoch == 3:
            raise NumericError(f"non-finite loss at epoch {epoch}")
        return step(state, batch, config, adam, epoch, step_no)

    monkeypatch.setattr(pretrain_mod, "pretrain_step", fails_at_epoch_3)
    pretrain_run(dataset, TINY, CUT, _config(epochs=5, batch_size=4), out_dir=tmp_path)


def _finetune_failing_at_epoch_3(tmp_path, monkeypatch):
    pairs = [
        InteractionRecord(encode_smiles("CCO" if i % 3 else "CCN"), _protein(12, offset=i), i % 2)
        for i in range(12)
    ]
    batch_grads, calls = cpi._batch_grads, []

    def fails_at_epoch_3(model, chunk, cache, lam):
        calls.append(len(chunk))
        if len(calls) > 4:  # 8 pairs in batches of 4: epoch 3 begins at step 5
            raise NumericError("non-finite fine-tune loss at epoch 3")
        return batch_grads(model, chunk, cache, lam)

    monkeypatch.setattr(cpi, "_batch_grads", fails_at_epoch_3)
    config = cpi.CpiConfig(comp_layers=1, comp_heads=2, comp_ffn_dim=16, fusion_dim=6)
    ft = cpi.FinetuneConfig(epochs=5, lr=1e-3, batch_size=4)
    cpi.finetune_run(pairs[:8], pairs[8:], enc.init(TINY), config, ft, out_dir=tmp_path)


@pytest.mark.parametrize(
    "run,step_log",
    [
        (_pretrain_failing_at_epoch_3, "train_log.csv"),
        (_finetune_failing_at_epoch_3, "finetune_log.csv"),
    ],
    ids=["pretrain", "finetune"],
)
def test_logs_survive_a_run_that_raises(tmp_path, monkeypatch, run, step_log):
    with pytest.raises(NumericError):
        run(tmp_path, monkeypatch)
    steps = (tmp_path / step_log).read_text().splitlines()[1:]
    assert sorted({int(line.split(",")[0]) for line in steps}) == [1, 2]
    epochs = (tmp_path / "val_log.csv").read_text().splitlines()[1:]
    assert [int(line.split(",")[0]) for line in epochs] == [1, 2]


@pytest.mark.parametrize(
    "valid_fraction,proteins,label",
    [(0.25, 8, "heldout_acc"), (0.0, 8, "train_acc"), (0.25, 1, "train_acc")],
)
def test_val_log_names_where_its_accuracy_came_from(tmp_path, valid_fraction, proteins, label):
    dataset = PretrainDataset(proteins=[_protein(12, offset=i) for i in range(proteins)])
    config = _config(epochs=2, valid_fraction=valid_fraction)
    result = pretrain_run(dataset, TINY, CUT, config, out_dir=tmp_path)
    assert result.val_label == label
    lines = (tmp_path / "val_log.csv").read_text().splitlines()
    assert lines[0] == f"epoch,{label}"
    assert len(lines) == 1 + len(result.val_history) == 3
    if label == "train_acc":
        # with nothing held out, an epoch's entry is its mean batch accuracy
        per_epoch = {}
        for line in (tmp_path / "train_log.csv").read_text().splitlines()[1:]:
            epoch, _, _, perm_acc, _ = line.split(",")
            per_epoch.setdefault(int(epoch), []).append(float(perm_acc))
        assert result.val_history == [(e, float(np.mean(a))) for e, a in per_epoch.items()]
