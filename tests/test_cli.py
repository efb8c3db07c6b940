"""End-to-end command-line behavior on tiny corpora."""

import hashlib
import json
import re
import shlex
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from seqreorder import nn
from seqreorder.cli import _GEOMETRY_FLAGS, _run_config, build_parser, main
from seqreorder.config import RunConfig
from seqreorder.gradcheck import run_gradcheck
from seqreorder.artifacts import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_checkpoint, save_checkpoint
from seqreorder.corpus import write_dataset
from seqreorder.errors import CheckpointError
from seqreorder.pretrain import encoder_state_from_checkpoint
from seqreorder.synthetic import interaction_corpus, motif_sequences, write_sequence_tsv

TINY_ENCODER = [
    "--n", "4", "--l-max", "48",
    "--embed-dim", "16", "--layers", "1", "--heads", "2", "--ffn-dim", "32",
]
TINY_HEAD = [
    "--fusion-dim", "16", "--comp-layers", "1", "--comp-heads", "2", "--comp-ffn-dim", "32",
]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    pairs = interaction_corpus(num_proteins=40, num_compounds=40, num_pairs=120, seed=7)
    write_dataset(root / "pairs.tsv", pairs.rows)
    write_sequence_tsv(root / "seqs.tsv", motif_sequences(num_sequences=30, seed=7))
    return root


@pytest.fixture(scope="module")
def split_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("split")
    assert main(["split", "--data", str(corpus_dir / "pairs.tsv"), "--seed", "7", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def pretrain_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("pretrain")
    code = main(
        ["pretrain", "--proteins", str(corpus_dir / "seqs.tsv"), "--seed", "7",
         "--out", str(out), "--epochs", "2", "--batch-size", "8", "--lr", "1e-3"]
        + TINY_ENCODER
    )
    assert code == 0
    return out


def test_split_writes_six_tsvs_and_manifest(split_dir):
    names = [
        "train.tsv", "valid.tsv", "test_seen_both.tsv", "test_unseen_comp.tsv",
        "test_unseen_prot.tsv", "test_unseen_both.tsv",
    ]
    for name in names:
        assert (split_dir / name).exists()
    manifest = json.loads((split_dir / "split_manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["counts"]["train"] > 0
    total = sum(manifest["counts"].values())
    assert total == 120
    assert (split_dir / "vocab.tsv").exists()


def test_split_rerun_is_byte_identical(corpus_dir, split_dir, tmp_path):
    assert main(["split", "--data", str(corpus_dir / "pairs.tsv"), "--seed", "7", "--out", str(tmp_path)]) == 0
    for name in ("split_manifest.json", "train.tsv", "test_unseen_both.tsv", "run_meta.json"):
        assert (tmp_path / name).read_bytes() == (split_dir / name).read_bytes()


def test_split_missing_input_fails(tmp_path, capsys):
    code = main(["split", "--data", str(tmp_path / "nope.tsv"), "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["split", "synth", "undecodable"])
def test_input_errors_are_one_error_line(command, tmp_path, capsys):
    if command == "split":  # a directory where a file is expected
        argv = ["split", "--data", str(tmp_path), "--out", str(tmp_path / "out")]
    elif command == "synth":  # the output's parent is a file
        (tmp_path / "taken").write_text("", encoding="utf-8")
        argv = ["synth", "motif", "--out-file", str(tmp_path / "taken" / "x.tsv"), "--num", "2"]
    else:
        (tmp_path / "latin1.tsv").write_bytes("CCO\tMK\xc9V\t1\n".encode("latin-1"))
        argv = ["split", "--data", str(tmp_path / "latin1.tsv"), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if command == "undecodable":
        assert str(tmp_path / "latin1.tsv") in err and "UTF-8" in err


def test_pretrain_writes_checkpoints_and_log(pretrain_dir):
    assert (pretrain_dir / "best.ckpt").exists()
    assert (pretrain_dir / "epoch_0001.ckpt").exists()
    assert (pretrain_dir / "epoch_0002.ckpt").exists()
    log = (pretrain_dir / "train_log.csv").read_text().splitlines()
    assert log[0] == "epoch,step,loss,perm_acc,wall_ms"
    assert len(log) > 1
    meta = json.loads((pretrain_dir / "run_meta.json").read_text())
    assert meta["seed"] == 7
    assert meta["config"]["n"] == 4


@pytest.mark.parametrize("value", ["nan", "1.5", "-0.5"])
def test_stop_accuracy_outside_the_unit_interval_is_an_error_line(value, corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["pretrain", "--proteins", str(corpus_dir / "seqs.tsv"), "--out", str(out),
                 "--epochs", "2", "--stop-accuracy", value] + TINY_ENCODER)
    assert code == 1
    assert capsys.readouterr().err == f"error: stop_accuracy must be in [0, 1], got {float(value)}\n"
    assert not out.exists()


def test_run_meta_records_the_stop_accuracy(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["pretrain", "--proteins", str(corpus_dir / "seqs.tsv"), "--out", str(out),
                 "--epochs", "2", "--batch-size", "8", "--stop-accuracy", "0.25"] + TINY_ENCODER) == 0
    assert json.loads((out / "run_meta.json").read_text())["stop_accuracy"] == 0.25


def test_pretrain_names_the_source_of_its_accuracy(corpus_dir, tmp_path, capsys):
    held_out = tmp_path / "held_out"
    args = ["--seed", "7", "--epochs", "1", "--batch-size", "8"] + TINY_ENCODER
    assert main(["pretrain", "--proteins", str(corpus_dir / "seqs.tsv"), "--out", str(held_out)] + args) == 0
    assert "held-out accuracy" in capsys.readouterr().out
    assert (held_out / "val_log.csv").read_text().startswith("epoch,heldout_acc\n")
    # one protein leaves nothing to hold out
    write_sequence_tsv(tmp_path / "one.tsv", motif_sequences(num_sequences=1, seed=7))
    alone = tmp_path / "alone"
    assert main(["pretrain", "--proteins", str(tmp_path / "one.tsv"), "--out", str(alone)] + args) == 0
    printed = capsys.readouterr().out
    assert "training accuracy (nothing held out)" in printed and "held-out" not in printed
    assert (alone / "val_log.csv").read_text().startswith("epoch,train_acc\n")


def test_pretrain_rejects_zero_epochs(corpus_dir, tmp_path, capsys):
    code = main(
        ["pretrain", "--proteins", str(corpus_dir / "seqs.tsv"), "--out", str(tmp_path),
         "--epochs", "0"] + TINY_ENCODER
    )
    assert code == 1
    assert "epochs" in capsys.readouterr().err


def test_pretrain_protein_list_names_the_bad_line(tmp_path, capsys):
    proteins = tmp_path / "proteins.tsv"
    proteins.write_text("p1\tMKVLAAGHKL\n\nMKVLAAGHKL\np4\t\tjunk\n")
    code = main(["pretrain", "--proteins", str(proteins), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"{proteins} line 4: protein sequence is empty" in capsys.readouterr().err


def test_pretrain_protein_list_rejects_an_id_with_no_sequence(tmp_path, capsys):
    proteins = tmp_path / "proteins.tsv"
    proteins.write_text("p1\tMKVLAAGHKL\np5\t\n")
    code = main(["pretrain", "--proteins", str(proteins), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"{proteins} line 2: protein sequence is empty" in capsys.readouterr().err


def test_pretrain_requires_exactly_one_source(corpus_dir, tmp_path, capsys):
    code = main(["pretrain", "--out", str(tmp_path)])
    assert code == 1
    code = main(
        ["pretrain", "--data", str(corpus_dir / "pairs.tsv"),
         "--proteins", str(corpus_dir / "seqs.tsv"), "--out", str(tmp_path)]
    )
    assert code == 1


def _finetune(split_dir, out, extra):
    return main(
        ["finetune",
         "--train", str(split_dir / "train.tsv"),
         "--valid", str(split_dir / "valid.tsv"),
         "--test", f"seen_both={split_dir / 'test_seen_both.tsv'}",
         "--out", str(out), "--seed", "7",
         "--epochs", "2", "--batch-size", "16", "--lr", "1e-3", "--l-max", "48"]
        + TINY_HEAD + extra
    )


def test_finetune_random_init(split_dir, tmp_path):
    code = _finetune(split_dir, tmp_path, ["--random-init"] + TINY_ENCODER)
    assert code == 0
    assert (tmp_path / "cpi.ckpt").exists()
    pred = (tmp_path / "predictions_seen_both.csv").read_text().splitlines()
    assert pred[0] == "pair_id,score,label"
    n_pairs = len((split_dir / "test_seen_both.tsv").read_text().splitlines())
    assert len(pred) == n_pairs + 1
    assert pred[1].startswith("seen_both-000000,")


def test_finetune_from_checkpoint(split_dir, pretrain_dir, tmp_path):
    code = _finetune(
        split_dir, tmp_path, ["--checkpoint", str(pretrain_dir / "best.ckpt")]
    )
    assert code == 0
    scores = [
        float(row.split(",")[1])
        for row in (tmp_path / "predictions_seen_both.csv").read_text().splitlines()[1:]
    ]
    assert all(0.0 < s < 1.0 for s in scores)


@pytest.mark.parametrize("with_valid", [True, False], ids=["valid", "no-valid"])
def test_cpi_checkpoint_records_the_last_step_of_the_selected_epoch(split_dir, tmp_path, with_valid):
    valid = ["--valid", str(split_dir / "valid.tsv")] if with_valid else []
    code = main(
        ["finetune", "--train", str(split_dir / "train.tsv"), *valid, "--random-init",
         "--out", str(tmp_path), "--seed", "7", "--epochs", "3", "--batch-size", "16"]
        + TINY_HEAD + TINY_ENCODER
    )
    assert code == 0
    provenance = load_checkpoint(tmp_path / "cpi.ckpt").provenance
    rows = (tmp_path / "finetune_log.csv").read_text().splitlines()[1:]
    last_step = {int(row.split(",")[0]): int(row.split(",")[1]) for row in rows}
    assert provenance["step"] == last_step[provenance["epoch"]] > 0


def test_finetune_rejects_mismatched_geometry(split_dir, pretrain_dir, tmp_path, capsys):
    code = _finetune(
        split_dir, tmp_path,
        ["--checkpoint", str(pretrain_dir / "best.ckpt"), "--embed-dim", "64"],
    )
    assert code == 1
    assert "shape" in capsys.readouterr().err.lower()


def _edited_checkpoint(pretrain_dir, path, edit):
    ckpt = load_checkpoint(pretrain_dir / "best.ckpt")
    params = dict(ckpt.params)
    edit(params)
    save_checkpoint(replace(ckpt, params=params), path)
    return path


# an older version's checkpoint had a key bias and a final-layernorm bias;
# a truncated export would miss a parameter
@pytest.mark.parametrize(
    "edit,key",
    [
        (lambda p: p.update({"head.b": np.zeros(4)}), "head.b"),
        (lambda p: p.pop("ln_f.gamma"), "ln_f.gamma"),
    ],
    ids=["extra", "missing"],
)
def test_checkpoint_whose_parameters_do_not_match_its_config_is_an_error_line(
    split_dir, pretrain_dir, corpus_dir, tmp_path, capsys, edit, key
):
    ckpt = _edited_checkpoint(pretrain_dir, tmp_path / "edited.ckpt", edit)
    assert _finetune(split_dir, tmp_path / "ft", ["--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert not (tmp_path / "ft" / "cpi.ckpt").exists()
    code = main(
        ["export-embeddings", "--checkpoint", str(ckpt),
         "--proteins", str(corpus_dir / "seqs.tsv"), "--out", str(tmp_path / "emb")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err


def _sealed(header, body=b"", header_len=None):
    """Checkpoint bytes with a valid SHA-256 trailer around any header bytes."""
    raw = CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
    raw += struct.pack("<Q", len(header) if header_len is None else header_len) + header + body
    return raw + hashlib.sha256(raw).digest()


def _header(**fields):
    """A header of one (2,) array as JSON bytes; a field given as None is left out."""
    base = {"section": "encoder", "config": {}, "provenance": {}, "arrays": [{"key": "a", "shape": [2]}]}
    return json.dumps({k: v for k, v in {**base, **fields}.items() if v is not None}).encode()


def _unknown_config_key(pretrain_dir):
    ckpt = load_checkpoint(pretrain_dir / "best.ckpt")
    return replace(ckpt, config={**ckpt.config, "bogus": 1})


def _missing_config_key(pretrain_dir):
    # the default head count gives every parameter the same shape
    ckpt = load_checkpoint(pretrain_dir / "best.ckpt")
    return replace(ckpt, config={k: v for k, v in ckpt.config.items() if k != "heads"})


# each file's checksum holds, so only the header's own checks can refuse it
MALFORMED_CHECKPOINTS = {
    "header-past-end": (lambda d: _sealed(_header(), bytes(16), header_len=10**6), "runs past the end"),
    "not-utf8": (lambda d: _sealed(b"\xff\xfe{}", bytes(16)), "not UTF-8 JSON"),
    "not-json": (lambda d: _sealed(b"{section: encoder}", bytes(16)), "not UTF-8 JSON"),
    "json-list": (lambda d: _sealed(b"[1, 2]", bytes(16)), "not an object"),
    "no-arrays": (lambda d: _sealed(_header(arrays=None), bytes(16)), "not an object"),
    "array-past-body": (lambda d: _sealed(_header(), bytes(8)), "array 'a' runs past the end"),
    "unknown-config-key": (_unknown_config_key, "EncoderConfig does not fit: .*'bogus'"),
    "missing-config-key": (_missing_config_key, r"EncoderConfig lacks keys \['heads'\]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_is_an_error_line(
    case, split_dir, pretrain_dir, corpus_dir, tmp_path, capsys
):
    make, match = MALFORMED_CHECKPOINTS[case]
    path = tmp_path / "bad.ckpt"
    made = make(pretrain_dir)
    if isinstance(made, bytes):
        path.write_bytes(made)
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: .*{match}"):
            load_checkpoint(path)
    else:
        save_checkpoint(made, path)
        with pytest.raises(CheckpointError, match=match):
            encoder_state_from_checkpoint(load_checkpoint(path))
    for command in ["finetune", "export-embeddings"]:
        out = tmp_path / command
        if command == "finetune":
            code = _finetune(split_dir, out, ["--checkpoint", str(path)])
        else:
            argv = ["export-embeddings", "--checkpoint", str(path),
                    "--proteins", str(corpus_dir / "seqs.tsv"), "--out", str(out)]
            code = main(argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(match, err)
        assert not out.exists()


@pytest.mark.parametrize("command", ["finetune", "export-embeddings"])
def test_run_meta_records_the_checkpoint_geometry(
    command, split_dir, pretrain_dir, corpus_dir, tmp_path
):
    ckpt = pretrain_dir / "best.ckpt"
    out = tmp_path / "out"
    if command == "finetune":
        assert _finetune(split_dir, out, ["--checkpoint", str(ckpt)]) == 0
    else:
        argv = ["export-embeddings", "--checkpoint", str(ckpt),
                "--proteins", str(corpus_dir / "seqs.tsv"), "--out", str(out)]
        assert main(argv) == 0
    recorded = json.loads((out / "run_meta.json").read_text())["config"]
    stored = load_checkpoint(ckpt).config
    assert {k: recorded[k] for k in _GEOMETRY_FLAGS} == {k: stored[k] for k in _GEOMETRY_FLAGS}
    # the residues the encoder cuts, not the parser's default budget
    assert recorded["l_max"] == stored["n"] * stored["f_max"]


def test_export_embeddings_rejects_mismatched_geometry(pretrain_dir, corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["export-embeddings", "--checkpoint", str(pretrain_dir / "best.ckpt"),
         "--proteins", str(corpus_dir / "seqs.tsv"), "--embed-dim", "64", "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "embed_dim=64" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["finetune", "export-embeddings"])
def test_l_max_other_than_the_checkpoint_cut_is_an_error_line(
    command, split_dir, pretrain_dir, corpus_dir, tmp_path, capsys
):
    out = tmp_path / "out"
    extra = ["--checkpoint", str(pretrain_dir / "best.ckpt"), "--l-max", "1200"]
    if command == "finetune":
        code = _finetune(split_dir, out, extra)
    else:
        argv = ["export-embeddings", "--proteins", str(corpus_dir / "seqs.tsv"), "--out", str(out)]
        code = main(argv + extra)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "l_max=1200" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def pretrain_l_max_50_dir(corpus_dir, tmp_path_factory):
    """A checkpoint pretrained at n=4 and l_max=50: its encoder cuts 4 blocks of 13."""
    out = tmp_path_factory.mktemp("pretrain_l_max_50")
    code = main(
        ["pretrain", "--proteins", str(corpus_dir / "seqs.tsv"), "--seed", "7",
         "--out", str(out), "--epochs", "1", "--batch-size", "8", "--lr", "1e-3",
         "--n", "4", "--l-max", "50"]
        + TINY_ENCODER[4:]
    )
    assert code == 0
    return out


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command", ["finetune", "export-embeddings"])
def test_the_l_max_a_checkpoint_was_pretrained_with_is_accepted(
    command, source, pretrain_l_max_50_dir, split_dir, corpus_dir, tmp_path, capsys
):
    def run(l_max):
        out = tmp_path / f"out_{l_max}"
        if source == "flag":
            given = ["--l-max", str(l_max)]
        else:
            config = tmp_path / f"l_max_{l_max}.json"
            config.write_text(json.dumps({"l_max": l_max}), encoding="utf-8")
            given = ["--config", str(config)]
        if command == "finetune":
            argv = ["finetune", "--train", str(split_dir / "train.tsv"),
                    "--epochs", "1", "--batch-size", "16"] + TINY_HEAD
        else:
            argv = ["export-embeddings", "--proteins", str(corpus_dir / "seqs.tsv")]
        ckpt = ["--checkpoint", str(pretrain_l_max_50_dir / "best.ckpt"), "--out", str(out)]
        return main(argv + ckpt + given), out

    code, out = run(50)
    assert code == 0
    assert json.loads((out / "run_meta.json").read_text())["config"]["l_max"] == 50
    capsys.readouterr()
    # ceil(48 / 4) = 12 blocks of 12, not the checkpoint's 13
    code, out = run(48)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "l_max=48" in err
    assert not out.exists()


def test_run_meta_records_the_blas_thread_count(split_dir):
    assert nn.BLAS_THREADS in (1, None)  # the pin took wherever the count is known
    meta = json.loads((split_dir / "run_meta.json").read_text())
    assert meta["blas_threads"] == nn.BLAS_THREADS
    assert nn.WORKERS in (1, 2)
    assert meta["workers"] == nn.WORKERS


@pytest.mark.parametrize("command", ["finetune", "export-embeddings"])
def test_config_file_geometry_must_match_the_checkpoint(
    command, split_dir, pretrain_dir, corpus_dir, tmp_path, capsys
):
    ckpt = pretrain_dir / "best.ckpt"

    def run(embed_dim):
        config = tmp_path / f"embed_{embed_dim}.json"
        config.write_text(json.dumps({"embed_dim": embed_dim}), encoding="utf-8")
        out = tmp_path / f"out_{embed_dim}"
        extra = ["--checkpoint", str(ckpt), "--config", str(config)]
        if command == "finetune":
            return _finetune(split_dir, out, extra), out
        argv = ["export-embeddings", "--proteins", str(corpus_dir / "seqs.tsv"), "--out", str(out)]
        return main(argv + extra), out

    code, out = run(64)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "embed_dim=64" in err
    assert not out.exists()
    code, out = run(load_checkpoint(ckpt).config["embed_dim"])
    assert code == 0 and (out / "run_meta.json").exists()


def test_finetune_rejects_a_single_label_valid_file_before_training(
    split_dir, tmp_path, capsys, monkeypatch
):
    def no_training(*args, **kwargs):
        raise AssertionError("fine-tuning started with a single-label validation file")

    monkeypatch.setattr("seqreorder.cpi.finetune_run", no_training)
    rows = (split_dir / "train.tsv").read_text().splitlines()
    negatives = tmp_path / "negatives.tsv"
    negatives.write_text("\n".join(r for r in rows if r.endswith("\t0")) + "\n")
    out = tmp_path / "out"
    code = main(
        ["finetune", "--random-init", "--train", str(split_dir / "train.tsv"),
         "--valid", str(negatives), "--out", str(out)] + TINY_ENCODER + TINY_HEAD
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(negatives) in err
    assert not out.exists()


def test_finetune_requires_encoder_choice(split_dir, tmp_path):
    assert _finetune(split_dir, tmp_path, []) == 1


# "seen_both={path}" repeats the name _finetune already gives; a name
# becomes a file name and a prefix of CSV pair ids
@pytest.mark.parametrize(
    "spec",
    ["seen_both", "missing=/nonexistent/test.tsv", "seen_both={path}", "={path}", "runs/a={path}",
     "a,b={path}"],
)
def test_finetune_rejects_a_bad_test_set_before_training(split_dir, tmp_path, capsys, spec, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("fine-tuning started before the test sets were read")

    monkeypatch.setattr("seqreorder.cpi.finetune_run", no_training)
    spec = spec.format(path=split_dir / "test_seen_both.tsv")
    code = _finetune(split_dir, tmp_path, ["--random-init", "--test", spec] + TINY_ENCODER)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "cpi.ckpt").exists()


def test_evaluate_aggregates_runs(split_dir, pretrain_dir, tmp_path):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert _finetune(split_dir, run_a, ["--random-init"] + TINY_ENCODER) == 0
    assert _finetune(split_dir, run_b, ["--checkpoint", str(pretrain_dir / "best.ckpt")]) == 0
    out = tmp_path / "report"
    code = main(
        ["evaluate", "--run", str(run_a), "--run", str(run_b),
         "--dataset-name", "toy", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["dataset"] == "toy"
    assert report["seed_count"] == 2
    assert "seen_both" in report["partitions"]
    assert (out / "seen_both_roc_seed0.csv").exists()
    assert (out / "seen_both_pr_seed1.csv").exists()


def test_evaluate_rejects_malformed_row(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "predictions_seen_both.csv").write_text(
        "pair_id,score,label\na-0,0.5,1\na-1,not_a_number,0\n"
    )
    code = main(["evaluate", "--run", str(run), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


def test_evaluate_rejects_empty_run_dir(tmp_path):
    run = tmp_path / "empty"
    run.mkdir()
    assert main(["evaluate", "--run", str(run), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["split", "--data", "{tmp}/nope.tsv"],
        ["pretrain"],
        ["pretrain", "--data", "{corpus}/pairs.tsv", "--proteins", "{corpus}/seqs.tsv"],
        ["finetune", "--random-init", "--train", "{corpus}/pairs.tsv", "--test", "={corpus}/pairs.tsv"],
        ["evaluate", "--run", "{tmp}"],
        ["export-embeddings", "--checkpoint", "{tmp}/nope.ckpt", "--proteins", "{corpus}/seqs.tsv"],
        ["pretrain", "--proteins", "{corpus}/seqs.tsv", "--eval-m", "-1"] + TINY_ENCODER,
    ],
    ids=[
        "split", "pretrain-no-source", "pretrain-two-sources", "finetune", "evaluate", "export",
        "pretrain-eval-m",
    ],
)
def test_rejected_command_leaves_no_out_dir(argv, corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path, corpus=corpus_dir) for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_gradcheck_passes_on_every_seed():
    # the model parameters whose only gradient was rounding noise made
    # gradcheck pass on 18 of these 30 seeds
    failed = {
        seed: [(r.name, r.max_rel_err) for r in run_gradcheck(seed=seed) if not r.passed]
        for seed in range(30)
    }
    assert {seed: f for seed, f in failed.items() if f} == {}


def test_gradcheck_detects_planted_error():
    reports = run_gradcheck(seed=0, perturb=1e-3)
    assert any(not r.passed for r in reports)


def test_export_embeddings(pretrain_dir, corpus_dir, tmp_path):
    # one protein is too short to segment and two are empty (one of them an
    # id with a trailing tab): all are skipped, not fatal; a bare sequence
    # is named by its line number
    seqs = (corpus_dir / "seqs.tsv").read_text()
    mixed = tmp_path / "mixed.tsv"
    first_seq = seqs.splitlines()[0].split("\t")[1]
    mixed.write_text(seqs + "tiny\tMK\n\nempty\t\tjunk\n" + first_seq + "\nnoseq\t\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = main(
            ["export-embeddings", "--checkpoint", str(pretrain_dir / "best.ckpt"),
             "--proteins", str(mixed), "--out", str(out)]
        )
        assert code == 0
    emb = (out_a / "embeddings.tsv").read_text().splitlines()
    assert len(emb) == 31
    assert emb[-1].split("\t")[0] == "row34"
    np.testing.assert_allclose(
        np.array(emb[-1].split("\t")[1:], dtype=float),
        np.array(emb[0].split("\t")[1:], dtype=float),
        rtol=1e-12,
    )
    assert (out_a / "embeddings.tsv").read_bytes() == (out_b / "embeddings.tsv").read_bytes()
    skipped = (out_a / "skipped.log").read_text().splitlines()
    assert [line.split("\t")[0] for line in skipped] == ["tiny", "empty", "noseq"]


def test_synth_commands(tmp_path):
    motif_out = tmp_path / "m.tsv"
    assert main(["synth", "motif", "--out-file", str(motif_out), "--num", "10"]) == 0
    assert len(motif_out.read_text().splitlines()) == 10
    cpi_out = tmp_path / "c.tsv"
    assert main(
        ["synth", "cpi", "--out-file", str(cpi_out),
         "--num-proteins", "10", "--num-compounds", "10", "--num-pairs", "25"]
    ) == 0
    rows = cpi_out.read_text().splitlines()
    assert len(rows) == 25
    assert all(len(r.split("\t")) == 3 for r in rows)


@pytest.mark.parametrize(
    "argv,name",
    [
        (["motif", "--block-len", "0"], "block_len"),
        (["motif", "--block-len", "-3"], "block_len"),
        (["cpi", "--num-pairs", "-1"], "num_pairs"),
    ],
    ids=["block-len-0", "block-len-negative", "num-pairs-negative"],
)
def test_synth_size_out_of_range_is_an_error_line(argv, name, tmp_path, capsys):
    out_file = tmp_path / "new" / "sub" / "out.tsv"
    assert main(["synth", argv[0], "--out-file", str(out_file)] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {name} must be >= [01], got {argv[-1]}\n", err)
    assert list(tmp_path.iterdir()) == []


def _parse_config(argv):
    return _run_config(build_parser().parse_args(["evaluate", "--run", "r"] + argv))


@pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
def test_every_run_config_field_has_a_typed_flag(field):
    value = {int: 7, float: 0.125}[type(field.default)]
    rc = _parse_config([f"--{field.name.replace('_', '-')}", str(value)])
    assert getattr(rc, field.name) == value
    assert type(getattr(rc, field.name)) is type(field.default)


FLOAT_FIELDS = [f.name for f in fields(RunConfig) if type(f.default) is float]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_float_flag_is_an_error_line(name, value, corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["split", "--data", str(corpus_dir / "pairs.tsv"), "--out", str(out),
                 f"--{name.replace('_', '-')}", value])
    assert code == 1
    assert capsys.readouterr().err == f"error: config key {name!r} must be finite, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
def test_every_run_config_field_reaches_a_module_config(field):
    # a field that no module config takes by name any more changes nothing here
    def built(rc):
        return rc.encoder(), rc.pretrain(), rc.cpi(), rc.finetune(), rc.racut(), rc.ratios()

    rc = RunConfig()
    changed = rc.with_overrides({field.name: field.default * 2 or 1})
    assert built(changed) != built(rc)


def test_config_file_seed_holds_without_a_seed_flag(corpus_dir, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 7}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["split", "--data", str(corpus_dir / "pairs.tsv"), "--config", str(path),
                 "--out", str(out)]) == 0
    assert json.loads((out / "run_meta.json").read_text())["seed"] == 7


def test_explicit_flag_beats_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"epochs": 3, "lr": 0.5}), encoding="utf-8")
    rc = _parse_config(["--config", str(path), "--epochs", "9", "--seed", "4"])
    assert (rc.epochs, rc.lr, rc.seed) == (9, 0.5, 4)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"epochs": 3', "not valid JSON"),
        ("[1, 2]", "expected a JSON object"),
        ('{"epochs": "3"}', "'epochs' must be int"),
        ('{"epochs": true}', "'epochs' must be int"),
        ('{"lr": "fast"}', "'lr' must be float"),
        ('{"lr": NaN}', "'lr' must be finite, got nan"),
        ('{"epoch": 3}', "unknown config keys"),
    ],
    ids=["bad-json", "not-an-object", "str-for-int", "bool-for-int", "str-for-float",
         "nan-for-float", "unknown-key"],
)
def test_bad_config_file_is_an_error_line(corpus_dir, tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    code = main(
        ["split", "--data", str(corpus_dir / "pairs.tsv"), "--config", str(path),
         "--out", str(tmp_path / "out")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and message in err


def test_int_in_config_file_is_stored_like_the_float_flag(corpus_dir, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lr": 1, "weight_decay": 0}), encoding="utf-8")
    split = ["split", "--data", str(corpus_dir / "pairs.tsv")]
    assert main(split + ["--config", str(path), "--out", str(tmp_path / "file")]) == 0
    flags = ["--lr", "1", "--weight-decay", "0", "--out", str(tmp_path / "flag")]
    assert main(split + flags) == 0
    from_file = (tmp_path / "file" / "run_meta.json").read_bytes()
    assert from_file == (tmp_path / "flag" / "run_meta.json").read_bytes()
    assert json.loads(from_file)["config"]["lr"] == 1.0
    assert b'"lr": 1.0' in from_file



def _readme_commands() -> list[list[str]]:
    """The argument lists of the ``seqreorder`` commands in the README walkthrough."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    walkthrough = readme.split("## Command-line walkthrough", 1)[1]
    block = walkthrough.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("seqreorder ")]


def test_readme_walkthrough_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "synth", "split", "pretrain", "finetune", "evaluate", "export-embeddings"
    }
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # an unknown or renamed flag exits here
