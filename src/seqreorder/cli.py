"""Command-line entry points.

Commands: split, pretrain, finetune, evaluate, gradcheck,
export-embeddings, plus synth (the bundled corpus generator). Every
command takes --seed (echoed into every artifact it writes) and --out;
when --out is omitted the output root comes from the SEQREORDER_OUT
environment variable (default ./runs).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import cpi as cpi_mod
from . import encoder as enc
from . import artifacts, evaluation, nn, pretrain, synthetic
from .config import FIELD_TYPES, RunConfig, read_config_file, shared_fields
from .corpus import (
    PretrainDataset,
    encode_protein,
    parse_dataset,
    read_protein_list,
    write_dataset,
    write_vocab_table,
)
from .errors import CheckpointError, SeqReorderError, ValidationError
from .gradcheck import run_gradcheck

logger = logging.getLogger(__name__)

OUT_ROOT_ENV = "SEQREORDER_OUT"

_GEOMETRY_FLAGS = shared_fields(enc.EncoderConfig)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    # every RunConfig field is a --kebab-case flag typed by its default value
    for name, typ in FIELD_TYPES.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None)


def _given(args: argparse.Namespace) -> dict:
    """The config values this run sets: the --config file's, with flags over them."""
    given = read_config_file(args.config) if args.config else {}
    flags = {name: getattr(args, name) for name in FIELD_TYPES}
    given.update({k: v for k, v in flags.items() if v is not None})
    return given


def _run_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig().with_overrides(_given(args))


def _out_dir(args: argparse.Namespace, command: str) -> Path:
    """The command's output directory, created; call it once the inputs are checked."""
    if args.out:
        out = Path(args.out)
    else:
        out = Path(os.environ.get(OUT_ROOT_ENV, "runs")) / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(out: Path, command: str, rc: RunConfig, inputs: dict, **settings) -> None:
    """run_meta.json; ``settings`` are the command's own, outside RunConfig."""
    meta = {"command": command, "seed": rc.seed, "config": asdict(rc), "inputs": inputs, **settings}
    meta["blas_threads"] = nn.BLAS_THREADS
    meta["workers"] = nn.WORKERS
    artifacts.write_json(out / "run_meta.json", meta)


def _checkpoint_encoder(args: argparse.Namespace):
    """The encoder in ``--checkpoint``, and the run config with its geometry.

    The geometry includes ``l_max``: a given budget that the encoder's n
    blocks of f_max cut alike (ceil(l_max / n) == f_max), such as the one
    it was pretrained with, or else n * f_max. A geometry value set by a
    flag or the --config file must equal the checkpoint's.
    """
    given = _given(args)
    state = pretrain.encoder_state_from_checkpoint(artifacts.load_checkpoint(args.checkpoint))
    cfg = state.config
    geometry = {name: getattr(cfg, name) for name in _GEOMETRY_FLAGS}
    l_max = given.get("l_max", 0)
    geometry["l_max"] = l_max if math.ceil(l_max / cfg.n) == cfg.f_max else cfg.n * cfg.f_max
    for name, have in geometry.items():
        if given.get(name, have) != have:
            raise CheckpointError(
                f"checkpoint encoder has {name}={have} but {name}={given[name]} "
                "was requested; a checkpoint fixes its encoder's shape and cut"
            )
    return state, RunConfig().with_overrides({**given, **geometry})


def _read_pairs(path, args: argparse.Namespace, rc: RunConfig):
    return parse_dataset(path, header=args.header, l_max=rc.l_max, max_atoms=rc.max_atoms)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_split(args: argparse.Namespace) -> int:
    rc = _run_config(args)
    records = _read_pairs(args.data, args, rc)
    out = _out_dir(args, "split")
    split = evaluation.split_scenarios(records, rc.ratios(), seed=rc.seed)
    parts = {"train": split.train, "valid": split.valid}
    parts.update({f"test_{name}": split.test_partitions[name] for name in evaluation.PARTITIONS})
    for stem, part in parts.items():
        rows = [(r.compound.smiles, r.protein.raw, r.label) for r in part]
        write_dataset(out / f"{stem}.tsv", rows)
    counts = {stem: len(part) for stem, part in parts.items()}
    manifest = {
        "seed": rc.seed,
        "ratios": list(rc.ratios()),
        "source": Path(args.data).name,
        "counts": counts,
        "files": [f"{stem}.tsv" for stem in parts],
    }
    artifacts.write_json(out / "split_manifest.json", manifest)
    write_vocab_table(out / "vocab.tsv")
    _write_meta(out, "split", rc, {"data": str(args.data)})
    print(f"split {len(records)} pairs -> {counts}")
    return 0


def _load_proteins_file(path: str | Path, l_max: int) -> PretrainDataset:
    proteins = []
    for lineno, _, seq in read_protein_list(path):
        try:
            proteins.append(encode_protein(seq, l_max=l_max))
        except ValidationError as exc:
            raise ValidationError(f"{path} line {lineno}: {exc}") from None
    return PretrainDataset(proteins=proteins)


def cmd_pretrain(args: argparse.Namespace) -> int:
    rc = _run_config(args)
    if bool(args.data) == bool(args.proteins):
        raise ValidationError("give exactly one of --data (pairs TSV) or --proteins")
    if args.data:
        records = _read_pairs(args.data, args, rc)
        dataset = PretrainDataset.from_interactions(records)
        source = str(args.data)
    else:
        dataset = _load_proteins_file(args.proteins, rc.l_max)
        source = str(args.proteins)
    configs = rc.encoder(), rc.racut(), rc.pretrain(stop_accuracy=args.stop_accuracy)
    out = _out_dir(args, "pretrain")
    result = pretrain.pretrain_run(dataset, *configs, out_dir=out)
    write_vocab_table(out / "vocab.tsv")
    _write_meta(
        out, "pretrain", rc, {"source": source, "proteins": len(dataset)},
        stop_accuracy=args.stop_accuracy,
    )
    last_epoch, last_acc = result.val_history[-1]
    if result.val_label == "heldout_acc":
        acc_name = "held-out accuracy"
    else:
        acc_name = "training accuracy (nothing held out)"
    print(
        f"pretrained {last_epoch} epochs on {len(dataset)} proteins; "
        f"best epoch {result.best_epoch}, {acc_name} "
        f"{max(a for _, a in result.val_history):.4f} (final {last_acc:.4f})"
    )
    print(f"best checkpoint: {out / 'best.ckpt'}")
    return 0


def _test_specs(specs: list[str]) -> list[tuple[str, str]]:
    """(name, path) of each ``--test NAME=PATH``.

    A name becomes the file predictions_NAME.csv and the prefix of its
    pair ids, so it must be non-empty, unique, and free of '/', '\\' and ','.
    """
    pairs: dict[str, str] = {}
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep:
            raise ValidationError(f"--test expects NAME=PATH, got {spec!r}")
        if not name or name in pairs or any(c in name for c in "/\\,"):
            raise ValidationError(
                f"--test name {name!r} must be non-empty, unique, and free of '/', '\\' and ','"
            )
        pairs[name] = path
    return list(pairs.items())


def cmd_finetune(args: argparse.Namespace) -> int:
    if bool(args.checkpoint) == bool(args.random_init):
        raise ValidationError("give exactly one of --checkpoint or --random-init")
    if args.checkpoint:
        frozen, rc = _checkpoint_encoder(args)
    else:
        rc = _run_config(args)
        frozen = enc.init(rc.encoder(), seed=rc.seed)

    train = _read_pairs(args.train, args, rc)
    valid = _read_pairs(args.valid, args, rc) if args.valid else []
    if len({r.label for r in valid}) == 1:
        raise ValidationError(
            f"{args.valid}: every pair has label {valid[0].label}; "
            "the validation AUROC needs both labels"
        )
    # test sets are read before training, so a bad one fails at once
    tests = [(name, _read_pairs(path, args, rc)) for name, path in _test_specs(args.test or [])]
    out = _out_dir(args, "finetune")
    result = cpi_mod.finetune_run(train, valid, frozen, rc.cpi(), rc.finetune(), out_dir=out)
    ckpt_out = cpi_mod.checkpoint_from_cpi(
        result.model,
        {"global_seed": rc.seed, "epoch": result.selected_epoch, "step": result.selected_step},
    )
    artifacts.save_checkpoint(ckpt_out, out / "cpi.ckpt")

    cache = cpi_mod.build_protein_cache(result.model, train + list(valid))
    for name, records in tests:
        cpi_mod.build_protein_cache(result.model, records, cache)
        scores = cpi_mod.predict_pairs(result.model, records, cache)
        artifacts.write_predictions(
            out / f"predictions_{name}.csv",
            [f"{name}-{i:06d}" for i in range(len(records))],
            scores,
            [r.label for r in records],
        )
    _write_meta(
        out,
        "finetune",
        rc,
        {
            "train": str(args.train),
            "valid": str(args.valid) if args.valid else None,
            "encoder": str(args.checkpoint) if args.checkpoint else "random-init",
        },
    )
    if result.val_history:
        best = max(a for _, a in result.val_history)
        print(
            f"fine-tuned {rc.epochs} epochs on {len(train)} pairs; "
            f"selected epoch {result.selected_epoch} (valid AUROC {best:.4f})"
        )
    else:
        print(f"fine-tuned {rc.epochs} epochs on {len(train)} pairs (no validation set)")
    print(f"model: {out / 'cpi.ckpt'}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    rc = _run_config(args)
    per_seed = []
    for run_dir in args.run:
        run_path = Path(run_dir)
        files = sorted(run_path.glob("predictions_*.csv"))
        if not files:
            raise ValidationError(f"{run_dir}: no predictions_*.csv files found")
        seed_results = {}
        for f in files:
            name = f.stem[len("predictions_") :]
            seed_results[name] = artifacts.read_predictions(f)
        per_seed.append(seed_results)
    out = _out_dir(args, "evaluate")
    report = evaluation.emit_report(args.dataset_name, per_seed, out)
    _write_meta(out, "evaluate", rc, {"runs": [str(r) for r in args.run]})
    for name, stats in report["partitions"].items():
        print(
            f"{name:12s} auroc {stats['auroc_mean']:.4f} +/- {stats['auroc_std']:.4f}  "
            f"auprc {stats['auprc_mean']:.4f} +/- {stats['auprc_std']:.4f}  "
            f"n={stats['n_pairs']}"
        )
    for name, reason in report.get("skipped_partitions", {}).items():
        print(f"{name:12s} skipped: {reason}")
    print(f"report: {out / 'report.json'}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    reports = run_gradcheck(seed=args.seed)
    ok = True
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max relative error {r.max_rel_err:.3e} (tol {r.tol:.0e})")
        ok = ok and r.passed
    return 0 if ok else 1


def cmd_export_embeddings(args: argparse.Namespace) -> int:
    state, rc = _checkpoint_encoder(args)
    pids, proteins, skipped = [], [], []
    for _, pid, seq in read_protein_list(args.proteins):
        try:
            protein = encode_protein(seq, l_max=rc.l_max)
            enc.segment_protein(state.config, protein)  # too short to segment raises
        except (ValidationError, SeqReorderError) as exc:
            logger.warning("skipping %s: %s", pid, exc)
            skipped.append(f"{pid}\t{exc}")
            continue
        pids.append(pid)
        proteins.append(protein)
    vectors = enc.protein_embeddings(state, proteins)
    out = _out_dir(args, "export-embeddings")
    rows = [pid + "\t" + "\t".join(f"{v:.17g}" for v in vec) for pid, vec in zip(pids, vectors)]
    artifacts.write_lines(out / "embeddings.tsv", rows)
    artifacts.write_lines(out / "skipped.log", skipped)
    _write_meta(out, "export-embeddings", rc, {"checkpoint": str(args.checkpoint)})
    print(f"wrote {len(rows)} embeddings ({len(skipped)} skipped) to {out / 'embeddings.tsv'}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    out_path = Path(args.out_file)
    if args.kind == "motif":
        seqs = synthetic.motif_sequences(
            num_sequences=args.num,
            n_families=args.families,
            block_len=args.block_len,
            seed=args.seed,
        )
        out_path.parent.mkdir(parents=True, exist_ok=True)
        synthetic.write_sequence_tsv(out_path, seqs)
        print(f"wrote {len(seqs)} sequences to {out_path}")
    else:
        corpus = synthetic.interaction_corpus(
            num_proteins=args.num_proteins,
            num_compounds=args.num_compounds,
            num_pairs=args.num_pairs,
            seed=args.seed,
        )
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_dataset(out_path, corpus.rows)
        positives = sum(y for _, _, y in corpus.rows)
        print(f"wrote {len(corpus.rows)} pairs ({positives} positive) to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqreorder",
        description="Subsequence-reordering pretraining and CPI evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="split a pairs TSV into scenario partitions")
    p.add_argument("--data", required=True, help="smiles<TAB>sequence<TAB>label TSV")
    p.add_argument("--header", action="store_true", help="input has a header row")
    _add_common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("pretrain", help="pretrain the encoder on shuffled proteins")
    p.add_argument("--data", default=None, help="pairs TSV; proteins are taken from it")
    p.add_argument("--proteins", default=None, help="id<TAB>sequence or plain-sequence file")
    p.add_argument("--header", action="store_true")
    p.add_argument("--stop-accuracy", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="train the CPI head on a frozen encoder")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", default=None)
    p.add_argument("--test", action="append", metavar="NAME=PATH")
    p.add_argument("--checkpoint", default=None, help="pretrained encoder checkpoint")
    p.add_argument("--random-init", action="store_true", help="use an untrained encoder")
    p.add_argument("--header", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="aggregate predictions into the metrics report")
    p.add_argument("--run", action="append", required=True, help="finetune output dir (one per seed)")
    p.add_argument("--dataset-name", default="dataset")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("export-embeddings", help="write protein embeddings for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--proteins", required=True, help="id<TAB>sequence or plain-sequence file")
    _add_common(p)
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("synth", help="generate a bundled synthetic corpus")
    p.add_argument("kind", choices=("motif", "cpi"))
    p.add_argument("--out-file", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num", type=int, default=2000, help="motif: sequence count")
    p.add_argument("--families", type=int, default=4)
    p.add_argument("--block-len", type=int, default=12)
    p.add_argument("--num-proteins", type=int, default=400)
    p.add_argument("--num-compounds", type=int, default=400)
    p.add_argument("--num-pairs", type=int, default=1200)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SeqReorderError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
