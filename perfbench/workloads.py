"""The three closed-loop workloads and the loop that times them.

Each workload has one caller that waits for every operation before it
starts the next. Inputs come from the workload seed only; the model and
training seeds stay fixed, so a seed changes the data and nothing else.
Every timed body repeats the same work from the same state, which makes
the final loss and the scores of one seed identical body to body.

- ``pretrain-paper``: ``pretrain_step`` at paper shape on 300-residue
  proteins. A quarter of the 1200 positions are real, attention is nearly
  all of a step, and ``perm`` is a rounding error: pad dropping and chunked
  attention show here; Sinkhorn changes are predicted flat.
- ``pretrain-desk``: one ``pretrain_run`` on the motif corpus at the
  README geometry. Equal cuts leave no padding (packing predicted flat),
  and per-example Python work (Sinkhorn, rounding, loss, example making,
  one-at-a-time held-out scoring) is a large share: batched ``perm`` work
  and batched held-out scoring show here.
- ``walkthrough``: the README's CLI sequence through ``cli.main``. It is
  the only workload that runs ``cpi``, the protein-embedding cache,
  checkpoint reads and TSV/CSV parsing.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from seqreorder import augment, cli, evaluation, nn, perm, pretrain, synthetic
from seqreorder import encoder as enc
from seqreorder.corpus import PretrainDataset, encode_protein, parse_dataset

from tracer import PER_LAYER_METRICS, Tracer

SETUP_REPEATS = 3
# At least three bodies, so that the median drops one slow body; a traced
# run alternates untraced and traced bodies, starting untraced.
MIN_BODIES = 3
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
# Training seeds are fixed: the workload seed only changes the inputs.
MODEL_SEED = 0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "residues_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_loss": "nats",
    "pretext_auroc": "ratio",
    "success_rate": "ratio",
}


class Checks:
    """Operations attempted and failed; a failed output check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class StepLog:
    """Times every ``pretrain.pretrain_step`` call and checks its record.

    Installed in untraced runs too: one clock read per step is not tracing.
    """

    def __init__(self, checks: Checks) -> None:
        self.checks = checks
        self.recording = False
        self.times: list[float] = []
        self.residues = 0
        self.last_loss: float | None = None
        self._original = None

    def install(self) -> None:
        original = self._original = pretrain.pretrain_step
        log = self

        @functools.wraps(original)
        def timed(state, batch, *args, **kwargs):
            start = time.perf_counter()
            out = original(state, batch, *args, **kwargs)
            elapsed = time.perf_counter() - start
            rec = out[1]
            log.checks.record(
                math.isfinite(rec.loss) and 0.0 <= rec.perm_acc <= 1.0,
                f"step {rec.step}: loss {rec.loss!r}, accuracy {rec.perm_acc!r}",
            )
            log.last_loss = rec.loss
            if log.recording:
                log.times.append(elapsed)
                log.residues += sum(int(ex.shuffled.true_lengths.sum()) for ex in batch)
            return out

        pretrain.pretrain_step = timed

    def uninstall(self) -> None:
        if self._original is not None:
            pretrain.pretrain_step = self._original


def _relaxed_auroc(state, examples, eval_m: int) -> float:
    """AUROC of the Sinkhorn matrix entries at separating true slot matches."""
    sk = perm.SinkhornConfig(m=eval_m)
    scores, labels = [], []
    for ex in examples:
        q = enc.predict_q(state, ex.shuffled, sk)
        scores.append(np.asarray(getattr(q, "entries", q)).ravel())
        labels.append(ex.target.matrix.ravel())
    return evaluation.auroc(np.concatenate(scores), np.concatenate(labels))


def _reloads_identically(path: Path, checks: Checks) -> None:
    again = path.with_name(path.stem + ".reload.ckpt")
    pretrain.save_checkpoint(pretrain.load_checkpoint(path), again)
    checks.record(again.read_bytes() == path.read_bytes(), f"{path.name} reloads to other bytes")
    again.unlink()


class Workload:
    GEOMETRY: dict = {}

    def __init__(self, geometry: dict, workdir: Path, checks: Checks) -> None:
        self.g = geometry
        self.workdir = workdir
        self.checks = checks

    def setup(self, seed: int):
        """Make inputs, build the model, run one warm-up operation; return its result."""
        raise NotImplementedError

    def body(self) -> None:
        raise NotImplementedError

    def validate(self) -> None:
        """Untimed output checks after a body."""

    def pretext_auroc(self) -> float:
        """Held-out AUROC of the trained encoder on the reordering task."""
        raise NotImplementedError

    def seen_both_auroc(self) -> float:
        """The CPI head's seen_both AUROC; 0 where no CPI head is trained."""
        return 0.0


class PaperPretrain(Workload):
    GEOMETRY = dict(
        n=24, l_max=1200, embed_dim=64, layers=2, heads=4, ffn_dim=256, batch_size=4,
        sinkhorn_m=10, mask_prob=0.15, lr=1e-3, protein_len=300, steps=3, heldout=8, eval_m=50,
    )

    def setup(self, seed: int):
        g = self.g
        b = g["batch_size"]
        rng = np.random.default_rng(seed)
        letters = rng.integers(0, len(AMINO_ACIDS), size=(g["steps"] * b + g["heldout"], g["protein_len"]))
        proteins = [encode_protein("".join(AMINO_ACIDS[i] for i in row), l_max=g["l_max"]) for row in letters]
        self.cut = augment.RAcutConfig(n=g["n"], l_max=g["l_max"])
        self.enc_cfg = enc.EncoderConfig(
            embed_dim=g["embed_dim"], layers=g["layers"], heads=g["heads"],
            ffn_dim=g["ffn_dim"], n=g["n"], f_max=self.cut.f_max,
        )
        self.cfg = pretrain.PretrainConfig(
            epochs=1, lr=g["lr"], batch_size=b,
            sinkhorn=perm.SinkhornConfig(m=g["sinkhorn_m"]),
            noise=augment.NoiseSpec(kind="mask", mask_prob=g["mask_prob"]),
        )
        self.batches = [proteins[k * b : (k + 1) * b] for k in range(g["steps"])]
        self.heldout = [
            augment.make_pretrain_example(p, self.cut, self.cfg.noise, (MODEL_SEED, 0, i))
            for i, p in enumerate(proteins[g["steps"] * b :])
        ]
        self.init_params = enc.init(self.enc_cfg, seed=MODEL_SEED).params
        return self._train(1)

    def _train(self, steps: int) -> float:
        state = enc.EncoderState(self.enc_cfg, {k: v.copy() for k, v in self.init_params.items()})
        adam = nn.adam_init(state.params)
        for k, proteins in enumerate(self.batches[:steps], start=1):
            batch = [
                augment.make_pretrain_example(p, self.cut, self.cfg.noise, (MODEL_SEED, k, i))
                for i, p in enumerate(proteins)
            ]
            state, rec = pretrain.pretrain_step(state, batch, self.cfg, adam, epoch=1, step=k)
        self.state = state
        return rec.loss

    def body(self) -> None:
        self._train(len(self.batches))

    def pretext_auroc(self) -> float:
        return _relaxed_auroc(self.state, self.heldout, self.g["eval_m"])


class DeskPretrain(Workload):
    GEOMETRY = dict(
        n=4, l_max=48, embed_dim=32, layers=2, heads=4, ffn_dim=64, batch_size=32,
        sinkhorn_m=10, mask_prob=0.15, lr=1e-3, proteins=2000, test_proteins=100, epochs=2, eval_m=50,
    )

    def setup(self, seed: int):
        g = self.g
        self.cut = augment.RAcutConfig(n=g["n"], l_max=g["l_max"])
        seqs = synthetic.motif_sequences(
            g["proteins"] + g["test_proteins"], n_families=g["n"], block_len=self.cut.f_max, seed=seed
        )
        proteins = [encode_protein(s, l_max=g["l_max"]) for s in seqs]
        self.dataset = PretrainDataset(proteins=proteins[: g["proteins"]])
        self.enc_cfg = enc.EncoderConfig(
            embed_dim=g["embed_dim"], layers=g["layers"], heads=g["heads"],
            ffn_dim=g["ffn_dim"], n=g["n"], f_max=self.cut.f_max,
        )
        self.cfg = pretrain.PretrainConfig(
            epochs=g["epochs"], lr=g["lr"], batch_size=g["batch_size"],
            sinkhorn=perm.SinkhornConfig(m=g["sinkhorn_m"]),
            noise=augment.NoiseSpec(kind="mask", mask_prob=g["mask_prob"]),
            global_seed=MODEL_SEED, eval_m=g["eval_m"],
        )
        self.test = [
            augment.make_pretrain_example(p, self.cut, self.cfg.noise, (MODEL_SEED, 0, i))
            for i, p in enumerate(proteins[g["proteins"] :])
        ]
        self.out = self.workdir / "pretrain"
        self.best_digest = None
        state = enc.init(self.enc_cfg, seed=MODEL_SEED)
        batch = [
            augment.make_pretrain_example(p, self.cut, self.cfg.noise, (MODEL_SEED, 1, i))
            for i, p in enumerate(self.dataset.proteins[: g["batch_size"]])
        ]
        _, rec = pretrain.pretrain_step(state, batch, self.cfg, nn.adam_init(state.params))
        return rec.loss

    def body(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.result = pretrain.pretrain_run(self.dataset, self.enc_cfg, self.cut, self.cfg, out_dir=self.out)

    def validate(self) -> None:
        epochs = len(self.result.val_history)
        self.checks.record(
            all((self.out / f"epoch_{e:04d}.ckpt").is_file() for e in range(1, epochs + 1)),
            "an epoch checkpoint is missing",
        )
        best = self.out / "best.ckpt"
        _reloads_identically(best, self.checks)
        digest = hashlib.sha256(best.read_bytes()).hexdigest()
        if self.best_digest is not None:
            self.checks.record(digest == self.best_digest, "best.ckpt differs between runs of one seed")
        self.best_digest = digest

    def pretext_auroc(self) -> float:
        state = pretrain.encoder_state_from_checkpoint(self.result.best_checkpoint)
        return _relaxed_auroc(state, self.test, self.g["eval_m"])


class Walkthrough(Workload):
    GEOMETRY = dict(
        num_proteins=120, num_compounds=120, num_pairs=400, pretrain_epochs=4, finetune_epochs=10, motif=50,
    )

    def _cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _synth_cpi(self, out_file: Path) -> list[str]:
        g = self.g
        return [
            "synth", "cpi", "--out-file", str(out_file),
            "--num-proteins", str(g["num_proteins"]), "--num-compounds", str(g["num_compounds"]),
            "--num-pairs", str(g["num_pairs"]), "--seed", str(self.seed),
        ]

    def setup(self, seed: int):
        self.seed = seed
        self.report_digest = None
        warm = self.workdir / "warmup"
        shutil.rmtree(warm, ignore_errors=True)
        warm.mkdir(parents=True)
        pairs = warm / "pairs.tsv"
        code = self._cli(self._synth_cpi(pairs))
        self.checks.record(code == 0, f"warm-up synth exited {code}")
        parse_dataset(pairs)
        return hashlib.sha256(pairs.read_bytes()).hexdigest()

    def _commands(self, d: Path) -> list[list[str]]:
        g = self.g
        split, ft = d / "runs" / "split", d / "runs" / "ft-seed0"
        tests = []
        for name in evaluation.PARTITIONS:
            tests += ["--test", f"{name}={split / f'test_{name}.tsv'}"]
        return [
            self._synth_cpi(d / "pairs.tsv"),
            ["split", "--data", str(d / "pairs.tsv"), "--seed", "0", "--out", str(split)],
            [
                "pretrain", "--data", str(split / "train.tsv"),
                "--n", "4", "--l-max", "48", "--embed-dim", "32", "--layers", "2", "--heads", "4",
                "--ffn-dim", "64", "--epochs", str(g["pretrain_epochs"]), "--lr", "1e-3",
                "--batch-size", "32", "--out", str(d / "runs" / "pretrain"),
            ],
            [
                "finetune", "--train", str(split / "train.tsv"), "--valid", str(split / "valid.tsv"),
                "--checkpoint", str(d / "runs" / "pretrain" / "best.ckpt"), *tests,
                "--epochs", str(g["finetune_epochs"]), "--lr", "3e-3", "--batch-size", "32",
                "--seed", "0", "--out", str(ft),
            ],
            ["evaluate", "--run", str(ft), "--dataset-name", "demo", "--out", str(d / "runs" / "report")],
            [
                "synth", "motif", "--out-file", str(d / "motif.tsv"), "--num", str(g["motif"]),
                "--seed", str(self.seed),
            ],
            [
                "export-embeddings", "--checkpoint", str(d / "runs" / "pretrain" / "best.ckpt"),
                "--proteins", str(d / "motif.tsv"), "--out", str(d / "runs" / "embed"),
            ],
        ]

    def body(self) -> None:
        self.dir = self.workdir / "walk"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.codes = [(argv[0], self._cli(argv)) for argv in self._commands(self.dir)]

    def validate(self) -> None:
        d = self.dir
        runs = d / "runs"
        for command, code in self.codes:
            self.checks.record(code == 0, f"{command} exited {code}")
        for name in evaluation.PARTITIONS:
            self.checks.record(
                self._predictions_ok(runs / "ft-seed0" / f"predictions_{name}.csv", runs / "split" / f"test_{name}.tsv"),
                f"predictions_{name}.csv does not match its test partition",
            )
        report = json.loads((runs / "report" / "report.json").read_text(encoding="utf-8"))
        scored, skipped = set(report["partitions"]), set(report.get("skipped_partitions", {}))
        self.checks.record(
            "seen_both" in scored and scored | skipped == set(evaluation.PARTITIONS) and not scored & skipped,
            f"report.json scores {sorted(scored)} and skips {sorted(skipped)}",
        )
        self.auroc = report["partitions"]["seen_both"]["auroc_mean"]
        digest = hashlib.sha256((runs / "report" / "report.json").read_bytes()).hexdigest()
        if self.report_digest is not None:
            self.checks.record(digest == self.report_digest, "report.json differs between runs of one seed")
        self.report_digest = digest
        self.checks.record(self._embeddings_ok(runs / "embed" / "embeddings.tsv", d / "motif.tsv"), "embeddings.tsv is wrong")
        _reloads_identically(runs / "pretrain" / "best.ckpt", self.checks)

    @staticmethod
    def _predictions_ok(path: Path, test_file: Path) -> bool:
        lines = path.read_text(encoding="utf-8").splitlines()
        expected = sum(1 for line in test_file.read_text(encoding="utf-8").splitlines() if line)
        if not lines or lines[0] != "pair_id,score,label" or len(lines) - 1 != expected:
            return False
        for line in lines[1:]:
            fields = line.split(",")
            if len(fields) != 3 or fields[2] not in ("0", "1") or not 0.0 < float(fields[1]) < 1.0:
                return False
        return True

    @staticmethod
    def _embeddings_ok(path: Path, inputs: Path) -> bool:
        ids = [line.split("\t")[0] for line in inputs.read_text(encoding="utf-8").splitlines() if line]
        rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
        if [r[0] for r in rows] != ids:
            return False
        vectors = np.array([[float(v) for v in r[1:]] for r in rows])
        return vectors.ndim == 2 and vectors.shape[1] > 0 and bool(np.isfinite(vectors).all())

    def pretext_auroc(self) -> float:
        # The pretrained encoder on the exported motif proteins; it is
        # scored here because the CLI scores nothing but the CPI head.
        ckpt = pretrain.load_checkpoint(self.dir / "runs" / "pretrain" / "best.ckpt")
        state = pretrain.encoder_state_from_checkpoint(ckpt)
        cut = augment.RAcutConfig(n=state.config.n, l_max=state.config.n * state.config.f_max)
        noise = augment.NoiseSpec(kind="mask", mask_prob=0.15)
        examples = [
            augment.make_pretrain_example(encode_protein(line.split("\t")[1]), cut, noise, (MODEL_SEED, 0, i))
            for i, line in enumerate((self.dir / "motif.tsv").read_text(encoding="utf-8").splitlines())
        ]
        return _relaxed_auroc(state, examples, 50)

    def seen_both_auroc(self) -> float:
        return self.auroc


WORKLOADS: dict[str, type[Workload]] = {
    "pretrain-paper": PaperPretrain,
    "pretrain-desk": DeskPretrain,
    "walkthrough": Walkthrough,
}


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (50 if none)."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / count))) if count else 50


def _guarded(checks: Checks, what: str, fn) -> bool:
    try:
        fn()
    except Exception:  # a failed operation is counted, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        checks.record(False, f"{what} raised")
        return False
    return True


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    geometry: dict | None = None,
    import_s: float = 0.0,
    spans_path: Path | None = None,
) -> tuple[dict, dict]:
    """Set up, run timed bodies for ``seconds``, check outputs; return (result, record).

    With ``trace`` the bodies alternate untraced and traced, the result
    carries the per-layer metrics, and the spans go to ``spans_path``;
    otherwise the result carries the end-to-end metrics.
    """
    kind = WORKLOADS[name]
    checks = Checks()
    steps = StepLog(checks)
    tracer = Tracer() if trace else None
    record: dict = {}
    steps.install()
    try:
        wl = kind(dict(kind.GEOMETRY if geometry is None else geometry), workdir, checks)
        setup_times, warm = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            warm.append(wl.setup(seed))
            setup_times.append(time.perf_counter() - start)
        for value in warm[1:]:
            checks.record(value == warm[0], "warm-up operation is not bit-identical across repeats")

        if tracer is not None:
            tracer.install()
        untraced: list[float] = []
        traced: list[float] = []
        losses: list[float] = []
        attempts = {False: 0, True: 0}
        began = time.perf_counter()
        while True:
            is_traced = tracer is not None and attempts[False] > attempts[True]
            attempts[is_traced] += 1
            steps.recording = not is_traced
            if tracer is not None:
                tracer.active = is_traced
            gc.collect()  # no body pays for garbage left by the one before
            start = time.perf_counter()
            ok = _guarded(checks, f"{name} body", wl.body)
            elapsed = time.perf_counter() - start
            steps.recording = False
            if tracer is not None:
                tracer.active = False
            if ok and _guarded(checks, f"{name} output checks", wl.validate):
                (traced if is_traced else untraced).append(elapsed)
                losses.append(steps.last_loss)
            if time.perf_counter() - began >= seconds and sum(attempts.values()) >= MIN_BODIES:
                break
        if not untraced or (tracer is not None and not traced):
            raise RuntimeError(f"{name}: no body completed; failures: {checks.failures[:5]}")
        checks.record(all(x == losses[0] for x in losses), f"final losses differ between runs of one seed: {losses}")

        run_s = statistics.median(untraced)
        record.update(
            workload=name, seed=seed, setup_times_s=setup_times, body_times_s=untraced,
            traced_body_times_s=traced, failures=checks.failures,
            seen_both_auroc=wl.seen_both_auroc(),
        )
        if tracer is not None:
            metrics = tracer.layer_metrics(len(traced))
            metrics["cpi.seen_both_auroc"] = wl.seen_both_auroc()
            metrics["trace_overhead"] = statistics.median(traced) - run_s
            record["absent_bindings"] = tracer.absent
            record["self_time_shares"] = tracer.shares(statistics.median(traced), len(traced))
            if spans_path is not None:
                tracer.write(spans_path)
            units = {k: u for k, (u, _) in PER_LAYER_METRICS.items()}
        else:
            times_ms = np.array(steps.times) * 1000.0
            pct = tail_percentile(len(times_ms))
            record.update(step_samples=len(times_ms), step_tail_percentile=pct)
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "run_s": run_s,
                "step_ms_p50": float(np.median(times_ms)),
                "step_ms_tail": float(np.percentile(times_ms, pct)),
                "residues_per_s": steps.residues / float(np.sum(steps.times)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "final_loss": float(losses[0]),
                "pretext_auroc": float(wl.pretext_auroc()),
                "success_rate": 1.0 - checks.failed / checks.attempted,
            }
            units = END_TO_END_UNITS
    finally:
        if tracer is not None:
            tracer.uninstall()
        steps.uninstall()
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, record
