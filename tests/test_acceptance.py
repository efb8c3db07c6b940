"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and then asserts, so a red test always comes with the measured
numbers.  The oracles here are deliberately independent of the library
code they judge: exhaustive search for the assignment rounding,
Fraction-exact pair counting and rank walks for the metrics, and central
finite differences for the gradients.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import permutations
from math import fsum

import numpy as np
from test_cpi import one_call_grads

from seqreorder import encoder as enc
from seqreorder.artifacts import write_predictions
from seqreorder.augment import NoiseSpec, RAcutConfig
from seqreorder.corpus import (
    InteractionRecord,
    PretrainDataset,
    encode_protein,
    encode_smiles,
)
from seqreorder.cpi import (
    CpiConfig,
    FinetuneConfig,
    build_protein_cache,
    finetune_run,
    predict_pairs,
)
from seqreorder.encoder import EncoderConfig
from seqreorder.evaluation import auprc, auroc, emit_report, split_scenarios
from seqreorder.gradcheck import run_gradcheck
from seqreorder.perm import SinkhornConfig, round_to_permutation, sinkhorn
from seqreorder.pretrain import PretrainConfig, encoder_state_from_checkpoint, pretrain_run
from seqreorder.synthetic import corpus_records, interaction_corpus, motif_sequences

AMINO = "ACDEFGHIKLMNPQRSTVWY"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. normalization produces doubly stochastic matrices
# ---------------------------------------------------------------------------


def test_criterion_1_sinkhorn_correctness():
    start = time.perf_counter()
    cfg = SinkhornConfig(m=50)
    rng = np.random.default_rng(11)
    worst_col = worst_row = worst_fix = worst_scale = 0.0
    for i in range(100):
        n = (2, 4, 8, 24)[i % 4]
        x = rng.uniform(0.05, 10.0, (n, n))
        q = np.exp(sinkhorn(np.log(x), cfg))
        worst_col = max(worst_col, float(np.abs(q.sum(axis=0) - 1.0).max()))
        worst_row = max(worst_row, float(np.abs(q.sum(axis=1) - 1.0).max()))
        # fixed point: a converged matrix is left (essentially) unchanged
        again = np.exp(sinkhorn(np.log(q), cfg))
        worst_fix = max(worst_fix, float(np.abs(again - q).max()))
        # scale invariance: positive diagonal rescaling has no effect
        dr = rng.uniform(0.5, 2.0, (n, 1))
        dc = rng.uniform(0.5, 2.0, (1, n))
        q2 = np.exp(sinkhorn(np.log(x * dr * dc), cfg))
        worst_scale = max(worst_scale, float(np.abs(q2 - q).max()))
    elapsed = time.perf_counter() - start
    ok = (
        worst_col <= 1e-12
        and worst_row < 1e-6
        and worst_fix < 1e-9
        and worst_scale < 1e-9
        and elapsed < 10.0
    )
    _report(
        1,
        ok,
        f"100 matrices, m=50: col dev {worst_col:.2e} (<=1e-12), "
        f"row dev {worst_row:.2e} (<1e-6), fixed-point {worst_fix:.2e}, "
        f"scale-invariance {worst_scale:.2e} [{elapsed:.1f}s]",
    )


# ---------------------------------------------------------------------------
# 2. analytic gradients match finite differences
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_exactness():
    start = time.perf_counter()
    reports = run_gradcheck(seed=0)
    elapsed = time.perf_counter() - start
    parts = [f"{r.name} {r.max_rel_err:.2e} (tol {r.tol:g})" for r in reports]
    ok = all(r.passed for r in reports) and elapsed < 60.0
    _report(2, ok, "; ".join(parts) + f" [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# 3. rounding to a permutation equals exhaustive search
# ---------------------------------------------------------------------------


def _brute_force_assignment(entries: np.ndarray) -> np.ndarray:
    n = entries.shape[0]
    best_perms: list[tuple[int, ...]] = []
    best_total = -np.inf
    for perm in permutations(range(n)):
        total = fsum(entries[i, perm[i]] for i in range(n))
        if total > best_total:
            best_total, best_perms = total, [perm]
        elif total == best_total:
            best_perms.append(perm)
    chosen = min(best_perms)
    out = np.zeros((n, n))
    out[np.arange(n), chosen] = 1.0
    return out


def test_criterion_3_assignment_matches_exhaustive_search():
    start = time.perf_counter()
    cfg = SinkhornConfig(m=50)
    rng = np.random.default_rng(13)
    mismatches = 0
    for i in range(200):
        n = i % 6 + 1
        if i % 3 == 0:
            # convex combination of permutation matrices: a genuine DSM
            # with many duplicate entries, exercising the tie refinement
            k = int(rng.integers(2, 4))
            weights = (0.5, 0.5) if k == 2 else (0.5, 0.25, 0.25)
            q = np.zeros((n, n))
            for w in weights:
                q[np.arange(n), rng.permutation(n)] += w
        else:
            q = np.exp(sinkhorn(np.log(rng.uniform(0.1, 10.0, (n, n))), cfg))
        got = round_to_permutation(q).matrix
        want = _brute_force_assignment(np.asarray(q, dtype=np.float64))
        if not np.array_equal(got, want):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(3, ok, f"200 DSMs n<=6: {mismatches} mismatches vs n! search [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# 4. ranking metrics equal exact rational oracles
# ---------------------------------------------------------------------------


def _auroc_oracle(scores, labels) -> Fraction:
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = Fraction(0)
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1
            elif sp == sn:
                total += Fraction(1, 2)
    return total / (len(pos) * len(neg))


def _auprc_oracle(scores, labels) -> Fraction:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    tp = 0
    precisions = []
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            tp += 1
            precisions.append(Fraction(tp, rank))
    return sum(precisions) / len(precisions)


def test_criterion_4_metrics_match_rational_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    worst_roc = worst_pr = 0.0
    for i in range(500):
        k = int(rng.integers(2, 13))
        scores = rng.normal(size=k)
        if i % 2:
            scores = np.round(scores, 1)  # force score ties
        labels = rng.integers(0, 2, size=k)
        while labels.min() == labels.max():
            labels = rng.integers(0, 2, size=k)
        scores, labels = [float(s) for s in scores], [int(y) for y in labels]
        worst_roc = max(worst_roc, abs(auroc(scores, labels) - float(_auroc_oracle(scores, labels))))
        worst_pr = max(worst_pr, abs(auprc(scores, labels) - float(_auprc_oracle(scores, labels))))
    elapsed = time.perf_counter() - start
    ok = worst_roc <= 1e-12 and worst_pr <= 1e-12
    _report(
        4,
        ok,
        f"500 instances: auroc dev {worst_roc:.2e}, auprc dev {worst_pr:.2e} "
        f"(tol 1e-12) [{elapsed:.1f}s]",
    )


# ---------------------------------------------------------------------------
# 5. the pretext task is learnable on an ordered-motif corpus
# ---------------------------------------------------------------------------

MOTIF_ENC = EncoderConfig(embed_dim=32, layers=2, heads=4, ffn_dim=64, n=4, f_max=12)
MOTIF_CUT = RAcutConfig(n=4, l_max=48)


def _motif_pretrain_config(
    seed: int, epochs: int, stop: float | None, batch_size: int = 64
) -> PretrainConfig:
    return PretrainConfig(
        epochs=epochs,
        lr=1e-3,
        batch_size=batch_size,
        weight_decay=1e-4,
        sinkhorn=SinkhornConfig(m=10),
        noise=NoiseSpec(kind="mask", mask_prob=0.15),
        global_seed=seed,
        valid_fraction=0.05,
        eval_m=50,
        stop_accuracy=stop,
    )


def test_criterion_5_reordering_recovery():
    start = time.perf_counter()
    seqs = motif_sequences(2000, n_families=4, block_len=12, seed=0)
    data = PretrainDataset(proteins=[encode_protein(s) for s in seqs])
    result = pretrain_run(data, MOTIF_ENC, MOTIF_CUT, _motif_pretrain_config(0, 30, 0.95))
    best_acc = max(acc for _, acc in result.val_history)
    elapsed = time.perf_counter() - start
    ok = best_acc >= 0.95 and elapsed <= 600.0
    _report(
        5,
        ok,
        f"2000 sequences, n=4: held-out slot accuracy {best_acc:.3f} "
        f"(>=0.95, chance 0.25) after {len(result.val_history)} epochs [{elapsed:.1f}s]",
    )


# ---------------------------------------------------------------------------
# 6. the downstream head overfits a toy set without touching the encoder
# ---------------------------------------------------------------------------

CPI_CFG = CpiConfig(
    comp_layers=1, comp_heads=4, comp_ffn_dim=64, fusion_dim=32, max_atoms=64
)


def test_criterion_6_finetune_smoke():
    start = time.perf_counter()
    pairs = corpus_records(interaction_corpus(num_proteins=10, num_compounds=10, num_pairs=50, seed=3))
    frozen = enc.init(EncoderConfig(embed_dim=32, layers=1, heads=4, ffn_dim=64, n=4, f_max=12), seed=3)
    before = {k: v.tobytes() for k, v in frozen.params.items()}
    result = finetune_run(
        pairs, [], frozen, CPI_CFG, FinetuneConfig(epochs=300, lr=3e-3, batch_size=16, lam=0.0, seed=3)
    )
    cache = build_protein_cache(result.model, pairs)
    mean_bce = one_call_grads(result.model, pairs, cache, 0.0)[0] / len(pairs)
    untouched = all(frozen.params[k].tobytes() == blob for k, blob in before.items())
    elapsed = time.perf_counter() - start
    ok = mean_bce < 0.05 and untouched and elapsed < 120.0
    _report(
        6,
        ok,
        f"50 pairs, frozen random encoder: training BCE {mean_bce:.4f} (<0.05), "
        f"encoder bytes identical: {untouched} [{elapsed:.1f}s]",
    )


# ---------------------------------------------------------------------------
# 7. pretraining helps on unseen-both pairs (trend over 5 seeds)
# ---------------------------------------------------------------------------


def _unseen_both_auroc(seed: int) -> tuple[float, float]:
    """(pretrained, random-init) unseen-both AUROC for one seed.

    The corpus is entity-sparse (600 proteins x 600 compounds for only
    700 pairs) so the unseen-both partition is well populated; labels
    depend on motif variants in two different regions, which the reorder
    pretraining exposes and a random frozen encoder does not.
    """
    corpus = interaction_corpus(num_proteins=600, num_compounds=600, num_pairs=700, seed=seed)
    split = split_scenarios(corpus_records(corpus), (0.7, 0.1, 0.2), seed=seed)
    unseen_both = split.test_partitions["unseen_both"]
    pretrained = pretrain_run(
        PretrainDataset.from_interactions(split.train),
        MOTIF_ENC,
        MOTIF_CUT,
        _motif_pretrain_config(seed, 8, 0.99, batch_size=32),
    )
    arms = {
        "pre": encoder_state_from_checkpoint(pretrained.best_checkpoint),
        "rand": enc.init(MOTIF_ENC, seed=seed),
    }
    out = {}
    for tag, frozen in arms.items():
        ft = FinetuneConfig(epochs=30, lr=3e-3, batch_size=32, lam=1e-4, seed=seed)
        result = finetune_run(split.train, split.valid, frozen, CPI_CFG, ft)
        cache = build_protein_cache(result.model, corpus_records(corpus))
        scores = predict_pairs(result.model, unseen_both, cache)
        out[tag] = auroc(scores, [r.label for r in unseen_both])
    return out["pre"], out["rand"]


def test_criterion_7_pretraining_benefit_trend():
    start = time.perf_counter()
    pre_aucs, rand_aucs = [], []
    for seed in range(5):
        pre, rand = _unseen_both_auroc(seed)
        pre_aucs.append(pre)
        rand_aucs.append(rand)
        print(f"  seed {seed}: pretrained={pre:.4f} random={rand:.4f}")
    margin = float(np.mean(pre_aucs) - np.mean(rand_aucs))
    elapsed = time.perf_counter() - start
    ok = float(np.mean(pre_aucs)) >= float(np.mean(rand_aucs))
    _report(
        7,
        ok,
        f"unseen-both AUROC over 5 seeds: pretrained {np.mean(pre_aucs):.4f} "
        f"vs random-init {np.mean(rand_aucs):.4f}, margin {margin:+.4f} "
        f"(trend only) [{elapsed:.1f}s]",
    )


# ---------------------------------------------------------------------------
# 8. the four-way split obeys its invariants on random datasets
# ---------------------------------------------------------------------------

RATIO_CHOICES = ((0.7, 0.1, 0.2), (0.5, 0.2, 0.3), (0.6, 0.0, 0.4), (0.34, 0.33, 0.33))


def test_criterion_8_split_protocol():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    violations = 0
    for i in range(1000):
        prot_pool = [
            "".join(AMINO[j] for j in rng.integers(0, len(AMINO), size=rng.integers(4, 13)))
            for _ in range(rng.integers(2, 9))
        ]
        comp_pool = [
            "".join("CNO"[j] for j in rng.integers(0, 3, size=rng.integers(1, 9)))
            for _ in range(rng.integers(2, 9))
        ]
        records = [
            InteractionRecord(
                encode_smiles(comp_pool[rng.integers(len(comp_pool))]),
                encode_protein(prot_pool[rng.integers(len(prot_pool))]),
                int(rng.integers(0, 2)),
            )
            for _ in range(rng.integers(1, 41))
        ]
        split = split_scenarios(records, RATIO_CHOICES[i % 4], seed=i)
        n_test = sum(len(p) for p in split.test_partitions.values())
        if len(split.train) + len(split.valid) + n_test != len(records):
            violations += 1
            continue
        train_comp = {r.compound.smiles for r in split.train}
        train_prot = {r.protein.raw for r in split.train}
        expected = {
            (True, True): "seen_both",
            (False, True): "unseen_comp",
            (True, False): "unseen_prot",
            (False, False): "unseen_both",
        }
        for name, partition in split.test_partitions.items():
            for rec in partition:
                key = (rec.compound.smiles in train_comp, rec.protein.raw in train_prot)
                if expected[key] != name:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    _report(
        8,
        ok,
        f"1000 random datasets: {violations} coverage/membership violations [{elapsed:.1f}s]",
    )


# ---------------------------------------------------------------------------
# 9. identical config and seed reproduce every artifact bit for bit
# ---------------------------------------------------------------------------


def test_criterion_9_reproducibility(tmp_path):
    start = time.perf_counter()
    seqs = motif_sequences(200, n_families=4, block_len=12, seed=5)
    data = PretrainDataset(proteins=[encode_protein(s) for s in seqs])

    ckpt_bytes = []
    for run in ("a", "b"):
        out = tmp_path / f"pre_{run}"
        pretrain_run(data, MOTIF_ENC, MOTIF_CUT, _motif_pretrain_config(5, 2, None), out_dir=out)
        ckpt_bytes.append(
            ((out / "best.ckpt").read_bytes(), (out / "epoch_0002.ckpt").read_bytes())
        )
    ckpt_same = ckpt_bytes[0] == ckpt_bytes[1]

    pairs = corpus_records(interaction_corpus(num_proteins=12, num_compounds=12, num_pairs=40, seed=5))
    frozen = enc.init(MOTIF_ENC, seed=5)
    pred_bytes = []
    for run in ("a", "b"):
        result = finetune_run(
            pairs, pairs, frozen, CPI_CFG, FinetuneConfig(epochs=3, lr=3e-3, batch_size=16, seed=5)
        )
        cache = build_protein_cache(result.model, pairs)
        scores = predict_pairs(result.model, pairs, cache)
        path = tmp_path / f"pred_{run}.csv"
        write_predictions(path, [f"p{i:04d}" for i in range(len(pairs))], scores, [r.label for r in pairs])
        pred_bytes.append(path.read_bytes())
    pred_same = pred_bytes[0] == pred_bytes[1]

    per_seed = [{"seen_both": ([0.9, 0.2, 0.7, 0.4], [1, 0, 1, 0])}]
    report_bytes = []
    for run in ("a", "b"):
        out = tmp_path / f"rep_{run}"
        emit_report("toy", per_seed, out)
        report_bytes.append(
            ((out / "report.json").read_bytes(), (out / "seen_both_roc_seed0.csv").read_bytes())
        )
    report_same = report_bytes[0] == report_bytes[1]

    # variability across different seeds is reported, not asserted
    accs = []
    seqs = motif_sequences(400, n_families=4, block_len=12, seed=9)
    data = PretrainDataset(proteins=[encode_protein(s) for s in seqs])
    for seed in range(5):
        result = pretrain_run(data, MOTIF_ENC, MOTIF_CUT, _motif_pretrain_config(seed, 2, None))
        accs.append(max(acc for _, acc in result.val_history))
    print(
        f"  seed-to-seed held-out accuracy (2 epochs, 400 sequences): "
        f"mean {np.mean(accs):.4f} std {np.std(accs):.4f} ({[f'{a:.3f}' for a in accs]})"
    )

    elapsed = time.perf_counter() - start
    ok = ckpt_same and pred_same and report_same and all(0.0 <= a <= 1.0 for a in accs)
    _report(
        9,
        ok,
        f"checkpoints identical: {ckpt_same}, predictions identical: {pred_same}, "
        f"reports identical: {report_same} [{elapsed:.1f}s]",
    )


# ---------------------------------------------------------------------------
# 10. the block-count sweep runs to completion and logs sane metrics
# ---------------------------------------------------------------------------


def test_criterion_10_block_count_sweep(tmp_path):
    start = time.perf_counter()
    rows = []
    ok = True
    for n in (2, 4, 8, 16):
        seqs = motif_sequences(240, n_families=n, block_len=6, seed=1)
        data = PretrainDataset(proteins=[encode_protein(s) for s in seqs])
        config = EncoderConfig(embed_dim=16, layers=1, heads=2, ffn_dim=32, n=n, f_max=6)
        pcfg = PretrainConfig(
            epochs=3,
            lr=1e-3,
            batch_size=32,
            weight_decay=1e-4,
            sinkhorn=SinkhornConfig(m=10),
            noise=NoiseSpec(kind="mask", mask_prob=0.15),
            global_seed=1,
            valid_fraction=0.1,
            eval_m=50,
        )
        out = tmp_path / f"n{n}"
        result = pretrain_run(data, config, RAcutConfig(n=n, l_max=6 * n), pcfg, out_dir=out)
        acc = max(acc for _, acc in result.val_history)
        steps = (out / "train_log.csv").read_text().splitlines()[1:]
        losses = [float(line.split(",")[2]) for line in steps]
        ok = ok and 0.0 <= acc <= 1.0 and len(losses) > 0 and all(np.isfinite(losses))
        rows.append((n, acc))
    print("  n  accuracy  chance")
    for n, acc in rows:
        print(f"  {n:2d}  {acc:.3f}     {1 / n:.3f}")
    elapsed = time.perf_counter() - start
    _report(
        10,
        ok,
        "sweep n in {2,4,8,16} completed with finite losses and valid accuracies "
        + f"({', '.join(f'n={n}: {acc:.3f}' for n, acc in rows)}) [{elapsed:.1f}s]",
    )
