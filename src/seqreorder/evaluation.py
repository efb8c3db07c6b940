"""Scenario splitting, ranking metrics, and the metrics report.

The split is drawn at the pair level with a seeded shuffle; each test pair
is then classified by whether its compound and protein strings appear
anywhere in the training pairs, giving four partitions: seen_both,
unseen_comp, unseen_prot, unseen_both. Identity is exact string equality
on the verbatim SMILES and the uppercased sequence.

The four metrics read one best-first ranking of the scores, with exact
ties in input order so every value is deterministic. AUROC is the
tie-averaged rank statistic (ties get half credit); AUPRC is average
precision — the mean over positives of precision at each positive's rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .artifacts import write_json, write_lines
from .corpus import InteractionRecord
from .errors import MetricError, ValidationError

SEEN_BOTH = "seen_both"
UNSEEN_COMP = "unseen_comp"
UNSEEN_PROT = "unseen_prot"
UNSEEN_BOTH = "unseen_both"
PARTITIONS = (SEEN_BOTH, UNSEEN_COMP, UNSEEN_PROT, UNSEEN_BOTH)
DEFAULT_RATIOS = (0.7, 0.1, 0.2)  # train, valid, test


@dataclass
class ScenarioSplit:
    train: list[InteractionRecord]
    valid: list[InteractionRecord]
    test_partitions: dict[str, list[InteractionRecord]] = field(default_factory=dict)

    @property
    def test(self) -> list[InteractionRecord]:
        out: list[InteractionRecord] = []
        for name in PARTITIONS:
            out.extend(self.test_partitions.get(name, []))
        return out


def split_scenarios(
    records: Sequence[InteractionRecord],
    ratios: tuple[float, float, float] = DEFAULT_RATIOS,
    seed: int = 0,
) -> ScenarioSplit:
    """Seeded pair-level split, then four-way classification of the test set.

    Every record lands in exactly one of train, valid, or a test
    partition; the four test partitions are disjoint by construction and
    cover the test set.
    """
    if not records:
        raise ValidationError("cannot split an empty record list")
    if not np.isfinite(ratios).all():
        raise ValidationError(f"ratios must be finite, got {ratios}")
    if any(r < 0 for r in ratios):
        raise ValidationError(f"ratios must be non-negative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"ratios must sum to 1, got {ratios}")
    n = len(records)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(ratios[0] * n))
    n_valid = int(round(ratios[1] * n))
    n_train = min(n_train, n)
    n_valid = min(n_valid, n - n_train)
    train = [records[i] for i in order[:n_train]]
    valid = [records[i] for i in order[n_train : n_train + n_valid]]
    test = [records[i] for i in order[n_train + n_valid :]]

    train_compounds = {r.compound.smiles for r in train}
    train_proteins = {r.protein.raw for r in train}
    partitions: dict[str, list[InteractionRecord]] = {name: [] for name in PARTITIONS}
    for rec in test:
        comp_seen = rec.compound.smiles in train_compounds
        prot_seen = rec.protein.raw in train_proteins
        if comp_seen and prot_seen:
            partitions[SEEN_BOTH].append(rec)
        elif prot_seen:
            partitions[UNSEEN_COMP].append(rec)
        elif comp_seen:
            partitions[UNSEEN_PROT].append(rec)
        else:
            partitions[UNSEEN_BOTH].append(rec)
    return ScenarioSplit(train=train, valid=valid, test_partitions=partitions)


def _check_binary(scores: np.ndarray, labels: np.ndarray) -> None:
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError(
            f"scores shape {scores.shape} does not match labels shape {labels.shape}"
        )
    if scores.size == 0:
        raise MetricError("no instances")
    if not np.isfinite(scores).all():
        raise ValidationError("scores contain non-finite values")
    if not np.isin(labels, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")


def _ranked(scores: Sequence[float], labels: Sequence[int]):
    """One validated best-first ranking: (hits, tp, fp, last).

    Scores sort descending, exact ties in input order. ``hits`` flags the
    positives in rank order, ``tp`` and ``fp`` count the true and false
    positives through each rank, and ``last`` holds the final rank of each
    run of equal scores.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    _check_binary(s, y)
    order = np.lexsort((np.arange(s.size), -s))
    s = s[order]
    hits = y[order] == 1
    last = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    return hits, np.cumsum(hits), np.cumsum(~hits), last


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability a random positive outranks a random negative (ties: 1/2)."""
    _, tp, fp, last = _ranked(scores, labels)
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    if n_pos == 0 or n_neg == 0:
        raise MetricError(
            f"AUROC undefined: {n_pos} positives and {n_neg} negatives"
        )
    # each tie group's positives beat every negative ranked below the group
    # and half of the negatives inside it; the half-integer sum is exact
    pos = np.diff(tp[last], prepend=0)
    neg = np.diff(fp[last], prepend=0)
    wins = np.sum(pos * (n_neg - fp[last])) + 0.5 * np.sum(pos * neg)
    return float(wins / (n_pos * n_neg))


def auprc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Average precision: mean over positives of precision at their rank."""
    hits, tp, fp, _ = _ranked(scores, labels)
    if tp[-1] == 0:
        raise MetricError("AUPRC undefined: no positives")
    return float((tp / (tp + fp))[hits].mean())


def roc_curve(scores: Sequence[float], labels: Sequence[int]):
    """(fpr, tpr) points at each distinct threshold, from (0,0) to (1,1).

    Trapezoidal integration of this curve reproduces the tie-averaged
    AUROC exactly: tied groups become single diagonal segments.
    """
    _, tp, fp, last = _ranked(scores, labels)
    if tp[-1] == 0 or fp[-1] == 0:
        raise MetricError("ROC curve undefined for single-class labels")
    return np.r_[0.0, fp[last] / fp[-1]], np.r_[0.0, tp[last] / tp[-1]]


def pr_curve(scores: Sequence[float], labels: Sequence[int]):
    """(recall, precision) at every rank in deterministic order.

    Step integration, sum of precision * delta-recall, reproduces average
    precision exactly.
    """
    _, tp, fp, _ = _ranked(scores, labels)
    if tp[-1] == 0:
        raise MetricError("PR curve undefined without positives")
    return tp / tp[-1], tp / (tp + fp)


SeedResults = Mapping[str, tuple[Sequence[float], Sequence[int]]]


def emit_report(
    dataset: str,
    per_seed: Sequence[SeedResults],
    out_dir: str | Path,
) -> dict:
    """Aggregate per-seed (scores, labels) into the mean/std report.

    Writes report.json plus one ROC and one PR curve CSV per scored
    partition per seed. Partitions that are undefined (empty or
    single-class) for any seed are skipped, listed under
    skipped_partitions, and get no curve files. std is the population
    standard deviation, so a single seed reports 0.
    """
    if not per_seed:
        raise ValidationError("need results from at least one seed")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    partitions: dict[str, dict] = {}
    skipped: dict[str, str] = {}
    names = [name for name in PARTITIONS if any(name in seed for seed in per_seed)]
    for name in names:
        aurocs: list[float] = []
        auprcs: list[float] = []
        curves: list[tuple] = []
        try:
            for k, seed_results in enumerate(per_seed):
                if name not in seed_results:
                    raise MetricError(f"seed {k} has no results for {name}")
                scores, labels = seed_results[name]
                aurocs.append(auroc(scores, labels))
                auprcs.append(auprc(scores, labels))
                curves.append((roc_curve(scores, labels), pr_curve(scores, labels)))
        except MetricError as exc:
            skipped[name] = str(exc)
            continue
        for k, ((fpr, tpr), (recall, precision)) in enumerate(curves):
            _write_curve(out_path / f"{name}_roc_seed{k}.csv", "fpr,tpr", fpr, tpr)
            _write_curve(
                out_path / f"{name}_pr_seed{k}.csv", "recall,precision", recall, precision
            )
        partitions[name] = {
            "auroc_mean": float(np.mean(aurocs)),
            "auroc_std": float(np.std(aurocs)),
            "auprc_mean": float(np.mean(auprcs)),
            "auprc_std": float(np.std(auprcs)),
            "n_pairs": len(per_seed[0][name][1]),
        }
    report = {
        "dataset": dataset,
        "seed_count": len(per_seed),
        "partitions": partitions,
    }
    if skipped:
        report["skipped_partitions"] = skipped
    write_json(out_path / "report.json", report)
    return report


def _write_curve(path: Path, header: str, xs, ys) -> None:
    write_lines(path, [header] + [f"{x:.17g},{yv:.17g}" for x, yv in zip(xs, ys)])
