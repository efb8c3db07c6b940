"""Scenario splitting, ranking metrics, and the evaluation report."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqreorder.corpus import InteractionRecord, encode_protein, encode_smiles
from seqreorder.errors import MetricError, ValidationError
from seqreorder.evaluation import (
    PARTITIONS,
    auprc,
    auroc,
    emit_report,
    pr_curve,
    roc_curve,
    split_scenarios,
)


def _record(smiles, seq, label):
    return InteractionRecord(
        compound=encode_smiles(smiles), protein=encode_protein(seq), label=label
    )


def _corpus(n_compounds=12, n_proteins=10, n_pairs=80, seed=0):
    rng = np.random.default_rng(seed)
    smiles = ["C" + "C" * i for i in range(n_compounds)]
    seqs = ["MK" + "ACDEFGHIKLMNPQRSTVWY"[i % 20] * 4 for i in range(n_proteins)]
    picked = rng.choice(n_compounds * n_proteins, size=n_pairs, replace=False)
    return [
        _record(smiles[flat // n_proteins], seqs[flat % n_proteins], int(rng.integers(2)))
        for flat in picked
    ]


def test_split_covers_and_is_disjoint():
    records = _corpus()
    split = split_scenarios(records, (0.7, 0.1, 0.2), seed=1)
    groups = [split.train, split.valid] + [split.test_partitions[p] for p in PARTITIONS]
    assert sum(len(g) for g in groups) == len(records)
    seen = set()
    for group in groups:
        for r in group:
            key = (r.compound.smiles, r.protein.raw, r.label)
            assert key not in seen or True  # duplicates in the corpus stay distinct rows
        seen.update(id(r) for r in group)
    assert len(seen) == len(records)


def test_split_partition_membership_rules():
    records = _corpus(seed=3)
    split = split_scenarios(records, (0.6, 0.1, 0.3), seed=3)
    train_comp = {r.compound.smiles for r in split.train}
    train_prot = {r.protein.raw for r in split.train}
    for r in split.test_partitions["seen_both"]:
        assert r.compound.smiles in train_comp and r.protein.raw in train_prot
    for r in split.test_partitions["unseen_comp"]:
        assert r.compound.smiles not in train_comp and r.protein.raw in train_prot
    for r in split.test_partitions["unseen_prot"]:
        assert r.compound.smiles in train_comp and r.protein.raw not in train_prot
    for r in split.test_partitions["unseen_both"]:
        assert r.compound.smiles not in train_comp and r.protein.raw not in train_prot


def test_split_is_deterministic_and_seed_sensitive():
    records = _corpus()
    a = split_scenarios(records, seed=5)
    b = split_scenarios(records, seed=5)
    assert [id(r) for r in a.train] == [id(r) for r in b.train]
    c = split_scenarios(records, seed=6)
    assert [id(r) for r in a.train] != [id(r) for r in c.train]


def test_split_test_property_concatenates_in_order():
    records = _corpus(seed=2)
    split = split_scenarios(records, seed=2)
    expected = []
    for name in PARTITIONS:
        expected.extend(split.test_partitions[name])
    assert split.test == expected


def test_split_validates_ratios():
    records = _corpus()
    with pytest.raises(ValidationError):
        split_scenarios(records, (0.5, 0.2, 0.2))
    with pytest.raises(ValidationError):
        split_scenarios(records, (-0.1, 0.6, 0.5))
    with pytest.raises(ValidationError):
        split_scenarios([], (0.7, 0.1, 0.2))


def test_split_refuses_a_non_finite_ratio():
    # a NaN passes both the sign and the sum check
    with pytest.raises(ValidationError, match="ratios must be finite"):
        split_scenarios(_corpus(), (float("nan"), 0.1, 0.2))


def _auroc_by_pair_counting(scores, labels):
    """Probability a random positive outranks a random negative (ties 1/2)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auroc_hand_value():
    assert auroc([0.8, 0.7, 0.6, 0.5], [1, 0, 1, 0]) == pytest.approx(0.75)


def test_auroc_perfect_and_inverted():
    assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auroc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0


def test_auroc_ties_average():
    assert auroc([0.5, 0.5], [1, 0]) == 0.5
    # pairs: 0.7>0.5, 0.7>0.3, 0.5=0.5 (half credit), 0.5>0.3 -> 3.5/4
    assert auroc([0.7, 0.5, 0.5, 0.3], [1, 1, 0, 0]) == pytest.approx(0.875)


@settings(max_examples=80, deadline=None)
@given(
    labels=st.lists(st.integers(0, 1), min_size=2, max_size=30),
    seed=st.integers(0, 10**6),
)
def test_auroc_matches_pair_counting(labels, seed):
    if len(set(labels)) < 2:
        return
    rng = np.random.default_rng(seed)
    scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=len(labels))  # force ties
    assert auroc(scores, labels) == pytest.approx(
        _auroc_by_pair_counting(scores, labels), abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_auroc_invariant_to_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=20)
    if len(set(labels.tolist())) < 2:
        return
    scores = rng.normal(size=20)
    transformed = np.exp(scores * 2.0 + 1.0)  # strictly increasing map
    assert auroc(scores, labels) == pytest.approx(auroc(transformed, labels), abs=1e-12)


def test_auroc_rejects_single_class():
    with pytest.raises(MetricError):
        auroc([0.4, 0.6], [1, 1])
    with pytest.raises(MetricError):
        auroc([0.4, 0.6], [0, 0])


def test_auprc_hand_values():
    # ranked best-first: positive, negative, positive ->
    # precision at the hits is 1/1 and 2/3; average = 5/6
    assert auprc([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(5 / 6)
    # a single positive at rank k gives exactly 1/k
    assert auprc([0.9, 0.8, 0.7], [0, 0, 1]) == pytest.approx(1 / 3)
    assert auprc([0.9, 0.8, 0.7], [1, 0, 0]) == pytest.approx(1.0)


def test_auprc_requires_a_positive():
    with pytest.raises(MetricError):
        auprc([0.5, 0.6], [0, 0])


def _ap_brute_force(scores, labels):
    """Average precision via explicit rank walk (stable tie order)."""
    order = np.lexsort((np.arange(len(scores)), -np.asarray(scores, dtype=float)))
    hits, total, ap = 0, 0, 0.0
    for rank, idx in enumerate(order, 1):
        total += 1
        if labels[idx] == 1:
            hits += 1
            ap += hits / rank
    return ap / hits


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.integers(0, 1), min_size=1, max_size=25),
    seed=st.integers(0, 10**6),
)
def test_auprc_matches_rank_walk(labels, seed):
    if 1 not in labels:
        return
    rng = np.random.default_rng(seed)
    scores = rng.choice([0.2, 0.4, 0.6, 0.8], size=len(labels))
    assert auprc(scores, labels) == pytest.approx(_ap_brute_force(scores, labels), abs=1e-12)


def test_roc_curve_trapezoid_equals_auroc():
    rng = np.random.default_rng(12)
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=50)
    fpr, tpr = roc_curve(scores, labels)
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0
    assert (np.diff(fpr) >= 0).all() and (np.diff(tpr) >= 0).all()
    assert np.trapezoid(tpr, fpr) == pytest.approx(auroc(scores, labels), abs=1e-12)


def test_pr_curve_step_integral_equals_auprc():
    rng = np.random.default_rng(13)
    labels = rng.integers(0, 2, size=40)
    labels[0] = 1
    scores = rng.choice([0.2, 0.4, 0.6, 0.8], size=40)
    recall, precision = pr_curve(scores, labels)
    assert len(recall) == len(precision) == 40
    # step integration: sum precision * delta-recall over the rank walk
    area = float(np.sum(precision * np.diff(np.concatenate([[0.0], recall]))))
    assert area == pytest.approx(auprc(scores, labels), abs=1e-12)


# The four metrics as each ranked its own scores before they shared
# evaluation._ranked: the reference that ranking must reproduce bit for bit.


def _ref_check_binary(scores, labels):
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


def _ref_auroc(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    _ref_check_binary(s, y)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError(f"AUROC undefined: {n_pos} positives and {n_neg} negatives")
    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.size, dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < s.size:
        j = i
        while j < s.size and sorted_s[j] == sorted_s[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _ref_desc_order(scores):
    return np.lexsort((np.arange(scores.size), -scores))


def _ref_auprc(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    _ref_check_binary(s, y)
    n_pos = int((y == 1).sum())
    if n_pos == 0:
        raise MetricError("AUPRC undefined: no positives")
    order = _ref_desc_order(s)
    hits = (y[order] == 1).astype(np.float64)
    tp = np.cumsum(hits)
    precision = tp / np.arange(1, s.size + 1)
    return float(precision[hits == 1].mean())


def _ref_roc_curve(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    _ref_check_binary(s, y)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("ROC curve undefined for single-class labels")
    order = np.argsort(-s, kind="stable")
    sorted_s = s[order]
    sorted_y = y[order]
    distinct = np.flatnonzero(np.r_[sorted_s[1:] != sorted_s[:-1], True])
    tp = np.cumsum(sorted_y == 1)[distinct]
    fp = np.cumsum(sorted_y == 0)[distinct]
    return np.r_[0.0, fp / n_neg], np.r_[0.0, tp / n_pos]


def _ref_pr_curve(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    _ref_check_binary(s, y)
    n_pos = int((y == 1).sum())
    if n_pos == 0:
        raise MetricError("PR curve undefined without positives")
    order = _ref_desc_order(s)
    hits = (y[order] == 1).astype(np.float64)
    tp = np.cumsum(hits)
    return tp / n_pos, tp / np.arange(1, s.size + 1)


def _outcome(metric, scores, labels):
    """What a metric returns, as typed arrays, or the type and text it raises."""
    try:
        out = metric(scores, labels)
    except (MetricError, ValidationError) as exc:
        return type(exc), str(exc)
    parts = out if isinstance(out, tuple) else (out,)
    return [(type(p), np.asarray(p).dtype, np.asarray(p)) for p in parts]


def _reference_instances(seed, count):
    """Seeded (scores, labels) of 1-400 entries; every third has forced ties."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        size = int(rng.integers(1, 401))
        labels = (rng.random(size) < rng.random()).astype(int)
        if k % 3 == 0:
            scores = rng.integers(0, int(rng.integers(1, 9)), size=size) / 8.0
        else:
            scores = rng.normal(size=size)
        yield scores, labels
    yield [], []  # no instances
    yield [0.2, 0.2, 0.7], [1, 1, 1]  # single class
    yield [0.2, 0.7], [0, 0]
    yield [0.2, 0.7], [0, 1, 1]  # shapes differ


@pytest.mark.parametrize(
    "metric, reference",
    [(auroc, _ref_auroc), (auprc, _ref_auprc), (roc_curve, _ref_roc_curve),
     (pr_curve, _ref_pr_curve)],
    ids=["auroc", "auprc", "roc_curve", "pr_curve"],
)
def test_metric_matches_its_reference_bit_for_bit(metric, reference):
    for scores, labels in _reference_instances(seed=20, count=600):
        want = _outcome(reference, scores, labels)
        got = _outcome(metric, scores, labels)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert [(t, d) for t, d, _ in got] == [(t, d) for t, d, _ in want]
        assert all(np.array_equal(g, w) for (_, _, g), (_, _, w) in zip(got, want))


def test_emit_report_aggregates_and_writes_curves(tmp_path):
    rng = np.random.default_rng(3)
    per_seed = []
    for _ in range(3):
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        per_seed.append({"seen_both": (scores, labels)})
    report = emit_report("toy", per_seed, tmp_path)
    stats = report["partitions"]["seen_both"]
    aucs = [auroc(s, l) for s, l in (ps["seen_both"] for ps in per_seed)]
    assert stats["auroc_mean"] == pytest.approx(float(np.mean(aucs)))
    assert stats["auroc_std"] == pytest.approx(float(np.std(aucs)))
    assert stats["n_pairs"] == 30
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk == report
    for k in range(3):
        roc_lines = (tmp_path / f"seen_both_roc_seed{k}.csv").read_text().splitlines()
        assert roc_lines[0] == "fpr,tpr"
        pr_lines = (tmp_path / f"seen_both_pr_seed{k}.csv").read_text().splitlines()
        assert pr_lines[0] == "recall,precision"
        # re-integrating the stored curve reproduces the reported mean pieces
        fpr = [float(row.split(",")[0]) for row in roc_lines[1:]]
        tpr = [float(row.split(",")[1]) for row in roc_lines[1:]]
        assert np.trapezoid(tpr, fpr) == pytest.approx(aucs[k], abs=1e-9)


def test_emit_report_single_seed_has_zero_std(tmp_path):
    scores = np.linspace(0.1, 0.9, 10)
    labels = np.array([0, 1] * 5)
    report = emit_report("toy", [{"seen_both": (scores, labels)}], tmp_path)
    assert report["seed_count"] == 1
    assert report["partitions"]["seen_both"]["auroc_std"] == 0.0


def test_emit_report_skips_undefined_partitions(tmp_path):
    scores = np.linspace(0.1, 0.9, 10)
    report = emit_report(
        "toy",
        [
            {
                "seen_both": (scores, np.array([0, 1] * 5)),
                "unseen_both": (scores, np.ones(10, dtype=int)),  # single class
            }
        ],
        tmp_path,
    )
    assert "seen_both" in report["partitions"]
    assert "unseen_both" not in report["partitions"]
    assert "unseen_both" in report["skipped_partitions"]


def test_emit_report_writes_no_curves_for_a_partition_a_later_seed_skips(tmp_path):
    scores = np.linspace(0.1, 0.9, 10)
    report = emit_report(
        "toy",
        [
            {"seen_both": (scores, np.array([0, 1] * 5))},
            {"seen_both": (scores, np.ones(10, dtype=int))},  # single class
        ],
        tmp_path,
    )
    assert report["partitions"] == {}
    assert "seen_both" in report["skipped_partitions"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
