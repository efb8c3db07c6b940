"""Bundled synthetic corpora so every end-to-end run is self-contained.

The motif corpus builds proteins from ``n`` ordered families: position i
of every sequence is drawn from family i's own residue alphabet, so block
content identifies a block's original region. Every family block has
the same length; at f_max (sequence length n * f_max) that pins the
random cutter to equal cuts and makes the reordering task cleanly
learnable at tiny scale.

The interaction corpus adds a hidden binary motif variant to two separate
regions of each protein and splits compounds into two string families
(aliphatic chains vs. aromatic rings). A pair interacts exactly when the
protein's two variants agree and the compound is aromatic, or the variants
disagree and the compound is aliphatic — so the label depends on motif
co-occurrence across distant subsequences, not on any single residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_lines
from .corpus import (
    CANONICAL_RESIDUES,
    InteractionRecord,
    encode_protein,
    encode_smiles,
)
from .errors import ValidationError


def _check_sizes(low: int, **sizes: int) -> None:
    for name, value in sizes.items():
        if value < low:
            raise ValidationError(f"{name} must be >= {low}, got {value}")


def _family_alphabets(n_families: int) -> list[str]:
    if not 1 <= n_families <= len(CANONICAL_RESIDUES):
        raise ValidationError(
            f"n_families must be in [1, {len(CANONICAL_RESIDUES)}], got {n_families}"
        )
    letters = CANONICAL_RESIDUES
    bounds = np.linspace(0, len(letters), n_families + 1).astype(int)
    return [letters[bounds[i] : bounds[i + 1]] for i in range(n_families)]


def motif_sequences(
    num_sequences: int,
    n_families: int = 4,
    block_len: int = 12,
    seed: int = 0,
) -> list[str]:
    """Sequences made of n ordered motif blocks with disjoint alphabets.

    Every block is exactly block_len residues.
    """
    _check_sizes(1, num_sequences=num_sequences, block_len=block_len)
    families = _family_alphabets(n_families)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(num_sequences):
        parts = []
        for fam in families:
            idx = rng.integers(0, len(fam), size=block_len)
            parts.append("".join(fam[i] for i in idx))
        out.append("".join(parts))
    return out


# ---------------------------------------------------------------------------
# interaction corpus
# ---------------------------------------------------------------------------

_N_REGIONS = 4
_REGION_LEN = 12
_VARIANT_REGION_A = 1
_VARIANT_REGION_B = 3
_VARIANT_BIAS = 0.85
_CHAIN_ATOMS = ("C", "C", "C", "O", "N", "CC", "C(C)", "C(=O)")
_RING_DECOR = ("C", "O", "N", "CC", "Cl", "F", "C(C)")


def _variant_letters(fam: str) -> tuple[str, str]:
    # two disjoint letter pools inside one family alphabet
    half = max(1, len(fam) // 2)
    return fam[:half], fam[half:] or fam[:half]


def _motif_protein(
    rng: np.random.Generator,
    families: list[str],
    variant_a: int,
    variant_b: int,
) -> str:
    parts = []
    for region, fam in enumerate(families):
        pool_lo, pool_hi = _variant_letters(fam)
        if region == _VARIANT_REGION_A:
            pool = pool_hi if variant_a else pool_lo
        elif region == _VARIANT_REGION_B:
            pool = pool_hi if variant_b else pool_lo
        else:
            pool = fam
        chars = []
        for _ in range(_REGION_LEN):
            use = pool if (pool is fam or rng.random() < _VARIANT_BIAS) else fam
            chars.append(use[int(rng.integers(0, len(use)))])
        parts.append("".join(chars))
    return "".join(parts)


def _chain_smiles(rng: np.random.Generator) -> str:
    k = int(rng.integers(6, 14))
    return "C" + "".join(
        _CHAIN_ATOMS[int(rng.integers(0, len(_CHAIN_ATOMS)))] for _ in range(k)
    )


def _ring_smiles(rng: np.random.Generator) -> str:
    k = int(rng.integers(1, 5))
    decor = "".join(_RING_DECOR[int(rng.integers(0, len(_RING_DECOR)))] for _ in range(k))
    if rng.random() < 0.5:
        return f"c1ccccc1{decor}"
    return f"{decor}c1ccc(C)cc1"


@dataclass
class InteractionCorpus:
    """Generated (smiles, sequence, label) rows plus the hidden attributes,
    keyed by the entity strings that appear in the rows."""

    rows: list[tuple[str, str, int]]
    protein_classes: dict[str, int]
    compound_classes: dict[str, int]


def interaction_corpus(
    num_proteins: int = 400,
    num_compounds: int = 400,
    num_pairs: int = 1200,
    seed: int = 0,
) -> InteractionCorpus:
    """A CPI task whose labels need cross-region motif co-occurrence.

    label = 1 iff (variant_a == variant_b) matches (compound is aromatic).
    """
    _check_sizes(1, num_proteins=num_proteins, num_compounds=num_compounds)
    _check_sizes(0, num_pairs=num_pairs)  # zero pairs make an empty corpus file
    if num_pairs > num_proteins * num_compounds:
        raise ValidationError("more pairs requested than distinct (compound, protein) combos")
    rng = np.random.default_rng(seed)
    families = _family_alphabets(_N_REGIONS)

    proteins: list[str] = []
    protein_classes: list[int] = []
    seen_p: set[str] = set()
    while len(proteins) < num_proteins:
        a = int(rng.integers(0, 2))
        b = int(rng.integers(0, 2))
        seq = _motif_protein(rng, families, a, b)
        if seq in seen_p:
            continue
        seen_p.add(seq)
        proteins.append(seq)
        protein_classes.append(int(a == b))

    compounds: list[str] = []
    compound_classes: list[int] = []
    seen_c: set[str] = set()
    while len(compounds) < num_compounds:
        cls = int(rng.integers(0, 2))
        smiles = _ring_smiles(rng) if cls else _chain_smiles(rng)
        if smiles in seen_c:
            continue
        seen_c.add(smiles)
        compounds.append(smiles)
        compound_classes.append(cls)

    combo = rng.choice(num_proteins * num_compounds, size=num_pairs, replace=False)
    rows = []
    for flat in combo:
        pi, ci = divmod(int(flat), num_compounds)
        label = int(protein_classes[pi] == compound_classes[ci])
        rows.append((compounds[ci], proteins[pi], label))
    return InteractionCorpus(
        rows=rows,
        protein_classes=dict(zip(proteins, protein_classes)),
        compound_classes=dict(zip(compounds, compound_classes)),
    )


def corpus_records(corpus: InteractionCorpus) -> list[InteractionRecord]:
    return [
        InteractionRecord(encode_smiles(s), encode_protein(q), y)
        for s, q, y in corpus.rows
    ]


def write_sequence_tsv(path: str | Path, sequences: list[str]) -> None:
    """id<TAB>sequence rows for pretraining-only corpora."""
    write_lines(path, [f"seq{i:05d}\t{s}" for i, s in enumerate(sequences)])
