"""Tokenization and dataset ingestion for compound-protein interaction data.

Both vocabularies are module constants. Proteins are tokenized by
``RESIDUE_TO_ID``: 22 canonical single-letter codes (the 20 standard
amino acids plus U and O) and one unknown class that absorbs every other
letter, 23 residue classes in all, with the pad and mask ids above them
(``RESIDUE_VOCAB_SIZE`` ids). SMILES strings are tokenized character-wise
by ``SMILES_TO_ID`` over a fixed printable character set.

Interaction files are tab-separated ``smiles<TAB>sequence<TAB>label`` with
one record per line and an optional header row; the columns and the
delimiter are fixed. Protein-list files hold one ``id<TAB>sequence`` or
bare sequence per line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .artifacts import read_text, write_lines
from .errors import ParseError, ValidationError

# 22 canonical residue letters, alphabetical. Everything else -> unknown.
CANONICAL_RESIDUES = "ACDEFGHIKLMNOPQRSTUVWY"
UNKNOWN_RESIDUE_CHAR = "X"
PAD_CHAR = "·"  # middle dot
MASK_CHAR = "#"

# Residue ids 0..21 follow CANONICAL_RESIDUES; the unknown class, pad and
# mask take the next three.
RESIDUE_TO_ID = {ch: i for i, ch in enumerate(CANONICAL_RESIDUES)}
RESIDUE_UNKNOWN_ID = len(CANONICAL_RESIDUES)
RESIDUE_PAD_ID = RESIDUE_UNKNOWN_ID + 1
RESIDUE_MASK_ID = RESIDUE_PAD_ID + 1
RESIDUE_VOCAB_SIZE = RESIDUE_MASK_ID + 1

DEFAULT_MAX_RESIDUES = 1200
DEFAULT_MAX_ATOMS = 290

# Fixed printable SMILES alphabet: organic/inorganic element letters,
# aromatic lowercase, ring-bond digits, and structural punctuation.
SMILES_CHARS = (
    "#$%()*+-./0123456789:=@[\\]"
    "ABCDEFGHIKLMNOPRSTUVWXYZ"
    "abcdefghilmnoprstuy"
)

SMILES_TO_ID = {ch: i for i, ch in enumerate(SMILES_CHARS)}
SMILES_UNKNOWN_ID = len(SMILES_CHARS)
SMILES_PAD_ID = SMILES_UNKNOWN_ID + 1
SMILES_VOCAB_SIZE = SMILES_PAD_ID + 1


@dataclass
class ProteinRecord:
    """An uppercased residue string plus its token ids (tail-truncated)."""

    raw: str
    tokens: list[int]


@dataclass
class CompoundRecord:
    """A verbatim SMILES string plus its character token ids."""

    smiles: str
    tokens: list[int]


@dataclass
class InteractionRecord:
    compound: CompoundRecord
    protein: ProteinRecord
    label: int


def encode_protein(raw: str, l_max: int = DEFAULT_MAX_RESIDUES) -> ProteinRecord:
    """Tokenize a residue string.

    Case is normalized to uppercase before lookup; letters outside the
    canonical set collapse to the unknown class; anything beyond ``l_max``
    residues is dropped from the tail. The stored ``raw`` string is the
    full uppercased input (truncation applies to tokens only).
    """
    if not raw:
        raise ValidationError("protein sequence is empty")
    if l_max < 1:
        raise ValidationError(f"l_max must be >= 1, got {l_max}")
    upper = raw.upper()
    tokens = [RESIDUE_TO_ID.get(ch, RESIDUE_UNKNOWN_ID) for ch in upper[:l_max]]
    return ProteinRecord(raw=upper, tokens=tokens)


def encode_smiles(raw: str, max_atoms: int = DEFAULT_MAX_ATOMS) -> CompoundRecord:
    """Tokenize a SMILES string character-wise, truncating past max_atoms."""
    if not raw:
        raise ValidationError("SMILES string is empty")
    if max_atoms < 1:
        raise ValidationError(f"max_atoms must be >= 1, got {max_atoms}")
    tokens = [SMILES_TO_ID.get(ch, SMILES_UNKNOWN_ID) for ch in raw[:max_atoms]]
    return CompoundRecord(smiles=raw, tokens=tokens)


def parse_dataset(
    path: str | Path,
    header: bool = False,
    l_max: int = DEFAULT_MAX_RESIDUES,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> list[InteractionRecord]:
    """Parse an interaction TSV into records, preserving file order.

    With ``header`` the first line is skipped; columns past the third are
    ignored. Raises ParseError for a structurally bad row and
    ValidationError for a row whose fields fail encoding (empty sequence,
    label outside {0,1}); both name the offending 1-based line number.
    """
    records: list[InteractionRecord] = []
    # read_text translates every newline convention to "\n"
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if header and lineno == 1:
            continue
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise ParseError(
                f"{path} line {lineno}: expected at least 3 "
                f"columns, got {len(fields)}"
            )
        label_text = fields[2].strip()
        try:
            label_value = float(label_text)
        except ValueError:
            raise ParseError(
                f"{path} line {lineno}: label {label_text!r} is not a number"
            ) from None
        if label_value not in (0.0, 1.0):
            raise ValidationError(
                f"{path} line {lineno}: label must be 0 or 1, got {label_text!r}"
            )
        try:
            compound = encode_smiles(fields[0].strip(), max_atoms)
            protein = encode_protein(fields[1].strip(), l_max)
        except ValidationError as exc:
            raise ValidationError(f"{path} line {lineno}: {exc}") from None
        records.append(
            InteractionRecord(compound=compound, protein=protein, label=int(label_value))
        )
    return records


def write_dataset(path: str | Path, rows: Sequence[tuple[str, str, int]]) -> None:
    """(smiles, sequence, label) rows as the interaction TSV ``parse_dataset`` reads."""
    write_lines(path, [f"{smiles}\t{seq}\t{label}" for smiles, seq, label in rows])


def read_protein_list(path: str | Path) -> list[tuple[int, str, str]]:
    """Rows of a protein-list file as (1-based line number, id, sequence).

    A line holding a tab is ``id<TAB>sequence`` (columns past the second
    are ignored); any other line is a bare sequence. A row with no id is
    named ``row<line number>``. Lines are split on tab before each field
    is stripped of surrounding whitespace, so ``id<TAB>`` is a row with an
    empty sequence; a line whose fields are all blank is skipped.
    Sequences are not encoded here, so each caller applies its own policy
    to a row that fails encoding.
    """
    rows = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        fields = [f.strip() for f in line.split("\t")]
        if not any(fields):
            continue
        if len(fields) > 1:
            rows.append((lineno, fields[0] or f"row{lineno}", fields[1]))
        else:
            rows.append((lineno, f"row{lineno}", fields[0]))
    return rows


@dataclass
class PretrainDataset:
    """The protein multiset used for pretraining.

    When built for a downstream task this must come from the training split
    only (use ``from_interactions`` on the train records), so no test
    protein leaks into pretraining.
    """

    proteins: list[ProteinRecord] = field(default_factory=list)

    @classmethod
    def from_interactions(cls, records: Sequence[InteractionRecord]) -> "PretrainDataset":
        proteins, seen = [], set()
        for r in records:
            if r.protein.raw not in seen:
                seen.add(r.protein.raw)
                proteins.append(r.protein)
        return cls(proteins=proteins)

    def __len__(self) -> int:
        return len(self.proteins)


def write_vocab_table(path: str | Path) -> None:
    """Emit the id<TAB>char table of the residue vocabulary for auditing."""
    chars = CANONICAL_RESIDUES + UNKNOWN_RESIDUE_CHAR + PAD_CHAR + MASK_CHAR
    write_lines(path, [f"{i}\t{ch}" for i, ch in enumerate(chars)])
