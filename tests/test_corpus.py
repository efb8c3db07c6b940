"""Vocabulary, record encoding, and TSV parsing."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqreorder.corpus import (
    CANONICAL_RESIDUES,
    DEFAULT_MAX_RESIDUES,
    RESIDUE_MASK_ID,
    RESIDUE_PAD_ID,
    RESIDUE_TO_ID,
    RESIDUE_UNKNOWN_ID,
    RESIDUE_VOCAB_SIZE,
    SMILES_TO_ID,
    SMILES_UNKNOWN_ID,
    PretrainDataset,
    encode_protein,
    encode_smiles,
    parse_dataset,
    read_protein_list,
    write_vocab_table,
)
from seqreorder.errors import ParseError, ValidationError


def test_vocabulary_counts():
    assert len(CANONICAL_RESIDUES) == 22
    assert RESIDUE_VOCAB_SIZE == 25  # 22 letters, unknown, pad and mask
    ids = [RESIDUE_TO_ID[c] for c in CANONICAL_RESIDUES]
    assert sorted(ids) == list(range(22))
    specials = {RESIDUE_UNKNOWN_ID, RESIDUE_PAD_ID, RESIDUE_MASK_ID}
    assert len(specials | set(ids)) == 25


def test_unknown_characters_collapse():
    unknown = encode_protein("XBZ").tokens
    assert unknown == [RESIDUE_UNKNOWN_ID] * 3
    assert encode_protein("A").tokens != [RESIDUE_UNKNOWN_ID]


def test_encode_protein_uppercases_and_truncates():
    seq = "acd" + "M" * 1300
    record = encode_protein(seq)
    assert record.raw == seq.upper()
    assert len(record.raw) == 1303
    assert len(record.tokens) == DEFAULT_MAX_RESIDUES
    assert record.tokens[0] == RESIDUE_TO_ID["A"]


def test_encode_protein_rejects_empty():
    with pytest.raises(ValidationError):
        encode_protein("")


@given(st.text(alphabet=CANONICAL_RESIDUES, min_size=1, max_size=200))
def test_decode_roundtrip(seq):
    record = encode_protein(seq)
    assert "".join(CANONICAL_RESIDUES[t] for t in record.tokens) == seq


def test_encode_smiles_known_and_unknown():
    record = encode_smiles("CC(=O)O")
    assert record.smiles == "CC(=O)O"
    assert list(record.tokens) == [SMILES_TO_ID[c] for c in "CC(=O)O"]
    weird = encode_smiles("C~C")  # '~' is not in the table
    assert weird.tokens[1] == SMILES_UNKNOWN_ID


def test_encode_smiles_preserves_case():
    aromatic = encode_smiles("c1ccccc1")
    aliphatic = encode_smiles("C1CCCCC1")
    assert list(aromatic.tokens) != list(aliphatic.tokens)


def _write(tmp_path, text, name="data.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_dataset_basic(tmp_path):
    path = _write(tmp_path, "CCO\tMKV\t1\nCCN\tacd\t0\n")
    records = parse_dataset(path)
    assert len(records) == 2
    assert records[0].compound.smiles == "CCO"
    assert records[0].protein.raw == "MKV"
    assert records[0].label == 1
    assert records[1].protein.raw == "ACD"  # sequences are uppercased
    assert records[1].label == 0


def test_parse_dataset_skips_blank_lines_and_header(tmp_path):
    path = _write(tmp_path, "smiles\tseq\tlabel\nCCO\tMKV\t1\n\nCCN\tMKL\t0\n")
    records = parse_dataset(path, header=True)
    assert len(records) == 2


def test_parse_dataset_float_labels(tmp_path):
    path = _write(tmp_path, "CCO\tMKV\t1.0\nCCN\tMKL\t0.0\n")
    records = parse_dataset(path)
    assert [r.label for r in records] == [1, 0]


def test_parse_dataset_errors_name_the_line(tmp_path):
    path = _write(tmp_path, "CCO\tMKV\t1\nCCN\tMKL\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_dataset(path)

    path = _write(tmp_path, "CCO\tMKV\tyes\n", name="bad_label.tsv")
    with pytest.raises(ParseError, match="line 1"):
        parse_dataset(path)

    path = _write(tmp_path, "CCO\tMKV\t1\nCCN\tMKL\t2\n", name="out_of_range.tsv")
    with pytest.raises(ValidationError, match="line 2"):
        parse_dataset(path)


def test_parse_dataset_errors_name_the_path_as_given(tmp_path):
    # two files with one name: only the path says which one is bad
    for part, text in (("a", "CCO\tMKV\t1\n"), ("b", "CCO\tMKV\t1\nCCN\tMKL\n")):
        (tmp_path / part).mkdir()
        _write(tmp_path / part, text, name="train.tsv")
    parse_dataset(tmp_path / "a" / "train.tsv")
    with pytest.raises(ParseError, match=re.escape(f"{tmp_path / 'b' / 'train.tsv'} line 2")):
        parse_dataset(tmp_path / "b" / "train.tsv")


def test_parse_dataset_entity_counts(tmp_path):
    # file with a known number of distinct compounds and proteins; the
    # parser must keep entity strings verbatim so the counts survive
    n_smiles, n_proteins = 4510, 2181
    letters = CANONICAL_RESIDUES[:20]
    lines = []
    for i in range(n_smiles):
        smiles = "C" + str(i)
        j = i % n_proteins
        seq = "M" + "".join(letters[(j // 20**k) % 20] for k in range(3))
        lines.append(f"{smiles}\t{seq}\t{i % 2}")
    path = _write(tmp_path, "\n".join(lines) + "\n")
    records = parse_dataset(path)
    assert len(records) == n_smiles
    assert len({r.compound.smiles for r in records}) == n_smiles
    assert len({r.protein.raw for r in records}) == n_proteins


def test_parse_is_pure(tmp_path):
    path = _write(tmp_path, "CCO\tMKV\t1\n")
    a = parse_dataset(path)
    b = parse_dataset(path)
    assert a[0].compound.smiles == b[0].compound.smiles
    assert np.array_equal(a[0].protein.tokens, b[0].protein.tokens)


def test_read_protein_list_takes_both_line_forms_and_skips_blank_lines(tmp_path):
    path = _write(
        tmp_path,
        "p1\tMKV\n\n   \n  mkl  \np3\tACD\textra\r\nbad\t\tWY\np5\t\n p6 \t WY \n\tMK\n",
        name="proteins.tsv",
    )
    assert read_protein_list(path) == [
        (1, "p1", "MKV"),
        (4, "row4", "mkl"),  # a bare sequence is named by its line; case is kept
        (5, "p3", "ACD"),
        (6, "bad", ""),  # an empty sequence is left for the caller to reject
        (7, "p5", ""),  # a trailing tab keeps its row's id, not a sequence "p5"
        (8, "p6", "WY"),  # each field is stripped after the split
        (9, "row9", "MK"),  # a row with no id is named by its line
    ]
    # a line of blank fields is a blank line too, not a row with no sequence
    assert read_protein_list(_write(tmp_path, "\n \t \n\t\n", name="blank.tsv")) == []


def test_pretrain_dataset_from_interactions(tmp_path):
    path = _write(tmp_path, "CCO\tMKV\t1\nCCN\tMKV\t0\nCCC\tMKL\t1\n")
    records = parse_dataset(path)
    dataset = PretrainDataset.from_interactions(records)
    # duplicate proteins collapse
    assert len(dataset) == 2
    assert {p.raw for p in dataset.proteins} == {"MKV", "MKL"}


def test_write_vocab_table(tmp_path):
    path = tmp_path / "vocab.tsv"
    write_vocab_table(path)
    # the table is an artifact of every split and pretrain run: its bytes are fixed
    expected = "".join(f"{i}\t{ch}\n" for i, ch in enumerate("ACDEFGHIKLMNOPQRSTUVWYX·#"))
    assert path.read_bytes() == expected.encode("utf-8")
