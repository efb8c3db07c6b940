"""Bundled synthetic corpora used by the desk-scale experiments."""

from seqreorder.corpus import parse_dataset, write_dataset
from seqreorder.synthetic import (
    corpus_records,
    interaction_corpus,
    motif_sequences,
    write_sequence_tsv,
)


def test_motif_sequences_shape_and_determinism():
    a = motif_sequences(num_sequences=20, n_families=4, block_len=12, seed=5)
    b = motif_sequences(num_sequences=20, n_families=4, block_len=12, seed=5)
    assert a == b
    assert len(a) == 20
    assert all(len(s) == 48 for s in a)
    c = motif_sequences(num_sequences=20, n_families=4, block_len=12, seed=6)
    assert a != c


def test_motif_sequences_families_are_separable():
    # each 12-residue region draws from its own alphabet chunk, so regions
    # from different sequences at the same index share letters far more
    # than regions at different indices
    seqs = motif_sequences(num_sequences=50, n_families=4, block_len=12, seed=0)
    regions = [{s[i * 12 : (i + 1) * 12] for s in seqs} for i in range(4)]
    alphabets = [set("".join(r)) for r in regions]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (alphabets[i] & alphabets[j])


def test_interaction_corpus_label_rule():
    corpus = interaction_corpus(
        num_proteins=30, num_compounds=30, num_pairs=100, seed=1
    )
    assert len(corpus.rows) == 100
    for smiles, seq, label in corpus.rows:
        pc = corpus.protein_classes[seq]
        cc = corpus.compound_classes[smiles]
        assert label == int(pc == cc)
    # both compound grammars appear
    assert set(corpus.compound_classes.values()) == {0, 1}
    assert set(corpus.protein_classes.values()) == {0, 1}


def test_interaction_corpus_deterministic():
    a = interaction_corpus(num_proteins=20, num_compounds=20, num_pairs=50, seed=9)
    b = interaction_corpus(num_proteins=20, num_compounds=20, num_pairs=50, seed=9)
    assert a.rows == b.rows


def test_corpus_files_parse_back(tmp_path):
    corpus = interaction_corpus(num_proteins=15, num_compounds=15, num_pairs=40, seed=2)
    path = tmp_path / "pairs.tsv"
    write_dataset(path, corpus.rows)
    records = parse_dataset(path)
    assert len(records) == 40
    assert [r.label for r in records] == [row[2] for row in corpus.rows]
    in_memory = corpus_records(corpus)
    assert [r.compound.smiles for r in records] == [r.compound.smiles for r in in_memory]

    seq_path = tmp_path / "seqs.tsv"
    write_sequence_tsv(seq_path, motif_sequences(num_sequences=5, seed=0))
    lines = seq_path.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("seq00000\t")
