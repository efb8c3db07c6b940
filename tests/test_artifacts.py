"""The text writers: the bytes of the expressions they replaced, and the one change."""

import json

import pytest

from seqreorder.artifacts import write_json, write_lines
from seqreorder.corpus import parse_dataset, read_protein_list, write_dataset
from seqreorder.synthetic import interaction_corpus, write_sequence_tsv


# The two forms the line files were written in before ``write_lines``: most
# sites added the final newline unconditionally, and the pairs TSVs of
# ``split``, ``embeddings.tsv`` and ``skipped.log`` only after a line.
def _unconditional(lines):
    return ("\n".join(lines) + "\n").encode("utf-8")


def _conditional(lines):
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


LINES = {
    "header-only": ["epoch,step,loss,perm_acc,wall_ms"],
    "one-line": ["pair_id,score,label", "seen_both-000000,0.25,1"],
    "many-line": ["fpr,tpr"]
    + [f"{i / 7:.17g},{i / 9:.17g}" for i in range(40)]
    + ["23\t·", "p1\tline 2: protein sequence is empty"],
}


@pytest.mark.parametrize("name", LINES)
def test_write_lines_writes_the_bytes_of_both_old_forms(tmp_path, name):
    lines = LINES[name]
    write_lines(tmp_path / "out", lines)
    assert (tmp_path / "out").read_bytes() == _unconditional(lines) == _conditional(lines)


def test_write_lines_writes_zero_lines_as_the_conditional_form(tmp_path):
    write_lines(tmp_path / "out", [])
    assert (tmp_path / "out").read_bytes() == _conditional([]) == b""


@pytest.mark.parametrize(
    "obj",
    [{}, {"command": "split", "seed": 0}, {"b": [1, 2.5, None], "a": {"z": "·", "y": True}}],
)
def test_write_json_writes_the_old_bytes(tmp_path, obj):
    write_json(tmp_path / "out.json", obj)
    old = (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")
    assert (tmp_path / "out.json").read_bytes() == old


def test_zero_row_corpus_files_are_empty_and_read_as_zero_rows(tmp_path):
    # the one change of bytes: a zero-row synthetic file was "\n"
    rows = interaction_corpus(num_proteins=2, num_compounds=2, num_pairs=0).rows
    write_dataset(tmp_path / "pairs.tsv", rows)
    write_sequence_tsv(tmp_path / "seqs.tsv", [])
    (tmp_path / "old.tsv").write_bytes(_unconditional([]))
    for name in ("pairs.tsv", "seqs.tsv"):
        assert (tmp_path / name).read_bytes() == b""
    for name in ("pairs.tsv", "seqs.tsv", "old.tsv"):
        assert parse_dataset(tmp_path / name) == []
        assert read_protein_list(tmp_path / name) == []
