"""The determinism contract as a check: the README walkthrough's files, hashed.

Every file the README walkthrough writes is hashed after the fields that
describe the run rather than its result are dropped: the ``wall_ms``
column of the step logs, and the ``workers``, ``blas_threads`` and
``peak_rss_mb`` fields of ``run_meta.json``. The hashes are compared with
the entry in ``fingerprint.json`` for this numpy version and OpenBLAS
core, since kernels differ by CPU; a key with no entry skips, naming it.
``test_cli::test_gradcheck_passes_on_every_seed`` compares the hash of the
``gradcheck --seed 0..29`` lines with the same entry.

A change meant to move bits rewrites this machine's entry with

    PYTHONPATH=src python tests/test_fingerprint.py --rewrite

and says in CHANGES.md which files changed, and why.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from seqreorder.cli import main

FINGERPRINT = Path(__file__).with_name("fingerprint.json")

# the README walkthrough, with its relative paths and sizes
WALKTHROUGH = [
    "synth cpi --out-file pairs.tsv --num-proteins 120 --num-compounds 120 --num-pairs 400 --seed 7",
    "split --data pairs.tsv --seed 0 --out runs/split",
    "pretrain --data runs/split/train.tsv --n 4 --l-max 48 --embed-dim 32 --layers 2 --heads 4"
    " --ffn-dim 64 --epochs 4 --lr 1e-3 --batch-size 32 --out runs/pretrain",
    "finetune --train runs/split/train.tsv --valid runs/split/valid.tsv"
    " --checkpoint runs/pretrain/best.ckpt"
    " --test seen_both=runs/split/test_seen_both.tsv"
    " --test unseen_comp=runs/split/test_unseen_comp.tsv"
    " --test unseen_prot=runs/split/test_unseen_prot.tsv"
    " --test unseen_both=runs/split/test_unseen_both.tsv"
    " --epochs 10 --lr 3e-3 --batch-size 32 --seed 0 --out runs/ft-seed0",
    "evaluate --run runs/ft-seed0 --dataset-name demo --out runs/report",
    "synth motif --out-file motif.tsv --num 50",
    "export-embeddings --checkpoint runs/pretrain/best.ckpt --proteins motif.tsv --out runs/embed",
]
GRADCHECK_SEEDS = range(30)
# run_meta.json fields that describe the machine a run took place on
MACHINE_FIELDS = ("workers", "blas_threads", "peak_rss_mb")


def blas_core() -> str | None:
    """The CPU core name numpy's bundled OpenBLAS picked its kernels for, or None."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def key() -> str:
    return f"numpy {np.__version__}, OpenBLAS {blas_core()}"


def stored_entry() -> dict:
    """This machine's entry in fingerprint.json; skips the test where there is none."""
    entries = json.loads(FINGERPRINT.read_text(encoding="utf-8"))
    if key() not in entries:
        pytest.skip(f"fingerprint.json has no entry for {key()!r}")
    return entries[key()]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _result_bytes(path: Path) -> bytes:
    """The file's bytes without its wall-clock column or machine fields."""
    data = path.read_bytes()
    if path.name == "run_meta.json":
        meta = json.loads(data)
        return json.dumps({k: v for k, v in meta.items() if k not in MACHINE_FIELDS}).encode()
    lines = data.split(b"\n")
    header = lines[0].split(b",")
    if path.suffix == ".csv" and b"wall_ms" in header:
        col = header.index(b"wall_ms")
        return b"\n".join(
            b",".join(c for i, c in enumerate(line.split(b",")) if i != col) for line in lines
        )
    return data


def walkthrough_digests() -> dict[str, str]:
    """sha256 of every file the walkthrough writes, run in the current directory."""
    root = Path.cwd()
    for command in WALKTHROUGH:
        assert _run(command.split())[0] == 0, command
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(_result_bytes(path)).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def gradcheck_lines() -> dict[int, list[str]]:
    """The lines ``gradcheck --seed s`` prints, for each seed."""
    lines = {seed: _run(["gradcheck", "--seed", str(seed)])[1].splitlines() for seed in GRADCHECK_SEEDS}
    assert all(len(out) == 4 for out in lines.values())
    return lines


def gradcheck_digest(lines: dict[int, list[str]]) -> str:
    return hashlib.sha256("\n".join(sum(lines.values(), [])).encode()).hexdigest()


def test_readme_walkthrough_keeps_its_bits(tmp_path, monkeypatch):
    want = stored_entry()["walkthrough"]
    monkeypatch.chdir(tmp_path)
    got = walkthrough_digests()
    assert sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name)) == []


def _rewrite() -> None:
    entries = json.loads(FINGERPRINT.read_text(encoding="utf-8")) if FINGERPRINT.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            walkthrough = walkthrough_digests()
        finally:
            os.chdir(home)
    lines = gradcheck_lines()
    failed = [line for out in lines.values() for line in out if not line.startswith("PASS")]
    if failed:
        raise SystemExit("gradcheck failed:\n" + "\n".join(failed))
    entries[key()] = {"gradcheck": gradcheck_digest(lines), "walkthrough": walkthrough}
    FINGERPRINT.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote the entry for {key()!r} to {FINGERPRINT}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        raise SystemExit(f"usage: python {sys.argv[0]} --rewrite")
    _rewrite()
