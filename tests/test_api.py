"""What importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import seqreorder


def _run_python(code, cwd):
    src = str(Path(seqreorder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_package_import_loads_no_module(tmp_path):
    done = _run_python(
        "import sys, seqreorder; print(sorted(m for m in sys.modules if m.startswith('seqreorder.')))",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


_WITHOUT_SCIPY = """
import importlib.abc
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
import seqreorder
from seqreorder.cli import main
from seqreorder.synthetic import motif_sequences, write_sequence_tsv

write_sequence_tsv("seqs.tsv", motif_sequences(num_sequences=12, seed=3))
code = main([
    "pretrain", "--proteins", "seqs.tsv", "--out", "run", "--seed", "3",
    "--epochs", "1", "--batch-size", "4", "--n", "4", "--l-max", "48",
    "--embed-dim", "8", "--layers", "1", "--heads", "2", "--ffn-dim", "16",
])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_pretrain_runs_without_scipy(tmp_path):
    done = _run_python(_WITHOUT_SCIPY, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
