"""What importing the package loads, and what each module imports."""

import ast
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


def _unused_imports(path):
    """(line, name) of each import in ``path`` that the file never reads.

    A name is read when it appears as a name or as a function argument (a
    pytest fixture). ``__future__`` imports and lines marked ``# noqa: F401``
    are skipped.
    """
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return unused


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    files = sorted(root.glob("src/seqreorder/*.py")) + sorted(root.glob("tests/*.py"))
    unused = [
        f"{path.relative_to(root)}:{line} {name}"
        for path in files
        for line, name in _unused_imports(path)
    ]
    assert unused == []
