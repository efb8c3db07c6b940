"""What importing the package loads, and what each module imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import seqreorder
from seqreorder import artifacts, pretrain


def _run_python(code, cwd, **env_vars):
    src = str(Path(seqreorder.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, **env_vars)
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


_TINY_FINETUNE = """
from seqreorder.cli import main
from seqreorder.corpus import write_dataset
from seqreorder.synthetic import interaction_corpus

corpus = interaction_corpus(num_proteins=40, num_compounds=40, num_pairs=100, seed=7)
write_dataset("pairs.tsv", corpus.rows)
raise SystemExit(main([
    "finetune", "--train", "pairs.tsv", "--random-init", "--out", "run", "--seed", "0",
    "--epochs", "1", "--batch-size", "32", "--lr", "3e-3", "--n", "4", "--l-max", "48",
    "--embed-dim", "32", "--layers", "1", "--heads", "2", "--ffn-dim", "16",
]))
"""


_TINY_PRETRAIN = """
import json
from pathlib import Path
from seqreorder.cli import main
from seqreorder.synthetic import motif_sequences, write_sequence_tsv

write_sequence_tsv("seqs.tsv", motif_sequences(num_sequences=24, seed=3))
code = main([
    "pretrain", "--proteins", "seqs.tsv", "--out", "run", "--seed", "3",
    "--epochs", "2", "--batch-size", "5", "--n", "4", "--l-max", "48",
    "--embed-dim", "8", "--layers", "1", "--heads", "2", "--ffn-dim", "16",
])
print(code, json.loads(Path("run/run_meta.json").read_text())["workers"])
"""

# the process may then run on one CPU only, so the library runs one worker
_ONE_CPU = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"


def test_blas_thread_count_does_not_change_the_bits(tmp_path):
    # At this size the compound head's products give different bits on
    # two OpenBLAS threads than on one, unless importing the library pins
    # BLAS to one thread.
    ckpts = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        done = _run_python(_TINY_FINETUNE, cwd, OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        ckpts.append((cwd / "run" / "cpi.ckpt").read_bytes())
    assert ckpts[0] == ckpts[1]
    # nor does the worker count that pretraining's micro-batches run on
    ckpts, workers = [], []
    for name, code in (("one-cpu", _ONE_CPU + _TINY_PRETRAIN), ("any-cpu", _TINY_PRETRAIN)):
        cwd = tmp_path / name
        cwd.mkdir()
        done = _run_python(code, cwd)
        assert done.returncode == 0, done.stderr
        workers.append(done.stdout.splitlines()[-1])
        ckpts.append((cwd / "run" / "best.ckpt").read_bytes())
    assert workers[0] == "0 1"
    assert ckpts[0] == ckpts[1]


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


def test_only_artifacts_writes_files():
    root = Path(__file__).resolve().parents[1]
    calls = []
    for path in sorted(root.glob("src/seqreorder/*.py")):
        if path.name == "artifacts.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("write_text", "write_bytes", "open"):
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


_CONCURRENCY_MODULES = ("threading", "concurrent", "multiprocessing", "subprocess")


def _concurrency_uses(tree):
    """(line, name) of each import of a thread or process module, and each ``os.fork``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "os":
                names += [f"os.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "fork":
            names = ["os.fork"]
        else:
            continue
        for name in names:
            if name == "os.fork" or name.split(".")[0] in _CONCURRENCY_MODULES:
                yield node.lineno, name


def test_only_nn_starts_threads():
    # nn forks the one worker process both training phases share; nothing
    # else starts a thread or a process, and nn itself starts no thread
    root = Path(__file__).resolve().parents[1]
    uses = []
    for path in sorted(root.glob("src/seqreorder/*.py")):
        for line, name in _concurrency_uses(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name != "nn.py" or name.split(".")[0] in ("threading", "concurrent"):
                uses.append(f"{path.name}:{line} {name}")
    assert uses == []


def _reads_epoch(node):
    return any(
        "epoch" in getattr(n, "id", getattr(n, "attr", "")) for n in ast.walk(node)
    )


def test_only_the_shared_loop_runs_epochs():
    # both training phases run their epochs through pretrain.train_epochs
    root = Path(__file__).resolve().parents[1]
    found = set()
    for path in sorted(root.glob("src/seqreorder/*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                epoch_loop = isinstance(node, ast.For) and (
                    _reads_epoch(node.target) or _reads_epoch(node.iter)
                )
                epoch_draw = (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) == "default_rng"
                    and any(_reads_epoch(arg) for arg in node.args)
                )
                if epoch_loop or epoch_draw:
                    found.add(f"{path.name} {func.name}")
    assert found == {"pretrain.py train_epochs"}


def test_only_nn_sizes_forwards():
    # one token budget, nn.MAX_TOKENS, sizes every forward, training and
    # inference, in both stacks: no other module keeps a size of its own
    root = Path(__file__).resolve().parents[1]
    found = set()
    for path in sorted(root.glob("src/seqreorder/*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update(
                    f"{path.name} {n.id}"
                    for t in targets
                    for n in ast.walk(t)
                    if isinstance(n, ast.Name) and n.id.endswith(("_TOKENS", "_CHUNK"))
                )
    assert found == {"nn.py MAX_TOKENS"}


def _referrers(name):
    """Each "file function" in src whose code names ``name``; module level counts as "<module>"."""
    root = Path(__file__).resolve().parents[1]
    found = set()
    for path in sorted(root.glob("src/seqreorder/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # ast.walk reaches an outer function first, so the innermost owner wins
                owners.update({node: func.name for node in ast.walk(func)})
        for node in ast.walk(tree):
            if getattr(node, "id", getattr(node, "attr", None)) == name:
                found.add(f"{path.name} {owners.get(node, '<module>')}")
    return found


def test_only_the_table_draw_calls_uniform_init():
    # every init draws its parameter table through nn.draw_params, so
    # nothing else, a checkpoint load included, draws a parameter
    assert _referrers("uniform_init") == {"nn.py draw_params"}


def test_only_the_pretext_example_masks_residues():
    # masking is a train-time step of the pretext example, made in one place
    assert _referrers("RESIDUE_MASK_ID") == {"corpus.py <module>", "augment.py make_pretrain_example"}


def test_pretrain_checkpoint_names_are_the_artifacts_functions():
    # perfbench calls and traces these two names on pretrain
    assert pretrain.save_checkpoint is artifacts.save_checkpoint
    assert pretrain.load_checkpoint is artifacts.load_checkpoint


def _private_definitions(tree):
    """(line, name) of each module-level private function, class or constant in ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_no_unused_private_helpers():
    # a private name must be read somewhere in src besides its own definition
    root = Path(__file__).resolve().parents[1]
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(root.glob("src/seqreorder/*.py"))
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unused = [
        f"{name}:{line} {private}"
        for name, tree in trees.items()
        for line, private in _private_definitions(tree)
        if private not in read
    ]
    assert unused == []


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    files = sorted(root.glob("src/seqreorder/*.py")) + sorted(root.glob("tests/*.py"))
    unused = [
        f"{path.relative_to(root)}:{line} {name}"
        for path in files
        for line, name in _unused_imports(path)
    ]
    assert unused == []
