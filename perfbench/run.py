"""Run one seqreorder benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pretrain-desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` there, never from an installed copy. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones). The line before it is the environment record. Scratch files and
span dumps go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("pretrain-paper", "pretrain-desk", "walkthrough")

# Fixed so that timings do not depend on what else the machine runs; a
# paper-shape step takes ~3.2 s at one thread and ~2.4 s at two.
BLAS_THREADS = 1
_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _git_sha() -> str | None:
    """HEAD's commit from the .git directory, if the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqreorder" / "__init__.py").is_file():
        print(f"error: no seqreorder sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > nproc:
        print(f"error: {BLAS_THREADS} BLAS threads but only {nproc} CPUs", file=sys.stderr)
        return 2
    for name in _THREAD_VARIABLES:  # before numpy is imported
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import seqreorder
    import workloads

    import_s = time.perf_counter() - start
    if Path(seqreorder.__file__).resolve().parent != SRC / "seqreorder":
        print(f"error: seqreorder imported from {seqreorder.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    try:
        result, record = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir,
            import_s=import_s, spans_path=spans,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["environment"] = environment()
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
