"""The worker process that runs the second half of every training step."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import seqreorder
from seqreorder import nn
from seqreorder.errors import WorkerError

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="process states are read from /proc"
)


def _exited(pid):
    """Whether process ``pid`` is gone or a zombie: it runs no more."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def _exits_within(pid, seconds):
    deadline = time.monotonic() + seconds
    while not _exited(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


# work functions: module-level, so that they reach the worker by name


def _scaled(params, part):
    """(the pid it ran in, part * each parameter)."""
    return os.getpid(), {key: part * p for key, p in params.items()}


def _dies_on(params, part):
    """A "die" part kills the process it runs in."""
    if part == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return part, {}


class _TwoArgError(Exception):
    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")  # so its pickle cannot be loaded


def _awkward(params, part):
    """An "unsendable" part returns a lambda; an "unreadable" one raises ``_TwoArgError``."""
    if part == "unsendable":
        return (lambda: None), {}
    if part == "unreadable":
        raise _TwoArgError("one", "two")
    return part, {}


def test_the_second_part_runs_in_one_worker_on_the_current_parameters(monkeypatch):
    monkeypatch.setattr(nn, "WORKERS", 2)
    params = {"w": np.arange(6.0).reshape(2, 3), "b": np.array(2.0)}
    (pid, grads), (worker, more) = nn.run_pair(_scaled, params, 1.0, 3.0)
    assert pid == os.getpid() != worker
    assert sorted(more) == ["b", "w"] and more["b"].shape == ()
    for key, p in params.items():
        np.testing.assert_array_equal(grads[key], p)
        np.testing.assert_array_equal(more[key], 3.0 * p)
        assert not more[key].flags.writeable  # views of the shared region
    params["w"] += 1.0  # each call sends the parameters as they are
    _, (again, more) = nn.run_pair(_scaled, params, 1.0, 2.0)
    assert again == worker
    np.testing.assert_array_equal(more["w"], 2.0 * params["w"])
    # a model larger than the shared region needs a new worker
    big = {"w": np.ones(nn._MIN_SHARED_BYTES // 8)}
    _, (bigger, more) = nn.run_pair(_scaled, big, 1.0, 2.0)
    assert bigger != worker and _exited(worker)
    np.testing.assert_array_equal(more["w"], 2.0)


def test_a_process_forked_beside_the_worker_does_not_keep_it_alive(monkeypatch):
    monkeypatch.setattr(nn, "WORKERS", 2)
    nn.run_pair(_scaled, {}, 1.0, 2.0)
    worker = nn._worker.pid
    child = os.fork()
    if child == 0:
        time.sleep(20)
        os._exit(0)
    try:
        start = time.monotonic()
        nn.stop_worker()  # the worker sees EOF though the child lives on
        assert time.monotonic() - start < 5.0 and _exited(worker)
    finally:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)


def test_at_one_worker_both_parts_run_in_process(monkeypatch):
    monkeypatch.setattr(nn, "WORKERS", 1)
    (pid, _), (other, more) = nn.run_pair(_scaled, {"w": np.ones(3)}, 1.0, 2.0)
    assert pid == other == os.getpid()
    np.testing.assert_array_equal(more["w"], 2.0)


def test_a_worker_that_dies_is_an_error_naming_its_exit_code(monkeypatch):
    monkeypatch.setattr(nn, "WORKERS", 2)
    with pytest.raises(WorkerError, match="exited with code -9"):
        nn.run_pair(_dies_on, {}, "ok", "die")  # during its part
    assert nn.run_pair(_dies_on, {}, "ok", "ok") == (("ok", {}), ("ok", {}))
    os.kill(nn._worker.pid, signal.SIGKILL)  # between two parts
    with pytest.raises(WorkerError, match="exited with code -9"):
        nn.run_pair(_dies_on, {}, "ok", "ok")
    assert nn.run_pair(_dies_on, {}, "ok", "ok") == (("ok", {}), ("ok", {}))


def test_a_result_that_cannot_cross_the_pipe_is_a_worker_error(monkeypatch):
    monkeypatch.setattr(nn, "WORKERS", 2)
    with pytest.raises(WorkerError, match="the worker cannot send back its result"):
        nn.run_pair(_awkward, {}, "ok", "unsendable")
    with pytest.raises(WorkerError, match="the worker's result cannot be read"):
        nn.run_pair(_awkward, {}, "ok", "unreadable")
    # the pipes stay in step
    assert nn.run_pair(_awkward, {}, "ok", "ok") == (("ok", {}), ("ok", {}))


def _python(code, cwd, *args):
    src = str(Path(seqreorder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


_HOLDS_A_WORKER = """
import time
from seqreorder import nn

def part(params, part):
    return part, {}

nn.WORKERS = 2
nn.run_pair(part, {}, 0, 1)
print(nn._worker.pid, flush=True)
time.sleep(60)
"""


def test_the_worker_exits_when_its_parent_is_killed(tmp_path):
    proc = _python(_HOLDS_A_WORKER, tmp_path)
    try:
        worker = int(proc.stdout.readline())
    finally:
        proc.kill()
        proc.communicate(timeout=10)
    assert _exits_within(worker, 5.0)


# a pretraining or fine-tuning run through the CLI; the step's loss function
# fails in one process, or the worker kills itself, as the first argument says
_FAILING_RUN = """
import os, signal, sys
from seqreorder import cpi, nn, perm
from seqreorder.cli import main
from seqreorder.corpus import write_dataset
from seqreorder.errors import NumericError
from seqreorder.synthetic import interaction_corpus

where, command = sys.argv[1:]
nn.WORKERS = 2
parent = os.getpid()


def fail_here():
    in_worker = os.getpid() != parent
    if where == "killed" and in_worker:
        os.kill(os.getpid(), signal.SIGKILL)
    if where == ("worker" if in_worker else "parent"):
        raise NumericError(f"a loss is not finite in the {where}")


reorder_loss_grad, batch_grads = perm.reorder_loss_grad, cpi._batch_grads


def loss_grad(*args):
    fail_here()
    return reorder_loss_grad(*args)


def grads(*args):
    fail_here()
    return batch_grads(*args)


perm.reorder_loss_grad, cpi._batch_grads = loss_grad, grads
write_dataset("pairs.tsv", interaction_corpus(num_proteins=20, num_compounds=20, num_pairs=40, seed=7).rows)
geometry = ["--n", "4", "--l-max", "48", "--embed-dim", "8", "--layers", "1", "--heads", "2",
            "--ffn-dim", "16", "--epochs", "1", "--batch-size", "8", "--out", "run"]
if command == "pretrain":
    code = main(["pretrain", "--data", "pairs.tsv"] + geometry)
else:
    code = main(["finetune", "--train", "pairs.tsv", "--random-init", "--fusion-dim", "8",
                 "--comp-layers", "1", "--comp-heads", "2", "--comp-ffn-dim", "16"] + geometry)
print(code, nn._worker.pid if nn._worker is not None and nn._worker.pid else None, flush=True)
"""


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
@pytest.mark.parametrize(
    "where,error",
    [
        ("nowhere", None),
        ("parent", "error: a loss is not finite in the parent"),
        ("worker", "error: a loss is not finite in the worker"),
        ("killed", "error: the training worker process exited with code -9"),
    ],
)
def test_a_run_ends_in_one_error_line_and_leaves_no_worker(where, error, command, tmp_path):
    proc = _python(_FAILING_RUN, tmp_path, where, command)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    code, worker = out.splitlines()[-1].split()
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ([] if error is None else [error])
    assert "Traceback" not in err
    assert code == ("0" if error is None else "1")
    if where == "killed":
        assert worker == "None"  # already reaped
    else:
        assert _exits_within(int(worker), 5.0)
