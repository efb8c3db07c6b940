"""Every file format the library writes, and the readers of those it reads back.

Text files are UTF-8. A line file ends each line with ``"\\n"``
(``write_lines``), so a file of no lines is empty; a JSON document is
sorted, indented by two and ends with a newline (``write_json``).

Checkpoints are a single binary container: magic bytes, a format version,
a canonical-JSON header (section tag, config, RNG provenance, array
shapes), the little-endian float64 parameter block, and a trailing
SHA-256 checksum. Optimizer state is not kept: no run resumes from a
checkpoint. The step log is not kept either: ``train_log.csv`` beside the
checkpoint holds it.

This module sits at the bottom of the import graph: it imports only
numpy, the standard library and ``errors``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CheckpointError, NumericError, ParseError, ValidationError

CHECKPOINT_MAGIC = b"SRCK"
CHECKPOINT_VERSION = 4


def read_text(path: str | Path) -> str:
    """A file's UTF-8 text; bytes that do not decode raise ParseError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Each line followed by ``"\\n"``, as UTF-8."""
    Path(path).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def write_json(path: str | Path, obj) -> None:
    """``obj`` as sorted JSON indented by two, plus a final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


@dataclass
class StepRecord:
    epoch: int
    step: int
    loss: float
    perm_acc: float
    wall_ms: float


@dataclass
class TrainLog:
    records: list[StepRecord] = field(default_factory=list)
    acc_label: str = "perm_acc"

    def append(self, rec: StepRecord) -> None:
        if not np.isfinite(rec.loss):
            raise NumericError(f"non-finite loss at epoch {rec.epoch} step {rec.step}")
        if self.records:
            last = self.records[-1]
            if (rec.epoch, rec.step) <= (last.epoch, last.step):
                raise ValidationError(
                    f"log keys must increase: {(last.epoch, last.step)} then "
                    f"{(rec.epoch, rec.step)}"
                )
        self.records.append(rec)

    def write_csv(self, path: str | Path) -> None:
        write_lines(
            path,
            [f"epoch,step,loss,{self.acc_label},wall_ms"]
            + [
                f"{r.epoch},{r.step},{r.loss:.17g},{r.perm_acc:.17g},{r.wall_ms:.3f}"
                for r in self.records
            ],
        )


def write_val_log(path: str | Path, label: str, history: Sequence[tuple[int, float]]) -> None:
    """Per-epoch validation history as ``epoch,<label>`` rows (no wall-clock field)."""
    write_lines(path, [f"epoch,{label}"] + [f"{epoch},{value:.17g}" for epoch, value in history])


@dataclass
class Checkpoint:
    section: str
    config: dict
    params: dict[str, np.ndarray]
    provenance: dict


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    header = {
        "section": ckpt.section,
        "config": ckpt.config,
        "provenance": ckpt.provenance,
        "arrays": [
            {"key": k, "shape": list(ckpt.params[k].shape)} for k in sorted(ckpt.params)
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = bytearray()
    body += CHECKPOINT_MAGIC
    body += struct.pack("<I", CHECKPOINT_VERSION)
    body += struct.pack("<Q", len(header_bytes))
    body += header_bytes
    for k in sorted(ckpt.params):
        body += np.ascontiguousarray(ckpt.params[k], dtype="<f8").tobytes()
    body += hashlib.sha256(body).digest()
    Path(path).write_bytes(body)


_HEADER_FIELDS = {"section": str, "config": dict, "provenance": dict, "arrays": list}


def load_checkpoint(path: str | Path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < 4 + 4 + 8 + 32 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    digest = raw[-32:]
    body = memoryview(raw)[:-32]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch (corrupt or truncated)")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} is not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    # the checksum holds, so what follows checks the header's own form
    header_len = struct.unpack("<Q", raw[8:16])[0]
    offset = 16 + header_len
    if offset > len(body):
        raise CheckpointError(f"{path}: header length {header_len} runs past the end of the file")
    try:
        header = json.loads(raw[16:offset].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"{path}: header is not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict) or any(
        not isinstance(header.get(k), t) for k, t in _HEADER_FIELDS.items()
    ):
        fields = ", ".join(f"{k} ({t.__name__})" for k, t in _HEADER_FIELDS.items())
        raise CheckpointError(f"{path}: header is not an object with {fields}")
    for spec in header["arrays"]:
        if not (
            isinstance(spec, dict)
            and isinstance(spec.get("key"), str)
            and isinstance(spec.get("shape"), list)
            and all(type(s) is int and s >= 0 for s in spec["shape"])
        ):
            raise CheckpointError(f"{path}: malformed array entry {spec!r}")
    params = {}
    for spec in sorted(header["arrays"], key=lambda s: s["key"]):
        count = math.prod(spec["shape"])  # exact, where np.prod can wrap
        if offset + count * 8 > len(body):
            raise CheckpointError(f"{path}: array {spec['key']!r} runs past the end of the file")
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
        params[spec["key"]] = arr.reshape(spec["shape"]).astype(np.float64)
        offset += count * 8
    if offset != len(body):
        raise CheckpointError(f"{path}: trailing bytes after parameter blocks")
    return Checkpoint(
        section=header["section"],
        config=header["config"],
        params=params,
        provenance=header["provenance"],
    )


def config_from_checkpoint(cls: type, values: object):
    """``cls(**values)`` from a checkpoint's config; a misfit raises CheckpointError.

    The config must hold every field: a missing key does not take its default.
    """
    if not isinstance(values, dict):
        raise CheckpointError(f"checkpoint {cls.__name__} is not a JSON object")
    missing = [f.name for f in dataclass_fields(cls) if f.name not in values]
    if missing:
        raise CheckpointError(f"checkpoint {cls.__name__} lacks keys {missing}")
    try:
        return cls(**values)
    except TypeError as exc:
        raise CheckpointError(f"checkpoint {cls.__name__} does not fit: {exc}") from None


def check_params(params: dict, table: Sequence[tuple]) -> None:
    """Fail unless a checkpoint's ``params`` have the names and shapes of a parameter table.

    The first name, in sorted order, that only one side has or whose shapes differ is named.
    """
    built = {name: shape for name, shape, _ in table}
    for key in sorted(set(params) | set(built)):
        have = params[key].shape if key in params else "no parameter"
        want = built.get(key, "no parameter")
        if have != want:
            raise CheckpointError(
                f"checkpoint parameter {key!r}: {have} in the file, {want} in its config"
            )


def write_predictions(
    path: str | Path,
    pair_ids: Sequence[str],
    scores: Sequence[float],
    labels: Sequence[int],
) -> None:
    if not (len(pair_ids) == len(scores) == len(labels)):
        raise ValidationError("pair_ids, scores, and labels must align")
    write_lines(
        path,
        ["pair_id,score,label"]
        + [f"{pid},{s:.17g},{int(y)}" for pid, s, y in zip(pair_ids, scores, labels)],
    )


def read_predictions(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels of a ``write_predictions`` file, in file order."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != "pair_id,score,label":
        raise ParseError(f"{path}: expected header 'pair_id,score,label'")
    scores, labels = [], []
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError(f"{path} line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            s = float(fields[1])
        except ValueError:
            raise ParseError(f"{path} line {lineno}: bad score {fields[1]!r}") from None
        if not np.isfinite(s):
            raise ParseError(f"{path} line {lineno}: non-finite score")
        if fields[2] not in ("0", "1"):
            raise ParseError(f"{path} line {lineno}: label must be 0 or 1, got {fields[2]!r}")
        scores.append(s)
        labels.append(int(fields[2]))
    return np.array(scores), np.array(labels)
