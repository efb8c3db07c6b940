"""Training-time augmentation: random cuts, block shuffles, token masking.

A protein is cut into ``n`` contiguous blocks of random lengths (each
between 1 and ``f_max`` residues, padded up to ``f_max``), the blocks are
shuffled by a uniform random permutation, and residues may then be
masked. The example records which permutation was applied, which is the
recovery target. ``make_pretrain_example`` builds it in one pass; given
the same (protein, config, noise spec, seed) it is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import RESIDUE_MASK_ID, RESIDUE_PAD_ID, ProteinRecord
from .errors import AugmentationError, ValidationError


@dataclass(frozen=True)
class RAcutConfig:
    """Block count and length budget for random cuts; ``f_max`` is ceil(l_max / n)."""

    n: int
    l_max: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if self.l_max < 1:
            raise ValidationError(f"l_max must be >= 1, got {self.l_max}")

    @property
    def f_max(self) -> int:
        return math.ceil(self.l_max / self.n)


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "mask"  # the only kind; perfbench still passes it
    mask_prob: float = 0.15

    def __post_init__(self) -> None:
        if self.kind != "mask":
            raise ValidationError(f"noise kind must be 'mask', got {self.kind!r}")
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ValidationError(f"mask_prob must be in [0, 1], got {self.mask_prob}")


@dataclass
class SubsequenceSet:
    """n blocks of token ids, each padded to f_max, plus true lengths."""

    blocks: np.ndarray  # (n, f_max) int64
    true_lengths: np.ndarray  # (n,) int64

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @property
    def f_max(self) -> int:
        return self.blocks.shape[1]


@dataclass
class ShuffleMatrix:
    """A permutation: slot i of the shuffled set holds original block perm[i].

    The equivalent binary matrix has P[i][perm[i]] = 1.
    """

    perm: np.ndarray  # (n,) int64

    def __post_init__(self) -> None:
        self.perm = np.asarray(self.perm, dtype=np.int64)
        # over Python ints: at n <= 24 numpy's per-call overhead would cost ~4x the check
        if self.perm.ndim != 1 or sorted(self.perm.tolist()) != list(range(self.perm.size)):
            raise ValidationError("perm must be a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return int(self.perm.size)

    @property
    def matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=np.int64)
        m[np.arange(self.n), self.perm] = 1
        return m


@dataclass
class PretrainExample:
    """A shuffled (and possibly noised) SubsequenceSet with its target."""

    shuffled: SubsequenceSet
    target: ShuffleMatrix


def _cut_lengths(total: int, config: RAcutConfig, rng: np.random.Generator) -> np.ndarray:
    """The n block lengths of a cut of the first min(total, n*f_max) tokens.

    Lengths are drawn left to right, each uniform over the feasible range
    that still lets every later block receive between 1 and f_max tokens;
    the last block takes the remainder.
    """
    n, f_max = config.n, config.f_max
    rem = min(total, n * f_max)
    lengths = np.empty(n, dtype=np.int64)
    for i in range(1, n):
        blocks_left = n - i
        lo = max(1, rem - blocks_left * f_max)
        hi = min(f_max, rem - blocks_left)
        lengths[i - 1] = int(rng.integers(lo, hi + 1))
        rem -= lengths[i - 1]
    lengths[n - 1] = rem
    return lengths


def make_pretrain_example(
    protein: ProteinRecord,
    config: RAcutConfig,
    spec: NoiseSpec,
    seed: int | Sequence[int],
) -> PretrainExample:
    """Cut, permute, then mask — in that order, from one seeded generator.

    Slot i holds cut block ``target.perm[i]``; tokens beyond n*f_max are
    dropped, and a protein shorter than n tokens raises AugmentationError.
    """
    n, f_max = config.n, config.f_max
    total = len(protein.tokens)
    if total < n:
        raise AugmentationError(
            f"protein has {total} tokens but n={n} blocks were requested"
        )
    seed_key = (seed,) if isinstance(seed, int) else tuple(int(s) for s in seed)
    rng = np.random.default_rng(seed_key)
    lengths = _cut_lengths(total, config, rng)
    perm = rng.permutation(n)
    starts = np.cumsum(lengths) - lengths
    lengths = lengths[perm]
    cols = np.arange(f_max)
    tokens = np.asarray(protein.tokens[: n * f_max], dtype=np.int64)
    real = cols < lengths[:, None]
    # a pad position may index past the protein's end: it is clipped, then replaced
    blocks = np.where(real, tokens.take(starts[perm][:, None] + cols, mode="clip"), RESIDUE_PAD_ID)
    blocks[(rng.random((n, f_max)) < spec.mask_prob) & real] = RESIDUE_MASK_ID
    return PretrainExample(SubsequenceSet(blocks, lengths), ShuffleMatrix(perm))
