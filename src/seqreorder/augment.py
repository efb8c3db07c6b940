"""Training-time augmentation: random cuts, block shuffles, token noise.

A protein is cut into ``n`` contiguous blocks of random lengths (each
between 1 and ``f_max`` residues, padded up to ``f_max``), the blocks are
shuffled by a uniform random permutation, and token-level noise may then
mask residues. The example records which permutation was applied, which is
the recovery target. Given the same (protein, config, noise spec, seed)
the pipeline is a pure function.
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

    def copy(self) -> "SubsequenceSet":
        return SubsequenceSet(self.blocks.copy(), self.true_lengths.copy())


@dataclass
class ShuffleMatrix:
    """A permutation: slot i of the shuffled set holds original block perm[i].

    The equivalent binary matrix has P[i][perm[i]] = 1.
    """

    perm: np.ndarray  # (n,) int64

    def __post_init__(self) -> None:
        self.perm = np.asarray(self.perm, dtype=np.int64)
        if self.perm.ndim != 1 or not np.array_equal(
            np.sort(self.perm), np.arange(self.perm.size)
        ):
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


def racut(
    protein: ProteinRecord,
    config: RAcutConfig,
    rng: np.random.Generator,
) -> SubsequenceSet:
    """Cut a protein into n contiguous blocks of random lengths.

    Lengths are drawn left to right, each uniform over the feasible range
    that still lets every later block receive between 1 and f_max tokens;
    the last block takes the remainder. Tokens beyond n*f_max are dropped.
    Proteins shorter than n tokens cannot be cut and raise
    AugmentationError.
    """
    n, f_max = config.n, config.f_max
    total = len(protein.tokens)
    if total < n:
        raise AugmentationError(
            f"protein has {total} tokens but n={n} blocks were requested"
        )
    rem = min(total, n * f_max)
    lengths = np.empty(n, dtype=np.int64)
    for i in range(1, n):
        blocks_left = n - i
        lo = max(1, rem - blocks_left * f_max)
        hi = min(f_max, rem - blocks_left)
        lengths[i - 1] = int(rng.integers(lo, hi + 1))
        rem -= lengths[i - 1]
    lengths[n - 1] = rem

    blocks = np.full((n, f_max), RESIDUE_PAD_ID, dtype=np.int64)
    offset = 0
    for i in range(n):
        li = int(lengths[i])
        blocks[i, :li] = protein.tokens[offset : offset + li]
        offset += li
    return SubsequenceSet(blocks=blocks, true_lengths=lengths)


def sample_shuffle(n: int, rng: np.random.Generator) -> ShuffleMatrix:
    """Draw a uniform random permutation of n slots."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return ShuffleMatrix(rng.permutation(n))


def shuffle_apply(sset: SubsequenceSet, p: ShuffleMatrix) -> SubsequenceSet:
    """Reorder blocks: output slot i holds input block p.perm[i]."""
    if p.n != sset.n:
        raise ValidationError(
            f"permutation is over {p.n} slots but the set has {sset.n} blocks"
        )
    return SubsequenceSet(
        blocks=sset.blocks[p.perm].copy(),
        true_lengths=sset.true_lengths[p.perm].copy(),
    )


def apply_noise(
    sset: SubsequenceSet, spec: NoiseSpec, rng: np.random.Generator
) -> SubsequenceSet:
    """Mask each real token with probability ``spec.mask_prob``; pads and lengths never change."""
    out = sset.copy()
    draws = rng.random(out.blocks.shape)
    nonpad = np.arange(out.f_max)[None, :] < out.true_lengths[:, None]
    masked = (draws < spec.mask_prob) & nonpad
    out.blocks[masked] = RESIDUE_MASK_ID
    return out


def make_pretrain_example(
    protein: ProteinRecord,
    config: RAcutConfig,
    spec: NoiseSpec,
    seed: int | Sequence[int],
) -> PretrainExample:
    """Cut, permute, then noise — in that order, from one seeded generator.

    The same (protein, config, spec, seed) always yields the same example.
    """
    seed_key = (seed,) if isinstance(seed, int) else tuple(int(s) for s in seed)
    rng = np.random.default_rng(seed_key)
    sset = racut(protein, config, rng)
    target = sample_shuffle(config.n, rng)
    shuffled = shuffle_apply(sset, target)
    noisy = apply_noise(shuffled, spec, rng)
    return PretrainExample(shuffled=noisy, target=target)
