"""Random-cut segmentation, shuffling, and token noise."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqreorder.augment import (
    NoiseSpec,
    RAcutConfig,
    ShuffleMatrix,
    apply_noise,
    make_pretrain_example,
    racut,
    sample_shuffle,
    shuffle_apply,
)
from seqreorder.corpus import CANONICAL_RESIDUES, RESIDUE_MASK_ID, RESIDUE_PAD_ID, encode_protein
from seqreorder.errors import AugmentationError, ValidationError

PAD = RESIDUE_PAD_ID
MASK = RESIDUE_MASK_ID


def _protein(length, offset=0):
    letters = CANONICAL_RESIDUES[:20]
    return encode_protein("".join(letters[(offset + i) % 20] for i in range(length)))


def test_config_derives_f_max():
    cfg = RAcutConfig(n=24, l_max=1200)
    assert cfg.f_max == 50
    assert RAcutConfig(n=24, l_max=1201).f_max == 51  # ceiling division
    with pytest.raises(TypeError):
        RAcutConfig(n=4, l_max=10, f_max=3)  # derived, never given


def test_config_rejects_bad_geometry():
    with pytest.raises(ValidationError):
        RAcutConfig(n=0, l_max=100)
    with pytest.raises(ValidationError):
        RAcutConfig(n=4, l_max=0)


def test_cut_exact_fit_forces_singletons():
    out = racut(_protein(3), RAcutConfig(n=3, l_max=12), np.random.default_rng(0))
    assert out.true_lengths.tolist() == [1, 1, 1]


def test_cut_full_length_forces_f_max():
    out = racut(_protein(1200), RAcutConfig(n=24, l_max=1200), np.random.default_rng(0))
    assert out.true_lengths.tolist() == [50] * 24


def test_cut_rejects_short_protein():
    with pytest.raises(AugmentationError):
        racut(_protein(3), RAcutConfig(n=4, l_max=16), np.random.default_rng(0))


def test_cut_seeded_golden():
    # frozen from the first run at seed 42; guards the sampling order
    out = racut(_protein(100), RAcutConfig(n=8, l_max=104), np.random.default_rng(42))
    assert out.true_lengths.tolist() == [9, 13, 13, 13, 13, 13, 13, 13]


def test_cut_preserves_order_and_content():
    protein = _protein(57)
    out = racut(protein, RAcutConfig(n=6, l_max=60), np.random.default_rng(3))
    flat = []
    for i in range(out.n):
        li = int(out.true_lengths[i])
        flat.extend(out.blocks[i, :li].tolist())
        assert (out.blocks[i, li:] == PAD).all()
    assert flat == list(protein.tokens[: sum(out.true_lengths)])


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(min_value=4, max_value=200),
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_cut_invariants(length, n, seed):
    if length < n:
        return
    cfg = RAcutConfig(n=n, l_max=max(length, n))
    out = racut(_protein(length), cfg, np.random.default_rng(seed))
    total = min(length, n * cfg.f_max)
    assert out.true_lengths.sum() == total
    assert (out.true_lengths >= 1).all()
    assert (out.true_lengths <= cfg.f_max).all()
    # concatenating blocks in order reproduces the (possibly truncated) prefix
    flat = np.concatenate(
        [out.blocks[i, : out.true_lengths[i]] for i in range(n)]
    )
    assert np.array_equal(flat, _protein(length).tokens[:total])


def test_shuffle_matrix_roundtrip():
    rng = np.random.default_rng(9)
    sset = racut(_protein(40), RAcutConfig(n=5, l_max=40), rng)
    p = sample_shuffle(5, rng)
    shuffled = shuffle_apply(sset, p)
    restored = shuffle_apply(shuffled, ShuffleMatrix(np.argsort(p.perm)))
    assert np.array_equal(restored.blocks, sset.blocks)
    assert np.array_equal(restored.true_lengths, sset.true_lengths)


def test_shuffle_matrix_one_hot_encoding():
    p = ShuffleMatrix(np.array([2, 0, 1]))
    expected = np.zeros((3, 3))
    expected[0, 2] = expected[1, 0] = expected[2, 1] = 1.0
    np.testing.assert_array_equal(p.matrix, expected)


def test_shuffle_matrix_rejects_non_permutation():
    with pytest.raises(ValidationError):
        ShuffleMatrix(np.array([0, 0, 1]))


def test_shuffle_uniformity():
    # 10k draws over the 24 permutations of 4 slots; each should land
    # within +/-30% of the uniform rate
    rng = np.random.default_rng(123)
    counts = {}
    for _ in range(10_000):
        key = tuple(sample_shuffle(4, rng).perm.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    expected = 10_000 / 24
    for count in counts.values():
        assert 0.7 * expected <= count <= 1.3 * expected


def test_zero_mask_probability_is_bitwise_noop():
    rng = np.random.default_rng(4)
    sset = racut(_protein(30), RAcutConfig(n=3, l_max=30), rng)
    out = apply_noise(sset, NoiseSpec(mask_prob=0.0), rng)
    assert np.array_equal(out.blocks, sset.blocks)
    out.blocks[0, 0] = -1  # the copy must be independent
    assert sset.blocks[0, 0] != -1


def test_noise_kind_other_than_mask_is_rejected():
    with pytest.raises(ValidationError, match="'identity'"):
        NoiseSpec(kind="identity")


def test_full_mask_hits_every_non_pad_token():
    rng = np.random.default_rng(4)
    sset = racut(_protein(30), RAcutConfig(n=3, l_max=30), rng)
    out = apply_noise(sset, NoiseSpec(kind="mask", mask_prob=1.0), rng)
    for i in range(out.n):
        li = int(out.true_lengths[i])
        assert (out.blocks[i, :li] == MASK).all()
        assert (out.blocks[i, li:] == PAD).all()


def test_mask_rate_within_binomial_bounds():
    # 100 real tokens at p=0.15: P(4 <= Binomial(100, 0.15) <= 30) > 0.9998,
    # checked with math.comb below, so this bound fails spuriously less than
    # once in 5000 runs even if the seed changes
    tail = sum(
        math.comb(100, k) * 0.15**k * 0.85 ** (100 - k) for k in range(4, 31)
    )
    assert tail > 0.9998
    rng = np.random.default_rng(8)
    sset = racut(_protein(100), RAcutConfig(n=4, l_max=100), rng)
    out = apply_noise(sset, NoiseSpec(kind="mask", mask_prob=0.15), rng)
    masked = int((out.blocks == MASK).sum())
    assert 4 <= masked <= 30


def test_mask_never_touches_pads():
    rng = np.random.default_rng(21)
    sset = racut(_protein(10), RAcutConfig(n=3, l_max=30), rng)
    out = apply_noise(sset, NoiseSpec(kind="mask", mask_prob=0.9), rng)
    for i in range(out.n):
        li = int(out.true_lengths[i])
        assert (out.blocks[i, li:] == PAD).all()


def test_make_pretrain_example_deterministic():
    protein = _protein(60)
    cfg = RAcutConfig(n=6, l_max=60)
    spec = NoiseSpec(kind="mask", mask_prob=0.15)
    a = make_pretrain_example(protein, cfg, spec, seed=(7, 1, 2))
    b = make_pretrain_example(protein, cfg, spec, seed=(7, 1, 2))
    assert np.array_equal(a.shuffled.blocks, b.shuffled.blocks)
    assert np.array_equal(a.target.perm, b.target.perm)
    c = make_pretrain_example(protein, cfg, spec, seed=(7, 1, 3))
    assert not np.array_equal(a.shuffled.blocks, c.shuffled.blocks) or not np.array_equal(
        a.target.perm, c.target.perm
    )


def test_make_pretrain_example_stream_order():
    # the example is built cut -> permute -> noise from one generator, so
    # replaying those stages with a fresh generator at the same seed must
    # reproduce everything except the masked positions
    protein = _protein(60)
    cfg = RAcutConfig(n=6, l_max=60)
    example = make_pretrain_example(protein, cfg, NoiseSpec(kind="mask", mask_prob=0.3), seed=11)

    rng = np.random.default_rng((11,))
    sset = racut(protein, cfg, rng)
    target = sample_shuffle(cfg.n, rng)
    prenoise = shuffle_apply(sset, target)

    assert np.array_equal(example.target.perm, target.perm)
    assert np.array_equal(example.shuffled.true_lengths, prenoise.true_lengths)
    changed = example.shuffled.blocks != prenoise.blocks
    assert (example.shuffled.blocks[changed] == MASK).all()
    # unshuffling the pre-noise blocks recovers the original cut
    restored = shuffle_apply(prenoise, ShuffleMatrix(np.argsort(target.perm)))
    assert np.array_equal(restored.blocks, sset.blocks)
