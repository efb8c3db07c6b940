"""Random-cut segmentation, shuffling, and token masking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqreorder.augment import (
    NoiseSpec,
    RAcutConfig,
    ShuffleMatrix,
    SubsequenceSet,
    make_pretrain_example,
)
from seqreorder.corpus import CANONICAL_RESIDUES, RESIDUE_MASK_ID, RESIDUE_PAD_ID, encode_protein
from seqreorder.errors import AugmentationError, ValidationError

PAD = RESIDUE_PAD_ID
MASK = RESIDUE_MASK_ID


def _protein(length, offset=0):
    letters = CANONICAL_RESIDUES[:20]
    return encode_protein("".join(letters[(offset + i) % 20] for i in range(length)), l_max=10_000)


def _example(length, n, l_max, seed, mask_prob=0.0, offset=0):
    return make_pretrain_example(
        _protein(length, offset), RAcutConfig(n=n, l_max=l_max), NoiseSpec(mask_prob=mask_prob), seed
    )


def _unshuffled(example):
    """The example's blocks and lengths back in cut order."""
    inverse = np.argsort(example.target.perm)
    return example.shuffled.blocks[inverse], example.shuffled.true_lengths[inverse]


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
    out = _example(3, n=3, l_max=12, seed=0)
    assert out.shuffled.true_lengths.tolist() == [1, 1, 1]


def test_cut_full_length_forces_f_max():
    out = _example(1200, n=24, l_max=1200, seed=0)
    assert out.shuffled.true_lengths.tolist() == [50] * 24


def test_cut_rejects_short_protein():
    with pytest.raises(AugmentationError):
        _example(3, n=4, l_max=16, seed=0)


def test_cut_seeded_golden():
    # frozen from the first run at seed 42; guards the sampling order
    _, lengths = _unshuffled(_example(100, n=8, l_max=104, seed=42))
    assert lengths.tolist() == [9, 13, 13, 13, 13, 13, 13, 13]


def test_cut_preserves_order_and_content():
    blocks, lengths = _unshuffled(_example(57, n=6, l_max=60, seed=3))
    flat = []
    for i in range(6):
        li = int(lengths[i])
        flat.extend(blocks[i, :li].tolist())
        assert (blocks[i, li:] == PAD).all()
    assert flat == list(_protein(57).tokens[: sum(lengths)])


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
    blocks, lengths = _unshuffled(_example(length, n, cfg.l_max, seed))
    total = min(length, n * cfg.f_max)
    assert lengths.sum() == total
    assert (lengths >= 1).all()
    assert (lengths <= cfg.f_max).all()
    # concatenating blocks in order reproduces the (possibly truncated) prefix
    flat = np.concatenate([blocks[i, : lengths[i]] for i in range(n)])
    assert np.array_equal(flat, _protein(length).tokens[:total])


def test_shuffle_matrix_roundtrip():
    example = _example(40, n=5, l_max=40, seed=9)
    blocks, lengths = _unshuffled(example)
    # slot i holds original block perm[i], so re-applying perm restores the example
    perm = example.target.perm
    assert np.array_equal(blocks[perm], example.shuffled.blocks)
    assert np.array_equal(lengths[perm], example.shuffled.true_lengths)
    assert np.array_equal(np.concatenate([b[:k] for b, k in zip(blocks, lengths)]), _protein(40).tokens)


def test_shuffle_matrix_one_hot_encoding():
    p = ShuffleMatrix(np.array([2, 0, 1]))
    expected = np.zeros((3, 3))
    expected[0, 2] = expected[1, 0] = expected[2, 1] = 1.0
    np.testing.assert_array_equal(p.matrix, expected)


def test_shuffle_matrix_rejects_non_permutation():
    with pytest.raises(ValidationError):
        ShuffleMatrix(np.array([0, 0, 1]))


@pytest.mark.parametrize(
    "perm",
    [[[0, 1], [1, 0]], 0, [0, 2, 2], [0, 1, 3], [-1, 0, 1], [1, 2, 3]],
    ids=["2-d", "0-d", "duplicate", "out-of-range", "negative", "shifted"],
)
def test_shuffle_matrix_refuses_every_non_permutation(perm):
    with pytest.raises(ValidationError, match="permutation of 0..n-1"):
        ShuffleMatrix(np.array(perm))


@pytest.mark.parametrize("perm", [[], [0], [2, 0, 3, 1]])
def test_shuffle_matrix_accepts_every_permutation(perm):
    assert ShuffleMatrix(np.array(perm, dtype=np.int64)).perm.tolist() == perm


def test_shuffle_uniformity():
    # 10k seeds over the 24 permutations of 4 slots; each should land
    # within +/-30% of the uniform rate
    counts = {}
    for seed in range(10_000):
        key = tuple(_example(4, n=4, l_max=4, seed=seed).target.perm.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    expected = 10_000 / 24
    for count in counts.values():
        assert 0.7 * expected <= count <= 1.3 * expected


def test_zero_mask_probability_is_bitwise_noop():
    # at p=0 every real token is the protein's own; at p=1 the same seed
    # gives the same cut and permutation with every real token masked
    clean = _example(30, n=3, l_max=30, seed=4)
    masked = _example(30, n=3, l_max=30, seed=4, mask_prob=1.0)
    blocks, lengths = _unshuffled(clean)
    assert np.array_equal(np.concatenate([b[:k] for b, k in zip(blocks, lengths)]), _protein(30).tokens)
    assert np.array_equal(clean.target.perm, masked.target.perm)
    real = np.arange(clean.shuffled.f_max) < clean.shuffled.true_lengths[:, None]
    assert np.array_equal(np.where(real, MASK, clean.shuffled.blocks), masked.shuffled.blocks)


def test_noise_kind_other_than_mask_is_rejected():
    with pytest.raises(ValidationError, match="'identity'"):
        NoiseSpec(kind="identity")


def test_full_mask_hits_every_non_pad_token():
    out = _example(30, n=3, l_max=30, seed=4, mask_prob=1.0).shuffled
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
    out = _example(100, n=4, l_max=100, seed=8, mask_prob=0.15).shuffled
    assert out.true_lengths.sum() == 100
    masked = int((out.blocks == MASK).sum())
    assert 4 <= masked <= 30


def test_mask_never_touches_pads():
    out = _example(10, n=3, l_max=30, seed=21, mask_prob=0.9).shuffled
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
    # the example is built cut -> permute -> mask from one generator: the
    # cut lengths left to right, then rng.permutation(n), then one (n, f_max)
    # block of mask uniforms read in slot order
    cfg = RAcutConfig(n=6, l_max=60)
    example = make_pretrain_example(_protein(50), cfg, NoiseSpec(kind="mask", mask_prob=0.3), seed=11)
    blocks, lengths = _unshuffled(example)

    rng = np.random.default_rng((11,))
    rem = 50
    for i in range(5):
        lo, hi = max(1, rem - (5 - i) * cfg.f_max), min(cfg.f_max, rem - (5 - i))
        assert rng.integers(lo, hi + 1) == lengths[i]
        rem -= lengths[i]
    assert rem == lengths[5]
    assert np.array_equal(rng.permutation(6), example.target.perm)
    real = np.arange(cfg.f_max) < example.shuffled.true_lengths[:, None]
    hit = (rng.random((6, cfg.f_max)) < 0.3) & real
    assert hit.any() and (example.shuffled.blocks == MASK).sum() == hit.sum()
    assert (example.shuffled.blocks[hit] == MASK).all()


# ---------------------------------------------------------------------------
# the four-stage pipeline that make_pretrain_example replaced, kept as the
# reference it must match bit for bit
# ---------------------------------------------------------------------------


def _ref_racut(protein, config, rng):
    n, f_max = config.n, config.f_max
    total = len(protein.tokens)
    if total < n:
        raise AugmentationError(f"protein has {total} tokens but n={n} blocks were requested")
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


def _ref_sample_shuffle(n, rng):
    return ShuffleMatrix(rng.permutation(n))


def _ref_shuffle_apply(sset, p):
    return SubsequenceSet(
        blocks=sset.blocks[p.perm].copy(), true_lengths=sset.true_lengths[p.perm].copy()
    )


def _ref_apply_noise(sset, spec, rng):
    out = SubsequenceSet(sset.blocks.copy(), sset.true_lengths.copy())
    draws = rng.random(out.blocks.shape)
    nonpad = np.arange(out.f_max)[None, :] < out.true_lengths[:, None]
    out.blocks[(draws < spec.mask_prob) & nonpad] = RESIDUE_MASK_ID
    return out


def _ref_example(protein, config, spec, seed):
    seed_key = (seed,) if isinstance(seed, int) else tuple(int(s) for s in seed)
    rng = np.random.default_rng(seed_key)
    sset = _ref_racut(protein, config, rng)
    target = _ref_sample_shuffle(config.n, rng)
    return _ref_apply_noise(_ref_shuffle_apply(sset, target), spec, rng), target


@pytest.mark.parametrize("mask_prob", [0.0, 0.15, 1.0])
@pytest.mark.parametrize("n, l_max", [(1, 1), (1, 30), (3, 12), (4, 48), (7, 50), (24, 1200)])
def test_one_pass_example_matches_the_four_stage_reference(n, l_max, mask_prob):
    cfg = RAcutConfig(n=n, l_max=l_max)
    spec = NoiseSpec(mask_prob=mask_prob)
    full = n * cfg.f_max
    # exactly n residues, shorter than n * f_max, exactly n * f_max, and past l_max
    for length in sorted({n, max(n, full - 5), full, l_max + 9, 2 * full + 3}):
        protein = _protein(length, offset=length)
        for seed in [0, 1, 17, (5, 2, 9), (2**31, 0, 3)]:
            got = make_pretrain_example(protein, cfg, spec, seed)
            want, target = _ref_example(protein, cfg, spec, seed)
            assert np.array_equal(got.shuffled.blocks, want.blocks)
            assert got.shuffled.blocks.dtype == want.blocks.dtype
            assert np.array_equal(got.shuffled.true_lengths, want.true_lengths)
            assert np.array_equal(got.target.perm, target.perm)
