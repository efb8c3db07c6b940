import numpy as np
import pytest

from seqreorder import nn
from seqreorder.augment import NoiseSpec, RAcutConfig
from seqreorder.corpus import encode_protein
from seqreorder.encoder import EncoderConfig


@pytest.fixture(autouse=True)
def _stop_the_worker():
    # A worker keeps the module state of the moment it was forked, so a
    # monkeypatch made after the fork would never reach it: each test forks
    # its own, and none outlives the test.
    yield
    nn.stop_worker()


@pytest.fixture
def tiny_config():
    # smallest geometry that still exercises multi-head attention
    return EncoderConfig(embed_dim=8, layers=1, heads=2, ffn_dim=16, n=3, f_max=4)


@pytest.fixture
def tiny_cut():
    return RAcutConfig(n=3, l_max=12)


@pytest.fixture
def tiny_protein():
    return encode_protein("ACDEFGHIKLMN")


@pytest.fixture
def mask_noise():
    return NoiseSpec(kind="mask", mask_prob=0.15)


def random_positive_matrix(rng, n, low=0.1, high=10.0):
    return rng.uniform(low, high, size=(n, n))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
