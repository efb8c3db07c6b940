"""RunConfig takes every default from the module config that owns it."""

from dataclasses import fields

from seqreorder.config import RunConfig
from seqreorder.cpi import CpiConfig, FinetuneConfig
from seqreorder.encoder import EncoderConfig
from seqreorder.evaluation import DEFAULT_RATIOS
from seqreorder.pretrain import PretrainConfig


def test_default_run_config_builds_the_default_module_configs():
    rc = RunConfig()
    assert rc.encoder() == EncoderConfig()
    assert rc.cpi() == CpiConfig()
    assert rc.pretrain() == PretrainConfig()
    assert rc.finetune() == FinetuneConfig()
    assert rc.ratios() == DEFAULT_RATIOS


# one value off the default for every RunConfig field; embed_dim 12 is
# divisible by both head counts
OFF_DEFAULT = {
    "seed": 3, "n": 5, "l_max": 40, "max_atoms": 33, "mask_prob": 0.2,
    "embed_dim": 12, "layers": 2, "heads": 3, "ffn_dim": 20,
    "epochs": 4, "lr": 1e-3, "batch_size": 5, "weight_decay": 0.0, "sinkhorn_m": 7,
    "eval_m": 9, "fusion_dim": 6, "comp_layers": 3, "comp_heads": 2, "comp_ffn_dim": 14,
    "lam": 0.5, "train_ratio": 0.5, "valid_ratio": 0.2, "test_ratio": 0.3,
}


def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


def test_every_module_config_field_is_set_from_the_run_config():
    # a module config field that no RunConfig value reaches would keep its
    # class default here
    defaults = RunConfig()
    assert set(OFF_DEFAULT) == set(_defaults(RunConfig))
    assert all(getattr(defaults, k) != v for k, v in OFF_DEFAULT.items())
    rc = defaults.with_overrides(OFF_DEFAULT)
    for built in (rc.encoder(), rc.cpi(), rc.finetune()):
        for name, default in _defaults(type(built)).items():
            assert getattr(built, name) != default, (type(built).__name__, name)
