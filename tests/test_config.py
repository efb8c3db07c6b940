"""RunConfig takes every default from the module config that owns it."""

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
