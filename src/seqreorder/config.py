"""One flat configuration document shared by every command.

Each default is read from the module config or constant that owns it
(``EncoderConfig``, ``CpiConfig``, ``PretrainConfig``, ``FinetuneConfig``,
``NoiseSpec``, ``corpus.DEFAULT_MAX_RESIDUES``,
``evaluation.DEFAULT_RATIOS``), so the defaults are the full-scale
training settings and are stated once. Each module config takes the
fields it shares with RunConfig by name; only ``f_max``, ``sinkhorn``,
``noise``, ``global_seed`` and ``stop_accuracy`` are passed by hand.
Desk-scale runs override the handful of fields they need via flags or a
JSON config file. Flags always win over the file, which wins over defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .artifacts import read_text
from .augment import NoiseSpec, RAcutConfig
from .corpus import DEFAULT_MAX_RESIDUES
from .cpi import CpiConfig, FinetuneConfig
from .encoder import EncoderConfig
from .errors import ValidationError
from .evaluation import DEFAULT_RATIOS
from .perm import SinkhornConfig
from .pretrain import PretrainConfig


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    # data geometry
    n: int = EncoderConfig.n
    l_max: int = DEFAULT_MAX_RESIDUES
    max_atoms: int = CpiConfig.max_atoms
    mask_prob: float = NoiseSpec.mask_prob
    # encoder
    embed_dim: int = EncoderConfig.embed_dim
    layers: int = EncoderConfig.layers
    heads: int = EncoderConfig.heads
    ffn_dim: int = EncoderConfig.ffn_dim
    # optimization (both phases unless overridden per command)
    epochs: int = PretrainConfig.epochs
    lr: float = PretrainConfig.lr
    batch_size: int = PretrainConfig.batch_size
    weight_decay: float = PretrainConfig.weight_decay
    sinkhorn_m: int = PretrainConfig.sinkhorn.m
    eval_m: int = PretrainConfig.eval_m
    # downstream head
    fusion_dim: int = CpiConfig.fusion_dim
    comp_layers: int = CpiConfig.comp_layers
    comp_heads: int = CpiConfig.comp_heads
    comp_ffn_dim: int = CpiConfig.comp_ffn_dim
    lam: float = FinetuneConfig.lam
    # split
    train_ratio: float = DEFAULT_RATIOS[0]
    valid_ratio: float = DEFAULT_RATIOS[1]
    test_ratio: float = DEFAULT_RATIOS[2]

    def with_overrides(self, overrides: dict) -> "RunConfig":
        """A copy with some fields replaced; each value must have its field's type.

        An int given for a float field is stored as a float; a bool is
        never taken for an int, and a float must be finite.
        """
        unknown = set(overrides) - set(FIELD_TYPES)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for name, value in overrides.items():
            typ = FIELD_TYPES[name]
            if typ is float and type(value) is int:
                value = float(value)
            if type(value) is not typ:
                raise ValidationError(f"config key {name!r} must be {typ.__name__}, got {value!r}")
            if typ is float and not math.isfinite(value):
                raise ValidationError(f"config key {name!r} must be finite, got {value!r}")
            values[name] = value
        return replace(self, **values)

    def _build(self, cls: type, **explicit):
        """``cls`` with each field it shares with RunConfig copied by name, plus ``explicit``."""
        return cls(**{name: getattr(self, name) for name in shared_fields(cls)}, **explicit)

    def racut(self) -> RAcutConfig:
        return self._build(RAcutConfig)

    def encoder(self) -> EncoderConfig:
        return self._build(EncoderConfig, f_max=self.racut().f_max)

    def pretrain(self, stop_accuracy: float | None = None) -> PretrainConfig:
        return self._build(
            PretrainConfig,
            sinkhorn=SinkhornConfig(m=self.sinkhorn_m),
            noise=NoiseSpec(mask_prob=self.mask_prob),
            global_seed=self.seed,
            stop_accuracy=stop_accuracy,
        )

    def cpi(self) -> CpiConfig:
        return self._build(CpiConfig)

    def finetune(self) -> FinetuneConfig:
        return self._build(FinetuneConfig)

    def ratios(self) -> tuple[float, float, float]:
        return (self.train_ratio, self.valid_ratio, self.test_ratio)


# each field's type, its default's: with_overrides and the CLI flags use it
FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def shared_fields(cls: type) -> list[str]:
    """The fields of dataclass ``cls`` that RunConfig also has, in ``cls``'s order."""
    return [f.name for f in fields(cls) if f.name in FIELD_TYPES]


def read_config_file(path: str | Path) -> dict:
    """The RunConfig field values a JSON config file sets.

    Malformed JSON, a document that is not an object, an unknown key, a
    value of the wrong type and a non-finite float raise ValidationError
    naming the file.
    """
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object of config keys")
    try:
        RunConfig().with_overrides(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return data
