"""One flat configuration document shared by every command.

Each default is read from the module config or constant that owns it
(``EncoderConfig``, ``CpiConfig``, ``PretrainConfig``, ``FinetuneConfig``,
``NoiseSpec``, ``corpus.DEFAULT_MAX_RESIDUES``,
``evaluation.DEFAULT_RATIOS``), so the defaults are the full-scale
training settings and are stated once. Desk-scale runs override the
handful of fields they need via flags or a JSON config file. Flags always
win over the file, which wins over defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, fields, replace
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
        never taken for an int.
        """
        types = {f.name: type(f.default) for f in fields(self)}
        unknown = set(overrides) - set(types)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for name, value in overrides.items():
            if types[name] is float and type(value) is int:
                value = float(value)
            if type(value) is not types[name]:
                raise ValidationError(
                    f"config key {name!r} must be {types[name].__name__}, got {value!r}"
                )
            values[name] = value
        return replace(self, **values)

    def to_dict(self) -> dict:
        return asdict(self)

    # ---- builders for the per-module configs ----

    def racut(self) -> RAcutConfig:
        return RAcutConfig(n=self.n, l_max=self.l_max)

    def noise(self) -> NoiseSpec:
        return NoiseSpec(mask_prob=self.mask_prob)

    def encoder(self) -> EncoderConfig:
        rc = self.racut()
        return EncoderConfig(
            embed_dim=self.embed_dim,
            layers=self.layers,
            heads=self.heads,
            ffn_dim=self.ffn_dim,
            n=rc.n,
            f_max=rc.f_max,
        )

    def pretrain(self, stop_accuracy: float | None = None) -> PretrainConfig:
        return PretrainConfig(
            epochs=self.epochs,
            lr=self.lr,
            batch_size=self.batch_size,
            weight_decay=self.weight_decay,
            sinkhorn=SinkhornConfig(m=self.sinkhorn_m),
            noise=self.noise(),
            global_seed=self.seed,
            eval_m=self.eval_m,
            stop_accuracy=stop_accuracy,
        )

    def cpi(self) -> CpiConfig:
        return CpiConfig(
            comp_layers=self.comp_layers,
            comp_heads=self.comp_heads,
            comp_ffn_dim=self.comp_ffn_dim,
            fusion_dim=self.fusion_dim,
            max_atoms=self.max_atoms,
        )

    def finetune(self) -> FinetuneConfig:
        return FinetuneConfig(
            epochs=self.epochs,
            lr=self.lr,
            batch_size=self.batch_size,
            lam=self.lam,
            seed=self.seed,
        )

    def ratios(self) -> tuple[float, float, float]:
        return (self.train_ratio, self.valid_ratio, self.test_ratio)


def read_config_file(path: str | Path) -> dict:
    """The RunConfig field values a JSON config file sets.

    Malformed JSON, a document that is not an object, an unknown key
    and a value of the wrong type raise ValidationError naming the file.
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
