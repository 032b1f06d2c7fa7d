"""Configuration schemas for dense models and their MoE extensions."""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

from .errors import ValidationError


def from_fields(cls, data, kind: str):
    """Build the dataclass ``cls`` from a JSON object, rejecting input that is
    not an object, names no field of ``cls``, or leaves a required one out."""
    if not isinstance(data, dict):
        raise ValidationError(f"{kind} config must be a JSON object, got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ValidationError(f"unknown {kind} config fields: {sorted(unknown)}")
    missing = {f.name for f in fields if f.default is dataclasses.MISSING} - set(data)
    if missing:
        raise ValidationError(f"missing {kind} config fields: {sorted(missing)}")
    try:
        return cls(**data)
    except TypeError as exc:  # a field of the wrong JSON type, e.g. a string compared to 0
        raise ValidationError(f"{kind} config field of the wrong type: {exc}") from exc


def check_seed(seed):
    """Return seed if it is a non-negative integer that is not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


_POSITIVE_FIELDS = (
    "n_layers",
    "hidden_dim",
    "n_heads",
    "head_dim",
    "kv_groups",
    "intermediate_dim",
    "vocab_size",
    "context_length",
)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters of a dense decoder-only transformer.

    ``hidden_dim`` must equal ``n_heads * head_dim``, and ``n_heads`` must be
    divisible by ``kv_groups`` (the number of shared key/value heads).
    """

    n_layers: int
    hidden_dim: int
    n_heads: int
    head_dim: int
    kv_groups: int
    intermediate_dim: int
    vocab_size: int
    qkv_bias: bool = True
    context_length: int = 2048

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValidationError(f"{name} must be a positive integer, got {value!r}")
        if self.head_dim % 2 != 0:
            raise ValidationError(f"head_dim must be even for rotary embeddings, got {self.head_dim}")
        if self.vocab_size < 2:
            raise ValidationError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.hidden_dim != self.n_heads * self.head_dim:
            raise ValidationError(
                f"hidden_dim != n_heads*head_dim "
                f"({self.hidden_dim} != {self.n_heads}*{self.head_dim})"
            )
        if self.n_heads % self.kv_groups != 0:
            raise ValidationError(
                f"n_heads not divisible by kv_groups ({self.n_heads} % {self.kv_groups} != 0)"
            )

    @property
    def q_dim(self) -> int:
        return self.n_heads * self.head_dim

    @property
    def kv_dim(self) -> int:
        return self.kv_groups * self.head_dim

    @property
    def heads_per_group(self) -> int:
        return self.n_heads // self.kv_groups

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return from_fields(cls, data, "model")


@dataclass(frozen=True)
class MoEConfig:
    """Mixture-of-experts layout and auxiliary-loss coefficients.

    ``router_init_std`` is the standard deviation of the router's normal
    initializer (0.02 by default; pass ``sqrt(0.02)`` to read the init scale
    as a variance instead).
    """

    n_experts: int = 8
    top_k: int = 2
    aux_coeff: float = 0.001
    z_coeff: float = 0.01
    router_init_std: float = 0.02
    renormalize_gates: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.n_experts, int) or self.n_experts < 2:
            raise ValidationError(f"n_experts must be an integer >= 2, got {self.n_experts!r}")
        if not isinstance(self.top_k, int) or not 1 <= self.top_k <= self.n_experts:
            raise ValidationError(
                f"top_k must satisfy 1 <= top_k <= n_experts, got {self.top_k!r} of {self.n_experts}"
            )
        if self.aux_coeff < 0 or self.z_coeff < 0:
            raise ValidationError("loss coefficients must be >= 0")
        if self.router_init_std <= 0:
            raise ValidationError("router_init_std must be > 0")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MoEConfig":
        return from_fields(cls, data, "moe")
