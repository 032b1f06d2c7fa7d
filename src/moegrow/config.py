"""Configuration records: dense models, their MoE extensions, and the base
every config, plan and phase shares.

A record is a frozen dataclass checked once, when it is built: each field's
type against its annotation, then the class's own range rules in
``validate()``. A record that exists is therefore valid, and nothing checks
it again; ``dataclasses.replace`` builds (and so checks) a new one.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import typing
from dataclasses import dataclass
from typing import ClassVar, NewType

from .errors import ValidationError

Seed = NewType("Seed", int)  # a non-negative integer; numpy integers count


def _is_seed(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


def check_seed(seed):
    """Return seed if it is a non-negative integer that is not a bool."""
    if not _is_seed(seed):
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


# Annotation -> (accepts the value, what it must be). Configs are written with
# json.dumps, so numbers are Python ints and floats, never bools.
_TYPE_RULES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
            "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    Seed: (_is_seed, "a non-negative integer"),
}


@functools.cache
def _field_rules(cls) -> tuple[tuple[str, object, typing.Callable, str], ...]:
    """(name, annotation, accepts, what it must be) of each dataclass field,
    resolved once per class; ``dataclasses.fields`` leaves ClassVars out."""
    hints = typing.get_type_hints(cls)
    rules = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        accepts, what = _TYPE_RULES.get(hint) or (
            lambda v, hint=hint: isinstance(v, hint), f"a {hint.__name__}")  # a nested record
        rules.append((f.name, hint, accepts, what))
    return tuple(rules)


class Record:
    """Base of the frozen config dataclasses: type-checked against the
    annotations, then range-checked by ``validate()``, at construction only;
    serialized as a JSON object of its fields."""

    _kind: ClassVar[str]  # names the record in error messages

    def __post_init__(self) -> None:
        for name, _, accepts, what in _field_rules(type(self)):
            value = getattr(self, name)
            if not accepts(value):
                raise ValidationError(f"{self._label()}: {name} must be {what}, got {value!r}")
        self.validate()

    def _label(self) -> str:
        """Names this record in its error messages."""
        return self._kind

    def validate(self) -> None:
        """Range rules of the class; the types are already checked."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        """Build from a JSON object, rejecting input that is not an object,
        names no field, or leaves a required one out. A field that is itself
        a record is built from its own object."""
        if not isinstance(data, dict):
            raise ValidationError(f"{cls._kind} must be a JSON object, got {type(data).__name__}")
        fields = dataclasses.fields(cls)
        unknown = set(data) - {f.name for f in fields}
        if unknown:
            raise ValidationError(f"unknown {cls._kind} fields: {sorted(unknown)}")
        missing = {f.name for f in fields if f.default is dataclasses.MISSING} - set(data)
        if missing:
            raise ValidationError(f"missing {cls._kind} fields: {sorted(missing)}")
        records = {name: hint for name, hint, _, _ in _field_rules(cls)
                   if isinstance(hint, type) and issubclass(hint, Record)}
        return cls(**{name: records[name].from_dict(value) if name in records else value
                      for name, value in data.items()})


_POSITIVE_FIELDS = ("n_layers", "hidden_dim", "n_heads", "head_dim", "kv_groups",
                    "intermediate_dim", "vocab_size", "context_length")


@dataclass(frozen=True)
class ModelConfig(Record):
    """Architecture hyperparameters of a dense decoder-only transformer.

    ``hidden_dim`` must equal ``n_heads * head_dim``, and ``n_heads`` must be
    divisible by ``kv_groups`` (the number of shared key/value heads).
    """

    _kind = "model config"

    n_layers: int
    hidden_dim: int
    n_heads: int
    head_dim: int
    kv_groups: int
    intermediate_dim: int
    vocab_size: int
    qkv_bias: bool = True
    context_length: int = 2048

    def validate(self) -> None:
        for name in _POSITIVE_FIELDS:
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer, got {getattr(self, name)}")
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


@dataclass(frozen=True)
class MoEConfig(Record):
    """Mixture-of-experts layout and auxiliary-loss coefficients.

    ``router_init_std`` is the standard deviation of the router's normal
    initializer (0.02 by default; pass ``sqrt(0.02)`` to read the init scale
    as a variance instead).
    """

    _kind = "moe config"

    n_experts: int = 8
    top_k: int = 2
    aux_coeff: float = 0.001
    z_coeff: float = 0.01
    router_init_std: float = 0.02
    renormalize_gates: bool = True

    def validate(self) -> None:
        if self.n_experts < 2:
            raise ValidationError(f"n_experts must be an integer >= 2, got {self.n_experts}")
        if not 1 <= self.top_k <= self.n_experts:
            raise ValidationError(
                f"top_k must satisfy 1 <= top_k <= n_experts, got {self.top_k} of {self.n_experts}"
            )
        if self.aux_coeff < 0 or self.z_coeff < 0:
            raise ValidationError("loss coefficients must be >= 0")
        if self.router_init_std <= 0:
            raise ValidationError("router_init_std must be > 0")
