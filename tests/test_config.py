import json

import numpy as np
import pytest

from moegrow import (
    ModelConfig,
    MoEConfig,
    TrainConfig,
    ValidationError,
    make_synthetic_corpus,
    random_init,
    upcycle,
    verify_preservation,
)


def test_derived_dims(micro_config):
    assert micro_config.q_dim == 8
    assert micro_config.kv_dim == 4
    assert micro_config.heads_per_group == 2


def test_roundtrip_dict(micro_config):
    again = ModelConfig.from_dict(micro_config.to_dict())
    assert again == micro_config


def test_roundtrip_json(toy_config):
    blob = json.dumps(toy_config.to_dict())
    assert ModelConfig.from_dict(json.loads(blob)) == toy_config


def test_from_dict_rejects_unknown_key(micro_config):
    data = micro_config.to_dict()
    data["dropout"] = 0.1
    with pytest.raises(ValidationError):
        ModelConfig.from_dict(data)


def test_from_dict_rejects_missing_key(micro_config):
    data = micro_config.to_dict()
    del data["n_heads"]
    with pytest.raises(ValidationError):
        ModelConfig.from_dict(data)


@pytest.mark.parametrize(
    "bad",
    [
        {"n_heads": 3, "kv_groups": 2},       # heads not divisible by groups
        {"n_layers": 0},
        {"hidden_dim": -8},
        {"head_dim": 3},                       # odd head_dim breaks rotary pairing
        {"vocab_size": 1},
        {"context_length": 0},
        {"kv_groups": 0},
    ],
)
def test_invalid_model_configs(micro_config, bad):
    data = micro_config.to_dict()
    data.update(bad)
    with pytest.raises(ValidationError):
        ModelConfig.from_dict(data)


def test_config_is_immutable(micro_config):
    with pytest.raises(Exception):
        micro_config.hidden_dim = 32


def test_moe_defaults():
    moe = MoEConfig()
    assert moe.n_experts == 8
    assert moe.top_k == 2
    assert moe.aux_coeff == 0.001
    assert moe.z_coeff == 0.01
    assert moe.router_init_std == 0.02
    assert moe.renormalize_gates is True


@pytest.mark.parametrize(
    "bad",
    [
        {"top_k": 0},
        {"top_k": 9},                          # k may not exceed expert count
        {"n_experts": 1},
        {"router_init_std": -1.0},
        {"aux_coeff": -0.5},
    ],
)
def test_invalid_moe_configs(bad):
    data = MoEConfig().to_dict()
    data.update(bad)
    with pytest.raises(ValidationError):
        MoEConfig.from_dict(data)


def test_moe_roundtrip():
    moe = MoEConfig(n_experts=16, top_k=4, z_coeff=0.0)
    assert MoEConfig.from_dict(moe.to_dict()) == moe


@pytest.mark.parametrize("cls", [ModelConfig, MoEConfig, TrainConfig])
@pytest.mark.parametrize("data", [[], "ab", 5, None])
def test_from_dict_rejects_non_objects(cls, data):
    with pytest.raises(ValidationError, match="JSON object"):
        cls.from_dict(data)


@pytest.mark.parametrize(
    "cls, data",
    [(MoEConfig, {"aux_coeff": "high"}), (TrainConfig, {"lr": "fast"})],
)
def test_from_dict_rejects_wrong_field_types(cls, data):
    with pytest.raises(ValidationError):
        cls.from_dict(data)


BAD_SEEDS = [-1, 1.5, True, None, "3"]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_every_seed_entry_point_rejects_a_bad_seed(micro_config, micro_ckpt, seed):
    entry_points = [
        lambda: make_synthetic_corpus(seed, vocab=16, n_tokens=10),
        lambda: random_init(micro_config, seed),
        lambda: upcycle(micro_ckpt, MoEConfig(n_experts=2, top_k=1), seed),
        lambda: verify_preservation(micro_ckpt, micro_ckpt, seed=seed),
        lambda: TrainConfig(seed=seed),
    ]
    for call in entry_points:
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            call()


def test_numpy_integer_seeds_are_seeds(micro_config):
    a = random_init(micro_config, np.int64(7))
    b = random_init(micro_config, 7)
    assert a.tensors["embed"].tobytes() == b.tensors["embed"].tobytes()
