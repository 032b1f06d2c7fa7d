import dataclasses
import json
import math

import numpy as np
import pytest

from moegrow import (
    GrowthPlan,
    ModelConfig,
    MoEConfig,
    PhaseSpec,
    TrainConfig,
    ValidationError,
    count_config_params,
    make_synthetic_corpus,
    random_init,
    savings_report,
    scale_up,
    train,
    upcycle,
    verify_preservation,
)
from moegrow.config import Record


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


# -- records: types checked from the annotations, once, at construction --------

MICRO = ModelConfig(n_layers=2, hidden_dim=8, n_heads=4, head_dim=2, kv_groups=2,
                    intermediate_dim=6, vocab_size=16, qkv_bias=True, context_length=64)
RECORDS = {
    "model": MICRO,
    "moe": MoEConfig(n_experts=4, top_k=1, z_coeff=0, router_init_std=0.5),
    "train": TrainConfig(lr=1e-3, warmup_steps=1, total_steps=3, batch_tokens=16,
                         seq_len=8, seed=5),
    "phase": PhaseSpec(name="scale-up", devices=1024, gflops_per_device=240,
                       model_size_B=16.0, trained_tokens_B=1200.0, tokens_per_day_B=70.0),
    "plan": GrowthPlan(method="aki", depth_mode="interpolate", source_config=MICRO,
                       target_config=dataclasses.replace(MICRO, n_layers=4, hidden_dim=16,
                                                         n_heads=8, intermediate_dim=12)),
}


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS)
def test_records_round_trip_through_their_dicts(record):
    cls = type(record)
    assert cls.from_dict(record.to_dict()) == record
    blob = json.dumps(record.to_dict())
    assert cls.from_dict(json.loads(blob)) == record


WRONG_TYPES = [
    ("model", "n_layers", "2"),
    ("model", "hidden_dim", 8.0),
    ("model", "n_heads", True),
    ("model", "vocab_size", np.int64(16)),
    ("model", "qkv_bias", "false"),
    ("model", "qkv_bias", 1),
    ("moe", "aux_coeff", "high"),
    ("moe", "top_k", 1.0),
    ("moe", "aux_coeff", math.nan),
    ("moe", "router_init_std", math.inf),
    ("moe", "z_coeff", False),
    ("moe", "renormalize_gates", "yes"),
    ("train", "lr", math.nan),
    ("train", "lr", "fast"),
    ("train", "total_steps", 2.5),
    ("train", "batch_tokens", 40.5),
    ("train", "adam_eps", -math.inf),
    ("phase", "devices", math.inf),
    ("phase", "devices", 8.0),
    ("phase", "gflops_per_device", "many"),
    ("phase", "tokens_per_day_B", math.nan),
    ("phase", "name", 5),
    ("plan", "method", 1),
    ("plan", "source_config", MICRO.to_dict()),
]


@pytest.mark.parametrize("kind, field, value", WRONG_TYPES, ids=repr)
def test_a_field_of_the_wrong_type_is_named(kind, field, value):
    with pytest.raises(ValidationError, match=field):
        dataclasses.replace(RECORDS[kind], **{field: value})


def test_a_wrong_typed_phase_field_names_the_phase():
    with pytest.raises(ValidationError, match=r"^phase 'scale-up': devices must be an integer"):
        dataclasses.replace(RECORDS["phase"], devices="many")
    with pytest.raises(ValidationError, match=r"^phase: name must be a string, got 5$"):
        dataclasses.replace(RECORDS["phase"], name=5)


def test_json_numbers_fill_float_fields_unchanged():
    cfg = TrainConfig.from_dict({"lr": 0, "weight_decay": 1})
    assert cfg.lr == 0 and type(cfg.lr) is int
    assert TrainConfig(seed=np.int64(7)).seed == 7


def test_nothing_validates_a_record_again(monkeypatch, micro_ckpt):
    """Each record is validated once, when built: calls of ``validate`` equal
    the records built, and the pipeline builds none but the grown configs."""
    counts = {"built": 0, "validated": 0}
    post_init = Record.__post_init__

    def counting_post_init(self):
        counts["built"] += 1
        post_init(self)

    monkeypatch.setattr(Record, "__post_init__", counting_post_init)
    for record in RECORDS.values():
        validate = type(record).validate

        def counting_validate(self, validate=validate):
            counts["validated"] += 1
            validate(self)

        monkeypatch.setattr(type(record), "validate", counting_validate)

    moe, cfg, phase, plan = (RECORDS[k] for k in ("moe", "train", "phase", "plan"))
    data = make_synthetic_corpus(seed=1, vocab=16, n_tokens=200)
    calls = {
        "random_init": lambda: random_init(MICRO, seed=0),
        "upcycle": lambda: upcycle(micro_ckpt, moe, seed=1),
        "count_config_params": lambda: count_config_params(MICRO, moe),
        "train": lambda: train(micro_ckpt, data, cfg, eval_data=data, eval_every=1),
        "savings_report": lambda: savings_report([phase, phase], phase),
    }
    for name, call in calls.items():
        call()
        assert counts == {"built": 0, "validated": 0}, name
    ckpt = random_init(plan.source_config, seed=0)
    scale_up(ckpt, plan)
    # the width target and the grown config, each validated as it is built
    assert counts == {"built": 2, "validated": 2}
