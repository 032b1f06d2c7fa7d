import csv
import io
import math

import numpy as np
import pytest

from moegrow import (
    Checkpoint,
    ModelConfig,
    MoEConfig,
    TrainConfig,
    TrainingDiverged,
    ValidationError,
    grad_check,
    lr_schedule,
    random_init,
    train,
    upcycle,
)
from moegrow.model import build_graph
from moegrow.train import MIN_LR_FRACTION, MetricLog, MetricRow, sample_batch


def quick_cfg(**kw):
    base = dict(
        lr=3e-3, warmup_steps=5, total_steps=40, batch_tokens=64, seq_len=16, seed=0
    )
    base.update(kw)
    return TrainConfig(**base)


# -- schedule ------------------------------------------------------------------


def test_schedule_warmup_is_linear():
    cfg = quick_cfg(lr=1.0, warmup_steps=10, total_steps=100)
    assert lr_schedule(cfg, 0) == pytest.approx(0.1)
    assert lr_schedule(cfg, 4) == pytest.approx(0.5)
    assert lr_schedule(cfg, 9) == pytest.approx(1.0)


def test_schedule_cosine_decays_to_floor():
    cfg = quick_cfg(lr=1.0, warmup_steps=10, total_steps=110)
    assert lr_schedule(cfg, 10) == pytest.approx(1.0)
    midpoint = lr_schedule(cfg, 60)
    assert midpoint == pytest.approx(MIN_LR_FRACTION + (1 - MIN_LR_FRACTION) / 2)
    assert lr_schedule(cfg, 110) == pytest.approx(MIN_LR_FRACTION)


def test_schedule_monotone_after_warmup():
    cfg = quick_cfg(lr=0.5, warmup_steps=3, total_steps=50)
    values = [lr_schedule(cfg, s) for s in range(3, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_schedule_all_warmup_stays_at_peak():
    cfg = quick_cfg(lr=0.25, warmup_steps=8, total_steps=8)
    assert lr_schedule(cfg, 8) == 0.25


# -- config --------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        {"lr": -1e-4},
        {"seq_len": 1},
        {"warmup_steps": 50, "total_steps": 40},
        {"batch_tokens": 8, "seq_len": 16},
        {"beta1": 1.0},
        {"weight_decay": -0.1},
        {"total_steps": 0},
        {"adam_eps": -1.0},
        {"adam_eps": 0.0},
    ],
)
def test_train_config_rejects(bad):
    with pytest.raises(ValidationError):
        quick_cfg(**bad)


def test_train_config_roundtrip():
    cfg = quick_cfg(weight_decay=0.0, seed=7)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValidationError):
        TrainConfig.from_dict({"momentum": 0.9})


def test_sequences_per_batch():
    assert quick_cfg(batch_tokens=64, seq_len=16).sequences_per_batch == 4


def test_sample_batch_shape_and_membership():
    rng = np.random.default_rng(0)
    data = np.arange(1000, dtype=np.int64)
    batch = sample_batch(rng, data, n_seqs=3, seq_len=10)
    assert batch.shape == (3, 10)
    for row in batch:
        assert np.array_equal(row, np.arange(row[0], row[0] + 10))
    with pytest.raises(ValidationError):
        sample_batch(rng, data[:5], n_seqs=1, seq_len=10)


# -- training ------------------------------------------------------------------


def test_zero_lr_is_a_bitwise_no_op(micro_ckpt, corpus):
    cfg = quick_cfg(lr=0.0, total_steps=3, warmup_steps=0)
    trained, log = train(micro_ckpt, corpus % 16, cfg)
    for name in micro_ckpt.tensors:
        assert trained.tensors[name].tobytes() == micro_ckpt.tensors[name].tobytes()
    assert [r.lr for r in log.rows] == [0.0, 0.0, 0.0]


def test_training_reduces_loss(micro_config, corpus):
    ckpt = random_init(micro_config, seed=0)
    trained, log = train(ckpt, corpus % 16, quick_cfg(total_steps=60))
    first = np.mean([r.train_loss for r in log.rows[:5]])
    last = np.mean([r.train_loss for r in log.rows[-5:]])
    assert last < first - 0.5
    assert len(log.rows) == 60


def test_training_is_deterministic(micro_config, corpus):
    ckpt = random_init(micro_config, seed=1)
    cfg = quick_cfg(total_steps=10)
    a, log_a = train(ckpt, corpus % 16, cfg)
    b, log_b = train(ckpt, corpus % 16, cfg)
    for name in a.tensors:
        assert a.tensors[name].tobytes() == b.tensors[name].tobytes()
    assert log_a.to_csv() == log_b.to_csv()
    c, _ = train(ckpt, corpus % 16, quick_cfg(total_steps=10, seed=5))
    assert any(
        a.tensors[n].tobytes() != c.tensors[n].tobytes() for n in a.tensors
    )


def test_divergence_raises_with_step(micro_config, corpus):
    ckpt = random_init(micro_config, seed=2)
    cfg = quick_cfg(lr=1e20, total_steps=30, warmup_steps=0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged) as exc_info:
            train(ckpt, corpus % 16, cfg)
    assert exc_info.value.step is not None
    assert 1 <= exc_info.value.step < 30
    assert str(exc_info.value.step) in str(exc_info.value)


def test_eval_rows_and_improvement(micro_config, corpus):
    ckpt = random_init(micro_config, seed=3)
    data = corpus % 16
    trained, log = train(
        ckpt, data[:40000], quick_cfg(total_steps=30), eval_data=data[40000:],
        eval_every=10,
    )
    series = log.eval_series()
    assert [s for s, _ in series] == [0, 10, 20, 29]
    assert series[-1][1] < series[0][1]


@pytest.mark.parametrize("eval_every", [0, -2])
def test_eval_every_must_be_positive(micro_ckpt, corpus, eval_every):
    with pytest.raises(ValidationError, match="eval_every"):
        train(micro_ckpt, corpus % 16, quick_cfg(total_steps=3, warmup_steps=0),
              eval_data=corpus % 16, eval_every=eval_every)


def test_moe_training_logs_aux_losses(micro_ckpt, moe_small, corpus):
    sparse = upcycle(micro_ckpt, moe_small, seed=0)
    trained, log = train(sparse, corpus % 16, quick_cfg(total_steps=3, warmup_steps=0))
    for row in log.rows:
        assert row.aux_loss is not None and row.aux_loss >= 0.9
        assert row.z_loss is not None and row.z_loss >= 0.0
    assert trained.moe == moe_small


def test_routed_training_is_bitwise_a_reference_adamw_loop(micro_ckpt, moe_small, corpus):
    # the update written as whole-array expressions; train() computes it in
    # place and must give the same bits
    sparse = upcycle(micro_ckpt, moe_small, seed=4)
    data = corpus % 16
    cfg = quick_cfg(total_steps=3, warmup_steps=1, weight_decay=0.1)
    trained, _ = train(sparse, data, cfg)

    params = {name: arr.astype(np.float32) for name, arr in sparse.tensors.items()}
    m = {name: np.zeros_like(arr) for name, arr in params.items()}
    v = {name: np.zeros_like(arr) for name, arr in params.items()}
    rng = np.random.default_rng(cfg.seed)
    for step in range(cfg.total_steps):
        batch = sample_batch(rng, data, cfg.sequences_per_batch, cfg.seq_len)
        live = Checkpoint(config=sparse.config, tensors=params, moe=sparse.moe)
        graph = build_graph(live, batch)
        graph.objective.backward()
        lr = lr_schedule(cfg, step)
        bc1 = 1.0 - cfg.beta1 ** (step + 1)
        bc2 = 1.0 - cfg.beta2 ** (step + 1)
        for name in sorted(params):
            g = graph.params[name].grad
            m[name] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * g
            v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * g * g
            m_hat = m[name] / bc1
            v_hat = v[name] / bc2
            params[name] = params[name] - lr * (
                m_hat / (np.sqrt(v_hat) + cfg.adam_eps) + cfg.weight_decay * params[name]
            )
    for name, arr in params.items():
        assert trained.tensors[name].tobytes() == arr.tobytes(), name
    assert any(trained.tensors[n].tobytes() != sparse.tensors[n].tobytes() for n in params)


def test_dense_training_leaves_aux_empty(micro_ckpt, corpus):
    _, log = train(micro_ckpt, corpus % 16, quick_cfg(total_steps=2, warmup_steps=0))
    assert all(r.aux_loss is None and r.z_loss is None for r in log.rows)


# -- metric log -----------------------------------------------------------------


def test_csv_layout():
    log = MetricLog(
        rows=[
            MetricRow(step=0, train_loss=2.5, lr=0.001),
            MetricRow(step=1, train_loss=2.25, lr=0.002, eval_loss=2.4,
                      aux_loss=1.01, z_loss=4.3),
        ]
    )
    text = log.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "step,train_loss,lr,eval_loss,aux_loss,z_loss"
    assert lines[1] == "0,2.5,0.001,,,"
    assert lines[2] == "1,2.25,0.002,2.4,1.01,4.3"
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert parsed[0]["eval_loss"] == ""
    assert float(parsed[1]["eval_loss"]) == 2.4


def test_csv_roundtrips_floats_exactly():
    value = 1.0 / 3.0
    log = MetricLog(rows=[MetricRow(step=0, train_loss=value, lr=value)])
    parsed = list(csv.DictReader(io.StringIO(log.to_csv())))
    assert float(parsed[0]["train_loss"]) == value


def test_metric_log_save(tmp_path):
    log = MetricLog(rows=[MetricRow(step=0, train_loss=1.0, lr=0.1)])
    path = tmp_path / "metrics.csv"
    log.save(path)
    assert path.read_text().startswith("step,train_loss")
    assert log.final_train_loss() == 1.0


# -- gradient spot-check ---------------------------------------------------------


MICRO = ModelConfig(
    n_layers=1, hidden_dim=4, n_heads=2, head_dim=2, kv_groups=1,
    intermediate_dim=4, vocab_size=8, qkv_bias=True, context_length=16,
)


def test_grad_check_dense_micro():
    assert grad_check(MICRO, seed=0) < 1e-3


def test_grad_check_moe_micro():
    moe = MoEConfig(n_experts=4, top_k=2, router_init_std=0.5)
    assert grad_check(MICRO, seed=0, moe=moe) < 1e-3


def test_grad_check_feels_truncation_error():
    fine = grad_check(MICRO, seed=1, eps=1e-5)
    coarse = grad_check(MICRO, seed=1, eps=0.5)
    assert coarse > 10 * fine


def test_grad_check_guards_model_size(toy_double):
    with pytest.raises(ValidationError):
        grad_check(toy_double)
