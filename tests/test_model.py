import dataclasses

import numpy as np
import pytest

from moegrow import (
    ModelConfig,
    TrainingDiverged,
    ValidationError,
    backward,
    eval_loss,
    forward,
    random_init,
    upcycle,
)
from moegrow import model as model_module
from moegrow.model import build_graph


def tokens_for(config, seed, length):
    rng = np.random.default_rng(seed)
    return rng.integers(0, config.vocab_size, size=length, dtype=np.int64)


def test_forward_shapes_and_finiteness(micro_ckpt, micro_config):
    toks = tokens_for(micro_config, 0, 12)
    trace = forward(micro_ckpt, toks)
    assert trace.logits.shape == (12, micro_config.vocab_size)
    assert trace.loss_per_position.shape == (11,)
    assert np.isfinite(trace.logits).all()
    assert np.isfinite(trace.loss)


def test_forward_is_deterministic(micro_ckpt, micro_config):
    toks = tokens_for(micro_config, 1, 9)
    a = forward(micro_ckpt, toks)
    b = forward(micro_ckpt, toks)
    assert a.logits.tobytes() == b.logits.tobytes()
    assert a.loss == b.loss


def test_zero_unembed_gives_uniform_loss(micro_config):
    # With a zeroed output projection every logit row is constant, so the
    # cross entropy must equal ln(vocab) exactly at every position.
    ckpt = random_init(micro_config, seed=2)
    tensors = dict(ckpt.tensors)
    tensors["unembed"] = np.zeros_like(tensors["unembed"])
    from moegrow import Checkpoint

    zeroed = Checkpoint(config=micro_config, tensors=tensors)
    trace = forward(zeroed, tokens_for(micro_config, 3, 10))
    expected = np.float32(np.log(micro_config.vocab_size))
    assert np.all(trace.loss_per_position.astype(np.float32) == expected)


def test_causality_future_token_does_not_change_past_logits(micro_ckpt, micro_config):
    toks = tokens_for(micro_config, 4, 14)
    base = forward(micro_ckpt, toks).logits
    mutated = toks.copy()
    mutated[-1] = (mutated[-1] + 1) % micro_config.vocab_size
    after = forward(micro_ckpt, mutated).logits
    assert base[:-1].tobytes() == after[:-1].tobytes()
    assert base[-1].tobytes() != after[-1].tobytes()


def test_position_matters(micro_ckpt, micro_config):
    # Rotary embeddings make the same token pair attend differently by offset.
    toks = np.array([5, 5, 5, 7], dtype=np.int64)
    rolled = np.array([5, 5, 7, 5], dtype=np.int64)
    a = forward(micro_ckpt, toks).logits[-1]
    b = forward(micro_ckpt, rolled).logits[-1]
    assert not np.allclose(a, b)


def test_untrained_loss_near_uniform(toy_config):
    ckpt = random_init(toy_config, seed=5, init_std=0.02)
    toks = tokens_for(toy_config, 6, 512)
    loss = eval_loss(ckpt, toks, seq_len=32)
    assert abs(loss - np.log(toy_config.vocab_size)) < 0.05 * np.log(
        toy_config.vocab_size
    )


def test_token_validation(micro_ckpt, micro_config):
    with pytest.raises(ValidationError):
        forward(micro_ckpt, np.array([0, micro_config.vocab_size], dtype=np.int64))
    with pytest.raises(ValidationError):
        forward(micro_ckpt, np.array([-1, 0], dtype=np.int64))
    with pytest.raises(ValidationError):
        forward(micro_ckpt, np.array([0.5, 1.5]))
    with pytest.raises(ValidationError):
        forward(
            micro_ckpt,
            np.zeros(micro_config.context_length + 1, dtype=np.int64),
        )


def test_eval_loss_matches_per_window_average(micro_ckpt, micro_config):
    seq_len = 8
    data = tokens_for(micro_config, 7, 5 * (seq_len + 1) + 3)
    got = eval_loss(micro_ckpt, data, seq_len=seq_len)
    window = seq_len + 1
    losses = []
    for i in range(data.size // window):
        chunk = data[i * window : (i + 1) * window]
        losses.append(forward(micro_ckpt, chunk).loss_per_position)
    oracle = float(np.mean(np.concatenate(losses)))
    assert got == pytest.approx(oracle, abs=1e-5)


def test_eval_loss_deterministic(micro_ckpt, micro_config):
    data = tokens_for(micro_config, 8, 200)
    assert eval_loss(micro_ckpt, data, seq_len=8) == eval_loss(
        micro_ckpt, data, seq_len=8
    )


def test_eval_loss_needs_one_full_window(micro_ckpt):
    with pytest.raises(ValidationError):
        eval_loss(micro_ckpt, np.arange(5, dtype=np.int64), seq_len=8)


def test_backward_returns_grad_per_tensor(micro_ckpt, micro_config):
    toks = tokens_for(micro_config, 9, 10).reshape(1, -1)
    grads = backward(micro_ckpt, toks)
    assert set(grads) == set(micro_ckpt.tensors)
    for name, g in grads.items():
        assert g.shape == micro_ckpt.tensors[name].shape, name
        assert np.isfinite(g).all(), name
    assert any(np.abs(g).max() > 0 for g in grads.values())


def test_backward_deterministic(micro_ckpt, micro_config):
    toks = tokens_for(micro_config, 10, 10).reshape(1, -1)
    g1 = backward(micro_ckpt, toks)
    g2 = backward(micro_ckpt, toks)
    for name in g1:
        assert g1[name].tobytes() == g2[name].tobytes()


def test_backward_flags_non_finite_loss(micro_config):
    # Overflow the gated MLP product in binary32 so the residual stream goes
    # inf -> nan; the loss stops being a number and training must halt.
    ckpt = random_init(micro_config, seed=11)
    tensors = {k: v.copy() for k, v in ckpt.tensors.items()}
    tensors["layers.0.mlp.w_gate"][:] = 1e20
    tensors["layers.0.mlp.w_up"][:] = 1e20
    from moegrow import Checkpoint

    hot = Checkpoint(config=micro_config, tensors=tensors)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
        backward(hot, np.array([[0, 1, 2]], dtype=np.int64))


def full_model_fd_check(config, moe=None, seed=0, n_coords=6, eps=1e-5):
    """Independent finite-difference probe of the analytic gradients.

    Recomputes the training objective with perturbed weights, one coordinate
    at a time, entirely through the public forward path in binary64.
    """
    from moegrow import Checkpoint, upcycle

    ckpt = random_init(config, seed=seed, init_std=0.4)
    if moe is not None:
        ckpt = upcycle(ckpt, moe, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    toks = rng.integers(0, config.vocab_size, size=(2, 6), dtype=np.int64)

    def objective(tensors):
        probe = Checkpoint(config=config, tensors=tensors, moe=moe)
        graph = build_graph(probe, toks, dtype=np.float64)
        return float(graph.objective.data)

    graph = build_graph(ckpt, toks, dtype=np.float64)
    graph.objective.backward()
    worst = 0.0
    for name in sorted(ckpt.tensors):
        analytic = graph.params[name].grad
        flat_idx = rng.permutation(ckpt.tensors[name].size)[:n_coords]
        for fi in flat_idx:
            idx = np.unravel_index(fi, ckpt.tensors[name].shape)
            tensors = {k: v.astype(np.float64) for k, v in ckpt.tensors.items()}
            tensors[name][idx] += eps
            hi = objective(tensors)
            tensors[name][idx] -= 2 * eps
            lo = objective(tensors)
            fd = (hi - lo) / (2 * eps)
            denom = max(abs(fd), abs(analytic[idx]), 1e-8)
            worst = max(worst, abs(fd - analytic[idx]) / denom)
    return worst


def test_full_dense_gradients_match_finite_differences():
    cfg = ModelConfig(
        n_layers=1, hidden_dim=4, n_heads=2, head_dim=2, kv_groups=1,
        intermediate_dim=4, vocab_size=8, qkv_bias=True, context_length=16,
    )
    assert full_model_fd_check(cfg) < 1e-3


def test_rmsnorm_width_duplication_is_exact(micro_ckpt, micro_config):
    # Doubling every channel (and the gain) leaves the normalized output of
    # each original channel bitwise unchanged; this is the numeric foundation
    # of exact width growth.
    from moegrow.model import _rmsnorm
    from moegrow.tensor import Tensor

    rng = np.random.default_rng(12)
    x = rng.normal(size=(5, 8)).astype(np.float32)
    gain = rng.normal(size=(8,)).astype(np.float32)
    base = _rmsnorm(Tensor(x), Tensor(gain)).data
    doubled = _rmsnorm(
        Tensor(np.concatenate([x, x], axis=-1)),
        Tensor(np.concatenate([gain, gain])),
    ).data
    assert doubled[:, :8].tobytes() == base.tobytes()
    assert doubled[:, 8:].tobytes() == base.tobytes()


def test_no_bias_config_runs(micro_config):
    cfg = dataclasses.replace(micro_config, qkv_bias=False)
    ckpt = random_init(cfg, seed=13)
    trace = forward(ckpt, tokens_for(cfg, 14, 8))
    assert np.isfinite(trace.logits).all()
    grads = backward(ckpt, tokens_for(cfg, 15, 8).reshape(1, -1))
    assert not any("bias" in n for n in grads)


def taped_eval_loss(ckpt, data, seq_len, max_chunk_tokens):
    window = seq_len + 1
    n = data.size // window
    batch = data[: n * window].reshape(n, window)
    per_chunk = max(1, max_chunk_tokens // window)
    total = 0.0
    for start in range(0, n, per_chunk):
        chunk = batch[start : start + per_chunk]
        total += float(build_graph(ckpt, chunk).loss.data) * chunk.shape[0]
    return total / n


@pytest.mark.parametrize("routed", [False, True])
def test_untaped_evaluation_is_bitwise_the_taped_pass(micro_ckpt, micro_config, moe_small, routed):
    ckpt = upcycle(micro_ckpt, moe_small, seed=4) if routed else micro_ckpt
    toks = tokens_for(micro_config, 16, 12)
    graph = build_graph(ckpt, toks)
    trace = forward(ckpt, toks)
    assert trace.logits.tobytes() == graph.logits.data[0].tobytes()
    assert trace.loss_per_position.tobytes() == graph.ce.data[0].tobytes()
    assert trace.loss == float(graph.loss.data)
    if routed:
        assert trace.aux_loss == float(graph.aux.data)
        assert trace.z_loss == float(graph.z.data)
    data = tokens_for(micro_config, 17, 300)
    assert eval_loss(ckpt, data, seq_len=8, max_chunk_tokens=40) == taped_eval_loss(
        ckpt, data, 8, max_chunk_tokens=40
    )


def test_evaluation_keeps_no_tape_and_sets_no_grad(micro_ckpt, micro_config, moe_small,
                                                   monkeypatch):
    graphs = []

    def keep(*args, **kwargs):
        graphs.append(build_graph(*args, **kwargs))
        return graphs[-1]

    monkeypatch.setattr(model_module, "build_graph", keep)
    routed = upcycle(micro_ckpt, moe_small, seed=4)
    for ckpt in (micro_ckpt, routed):
        eval_loss(ckpt, tokens_for(micro_config, 18, 60), seq_len=8)
        forward(ckpt, tokens_for(micro_config, 19, 10))
    assert len(graphs) == 4
    for graph in graphs:
        assert graph.loss._parents == () and graph.logits._parents == ()
        graph.loss.backward()
        assert all(leaf.grad is None for leaf in graph.params.values())


def test_an_eval_that_raises_leaves_the_tape_on(micro_ckpt, micro_config):
    bad = tokens_for(micro_config, 20, 40)
    bad[3] = micro_config.vocab_size
    with pytest.raises(ValidationError):
        eval_loss(micro_ckpt, bad, seq_len=8)
    toks = tokens_for(micro_config, 21, 10).reshape(1, -1)
    grads = backward(micro_ckpt, toks)
    assert set(grads) == set(micro_ckpt.tensors)
    assert all(g is not None and g.shape == micro_ckpt.tensors[n].shape for n, g in grads.items())
