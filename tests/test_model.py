import dataclasses
import tracemalloc

import numpy as np
import pytest

from moegrow import (
    ModelConfig,
    MoEConfig,
    TrainingDiverged,
    ValidationError,
    backward,
    eval_loss,
    forward,
    random_init,
    upcycle,
)
from moegrow import model as model_module
from moegrow import tensor as tensor_module
from moegrow.model import EVAL_CHUNK_TOKENS, MASK_VALUE, NORM_EPS, _rotary_tables, build_graph
from moegrow.tensor import Tensor, _set_madvise_hugepage, concat
from test_tensor import composed_gated_mlp, composed_mix


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


# top-2 of 8: an expert's output gradient is nonzero on about a quarter of the
# rows, so its backward runs on those rows alone
TOP2_OF_8 = MoEConfig(n_experts=8, top_k=2, router_init_std=0.5)


def test_backward_deterministic(micro_ckpt, micro_config):
    toks = tokens_for(micro_config, 10, 10).reshape(1, -1)
    for ckpt in (micro_ckpt, upcycle(micro_ckpt, TOP2_OF_8, seed=4)):
        g1 = backward(ckpt, toks)
        g2 = backward(ckpt, toks)
        for name in g1:
            assert g1[name].tobytes() == g2[name].tobytes()


def test_routed_float64_gradients_match_the_composed_expert_ops(micro_ckpt, micro_config,
                                                                monkeypatch):
    routed = upcycle(micro_ckpt, TOP2_OF_8, seed=4)
    toks = tokens_for(micro_config, 23, 48).reshape(4, -1)
    fused = backward(routed, toks, dtype=np.float64)
    monkeypatch.setattr(Tensor, "gated_mlp", composed_gated_mlp)
    monkeypatch.setattr(model_module, "mix", lambda w, outs: composed_mix(w, list(outs)))
    composed = backward(routed, toks, dtype=np.float64)
    for name, grad in fused.items():
        np.testing.assert_allclose(grad, composed[name], rtol=1e-9, atol=1e-12, err_msg=name)


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
    rng = np.random.default_rng(12)
    x = rng.normal(size=(5, 8)).astype(np.float32)
    gain = rng.normal(size=(8,)).astype(np.float32)
    base = Tensor(x).rmsnorm(Tensor(gain), NORM_EPS).data
    doubled = Tensor(np.concatenate([x, x], axis=-1)).rmsnorm(
        Tensor(np.concatenate([gain, gain])), NORM_EPS,
    ).data
    assert doubled[:, :8].tobytes() == base.tobytes()
    assert doubled[:, 8:].tobytes() == base.tobytes()


def gather_reference_graph(ckpt, tokens, dtype):
    """The dense model composed from elementary tape ops, with every query
    head gathering a copy of its group's key and value head."""
    cfg = ckpt.config
    batch, seq = tokens.shape
    params = {name: Tensor(arr.astype(dtype)) for name, arr in ckpt.tensors.items()}
    cos, sin = _rotary_tables(seq, cfg.head_dim, dtype)
    mask = np.triu(np.full((seq, seq), MASK_VALUE, dtype=dtype), k=1)
    group_of_head = np.arange(cfg.n_heads) // cfg.heads_per_group
    half = cfg.head_dim // 2

    def rmsnorm(x, gain):
        return x * ((x * x).mean_last_folded() + NORM_EPS) ** -0.5 * gain

    def rotary(t):
        return t * cos + concat([-t[..., half:], t[..., :half]], axis=-1) * sin

    def heads(t, n):
        return t.reshape(batch, seq, n, cfg.head_dim).transpose((0, 2, 1, 3))

    x = params["embed"].gather(tokens.reshape(-1)).reshape(batch, seq, cfg.hidden_dim)
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        hn = rmsnorm(x, params[p + "attn_norm"])
        q, k, v = (hn @ params[p + f"attn.w{name}"] for name in "qkv")
        if cfg.qkv_bias:
            q, k, v = (t + params[p + f"attn.{name}_bias"] for t, name in zip((q, k, v), "qkv"))
        q = rotary(heads(q, cfg.n_heads))
        k = rotary(heads(k, cfg.kv_groups)).gather(group_of_head, axis=1)
        v = heads(v, cfg.kv_groups).gather(group_of_head, axis=1)
        scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(cfg.head_dim)) + mask
        ctx = (scores.softmax_last() @ v).transpose((0, 2, 1, 3)).reshape(batch, seq, cfg.q_dim)
        x = x + ctx @ params[p + "attn.wo"]
        hn = rmsnorm(x, params[p + "mlp_norm"])
        gate = (hn @ params[p + "mlp.w_gate"]).silu()
        x = x + (gate * (hn @ params[p + "mlp.w_up"])) @ params[p + "mlp.w_down"]
    logits = rmsnorm(x, params["final_norm"]) @ params["unembed"]
    return params, logits, logits[:, :-1, :].cross_entropy_last(tokens[:, 1:]).mean()


@pytest.mark.parametrize("kv_groups,heads_per_group", [(1, 1), (1, 4), (2, 3), (4, 2)])
def test_broadcast_gqa_equals_the_gathered_heads_reference(kv_groups, heads_per_group):
    heads = kv_groups * heads_per_group
    cfg = ModelConfig(n_layers=2, hidden_dim=4 * heads, n_heads=heads, head_dim=4,
                      kv_groups=kv_groups, intermediate_dim=6, vocab_size=16, context_length=16)
    ckpt = random_init(cfg, seed=heads, init_std=0.4)
    toks = np.random.default_rng(heads).integers(0, 16, size=(3, 7))
    _, logits, loss = gather_reference_graph(ckpt, toks, np.float32)
    graph = build_graph(ckpt, toks)
    assert graph.logits.data.tobytes() == logits.data.tobytes()
    assert graph.loss.data.tobytes() == loss.data.tobytes()

    params, _, loss = gather_reference_graph(ckpt, toks, np.float64)
    loss.backward()
    graph = build_graph(ckpt, toks, dtype=np.float64)
    graph.loss.backward()
    for name, leaf in graph.params.items():
        np.testing.assert_allclose(leaf.grad, params[name].grad, rtol=1e-9, atol=1e-12,
                                   err_msg=name)


# 4 layers, hidden 64, 8 heads in 2 KV groups, a 16 x 32 token batch
BENCH_CONFIG = ModelConfig(n_layers=4, hidden_dim=64, n_heads=8, head_dim=8, kv_groups=2,
                           intermediate_dim=128, vocab_size=256, context_length=64)


def tape_nodes(graph):
    """Every node reachable from the objective, leaves included."""
    nodes, seen, stack = [], set(), [graph.objective]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def op_nodes(graph):
    """Tape nodes with a backward reachable from the objective."""
    return sum(node._backward is not None for node in tape_nodes(graph))


def bench_routed_step():
    """The upcycled 8-expert, top-2 bench model and a 16 x 33 token batch."""
    toks = np.random.default_rng(0).integers(0, 256, size=(16, 33))
    return upcycle(random_init(BENCH_CONFIG, seed=0), MoEConfig(), seed=1), toks


def test_a_dense_step_at_the_grown_benchmark_config_records_few_nodes():
    # composed from elementary ops the same step records 241 op nodes, and
    # 112 with attention as 14 nodes per layer
    toks = np.random.default_rng(0).integers(0, 256, size=(16, 33))
    graph = build_graph(random_init(BENCH_CONFIG, seed=0), toks)
    assert op_nodes(graph) <= 64
    graph.objective.backward()
    assert all(leaf.grad is not None for leaf in graph.params.values())


def test_a_routed_step_at_the_benchmark_config_records_few_nodes():
    # 8 experts, top-2; with the gated MLP and the expert mix composed from
    # elementary ops the same step records 468 op nodes, and 220 with
    # attention as 14 nodes per layer
    graph = build_graph(*bench_routed_step())
    assert op_nodes(graph) <= 172
    graph.objective.backward()
    assert all(leaf.grad is not None for leaf in graph.params.values())


def test_only_a_routed_expert_backpropagates_the_rows_its_gate_selected(monkeypatch):
    picked = []

    def spy(g):
        picked.append(live_rows(g))
        return picked[-1]

    live_rows = tensor_module._live_rows
    monkeypatch.setattr(tensor_module, "_live_rows", spy)
    routed, toks = bench_routed_step()
    build_graph(random_init(BENCH_CONFIG, seed=0), toks).objective.backward()
    assert picked == [slice(None)] * BENCH_CONFIG.n_layers

    picked.clear()
    graph = build_graph(routed, toks)
    graph.objective.backward()
    # each expert's rows are the tokens routed to it. Only the router losses of
    # later layers read a sequence's last position, so in the last layer an
    # expert's rows leave it out
    read = np.ones(toks.shape, dtype=bool)
    read[:, -1] = False
    want = []
    for idx in reversed(graph.expert_idx):
        want += [np.flatnonzero((idx == j).any(axis=-1) & read)
                 for j in range(routed.moe.n_experts)]
        read[:, -1] = True
    assert all(2 * rows.size < toks.size for rows in want)
    assert sorted(map(tuple, picked)) == sorted(map(tuple, want))


def test_backward_releases_every_interior_node_and_keeps_the_leaf_gradients():
    graph = build_graph(*bench_routed_step())
    interior = [node for node in tape_nodes(graph) if node._backward is not None]
    assert len(interior) > 160
    graph.objective.backward()
    for node in interior:
        assert node.grad is None and node._backward is None and node._parents == ()
    for name, leaf in graph.params.items():
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape, name


def traced_peak(fn):
    """Bytes traced when fn starts, the peak while it runs and the bytes still
    traced when it returns; tracemalloc must be tracing."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    fn()
    after, peak = tracemalloc.get_traced_memory()
    return before, peak, after


def test_a_routed_step_holds_one_tape_through_backward():
    # before interior nodes were released, backward peaked at 1.48 times
    # the forward's bytes and kept 62.7 MiB after it returned
    routed, toks = bench_routed_step()
    tracemalloc.start()
    try:
        graph = build_graph(routed, toks)
        forward_end, peak, after = traced_peak(graph.objective.backward)
    finally:
        tracemalloc.stop()
    grad_bytes = sum(leaf.grad.nbytes for leaf in graph.params.values())
    assert peak <= 1.1 * forward_end, peak / forward_end
    assert after <= grad_bytes + 2**20, (after - grad_bytes) / 2**20


def test_a_float64_graph_converts_each_shared_expert_array_once(micro_ckpt, moe_small):
    routed = upcycle(micro_ckpt, moe_small, seed=4)
    graph = build_graph(routed, tokens_for(micro_ckpt.config, 5, 8), dtype=np.float64)
    for i in range(micro_ckpt.config.n_layers):
        for role in ("w_gate", "w_up", "w_down"):
            leaves = [graph.params[f"layers.{i}.moe.expert.{j}.{role}"]
                      for j in range(moe_small.n_experts)]
            assert leaves[0].dtype == np.float64
            assert all(leaf.data is leaves[0].data for leaf in leaves)
            assert len({id(leaf) for leaf in leaves}) == moe_small.n_experts


@pytest.mark.parametrize("init_std", [-0.02, float("nan"), float("inf")])
def test_random_init_rejects_a_bad_init_std(micro_config, init_std):
    with pytest.raises(ValidationError, match="init_std"):
        random_init(micro_config, seed=0, init_std=init_std)


def test_random_init_with_zero_std_gives_zero_weights(micro_config):
    ckpt = random_init(micro_config, seed=0, init_std=0.0)
    assert not ckpt.tensors["layers.0.attn.wq"].any()


def test_no_bias_config_runs(micro_config):
    cfg = dataclasses.replace(micro_config, qkv_bias=False)
    ckpt = random_init(cfg, seed=13)
    trace = forward(ckpt, tokens_for(cfg, 14, 8))
    assert np.isfinite(trace.logits).all()
    grads = backward(ckpt, tokens_for(cfg, 15, 8).reshape(1, -1))
    assert not any("bias" in n for n in grads)


def taped_eval_loss(ckpt, data, seq_len):
    window = seq_len + 1
    n = data.size // window
    batch = data[: n * window].reshape(n, window)
    per_chunk = max(1, EVAL_CHUNK_TOKENS // window)
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
    # 2,400 tokens are 266 windows of 9: chunks of 117, 117 and 32 windows
    data = tokens_for(micro_config, 17, 2400)
    assert EVAL_CHUNK_TOKENS // 9 == 117
    assert eval_loss(ckpt, data, seq_len=8) == taped_eval_loss(ckpt, data, 8)


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


def test_graphs_are_built_without_huge_page_advice(micro_ckpt, micro_config, monkeypatch):
    def advice() -> bool:
        current = _set_madvise_hugepage(True)
        _set_madvise_hugepage(current)
        return current

    seen = []
    gated_mlp = model_module._gated_mlp

    def spy(*args):
        seen.append(advice())
        return gated_mlp(*args)

    monkeypatch.setattr(model_module, "_gated_mlp", spy)
    before = _set_madvise_hugepage(True)
    try:
        build_graph(micro_ckpt, tokens_for(micro_config, 22, 10).reshape(1, -1))
        assert seen == [False] * micro_config.n_layers and advice() is True
        bad = tokens_for(micro_config, 23, 10)
        bad[0] = micro_config.vocab_size
        with pytest.raises(ValidationError):
            build_graph(micro_ckpt, bad)
        assert advice() is True
    finally:
        _set_madvise_hugepage(before)
