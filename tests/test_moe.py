import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moegrow import (
    ModelConfig,
    MoEConfig,
    ValidationError,
    forward,
    load_balance_loss,
    max_z_loss,
    moe_total_loss,
    random_init,
    top_k_indices,
    upcycle,
    verify_preservation,
)
from moegrow.moe import RoutingStats, load_balance_term, route_batch, z_term
from moegrow.tensor import Tensor

RNG = np.random.default_rng(31)


# -- plain-numpy routing oracle ------------------------------------------------


def route(x: np.ndarray, router: np.ndarray, moe: MoEConfig) -> tuple[np.ndarray, RoutingStats]:
    """Route a single hidden vector: (expert indices, stats contribution)."""
    logits = x @ router
    e = np.exp(logits - logits.max())
    probs = e / e.sum()
    idx = np.argsort(-probs, kind="stable")[: moe.top_k]
    f = np.zeros(len(probs))
    np.add.at(f, idx, 1.0 / moe.top_k)
    z = np.asarray([logits.max() + np.log(e.sum())])
    return idx, RoutingStats(f=f, P=probs, z=z)


def combine_stats(parts: list[RoutingStats]) -> RoutingStats:
    """Average per-token stats contributions into batch-level statistics."""
    return RoutingStats(
        f=np.mean([p.f for p in parts], axis=0),
        P=np.mean([p.P for p in parts], axis=0),
        z=np.concatenate([p.z for p in parts]),
    )


# -- selection ---------------------------------------------------------------


def test_top_k_picks_largest_descending():
    probs = np.array([0.1, 0.4, 0.2, 0.3])
    assert top_k_indices(probs, 2).tolist() == [1, 3]
    assert top_k_indices(probs, 4).tolist() == [1, 3, 2, 0]


def test_top_k_breaks_ties_toward_lower_index():
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    assert top_k_indices(probs, 2).tolist() == [0, 1]
    probs = np.array([0.1, 0.3, 0.3, 0.3])
    assert top_k_indices(probs, 2).tolist() == [1, 2]


def test_top_k_batched():
    probs = np.array([[0.9, 0.05, 0.05], [0.05, 0.05, 0.9]])
    assert top_k_indices(probs, 1).tolist() == [[0], [2]]


# -- batched differentiable routing -------------------------------------------


def routed(logits: np.ndarray, moe: MoEConfig) -> tuple[np.ndarray, np.ndarray]:
    """route_batch over the softmax of one row of logits: (idx, the weights
    of the selected experts), checking that no other expert has weight."""
    weights, idx = route_batch(Tensor(logits[None, :]).softmax_last(), moe)
    weights, idx = weights.data[0], idx[0]
    assert np.count_nonzero(weights) == moe.top_k
    return idx, weights[idx]


def test_route_uniform_logits():
    moe = MoEConfig(n_experts=8, top_k=2)
    idx, gates = routed(np.zeros(8), moe)
    assert idx.tolist() == [0, 1]
    np.testing.assert_array_equal(gates, [0.5, 0.5])


def test_route_dominant_expert_takes_almost_all():
    moe = MoEConfig(n_experts=8, top_k=2)
    logits = np.zeros(8)
    logits[3] = 100.0
    idx, gates = routed(logits, moe)
    assert idx[0] == 3
    assert gates[0] > 1 - 1e-6


def test_route_known_distribution():
    moe = MoEConfig(n_experts=4, top_k=2)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    idx, gates = routed(np.log(p), moe)
    assert idx.tolist() == [0, 1]
    np.testing.assert_allclose(gates, [4 / 7, 3 / 7], atol=1e-12)


def test_route_batch_weights_layout():
    moe = MoEConfig(n_experts=8, top_k=2)
    probs_np = RNG.dirichlet(np.ones(8), size=(4, 6)).astype(np.float64)
    weights, idx = route_batch(Tensor(probs_np), moe)
    assert weights.data.shape == probs_np.shape
    assert idx.shape == (4, 6, 2)
    nonzero = weights.data > 0
    assert nonzero.sum() == 4 * 6 * 2
    np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-12)
    for b in range(4):
        for t in range(6):
            assert set(np.nonzero(nonzero[b, t])[0]) == set(idx[b, t])


def test_route_batch_without_renormalization_keeps_raw_mass():
    moe = MoEConfig(n_experts=8, top_k=2, renormalize_gates=False)
    probs_np = RNG.dirichlet(np.ones(8), size=(5,))
    weights, idx = route_batch(Tensor(probs_np), moe)
    raw = np.take_along_axis(probs_np, idx, axis=-1).sum(-1)
    np.testing.assert_allclose(weights.data.sum(axis=-1), raw, atol=1e-12)
    assert np.all(raw < 1.0)


# -- auxiliary losses ----------------------------------------------------------


def test_load_balance_uniform_is_exactly_one():
    stats = RoutingStats(f=np.full(8, 0.125), P=np.full(8, 0.125), z=np.zeros(1))
    assert load_balance_loss(stats, 8) == 1.0


def test_load_balance_collapse_reaches_expert_count():
    f = np.zeros(8)
    f[0] = 1.0
    stats = RoutingStats(f=f, P=f.copy(), z=np.zeros(1))
    assert load_balance_loss(stats, 8) == 8.0


def test_load_balance_partial_concentration():
    f = np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0])
    P = np.array([0.25, 0.25] + [0.0625] * 6)
    stats = RoutingStats(f=f, P=P, z=np.zeros(1))
    assert load_balance_loss(stats, 8) == 2.0


def test_z_loss_values():
    assert max_z_loss(np.array([np.log(8.0)])) == pytest.approx(np.log(8.0) ** 2, abs=1e-9)
    logits = np.full(8, -np.log(8.0))
    lse = logits.max() + np.log(np.exp(logits - logits.max()).sum())
    assert max_z_loss(np.array([lse])) == 0.0


def test_z_loss_quadratic_in_scale():
    z = RNG.normal(size=12)
    assert max_z_loss(2 * z) == pytest.approx(4 * max_z_loss(z), rel=1e-12)


def test_total_loss_arithmetic():
    cfg = MoEConfig(n_experts=8, top_k=2)
    got = moe_total_loss(2.0, 1.5, 4.0, cfg)
    assert got == 2.0 + 0.001 * 1.5 + 0.01 * 4.0
    assert got == pytest.approx(2.0415, abs=1e-12)
    free = MoEConfig(n_experts=8, top_k=2, aux_coeff=0.0, z_coeff=0.0)
    assert moe_total_loss(2.0, 123.0, 456.0, free) == 2.0


# -- tape-level losses agree with the scalar oracles ---------------------------


def test_load_balance_term_matches_stats_route():
    moe = MoEConfig(n_experts=8, top_k=2)
    router = RNG.normal(size=(6, 8))
    xs = RNG.normal(size=(40, 6))
    parts, idx_rows = [], []
    for x in xs:
        idx, stats = route(x, router, moe)
        parts.append(stats)
        idx_rows.append(idx)
    oracle = load_balance_loss(combine_stats(parts), 8)

    logits = xs @ router
    probs = Tensor(logits).softmax_last()
    got = load_balance_term(probs, np.stack(idx_rows), 8)
    assert float(got.data) == pytest.approx(oracle, abs=1e-12)


def test_z_term_matches_stats_route():
    moe = MoEConfig(n_experts=8, top_k=2)
    router = RNG.normal(size=(6, 8))
    xs = RNG.normal(size=(40, 6))
    parts = [route(x, router, moe)[1] for x in xs]
    oracle = max_z_loss(combine_stats(parts).z)
    got = z_term(Tensor(xs @ router))
    assert float(got.data) == pytest.approx(oracle, abs=1e-12)


def test_load_balance_gradient_pushes_off_hot_expert():
    # All tokens routed to experts {0,1}: raising P0 must raise the loss,
    # and the gradient on an unassigned expert's probability must be zero.
    probs_np = np.tile(np.array([[0.45, 0.35, 0.05, 0.15]]), (10, 1))
    idx = top_k_indices(probs_np, 2)
    probs = Tensor(probs_np)
    loss = load_balance_term(probs, idx, 4)
    loss.backward()
    grad = probs.grad
    assert grad[0, 0] > 0
    assert grad[0, 2] == 0
    assert grad[0, 0] > grad[0, 3]


# -- upcycling ------------------------------------------------------------------


def test_upcycle_experts_are_bitwise_replicas(micro_ckpt, moe_small, micro_config):
    sparse = upcycle(micro_ckpt, moe_small, seed=9)
    assert sparse.moe == moe_small
    for i in range(micro_config.n_layers):
        for role in ("w_gate", "w_up", "w_down"):
            dense_mlp = micro_ckpt.tensors[f"layers.{i}.mlp.{role}"]
            for j in range(moe_small.n_experts):
                expert = sparse.tensors[f"layers.{i}.moe.expert.{j}.{role}"]
                # the frozen dense input's own read-only array, shared
                assert expert is dense_mlp
                assert not expert.flags.writeable
        assert sparse.tensors[f"layers.{i}.moe.router"].shape == (
            micro_config.hidden_dim,
            moe_small.n_experts,
        )


def test_upcycle_leaves_attention_and_embeddings_untouched(micro_ckpt, moe_small):
    sparse = upcycle(micro_ckpt, moe_small, seed=9)
    for name, arr in micro_ckpt.tensors.items():
        if ".mlp." in name:
            continue
        assert sparse.tensors[name].tobytes() == arr.tobytes(), name


def test_upcycle_router_seeding(micro_ckpt, moe_small):
    a = upcycle(micro_ckpt, moe_small, seed=1)
    b = upcycle(micro_ckpt, moe_small, seed=1)
    c = upcycle(micro_ckpt, moe_small, seed=2)
    assert a.tensors["layers.0.moe.router"].tobytes() == b.tensors[
        "layers.0.moe.router"
    ].tobytes()
    assert a.tensors["layers.0.moe.router"].tobytes() != c.tensors[
        "layers.0.moe.router"
    ].tobytes()
    assert a.tensors["layers.0.moe.router"].tobytes() != a.tensors[
        "layers.1.moe.router"
    ].tobytes()


def test_upcycle_router_statistics():
    cfg = ModelConfig(
        n_layers=1, hidden_dim=512, n_heads=8, head_dim=64, kv_groups=4,
        intermediate_dim=64, vocab_size=64,
    )
    moe = MoEConfig(n_experts=8, top_k=2, router_init_std=0.02)
    sparse = upcycle(random_init(cfg, seed=0), moe, seed=7)
    router = sparse.tensors["layers.0.moe.router"]
    n = router.size
    standard_error = 0.02 / np.sqrt(n)
    assert abs(router.mean()) < 3 * standard_error
    assert abs(router.std() - 0.02) < 0.1 * 0.02


def test_upcycle_rejects_moe_input(micro_ckpt, moe_small):
    sparse = upcycle(micro_ckpt, moe_small, seed=0)
    with pytest.raises(ValidationError):
        upcycle(sparse, moe_small, seed=0)


@pytest.mark.parametrize("router_seed", [0, 1, 2])
def test_upcycle_preserves_function(micro_ckpt, router_seed):
    moe = MoEConfig(n_experts=8, top_k=2, renormalize_gates=True)
    sparse = upcycle(micro_ckpt, moe, seed=router_seed)
    report = verify_preservation(micro_ckpt, sparse, n_probes=8, probe_len=12)
    assert report.passed
    assert report.max_abs_logit_diff <= 1e-5


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n_experts=st.integers(2, 8), seed=st.integers(0, 2**16))
def test_upcycle_identity_over_expert_layouts(micro_ckpt, data, n_experts, seed):
    top_k = data.draw(st.integers(1, n_experts), label="top_k")
    moe = MoEConfig(n_experts=n_experts, top_k=top_k, router_init_std=0.5)
    sparse = upcycle(micro_ckpt, moe, seed=seed)
    report = verify_preservation(micro_ckpt, sparse, n_probes=2, probe_len=8, seed=seed,
                                 dtype=np.float64, tol=1e-5)
    assert report.passed, report


def test_upcycle_without_renormalization_shrinks_output(micro_ckpt):
    moe = MoEConfig(n_experts=8, top_k=2, renormalize_gates=False)
    sparse = upcycle(micro_ckpt, moe, seed=0)
    report = verify_preservation(micro_ckpt, sparse, n_probes=4)
    assert not report.passed


def test_moe_forward_reports_aux_losses(micro_ckpt, moe_small, micro_config):
    sparse = upcycle(micro_ckpt, moe_small, seed=0)
    toks = RNG.integers(0, micro_config.vocab_size, size=16, dtype=np.int64)
    trace = forward(sparse, toks)
    assert trace.aux_loss is not None and trace.z_loss is not None
    assert 1.0 - 1e-6 <= trace.aux_loss <= moe_small.n_experts + 1e-6
    assert trace.z_loss >= 0.0
    dense_trace = forward(micro_ckpt, toks)
    assert dense_trace.aux_loss is None and dense_trace.z_loss is None
