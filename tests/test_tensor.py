"""Gradient checks for the reverse-mode tape.

Every op's backward is compared against central finite differences of the
same scalar, computed with plain numpy so the two routes share no code.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moegrow.tensor import (
    Tensor,
    _set_madvise_hugepage,
    attention,
    concat,
    mix,
    no_huge_pages,
    no_tape,
)

RNG = np.random.default_rng(7)


def fd_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar f at x, one coordinate at a time."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f(x)
        x[idx] = orig - eps
        lo = f(x)
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
    return g


def check_grads(build, arrays, tol=1e-7, eps=1e-6):
    """build(*tensors) -> scalar Tensor. Compares tape grads to FD for each input."""
    tensors = [Tensor(a.copy()) for a in arrays]
    out = build(*tensors)
    assert out.data.shape == (), "gradcheck target must be scalar"
    out.backward()
    for k, (a, t) in enumerate(zip(arrays, tensors)):
        def scalar(x, k=k):
            probe = [Tensor(arr.copy()) for arr in arrays]
            probe[k] = Tensor(x.copy())
            return float(build(*probe).data)

        fd = fd_gradient(scalar, a.copy(), eps=eps)
        denom = max(np.max(np.abs(fd)), np.max(np.abs(t.grad)), 1e-12)
        rel = np.max(np.abs(t.grad - fd)) / denom
        assert rel < tol, f"input {k}: rel err {rel:.3e}"


def weighted(out: Tensor, seed: int = 0, live=None) -> Tensor:
    """Random-weight the output so symmetric gradients cannot hide bugs. With
    `live`, a boolean mask over the leading axes, the weights, and so the
    output's gradient, are zero on every row the mask leaves out."""
    w = np.random.default_rng(seed).normal(size=out.data.shape)
    if live is not None:
        w *= live[..., None]
    return (out * Tensor(w)).sum()


def test_add_broadcast():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4,))
    check_grads(lambda x, y: weighted(x + y), [a, b])


def test_sub_and_neg():
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(2, 3))
    check_grads(lambda x, y: weighted(x - y), [a, b])


def test_mul_broadcast():
    a = RNG.normal(size=(2, 3, 4))
    b = RNG.normal(size=(3, 1))
    check_grads(lambda x, y: weighted(x * y), [a, b])


def test_div():
    a = RNG.normal(size=(3, 3))
    b = RNG.normal(size=(3, 3)) + 3.0
    check_grads(lambda x, y: weighted(x / y), [a, b])


def test_pow():
    a = np.abs(RNG.normal(size=(4,))) + 0.5
    check_grads(lambda x: weighted(x ** -0.5), [a], tol=1e-6)


def test_matmul_2d():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    check_grads(lambda x, y: weighted(x @ y), [a, b])


def test_matmul_batched_shared_weight():
    # (B, T, h) @ (h, m): the weight grad must sum over the batch axis.
    a = RNG.normal(size=(2, 3, 4))
    b = RNG.normal(size=(4, 5))
    check_grads(lambda x, y: weighted(x @ y), [a, b])


@pytest.mark.parametrize("lead", [(1, 1), (2, 3), (3, 1, 5), (16, 33)])
def test_shared_weight_matmul_is_one_gemm_over_the_flattened_rows(lead):
    a = RNG.normal(size=lead + (7,)).astype(np.float32)
    b = RNG.normal(size=(7, 5)).astype(np.float32)
    expected = np.matmul(a.reshape(-1, 7), b).reshape(lead + (5,))
    assert (Tensor(a) @ Tensor(b)).data.tobytes() == expected.tobytes()


def test_matmul_batched_both():
    a = RNG.normal(size=(2, 3, 4))
    b = RNG.normal(size=(2, 4, 3))
    check_grads(lambda x, y: weighted(x @ y), [a, b])


def test_reshape_transpose_getitem():
    a = RNG.normal(size=(2, 3, 4))

    def build(x):
        y = x.reshape(2, 12).transpose((1, 0)).reshape(3, 4, 2)
        return weighted(y[1:, :2], seed=1)

    check_grads(build, [a])


def test_concat():
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(2, 5))
    check_grads(lambda x, y: weighted(concat([x, y], axis=1)), [a, b])


def test_sum_axis_keepdims():
    a = RNG.normal(size=(2, 3, 4))
    check_grads(lambda x: weighted(x.sum(axis=1, keepdims=True), seed=2), [a])


def test_mean():
    a = RNG.normal(size=(3, 5))
    check_grads(lambda x: weighted(x.mean(axis=-1), seed=3), [a])


def test_mean_last_folded_matches_mean_value():
    a = RNG.normal(size=(4, 6)).astype(np.float32)
    folded = Tensor(a).mean_last_folded().data
    np.testing.assert_allclose(folded, a.mean(axis=-1, keepdims=True),
                               rtol=1e-6, atol=1e-7)


def test_mean_last_folded_grad():
    a = RNG.normal(size=(3, 8))
    check_grads(lambda x: weighted(x.mean_last_folded(), seed=4), [a])


@pytest.mark.parametrize("n", [1, 3, 5, 8, 13])
@pytest.mark.parametrize("dup", [2, 4, 8])
def test_folded_mean_duplication_identity(n, dup):
    # Duplicating the last axis a power-of-two number of times must not move
    # the mean by even one ulp; this is what keeps width growth exact.
    x = RNG.normal(size=(3, n)).astype(np.float32) * 10
    tiled = np.concatenate([x] * dup, axis=-1)
    m1 = Tensor(x).mean_last_folded().data
    m2 = Tensor(tiled).mean_last_folded().data
    assert m1.tobytes() == m2.tobytes()


def test_exp_log_sigmoid_silu():
    a = RNG.normal(size=(2, 4))
    check_grads(lambda x: weighted(x.exp(), seed=5), [a])
    b = np.abs(RNG.normal(size=(2, 4))) + 0.5
    check_grads(lambda x: weighted(x.log(), seed=6), [b])
    check_grads(lambda x: weighted(x.sigmoid(), seed=7), [a], tol=1e-6)
    check_grads(lambda x: weighted(x.silu(), seed=8), [a], tol=1e-6)


def test_softmax_last():
    a = RNG.normal(size=(2, 3, 5))
    out = Tensor(a).softmax_last().data
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    check_grads(lambda x: weighted(x.softmax_last(), seed=9), [a], tol=1e-6)


def test_softmax_last_shift_invariance():
    a = RNG.normal(size=(4, 6))
    shifted = Tensor(a + 123.0).softmax_last().data
    np.testing.assert_allclose(Tensor(a).softmax_last().data, shifted, atol=1e-12)


def test_logsumexp_last():
    a = RNG.normal(size=(3, 7))
    out = Tensor(a).logsumexp_last().data
    oracle = np.log(np.exp(a).sum(axis=-1))
    np.testing.assert_allclose(out, oracle, atol=1e-10)
    check_grads(lambda x: weighted(x.logsumexp_last(), seed=10), [a], tol=1e-6)


def test_logsumexp_last_large_inputs_stable():
    a = np.array([[1000.0, 1000.0], [-2000.0, -2000.0]])
    out = Tensor(a).logsumexp_last().data
    np.testing.assert_allclose(out, [1000.0 + np.log(2), -2000.0 + np.log(2)])


def test_gather_repeated_rows():
    a = RNG.normal(size=(5, 3))
    idx = np.array([1, 1, 4, 0, 1])
    check_grads(lambda x: weighted(x.gather(idx), seed=11), [a])


def test_gather_last():
    # indices are unique within each row, matching how routing uses this op
    a = RNG.normal(size=(4, 6))
    idx = np.stack([RNG.permutation(6)[:2] for _ in range(4)])
    check_grads(lambda x: weighted(x.gather_last(idx), seed=12), [a])


def test_scatter_last():
    a = RNG.normal(size=(4, 2))
    idx = np.stack([RNG.permutation(5)[:2] for _ in range(4)])

    def build(x):
        return weighted(x.scatter_last(idx, 5), seed=13)

    check_grads(build, [a])
    placed = Tensor(a).scatter_last(idx, 5).data
    assert placed.shape == (4, 5)
    np.testing.assert_allclose(placed.sum(axis=-1), a.sum(axis=-1), atol=1e-12)


def test_cross_entropy_last_value_oracle():
    a = RNG.normal(size=(2, 3, 6))
    targets = RNG.integers(0, 6, size=(2, 3))
    got = Tensor(a).cross_entropy_last(targets).data
    lse = np.log(np.exp(a - a.max(-1, keepdims=True)).sum(-1)) + a.max(-1)
    oracle = lse - np.take_along_axis(a, targets[..., None], axis=-1)[..., 0]
    np.testing.assert_allclose(got, oracle, atol=1e-10)


def test_cross_entropy_last_grad():
    a = RNG.normal(size=(2, 4))
    targets = np.array([3, 0])
    check_grads(lambda x: x.cross_entropy_last(targets).mean().sum(), [a], tol=1e-6)


# -- fused ops: exact gradients, and values bitwise those of the ops they fuse


def composed_rmsnorm(x, gain, eps):
    return x * ((x * x).mean_last_folded() + eps) ** -0.5 * gain


def composed_gated_mlp(x, w_gate, w_up, w_down):
    return ((x @ w_gate).silu() * (x @ w_up)) @ w_down


def composed_mix(weights, outs):
    y = weights[..., 0:1] * outs[0]
    for j in range(1, len(outs)):
        y = y + weights[..., j : j + 1] * outs[j]
    return y


def mlp_weights(rng, width, inner, dtype=np.float64):
    return [(rng.normal(size=shape) * 0.7).astype(dtype)
            for shape in ((width, inner), (width, inner), (inner, width))]


def causal_mask(seq, dtype=np.float64):
    return np.triu(np.full((seq, seq), -1e30, dtype=dtype), k=1)


def rotary_tables(rng, seq, width, dtype=np.float64):
    angles = rng.uniform(-3, 3, size=(seq, width))
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


def heads_first(t, groups, head_dim):
    """(batch, seq, groups * heads * head_dim), an array or a Tensor, as
    (batch, group, head, seq, head_dim)."""
    batch, seq, width = t.shape
    return t.reshape(batch, seq, groups, width // (groups * head_dim), head_dim).transpose(
        (0, 2, 3, 1, 4))


def numpy_attention(q, k, v, cos, sin, scale, mask, groups):
    """Rotate-half rotary, the masked softmax and the per-head GEMMs in plain
    numpy; a key and value head broadcasts over its group's query heads."""
    d, half = cos.shape[-1], cos.shape[-1] // 2

    def rotary(t):
        return t * cos + np.concatenate([-t[..., half:], t[..., :half]], axis=-1) * sin

    qh, kh = rotary(heads_first(q, groups, d)), rotary(heads_first(k, groups, d))
    z = (qh @ kh.swapaxes(-1, -2)) * np.asarray(scale, dtype=q.dtype) + mask
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    ctx = (e / e.sum(axis=-1, keepdims=True)) @ heads_first(v, groups, d)
    return ctx.transpose(0, 3, 1, 2, 4).reshape(q.shape)


def composed_attention(q, k, v, cos, sin, scale, mask, groups):
    """The same attention composed from elementary tape ops."""
    d, half = cos.shape[-1], cos.shape[-1] // 2

    def rotary(t):
        return t * cos + concat([-t[..., half:], t[..., :half]], axis=-1) * sin

    qh, kh = rotary(heads_first(q, groups, d)), rotary(heads_first(k, groups, d))
    probs = ((qh @ kh.transpose((0, 1, 2, 4, 3))) * scale + mask).softmax_last()
    ctx = probs @ heads_first(v, groups, d)
    return ctx.transpose((0, 3, 1, 2, 4)).reshape(q.shape)


@pytest.mark.parametrize("width", [1, 5, 8])
def test_rmsnorm_grad(width):
    a = RNG.normal(size=(2, 3, width))
    gain = RNG.normal(size=(width,))
    check_grads(lambda x, g: weighted(x.rmsnorm(g, 1e-5), seed=14), [a, gain], tol=1e-6)


# which rows of an output gradient are nonzero: every row (a dense MLP), a
# third of them (a routed expert) or none (an expert routed no token)
LIVE_ROWS = {
    "every": lambda n: np.ones(n, dtype=bool),
    "a third": lambda n: np.arange(n) % 3 == 1,
    "none": lambda n: np.zeros(n, dtype=bool),
}


@pytest.mark.parametrize("lead", [(4,), (2, 3), (2, 1, 3)])
def test_gated_mlp_grad(lead):
    x = RNG.normal(size=lead + (5,)) * 2
    arrays = [x, *mlp_weights(RNG, 5, 6)]
    for rows, live_rows in LIVE_ROWS.items():
        live = live_rows(int(np.prod(lead))).reshape(lead)

        def build(x, wg, wu, wd, live=live):
            return weighted(x.gated_mlp(wg, wu, wd), seed=18, live=live)

        check_grads(build, arrays, tol=1e-6)
        leaves = [Tensor(a) for a in arrays]
        build(*leaves).backward()
        assert not leaves[0].grad[~live].any(), rows
        if rows == "none":
            assert not any(leaf.grad.any() for leaf in leaves)


def test_gated_mlp_saturates_without_overflow_or_nan():
    # exp(-a) overflows to inf for very negative a; silu there is -0.0
    x = np.array([[-1e4, 1e4, 0.0]], dtype=np.float32)
    eye = np.eye(3, dtype=np.float32)
    out = Tensor(x).gated_mlp(Tensor(eye), Tensor(eye), Tensor(eye))
    assert np.isfinite(out.data).all()
    assert out.data.tobytes() == composed_gated_mlp(
        Tensor(x), Tensor(eye), Tensor(eye), Tensor(eye)).data.tobytes()


@pytest.mark.parametrize("n_out", [2, 3])
def test_mix_grad(n_out):
    w = RNG.normal(size=(2, 3, n_out))
    outs = [RNG.normal(size=(2, 3, 4)) for _ in range(n_out)]
    check_grads(lambda w, *outs: weighted(mix(w, list(outs)), seed=19), [w, *outs])


def projections(rng, batch, seq, kv_groups, heads_per_group, head_dim, dtype=np.float64):
    """q, k and v as the (batch, seq, heads * head_dim) projections."""
    return [(rng.normal(size=(batch, seq, kv_groups * heads * head_dim)) * 2).astype(dtype)
            for heads in (heads_per_group, 1, 1)]


@pytest.mark.parametrize("kv_groups,heads_per_group,head_dim", [(1, 1, 2), (2, 3, 4), (3, 2, 2)])
def test_attention_grad(kv_groups, heads_per_group, head_dim):
    seq = 4
    qkv = projections(RNG, 2, seq, kv_groups, heads_per_group, head_dim)
    cos, sin = rotary_tables(RNG, seq, head_dim)
    mask = causal_mask(seq)
    check_grads(lambda q, k, v: weighted(attention(q, k, v, cos, sin, 0.5, mask), seed=15),
                qkv, tol=1e-6)

    # causal: the first position's context reads no later key or value
    leaves = [Tensor(a) for a in qkv]
    weighted(attention(*leaves, cos, sin, 0.5, mask)[:, :1], seed=16).backward()
    assert not leaves[1].grad[:, 1:].any() and not leaves[2].grad[:, 1:].any()


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 3),
    seq=st.integers(1, 9),
    kv_groups=st.integers(1, 3),
    heads_per_group=st.integers(1, 4),
    half=st.integers(1, 4),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_attention_is_bitwise_plain_numpy_with_the_composed_gradients(
    batch, seq, kv_groups, heads_per_group, half, dtype, seed
):
    rng = np.random.default_rng(seed)
    head_dim = 2 * half
    qkv = projections(rng, batch, seq, kv_groups, heads_per_group, head_dim, dtype)
    cos, sin = rotary_tables(rng, seq, head_dim, dtype)
    mask, scale = causal_mask(seq, dtype), 1.0 / np.sqrt(head_dim)
    leaves = [Tensor(a) for a in qkv]
    out = attention(*leaves, cos, sin, scale, mask)
    reference = numpy_attention(*qkv, cos, sin, scale, mask, kv_groups)
    assert out.data.dtype == dtype and out.data.tobytes() == reference.tobytes()

    # the gradients sum in another order than the composed ops' do
    if dtype == np.float64:
        composed = [Tensor(a) for a in qkv]
        weighted(out, seed=17).backward()
        weighted(composed_attention(*composed, cos, sin, scale, mask, kv_groups),
                 seed=17).backward()
        for got, want in zip(leaves, composed):
            np.testing.assert_allclose(got.grad, want.grad, rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    lead=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    width=st.integers(1, 13),
    seed=st.integers(0, 2**16),
)
def test_fused_ops_are_bitwise_the_composed_ops(lead, width, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (width,)
    x = rng.normal(size=shape).astype(np.float32) * 3
    gain = rng.normal(size=(width,)).astype(np.float32)
    fused = Tensor(x).rmsnorm(Tensor(gain), 1e-5).data
    assert fused.tobytes() == composed_rmsnorm(Tensor(x), Tensor(gain), 1e-5).data.tobytes()

    # the gated MLP and the expert mix, in float32 for the forward bytes and in
    # float64 for the gradients, which only sum in another order; in float64
    # the MLP's output gradient is also zero on most rows, then on every row
    # (an expert routed no token), when its gradients are exact zeros
    inner = 1 + seed % 9
    n_rows = int(np.prod(lead))
    few = np.isin(np.arange(n_rows), rng.choice(n_rows, (n_rows - 1) // 2, replace=False))
    cases = [(np.float32, None), (np.float64, None), (np.float64, few.reshape(lead)),
             (np.float64, np.zeros(lead, dtype=bool))]
    for dtype, live in cases:
        args = [x.astype(dtype), *mlp_weights(rng, width, inner, dtype)]
        gates = rng.uniform(size=tuple(lead) + (3,)).astype(dtype)
        expert_outs = [rng.normal(size=shape).astype(dtype) for _ in range(3)]
        sides = []
        for apply_mlp, apply_mix in (
            (lambda x, *w: x.gated_mlp(*w), mix), (composed_gated_mlp, composed_mix)
        ):
            leaves = [Tensor(a) for a in (*args, gates, *expert_outs)]
            mlp_out = apply_mlp(*leaves[:4])
            mix_out = apply_mix(leaves[4], leaves[5:])
            weighted(mlp_out, seed=20, live=live).backward()
            weighted(mix_out, seed=21).backward()
            sides.append((mlp_out.data, mix_out.data, [t.grad for t in leaves]))
        (fused_mlp, fused_mix, fused_grads), (plain_mlp, plain_mix, plain_grads) = sides
        if dtype == np.float32:
            assert fused_mlp.tobytes() == plain_mlp.tobytes()
            assert fused_mix.tobytes() == plain_mix.tobytes()
        else:
            for got, want in zip(fused_grads, plain_grads):
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
            if live is not None and not live.any():
                assert not any(grad.any() for grad in fused_grads[:4])


def numpy_gated_mlp_grads(x, w_gate, w_up, w_down, g):
    """The gated MLP's input and weight gradients by the full-row formulas,
    in plain numpy and in the fused op's order of operations."""
    x2, g2 = x.reshape(-1, x.shape[-1]), g.reshape(-1, g.shape[-1])
    a = x2 @ w_gate
    s = 1.0 / (1.0 + np.exp(-a))
    silu = a * s
    u = x2 @ w_up
    d_out = g2 @ w_down.T
    d_gate = d_out * u * ((1.0 - s) * silu + s)
    d_up = d_out * silu
    gx = d_gate @ w_gate.T + d_up @ w_up.T
    return gx.reshape(x.shape), x2.T @ d_gate, x2.T @ d_up, (silu * u).T @ g2


# dead rows of a dense MLP's output gradient: none, each sequence's last
# position (a dense model's), or exactly half of them. At the benchmark's
# batch and widths a weight gradient summed over fewer rows moves in its bits
@pytest.mark.parametrize("lead,width,inner,dead", [
    ((2, 5), 7, 10, None),
    ((16, 33), 64, 128, (slice(None), -1)),
    ((528,), 64, 128, slice(0, 264)),
], ids=["every_row", "last_positions", "half"])
def test_a_dense_gated_mlp_backward_is_bitwise_its_full_row_formulas(lead, width, inner, dead):
    rng = np.random.default_rng(22)
    x = (rng.normal(size=lead + (width,)) * 3).astype(np.float32)
    weights = mlp_weights(rng, width, inner, np.float32)
    g = rng.normal(size=lead + (width,)).astype(np.float32)
    if dead is not None:
        g[dead] = 0.0
    leaves = [Tensor(a) for a in (x, *weights)]
    Tensor.gated_mlp(*leaves).backward(g)
    for leaf, want in zip(leaves, numpy_gated_mlp_grads(x, *weights, g)):
        assert leaf.grad.tobytes() == want.tobytes()


def test_rmsnorm_duplication_identity_over_odd_widths():
    for width in (1, 3, 5, 7):
        x = RNG.normal(size=(4, width)).astype(np.float32) * 10
        gain = RNG.normal(size=(width,)).astype(np.float32)
        base = Tensor(x).rmsnorm(Tensor(gain), 1e-5).data
        for dup in (2, 4):
            wide = Tensor(np.tile(x, dup)).rmsnorm(Tensor(np.tile(gain, dup)), 1e-5).data
            assert wide.tobytes() == np.tile(base, dup).tobytes()


CONSTANT_OPERANDS = {
    "x + 2.5": (lambda x, c: x + c, 2.5),
    "2.5 + x": (lambda x, c: c + x, 2.5),
    "array + x": (lambda x, c: c + x, RNG.normal(size=(2, 1, 3))),
    "x - array": (lambda x, c: x - c, RNG.normal(size=(3, 3))),
    "2.5 - x": (lambda x, c: c - x, 2.5),
    "array - x": (lambda x, c: c - x, RNG.normal(size=(3, 3))),
    "x * array": (lambda x, c: x * c, RNG.normal(size=(3,))),
    "2.5 * x": (lambda x, c: c * x, 2.5),
    "array * x": (lambda x, c: c * x, RNG.normal(size=(1, 3))),
    "x / array": (lambda x, c: x / c, RNG.normal(size=(1, 3)) + 4.0),
    "2.5 / x": (lambda x, c: c / x, 2.5),
    "array / x": (lambda x, c: c / x, RNG.normal(size=(3,))),
    "x @ array": (lambda x, c: x @ c, RNG.normal(size=(3, 4))),
}


@pytest.mark.parametrize("case", list(CONSTANT_OPERANDS))
def test_a_constant_operand_leaves_the_tensor_gradient_unchanged(case):
    apply, c = CONSTANT_OPERANDS[case]
    a = RNG.normal(size=(2, 3, 3)) + 4.0
    as_tensor, as_constant = Tensor(a.copy()), Tensor(a.copy())
    weighted(apply(as_tensor, Tensor(np.asarray(c))), seed=17).backward()
    out = apply(as_constant, c)
    # backward releases out's parent links, so take the wrapped operand first
    (wrapped,) = [p for p in out._parents if p is not as_constant]
    weighted(out, seed=17).backward()
    assert as_constant.grad.tobytes() == as_tensor.grad.tobytes()
    assert wrapped.grad is None


def test_backward_accumulates_shared_node():
    a = Tensor(np.array([2.0]))
    y = a * a + a
    y.backward()
    np.testing.assert_allclose(a.grad, [5.0])


def test_backward_on_reused_graph_is_rejected_or_fresh():
    # Two independent graphs over the same data must not share grads.
    base = np.array([1.0, 2.0])
    t1 = Tensor(base.copy())
    (t1 * 3).sum().backward()
    t2 = Tensor(base.copy())
    (t2 * 5).sum().backward()
    np.testing.assert_allclose(t1.grad, [3.0, 3.0])
    np.testing.assert_allclose(t2.grad, [5.0, 5.0])


def test_no_tape_records_nothing_and_restores_the_tape():
    x = Tensor(RNG.normal(size=(3, 4)))
    with no_tape():
        with no_tape():
            pass
        y = concat([x * 2.0, x.exp()], axis=-1).sum()
    assert y._parents == () and y._backward is None
    with pytest.raises(RuntimeError), no_tape():
        raise RuntimeError("inside the switch")
    z = concat([x * 2.0, x.exp()], axis=-1).sum()
    assert z.data == y.data
    z.backward()
    assert np.array_equal(x.grad, 2.0 + np.exp(x.data))


def test_no_tape_does_not_reach_other_threads():
    x = Tensor(RNG.normal(size=(2,)))
    built = []
    worker = threading.Thread(target=lambda: built.append(x * 2.0))
    with no_tape():
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert built[0]._parents[0] is x


def huge_page_advice() -> bool:
    """numpy's current huge-page advice setting, left as it was."""
    current = _set_madvise_hugepage(True)
    _set_madvise_hugepage(current)
    return current


def test_no_huge_pages_switches_the_advice_off_and_restores_it():
    before = _set_madvise_hugepage(True)
    try:
        with no_huge_pages():
            with no_huge_pages():
                pass
            assert huge_page_advice() is False
        assert huge_page_advice() is True
        with pytest.raises(RuntimeError), no_huge_pages():
            raise RuntimeError("inside the switch")
        assert huge_page_advice() is True

        x = Tensor(RNG.normal(size=(3,)))
        y = x.exp()
        inner, seen = y._backward, []
        y._backward = lambda g: (seen.append(huge_page_advice()), inner(g))[1]
        y.sum().backward()
        assert seen == [False] and huge_page_advice() is True
        np.testing.assert_array_equal(x.grad, np.exp(x.data))
    finally:
        _set_madvise_hugepage(before)
