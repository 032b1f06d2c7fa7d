"""Gradient checks for the reverse-mode tape.

Every op's backward is compared against central finite differences of the
same scalar, computed with plain numpy so the two routes share no code.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moegrow.tensor import Tensor, _set_madvise_hugepage, concat, no_huge_pages, no_tape

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


def weighted(out: Tensor, seed: int = 0) -> Tensor:
    """Random-weight the output so symmetric gradients cannot hide bugs."""
    w = np.random.default_rng(seed).normal(size=out.data.shape)
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


def composed_rotary(t, cos, sin):
    half = t.shape[-1] // 2
    return t * cos + concat([-t[..., half:], t[..., :half]], axis=-1) * sin


def composed_causal_softmax(x, scale, mask):
    return (x * scale + mask).softmax_last()


def causal_mask(seq, dtype=np.float64):
    return np.triu(np.full((seq, seq), -1e30, dtype=dtype), k=1)


def rotary_tables(seq, width, dtype=np.float64):
    angles = RNG.uniform(-3, 3, size=(seq, width))
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


@pytest.mark.parametrize("width", [1, 5, 8])
def test_rmsnorm_grad(width):
    a = RNG.normal(size=(2, 3, width))
    gain = RNG.normal(size=(width,))
    check_grads(lambda x, g: weighted(x.rmsnorm(g, 1e-5), seed=14), [a, gain], tol=1e-6)


@pytest.mark.parametrize("width", [2, 3, 6])
def test_rotary_grad(width):
    a = RNG.normal(size=(2, 2, 4, width))
    cos, sin = rotary_tables(4, width)
    check_grads(lambda x: weighted(x.rotary(cos, sin), seed=15), [a])


def test_causal_softmax_grad():
    a = RNG.normal(size=(2, 3, 5, 5))
    mask = causal_mask(5)
    out = Tensor(a).causal_softmax(0.5, mask).data
    rows, cols = np.triu_indices(5, k=1)
    assert np.all(out[..., rows, cols] == 0.0)
    check_grads(lambda x: weighted(x.causal_softmax(0.5, mask), seed=16), [a], tol=1e-6)


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

    cos, sin = rotary_tables(shape[-2] if len(shape) > 1 else 1, width, np.float32)
    fused = Tensor(x).rotary(cos, sin).data
    assert fused.tobytes() == composed_rotary(Tensor(x), cos, sin).data.tobytes()

    scores = rng.normal(size=tuple(lead) + (width, width)).astype(np.float32) * 3
    mask, scale = causal_mask(width, np.float32), 1.0 / np.sqrt(width)
    fused = Tensor(scores).causal_softmax(scale, mask).data
    assert fused.tobytes() == composed_causal_softmax(Tensor(scores), scale, mask).data.tobytes()


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
    weighted(out, seed=17).backward()
    assert as_constant.grad.tobytes() == as_tensor.grad.tobytes()
    (wrapped,) = [p for p in out._parents if p is not as_constant]
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
