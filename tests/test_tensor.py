"""Gradient checks for the reverse-mode tape.

Every op's backward is compared against central finite differences of the
same scalar, computed with plain numpy so the two routes share no code.
"""

import threading

import numpy as np
import pytest

from moegrow.tensor import Tensor, concat, no_tape

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
