"""Sparse upcycling and top-k routing.

A dense checkpoint is scaled out by replacing each block's MLP with n_experts
bitwise replicas plus a small randomly initialized router. With renormalized
gates the upcycled model computes the same function as its source: identical
experts make the mixture collapse to a single MLP application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint, tensor_shapes
from .config import MoEConfig
from .errors import ValidationError
from .tensor import Tensor


@dataclass(frozen=True)
class RoutingStats:
    """Per-expert assignment statistics accumulated over a set of tokens.

    f: fraction of hard top-k assignments per expert (sums to 1, counts
       normalized by k times the token count).
    P: mean router softmax probability per expert (sums to 1).
    z: per-token log-sum-exp of the router logits.
    """

    f: np.ndarray
    P: np.ndarray
    z: np.ndarray


def top_k_indices(probs: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, descending,
    ties broken toward the lower index."""
    return np.argsort(-probs, axis=-1, kind="stable")[..., :k]


def route_batch(probs: Tensor, moe: MoEConfig) -> tuple[Tensor, np.ndarray]:
    """Differentiable mixing weights for a batch of router distributions.

    Returns (weights, idx) where weights matches probs' shape with zeros
    off the selected top-k set, and idx holds the selected expert indices.
    Selection itself is discrete and carries no gradient.
    """
    idx = top_k_indices(probs.data, moe.top_k)
    gates = probs.gather_last(idx)
    if moe.renormalize_gates:
        gates = gates / gates.sum(axis=-1, keepdims=True)
    return gates.scatter_last(idx, probs.shape[-1]), idx


def route(x: np.ndarray, router: np.ndarray, moe: MoEConfig) -> tuple[np.ndarray, np.ndarray, RoutingStats]:
    """Route a single hidden vector: (expert indices, gates, stats contribution)."""
    logits = np.asarray(x) @ np.asarray(router)
    if not np.all(np.isfinite(logits)):
        raise ValidationError("non-finite router logits")
    shifted = logits - logits.max()
    e = np.exp(shifted)
    probs = e / e.sum()
    idx = top_k_indices(probs, moe.top_k)
    gates = probs[idx]
    if moe.renormalize_gates:
        gates = gates / gates.sum()
    f = np.zeros(len(probs))
    np.add.at(f, idx, 1.0 / moe.top_k)
    z = np.asarray([logits.max() + np.log(e.sum())])
    return idx, gates, RoutingStats(f=f, P=probs, z=z)


def combine_stats(parts: list[RoutingStats]) -> RoutingStats:
    """Average per-token stats contributions into batch-level statistics."""
    if not parts:
        raise ValidationError("no routing stats to combine")
    return RoutingStats(
        f=np.mean([p.f for p in parts], axis=0),
        P=np.mean([p.P for p in parts], axis=0),
        z=np.concatenate([p.z for p in parts]),
    )


def load_balance_loss(stats: RoutingStats, n_experts: int) -> float:
    """N times the dot product of assignment fractions and mean probabilities.

    Equals 1 exactly under perfectly uniform routing and grows toward N as
    routing collapses onto fewer experts.
    """
    return float(n_experts * np.dot(stats.f, stats.P))


def max_z_loss(z: np.ndarray) -> float:
    """Mean squared log-sum-exp of router logits; penalizes logit drift."""
    return float(np.mean(np.square(np.asarray(z))))


def moe_total_loss(ce: float, aux: float, z: float, cfg: MoEConfig) -> float:
    """Combined training objective: ce + aux_coeff*aux + z_coeff*z."""
    return ce + cfg.aux_coeff * aux + cfg.z_coeff * z


def load_balance_term(probs: Tensor, idx: np.ndarray, n_experts: int) -> Tensor:
    """Tape-level load-balance loss for one routed layer.

    Hard assignment fractions are treated as constants; the mean softmax
    probabilities stay differentiable, so the gradient pushes probability
    mass toward under-assigned experts.
    """
    counts = np.bincount(idx.reshape(-1), minlength=n_experts)
    f = (counts / idx.size).astype(probs.dtype)
    p_mean = probs.reshape(-1, n_experts).mean(axis=0)
    return (p_mean * f).sum() * float(n_experts)


def z_term(router_logits: Tensor) -> Tensor:
    """Tape-level max-z loss for one routed layer."""
    lse = router_logits.logsumexp_last()
    return (lse * lse).mean()


def upcycle(dense: Checkpoint, moe_cfg: MoEConfig, seed: int) -> Checkpoint:
    """Scale out a dense checkpoint into an n-expert mixture.

    Every block's MLP tensors are replicated bitwise into n_experts expert
    parameter sets; a per-layer router is drawn from a zero-mean normal with
    standard deviation moe_cfg.router_init_std. All other tensors carry over
    unchanged. The experts of a layer share one read-only copy of each dense
    MLP tensor: the output is frozen, and training copies what it updates.
    """
    if dense.moe is not None:
        raise ValidationError("checkpoint already has routed expert layers")
    dense.validate()
    moe_cfg.validate()
    cfg = dense.config
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    shared: dict[str, np.ndarray] = {}  # dense MLP tensor name -> the experts' copy
    for name, shape in tensor_shapes(cfg, moe_cfg).items():
        layer, is_expert, role = name.partition(".moe.expert.")
        if name.endswith(".moe.router"):
            tensors[name] = rng.normal(0.0, moe_cfg.router_init_std, shape).astype(np.float32)
        elif is_expert:  # role is "{j}.{mlp role}"
            source = f"{layer}.mlp.{role.split('.', 1)[1]}"
            if source not in shared:
                shared[source] = dense.tensors[source].copy()
            tensors[name] = shared[source]
        else:
            tensors[name] = dense.tensors[name].copy()
    out = Checkpoint(config=cfg, tensors=tensors, moe=moe_cfg)
    out.validate()
    return out.freeze()
