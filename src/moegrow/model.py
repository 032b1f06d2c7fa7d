"""Deterministic decoder-only transformer with exact reverse-mode gradients.

Pre-norm blocks: RMSNorm, rotary grouped-query attention with a causal mask,
residual add, RMSNorm, gated SiLU MLP (or routed expert MLPs), residual add;
then a final RMSNorm and an untied unembedding. Everything runs on the
autodiff tape with fixed-order reductions, so forward, loss, and gradients
are bitwise deterministic. This model is the oracle for every function
preservation check in the growth and upcycling operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import Checkpoint, tensor_shapes
from .config import ModelConfig, check_seed
from .errors import TrainingDiverged, ValidationError
from .moe import load_balance_term, moe_total_loss, route_batch, z_term
from .tensor import Tensor, attention, mix, no_huge_pages, no_tape

ROTARY_BASE = 10000.0
NORM_EPS = 1e-5
MASK_VALUE = -1e30
EVAL_CHUNK_TOKENS = 1056  # tokens per untaped eval_loss chunk (see eval_loss)


@dataclass(frozen=True)
class ForwardTrace:
    """Logits and next-token losses for one input sequence.

    loss_per_position[t] scores the prediction of tokens[t+1], so it has one
    entry fewer than the input. aux_loss and z_loss are per-layer averages,
    present only for routed checkpoints.
    """

    logits: np.ndarray
    loss_per_position: np.ndarray
    loss: float
    aux_loss: float | None = None
    z_loss: float | None = None


@dataclass
class ModelGraph:
    """One batch's forward pass: leaves, heads, and routing byproducts; a
    live tape unless built inside ``no_tape()``."""

    params: dict[str, Tensor]
    logits: Tensor
    ce: Tensor | None
    loss: Tensor | None
    aux: Tensor | None
    z: Tensor | None
    objective: Tensor | None
    expert_idx: list[np.ndarray] = field(default_factory=list)


def random_init(config: ModelConfig, seed: int, init_std: float = 0.02) -> Checkpoint:
    """Fresh dense checkpoint: normal(0, init_std) weights, unit norm gains;
    init_std must be finite and >= 0."""
    if not 0 <= init_std < math.inf:
        raise ValidationError(f"init_std must be a finite number >= 0, got {init_std!r}")
    rng = np.random.default_rng(check_seed(seed))
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(config).items():
        if name.endswith("norm"):
            tensors[name] = np.ones(shape, dtype=np.float32)
        else:
            tensors[name] = rng.normal(0.0, init_std, shape).astype(np.float32)
    return Checkpoint(config=config, tensors=tensors).freeze()


def _rotary_tables(seq_len: int, head_dim: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    # tables depend only on head_dim and position, so width/head growth
    # leaves them unchanged
    half = head_dim // 2
    inv_freq = ROTARY_BASE ** (-np.arange(0, half, dtype=np.float64) * 2.0 / head_dim)
    angles = np.arange(seq_len, dtype=np.float64)[:, None] * inv_freq[None, :]
    cos = np.concatenate([np.cos(angles), np.cos(angles)], axis=-1).astype(dtype)
    sin = np.concatenate([np.sin(angles), np.sin(angles)], axis=-1).astype(dtype)
    return cos, sin


def _gated_mlp(h: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    return h.gated_mlp(params[f"{prefix}.w_gate"], params[f"{prefix}.w_up"],
                       params[f"{prefix}.w_down"])


def _check_tokens(tokens: np.ndarray, config: ModelConfig) -> np.ndarray:
    tokens = np.asarray(tokens)
    if not np.issubdtype(tokens.dtype, np.integer):
        raise ValidationError("token ids must be integers")
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if tokens.ndim != 2 or tokens.shape[-1] < 1:
        raise ValidationError("tokens must be a non-empty sequence or batch of sequences")
    if tokens.shape[-1] > config.context_length:
        raise ValidationError(
            f"sequence length {tokens.shape[-1]} exceeds context_length {config.context_length}"
        )
    if tokens.min() < 0 or tokens.max() >= config.vocab_size:
        raise ValidationError(
            f"token id out of range [0, {config.vocab_size}): {int(tokens.min())}..{int(tokens.max())}"
        )
    return tokens


@no_huge_pages()
def build_graph(ckpt: Checkpoint, tokens, dtype=np.float32) -> ModelGraph:
    """Run the model forward on a (batch of) sequence(s), keeping the tape
    unless called inside ``no_tape()``.

    The objective is the mean next-token cross entropy, plus the coefficient
    weighted auxiliary and z losses when the checkpoint is routed.
    """
    cfg = ckpt.config
    tokens = _check_tokens(tokens, cfg)
    batch, seq = tokens.shape
    # an array held under several names (the experts of an upcycled layer)
    # is converted once; each name still gets its own leaf and gradient
    converted: dict[int, np.ndarray] = {}
    params = {}
    for name, arr in ckpt.tensors.items():
        if id(arr) not in converted:
            converted[id(arr)] = arr.astype(dtype, copy=False)
        params[name] = Tensor(converted[id(arr)])
    cos, sin = _rotary_tables(seq, cfg.head_dim, dtype)
    mask = np.triu(np.full((seq, seq), MASK_VALUE, dtype=dtype), k=1)
    scale = 1.0 / math.sqrt(cfg.head_dim)

    aux_terms: list[Tensor] = []
    z_terms: list[Tensor] = []
    expert_idx: list[np.ndarray] = []

    x = params["embed"].gather(tokens.reshape(-1), axis=0).reshape(batch, seq, cfg.hidden_dim)
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        hn = x.rmsnorm(params[f"{p}.attn_norm"], NORM_EPS)
        q = hn @ params[f"{p}.attn.wq"]
        k = hn @ params[f"{p}.attn.wk"]
        v = hn @ params[f"{p}.attn.wv"]
        if cfg.qkv_bias:
            q = q + params[f"{p}.attn.q_bias"]
            k = k + params[f"{p}.attn.k_bias"]
            v = v + params[f"{p}.attn.v_bias"]
        x = x + attention(q, k, v, cos, sin, scale, mask) @ params[f"{p}.attn.wo"]

        hn = x.rmsnorm(params[f"{p}.mlp_norm"], NORM_EPS)
        if ckpt.moe is not None:
            router_logits = hn @ params[f"{p}.moe.router"]
            probs = router_logits.softmax_last()
            weights, idx = route_batch(probs, ckpt.moe)
            x = x + mix(weights, (_gated_mlp(hn, params, f"{p}.moe.expert.{j}")
                                  for j in range(ckpt.moe.n_experts)))
            aux_terms.append(load_balance_term(probs, idx, ckpt.moe.n_experts))
            z_terms.append(z_term(router_logits))
            expert_idx.append(idx)
        else:
            x = x + _gated_mlp(hn, params, f"{p}.mlp")

    xn = x.rmsnorm(params["final_norm"], NORM_EPS)
    logits = xn @ params["unembed"]

    ce = loss = aux = z = objective = None
    if seq >= 2:
        ce = logits[:, :-1, :].cross_entropy_last(tokens[:, 1:])
        loss = ce.mean()
        objective = loss
        if aux_terms:
            aux = sum(aux_terms[1:], aux_terms[0]) * (1.0 / len(aux_terms))
            z = sum(z_terms[1:], z_terms[0]) * (1.0 / len(z_terms))
            objective = moe_total_loss(loss, aux, z, ckpt.moe)
    return ModelGraph(
        params=params,
        logits=logits,
        ce=ce,
        loss=loss,
        aux=aux,
        z=z,
        objective=objective,
        expert_idx=expert_idx,
    )


def forward(ckpt: Checkpoint, tokens, dtype=np.float32) -> ForwardTrace:
    """Logits and per-position next-token losses for a single sequence,
    computed without a tape."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 1:
        raise ValidationError("forward expects a single 1-D token sequence")
    with no_tape():
        graph = build_graph(ckpt, tokens, dtype=dtype)
    if graph.ce is None:
        per_pos = np.zeros(0, dtype=dtype)
        loss = float("nan")
    else:
        per_pos = graph.ce.data[0]
        loss = float(graph.loss.data)
    return ForwardTrace(
        logits=graph.logits.data[0],
        loss_per_position=per_pos,
        loss=loss,
        aux_loss=float(graph.aux.data) if graph.aux is not None else None,
        z_loss=float(graph.z.data) if graph.z is not None else None,
    )


def eval_loss(ckpt: Checkpoint, dataset, seq_len: int, dtype=np.float32) -> float:
    """Mean next-token cross entropy over non-overlapping windows.

    Each window consumes seq_len+1 consecutive tokens (seq_len inputs plus
    the final target); trailing tokens that do not fill a window are dropped.
    Windows are forwarded without a tape, in chunks of at most
    EVAL_CHUNK_TOKENS tokens (one window if a window is longer); every
    window predicts the same number of tokens, so the overall mean is the
    window-weighted mean of the chunk means.

    EVAL_CHUNK_TOKENS, 32 windows of 33 tokens, keeps a chunk's arrays
    small enough for the allocator to reuse the same memory from chunk to
    chunk.
    The arrays of 4096-token chunks are handed back to the kernel and
    faulted in again each time: over 160 windows of 33 tokens, a dense
    4-layer hidden-64 model takes about 15k page faults per call and its
    8-expert upcycling more, against none after the first call at 1056.
    """
    dataset = np.asarray(dataset)
    if dataset.ndim != 1:
        raise ValidationError("dataset must be a flat token stream")
    if seq_len < 1:
        raise ValidationError("seq_len must be >= 1")
    window = seq_len + 1
    n_windows = dataset.size // window
    if n_windows == 0:
        raise ValidationError(
            f"dataset has {dataset.size} tokens, need at least {window} for one window"
        )
    batch = dataset[: n_windows * window].reshape(n_windows, window)
    per_chunk = max(1, EVAL_CHUNK_TOKENS // window)
    total = 0.0
    with no_tape():
        for start in range(0, n_windows, per_chunk):
            chunk = batch[start : start + per_chunk]
            graph = build_graph(ckpt, chunk, dtype=dtype)
            total += float(graph.loss.data) * chunk.shape[0]
    return total / n_windows


def backward(ckpt: Checkpoint, batch, dtype=np.float32) -> dict[str, np.ndarray]:
    """Exact gradients of the training objective for every parameter."""
    graph = build_graph(ckpt, batch, dtype=dtype)
    if graph.objective is None:
        raise ValidationError("batch sequences must have length >= 2 to define a loss")
    if not np.isfinite(graph.objective.data):
        raise TrainingDiverged()
    graph.objective.backward()
    return {name: leaf.grad for name, leaf in graph.params.items()}
