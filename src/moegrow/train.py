"""Toy-scale training loop: AdamW, warmup+cosine schedule, metric logging.

Runs are bitwise deterministic for a fixed seed: batches are sampled from a
seeded generator, gradients come off the fixed-order tape, and the optimizer
applies updates tensor by tensor in sorted name order.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, count_config_params
from .config import ModelConfig, MoEConfig, Record, Seed
from .errors import TrainingDiverged, ValidationError
from .model import build_graph, eval_loss, random_init
from .moe import upcycle

MIN_LR_FRACTION = 0.1  # cosine decays to this fraction of peak lr


@dataclass(frozen=True)
class TrainConfig(Record):
    _kind = "train config"

    lr: float = 3e-4
    warmup_steps: int = 20
    total_steps: int = 200
    batch_tokens: int = 512
    seq_len: int = 32
    seed: Seed = 0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.95
    adam_eps: float = 1e-8

    def validate(self) -> None:
        # lr == 0 is allowed as an explicit no-op run
        if self.lr < 0:
            raise ValidationError(f"lr must be >= 0, got {self.lr}")
        if self.total_steps < 1:
            raise ValidationError("total_steps must be >= 1")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValidationError(
                f"warmup_steps must be in [0, total_steps], got {self.warmup_steps}"
            )
        if self.seq_len < 2:
            raise ValidationError("seq_len must be >= 2 to define next-token targets")
        if self.batch_tokens < self.seq_len:
            raise ValidationError("batch_tokens must be >= seq_len")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValidationError("adam betas must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValidationError("weight_decay must be >= 0")
        if self.adam_eps <= 0:
            raise ValidationError(f"adam_eps must be > 0, got {self.adam_eps}")

    @property
    def sequences_per_batch(self) -> int:
        return self.batch_tokens // self.seq_len


def lr_schedule(cfg: TrainConfig, step: int) -> float:
    """Linear warmup to cfg.lr, then cosine decay to a 10% floor."""
    if step < cfg.warmup_steps:
        return cfg.lr * (step + 1) / cfg.warmup_steps
    span = cfg.total_steps - cfg.warmup_steps
    if span <= 0:
        return cfg.lr
    progress = (step - cfg.warmup_steps) / span
    factor = MIN_LR_FRACTION + (1.0 - MIN_LR_FRACTION) * 0.5 * (1.0 + math.cos(math.pi * progress))
    return cfg.lr * factor


@dataclass(frozen=True)
class MetricRow:
    step: int
    train_loss: float
    lr: float
    eval_loss: float | None = None
    aux_loss: float | None = None
    z_loss: float | None = None


@dataclass
class MetricLog:
    rows: list[MetricRow] = field(default_factory=list)

    def to_csv(self) -> str:
        """One header line of MetricRow's field names, then one line per row;
        the step as an integer, other values as repr(float), None empty."""
        names = [f.name for f in dataclasses.fields(MetricRow)]

        def cell(name: str, v) -> str:
            return "" if v is None else str(v) if name == "step" else repr(float(v))

        lines = [",".join(names)]
        lines += [",".join(cell(n, getattr(r, n)) for n in names) for r in self.rows]
        return "".join(line + "\n" for line in lines)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")

    def final_train_loss(self) -> float:
        return self.rows[-1].train_loss

    def eval_series(self) -> list[tuple[int, float]]:
        return [(r.step, r.eval_loss) for r in self.rows if r.eval_loss is not None]


def sample_batch(rng: np.random.Generator, data: np.ndarray, n_seqs: int, seq_len: int) -> np.ndarray:
    if data.size < seq_len:
        raise ValidationError(f"dataset has {data.size} tokens, need >= {seq_len}")
    starts = rng.integers(0, data.size - seq_len + 1, size=n_seqs)
    return np.stack([data[s : s + seq_len] for s in starts])


def train(ckpt: Checkpoint, dataset, cfg: TrainConfig, eval_data=None,
          eval_every: int | None = None) -> tuple[Checkpoint, MetricLog]:
    """AdamW training; returns the updated checkpoint and the full log.

    Weight decay is applied uniformly to every tensor (decoupled form).
    A non-finite objective aborts with the offending step index.
    """
    ckpt.validate()
    dataset = np.asarray(dataset)
    if dataset.ndim != 1:
        raise ValidationError("dataset must be a flat token stream")
    if eval_every is None:
        eval_every = max(1, cfg.total_steps // 10)
    if eval_every < 1:
        raise ValidationError(f"eval_every must be >= 1, got {eval_every}")

    params = {name: arr.astype(np.float32) for name, arr in ckpt.tensors.items()}
    m = {name: np.zeros_like(arr) for name, arr in params.items()}
    v = {name: np.zeros_like(arr) for name, arr in params.items()}
    names = sorted(params)
    rng = np.random.default_rng(cfg.seed)
    log = MetricLog()

    # the optimizer updates params in place, so this one unfrozen checkpoint
    # always holds the current weights
    live = Checkpoint(config=ckpt.config, tensors=params, moe=ckpt.moe)
    for step in range(cfg.total_steps):
        batch = sample_batch(rng, dataset, cfg.sequences_per_batch, cfg.seq_len)
        graph = build_graph(live, batch, dtype=np.float32)
        objective = float(graph.objective.data)
        if not math.isfinite(objective):
            raise TrainingDiverged(step)
        graph.objective.backward()

        lr = lr_schedule(cfg, step)
        t = step + 1
        bc1 = 1.0 - cfg.beta1**t
        bc2 = 1.0 - cfg.beta2**t
        for name in names:
            # in place, in the order of
            #   m = beta1 * m + (1 - beta1) * g
            #   v = beta2 * v + (1 - beta2) * g * g
            #   p = p - lr * (m / bc1 / (sqrt(v / bc2) + eps) + weight_decay * p)
            # so the values are bitwise those of the expressions
            g, mn, vn, pn = graph.params[name].grad, m[name], v[name], params[name]
            upd = np.multiply(g, 1.0 - cfg.beta1)
            mn *= cfg.beta1
            mn += upd
            np.multiply(g, 1.0 - cfg.beta2, out=upd)
            upd *= g
            vn *= cfg.beta2
            vn += upd
            denom = np.divide(vn, bc2)
            np.sqrt(denom, out=denom)
            denom += cfg.adam_eps
            np.divide(mn, bc1, out=upd)
            upd /= denom
            np.multiply(pn, cfg.weight_decay, out=denom)
            upd += denom
            upd *= lr
            pn -= upd

        row = MetricRow(
            step=step,
            train_loss=float(graph.loss.data),
            lr=lr,
            eval_loss=None,
            aux_loss=float(graph.aux.data) if graph.aux is not None else None,
            z_loss=float(graph.z.data) if graph.z is not None else None,
        )
        # the leaf gradients are spent: free them before the in-loop eval and
        # the next step's forward
        del graph
        if eval_data is not None and (step % eval_every == 0 or step == cfg.total_steps - 1):
            row = dataclasses.replace(
                row, eval_loss=eval_loss(live, eval_data, cfg.seq_len)
            )
        log.rows.append(row)

    return live.freeze(), log


def grad_check(config: ModelConfig, seed: int = 0, eps: float = 1e-5,
               moe: MoEConfig | None = None, init_std: float = 0.4,
               max_coords_per_tensor: int = 12) -> float:
    """Worst relative error of tape gradients vs central finite differences.

    Runs in binary64 on a freshly initialized micro model. For routed models,
    coordinates whose perturbation flips an expert selection are skipped
    (the objective is only piecewise smooth there).
    """
    total = count_config_params(config, moe).total
    if total >= 10_000:
        raise ValidationError(f"model too large for finite differences ({total} params)")
    ckpt = random_init(config, seed, init_std=init_std)
    if moe is not None:
        ckpt = upcycle(ckpt, moe, seed + 1)
    rng = np.random.default_rng(seed + 2)
    batch = rng.integers(0, config.vocab_size, size=(2, min(6, config.context_length)))

    base = build_graph(ckpt, batch, dtype=np.float64)
    base.objective.backward()
    base_idx = [i.copy() for i in base.expert_idx]

    def objective_at(tensors: dict[str, np.ndarray]) -> tuple[float, bool]:
        live = Checkpoint(config=config, tensors=tensors, moe=moe)
        g = build_graph(live, batch, dtype=np.float64)
        same = all(np.array_equal(a, b) for a, b in zip(g.expert_idx, base_idx))
        return float(g.objective.data), same

    worst = 0.0
    for name in sorted(ckpt.tensors):
        grad = base.params[name].grad
        size = ckpt.tensors[name].size
        if size <= max_coords_per_tensor:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords_per_tensor, replace=False)
        for ci in coords:
            tensors = {k: a.astype(np.float64) for k, a in ckpt.tensors.items()}
            flat = tensors[name].reshape(-1)
            orig = flat[ci]
            flat[ci] = orig + eps
            up, ok_up = objective_at(tensors)
            flat[ci] = orig - eps
            down, ok_down = objective_at(tensors)
            if not (ok_up and ok_down):
                continue
            fd = (up - down) / (2.0 * eps)
            an = float(grad.reshape(-1)[ci])
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    return worst
