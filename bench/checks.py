"""Correctness checks for the benchmark's outputs.

Every check compares an output of moegrow against a property the method must
have, or against a value this file computes without the package's own helper
for it: logits are compared here rather than trusted from
``verify_preservation``, cross entropy is recomputed with a float64 numpy
log-softmax, duplicate counts and parameter counts come from closed forms of
the configs, and file sizes are read from disk. A failed check raises
``CheckFailed`` with the numbers that disagree.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

import moegrow as mg

PRESERVE_TOL = 1e-5  # max abs logit difference allowed after FPI growth or upcycling
CE_TOL = 2e-4  # float32 forward vs float64 recomputation of the mean cross entropy
START_RATIO = 0.6  # a grown model's eval loss must be below this share of a random init's


class CheckFailed(AssertionError):
    """An output of the program does not have a property it must have."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype == np.float32 and a.shape == b.shape and bool(
        np.array_equal(a.view(np.uint32), b.view(np.uint32)))


def check_preservation(src: mg.Checkpoint, dst: mg.Checkpoint, probes: np.ndarray) -> None:
    """`dst` computes `src`'s function: logits within PRESERVE_TOL on `probes`.

    The logits are compared here, one probe at a time through ``forward``,
    so a ``verify_preservation`` that reports a pass the logits do not bear
    out is caught. Both models run in float64, so the comparison tests the
    grown weights rather than float32 rounding: evaluated in float32, FPI
    growth to 16x the width moves logits by up to about 2e-5 on some seeds
    (1.8e-5 on seed 149 of transform-io), while in float64 the difference
    is below 1e-12.
    """
    worst = 0.0
    for probe in probes:
        a = mg.forward(src, probe, dtype=np.float64).logits
        b = mg.forward(dst, probe, dtype=np.float64).logits
        worst = max(worst, float(np.max(np.abs(a - b))))
    _require(worst <= PRESERVE_TOL,
             f"logits moved by {worst:.3e} > {PRESERVE_TOL:g} between source and grown model")


def check_preservation_report(report, n_probes: int) -> None:
    """The report's verdict follows from its own figures, at the default
    tolerance. The verdict itself is not required to be a pass: the
    float32 difference it rests on exceeds the tolerance on some seeds for
    a growth that preserves the function (see ``check_preservation``)."""
    diff = report.max_abs_logit_diff
    _require(report.n_probes == n_probes and report.tol == PRESERVE_TOL
             and math.isfinite(diff) and report.passed == (diff <= report.tol),
             f"verify_preservation reported {diff:.3e} with passed={report.passed}, "
             f"tol {report.tol:g} and {report.n_probes} probes (expected {n_probes})")


def reference_eval_loss(ckpt: mg.Checkpoint, held_out: np.ndarray, seq_len: int) -> float:
    """Mean next-token cross entropy over the same windows ``eval_loss`` uses,
    with a float64 log-softmax over ``forward`` logits."""
    window = seq_len + 1
    n = held_out.size // window
    total = 0.0
    for w in held_out[: n * window].reshape(n, window):
        logits = mg.forward(ckpt, w).logits[:-1].astype(np.float64)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        total += -log_probs[np.arange(seq_len), w[1:]].mean()
    return total / n


def check_eval_loss(reported: float, reference: float) -> None:
    _require(math.isfinite(reported) and abs(reported - reference) <= CE_TOL,
             f"eval_loss {reported:.6f} != recomputed cross entropy {reference:.6f}")


def check_training(start_eval: float, eval_series: list[tuple[int, float]]) -> None:
    """Training lowers the eval loss of the model it starts from."""
    _require(len(eval_series) >= 2, f"expected periodic eval rows, got {eval_series}")
    final = eval_series[-1][1]
    _require(final < start_eval,
             f"training did not lower eval loss: {start_eval:.4f} -> {final:.4f}")


def check_grown_start(grown_eval: float, random_eval: float) -> None:
    """A grown model starts well ahead of a random init of its config."""
    _require(grown_eval < START_RATIO * random_eval,
             f"grown model's eval loss {grown_eval:.4f} is not below {START_RATIO} x "
             f"random-init eval loss {random_eval:.4f}")


def _pairs(multiplicity: np.ndarray) -> int:
    return int(sum(int(k) * (int(k) - 1) // 2 for k in multiplicity))


def expected_duplicate_pairs(src: mg.ModelConfig, dst: mg.ModelConfig) -> dict[str, int]:
    """Duplicate output-column pairs FPI width growth must leave, per matrix.

    Position i of a grown axis copies source i mod old (heads: within each KV
    group), so source j appears k_j times and leaves k_j*(k_j-1)/2 identical
    column pairs; a duplicated query head copies all head_dim of its columns.
    Axes that do not grow (keys, values, the unembedding's vocab) leave none.
    Assumes the source's own columns are pairwise distinct, as trained
    weights are.
    """
    def circular(old: int, new: int) -> np.ndarray:
        return np.bincount(np.arange(new) % old, minlength=old)

    hidden = _pairs(circular(src.hidden_dim, dst.hidden_dim))
    inter = _pairs(circular(src.intermediate_dim, dst.intermediate_dim))
    per_group = circular(src.n_heads // src.kv_groups, dst.n_heads // dst.kv_groups)
    heads = src.kv_groups * _pairs(per_group) * src.head_dim
    out = {"embed": hidden, "unembed": 0}
    for i in range(dst.n_layers):
        p = f"layers.{i}"
        out.update({
            f"{p}.attn.wq": heads, f"{p}.attn.wk": 0, f"{p}.attn.wv": 0,
            f"{p}.attn.wo": hidden, f"{p}.mlp.w_gate": inter,
            f"{p}.mlp.w_up": inter, f"{p}.mlp.w_down": hidden,
        })
    return out


def check_symmetry(report: dict[str, int], src: mg.ModelConfig, dst: mg.ModelConfig) -> None:
    expected = expected_duplicate_pairs(src, dst)
    wrong = {k: (report.get(k), v) for k, v in expected.items() if report.get(k) != v}
    extra = sorted(set(report) - set(expected))
    _require(not wrong and not extra,
             f"symmetry_report (got, closed form): {wrong}; unexpected entries {extra}")


def expected_param_count(cfg: mg.ModelConfig, moe: mg.MoEConfig | None) -> int:
    """Parameter count from the architecture, written out term by term."""
    h, m = cfg.hidden_dim, cfg.intermediate_dim
    q, kv = cfg.n_heads * cfg.head_dim, cfg.kv_groups * cfg.head_dim
    attention = h * q + 2 * h * kv + q * h + ((q + 2 * kv) if cfg.qkv_bias else 0)
    norms = 2 * h
    mlp = 3 * h * m
    block = mlp if moe is None else moe.n_experts * mlp + h * moe.n_experts
    return 2 * cfg.vocab_size * h + h + cfg.n_layers * (attention + norms + block)


def check_roundtrip(saved: mg.Checkpoint, loaded: mg.Checkpoint, path: Path) -> None:
    """Load(save(c)) is bitwise c, and tensors.bin is 8 bytes of header length,
    the header, and 4 bytes per parameter."""
    _require(loaded.config == saved.config and loaded.moe == saved.moe,
             "config changed across save/load")
    _require(set(loaded.tensors) == set(saved.tensors), "tensor names changed across save/load")
    for name, arr in saved.tensors.items():
        _require(_bitwise_equal(loaded.tensors[name], arr),
                 f"tensor {name!r} is not bitwise equal after save/load")
    blob = Path(path) / "tensors.bin"
    with open(blob, "rb") as fh:
        (header_len,) = struct.unpack("<Q", fh.read(8))
    size = blob.stat().st_size
    params = expected_param_count(saved.config, saved.moe)
    _require(size == 8 + header_len + 4 * params,
             f"tensors.bin is {size} bytes, expected 8 + {header_len} + 4 x {params}")


def check_upcycle_structure(dense: mg.Checkpoint, routed: mg.Checkpoint, moe: mg.MoEConfig) -> None:
    """Every expert is a bitwise copy of its layer's dense MLP, every other
    tensor is unchanged, and each router is a finite (hidden, n_experts) matrix."""
    _require(routed.moe == moe and routed.config == dense.config, "upcycled config is wrong")
    cfg = dense.config
    for name, arr in dense.tensors.items():
        if ".mlp." not in name:
            _require(_bitwise_equal(routed.tensors[name], arr), f"{name!r} changed")
    for i in range(cfg.n_layers):
        router = routed.tensors[f"layers.{i}.moe.router"]
        _require(router.shape == (cfg.hidden_dim, moe.n_experts)
                 and bool(np.isfinite(router).all()),
                 f"router of layer {i} has shape {router.shape} or non-finite entries")
        for j in range(moe.n_experts):
            for part in ("w_gate", "w_up", "w_down"):
                got = routed.tensors[f"layers.{i}.moe.expert.{j}.{part}"]
                _require(_bitwise_equal(got, dense.tensors[f"layers.{i}.mlp.{part}"]),
                         f"expert {j} of layer {i} is not a copy of the dense {part}")


def check_same(first, again, what: str) -> None:
    """Outputs of a repeated round are bitwise those of the first round."""
    _require(json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True),
             f"{what} differs from the first round: {first} vs {again}")


def check_useful_frac(value: float, moe: mg.MoEConfig, routed_layers_ran: bool) -> None:
    """All-expert evaluation uses top_k of every n_experts evaluations; with
    no routed layer run, nothing is wasted."""
    expected = moe.top_k / moe.n_experts if routed_layers_ran else 1.0
    _require(value == expected, f"expert useful fraction {value} != {expected}")
