"""Command-line interface for the growth pipeline.

Batch subcommands over checkpoint directories and token files: initialize,
grow, upcycle, verify, train, evaluate, plus the savings calculator and the
synthetic-corpus generator. Exit codes: 0 success, 1 validation failure or
failed verification, 2 I/O error. Every source of randomness is an explicit
--seed flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .checkpoint import count_params, load_checkpoint, save_checkpoint
from .config import ModelConfig, MoEConfig
from .corpus import load_tokens, make_synthetic_corpus, save_tokens, unigram_entropy
from .errors import CheckpointError, TrainingDiverged, ValidationError
from .grow import GrowthPlan, scale_up, verify_preservation
from .model import eval_loss, random_init
from .moe import upcycle
from .savings import load_plan, savings_report
from .train import TrainConfig, train


def _read_json(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise CheckpointError(f"file not found: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"unparseable JSON in {path}: {exc}") from exc


def cmd_init(args) -> tuple[int, dict]:
    config = ModelConfig.from_dict(_read_json(args.config))
    ckpt = random_init(config, args.seed, init_std=args.init_std)
    save_checkpoint(ckpt, args.out)
    counts = count_params(ckpt)
    print(f"initialized {args.out}: {counts.total} parameters")
    return 0, {"path": args.out, "total_params": counts.total, "seed": args.seed}


def cmd_grow(args) -> tuple[int, dict]:
    ckpt = load_checkpoint(args.input)
    plan = GrowthPlan.from_dict(_read_json(args.plan))
    grown = scale_up(ckpt, plan)
    save_checkpoint(grown, args.out)
    counts = count_params(grown)
    print(
        f"grew {args.input} -> {args.out} via {plan.method}/{plan.depth_mode}: "
        f"{counts.total} parameters"
    )
    return 0, {
        "path": args.out,
        "method": plan.method,
        "depth_mode": plan.depth_mode,
        "total_params": counts.total,
    }


def cmd_upcycle(args) -> tuple[int, dict]:
    ckpt = load_checkpoint(args.input)
    moe_cfg = MoEConfig(
        n_experts=args.experts,
        top_k=args.top_k,
        router_init_std=args.router_std,
    )
    out = upcycle(ckpt, moe_cfg, args.seed)
    save_checkpoint(out, args.out)
    counts = count_params(out)
    print(
        f"upcycled {args.input} -> {args.out}: {args.experts} experts, "
        f"{counts.total} total / {counts.activated} activated parameters"
    )
    return 0, {
        "path": args.out,
        "n_experts": args.experts,
        "top_k": args.top_k,
        "total_params": counts.total,
        "activated_params": counts.activated,
    }


def cmd_verify(args) -> tuple[int, dict]:
    src = load_checkpoint(args.src)
    dst = load_checkpoint(args.dst)
    report = verify_preservation(
        src, dst, n_probes=args.probes, seed=args.seed, tol=args.tol,
        probe_len=args.probe_len,
    )
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}: max abs logit diff {report.max_abs_logit_diff:.3e} "
        f"(tol {report.tol:.1e}), loss diff {report.loss_diff:.3e}, "
        f"{report.n_probes} probes"
    )
    return (0 if report.passed else 1), dataclasses.asdict(report)


def cmd_train(args) -> tuple[int, dict]:
    ckpt = load_checkpoint(args.input)
    data = load_tokens(args.data)
    cfg = TrainConfig.from_dict(_read_json(args.config)) if args.config else TrainConfig()
    eval_data = load_tokens(args.eval_data) if args.eval_data else None
    out, log = train(ckpt, data, cfg, eval_data=eval_data, eval_every=args.eval_every)
    save_checkpoint(out, args.out)
    if args.log:
        log.save(args.log)
    final = log.rows[-1]
    evals = log.eval_series()
    print(
        f"trained {cfg.total_steps} steps: loss {log.rows[0].train_loss:.4f} -> "
        f"{final.train_loss:.4f}" + (f", eval {evals[-1][1]:.4f}" if evals else "")
    )
    return 0, {
        "path": args.out,
        "steps": cfg.total_steps,
        "first_train_loss": log.rows[0].train_loss,
        "final_train_loss": final.train_loss,
        "final_eval_loss": evals[-1][1] if evals else None,
    }


def cmd_eval(args) -> tuple[int, dict]:
    ckpt = load_checkpoint(args.input)
    data = load_tokens(args.data)
    loss = eval_loss(ckpt, data, args.seq_len)
    print(f"eval loss: {loss:.6f}")
    return 0, {"loss": loss, "seq_len": args.seq_len}


def cmd_savings(args) -> tuple[int, dict]:
    phases, baseline = load_plan(_read_json(args.plan))
    report = savings_report(phases, baseline)
    print(f"time_factor {report.time_factor:.2f}, power_factor {report.power_factor:.2f}")
    return 0, report.to_dict()


def cmd_inspect(args) -> tuple[int, dict]:
    ckpt = load_checkpoint(args.input)
    counts = count_params(ckpt)
    doc = {
        "config": ckpt.config.to_dict(),
        "moe": ckpt.moe.to_dict() if ckpt.moe is not None else None,
        "total_params": counts.total,
        "activated_params": counts.activated,
        "n_tensors": len(ckpt.tensors),
    }
    print(json.dumps(doc, indent=2))
    return 0, doc


def cmd_synth(args) -> tuple[int, dict]:
    tokens = make_synthetic_corpus(
        seed=args.seed, vocab=args.vocab, n_tokens=args.tokens,
        order=args.order, favorite_mass=args.favorite_mass,
    )
    save_tokens(args.out, tokens)
    entropy = unigram_entropy(tokens, args.vocab)
    print(f"wrote {args.tokens} tokens to {args.out} (unigram entropy {entropy:.3f} nats)")
    return 0, {
        "path": args.out,
        "n_tokens": args.tokens,
        "vocab": args.vocab,
        "unigram_entropy": entropy,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moegrow",
        description="Grow dense or routed transformer checkpoints; upcycle dense ones into MoEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a randomly initialized dense checkpoint")
    p.add_argument("--config", required=True, help="model config JSON file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output checkpoint directory")
    p.add_argument("--init-std", type=float, default=0.02)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("grow", help="scale a dense or routed checkpoint up per a growth plan")
    p.add_argument("--in", dest="input", required=True, help="source checkpoint directory")
    p.add_argument("--plan", required=True, help="growth plan JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("upcycle", help="scale a dense checkpoint out into an MoE that grow accepts")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--experts", type=int, default=8)
    p.add_argument("--top-k", type=int, default=2)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--router-std", type=float, default=0.02)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_upcycle)

    p = sub.add_parser("verify", help="compare two checkpoints' logits on random probes")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--probes", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probe-len", type=int, default=16)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train", help="run toy-scale continued pretraining")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--data", required=True, help="token file (raw little-endian u32)")
    p.add_argument("--config", help="train config JSON file (defaults if omitted)")
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="metrics CSV output path")
    p.add_argument("--eval-data", help="held-out token file for periodic eval")
    p.add_argument("--eval-every", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="mean next-token loss of a checkpoint on a token file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seq-len", type=int, default=32)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("savings", help="time/power savings factors of a phase plan")
    p.add_argument("--plan", required=True, help="plan JSON: {phases: [...], baseline: {...}}")
    p.set_defaults(func=cmd_savings)

    p = sub.add_parser("inspect", help="print a checkpoint's config and parameter counts")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("synth", help="generate a synthetic training corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("--tokens", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--favorite-mass", type=float, default=0.85)
    p.set_defaults(func=cmd_synth)

    for sp in sub.choices.values():
        sp.add_argument("--report", help="write a machine-readable JSON report here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report = args.func(args)
        if args.report:
            Path(args.report).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    except (ValidationError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
