"""The EfficientScale workloads and the round of pipeline work each one runs.

Every workload runs the same chain: train a small dense source, grow it
(``scale_up``), upcycle the grown model into 8 experts with top-2 routing,
check that growth and upcycling preserve the function, train the workload's
main model with periodic eval, evaluate the final model, and save and load
its checkpoints. The workloads differ in sizes, so that a different stage
does most of the work in each:

* ``scale-up``: the grown dense model trains; no routed layer runs.
* ``scale-out``: the upcycled model trains; every expert runs on every token.
* ``transform-io``: no model beyond the small source trains; growth to a wide
  checkpoint, upcycling, forward-only checks and checkpoint I/O do the work.

A run sets up ``SETUP_FIRST`` times, then repeats whole rounds until the
requested seconds have passed, setting up ``SETUP_AFTER_PASS`` more times
after each scale pass so that the set-up is timed all through the run. Each
timing is taken around one call into the package (or one pass of several
calls), and each metric is the median of its samples, the first sample of a
run dropped as warm-up (set-up excepted). Passes are bitwise identical, so after the first
pass, which runs every check, a pass is checked by comparing its outputs
with the first. A call into the package that raises is counted as a failed
operation, and the rest of its pass is abandoned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import resource
import shutil
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import moegrow as mg

SEQ_LEN = 32
BATCH_TOKENS = 512
PROBE_LEN = 16
VOCAB = 256
SETUP_FIRST = 5  # set-ups before the first round
SETUP_AFTER_PASS = 3  # set-ups after every scale pass, outside the round's time
CORPUS_TOKENS = 36_000
TINY_CORPUS_TOKENS = 12_000  # the corpus of the tests' tiny workloads
DEPTH_MODE = "interpolate"
CHECK_PROBES = 2  # probe sequences the benchmark's own logit comparison uses
FAVORITE_MASS = 0.7  # corpus: chance a token is its context's favorite
HELD_OUT_WINDOWS = 160  # held-out windows of SEQ_LEN + 1 tokens
LOOP_EVAL_WINDOWS = 16  # the first held-out windows, evaluated during training

SOURCE = mg.ModelConfig(n_layers=2, hidden_dim=32, n_heads=4, head_dim=8, kv_groups=2,
                        intermediate_dim=64, vocab_size=VOCAB, context_length=64)
GROWN = dataclasses.replace(SOURCE, n_layers=4, hidden_dim=64, n_heads=8, intermediate_dim=128)
WIDE = dataclasses.replace(SOURCE, hidden_dim=512, n_heads=64, intermediate_dim=2048)
MOE = mg.MoEConfig(n_experts=8, top_k=2)

END_TO_END = {
    "setup_s": "s", "train_tok_s": "tokens/s", "eval_tok_s": "tokens/s",
    "final_eval_loss": "nats", "pipeline_s": "s", "grow_s": "s", "upcycle_s": "s",
    "verify_tok_s": "tokens/s", "ckpt_save_MB_s": "MB/s", "ckpt_load_MB_s": "MB/s",
    "peak_rss_MB": "MB",
}


@dataclass(frozen=True)
class Training:
    steps: int
    lr: float
    warmup: int
    eval_every: int

    def config(self, seed: int) -> mg.TrainConfig:
        return mg.TrainConfig(lr=self.lr, warmup_steps=self.warmup, total_steps=self.steps,
                              batch_tokens=BATCH_TOKENS, seq_len=SEQ_LEN, seed=seed)


@dataclass(frozen=True)
class Repeats:
    """Calls (or passes of calls) of each repeated stage per scale pass."""

    train: int  # identical runs of the main training
    grow: int
    upcycle: int
    verify: int
    symmetry: int
    eval: int
    io: int


@dataclass(frozen=True)
class Workload:
    name: str
    target: mg.ModelConfig  # the grown config
    method: str  # width growth: "fpi" or "aki"
    final_eval_windows: int  # held-out windows the final checkpoint is evaluated on
    # The training that is measured: of the upcycled model when routed layers
    # run, else of the grown model; None when the source training is the main one.
    main_train: Training | None
    routed_forward: bool  # False keeps every routed layer from running
    probes: int  # probe sequences per verify_preservation call
    passes: int  # scale passes (growth through I/O) per round, after one source training
    repeats: Repeats


SOURCE_TRAIN = Training(steps=60, lr=1e-2, warmup=10, eval_every=20)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("scale-up", GROWN, "aki", HELD_OUT_WINDOWS, Training(15, 1e-3, 3, 5),
                 routed_forward=False, probes=16, passes=3,
                 repeats=Repeats(train=1, grow=7, upcycle=7, verify=2, symmetry=2, eval=1, io=7)),
        Workload("scale-out", GROWN, "aki", HELD_OUT_WINDOWS, Training(8, 2e-3, 2, 4),
                 routed_forward=True, probes=16, passes=3,
                 repeats=Repeats(train=1, grow=7, upcycle=7, verify=2, symmetry=2, eval=1, io=7)),
        Workload("transform-io", WIDE, "fpi", 4, None, routed_forward=True, probes=2, passes=1,
                 repeats=Repeats(train=3, grow=4, upcycle=3, verify=2, symmetry=2, eval=2, io=2)),
    )
}


def tiny(w: Workload) -> Workload:
    """A few-second version of a workload, for the benchmark's own tests. The
    source still trains fully, so that every check has something to hold."""
    target = w.target if w.target is not WIDE else dataclasses.replace(
        SOURCE, hidden_dim=64, n_heads=8, intermediate_dim=128)
    return dataclasses.replace(
        w, target=target, final_eval_windows=min(w.final_eval_windows, 32),
        main_train=None if w.main_train is None else Training(6, w.main_train.lr, 2, 3),
        probes=2, passes=min(w.passes, 2),
        repeats=Repeats(min(w.repeats.train, 2), 2, 2, 2, 2, 2, 2))


@dataclass
class Inputs:
    train_tokens: np.ndarray
    held_out: np.ndarray
    source_init: mg.Checkpoint
    target_init: mg.Checkpoint  # a from-scratch start for the grown config


def set_up(w: Workload, seed: int, corpus_tokens: int) -> Inputs:
    corpus = mg.make_synthetic_corpus(seed, VOCAB, corpus_tokens, favorite_mass=FAVORITE_MASS)
    held = HELD_OUT_WINDOWS * (SEQ_LEN + 1)
    return Inputs(corpus[:-held], corpus[-held:],
                  mg.random_init(SOURCE, seed + 1), mg.random_init(w.target, seed + 2))


class OperationFailed(Exception):
    """A call into the package raised; its pass cannot go on."""


class Recorder:
    """Times calls into the package and keeps the samples of each metric."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.busy = 0.0  # seconds inside program calls in the current round
        self.attempted = 0
        self.errors: list[str] = []  # one message per call that raised
        self._warm: set[str] = set()

    def enter(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase

    def call(self, fn):
        self.attempted += 1
        start = perf_counter()
        try:
            out = fn()
        except Exception as exc:
            self.busy += perf_counter() - start
            self.errors.append(f"{type(exc).__name__}: {exc}")
            raise OperationFailed(self.errors[-1]) from exc
        elapsed = perf_counter() - start
        self.busy += elapsed
        return out, elapsed

    def record(self, metric: str, elapsed: float, work: float | None = None) -> None:
        """Keep seconds per call, or `work` per second; the first sample of a
        metric in a run is warm-up and is dropped."""
        if metric in self._warm:
            self.samples[metric].append(elapsed if work is None else work / elapsed)
        self._warm.add(metric)

    def repeat(self, metric: str, reps: int, fn, work: float | None = None):
        """Call `fn` `reps` times and record each call. Returns the last
        result; each result is dropped before the next call starts, so that
        only one is alive at a time."""
        result = None
        for _ in range(reps):
            result = None
            result, elapsed = self.call(fn)
            self.record(metric, elapsed, work)
        return result

    def median(self, metric: str) -> float:
        return statistics.median(self.samples[metric])


def digest(ckpt: mg.Checkpoint) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(ckpt.tensors):
        h.update(name.encode())
        h.update(memoryview(np.ascontiguousarray(ckpt.tensors[name])).cast("B"))
    return h.hexdigest()


def loop_eval_data(inputs: Inputs) -> np.ndarray:
    return inputs.held_out[: LOOP_EVAL_WINDOWS * (SEQ_LEN + 1)]


def _train(rec: Recorder, w: Workload, training: Training, start: mg.Checkpoint,
           inputs: Inputs, seed: int, main: bool):
    """The main training runs `w.repeats.train` identical times with periodic
    eval, each run a `train_tok_s` sample; another training runs once and
    counts only toward the round's time."""
    cfg = training.config(seed)
    if not main:
        rec.enter("source_train")
        return rec.call(lambda: mg.train(start, inputs.train_tokens, cfg))[0]
    rec.enter("main_train")
    return rec.repeat(
        "train_tok_s", w.repeats.train,
        lambda: mg.train(start, inputs.train_tokens, cfg, eval_data=loop_eval_data(inputs),
                         eval_every=training.eval_every),
        work=training.steps * BATCH_TOKENS)


def main_runs_per_round(w: Workload) -> int:
    return w.repeats.train * (1 if w.main_train is None else w.passes)


def run_round(w: Workload, inputs: Inputs, rec: Recorder, seed: int, scratch: Path,
              full: bool, after_pass) -> tuple[list[dict], list[str]]:
    """Train the source, then run the scale passes. Returns the outputs of
    each pass that ran to its end, for comparison with the other passes and
    rounds, and the messages of the checks that failed. `full` runs, in the
    first pass that ends, the checks that recompute outputs through extra
    forward passes. `after_pass` is called after every pass. A call that
    raises ends its pass (or, in the source training, the round); it is
    counted by the recorder, not here."""
    outputs, failures = [], []
    try:
        source, source_log = _train(rec, w, SOURCE_TRAIN, inputs.source_init, inputs, seed,
                                    main=w.main_train is None)
    except OperationFailed:
        return outputs, failures
    # Passes spread the short calls over the round, so that their samples
    # do not all fall in one stretch of the machine's varying speed.
    for _ in range(w.passes):
        try:
            out, failed = scale_pass(w, inputs, rec, seed, scratch, source, source_log, full)
        except OperationFailed:
            continue
        except Exception as exc:  # raised outside a timed call: by a check's own computation
            failures.append(f"pass raised {type(exc).__name__}: {exc}")
            continue
        finally:
            after_pass()
        outputs.append(out)
        failures += failed
        full = False
    return outputs, failures


def scale_pass(w: Workload, inputs: Inputs, rec: Recorder, seed: int, scratch: Path,
               source: mg.Checkpoint, source_log, full: bool) -> tuple[dict, list[str]]:
    """Grow, upcycle, verify, train the main model, evaluate, save and load."""
    rec.enter("grow")
    plan = mg.GrowthPlan(w.method, DEPTH_MODE, SOURCE, w.target)
    grown = rec.repeat("grow_s", w.repeats.grow, lambda: mg.scale_up(source, plan))
    width_target = dataclasses.replace(w.target, n_layers=SOURCE.n_layers)
    if w.method == "fpi" and w.target.n_layers == SOURCE.n_layers:
        fpi = grown
    else:
        fpi, _ = rec.call(lambda: mg.fpi_expand(source, width_target))

    rec.enter("upcycle")
    routed = rec.repeat("upcycle_s", w.repeats.upcycle, lambda: mg.upcycle(grown, MOE, seed + 3))

    rec.enter("verify")
    pairs = [(source, fpi)] + ([(grown, routed)] if w.routed_forward else [])
    reports = rec.repeat(
        "verify_tok_s", w.repeats.verify,
        lambda: [mg.verify_preservation(a, b, n_probes=w.probes, seed=seed, probe_len=PROBE_LEN)
                 for a, b in pairs],
        work=len(pairs) * w.probes * PROBE_LEN)
    rec.enter("symmetry")
    symmetry = rec.repeat("symmetry_s", w.repeats.symmetry, lambda: mg.symmetry_report(fpi))

    if w.main_train is None:
        start, final, log = inputs.source_init, routed, source_log
    else:
        start = routed if w.routed_forward else grown
        final, log = _train(rec, w, w.main_train, start, inputs, seed, main=True)

    rec.enter("eval")
    eval_data = inputs.held_out[: w.final_eval_windows * (SEQ_LEN + 1)]
    final_eval = rec.repeat(
        "eval_tok_s", w.repeats.eval,
        lambda: mg.eval_loss(final, eval_data, SEQ_LEN),
        work=eval_data.size)
    trained = source if w.main_train is None else final
    if trained is not final:
        final_eval, _ = rec.call(lambda: mg.eval_loss(trained, inputs.held_out, SEQ_LEN))

    failures: list[str] = []

    def check(fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            failures.append(f"{fn.__name__}: {exc}")

    # Each pass saves into a fresh directory and loads it back, then removes
    # it untimed: rewriting the same files would wait on their writeback.
    rec.enter("io")
    saved = [grown, final]
    megabytes = sum(a.nbytes for c in saved for a in c.tensors.values()) / 1e6
    rec.samples["saved_MB"].append(megabytes / len(saved))
    for k in range(w.repeats.io):
        dirs = [scratch / f"pass{k}" / name for name in ("grown", "final")]
        _, elapsed = rec.call(lambda: [mg.save_checkpoint(c, d) for c, d in zip(saved, dirs)])
        rec.record("ckpt_save_MB_s", elapsed, megabytes)
        loaded, elapsed = rec.call(lambda: [mg.load_checkpoint(d) for d in dirs])
        rec.record("ckpt_load_MB_s", elapsed, megabytes)
        if k == 0:
            for c, l, d in zip(saved, loaded, dirs):
                check(checks.check_roundtrip, c, l, d)
        del loaded
        shutil.rmtree(scratch / f"pass{k}")
    check(checks.check_symmetry, symmetry, SOURCE, width_target)
    for report in reports:
        check(checks.check_preservation_report, report, w.probes)
    if full:
        probes = np.random.default_rng(seed).integers(0, VOCAB, size=(CHECK_PROBES, PROBE_LEN))
        for a, b in pairs:
            check(checks.check_preservation, a, b, probes)
        check(checks.check_upcycle_structure, grown, routed, MOE)
        loop_data = loop_eval_data(inputs)
        check(checks.check_eval_loss, log.eval_series()[-1][1],
              checks.reference_eval_loss(trained, loop_data, SEQ_LEN))
        check(checks.check_grown_start, mg.eval_loss(grown, loop_data, SEQ_LEN),
              mg.eval_loss(inputs.target_init, loop_data, SEQ_LEN))
        check(checks.check_training, mg.eval_loss(start, loop_data, SEQ_LEN), log.eval_series())

    distinct = {id(c): c for c in (source, grown, routed, final)}.values()
    outputs = {
        "checkpoints": [digest(c) for c in distinct],
        "log": [(r.step, r.train_loss, r.eval_loss) for r in log.rows],
        "final_eval": final_eval,
        "verify": [r.max_abs_logit_diff for r in reports],
        "symmetry": symmetry,
    }
    return outputs, failures


def run(name: str, seed: int, seconds: float, trace: bool, scratch_root: Path,
        small: bool = False) -> dict:
    """Set up, run rounds for `seconds`, and return the result record."""
    w = tiny(WORKLOADS[name]) if small else WORKLOADS[name]
    tracer = None
    if trace:
        from tracing import Tracer  # untraced runs never import the tracer

        tracer = Tracer()
        tracer.install()
    rec = Recorder(tracer)
    corpus_tokens = TINY_CORPUS_TOKENS if small else CORPUS_TOKENS

    def set_up_timed(times: int) -> Inputs:
        """Set up `times` times; set-up time is not counted in the round's time."""
        rec.enter("setup")
        busy = rec.busy
        for _ in range(times):
            inputs, elapsed = rec.call(lambda: set_up(w, seed, corpus_tokens))
            rec.samples["setup_s"].append(elapsed)  # every set-up counts: no warm-up
        rec.busy = busy
        return inputs

    inputs = set_up_timed(SETUP_FIRST)
    if tracer is not None:
        tracer.uninstall()

    # A traced run starts with two untraced rounds (a warm-up and the
    # reference its overhead is read against) and traces the rest.
    first_traced = 2 if trace else None
    busy: list[float] = []
    failures: list[str] = []
    first = None
    scratch = scratch_root / f"{name}-{seed}"
    start = perf_counter()
    try:
        while True:
            index = len(busy)
            if index == first_traced:
                tracer.install()
            rec.busy = 0.0
            outputs, failed_checks = run_round(w, inputs, rec, seed, scratch, first is None,
                                               lambda: set_up_timed(SETUP_AFTER_PASS))
            busy.append(rec.busy)
            failures += failed_checks
            first = first or (outputs[0] if outputs else None)
            for out in outputs:
                try:
                    checks.check_same(first, out, f"round {index}")
                except checks.CheckFailed as exc:
                    failures.append(str(exc))
            done = perf_counter() - start >= seconds
            if done and (first_traced is None or index >= first_traced):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    if first is None:
        raise RuntimeError("no pass ran to its end, so nothing was measured or checked: "
                           + "; ".join(rec.errors + failures))
    main_steps = (w.main_train or SOURCE_TRAIN).steps * main_runs_per_round(w)
    if trace:
        traced = busy[first_traced:]
        overhead = 100.0 * (statistics.median(traced) / busy[first_traced - 1] - 1.0)
        metrics = tracer.per_layer(main_steps * len(traced), rec.median("saved_MB"), overhead)
        try:
            checks.check_useful_frac(metrics["moe.expert_useful_frac"], MOE, w.routed_forward)
        except checks.CheckFailed as exc:
            failures.append(str(exc))
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": rec.median("setup_s"),
            "train_tok_s": rec.median("train_tok_s"),
            "eval_tok_s": rec.median("eval_tok_s"),
            "final_eval_loss": first["final_eval"],
            "pipeline_s": statistics.median(busy),
            "grow_s": rec.median("grow_s"),
            "upcycle_s": rec.median("upcycle_s"),
            "verify_tok_s": rec.median("verify_tok_s"),
            "ckpt_save_MB_s": rec.median("ckpt_save_MB_s"),
            "ckpt_load_MB_s": rec.median("ckpt_load_MB_s"),
            "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    return {
        "correct": not failures,
        "attempted": rec.attempted,
        "failed": len(rec.errors),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        "rounds": len(busy),
        "samples": dict(rec.samples),
        "failures": failures,
        "errors": rec.errors,
    }


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"tensor.nodes": "count", "tensor.matmul_gflop": "GFLOP", "checkpoint.MB": "MB",
            "moe.expert_useful_frac": "ratio", "trace.overhead_pct": "%"}[name]
