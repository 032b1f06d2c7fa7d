"""Per-layer tracing of moegrow, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules, the
``Tensor`` op methods, ``Tensor.backward`` and ``Checkpoint.validate`` with
timing wrappers, in every moegrow module that holds a reference to them, and
``uninstall`` puts the originals back. Function calls become spans (name,
start, end, parent span, benchmark phase) kept in memory. Tensor ops run too
often to keep a span each, so their self time is summed per phase, category
and direction instead; the backward time of an op is taken by wrapping the
closure the op leaves on its output node. ``per_layer`` turns both into the
per-layer metrics when the run ends.

Only the benchmark's traced runs import this module; the untraced runs that
produce the end-to-end metrics execute none of it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

from moegrow.checkpoint import Checkpoint
from moegrow.tensor import Tensor

LAYERS = ("tensor", "model", "moe", "train", "grow", "checkpoint", "corpus")

# Tensor methods by op category; everything not listed here is "elementwise",
# which also covers shape ops (reshape, transpose, slicing) and reductions.
CATEGORY = {
    "__matmul__": "matmul",
    "gather": "gather", "gather_last": "gather", "scatter_last": "gather",
    "softmax_last": "softmax", "logsumexp_last": "softmax",
    "cross_entropy_last": "cross_entropy",
}
ELEMENTWISE = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "reshape", "transpose", "__getitem__",
    "sum", "mean", "mean_last_folded", "exp", "log", "sigmoid", "silu",
)
CATEGORIES = ("matmul", "gather", "softmax", "cross_entropy", "elementwise")


class Tracer:
    def __init__(self) -> None:
        self.phase = "none"
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self._open: list[int] = []
        self._op_category: list[str] = []
        self._op_child: list[float] = []
        self._in_expert = 0  # > 0 while a routed expert's MLP is being built
        self.totals: dict[tuple[str, str], float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.totals[(self.phase, key)] += value

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            span = [name, 0.0, 0.0, parent, tracer.phase]
            tracer.spans.append(span)
            tracer._open.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._open.pop()

        return wrapper

    def _op(self, category: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._op_category.append(category)
            tracer._op_child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._op_category.pop()
                child = tracer._op_child.pop()
                tracer.add(f"tensor.{category}.fwd_s", elapsed - child)
                if tracer._op_child:
                    tracer._op_child[-1] += elapsed

        return wrapper

    def _timed_backward(self, backward, category: str, flop: int):
        tracer = self
        expert = self._in_expert > 0

        def closure(grad):
            start = perf_counter()
            out = backward(grad)
            elapsed = perf_counter() - start
            tracer.add(f"tensor.{category}.bwd_s", elapsed)
            tracer.add("closures_s", elapsed)
            if expert:
                tracer.add("expert_s", elapsed)
            if flop:
                tracer.add("matmul_flop", 2 * flop)
            return out

        return closure

    def _make(self, original):
        tracer = self

        def make(node, data, parents, backward):
            category = tracer._op_category[-1] if tracer._op_category else "elementwise"
            flop = 0
            if category == "matmul":
                flop = 2 * int(data.size) * int(parents[0].data.shape[-1])
                tracer.add("matmul_flop", flop)
            tracer.add("nodes", 1)
            return original(node, data, parents, tracer._timed_backward(backward, category, flop))

        return make

    def _concat(self, original):
        tracer = self

        def concat(tensors, axis=-1):
            out = original(tensors, axis)
            tracer.add("nodes", 1)
            out._backward = tracer._timed_backward(out._backward, "elementwise", 0)
            return out

        return self._op("elementwise", concat)

    def _gated_mlp(self, original):
        # counts the token x expert evaluations the model computes, to set
        # against the gated pairs the router selects, and times them
        tracer = self

        def gated_mlp(h, params, prefix):
            if ".moe.expert." not in prefix:
                return original(h, params, prefix)
            tracer.add("expert_pairs", h.data.size // h.data.shape[-1])
            tracer._in_expert += 1
            start = perf_counter()
            try:
                return original(h, params, prefix)
            finally:
                tracer.add("expert_s", perf_counter() - start)
                tracer._in_expert -= 1

        return gated_mlp

    def _route_batch(self, original):
        tracer = self

        def route_batch(probs, moe):
            weights, idx = original(probs, moe)
            tracer.add("gated_pairs", idx.size)
            return weights, idx

        return route_batch

    # -- installing -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        replace = {}
        for layer in LAYERS:
            module = importlib.import_module(f"moegrow.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    replace[obj] = self._span(f"{layer}.{name}", obj)
        model = sys.modules["moegrow.model"]
        tensor = sys.modules["moegrow.tensor"]
        replace[tensor.concat] = self._concat(tensor.concat)
        replace[model._gated_mlp] = self._gated_mlp(model._gated_mlp)
        moe = sys.modules["moegrow.moe"]
        replace[moe.route_batch] = self._route_batch(replace[moe.route_batch])
        for name, module in list(sys.modules.items()):
            if name == "moegrow" or name.startswith("moegrow."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replace:
                        self._set(module, attr, replace[obj])
        for name in ELEMENTWISE + tuple(CATEGORY):
            category = CATEGORY.get(name, "elementwise")
            self._set(Tensor, name, self._op(category, getattr(Tensor, name)))
        self._set(Tensor, "_make", self._make(Tensor._make))
        self._set(Tensor, "backward", self._span("tensor.backward", Tensor.backward))
        self._set(Checkpoint, "validate", self._span("checkpoint.validate", Checkpoint.validate))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reading back ---------------------------------------------------------

    def span_total(self, name: str, phase: str | None = None,
                   parent: str | None = None) -> tuple[float, int]:
        """Summed duration and count of the spans called `name`, optionally
        only those in `phase` or whose direct parent span is called `parent`."""
        total, count = 0.0, 0
        for span in self.spans:
            if span[0] != name or (phase is not None and span[4] != phase):
                continue
            if parent is not None and (span[3] < 0 or self.spans[span[3]][0] != parent):
                continue
            total += span[2] - span[1]
            count += 1
        return total, count

    def total(self, phase: str, key: str) -> float:
        return self.totals.get((phase, key), 0.0)

    def per_call(self, name: str, phase: str | None = None, parent: str | None = None) -> float:
        total, count = self.span_total(name, phase, parent)
        return total / count if count else 0.0

    def per_layer(self, main_steps: int, saved_mb: float, overhead_pct: float) -> dict[str, float]:
        """Per-layer metrics. Tensor, model, moe routing and train figures are
        per step of the main training phase; the rest are per call."""
        steps = max(main_steps, 1)
        main = "main_train"
        out: dict[str, float] = {}
        for category in CATEGORIES:
            for direction in ("fwd_s", "bwd_s"):
                key = f"tensor.{category}.{direction}"
                out[key] = self.total(main, key) / steps
        backward_s, _ = self.span_total("tensor.backward", main)
        out["tensor.backward_overhead_s"] = (backward_s - self.total(main, "closures_s")) / steps
        out["tensor.nodes"] = self.total(main, "nodes") / steps
        out["tensor.matmul_gflop"] = self.total(main, "matmul_flop") / steps / 1e9

        train_s, _ = self.span_total("train.train", main)
        in_loop_eval_s, _ = self.span_total("model.eval_loss", main, parent="train.train")
        forward_s, _ = self.span_total("model.build_graph", main, parent="train.train")
        sample_s, _ = self.span_total("train.sample_batch", main)
        step_s = (train_s - in_loop_eval_s) / steps
        out["model.forward_s"] = forward_s / steps
        out["model.backward_s"] = backward_s / steps
        out["model.eval_s"] = self.per_call("model.eval_loss", "eval")

        route_s, _ = self.span_total("moe.route_batch", main)
        balance_s, _ = self.span_total("moe.load_balance_term", main)
        z_s, _ = self.span_total("moe.z_term", main)
        out["moe.route_s"] = route_s / steps
        out["moe.aux_terms_s"] = (balance_s + z_s) / steps
        computed = sum(v for (_, k), v in self.totals.items() if k == "expert_pairs")
        gated = sum(v for (_, k), v in self.totals.items() if k == "gated_pairs")
        # a dense MLP computes only what it uses; the fraction is read over
        # routed layers wherever they ran
        out["moe.expert_useful_frac"] = gated / computed if computed else 1.0
        out["moe.expert_mlp_s"] = self.total(main, "expert_s") / steps
        out["moe.upcycle_s"] = self.per_call("moe.upcycle", "upcycle")

        out["train.step_s"] = step_s
        out["train.sample_s"] = sample_s / steps
        out["train.optimizer_s"] = step_s - (forward_s + backward_s + sample_s) / steps
        out["train.in_loop_eval_s"] = in_loop_eval_s / steps

        width_s = sum(self.span_total(f"grow.{f}", "grow", parent="grow.scale_up")[0]
                      for f in ("fpi_expand", "aki_expand"))
        _, grows = self.span_total("grow.scale_up", "grow")
        out["grow.width_s"] = width_s / grows if grows else 0.0
        out["grow.depth_s"] = self.per_call("grow.grow_depth", "grow", parent="grow.scale_up")
        out["grow.verify_s"] = self.per_call("grow.verify_preservation", "verify")
        out["grow.symmetry_s"] = self.per_call("grow.symmetry_report", "symmetry")

        out["checkpoint.save_s"] = self.per_call("checkpoint.save_checkpoint", "io")
        out["checkpoint.load_s"] = self.per_call("checkpoint.load_checkpoint", "io")
        validate_s, _ = self.span_total("checkpoint.validate", "io",
                                        parent="checkpoint.load_checkpoint")
        _, loads = self.span_total("checkpoint.load_checkpoint", "io")
        out["checkpoint.validate_s"] = validate_s / loads if loads else 0.0
        out["checkpoint.MB"] = saved_mb
        out["corpus.synth_s"] = self.per_call("corpus.make_synthetic_corpus", "setup")
        out["trace.overhead_pct"] = overhead_pct
        return out
