"""Grow small dense transformers into larger sparse ones without losing the function.

The pipeline: train a small dense model, expand its width and depth while
preserving (or deliberately perturbing) the computed function, continue
training, then scale out into a mixture-of-experts by replicating the MLPs
behind a learned router. Includes a deterministic reference transformer with
exact gradients, a toy training loop, verification harnesses, and a
training-cost savings calculator.
"""

from .checkpoint import (
    Checkpoint,
    ParamCount,
    count_config_params,
    count_params,
    load_checkpoint,
    save_checkpoint,
    tensor_shapes,
)
from .config import ModelConfig, MoEConfig
from .corpus import load_tokens, make_synthetic_corpus, save_tokens, unigram_entropy
from .errors import CheckpointError, TrainingDiverged, ValidationError
from .grow import (
    GrowthPlan,
    PreservationReport,
    WidthMap,
    aki_expand,
    build_grouped_head_map,
    build_width_map,
    depth_source_indices,
    expand_in_axis,
    expand_out_axis,
    fpi_expand,
    grow_depth,
    scale_up,
    symmetry_report,
    verify_preservation,
)
from .model import ForwardTrace, backward, build_graph, eval_loss, forward, random_init
from .moe import (
    RoutingStats,
    load_balance_loss,
    max_z_loss,
    moe_total_loss,
    top_k_indices,
    upcycle,
)
from .savings import (
    PhaseSpec,
    SavingsReport,
    load_plan,
    power_savings_factor,
    savings_report,
    time_savings_factor,
)
from .tensor import no_tape
from .train import MetricLog, TrainConfig, grad_check, lr_schedule, train

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "ForwardTrace",
    "GrowthPlan",
    "MetricLog",
    "ModelConfig",
    "MoEConfig",
    "ParamCount",
    "PhaseSpec",
    "PreservationReport",
    "RoutingStats",
    "SavingsReport",
    "TrainConfig",
    "TrainingDiverged",
    "ValidationError",
    "WidthMap",
    "aki_expand",
    "backward",
    "build_graph",
    "build_grouped_head_map",
    "build_width_map",
    "count_config_params",
    "count_params",
    "depth_source_indices",
    "eval_loss",
    "expand_in_axis",
    "expand_out_axis",
    "forward",
    "fpi_expand",
    "grad_check",
    "grow_depth",
    "load_balance_loss",
    "load_checkpoint",
    "load_plan",
    "load_tokens",
    "lr_schedule",
    "make_synthetic_corpus",
    "max_z_loss",
    "moe_total_loss",
    "no_tape",
    "power_savings_factor",
    "random_init",
    "save_checkpoint",
    "save_tokens",
    "savings_report",
    "scale_up",
    "symmetry_report",
    "tensor_shapes",
    "time_savings_factor",
    "top_k_indices",
    "train",
    "upcycle",
    "verify_preservation",
]
