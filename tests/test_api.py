"""The public API, pinned: adding, removing or renaming an export changes
this list, so the change shows in review."""

import moegrow

PUBLIC_API = [
    "Checkpoint",
    "CheckpointError",
    "ForwardTrace",
    "GrowthPlan",
    "MetricLog",
    "MoEConfig",
    "ModelConfig",
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


def test_public_api_is_the_pinned_list():
    assert sorted(moegrow.__all__) == PUBLIC_API


def test_every_exported_name_resolves():
    for name in moegrow.__all__:
        assert getattr(moegrow, name) is not None, name
