import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moegrow import (
    GrowthPlan,
    ModelConfig,
    ValidationError,
    aki_expand,
    build_graph,
    build_grouped_head_map,
    build_width_map,
    depth_source_indices,
    expand_in_axis,
    expand_out_axis,
    fpi_expand,
    grow_depth,
    random_init,
    scale_up,
    symmetry_report,
    upcycle,
    verify_preservation,
)

RNG = np.random.default_rng(21)


# -- width maps -------------------------------------------------------------


def test_circular_map_golden():
    wmap = build_width_map(4, 10)
    assert wmap.src_index.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
    assert wmap.multiplicity.tolist() == [3, 3, 2, 2]
    wmap.validate()


def test_circular_map_identity():
    wmap = build_width_map(5, 5)
    assert wmap.src_index.tolist() == [0, 1, 2, 3, 4]
    assert wmap.multiplicity.tolist() == [1] * 5


def test_circular_map_rejects_shrink():
    with pytest.raises(ValidationError):
        build_width_map(8, 4)


def test_primary_mask_circular():
    wmap = build_width_map(3, 7)
    assert wmap.primary_mask().tolist() == [True, True, True, False, False, False, False]


def test_grouped_head_map_golden():
    wmap = build_grouped_head_map(4, 8, kv_groups=2)
    assert wmap.src_index.tolist() == [0, 1, 0, 1, 2, 3, 2, 3]
    assert wmap.multiplicity.tolist() == [2, 2, 2, 2]


def test_grouped_head_map_interleaves_primaries():
    # With one head per group, primary slots alternate with copies instead of
    # forming a prefix; donor-based expansion must respect that layout.
    wmap = build_grouped_head_map(2, 4, kv_groups=2)
    assert wmap.src_index.tolist() == [0, 0, 1, 1]
    assert wmap.primary_mask().tolist() == [True, False, True, False]


def test_per_element_head_map_golden():
    # one entry per head element; a head's elements share its multiplicity
    # and its primary flag
    wmap = build_grouped_head_map(2, 4, kv_groups=2).per_element(2)
    assert wmap.src_index.tolist() == [0, 1, 0, 1, 2, 3, 2, 3]
    assert wmap.multiplicity.tolist() == [2, 2, 2, 2]
    assert wmap.primary_mask().tolist() == [True, True, False, False] * 2
    wmap.validate()
    uneven = build_width_map(2, 3).per_element(2)
    assert uneven.src_index.tolist() == [0, 1, 2, 3, 0, 1]
    assert uneven.multiplicity.tolist() == [2, 2, 1, 1]


def test_grouped_head_map_rejects_bad_divisibility():
    with pytest.raises(ValidationError):
        build_grouped_head_map(4, 6, kv_groups=4)


# -- axis expansion: algebraic identities -----------------------------------


def test_input_split_preserves_product():
    # Duplicating the input per the map and halving/thirding the rows must
    # reproduce the original matrix product exactly (up to f64 rounding).
    w = RNG.normal(size=(4, 5))
    wmap = build_width_map(4, 10)
    grown = expand_in_axis(w, wmap)
    x = RNG.normal(size=(3, 4))
    x_dup = x[:, wmap.src_index]
    np.testing.assert_allclose(x_dup @ grown, x @ w, atol=1e-12)


def test_input_split_power_of_two_is_bitwise():
    w = RNG.normal(size=(4, 5)).astype(np.float32)
    wmap = build_width_map(4, 8)
    grown = expand_in_axis(w, wmap)
    assert grown[:4].tobytes() == (w / 2).tobytes()
    assert grown[4:].tobytes() == (w / 2).tobytes()
    assert grown.dtype == np.float32


def test_output_duplication_golden():
    w = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    wmap = build_width_map(3, 4)
    grown = expand_out_axis(w, wmap)
    np.testing.assert_array_equal(grown, [[1, 2, 3, 1], [4, 5, 6, 4]])


def test_output_donor_golden():
    # Primaries keep their own columns; every extra copy takes the donor's.
    w = np.array([[1.0, 2.0, 3.0]])
    donor = np.array([[10.0, 20.0, 30.0]])
    wmap = build_width_map(3, 5)
    grown = expand_out_axis(w, wmap, donor=donor)
    np.testing.assert_array_equal(grown, [[1, 2, 3, 10, 20]])


def test_output_donor_interleaved_primaries():
    w = np.arange(4.0).reshape(1, 4) + 1          # heads [1,2,3,4]
    donor = w * 100
    wmap = build_grouped_head_map(2, 4, kv_groups=2)  # src [0,0,1,1]
    grown = expand_out_axis(w[:, :2], build_width_map(2, 2))  # sanity: no-op
    np.testing.assert_array_equal(grown, w[:, :2])
    grown = expand_out_axis(np.array([[1.0, 2.0]]), wmap, donor=np.array([[100.0, 200.0]]))
    np.testing.assert_array_equal(grown, [[1, 100, 2, 200]])


def test_head_granular_output_expansion():
    head_dim = 3
    w = RNG.normal(size=(5, 2 * head_dim))
    wmap = build_width_map(2, 5)
    grown = expand_out_axis(w, wmap.per_element(head_dim))
    assert grown.shape == (5, 5 * head_dim)
    for t, s in enumerate(wmap.src_index):
        np.testing.assert_array_equal(
            grown[:, t * head_dim : (t + 1) * head_dim],
            w[:, s * head_dim : (s + 1) * head_dim],
        )


def test_head_granular_input_split_preserves_product():
    head_dim, old_heads, new_heads = 4, 2, 6
    wmap = build_width_map(old_heads, new_heads)
    wo = RNG.normal(size=(old_heads * head_dim, 7))
    grown = expand_in_axis(wo, wmap.per_element(head_dim))
    ctx = RNG.normal(size=(old_heads, head_dim))
    ctx_dup = ctx[wmap.src_index].reshape(-1)
    np.testing.assert_allclose(ctx_dup @ grown, ctx.reshape(-1) @ wo, atol=1e-12)


def test_axis_expansion_shape_errors():
    wmap = build_width_map(4, 8)
    with pytest.raises(ValidationError):
        expand_in_axis(RNG.normal(size=(5, 3)), wmap)
    with pytest.raises(ValidationError):
        expand_out_axis(RNG.normal(size=(3, 5)), wmap)
    with pytest.raises(ValidationError):
        expand_out_axis(RNG.normal(size=(3, 4)), wmap, donor=RNG.normal(size=(4, 4)))
    with pytest.raises(ValidationError):
        expand_in_axis(RNG.normal(size=(9, 2)), wmap.per_element(2))


# -- whole-model width growth ------------------------------------------------


def doubled(config):
    return dataclasses.replace(
        config,
        hidden_dim=2 * config.hidden_dim,
        n_heads=2 * config.n_heads,
        intermediate_dim=2 * config.intermediate_dim,
    )


def test_identity_growth_is_bitwise_for_both_methods(micro_ckpt, micro_config):
    for expand in (fpi_expand, aki_expand):
        same = expand(micro_ckpt, micro_config)
        for name in micro_ckpt.tensors:
            assert same.tensors[name].tobytes() == micro_ckpt.tensors[name].tobytes(), name


def test_function_preserving_doubling(micro_ckpt, micro_config):
    grown = fpi_expand(micro_ckpt, doubled(micro_config))
    report = verify_preservation(micro_ckpt, grown, n_probes=8, probe_len=12)
    assert report.passed
    assert report.max_abs_logit_diff <= 1e-5


def test_function_preserving_doubling_float64(micro_ckpt, micro_config):
    grown = fpi_expand(micro_ckpt, doubled(micro_config))
    report = verify_preservation(
        micro_ckpt, grown, n_probes=4, probe_len=10, dtype=np.float64, tol=1e-10
    )
    assert report.passed


def test_quadrupling_preserves_within_tolerance(micro_ckpt, micro_config):
    target = dataclasses.replace(
        micro_config,
        hidden_dim=4 * micro_config.hidden_dim,
        n_heads=4 * micro_config.n_heads,
        intermediate_dim=4 * micro_config.intermediate_dim,
    )
    grown = fpi_expand(micro_ckpt, target)
    report = verify_preservation(micro_ckpt, grown, n_probes=8, probe_len=12)
    assert report.passed


@settings(max_examples=80, deadline=None)
@given(
    n_layers=st.integers(1, 2),
    kv_groups=st.sampled_from([1, 2, 4]),
    heads_per_group=st.integers(1, 2),
    head_dim=st.sampled_from([2, 4]),
    intermediate_dim=st.integers(2, 8),
    qkv_bias=st.booleans(),
    head_growth=st.integers(1, 3),
    mlp_growth=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_fpi_preserves_function_over_integer_multiples(
    n_layers, kv_groups, heads_per_group, head_dim, intermediate_dim, qkv_bias,
    head_growth, mlp_growth, seed,
):
    heads = kv_groups * heads_per_group
    src = ModelConfig(
        n_layers=n_layers, hidden_dim=heads * head_dim, n_heads=heads, head_dim=head_dim,
        kv_groups=kv_groups, intermediate_dim=intermediate_dim, vocab_size=16,
        qkv_bias=qkv_bias, context_length=16,
    )
    target = dataclasses.replace(
        src, n_heads=head_growth * heads, hidden_dim=head_growth * heads * head_dim,
        intermediate_dim=mlp_growth * intermediate_dim,
    )
    ckpt = random_init(src, seed=seed, init_std=0.4)
    grown = fpi_expand(ckpt, target)
    report = verify_preservation(ckpt, grown, n_probes=2, probe_len=8, seed=seed,
                                 dtype=np.float64, tol=1e-5)
    assert report.passed, report


def test_uneven_hidden_growth_is_reported_not_hidden(micro_ckpt, micro_config):
    # Non-integer hidden multiples cannot preserve the function through RMSNorm
    # (the duplicated channels change the mean square); the report must say
    # so rather than silently passing.
    target = dataclasses.replace(micro_config, hidden_dim=12, n_heads=6)
    grown = fpi_expand(micro_ckpt, target)
    report = verify_preservation(micro_ckpt, grown, n_probes=4)
    assert not report.passed
    assert report.max_abs_logit_diff > 1e-5


def test_uneven_intermediate_growth_still_preserves(micro_ckpt, micro_config):
    # The MLP's inner axis has no normalization, so splitting by uneven
    # multiplicities remains exact even for non-integer growth.
    target = dataclasses.replace(micro_config, intermediate_dim=9)
    grown = fpi_expand(micro_ckpt, target)
    report = verify_preservation(micro_ckpt, grown, n_probes=4)
    assert report.passed


def test_grown_kv_projections_only_split_inputs(micro_ckpt, micro_config):
    grown = fpi_expand(micro_ckpt, doubled(micro_config))
    wk_src = micro_ckpt.tensors["layers.0.attn.wk"]
    wk_new = grown.tensors["layers.0.attn.wk"]
    assert wk_new.shape == (2 * micro_config.hidden_dim, micro_config.kv_dim)
    np.testing.assert_array_equal(wk_new[: micro_config.hidden_dim], wk_src / 2)
    assert grown.tensors["layers.0.attn.k_bias"].tobytes() == micro_ckpt.tensors[
        "layers.0.attn.k_bias"
    ].tobytes()


def test_growth_rejects_bad_targets(micro_ckpt, micro_config):
    cases = [
        dataclasses.replace(micro_config, hidden_dim=4, n_heads=2),        # shrink
        dataclasses.replace(micro_config, kv_groups=1, qkv_bias=True),     # regroup
        dataclasses.replace(
            micro_config, head_dim=4, hidden_dim=16, intermediate_dim=12
        ),                                                                 # head_dim
        dataclasses.replace(micro_config, vocab_size=32),                  # vocab
        dataclasses.replace(micro_config, qkv_bias=False),                 # bias
        dataclasses.replace(micro_config, n_layers=4),                     # depth
    ]
    for target in cases:
        with pytest.raises(ValidationError):
            fpi_expand(micro_ckpt, target)


def test_growth_rejects_moe_input(micro_ckpt, micro_config, moe_small):
    sparse = upcycle(micro_ckpt, moe_small, seed=0)
    with pytest.raises(ValidationError):
        fpi_expand(sparse, doubled(micro_config))


# -- AKI provenance and symmetry ----------------------------------------------


def test_aki_expanded_slices_come_from_next_layer(micro_ckpt, micro_config):
    target = doubled(micro_config)
    grown = aki_expand(micro_ckpt, target)
    inter_map = build_width_map(micro_config.intermediate_dim, target.intermediate_dim)
    hidden_map = build_width_map(micro_config.hidden_dim, target.hidden_dim)

    # donor column for every non-primary slot of layer 0's w_down: the
    # input-split w_down of layer 1, at the mapped source column
    donor = expand_in_axis(micro_ckpt.tensors["layers.1.mlp.w_down"], inter_map)
    own = expand_in_axis(micro_ckpt.tensors["layers.0.mlp.w_down"], inter_map)
    got = grown.tensors["layers.0.mlp.w_down"]
    primary = hidden_map.primary_mask()
    for j in range(target.hidden_dim):
        src_col = hidden_map.src_index[j]
        expected = own[:, src_col] if primary[j] else donor[:, src_col]
        assert got[:, j].tobytes() == expected.tobytes(), f"col {j}"


def test_aki_top_layer_falls_back_to_self(micro_ckpt, micro_config):
    target = doubled(micro_config)
    grown_aki = aki_expand(micro_ckpt, target)
    grown_fpi = fpi_expand(micro_ckpt, target)
    top = f"layers.{micro_config.n_layers - 1}"
    for role in ("mlp.w_down", "mlp.w_gate", "mlp.w_up", "attn.wq", "attn.wo"):
        assert (
            grown_aki.tensors[f"{top}.{role}"].tobytes()
            == grown_fpi.tensors[f"{top}.{role}"].tobytes()
        ), role


def test_aki_query_heads_respect_group_layout(micro_ckpt, micro_config):
    target = doubled(micro_config)
    grown = aki_expand(micro_ckpt, target)
    head_map = build_grouped_head_map(
        micro_config.n_heads, target.n_heads, micro_config.kv_groups
    )
    hidden_map = build_width_map(micro_config.hidden_dim, target.hidden_dim)
    d = micro_config.head_dim
    own = expand_in_axis(micro_ckpt.tensors["layers.0.attn.wq"], hidden_map)
    donor = expand_in_axis(micro_ckpt.tensors["layers.1.attn.wq"], hidden_map)
    got = grown.tensors["layers.0.attn.wq"]
    primary = head_map.primary_mask()
    for t in range(target.n_heads):
        s = head_map.src_index[t]
        expected = (own if primary[t] else donor)[:, s * d : (s + 1) * d]
        assert got[:, t * d : (t + 1) * d].tobytes() == expected.tobytes(), f"head {t}"


def test_aki_differs_from_fpi_and_breaks_preservation(micro_ckpt, micro_config):
    target = doubled(micro_config)
    fpi = fpi_expand(micro_ckpt, target)
    aki = aki_expand(micro_ckpt, target)
    assert any(
        fpi.tensors[n].tobytes() != aki.tensors[n].tobytes() for n in fpi.tensors
    )
    report = verify_preservation(micro_ckpt, aki, n_probes=4)
    assert not report.passed


def test_symmetry_counts_after_growth(micro_ckpt, micro_config):
    target = doubled(micro_config)
    fpi = fpi_expand(micro_ckpt, target)
    aki = aki_expand(micro_ckpt, target)
    sym_fpi = symmetry_report(fpi)
    sym_aki = symmetry_report(aki)

    # duplication leaves one locked pair per source column
    assert sym_fpi["layers.0.mlp.w_down"] == micro_config.hidden_dim
    assert sym_fpi["layers.0.mlp.w_gate"] == micro_config.intermediate_dim
    assert sym_fpi["layers.0.attn.wo"] == micro_config.hidden_dim
    assert sym_fpi["embed"] == micro_config.hidden_dim

    # donor-sourced slices are all distinct below the top layer
    assert sym_aki["layers.0.mlp.w_down"] == 0
    assert sym_aki["layers.0.mlp.w_gate"] == 0
    assert sym_aki["layers.0.attn.wo"] == 0
    assert sym_aki["layers.0.attn.wq"] == 0

    # the embedding has no layer above and stays duplicated either way
    assert sym_aki["embed"] == micro_config.hidden_dim
    # so does the topmost layer
    top = f"layers.{micro_config.n_layers - 1}"
    assert sym_aki[f"{top}.mlp.w_down"] == micro_config.hidden_dim


def test_symmetry_report_clean_on_random_init(micro_ckpt):
    assert all(v == 0 for v in symmetry_report(micro_ckpt).values())


# -- depth growth -------------------------------------------------------------


def test_depth_goldens():
    assert depth_source_indices(3, 6, "interpolate") == [0, 0, 1, 1, 2, 2]
    assert depth_source_indices(3, 6, "stack") == [0, 1, 2, 0, 1, 2]


def test_depth_uneven_examples():
    assert depth_source_indices(2, 5, "stack") == [0, 1, 0, 1, 0]
    assert depth_source_indices(2, 5, "interpolate") == [0, 0, 0, 1, 1]


def test_depth_identity():
    for mode in ("stack", "interpolate"):
        assert depth_source_indices(4, 4, mode) == [0, 1, 2, 3]


def test_depth_map_laws():
    for l1 in range(1, 7):
        for l2 in range(l1, 14):
            interp = depth_source_indices(l1, l2, "interpolate")
            stack = depth_source_indices(l1, l2, "stack")
            assert len(interp) == len(stack) == l2
            assert interp == sorted(interp)
            assert set(interp) == set(range(l1))
            assert set(stack) == set(range(l1))
            assert stack == [l % l1 for l in range(l2)]
            assert interp[0] == 0 and stack[0] == 0


@settings(max_examples=200, deadline=None)
@given(source=st.integers(1, 64), extra=st.integers(0, 192))
def test_depth_maps_are_onto_and_interpolate_is_monotone(source, extra):
    target = source + extra
    interp = depth_source_indices(source, target, "interpolate")
    stack = depth_source_indices(source, target, "stack")
    assert len(interp) == len(stack) == target
    assert all(a <= b for a, b in zip(interp, interp[1:]))
    assert set(interp) == set(stack) == set(range(source))


def test_depth_errors():
    with pytest.raises(ValidationError):
        depth_source_indices(4, 3, "stack")
    with pytest.raises(ValidationError):
        depth_source_indices(2, 4, "repeat")


def test_grow_depth_copies_whole_layers(micro_ckpt, micro_config):
    grown = grow_depth(micro_ckpt, 5, "interpolate")
    assert grown.config.n_layers == 5
    sources = depth_source_indices(micro_config.n_layers, 5, "interpolate")
    for l, s in enumerate(sources):
        for role in ("attn.wq", "attn.wo", "mlp.w_gate", "attn_norm"):
            assert (
                grown.tensors[f"layers.{l}.{role}"].tobytes()
                == micro_ckpt.tensors[f"layers.{s}.{role}"].tobytes()
            )
    for name in ("embed", "unembed", "final_norm"):
        assert grown.tensors[name].tobytes() == micro_ckpt.tensors[name].tobytes()


def test_grow_depth_rejects_moe(micro_ckpt, moe_small):
    sparse = upcycle(micro_ckpt, moe_small, seed=0)
    with pytest.raises(ValidationError):
        grow_depth(sparse, 4, "stack")


# -- growth plans and composition ---------------------------------------------


def test_plan_roundtrip(micro_config):
    plan = GrowthPlan(
        method="aki",
        depth_mode="interpolate",
        source_config=micro_config,
        target_config=dataclasses.replace(doubled(micro_config), n_layers=4),
    )
    plan.validate()
    again = GrowthPlan.from_json(json.dumps(plan.to_dict()))
    assert again == plan


def test_plan_validation_errors(micro_config):
    with pytest.raises(ValidationError):
        GrowthPlan(
            method="net2net", depth_mode="stack",
            source_config=micro_config, target_config=micro_config,
        ).validate()
    with pytest.raises(ValidationError):
        GrowthPlan(
            method="fpi", depth_mode="wide",
            source_config=micro_config, target_config=micro_config,
        ).validate()
    with pytest.raises(ValidationError):
        GrowthPlan.from_json("{not json")
    data = GrowthPlan(
        method="fpi", depth_mode="stack",
        source_config=micro_config, target_config=micro_config,
    ).to_dict()
    data["extra"] = 1
    with pytest.raises(ValidationError):
        GrowthPlan.from_dict(data)


def test_scale_up_is_width_then_depth(micro_ckpt, micro_config):
    target = dataclasses.replace(doubled(micro_config), n_layers=5)
    plan = GrowthPlan(
        method="fpi", depth_mode="stack",
        source_config=micro_config, target_config=target,
    )
    via_plan = scale_up(micro_ckpt, plan)
    widened = fpi_expand(
        micro_ckpt, dataclasses.replace(target, n_layers=micro_config.n_layers)
    )
    by_hand = grow_depth(widened, 5, "stack")
    assert via_plan.config == by_hand.config == target
    for name in via_plan.tensors:
        assert via_plan.tensors[name].tobytes() == by_hand.tensors[name].tobytes()


def test_scale_up_rejects_mismatched_source(micro_ckpt, micro_config, toy_config):
    plan = GrowthPlan(
        method="fpi", depth_mode="stack",
        source_config=toy_config, target_config=toy_config,
    )
    with pytest.raises(ValidationError):
        scale_up(micro_ckpt, plan)


def test_verify_preservation_rejects_vocab_mismatch(micro_ckpt, micro_config):
    other = random_init(dataclasses.replace(micro_config, vocab_size=32), seed=0)
    with pytest.raises(ValidationError):
        verify_preservation(micro_ckpt, other)


@pytest.mark.parametrize("routed", [False, True])
def test_verify_preservation_reports_what_taped_graphs_give(micro_ckpt, micro_config,
                                                            moe_small, routed):
    # AKI does not preserve the function, so the figures compared are not 0
    dst = aki_expand(micro_ckpt, doubled(micro_config))
    src = micro_ckpt
    if routed:
        src, dst = upcycle(src, moe_small, seed=5), upcycle(dst, moe_small, seed=5)
    report = verify_preservation(src, dst, n_probes=4, probe_len=10, seed=3)
    probes = np.random.default_rng(3).integers(0, micro_config.vocab_size, size=(4, 10))
    a, b = build_graph(src, probes), build_graph(dst, probes)
    assert report.max_abs_logit_diff == float(np.max(np.abs(a.logits.data - b.logits.data)))
    assert report.loss_diff == float(abs(a.loss.data - b.loss.data))
    assert report.max_abs_logit_diff > 0
