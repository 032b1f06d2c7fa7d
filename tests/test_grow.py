import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moegrow import (
    Checkpoint,
    GrowthPlan,
    ModelConfig,
    MoEConfig,
    TrainConfig,
    ValidationError,
    WidthMap,
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
    train,
    upcycle,
    verify_preservation,
)
from moegrow.checkpoint import tensor_axes
from test_checkpoint import count_scans, thawed

RNG = np.random.default_rng(21)


# -- width maps -------------------------------------------------------------


def test_circular_map_golden():
    wmap = build_width_map(4, 10)
    assert wmap.src_index.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
    assert wmap.multiplicity.tolist() == [3, 3, 2, 2]


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
    uneven = build_width_map(2, 3).per_element(2)
    assert uneven.src_index.tolist() == [0, 1, 2, 3, 0, 1]
    assert uneven.multiplicity.tolist() == [2, 2, 1, 1]


def test_a_hand_built_map_is_checked_when_built():
    # multiplicities follow from src_index, so a split cannot disagree with
    # the copies; a source that is never copied, or an index past old_dim,
    # is refused at construction
    assert WidthMap(np.array([0, 1, 1]), old_dim=2).multiplicity.tolist() == [1, 2]
    with pytest.raises(ValidationError, match="copied"):
        WidthMap(np.array([0, 1, 1]), old_dim=3)
    with pytest.raises(ValidationError, match="out of range"):
        WidthMap(np.array([0, 1, 5]), old_dim=2)


def test_maps_compare_by_identity_without_raising():
    # a field-wise == over the src_index arrays raised ValueError
    wmap = build_width_map(2, 4)
    assert (wmap == build_width_map(2, 4)) is False
    assert (wmap != build_width_map(2, 4)) is True
    assert (wmap == wmap) is True


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


@pytest.mark.parametrize("shape", [(2,), (2, 3, 4)])
def test_expand_in_axis_rejects_anything_but_a_matrix(shape):
    # a vector once came back as a (4, 4) matrix through the column broadcast
    with pytest.raises(ValidationError, match="matrix"):
        expand_in_axis(np.ones(shape), build_width_map(2, 4))


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
    routed=st.booleans(),
    data=st.data(),
)
def test_fpi_preserves_function_over_integer_multiples(
    n_layers, kv_groups, heads_per_group, head_dim, intermediate_dim, qkv_bias,
    head_growth, mlp_growth, seed, routed, data,
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
    if routed:
        # float64: in float32 the split router rows reorder the logit sums,
        # and a near-tie in the top-k could select another expert
        n_experts = data.draw(st.integers(2, 4), label="n_experts")
        top_k = data.draw(st.integers(1, n_experts), label="top_k")
        ckpt = upcycle(ckpt, MoEConfig(n_experts=n_experts, top_k=top_k,
                                       router_init_std=0.5), seed=seed)
    grown = fpi_expand(ckpt, target)
    assert grown.moe == ckpt.moe
    report = verify_preservation(ckpt, grown, n_probes=2, probe_len=8, seed=seed,
                                 dtype=np.float64, tol=1e-5)
    assert report.passed, report


@settings(max_examples=12, deadline=None)
@given(
    n_layers=st.integers(1, 2),
    kv_groups=st.sampled_from([1, 2]),
    head_growth=st.integers(1, 2),
    mlp_growth=st.integers(1, 3),
    depth=st.integers(0, 2),
    method=st.sampled_from(["fpi", "aki"]),
    depth_mode=st.sampled_from(["stack", "interpolate"]),
    seed=st.integers(0, 2**16),
)
def test_upcycling_commutes_with_scale_up(n_layers, kv_groups, head_growth, mlp_growth,
                                          depth, method, depth_mode, seed):
    # experts grow with the MLP's own maps, so growing an upcycled model
    # equals upcycling the grown one; the routers differ only in when they
    # were drawn, and a grown router is its source's rows split on hidden
    src = ModelConfig(
        n_layers=n_layers, hidden_dim=4 * kv_groups, n_heads=2 * kv_groups, head_dim=2,
        kv_groups=kv_groups, intermediate_dim=5, vocab_size=16, context_length=16,
    )
    target = dataclasses.replace(
        src, n_layers=n_layers + depth, n_heads=head_growth * src.n_heads,
        hidden_dim=head_growth * src.hidden_dim, intermediate_dim=mlp_growth * 5,
    )
    plan = GrowthPlan(method=method, depth_mode=depth_mode, source_config=src,
                      target_config=target)
    moe = MoEConfig(n_experts=3, top_k=2)
    dense = random_init(src, seed=seed, init_std=0.4)
    routed = upcycle(dense, moe, seed=seed)
    grown = scale_up(routed, plan)
    expected = upcycle(scale_up(dense, plan), moe, seed=seed)
    assert grown.moe == moe and list(grown.tensors) == list(expected.tensors)
    for name, arr in grown.tensors.items():  # one array per (layer, role), as upcycled
        layer, _, role = name.partition(".moe.expert.")
        if role:
            assert arr is grown.tensors[f"{layer}.moe.expert.0.{role.split('.', 1)[1]}"], name
    hidden = build_width_map(src.hidden_dim, target.hidden_dim)
    sources = depth_source_indices(src.n_layers, target.n_layers, depth_mode)
    for name, arr in grown.tensors.items():
        if name.endswith(".moe.router"):
            i = int(name.split(".")[1])
            source = routed.tensors[f"layers.{sources[i]}.moe.router"]
            assert arr.tobytes() == expand_in_axis(source, hidden).tobytes(), name
        else:
            assert arr.tobytes() == expected.tensors[name].tobytes(), name


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


@pytest.mark.parametrize("mode", ["stack", "interpolate"])
@pytest.mark.parametrize("source", [0, -1])
def test_depth_needs_a_source_layer(source, mode):
    # stack once divided by zero here
    with pytest.raises(ValidationError, match="at least one layer"):
        depth_source_indices(source, 2, mode)


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


def test_grow_depth_lays_out_the_target_roles_in_canonical_order(micro_ckpt):
    for mode in ("stack", "interpolate"):
        grown = grow_depth(micro_ckpt, 5, mode)
        assert list(grown.tensors) == list(tensor_axes(grown.config))


# -- growth plans and composition ---------------------------------------------


def test_plan_roundtrip(micro_config):
    plan = GrowthPlan(
        method="aki",
        depth_mode="interpolate",
        source_config=micro_config,
        target_config=dataclasses.replace(doubled(micro_config), n_layers=4),
    )
    plan.validate()
    again = GrowthPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
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
        GrowthPlan.from_dict("{not json")  # not a JSON object
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


def test_scale_up_continues_after_a_trained_scale_out(micro_ckpt, micro_config, corpus):
    # dense -> scale up -> upcycle -> train -> scale up again: the second,
    # width-only FPI growth keeps the trained routed model's function
    deeper = dataclasses.replace(doubled(micro_config), n_layers=3)
    grown = scale_up(micro_ckpt, GrowthPlan(method="aki", depth_mode="interpolate",
                                            source_config=micro_config,
                                            target_config=deeper))
    cfg = TrainConfig(lr=3e-3, warmup_steps=0, total_steps=3, batch_tokens=64, seq_len=16,
                      seed=0)
    routed, _ = train(upcycle(grown, MoEConfig(n_experts=4, top_k=2, router_init_std=0.5),
                              seed=2), corpus % 16, cfg)
    wider = scale_up(routed, GrowthPlan(method="fpi", depth_mode="stack",
                                        source_config=deeper, target_config=doubled(deeper)))
    assert wider.moe == routed.moe
    report = verify_preservation(routed, wider, n_probes=4, probe_len=12, dtype=np.float64)
    assert report.passed, report
    _, log = train(wider, corpus % 16, dataclasses.replace(cfg, total_steps=2))
    assert all(np.isfinite(row.train_loss) for row in log.rows)


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


@pytest.mark.parametrize("kwargs", [{"tol": float("nan")}, {"tol": -1e-5}, {"probe_len": 0},
                                    {"probe_len": 1}], ids=repr)
def test_verify_preservation_rejects_a_bad_tol_or_probe_len(micro_ckpt, kwargs):
    with pytest.raises(ValidationError, match=next(iter(kwargs))):
        verify_preservation(micro_ckpt, micro_ckpt, **kwargs)
    # the edges that stay valid: a zero tolerance and the shortest probe
    assert verify_preservation(micro_ckpt, micro_ckpt, tol=0.0, probe_len=2).passed


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


# -- frozen inputs are shared, unfrozen ones copied once -----------------------


TRANSFORMS = {
    "fpi": lambda ck: fpi_expand(ck, doubled(ck.config)),
    "aki": lambda ck: aki_expand(ck, doubled(ck.config)),
    "depth": lambda ck: grow_depth(ck, 5, "interpolate"),
    "scale_up": lambda ck: scale_up(ck, GrowthPlan(
        method="aki", depth_mode="stack", source_config=ck.config,
        target_config=dataclasses.replace(doubled(ck.config), n_layers=5))),
    "upcycle": lambda ck: upcycle(ck, MoEConfig(n_experts=4, top_k=2), seed=1),
}
# every transform on the dense micro checkpoint, and the growth transforms on
# its upcycled form as well
CASES = [pytest.param(t, False, id=t) for t in sorted(TRANSFORMS)] + [
    pytest.param(t, True, id=f"routed-{t}") for t in sorted(TRANSFORMS) if t != "upcycle"
]


def transform_input(ckpt: Checkpoint, routed: bool) -> Checkpoint:
    return TRANSFORMS["upcycle"](ckpt) if routed else ckpt


def test_transforms_share_the_untouched_arrays_of_a_frozen_input(micro_ckpt, micro_config):
    sources = depth_source_indices(micro_config.n_layers, 5, "interpolate")
    for routed in (False, True):  # routers and experts are shared as well
        src = transform_input(micro_ckpt, routed)
        deep = grow_depth(src, 5, "interpolate")
        for name, arr in deep.tensors.items():
            _, layer, role = name.partition("layers.")
            if layer:
                i, role = role.split(".", 1)
                name = f"layers.{sources[int(i)]}.{role}"
            assert np.shares_memory(arr, src.tensors[name]), name
    # width growth leaves the key and value biases (axis kv) as they are,
    # and depth growth then repeats the widened layers without copying them
    grown = TRANSFORMS["scale_up"](micro_ckpt)
    for l in range(5):
        s = l % micro_config.n_layers
        for role in ("attn.k_bias", "attn.v_bias"):
            assert np.shares_memory(grown.tensors[f"layers.{l}.{role}"],
                                    micro_ckpt.tensors[f"layers.{s}.{role}"])
        for role in ("attn.wq", "mlp.w_down", "mlp_norm"):
            assert np.shares_memory(grown.tensors[f"layers.{l}.{role}"],
                                    grown.tensors[f"layers.{s}.{role}"])
    routed = TRANSFORMS["upcycle"](micro_ckpt)
    for name, arr in routed.tensors.items():
        layer, expert, role = name.partition(".moe.expert.")
        if expert:  # every expert holds the dense MLP's array
            name = f"{layer}.mlp.{role.split('.', 1)[1]}"
        if not name.endswith(".moe.router"):
            assert arr is micro_ckpt.tensors[name], name


@pytest.mark.parametrize("transform, routed", CASES)
def test_a_transform_of_an_unfrozen_input_ignores_later_writes_to_it(micro_ckpt, transform,
                                                                     routed):
    frozen = transform_input(micro_ckpt, routed)
    ckpt = thawed(frozen)
    out = TRANSFORMS[transform](ckpt)
    for arr in ckpt.tensors.values():
        arr[...] = 7.0  # the caller's arrays stay the caller's, and writable
    expected = TRANSFORMS[transform](frozen)
    assert list(out.tensors) == list(expected.tensors)
    for name, arr in out.tensors.items():
        assert arr.tobytes() == expected.tensors[name].tobytes(), name


@pytest.mark.parametrize("transform, routed", CASES)
@pytest.mark.parametrize("name", ["embed", "layers.1.attn.k_bias", "layers.0.mlp.w_up"])
def test_a_non_finite_value_in_an_unfrozen_input_fails_every_transform(micro_ckpt, transform,
                                                                        routed, name):
    ckpt = thawed(transform_input(micro_ckpt, routed))
    if routed:
        name = name.replace(".mlp.", ".moe.expert.2.")
    ckpt.tensors[name][0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        TRANSFORMS[transform](ckpt)


# -- a transform scans only the arrays it creates ------------------------------


@pytest.mark.parametrize("transform, routed", CASES)
def test_a_transform_of_a_frozen_input_scans_each_array_it_creates_once(micro_ckpt, transform,
                                                                        routed, monkeypatch):
    src = transform_input(micro_ckpt, routed)
    scans = count_scans(monkeypatch)
    out = TRANSFORMS[transform](src)
    made = {id(arr) for arr in out.tensors.values()} - {id(arr) for arr in src.tensors.values()}
    assert sorted(map(id, scans)) == sorted(made)
    if transform == "upcycle":  # its routers and nothing else
        assert len(scans) == micro_ckpt.config.n_layers
    elif transform == "depth":
        assert scans == []
    else:  # width growth passes the kv biases through
        assert out.tensors["layers.1.attn.v_bias"] is src.tensors["layers.1.attn.v_bias"]
