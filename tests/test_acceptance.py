"""End-to-end acceptance checks for the growth pipeline.

Each test prints one PASS/FAIL line with the measured numbers and its
runtime, then asserts. Run with -s (or read captured output) to see them.
"""

import dataclasses
import time

import numpy as np
import pytest

from moegrow import (
    ModelConfig,
    MoEConfig,
    GrowthPlan,
    TrainConfig,
    aki_expand,
    build_width_map,
    count_config_params,
    depth_source_indices,
    eval_loss,
    expand_in_axis,
    fpi_expand,
    grad_check,
    load_balance_loss,
    max_z_loss,
    moe_total_loss,
    random_init,
    scale_up,
    symmetry_report,
    train,
    upcycle,
    verify_preservation,
)
from moegrow.moe import RoutingStats


def report(number: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"{status}: [{number}] {name}: {detail} ({elapsed:.2f}s)"
    print(line)
    try:
        import conftest
    except ImportError:
        return
    conftest.acceptance_lines.append(line)


def doubled(config: ModelConfig) -> ModelConfig:
    return dataclasses.replace(
        config,
        hidden_dim=2 * config.hidden_dim,
        n_heads=2 * config.n_heads,
        intermediate_dim=2 * config.intermediate_dim,
    )


# -- criterion 1: exact function preservation under width growth ---------------


def test_01_width_growth_preserves_function():
    start = time.perf_counter()
    shapes = [(2, 8, 0), (2, 16, 1), (4, 8, 2), (4, 16, 3), (2, 16, 4), (4, 8, 5)]
    worst = 0.0
    for layers, hidden, seed in shapes:
        cfg = ModelConfig(
            n_layers=layers, hidden_dim=hidden, n_heads=4, head_dim=hidden // 4,
            kv_groups=2, intermediate_dim=2 * hidden, vocab_size=32,
            qkv_bias=True, context_length=64,
        )
        ckpt = random_init(cfg, seed=seed, init_std=0.1)
        grown = fpi_expand(ckpt, doubled(cfg))
        result = verify_preservation(ckpt, grown, n_probes=64, probe_len=16)
        worst = max(worst, result.max_abs_logit_diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    report(1, "width growth preserves the function", ok,
           f"max abs logit diff {worst:.3e} <= 1e-05 over {len(shapes)} doubled "
           f"models, 64 probes each", elapsed)
    assert worst <= 1e-5
    assert elapsed < 10.0


# -- criterion 2: upcycling computes the same function at init ------------------


def test_02_upcycled_moe_matches_dense(toy_config):
    start = time.perf_counter()
    dense = random_init(toy_config, seed=7, init_std=0.05)
    moe_cfg = MoEConfig(n_experts=8, top_k=2, renormalize_gates=True)
    worst = 0.0
    for router_seed in (0, 1, 2):
        sparse = upcycle(dense, moe_cfg, seed=router_seed)
        result = verify_preservation(dense, sparse, n_probes=16, probe_len=16)
        worst = max(worst, result.max_abs_logit_diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    report(2, "upcycled 8-expert top-2 MoE matches its dense source", ok,
           f"max abs logit diff {worst:.3e} <= 1e-05 over 3 router seeds", elapsed)
    assert worst <= 1e-5
    assert elapsed < 10.0


# -- criterion 3: savings factors of the reference three-phase plan -------------


def test_03_savings_factors():
    from moegrow import PhaseSpec, power_savings_factor, time_savings_factor

    start = time.perf_counter()

    def phase(name, devices, gflops, size, tokens, rate):
        return PhaseSpec(name=name, devices=devices, gflops_per_device=gflops,
                         model_size_B=size, trained_tokens_B=tokens,
                         tokens_per_day_B=rate)

    phases = [
        phase("preparation", 480, 989.5, 7, 3600, 279),
        phase("scale-up", 1024, 240, 16, 1200, 70),
        phase("scale-out", 1024, 240, 32, 545, 25),
    ]
    baseline = phase("from-scratch", 1024, 240, 32, 5345, 25)
    tf = time_savings_factor(phases, baseline)
    pf = power_savings_factor(phases, baseline)
    elapsed = time.perf_counter() - start
    ok = abs(tf - 4.12) <= 0.01 and abs(pf - 3.35) <= 0.02 and elapsed < 1.0
    report(3, "three-phase plan time/power savings", ok,
           f"time factor {tf:.4f} (4.12±0.01), power factor {pf:.4f} (3.35±0.02)",
           elapsed)
    assert abs(tf - 4.12) <= 0.01
    assert abs(pf - 3.35) <= 0.02
    assert elapsed < 1.0


# -- criterion 4: analytic gradients match finite differences -------------------


def test_04_gradients_match_finite_differences():
    start = time.perf_counter()
    micro = ModelConfig(
        n_layers=1, hidden_dim=4, n_heads=2, head_dim=2, kv_groups=1,
        intermediate_dim=4, vocab_size=8, qkv_bias=True, context_length=16,
    )
    dense_err = grad_check(micro, seed=0)
    moe_err = grad_check(
        micro, seed=0, moe=MoEConfig(n_experts=4, top_k=2, router_init_std=0.5)
    )
    elapsed = time.perf_counter() - start
    worst = max(dense_err, moe_err)
    ok = worst < 1e-3 and elapsed < 60.0
    report(4, "binary64 finite-difference gradient check", ok,
           f"worst relative error dense {dense_err:.3e}, moe {moe_err:.3e} < 1e-03",
           elapsed)
    assert worst < 1e-3
    assert elapsed < 60.0


# -- criteria 5 and 6 share trained source models -------------------------------


SOURCE_TRAIN = dict(lr=3e-3, warmup_steps=30, total_steps=300,
                    batch_tokens=512, seq_len=32)
TARGET_TRAIN = dict(lr=1e-3, warmup_steps=15, total_steps=150,
                    batch_tokens=512, seq_len=32)
EVAL_THRESHOLD = 3.0


@pytest.fixture(scope="module")
def split_corpus(corpus):
    return corpus[:45000], corpus[45000:]


@pytest.fixture(scope="module")
def trained_sources(toy_config, split_corpus):
    """Dense toy models trained to convergence, one per seed."""
    train_data, _ = split_corpus
    out = {}
    for seed in (0, 1, 2):
        ckpt = random_init(toy_config, seed=seed)
        trained, _ = train(ckpt, train_data, TrainConfig(seed=seed, **SOURCE_TRAIN))
        out[seed] = trained
    return out


def target_config(toy_config) -> ModelConfig:
    return dataclasses.replace(doubled(toy_config), n_layers=4)


def test_05_grown_models_start_far_ahead_of_random(toy_config, trained_sources,
                                                   split_corpus):
    start = time.perf_counter()
    _, held_out = split_corpus
    target = target_config(toy_config)
    seq_len = TARGET_TRAIN["seq_len"]

    # (a) width-only growth reproduces the source's eval loss
    source = trained_sources[0]
    source_eval = eval_loss(source, held_out, seq_len)
    width_only = fpi_expand(source, doubled(toy_config))
    width_eval = eval_loss(width_only, held_out, seq_len)
    width_gap = abs(width_eval - source_eval)

    # (b) every grown variant beats 60% of a random init's eval loss
    random_eval = eval_loss(random_init(target, seed=100), held_out, seq_len)
    ratios = {}
    for method in ("fpi", "aki"):
        for mode in ("stack", "interpolate"):
            plan = GrowthPlan(method=method, depth_mode=mode,
                              source_config=toy_config, target_config=target)
            grown = scale_up(source, plan)
            ratios[f"{method}/{mode}"] = eval_loss(grown, held_out, seq_len) / random_eval

    # (c) interpolation is at least as good as stacking for width-preserving
    # growth on most seeds
    interp_wins = 0
    for seed, src in trained_sources.items():
        by_mode = {}
        for mode in ("stack", "interpolate"):
            plan = GrowthPlan(method="fpi", depth_mode=mode,
                              source_config=toy_config, target_config=target)
            by_mode[mode] = eval_loss(scale_up(src, plan), held_out, seq_len)
        if by_mode["interpolate"] <= by_mode["stack"]:
            interp_wins += 1

    elapsed = time.perf_counter() - start
    ok = (
        width_gap <= 1e-5
        and all(r < 0.6 for r in ratios.values())
        and interp_wins >= 2
        and elapsed < 600.0
    )
    ratio_text = ", ".join(f"{k} {v:.2f}" for k, v in ratios.items())
    report(5, "grown models inherit the source's loss", ok,
           f"width-only gap {width_gap:.2e} <= 1e-05; variant/random eval ratios "
           f"{ratio_text} all < 0.6; interpolate <= stack on {interp_wins}/3 seeds",
           elapsed)
    assert width_gap <= 1e-5
    for name, ratio in ratios.items():
        assert ratio < 0.6, f"{name} ratio {ratio:.3f}"
    assert interp_wins >= 2
    assert elapsed < 600.0


def first_crossing(log, threshold: float):
    for step, value in log.eval_series():
        if value <= threshold:
            return step
    return None


@pytest.fixture(scope="module")
def target_runs(toy_config, trained_sources, split_corpus):
    """Per seed, the eval logs of the FPI/interpolate-grown target and of a
    fresh one, trained alike; and the seconds the six runs took."""
    start = time.perf_counter()
    train_data, held_out = split_corpus
    target = target_config(toy_config)
    logs = {}
    for seed, source in trained_sources.items():
        plan = GrowthPlan(method="fpi", depth_mode="interpolate",
                          source_config=toy_config, target_config=target)
        grown = scale_up(source, plan)
        fresh = random_init(target, seed=seed + 100)
        cfg = TrainConfig(seed=seed, **TARGET_TRAIN)
        _, grown_log = train(grown, train_data, cfg, eval_data=held_out, eval_every=5)
        _, fresh_log = train(fresh, train_data, cfg, eval_data=held_out, eval_every=5)
        logs[seed] = (grown_log, fresh_log)
    return logs, time.perf_counter() - start


def test_06_grown_model_converges_in_fewer_steps(target_runs):
    logs, elapsed = target_runs
    crossings = [
        (seed, first_crossing(grown_log, EVAL_THRESHOLD),
         first_crossing(fresh_log, EVAL_THRESHOLD))
        for seed, (grown_log, fresh_log) in logs.items()
    ]
    strictly_faster = all(
        g is not None and (f is None or g < f) for _, g, f in crossings
    )
    ok = strictly_faster and elapsed < 600.0
    detail = "; ".join(
        f"seed {s}: grown step {g}, random step {f}" for s, g, f in crossings
    )
    report(6, f"grown model reaches eval {EVAL_THRESHOLD} first", ok, detail, elapsed)
    assert strictly_faster, crossings
    assert elapsed < 600.0


def test_06b_training_lowers_the_grown_models_loss_below_a_fresh_ones(target_runs):
    # [6] holds at step 0, before any update; this needs the training itself:
    # on every seed the grown model ends below where it started and below the
    # fresh model's end
    start = time.perf_counter()
    logs, _ = target_runs
    ends = {}
    for seed, (grown_log, fresh_log) in logs.items():
        grown, fresh = grown_log.eval_series(), fresh_log.eval_series()
        ends[seed] = (grown[0][1], grown[-1][1], fresh[-1][1])
    ok = all(last < first and last < fresh for first, last, fresh in ends.values())
    detail = "; ".join(
        f"seed {s}: grown {first:.3f} -> {last:.3f}, fresh -> {fresh:.3f}"
        for s, (first, last, fresh) in ends.items()
    )
    report(6, "training lowers the grown model's loss below a fresh one's", ok, detail,
           time.perf_counter() - start)
    for seed, (first, last, fresh) in ends.items():
        assert last < first, (seed, first, last)
        assert last < fresh, (seed, last, fresh)


# -- criterion 7: provenance of symmetry-breaking growth ------------------------


def test_07_donor_provenance_and_symmetry(micro_ckpt, micro_config):
    start = time.perf_counter()
    target = doubled(micro_config)
    grown_aki = aki_expand(micro_ckpt, target)
    grown_fpi = fpi_expand(micro_ckpt, target)

    # every expanded w_down output slice must be the layer-above's split
    # tensor at the mapped column, bitwise
    hidden_map = build_width_map(micro_config.hidden_dim, target.hidden_dim)
    inter_map = build_width_map(micro_config.intermediate_dim, target.intermediate_dim)
    donor = expand_in_axis(micro_ckpt.tensors["layers.1.mlp.w_down"], inter_map)
    own = expand_in_axis(micro_ckpt.tensors["layers.0.mlp.w_down"], inter_map)
    got = grown_aki.tensors["layers.0.mlp.w_down"]
    primary = hidden_map.primary_mask()
    provenance_exact = all(
        got[:, j].tobytes()
        == (own if primary[j] else donor)[:, hidden_map.src_index[j]].tobytes()
        for j in range(target.hidden_dim)
    )

    sym_fpi = symmetry_report(grown_fpi)
    sym_aki = symmetry_report(grown_aki)
    fpi_pairs = sym_fpi["layers.0.mlp.w_down"]
    aki_pairs = sum(
        sym_aki[f"layers.0.{role}"]
        for role in ("mlp.w_down", "mlp.w_gate", "mlp.w_up", "attn.wq", "attn.wo")
    )
    elapsed = time.perf_counter() - start
    ok = (
        provenance_exact
        and fpi_pairs >= micro_config.hidden_dim
        and aki_pairs == 0
        and elapsed < 5.0
    )
    report(7, "donor provenance is bitwise and breaks weight symmetry", ok,
           f"donor slices exact: {provenance_exact}; duplicate pairs "
           f"{fpi_pairs} >= {micro_config.hidden_dim} after self-duplication, "
           f"{aki_pairs} in donor-expanded regions", elapsed)
    assert provenance_exact
    assert fpi_pairs >= micro_config.hidden_dim
    assert aki_pairs == 0
    assert elapsed < 5.0


# -- criterion 8: auxiliary-loss closed forms ------------------------------------


def test_08_auxiliary_loss_values():
    start = time.perf_counter()
    uniform = RoutingStats(f=np.full(8, 0.125), P=np.full(8, 0.125), z=np.zeros(1))
    balance = load_balance_loss(uniform, 8)

    zero_logit_lse = float(np.log(8.0))
    z_value = max_z_loss(np.array([zero_logit_lse]))
    z_target = float(np.log(8.0) ** 2)

    cfg = MoEConfig(n_experts=8, top_k=2)
    combined = moe_total_loss(2.5, balance, z_value, cfg)
    combined_exact = combined == 2.5 + 0.001 * balance + 0.01 * z_value

    elapsed = time.perf_counter() - start
    ok = (
        balance == 1.0
        and abs(z_value - z_target) <= 1e-9
        and combined_exact
        and elapsed < 1.0
    )
    report(8, "auxiliary losses hit their closed forms", ok,
           f"uniform balance {balance} == 1.0; zero-logit z {z_value:.12f} vs "
           f"(ln 8)^2 {z_target:.12f}; combined arithmetic exact: {combined_exact}",
           elapsed)
    assert balance == 1.0
    assert abs(z_value - z_target) <= 1e-9
    assert combined_exact
    assert elapsed < 1.0


# -- criterion 9: parameter accounting at reference scale ------------------------


def test_09_large_moe_activated_parameters():
    start = time.perf_counter()
    big = ModelConfig(
        n_layers=40, hidden_dim=5120, n_heads=40, head_dim=128, kv_groups=8,
        intermediate_dim=20480, vocab_size=100000, qkv_bias=True,
    )
    counted = count_config_params(big, moe=MoEConfig(n_experts=8, top_k=2))
    elapsed = time.perf_counter() - start
    ok = 27e9 <= counted.activated <= 31e9 and elapsed < 1.0
    report(9, "8-expert top-2 build of the 16B config activates ~30B", ok,
           f"activated {counted.activated:,} in [27B, 31B] "
           f"(total {counted.total:,})", elapsed)
    assert 27e9 <= counted.activated <= 31e9
    assert elapsed < 1.0


# -- criterion 10: depth-map goldens ---------------------------------------------


def test_10_depth_map_goldens():
    start = time.perf_counter()
    interp = depth_source_indices(3, 6, "interpolate")
    stack = depth_source_indices(3, 6, "stack")
    elapsed = time.perf_counter() - start
    ok = interp == [0, 0, 1, 1, 2, 2] and stack == [0, 1, 2, 0, 1, 2]
    report(10, "3->6 depth maps", ok,
           f"interpolate {interp}, stack {stack}", elapsed)
    assert interp == [0, 0, 1, 1, 2, 2]
    assert stack == [0, 1, 2, 0, 1, 2]
