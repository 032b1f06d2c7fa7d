"""Tests of the benchmark itself: a tiny size of every workload runs end to
end with its checks passing, and every correctness check rejects a
deliberately broken output."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import moegrow as mg  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)
WIDER = dataclasses.replace(workloads.SOURCE, hidden_dim=64, n_heads=8, intermediate_dim=128)


def units(metrics: dict) -> dict[str, str]:
    return {k: v["unit"] for k, v in metrics.items()}


def test_workloads_and_metrics_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    for m in SPEC["per_layer"]:
        assert workloads.per_layer_unit(m["name"]) == m["unit"], m["name"]


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_runs_with_checks_passing(name, tmp_path):
    result = workloads.run(name, seed=3, seconds=0, trace=False, scratch_root=tmp_path, small=True)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert units(result["metrics"]) == workloads.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert list(tmp_path.iterdir()) == []  # scratch checkpoints are removed


def test_a_call_that_raises_is_counted_as_failed(tmp_path, monkeypatch):
    calls = []
    eval_loss = mg.eval_loss

    def fails_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise mg.ValidationError("deliberate")
        return eval_loss(*args, **kwargs)

    monkeypatch.setattr(mg, "eval_loss", fails_once)
    result = workloads.run("scale-up", seed=3, seconds=0, trace=False, scratch_root=tmp_path,
                           small=True)
    # the first pass stops at its first eval_loss call, before its checkpoint
    # I/O; the second pass runs to its end and its outputs pass every check
    assert result["failed"] == 1 and result["attempted"] > 1
    assert result["errors"] == ["ValidationError: deliberate"]
    assert result["correct"], result["failures"]
    assert list(tmp_path.iterdir()) == []


def test_a_run_in_which_every_pass_raises_gives_no_result(tmp_path, monkeypatch):
    def fails(ckpt):
        raise mg.ValidationError("deliberate")

    monkeypatch.setattr(mg, "symmetry_report", fails)
    with pytest.raises(RuntimeError, match="deliberate"):
        workloads.run("transform-io", seed=3, seconds=0, trace=False, scratch_root=tmp_path,
                      small=True)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_reports_every_layer_and_restores_the_package(name, tmp_path):
    result = workloads.run(name, seed=3, seconds=0, trace=True, scratch_root=tmp_path, small=True)
    assert result["correct"], result["failures"]
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    routed = workloads.WORKLOADS[name].routed_forward
    assert result["metrics"]["moe.expert_useful_frac"]["value"] == (0.25 if routed else 1.0)
    assert result["metrics"]["tensor.nodes"]["value"] > 0
    assert not hasattr(mg.train, "__wrapped__")
    assert not hasattr(mg.tensor.Tensor.__matmul__, "__wrapped__")


def test_run_script_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results", ".scratch"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scale-up", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- each check rejects a broken output -------------------------------------------


@pytest.fixture(scope="module")
def source():
    return mg.random_init(workloads.SOURCE, seed=5, init_std=0.1)


@pytest.fixture(scope="module")
def grown(source):
    return mg.fpi_expand(source, WIDER)


def perturbed(ckpt: mg.Checkpoint, name: str, delta: float = 0.5) -> mg.Checkpoint:
    tensors = {k: v.copy() for k, v in ckpt.tensors.items()}
    tensors[name].reshape(-1)[0] += delta
    return mg.Checkpoint(ckpt.config, tensors, ckpt.moe)


def test_preservation_check_rejects_a_perturbed_grown_tensor(source, grown):
    probes = np.random.default_rng(0).integers(0, workloads.VOCAB, size=(2, 16))
    checks.check_preservation(source, grown, probes)
    with pytest.raises(checks.CheckFailed):
        checks.check_preservation(source, perturbed(grown, "layers.1.mlp.w_down"), probes)


def test_preservation_report_check_rejects_a_verdict_its_figures_contradict():
    def report(diff, passed):
        return mg.PreservationReport(max_abs_logit_diff=diff, loss_diff=0.0, passed=passed,
                                     n_probes=2, tol=1e-5)

    checks.check_preservation_report(report(4e-6, True), 2)
    checks.check_preservation_report(report(2e-5, False), 2)
    for broken in (report(2e-3, True), report(4e-6, False), report(float("nan"), False)):
        with pytest.raises(checks.CheckFailed):
            checks.check_preservation_report(broken, 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_preservation_report(report(4e-6, True), 16)


def test_eval_loss_check_rejects_a_wrong_loss(source):
    held_out = np.random.default_rng(1).integers(0, workloads.VOCAB, size=3 * 33)
    reference = checks.reference_eval_loss(source, held_out, 32)
    checks.check_eval_loss(mg.eval_loss(source, held_out, 32), reference)
    with pytest.raises(checks.CheckFailed):
        checks.check_eval_loss(reference + 1e-2, reference)
    with pytest.raises(checks.CheckFailed):
        checks.check_eval_loss(float("nan"), reference)


def test_training_checks_reject_a_loss_that_did_not_fall():
    checks.check_training(2.0, [(0, 1.9), (9, 1.5)])
    with pytest.raises(checks.CheckFailed):
        checks.check_training(1.4, [(0, 1.9), (9, 1.5)])
    with pytest.raises(checks.CheckFailed):
        checks.check_training(2.0, [(9, 1.5)])
    checks.check_grown_start(1.2, 5.5)
    with pytest.raises(checks.CheckFailed):
        checks.check_grown_start(4.0, 5.5)


def test_symmetry_check_rejects_wrong_counts(source, grown):
    report = mg.symmetry_report(grown)
    checks.check_symmetry(report, workloads.SOURCE, WIDER)
    with pytest.raises(checks.CheckFailed):
        checks.check_symmetry({**report, "layers.0.mlp.w_up": report["layers.0.mlp.w_up"] + 1},
                              workloads.SOURCE, WIDER)
    # AKI copies donor slices, so it does not leave FPI's duplicates
    with pytest.raises(checks.CheckFailed):
        checks.check_symmetry(mg.symmetry_report(mg.aki_expand(source, WIDER)),
                              workloads.SOURCE, WIDER)


@pytest.mark.parametrize("bias", [True, False])
def test_param_count_formula_agrees_with_the_package(bias):
    cfg = dataclasses.replace(WIDER, qkv_bias=bias)
    for moe in (None, workloads.MOE):
        assert checks.expected_param_count(cfg, moe) == mg.count_config_params(cfg, moe).total


def test_roundtrip_check_rejects_a_flipped_byte_and_a_wrong_size(grown, tmp_path):
    mg.save_checkpoint(grown, tmp_path)
    checks.check_roundtrip(grown, mg.load_checkpoint(tmp_path), tmp_path)
    blob = tmp_path / "tensors.bin"
    data = bytearray(blob.read_bytes())
    data[-1] ^= 0x80  # the sign bit of the last float
    blob.write_bytes(bytes(data))
    with pytest.raises(checks.CheckFailed):
        checks.check_roundtrip(grown, mg.load_checkpoint(tmp_path), tmp_path)
    data[-1] ^= 0x80
    blob.write_bytes(bytes(data) + b"\0")  # trailing bytes the loader ignores
    with pytest.raises(checks.CheckFailed):
        checks.check_roundtrip(grown, mg.load_checkpoint(tmp_path), tmp_path)


def test_upcycle_structure_check_rejects_a_changed_expert(grown):
    routed = mg.upcycle(grown, workloads.MOE, seed=0)
    checks.check_upcycle_structure(grown, routed, workloads.MOE)
    with pytest.raises(checks.CheckFailed):
        checks.check_upcycle_structure(
            grown, perturbed(routed, "layers.0.moe.expert.3.w_up"), workloads.MOE)


def test_useful_fraction_and_repeat_checks_reject_wrong_values():
    checks.check_useful_frac(0.25, workloads.MOE, routed_layers_ran=True)
    checks.check_useful_frac(1.0, workloads.MOE, routed_layers_ran=False)
    with pytest.raises(checks.CheckFailed):
        checks.check_useful_frac(1.0, workloads.MOE, routed_layers_ran=True)
    with pytest.raises(checks.CheckFailed):
        checks.check_useful_frac(0.25, workloads.MOE, routed_layers_ran=False)
    checks.check_same({"loss": 1.5}, {"loss": 1.5}, "round 1")
    with pytest.raises(checks.CheckFailed):
        checks.check_same({"loss": 1.5}, {"loss": 1.5000001}, "round 1")
