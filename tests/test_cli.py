import dataclasses
import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from moegrow import load_checkpoint, load_tokens, save_tokens
from moegrow.cli import main

MICRO = {
    "n_layers": 2, "hidden_dim": 8, "n_heads": 4, "head_dim": 2, "kv_groups": 2,
    "intermediate_dim": 6, "vocab_size": 16, "qkv_bias": True, "context_length": 64,
}


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(MICRO))
    return tmp_path


def run(argv):
    return main([str(a) for a in argv])


def test_init_inspect(workspace, capsys):
    out = workspace / "ckpt"
    assert run(["init", "--config", workspace / "config.json", "--seed", 3, "--out", out]) == 0
    assert "parameters" in capsys.readouterr().out
    assert run(["inspect", "--in", out]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["hidden_dim"] == 8
    assert doc["moe"] is None
    assert doc["total_params"] == doc["activated_params"]


def test_synth_is_deterministic(workspace, capsys):
    a, b = workspace / "a.u32", workspace / "b.u32"
    assert run(["synth", "--seed", 9, "--vocab", 16, "--tokens", 4000, "--out", a]) == 0
    assert run(["synth", "--seed", 9, "--vocab", 16, "--tokens", 4000, "--out", b]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert load_tokens(a).max() < 16


def test_full_pipeline(workspace, capsys):
    cfg, ckpt = workspace / "config.json", workspace / "dense"
    data = workspace / "data.u32"
    run(["init", "--config", cfg, "--seed", 0, "--out", ckpt])
    run(["synth", "--seed", 1, "--vocab", 16, "--tokens", 6000, "--out", data])

    train_cfg = workspace / "train.json"
    train_cfg.write_text(json.dumps({
        "lr": 3e-3, "warmup_steps": 2, "total_steps": 8,
        "batch_tokens": 64, "seq_len": 16, "seed": 0,
    }))
    trained, log_csv = workspace / "trained", workspace / "metrics.csv"
    code = run([
        "train", "--in", ckpt, "--data", data, "--config", train_cfg,
        "--out", trained, "--log", log_csv, "--eval-data", data, "--eval-every", 4,
    ])
    assert code == 0
    assert "trained 8 steps" in capsys.readouterr().out
    assert log_csv.read_text().startswith("step,train_loss,lr,eval_loss")

    assert run(["eval", "--in", trained, "--data", data, "--seq-len", 16]) == 0
    assert "eval loss" in capsys.readouterr().out

    plan = workspace / "plan.json"
    target = dict(MICRO, hidden_dim=16, n_heads=8, intermediate_dim=12, n_layers=4)
    plan.write_text(json.dumps({
        "method": "fpi", "depth_mode": "interpolate",
        "source_config": MICRO, "target_config": target,
    }))
    grown = workspace / "grown"
    assert run(["grow", "--in", trained, "--plan", plan, "--out", grown]) == 0
    assert "fpi/interpolate" in capsys.readouterr().out
    assert load_checkpoint(grown).config.n_layers == 4

    report_json = workspace / "verify.json"
    code = run([
        "verify", "--src", trained, "--dst", grown,
        "--probes", 8, "--report", report_json,
    ])
    captured = capsys.readouterr().out
    # depth growth reuses layers, so exact preservation is not expected here
    assert code in (0, 1)
    assert captured.startswith(("PASS:", "FAIL:"))
    doc = json.loads(report_json.read_text())
    assert set(doc) == {"max_abs_logit_diff", "loss_diff", "passed", "n_probes", "tol"}

    moe = workspace / "moe"
    assert run(["upcycle", "--in", trained, "--experts", 8, "--top-k", 2,
                "--seed", 5, "--out", moe]) == 0
    assert "8 experts" in capsys.readouterr().out
    assert run(["verify", "--src", trained, "--dst", moe, "--probes", 8]) == 0
    assert capsys.readouterr().out.startswith("PASS:")


def test_width_only_growth_verifies_exactly(workspace, capsys):
    cfg, ckpt = workspace / "config.json", workspace / "dense"
    run(["init", "--config", cfg, "--seed", 2, "--out", ckpt])
    plan = workspace / "plan.json"
    target = dict(MICRO, hidden_dim=16, n_heads=8, intermediate_dim=12)
    plan.write_text(json.dumps({
        "method": "fpi", "depth_mode": "stack",
        "source_config": MICRO, "target_config": target,
    }))
    grown = workspace / "grown"
    run(["grow", "--in", ckpt, "--plan", plan, "--out", grown])
    capsys.readouterr()
    assert run(["verify", "--src", ckpt, "--dst", grown]) == 0
    assert capsys.readouterr().out.startswith("PASS:")


def test_a_routed_checkpoint_grows_and_verifies(workspace, capsys):
    cfg, ckpt, routed = workspace / "config.json", workspace / "dense", workspace / "routed"
    run(["init", "--config", cfg, "--seed", 2, "--out", ckpt])
    run(["upcycle", "--in", ckpt, "--experts", 4, "--top-k", 2, "--seed", 5, "--out", routed])
    plan = workspace / "plan.json"
    target = dict(MICRO, hidden_dim=16, n_heads=8, intermediate_dim=12)
    plan.write_text(json.dumps({
        "method": "fpi", "depth_mode": "stack",
        "source_config": MICRO, "target_config": target,
    }))
    grown = workspace / "grown"
    assert run(["grow", "--in", routed, "--plan", plan, "--out", grown]) == 0
    assert load_checkpoint(grown).moe == load_checkpoint(routed).moe
    capsys.readouterr()
    assert run(["verify", "--src", routed, "--dst", grown]) == 0
    assert capsys.readouterr().out.startswith("PASS:")


def test_verify_fail_exits_one(workspace, capsys):
    cfg = workspace / "config.json"
    a, b = workspace / "a", workspace / "b"
    run(["init", "--config", cfg, "--seed", 0, "--out", a])
    run(["init", "--config", cfg, "--seed", 1, "--out", b])
    capsys.readouterr()
    report = workspace / "report.json"
    assert run(["verify", "--src", a, "--dst", b, "--report", report]) == 1
    assert capsys.readouterr().out.startswith("FAIL:")
    assert json.loads(report.read_text())["passed"] is False


def test_missing_checkpoint_exits_two(workspace, capsys):
    assert run(["inspect", "--in", workspace / "nothing"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_config_file_exits_two(workspace, capsys):
    assert run(["init", "--config", workspace / "nope.json", "--seed", 0,
                "--out", workspace / "x"]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_config_json_exits_one(workspace, capsys):
    bad = workspace / "bad.json"
    bad.write_text("{oops")
    assert run(["init", "--config", bad, "--seed", 0, "--out", workspace / "x"]) == 1
    assert "error" in capsys.readouterr().err


def test_incompatible_growth_exits_one(workspace, capsys):
    cfg, ckpt = workspace / "config.json", workspace / "dense"
    run(["init", "--config", cfg, "--seed", 0, "--out", ckpt])
    plan = workspace / "plan.json"
    target = dict(MICRO, kv_groups=4, hidden_dim=16, n_heads=8, intermediate_dim=12)
    plan.write_text(json.dumps({
        "method": "fpi", "depth_mode": "stack",
        "source_config": MICRO, "target_config": target,
    }))
    capsys.readouterr()
    assert run(["grow", "--in", ckpt, "--plan", plan, "--out", workspace / "g"]) == 1
    assert "kv_groups" in capsys.readouterr().err


def test_savings_output_line(workspace, capsys):
    plan = workspace / "plan.json"
    row = {
        "devices": 1024, "gflops_per_device": 240.0, "model_size_B": 32.0,
        "trained_tokens_B": 5345.0, "tokens_per_day_B": 25.0,
    }
    plan.write_text(json.dumps({
        "phases": [
            dict(row, name="preparation", devices=480, gflops_per_device=989.5,
                 model_size_B=7.0, trained_tokens_B=3600.0, tokens_per_day_B=279.0),
            dict(row, name="scale-up", model_size_B=16.0, trained_tokens_B=1200.0,
                 tokens_per_day_B=70.0),
            dict(row, name="scale-out", trained_tokens_B=545.0),
        ],
        "baseline": dict(row, name="from-scratch"),
    }))
    report = workspace / "savings.json"
    assert run(["savings", "--plan", plan, "--report", report]) == 0
    assert capsys.readouterr().out.strip() == "time_factor 4.12, power_factor 3.35"
    doc = json.loads(report.read_text())
    assert doc["time_factor"] == 4.12
    assert doc["power_factor"] == 3.35
    assert len(doc["phases"]) == 3


def test_train_divergence_exits_one(workspace, capsys):
    cfg, ckpt = workspace / "config.json", workspace / "dense"
    data = workspace / "data.u32"
    run(["init", "--config", cfg, "--seed", 0, "--out", ckpt])
    run(["synth", "--seed", 1, "--vocab", 16, "--tokens", 4000, "--out", data])
    hot = workspace / "hot.json"
    hot.write_text(json.dumps({
        "lr": 1e20, "warmup_steps": 0, "total_steps": 10,
        "batch_tokens": 64, "seq_len": 16, "seed": 0,
    }))
    capsys.readouterr()
    with np.errstate(all="ignore"):
        code = run(["train", "--in", ckpt, "--data", data, "--config", hot,
                    "--out", workspace / "x"])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err


def test_unwritable_report_exits_two_with_an_error_line(workspace, capsys):
    tokens = workspace / "tokens.u32"
    code = run(["synth", "--seed", 1, "--vocab", 16, "--tokens", 100, "--out", tokens,
                "--report", workspace / "missing" / "r.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert len(load_tokens(tokens)) == 100


def test_console_script_help_and_savings(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "moegrow.cli", "--help"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    for name in ("init", "grow", "upcycle", "verify", "train", "eval",
                 "savings", "inspect", "synth"):
        assert name in result.stdout


def _header_is_a_list(ws):
    blob = (ws / "dense" / "tensors.bin").read_bytes()
    (ws / "dense" / "tensors.bin").write_bytes(struct.pack("<Q", 2) + b"[]" + blob[8:])


def _config_is_a_list(ws):
    (ws / "dense" / "config.json").write_text("[]")


def _moe_is_a_list(ws):
    (ws / "dense" / "config.json").write_text(json.dumps(dict(MICRO, moe=[])))


def _partial_token(ws):
    with open(ws / "data.u32", "ab") as fh:
        fh.write(b"\x01\x00")


def _missing_tokens(ws):
    (ws / "data.u32").unlink()


def _context_length_edited(ws):
    # the config a save torn between its renames leaves: same shapes, other values
    doc = json.loads((ws / "dense" / "config.json").read_text())
    (ws / "dense" / "config.json").write_text(json.dumps(dict(doc, context_length=32)))


def _train_config(**fields):
    def write(ws):
        (ws / "train.json").write_text(json.dumps({
            "total_steps": 1, "warmup_steps": 0, "batch_tokens": 16, "seq_len": 8, "seed": 0,
            **fields,
        }))
    return write


def _model_string_bias(ws):
    (ws / "bias.json").write_text(json.dumps(dict(MICRO, qkv_bias="false")))


EVAL = ["eval", "--in", "{ws}/dense", "--data", "{ws}/data.u32"]
INIT = ["init", "--config", "{ws}/config.json", "--seed", "0", "--out", "{ws}/x"]
VERIFY = ["verify", "--src", "{ws}/dense", "--dst", "{ws}/dense"]
TRAIN = ["train", "--in", "{ws}/dense", "--data", "{ws}/data.u32", "--config", "{ws}/train.json",
         "--out", "{ws}/x"]


@pytest.mark.parametrize("argv, break_input, code", [
    (EVAL, _header_is_a_list, 2),
    (EVAL, _config_is_a_list, 2),
    (EVAL, _moe_is_a_list, 2),
    (EVAL, _missing_tokens, 2),
    (EVAL, _partial_token, 1),
    (EVAL, _context_length_edited, 2),
    (["train", "--in", "{ws}/dense", "--data", "{ws}/data.u32", "--config", "{ws}/list.json",
      "--out", "{ws}/x"], None, 1),
    (["grow", "--in", "{ws}/dense", "--plan", "{ws}/number.json", "--out", "{ws}/x"], None, 1),
    (["grow", "--in", "{ws}/dense", "--plan", "{ws}/broken.json", "--out", "{ws}/x"], None, 1),
    (["savings", "--plan", "{ws}/broken.json"], None, 1),
    (["synth", "--seed", "-1", "--vocab", "16", "--tokens", "100", "--out", "{ws}/x.u32"], None, 1),
    (["init", "--config", "{ws}/config.json", "--seed", "-3", "--out", "{ws}/x"], None, 1),
    (["upcycle", "--in", "{ws}/dense", "--seed", "-2", "--out", "{ws}/x"], None, 1),
    (["verify", "--src", "{ws}/dense", "--dst", "{ws}/dense", "--seed", "-1"], None, 1),
    (TRAIN, _train_config(seed=-5), 1),
    (TRAIN, _train_config(seed=1.5), 1),
    (TRAIN, _train_config(seed=True), 1),
    (TRAIN, _train_config(total_steps=2.5), 1),
    (["init", "--config", "{ws}/bias.json", "--seed", "0", "--out", "{ws}/x"], _model_string_bias, 1),
    (TRAIN + ["--eval-data", "{ws}/data.u32", "--eval-every", "0"], _train_config(), 1),
    (INIT + ["--init-std", "-1"], None, 1),
    (INIT + ["--init-std", "nan"], None, 1),
    (INIT + ["--init-std", "inf"], None, 1),
    (VERIFY + ["--tol", "nan"], None, 1),
    (VERIFY + ["--tol=-1e-5"], None, 1),
    (VERIFY + ["--probe-len", "0"], None, 1),
    (VERIFY + ["--probe-len", "1"], None, 1),
    (["init", "--config", "{ws}/latin.json", "--seed", "0", "--out", "{ws}/x"], None, 1),
    (["grow", "--in", "{ws}/dense", "--plan", "{ws}/latin.json", "--out", "{ws}/x"], None, 1),
    (["train", "--in", "{ws}/dense", "--data", "{ws}/data.u32", "--config", "{ws}/latin.json",
      "--out", "{ws}/x"], None, 1),
    (["savings", "--plan", "{ws}/latin.json"], None, 1),
], ids=["header-list", "config-list", "moe-list", "missing-tokens", "partial-token",
        "config-from-another-save", "train-config-list", "plan-number", "plan-not-json",
        "savings-plan-not-json", "synth-seed-negative", "init-seed-negative",
        "upcycle-seed-negative", "verify-seed-negative", "train-seed-negative",
        "train-seed-float", "train-seed-bool", "train-steps-float", "model-bias-string",
        "eval-every-zero", "init-std-negative", "init-std-nan", "init-std-inf",
        "verify-tol-nan", "verify-tol-negative", "verify-probe-len-0", "verify-probe-len-1",
        "init-config-not-utf8", "grow-plan-not-utf8", "train-config-not-utf8",
        "savings-plan-not-utf8"])
def test_malformed_input_exits_with_an_error_line(workspace, capsys, argv, break_input, code):
    run(["init", "--config", workspace / "config.json", "--seed", 0, "--out", workspace / "dense"])
    save_tokens(workspace / "data.u32", np.arange(40) % 16)
    (workspace / "list.json").write_text("[]")
    (workspace / "number.json").write_text("5")
    (workspace / "broken.json").write_text("{not json")
    (workspace / "latin.json").write_bytes(b"\xff\xfe")
    if break_input is not None:
        break_input(workspace)
    capsys.readouterr()
    assert run([a.format(ws=workspace) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("field, value, message", [
    ("devices", "many", "phase 'scale-up': devices must be an integer, got 'many'"),
    ("tokens_per_day_B", 0, "phase 'scale-up': tokens_per_day_B must be > 0, got 0"),
    ("name", 7, "phase: name must be a string, got 7"),
])
def test_a_bad_phase_field_exits_one_naming_the_phase(workspace, capsys, field, value, message):
    good = {"name": "scale-up", "devices": 8, "gflops_per_device": 240.0, "model_size_B": 16.0,
            "trained_tokens_B": 100.0, "tokens_per_day_B": 25.0}
    plan = workspace / "plan.json"
    plan.write_text(json.dumps({"phases": [dict(good, **{field: value})], "baseline": good}))
    assert run(["savings", "--plan", plan]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
