import dataclasses

import pytest

from moegrow import (
    PhaseSpec,
    ValidationError,
    load_plan,
    power_savings_factor,
    savings_report,
    time_savings_factor,
)


def phase(name, devices, gflops, size, tokens, rate):
    return PhaseSpec(
        name=name, devices=devices, gflops_per_device=gflops,
        model_size_B=size, trained_tokens_B=tokens, tokens_per_day_B=rate,
    )


PREPARATION = phase("preparation", 480, 989.5, 7, 3600, 279)
SCALE_UP = phase("scale-up", 1024, 240, 16, 1200, 70)
SCALE_OUT = phase("scale-out", 1024, 240, 32, 545, 25)
BASELINE = phase("from-scratch", 1024, 240, 32, 5345, 25)
PIPELINE = [PREPARATION, SCALE_UP, SCALE_OUT]


def test_three_phase_plan_frozen_factors():
    # Hand-recomputed: (5345/25) / (3600/279 + 1200/70 + 545/25) = 4.1237...
    # and 52,592,640*25^-1... the GFLOPS-days ratio = 3.3469...
    assert time_savings_factor(PIPELINE, BASELINE) == pytest.approx(4.1237, abs=5e-4)
    assert power_savings_factor(PIPELINE, BASELINE) == pytest.approx(3.3469, abs=5e-4)
    assert time_savings_factor(PIPELINE, BASELINE) == pytest.approx(4.12, abs=0.01)
    assert power_savings_factor(PIPELINE, BASELINE) == pytest.approx(3.35, abs=0.02)


def test_cluster_gflops_and_days():
    # cluster GFLOPS is always recomputed from the raw columns
    assert PREPARATION.cluster_gflops == 480 * 989.5 == 474_960
    assert SCALE_UP.cluster_gflops == 245_760
    assert SCALE_OUT.days == pytest.approx(545 / 25)


def test_single_phase_identical_to_baseline_is_one():
    assert time_savings_factor([BASELINE], BASELINE) == 1.0
    assert power_savings_factor([BASELINE], BASELINE) == 1.0


def test_throughput_homogeneity():
    base = time_savings_factor(PIPELINE, BASELINE)
    doubled = [
        dataclasses.replace(p, tokens_per_day_B=2 * p.tokens_per_day_B)
        for p in PIPELINE
    ]
    assert time_savings_factor(doubled, BASELINE) == pytest.approx(2 * base, rel=1e-12)


def test_power_scales_inversely_with_cluster_size():
    base = power_savings_factor(PIPELINE, BASELINE)
    halved = [
        dataclasses.replace(p, devices=p.devices, gflops_per_device=p.gflops_per_device / 2)
        for p in PIPELINE
    ]
    assert power_savings_factor(halved, BASELINE) == pytest.approx(2 * base, rel=1e-12)


def test_time_factor_invariant_under_phase_split():
    split = [
        PREPARATION,
        dataclasses.replace(SCALE_UP, trained_tokens_B=700),
        dataclasses.replace(SCALE_UP, name="scale-up-b", trained_tokens_B=500),
        SCALE_OUT,
    ]
    assert time_savings_factor(split, BASELINE) == pytest.approx(
        time_savings_factor(PIPELINE, BASELINE), rel=1e-12
    )
    assert power_savings_factor(split, BASELINE) == pytest.approx(
        power_savings_factor(PIPELINE, BASELINE), rel=1e-12
    )


def test_factors_move_with_single_phase_changes():
    slower = [PREPARATION, dataclasses.replace(SCALE_UP, tokens_per_day_B=50), SCALE_OUT]
    assert time_savings_factor(slower, BASELINE) < time_savings_factor(PIPELINE, BASELINE)
    hotter = [dataclasses.replace(PREPARATION, gflops_per_device=2000), SCALE_UP, SCALE_OUT]
    assert power_savings_factor(hotter, BASELINE) < power_savings_factor(PIPELINE, BASELINE)


def test_report_contents():
    report = savings_report(PIPELINE, BASELINE)
    assert report.baseline_days == pytest.approx(5345 / 25)
    assert report.baseline_gflops_days == pytest.approx(245_760 * 5345 / 25)
    assert [c.name for c in report.phase_costs] == [p.name for p in PIPELINE]
    assert report.phase_costs[0].gflops_days == pytest.approx(474_960 * 3600 / 279)
    data = report.to_dict()
    assert data["time_factor"] == 4.12
    assert data["power_factor"] == 3.35
    assert len(data["phases"]) == 3


def test_phase_validation():
    with pytest.raises(ValidationError):
        phase("bad", 0, 240, 32, 100, 25).validate()
    with pytest.raises(ValidationError):
        phase("bad", 8, 240, 32, 100, 0).validate()
    with pytest.raises(ValidationError):
        time_savings_factor([], BASELINE)


def test_load_plan_roundtrip():
    doc = {
        "phases": [p.to_dict() for p in PIPELINE],
        "baseline": BASELINE.to_dict(),
    }
    phases, baseline = load_plan(doc)
    assert phases == PIPELINE
    assert baseline == BASELINE


def test_load_plan_errors():
    with pytest.raises(ValidationError):
        load_plan({"phases": []})
    with pytest.raises(ValidationError):
        load_plan({"phases": {}, "baseline": BASELINE.to_dict()})
    doc = {"phases": [PREPARATION.to_dict()], "baseline": BASELINE.to_dict()}
    doc["phases"][0]["extra_column"] = 1
    with pytest.raises(ValidationError):
        load_plan(doc)
    with pytest.raises(ValidationError, match="JSON object"):
        load_plan({"phases": [5], "baseline": BASELINE.to_dict()})
    doc = {"phases": [dict(PREPARATION.to_dict(), devices="many")], "baseline": BASELINE.to_dict()}
    with pytest.raises(ValidationError):
        load_plan(doc)
