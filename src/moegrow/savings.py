"""Time and compute savings of multi-phase training over a flat baseline.

A growth pipeline trains several successively larger models, each phase
processing its own token budget at its own throughput. The baseline trains
the final model from scratch on the combined token budget. Both factors are
ratios of baseline cost to pipeline cost, so larger is better.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import Record
from .errors import ValidationError


@dataclass(frozen=True)
class PhaseSpec(Record):
    """One training phase (or the from-scratch baseline)."""

    _kind = "phase"

    name: str
    devices: int
    gflops_per_device: float
    model_size_B: float
    trained_tokens_B: float
    tokens_per_day_B: float

    def _label(self) -> str:
        # fields are type-checked in order, so a wrong-typed name is reported
        # before any other field, under the plain label
        return f"phase {self.name!r}" if isinstance(self.name, str) else self._kind

    def validate(self) -> None:
        for fname in ("devices", "gflops_per_device", "model_size_B",
                      "trained_tokens_B", "tokens_per_day_B"):
            value = getattr(self, fname)
            if not value > 0:
                raise ValidationError(f"{self._label()}: {fname} must be > 0, got {value}")

    @property
    def cluster_gflops(self) -> float:
        return self.devices * self.gflops_per_device

    @property
    def days(self) -> float:
        return self.trained_tokens_B / self.tokens_per_day_B


@dataclass(frozen=True)
class PhaseCost:
    name: str
    days: float
    cluster_gflops: float
    gflops_days: float


@dataclass(frozen=True)
class SavingsReport:
    time_factor: float
    power_factor: float
    baseline_days: float
    baseline_gflops_days: float
    phase_costs: tuple[PhaseCost, ...]

    def to_dict(self) -> dict:
        return {
            "time_factor": round(self.time_factor, 2),
            "power_factor": round(self.power_factor, 2),
            "baseline_days": self.baseline_days,
            "baseline_gflops_days": self.baseline_gflops_days,
            "phases": [
                {
                    "name": c.name,
                    "days": c.days,
                    "cluster_gflops": c.cluster_gflops,
                    "gflops_days": c.gflops_days,
                }
                for c in self.phase_costs
            ],
        }


def _validate_plan(phases: list[PhaseSpec]) -> None:
    if not phases:
        raise ValidationError("plan needs at least one phase")


def time_savings_factor(phases: list[PhaseSpec], baseline: PhaseSpec) -> float:
    """Days to train all tokens at baseline throughput, over actual days."""
    return savings_report(phases, baseline).time_factor


def power_savings_factor(phases: list[PhaseSpec], baseline: PhaseSpec) -> float:
    """Baseline GFLOPS-days over the summed per-phase GFLOPS-days."""
    return savings_report(phases, baseline).power_factor


def savings_report(phases: list[PhaseSpec], baseline: PhaseSpec) -> SavingsReport:
    """Both factors and the costs behind them, computed once."""
    _validate_plan(phases)
    costs = tuple(
        PhaseCost(name=p.name, days=p.days, cluster_gflops=p.cluster_gflops,
                  gflops_days=p.cluster_gflops * p.days)
        for p in phases
    )
    baseline_days = sum(p.trained_tokens_B for p in phases) / baseline.tokens_per_day_B
    baseline_gflops_days = baseline.cluster_gflops * baseline_days
    return SavingsReport(
        time_factor=baseline_days / sum(c.days for c in costs),
        power_factor=baseline_gflops_days / sum(c.gflops_days for c in costs),
        baseline_days=baseline_days,
        baseline_gflops_days=baseline_gflops_days,
        phase_costs=costs,
    )


def load_plan(doc: dict) -> tuple[list[PhaseSpec], PhaseSpec]:
    """Check a parsed plan document: {"phases": [PhaseSpec...], "baseline": PhaseSpec}."""
    if not isinstance(doc, dict) or set(doc) != {"phases", "baseline"}:
        raise ValidationError("plan must be an object with exactly 'phases' and 'baseline'")
    if not isinstance(doc["phases"], list):
        raise ValidationError("'phases' must be a list")
    phases = [PhaseSpec.from_dict(p) for p in doc["phases"]]
    baseline = PhaseSpec.from_dict(doc["baseline"])
    _validate_plan(phases)
    return phases, baseline
