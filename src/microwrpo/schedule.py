"""Time-varying fusion coefficient alpha(t).

The linear kind ramps from 0 at step 0 to the target at total_steps and
clamps there; the static kind holds the target throughout (the ablation
baseline). Alpha advances per optimizer step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, is_number

__all__ = ["FusionSchedule", "alpha_at"]

SCHEDULE_KINDS = ("linear", "static")


@dataclass(frozen=True)
class FusionSchedule:
    kind: str
    target: float
    total_steps: int

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise InputError(f"unknown schedule kind {self.kind!r}")
        if not is_number(self.target) or not 0 <= self.target <= 1:
            raise InputError(f"target must be a number in [0, 1] (got {self.target!r})")
        if not is_number(self.total_steps, integer=True) or self.total_steps < 1:
            raise InputError(f"total_steps must be an int >= 1 (got {self.total_steps!r})")


def alpha_at(schedule: FusionSchedule, step: int) -> float:
    """Fusion coefficient at an optimizer step (clamped beyond total_steps)."""
    if step < 0:
        raise InputError("step must be >= 0")
    if schedule.kind == "static":
        return schedule.target
    return min(schedule.target, schedule.target * step / schedule.total_steps)
