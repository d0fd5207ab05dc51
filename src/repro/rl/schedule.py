"""Exploration schedules.

The paper anneals epsilon to zero over training and evaluates greedily
(Section III-B). :class:`LinearSchedule` covers that and is also used for
any other scalar that must ramp during training.
"""

from __future__ import annotations


class LinearSchedule:
    """Linear interpolation from ``start`` to ``end`` over ``duration`` steps."""

    def __init__(self, start: float, end: float, duration: int):
        if duration < 1:
            raise ValueError("duration must be positive")
        self.start = start
        self.end = end
        self.duration = duration

    @classmethod
    def annealed(
        cls, start: float, end: float, total_steps: int, frac: float
    ) -> "LinearSchedule":
        """The run-level anneal: ramp over ``frac`` of ``total_steps``.

        This is the one place the paper's "annealed over a fraction of
        training" convention is turned into a duration — a resumed run
        rebuilds its schedule from the checkpointed total, not the
        remaining steps, so it resolves the same epsilon for each step.
        """
        return cls(start, end, max(int(total_steps * frac), 1))

    def value(self, step: int) -> float:
        """Scheduled value at ``step`` (clamped beyond the endpoints)."""
        if step <= 0:
            return self.start
        if step >= self.duration:
            return self.end
        frac = step / self.duration
        return self.start + (self.end - self.start) * frac

    def __call__(self, step: int) -> float:
        return self.value(step)
