"""λ (look-ahead coefficient) schedules."""

from __future__ import annotations


class LambdaSchedule:
    """Schedule for the look-ahead coefficient λ of Equation 3.

    The paper initializes λ to 0 and increases it by 0.001 every epoch
    (Section V-A3); ``LinearLambda`` reproduces that, with an optional cap.
    """

    def value_at(self, epoch: int) -> float:
        """λ to use during ``epoch`` (0-based)."""
        raise NotImplementedError


class ConstantLambda(LambdaSchedule):
    """Fixed λ; ``ConstantLambda(0.0)`` (``FFConfig``'s default) is plain FF."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"lambda must be >= 0, got {value}")
        self.value = float(value)

    def value_at(self, epoch: int) -> float:
        return self.value


class LinearLambda(LambdaSchedule):
    """λ(epoch) = min(initial + increment * epoch, maximum)."""

    def __init__(
        self,
        initial: float = 0.0,
        increment: float = 0.001,
        maximum: float = 1.0,
    ) -> None:
        if initial < 0 or increment < 0 or maximum < initial:
            raise ValueError(
                f"invalid lambda schedule: initial={initial}, increment={increment}, "
                f"maximum={maximum}"
            )
        self.initial = float(initial)
        self.increment = float(increment)
        self.maximum = float(maximum)

    def value_at(self, epoch: int) -> float:
        return min(self.initial + self.increment * epoch, self.maximum)
